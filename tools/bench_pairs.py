"""Alternating parent/change pairs of the handshake benchmark, summarised.

Runs ``python3 perfbench/run.py --seed S`` in two checkouts, one pair at
a time, alternating which side runs first, and writes one JSON file with,
per workload and per end-to-end metric (as ``BENCHMARK.json`` in the
change checkout lists them): every run's value, each side's median and
quartiles, how many pairs the change won, and every run's ``correct``
flag. Standard library only; it imports nothing from the checkouts.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR [PAIRS] --seed S --out BENCH_<n>.json

A pair is a win for the change when its value is better in the metric's
``better`` direction; a tie counts for neither side. Every process runs as
the benchmark runs: it loads the standard library's bytecode from the
interpreter's own cache (``PYTHONPYCACHEPREFIX`` is unset) and runs with
``PYTHONDONTWRITEBYTECODE=1``. Before each run, every ``__pycache__`` under the
checkout's ``src/`` and ``perfbench/`` is removed, so both sides compile their
own modules from source and a cache left in one checkout cannot favour it.
``claim_holds`` is the gain rule: wins in at least nine tenths of the pairs,
and medians further apart than the parent's interquartile range. The two
no-regression verdicts use the metric's ``bound``, a fraction of the
parent's median: ``within_bound`` holds when the change's median is no
worse than the parent's by more than that, and ``resolved`` when the
parent's interquartile range is at most that, or every change run beats
every parent run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, seed: int) -> dict:
    """One benchmark process, with no bytecode cache of the checkout's own modules:
    {workload: {"correct", "attempted", "failed", "metrics"}}."""
    for top in ("src", "perfbench"):
        for cache in list((checkout / top).rglob("__pycache__")):
            shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True, check=False, env=env,
    )
    results, workload = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("# workload "):
            workload = line.split()[2]
        elif line.startswith("{") and workload is not None:
            result = json.loads(line)
            results[workload] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            }
            workload = None
    if not results:
        raise RuntimeError(f"{checkout}: no results (exit {proc.returncode}):\n{proc.stderr}")
    return results


def quartiles(values: list) -> list:
    """[Q1, median, Q3], inclusive method: the quartiles lie within the runs."""
    return statistics.quantiles(values, n=4, method="inclusive")


def commit_of(checkout: Path):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def beats(change: float, parent: float, lower_better: bool) -> bool:
    """Whether the change's value is better; a tie is not."""
    return change < parent if lower_better else change > parent


def summarise(runs: dict, end_to_end: list, pairs: int) -> dict:
    workloads = sorted(set(runs["parent"][0]) & set(runs["change"][0]))
    out = {}
    for workload in workloads:
        row = {
            "correct": {side: [r[workload]["correct"] for r in runs[side]] for side in SIDES},
            "failed_share": {
                side: [r[workload]["failed"] / r[workload]["attempted"] for r in runs[side]]
                for side in SIDES
            },
            "metrics": {},
        }
        for spec in end_to_end:
            name, lower_better = spec["name"], spec["better"] == "lower"
            values = {side: [r[workload]["metrics"][name] for r in runs[side]] for side in SIDES}
            q = {side: quartiles(values[side]) for side in SIDES}
            wins = sum(beats(c, p, lower_better) for p, c in zip(values["parent"], values["change"]))
            gap = q["change"][1] - q["parent"][1]
            parent_iqr = q["parent"][2] - q["parent"][0]
            allowed = spec["bound"] * abs(q["parent"][1])
            row["metrics"][name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "bound": spec["bound"],
                "runs": values,
                "median": {side: q[side][1] for side in SIDES},
                "quartiles": {side: [q[side][0], q[side][2]] for side in SIDES},
                "change_wins": wins,
                "pairs": pairs,
                "median_rel_change": gap / q["parent"][1],
                "parent_iqr": parent_iqr,
                "claim_holds": wins * 10 >= 9 * pairs and abs(gap) > parent_iqr
                and (gap < 0) == lower_better,
                "within_bound": (gap if lower_better else -gap) <= allowed,
                "resolved": parent_iqr <= allowed
                or all(beats(c, p, lower_better) for c in values["change"] for p in values["parent"]),
            }
        out[workload] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("pairs", type=int, nargs="?", default=10, help="number of pairs")
    parser.add_argument("--seed", type=int, required=True, help="workload seed for every run")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"), help="JSON file to write")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            print(f"pair {i + 1}/{args.pairs}: {side}", file=sys.stderr, flush=True)
            runs[side].append(run_once(checkouts[side], args.seed))

    doc = {
        "command": ["python3", "perfbench/run.py", "--seed", str(args.seed)],
        "seed": args.seed,
        "pairs": args.pairs,
        "order": "parent first in odd-numbered pairs, change first in even-numbered ones",
        "commits": {side: commit_of(checkouts[side]) for side in SIDES},
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "workloads": summarise(runs, end_to_end, args.pairs),
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
