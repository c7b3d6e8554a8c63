"""Deterministic Python call counts of the handshake benchmark's workloads.

For each workload that ``BENCHMARK.json`` of the given checkout lists, one
fresh interpreter makes one warm-up call (iteration ``WARMUP_BASE``), then
runs iterations 0 .. N-1 at the default seed under cProfile. ``calls`` sums
the call count of every profiled code object, builtins included;
``openssl_verifies`` is the count of OpenSSL's ECDSA verify, the
``verify`` method of ``cryptography``'s ``ECPublicKey``, and
``openssl_derivations`` the count of OpenSSL EC key derivations from a
scalar, ``cryptography``'s built-in ``ec.derive_private_key``. Prints one
JSON object, workload -> {"calls": ..., "openssl_derivations": ...,
"openssl_verifies": ...}. The counts
repeat exactly for one checkout on one Python version, so they resolve
changes too small for wall-clock pairs; compare two checkouts on the same
interpreter. With ``--parent PARENT`` it counts both checkouts and prints,
in place of the JSON, one ``workload count: before -> after (delta)`` line
per workload and count, then the same way the ``src/minitls`` line count
and the number of modules ``import minitls.bench`` adds to a bare
interpreter.

    python3 tools/call_counts.py [CHECKOUT] [--parent PARENT] [--iterations N]

Standard library only; like ``bench_pairs.py`` it imports nothing from the
checkout in this process, so a parent checkout can be counted too.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path


def is_openssl_verify(code) -> bool:
    """Whether a cProfile entry's code, a code object or a builtin's label, is ``ECPublicKey.verify``."""
    return isinstance(code, str) and code.startswith("<method 'verify' of ") and code.endswith(".ECPublicKey' objects>")


def is_openssl_derivation(code) -> bool:
    """Whether a cProfile entry's code is the built-in that derives an EC key from its scalar."""
    return code == "<built-in method ec.derive_private_key>"


def count_here(workload: str, iterations: int) -> dict:
    """Run in the checkout's directory: the counts of one workload."""
    import cProfile

    sys.path.insert(0, str(Path.cwd() / "perfbench"))
    import workloads

    workloads.run_one(workloads.scenario(workload, workloads.DEFAULT_SEED, workloads.WARMUP_BASE))
    profile = cProfile.Profile()
    profile.enable()
    for i in range(iterations):
        workloads.run_one(workloads.scenario(workload, workloads.DEFAULT_SEED, i))
    profile.disable()
    # one entry per code object: pstats keys functions by (file, line, name), so
    # it would merge every NamedTuple __new__, each eval-compiled as ("<string>", 1, "<lambda>")
    entries = profile.getstats()
    return {
        "calls": sum(entry.callcount for entry in entries),
        "openssl_derivations": sum(entry.callcount for entry in entries if is_openssl_derivation(entry.code)),
        "openssl_verifies": sum(entry.callcount for entry in entries if is_openssl_verify(entry.code)),
    }


def count_in(checkout: Path, workload: str, iterations: int) -> dict:
    """``count_here`` in a fresh interpreter whose working directory is ``checkout``."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--iterations", str(iterations)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        raise RuntimeError(f"{checkout}: {workload}: exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def count_calls(checkout: Path, iterations: int) -> dict:
    """Workload -> its counts, for every workload ``BENCHMARK.json`` lists."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {w["name"]: count_in(checkout, w["name"], iterations) for w in spec["workloads"]}


def src_lines(checkout: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (checkout / "src" / "minitls").glob("*.py"))


def import_modules(checkout: Path) -> int:
    """The modules ``import minitls.bench`` adds to ``sys.modules`` in a fresh interpreter,
    importing from the checkout's ``src``."""
    code = "import sys; before = len(sys.modules); import minitls.bench; print(len(sys.modules) - before)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=checkout, env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
        capture_output=True, text=True, check=True,
    )
    return int(proc.stdout)


def difference(parent: dict, change: dict, totals: dict) -> list:
    """The parent -> change lines of two ``count_calls`` results, then of ``totals``,
    label -> its (parent, change) values."""
    out = []
    for name, counts in sorted(change.items()):
        for count, after in sorted(counts.items()):
            before = parent.get(name, {}).get(count, 0)
            out.append(f"{name} {count}: {before:,} -> {after:,} ({after - before:+,})")
    for label, (before, after) in totals.items():
        out.append(f"{label}: {before:,} -> {after:,} ({after - before:+,})")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, nargs="?", default=Path("."), help="checkout to count")
    parser.add_argument("--parent", type=Path, help="parent checkout: print parent -> CHECKOUT lines, not JSON")
    parser.add_argument("--iterations", type=int, default=60, help="profiled iterations per workload")
    parser.add_argument("--workload", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload:
        print(json.dumps(count_here(args.workload, args.iterations)))
    elif args.parent:
        checkouts = (args.parent.resolve(), args.checkout.resolve())
        parent, change = (count_calls(checkout, args.iterations) for checkout in checkouts)
        totals = {
            "src/minitls lines": tuple(src_lines(checkout) for checkout in checkouts),
            "import minitls.bench modules": tuple(import_modules(checkout) for checkout in checkouts),
        }
        print("\n".join(difference(parent, change, totals)))
    else:
        print(json.dumps(count_calls(args.checkout.resolve(), args.iterations), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
