"""``tools/bench_pairs.py``: the gain rule and the two no-regression verdicts
of ``summarise`` on synthetic runs, and the environment of each benchmark
process.  The tool is a script, so it is loaded by path."""

import importlib.util
import pathlib
import subprocess

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool()


def summary(parent: list, change: list, better="lower", bound=0.25) -> dict:
    """The one metric's summary for one workload whose runs read ``parent`` and ``change``."""
    spec = {"name": "m", "unit": "ms", "better": better, "bound": bound}

    def run(value):
        return {"w": {"correct": True, "attempted": 10, "failed": 0, "metrics": {"m": value}}}

    runs = {"parent": [run(v) for v in parent], "change": [run(v) for v in change]}
    return bench_pairs.summarise(runs, [spec], len(parent))["w"]["metrics"]["m"]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_tie_counts_for_neither_side(better):
    m = summary([100.0] * 10, [100.0] * 10, better)
    assert m["change_wins"] == 0
    assert not m["claim_holds"]
    assert m["within_bound"] and m["resolved"]


def test_claim_needs_nine_of_ten_wins():
    parent = [100.0] * 10
    nine = summary(parent, [90.0] * 9 + [110.0])
    assert nine["change_wins"] == 9 and nine["claim_holds"]
    eight = summary(parent, [90.0] * 8 + [110.0] * 2)
    assert eight["change_wins"] == 8 and not eight["claim_holds"]


def test_claim_needs_a_gap_wider_than_the_parent_iqr():
    parent = [98.0] * 4 + [100.0] * 2 + [102.0] * 4  # quartiles 98 and 102, median 100
    assert summary(parent, [v - 4.5 for v in parent])["claim_holds"]
    inside = summary(parent, [v - 3.5 for v in parent])
    assert inside["change_wins"] == 10 and not inside["claim_holds"]


@pytest.mark.parametrize("better,sign", [("lower", -1), ("higher", 1)])
def test_claim_only_in_the_better_direction(better, sign):
    parent = [100.0] * 10
    assert summary(parent, [100.0 + sign * 10] * 10, better)["claim_holds"]
    worse = summary(parent, [100.0 - sign * 10] * 10, better)
    assert worse["change_wins"] == 0 and not worse["claim_holds"]


@pytest.mark.parametrize("better,sign", [("lower", 1), ("higher", -1)])
def test_within_bound_flips_at_the_bound(better, sign):
    # parent median 100 and bound 0.25: a change median 25 worse is allowed, 25.5 is not
    parent = [100.0] * 10
    assert summary(parent, [100.0 + sign * 25] * 10, better)["within_bound"]
    assert not summary(parent, [100.0 + sign * 25.5] * 10, better)["within_bound"]
    assert summary(parent, [100.0 - sign * 50] * 10, better)["within_bound"]  # better is always within


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_resolved_flips_at_the_bound(better):
    # parent median 100 and bound 0.25: an IQR of 25 resolves, 25.5 does not
    def parent(iqr):
        return [100.0 - iqr / 2] * 4 + [100.0] * 2 + [100.0 + iqr / 2] * 4

    change = [100.0] * 10
    at = summary(parent(25.0), change, better)
    assert at["parent_iqr"] == 25.0 and at["resolved"]
    wide = summary(parent(25.5), change, better)
    assert wide["parent_iqr"] == 25.5 and not wide["resolved"]


@pytest.mark.parametrize("better,sign", [("lower", -1), ("higher", 1)])
def test_wide_parent_spread_resolved_when_every_change_run_wins(better, sign):
    parent = [50.0] * 4 + [100.0] * 2 + [150.0] * 4  # IQR 100, wider than the bound
    beyond = 100.0 + sign * 51  # past every parent run
    assert summary(parent, [beyond] * 10, better)["resolved"]
    touching = [beyond] * 9 + [100.0 + sign * 50]  # one change run ties the parent's best
    assert not summary(parent, touching, better)["resolved"]


def test_every_benchmark_process_runs_without_a_bytecode_cache(monkeypatch, tmp_path):
    # each run writes no bytecode and takes the standard library's from the
    # interpreter's own cache, as the benchmark does, and starts with no
    # __pycache__ under the checkout's src/ and perfbench/, so a cache planted in
    # one checkout cannot be read to favour that side
    planted = [tmp_path / "src" / "minitls" / "__pycache__", tmp_path / "perfbench" / "__pycache__"]
    seen = []
    stdout = '# workload w\n{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}\n'

    def fake_run(argv, **kwargs):
        env = kwargs["env"]
        seen.append((env["PYTHONDONTWRITEBYTECODE"], "PYTHONPYCACHEPREFIX" in env, list(tmp_path.rglob("__pycache__"))))
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    for _ in range(3):
        for cache in planted:
            cache.mkdir(parents=True, exist_ok=True)
            (cache / "stale.cpython-311.pyc").write_bytes(b"stale")
        assert bench_pairs.run_once(tmp_path, seed=1)["w"]["correct"]
    assert seen == [("1", False, [])] * 3
