"""Tests for the benchmark harness itself.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, key, traced_attributes  # noqa: E402

DIGEST_SNIPPET = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "print(json.dumps({w: workloads.report_digest(w)[0] for w in workloads.WORKLOADS}))"
)


def _digests_in_fresh_process(hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run([sys.executable, "-c", DIGEST_SNIPPET, str(BENCH_DIR)],
                         capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(out.stdout)


def test_digest_stable_across_processes_and_matches_stored():
    first = _digests_in_fresh_process("0")
    second = _digests_in_fresh_process("4242")
    assert first == second
    assert first == workloads.stored_digests()


def test_tracer_restores_every_wrapped_attribute():
    originals = {(owner, name): vars(owner)[name] for _, owner, names in TARGETS for name in names}
    all_keys = sorted(key(owner, name) for owner, name in originals)
    try:
        with Tracer():
            assert sorted(traced_attributes()) == all_keys
            raise KeyboardInterrupt  # leaving the block by any exception uninstalls
    except KeyboardInterrupt:
        pass
    assert traced_attributes() == []
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original, key(owner, name)


def _traced_rotation(workload: str) -> Tracer:
    n_kinds = len(workloads.WORKLOADS[workload][1])
    with Tracer() as tracer:
        loop = run.run_loop(workload, workloads.DEFAULT_SEED, 0, count=n_kinds)
    assert loop.attempted == n_kinds == tracer.calls["bench.run_scenario"]
    return tracer


def test_psk_clean_makes_no_ec_calls():
    tracer = _traced_rotation("psk_clean")
    assert {k: tracer.calls[k] for k in ("ec.keypair", "ec.shared_secret", "ec.sign", "ec.verify")} == {
        "ec.keypair": 0, "ec.shared_secret": 0, "ec.sign": 0, "ec.verify": 0}
    assert tracer.self_s["ec"] == 0.0
    assert tracer.layer_calls("keyschedule") > 0


def test_dtls_lossy_reassembles_fragments():
    tracer = _traced_rotation("dtls_lossy")
    assert tracer.calls["FragmentBuffer.add"] > 0
    assert tracer.items["messages.fragment"] > tracer.calls["messages.fragment"]


def test_dtls_lossy_timed_calls_do_not_fail_and_probe_is_counted():
    loop = run.run_loop("dtls_lossy", 5, 0, count=30)
    assert (loop.attempted, loop.failed, loop.problems) == (30, 0, [])
    _, probe = workloads.report_digest("dtls_lossy")
    assert sum(probe.values()) == workloads.DEFECT_PROBES["dtls_lossy"][1]
    assert workloads.report_digest("psk_clean")[1] == {}


def test_loop_counts_raised_calls_and_keeps_going(monkeypatch):
    def explode(sc):
        raise OverflowError("boom")

    monkeypatch.setattr(workloads.bench, "run_scenario", explode)
    loop = run.run_loop("psk_clean", workloads.DEFAULT_SEED, 0, count=3)
    assert (loop.attempted, loop.failed, dict(loop.raised)) == (3, 3, {"OverflowError": 3})


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_outputs_match_benchmark_json():
    spec = _bench_json()
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        out = subprocess.run(
            [*spec["command"], "--workload", "dtls_lossy", "--seed", "3",
             "--seconds", "0.3", "--trace", trace],
            capture_output=True, text=True, cwd=ROOT, timeout=170)
        assert out.returncode == 0, out.stderr
        result = _last_json(out.stdout)
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[group]}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = _bench_json()
    out = subprocess.run(
        [*spec["command"], "--workload", "psk_clean", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
