"""Handshake benchmark for minitls: a closed loop of ``run_scenario`` calls.

One client, one call at a time, no concurrency. Run from the repository
root:

    python3 perfbench/run.py --workload psk_clean --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                  # every workload, end-to-end table
    python3 perfbench/run.py --trace 1        # every workload, per-layer table

``--trace 0`` times the loop with nothing wrapped and reports the
end-to-end metrics. ``--trace 1`` times an untraced loop, then runs as many
calls again with the per-layer wrappers installed, and reports the
per-layer metrics. Each run also re-computes the workload's report digest
at the default seed, untimed, and fails the correctness check on a
mismatch; for ``dtls_lossy`` that pass includes a fixed probe of the
known oversized-ACK crash (see ``workloads.DEFECT_PROBES``). The
last line of output is one JSON object; the lines before it restate each
metric with its unit and sample count. See METRICS.md for what each
metric should move.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

# Set-up is timed this many times per run (this process plus fresh
# interpreters) and reported as the median.
SETUP_RUNS = 5
# Share of --seconds spent on the untraced loop of a traced run.
TRACE_UNTRACED_SHARE = 0.5


class Loop:
    """Calls of one closed-loop pass: per-call wall times and outcomes."""

    def __init__(self, n_kinds: int):
        self.ms_by_kind = [[] for _ in range(n_kinds)]
        self.ok = 0
        self.not_ok = 0
        self.raised = Counter()
        self.problems: list = []
        self.wall_s = 0.0
        self.reports: list = []  # kept only when asked for

    @property
    def attempted(self) -> int:
        return sum(map(len, self.ms_by_kind))

    @property
    def failed(self) -> int:
        return self.not_ok + sum(self.raised.values())

    def all_ms(self) -> list:
        return [ms for kind in self.ms_by_kind for ms in kind]


def run_loop(workload: str, seed: int, first: int, *, seconds=None, count=None, keep=False) -> Loop:
    """Run iterations ``first, first + 1, ...`` for ``seconds`` (stopping at a
    whole rotation of kinds) or for exactly ``count`` calls."""
    import workloads

    n_kinds = len(workloads.WORKLOADS[workload][1])
    loop = Loop(n_kinds)
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds if seconds is not None else None
    i = first
    while True:
        done = i - first
        if count is not None and done >= count:
            break
        if deadline is not None and done % n_kinds == 0 and clock() >= deadline:
            break
        sc = workloads.scenario(workload, seed, i)
        t = clock()
        report, error = workloads.run_one(sc)
        loop.ms_by_kind[i % n_kinds].append((clock() - t) * 1e3)
        if error is not None:
            loop.raised[error] += 1
        else:
            if report.ok:
                loop.ok += 1
            else:
                loop.not_ok += 1
            problem = workloads.check_report(report)
            if problem:
                loop.problems.append(problem)
            if keep:
                loop.reports.append(report)
        i += 1
    loop.wall_s = clock() - start
    return loop


def warm_up(workload: str, seed: int) -> None:
    """One call per scenario kind: fills the ec tables, initialises OpenSSL."""
    import workloads

    run_loop(workload, seed, workloads.WARMUP_BASE, count=len(workloads.WORKLOADS[workload][1]))


def setup_samples(workload: str, seed: int, own_s) -> list:
    """This process's set-up time, if it set up for ``workload``, plus that
    of fresh interpreters, ``SETUP_RUNS`` in all."""
    samples = [] if own_s is None else [own_s]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    while len(samples) < SETUP_RUNS:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, setup: list) -> tuple:
    """(metrics, sample counts) for the untraced loop."""
    # The median is taken per scenario kind first: with an even number of
    # equally frequent kinds the pooled median falls on the gap between two
    # kinds and jumps between them from run to run.
    p50 = statistics.median(statistics.median(ms) for ms in loop.ms_by_kind)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "handshakes_per_s": metric(loop.ok / loop.wall_s, "1/s"),
        "scenario_ms_p50": metric(p50, "ms"),
        "scenario_ms_p90": metric(statistics.quantiles(loop.all_ms(), n=10)[-1], "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"setup_s": len(setup), "handshakes_per_s": loop.ok,
               "scenario_ms_p50": loop.attempted, "scenario_ms_p90": loop.attempted,
               "peak_rss_mb": 1}
    return metrics, samples


def sim_complete_ms(report) -> int | None:
    """Simulated time from the client's first event to its handshake completion."""
    if not report.events:
        return None
    client = report.events[0].split()[1]
    times = [line.split() for line in report.events]
    start = min(int(t) for t, conn, *_ in times if conn == client)
    for t, conn, kind, *_ in times:
        if conn == client and kind == "handshake_complete":
            return int(t) - start
    return None


def per_layer(traced: Loop, tracer, untraced: Loop) -> tuple:
    """(metrics, sample counts) for the traced loop, per scenario."""
    from tracer import LAYERS

    n = traced.attempted
    reports = traced.reports
    calls = tracer.calls

    def per_call(*keys):
        return tracer.total_calls(*keys) / n

    def per_report(get):
        return sum(get(r) for r in reports) / len(reports)

    opens = tracer.total_calls("records.open_tls", "records.open_dtls")
    open_failures = tracer.raised["records.open_tls"] + tracer.raised["records.open_dtls"]
    completes = [c for c in map(sim_complete_ms, reports) if c is not None]
    traced_ms = sum(traced.all_ms())
    untraced_ms_per_call = untraced.wall_s / untraced.attempted
    metrics = {f"{layer}.self_us": metric(tracer.self_s[layer] / n * 1e6, "us") for layer in LAYERS}
    metrics.update({
        "ec.sign_calls": metric(per_call("ec.sign"), "count"),
        "ec.verify_calls": metric(per_call("ec.verify"), "count"),
        "ec.ecdh_calls": metric(per_call("ec.shared_secret"), "count"),
        "ec.keypair_calls": metric(per_call("ec.keypair"), "count"),
        "crypto.aead_calls": metric(per_call("crypto.aead_seal", "crypto.aead_open"), "count"),
        "crypto.sn_mask_calls": metric(per_call("crypto.block_encrypt"), "count"),
        "crypto.hkdf_calls": metric(per_call("crypto.hkdf_extract", "crypto.hkdf_expand"), "count"),
        "crypto.hash_blocks": metric(per_report(
            lambda r: r.counters_client["hash_blocks"] + r.counters_server["hash_blocks"]), "count"),
        "records.seals": metric(per_call("records.seal_tls", "records.seal_dtls"), "count"),
        "records.opens": metric(opens / n, "count"),
        "records.open_failures": metric(open_failures / n, "count"),
        "records.open_ok_ratio": metric((opens - open_failures) / opens, "ratio"),
        "messages.fragments": metric(tracer.items["messages.fragment"] / n, "count"),
        "messages.reassembly_adds": metric(per_call("FragmentBuffer.add"), "count"),
        "keyschedule.calls": metric(tracer.layer_calls("keyschedule") / n, "count"),
        "connection.calls": metric(tracer.layer_calls("connection") / n, "count"),
        "connection.timeouts": metric(per_call("Connection.on_timeout"), "count"),
        "connection.sim_complete_ms_p50": metric(statistics.median(completes), "ms"),
        "simnet.datagrams": metric(per_report(
            lambda r: r.wire["datagrams_c2s"] + r.wire["datagrams_s2c"]), "count"),
        "simnet.wire_bytes": metric(per_report(lambda r: r.total()), "bytes"),
        "simnet.retransmitted_bytes": metric(per_report(lambda r: r.wire["retransmitted_bytes"]), "bytes"),
        "simnet.dropped": metric(per_report(lambda r: r.wire["dropped"]), "count"),
        "simnet.duplicated": metric(per_report(lambda r: r.wire["duplicated"]), "count"),
        "trace.overhead_ratio": metric(traced.wall_s / n / untraced_ms_per_call, "ratio"),
        "trace.coverage": metric(sum(tracer.self_s.values()) * 1e3 / traced_ms, "ratio"),
        "failed_share": metric(
            (traced.failed + untraced.failed) / (traced.attempted + untraced.attempted), "ratio"),
    })
    if calls["bench.run_scenario"] != n:
        raise RuntimeError("a traced call bypassed the run_scenario wrapper")
    samples = dict.fromkeys(metrics, n)
    samples["trace.overhead_ratio"] = samples["failed_share"] = n + untraced.attempted
    samples["connection.sim_complete_ms_p50"] = len(completes)
    for name in ("crypto.hash_blocks", "simnet.datagrams", "simnet.wire_bytes",
                 "simnet.retransmitted_bytes", "simnet.dropped", "simnet.duplicated"):
        samples[name] = len(reports)
    return metrics, samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool, setup_s) -> tuple:
    """Measure one workload; returns (result object, exit code)."""
    import workloads
    from tracer import Tracer, traced_attributes

    left = traced_attributes()
    if left:
        raise RuntimeError(f"untraced timing with wrappers installed: {left}")
    if not trace:
        setup = setup_samples(workload, seed, setup_s)
        loop = run_loop(workload, seed, 0, seconds=seconds)
        metrics, samples = end_to_end(loop, setup)
        attempted, failed, problems = loop.attempted, loop.failed, loop.problems
        raised = loop.raised
    else:
        untraced = run_loop(workload, seed, 0, seconds=seconds * TRACE_UNTRACED_SHARE)
        with Tracer() as tracer:
            traced = run_loop(workload, seed, untraced.attempted, count=untraced.attempted, keep=True)
        metrics, samples = per_layer(traced, tracer, untraced)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        problems = untraced.problems + traced.problems
        raised = untraced.raised + traced.raised

    expected = workloads.stored_digests()[workload]
    digest, probe = workloads.report_digest(workload)
    if digest != expected:
        problems.append(f"report digest {digest} != stored {expected}")
    probe_calls = sum(probe.values())
    probe_failed = probe_calls - probe["ok"]
    if trace:
        metrics["known_defect.failed_share"] = metric(
            probe_failed / probe_calls if probe_calls else 0.0, "ratio")
        samples["known_defect.failed_share"] = probe_calls

    print(f"# workload {workload}  seed {seed}  attempted {attempted}  failed {failed}"
          f"  failed_share {failed / attempted:.6g}")
    for name, count in sorted(raised.items()):
        print(f"# raised {name}: {count}")
    if probe_calls:
        outcomes = ", ".join(f"{name} {count}" for name, count in sorted(probe.items()))
        print(f"# known-defect probe (untimed, default seed): {probe_calls} calls: {outcomes}")
    for name, m in metrics.items():
        print(f"# {name:34} {m['value']:>14.6g} {m['unit']:6} n={samples[name]}")
    for problem in problems:
        print(f"# INCORRECT {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all, in turn")
    parser.add_argument("--seed", type=int, default=None, help="workload seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="timed loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--update-digests", action="store_true",
                        help="recompute the stored report digests and exit")
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import minitls from this checkout: {exc}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.update_digests:
        digests = {w: workloads.report_digest(w)[0] for w in workloads.WORKLOADS}
        workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(json.dumps(digests, indent=2, sort_keys=True))
        return 0
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    unknown = [w for w in names if w not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(workloads.WORKLOADS)}")

    warm_up(names[0], seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(setup_s)
        return 0
    status = 0
    for workload in names:
        if workload != names[0]:
            warm_up(workload, seed)
            setup_s = None
        result, code = run_workload(workload, seed, args.seconds, bool(args.trace), setup_s)
        print(json.dumps(result))
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())
