"""bench: run wire-overhead scenarios and render comparison tables.

Exit codes: 0 success, 2 any protocol failure, 3 reference-sign breach
under --compare-paper --strict, 4 a configuration error (one line on stderr).
"""

import argparse
import json
import sys

from .bench import Scenario, deviation_pct, emit, paper_reference, run_scenario
from .errors import ConfigError
from .profiles import profile_names, resolve
from .simnet import NetConfig

EXIT_OK = 0
EXIT_PROTOCOL_FAILURE = 2
EXIT_THRESHOLD_BREACH = 3
EXIT_CONFIG = 4

DEVIATION_WARN_PCT = 25.0


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", default="psk128", choices=profile_names())
    p.add_argument("--protocol", default="dtls", choices=["tls", "dtls"])
    p.add_argument("--mode", default=None,
                   help="auth mode (default: psk for psk profiles and full, pk_mutual otherwise)")
    p.add_argument("--suite", type=lambda s: int(s, 0), default=None,
                   help="pin one cipher suite by wire code, e.g. 0x1304")
    p.add_argument("--cid", type=int, default=None, metavar="N")
    p.add_argument("--loss", type=float, default=0.0, metavar="P")
    p.add_argument("--dup", type=float, default=0.0, metavar="P")
    p.add_argument("--reorder", type=float, default=0.0, metavar="P")
    p.add_argument("--mtu", type=int, default=1280, metavar="N")
    p.add_argument("--latency", type=int, default=10, metavar="MS")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--cert-size", type=int, default=None, metavar="N")
    p.add_argument("--framing", type=int, default=0, metavar="N",
                   help="constant per-datagram encapsulation overhead")
    p.add_argument("--app-payload", type=int, default=0, metavar="N")
    p.add_argument("--packing", action="store_true")
    p.add_argument("--padding", type=int, default=0, metavar="N")
    p.add_argument("--compat", action="store_true")
    p.add_argument("--dos", action="store_true",
                   help="require the DTLS cookie exchange before allocating state")


def _scenario_from_args(args) -> Scenario:
    overrides = {}
    if args.cert_size is not None:
        overrides["cert_size"] = args.cert_size
    if args.compat:
        overrides["compat_mode"] = True
    mode = args.mode
    if mode is None:
        mode = "psk" if args.profile.startswith("psk") or args.profile == "full" else "pk_mutual"
    if mode == "zero_rtt":
        overrides.setdefault("zero_rtt", True)
        overrides.setdefault("modes", sorted({mode} | {m.value for m in resolve(args.profile).modes}))
    net = NetConfig(
        loss_rate=args.loss,
        dup_rate=args.dup,
        reorder_rate=args.reorder,
        latency_ms=args.latency,
        mtu=args.mtu,
        seed=args.seed,
        framing_overhead=args.framing,
    )
    return Scenario(
        profile=args.profile,
        protocol=args.protocol,
        mode=mode,
        suite=args.suite,
        net=net,
        overrides=overrides,
        app_payload=args.app_payload,
        cid=args.cid,
        packing=args.packing,
        pad_len=args.padding,
        compare_paper=args.compare_paper,
        dos=args.dos,
    )


def _finish(reports, args) -> int:
    text = emit(reports, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    code = EXIT_OK
    for rep in reports:
        if not rep.ok:
            code = max(code, EXIT_PROTOCOL_FAILURE)
    if args.compare_paper:
        for rep in reports:
            ref = paper_reference(rep)
            if ref is None or not rep.ok:
                continue
            label, v12, v13 = ref
            deviation = deviation_pct(rep, v13)
            if abs(deviation) > DEVIATION_WARN_PCT:
                print(
                    f"warning: {label}: measured {rep.total()} deviates "
                    f"{deviation:+.1f}% from the reference {v13}",
                    file=sys.stderr,
                )
            if args.strict:
                measured_sign = rep.total() - rep.legacy12_total
                reference_sign = v13 - v12
                if measured_sign * reference_sign < 0:
                    print(
                        f"error: {label}: 1.3-vs-1.2 sign disagrees with the reference "
                        f"({measured_sign:+} here, {reference_sign:+} published)",
                        file=sys.stderr,
                    )
                    code = max(code, EXIT_THRESHOLD_BREACH)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    _add_scenario_args(run_p)
    matrix_p = sub.add_parser("matrix", help="run a scenario matrix from JSON")
    matrix_p.add_argument("--config", required=True, metavar="JSON")
    for p in (run_p, matrix_p):
        p.add_argument("--format", default="text", choices=["text", "csv", "json"])
        p.add_argument("--compare-paper", action="store_true")
        p.add_argument("--strict", action="store_true")
        p.add_argument("--out", default=None, metavar="PATH")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            scenarios = [_scenario_from_args(args)]
        else:
            try:
                with open(args.config) as fh:
                    config = json.load(fh)
            except (OSError, ValueError) as exc:  # unreadable, or not JSON
                raise ConfigError(f"matrix {args.config}: {exc}") from None
            entries = config.get("scenarios") if isinstance(config, dict) else None
            if not isinstance(entries, list):
                raise ConfigError(f'matrix {args.config}: not a {{"scenarios": [...]}} object')
            scenarios = [Scenario.from_dict(d) for d in entries]
            if args.compare_paper:
                scenarios = [s._replace(compare_paper=True) for s in scenarios]
        reports = [run_scenario(s) for s in scenarios]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _finish(reports, args)


if __name__ == "__main__":
    sys.exit(main())
