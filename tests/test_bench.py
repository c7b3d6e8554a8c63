import contextlib
import hashlib
import io
import json
import pathlib
import re
import shlex

import pytest

from minitls import cli, crypto
from minitls.bench import (
    CSV_HEADER,
    REFERENCE_TABLE,
    Scenario,
    build_configs,
    deviation_pct,
    emit,
    paper_reference,
    run_scenario,
)
from minitls.connection import MAX_EARLY_DATA
from minitls.errors import ConfigError
from minitls.profiles import MAX_CERT_SIZE
from minitls.simnet import NetConfig


def scenario(**kw):
    kw.setdefault("net", NetConfig(seed=1))
    return Scenario(**kw)


def test_scenario_json_round_trip():
    s = scenario(
        profile="ecdsa128",
        protocol="dtls",
        mode="pk_mutual",
        cid=4,
        packing=True,
        overrides={"cert_size": 640},
    )
    assert Scenario.from_dict(json.loads(json.dumps(s.to_dict()))) == s


def test_reference_table_values_frozen():
    assert len(REFERENCE_TABLE) == 6
    by_label = {label: (v12, v13) for label, _, _, _, v12, v13 in REFERENCE_TABLE}
    assert by_label["TLS PSK AES-128-CCM"] == (337, 380)
    assert by_label["TLS ECDHE-ECDSA AES-128-CCM"] == (1308, 1371)
    assert by_label["TLS ECDHE-ECDSA AES-256-CCM"] == (1454, 1415)
    assert by_label["DTLS PSK AES-128-CCM"] == (627, 467)
    assert by_label["DTLS ECDHE-ECDSA AES-128-CCM"] == (1726, 1500)
    assert by_label["DTLS ECDHE-ECDSA AES-256-CCM"] == (1879, 1542)


def test_dtls_psk_handshake_only_run():
    r = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk"))
    assert r.ok
    assert r.counters_client["sign_ops"] == 0
    assert r.counters_server["sign_ops"] == 0
    assert r.wire["retransmitted_bytes"] == 0


def test_lossy_run_completes_with_retransmissions():
    s = scenario(
        profile="ecdsa128", protocol="dtls", mode="pk_mutual",
        net=NetConfig(loss_rate=0.2, seed=7),
    )
    r = run_scenario(s)
    assert r.ok
    assert r.wire["retransmitted_bytes"] > 0


def test_accounting_closure_exact():
    for kw in (
        dict(profile="psk128", protocol="dtls", mode="psk"),
        dict(profile="ecdsa128", protocol="dtls", mode="pk_mutual"),
        dict(profile="psk128", protocol="tls", mode="psk"),
        dict(profile="ecdsa128", protocol="dtls", mode="pk_mutual",
             net=NetConfig(loss_rate=0.15, seed=3, framing_overhead=9)),
    ):
        r = run_scenario(scenario(**kw))
        assert r.ok
        per_msg = sum(size for _, _, size, _ in r.per_message)
        assert per_msg == r.wire["bytes_c2s"] + r.wire["bytes_s2c"] - _dup_bytes(r)
        framing = r.scenario.net.framing_overhead
        datagrams = r.wire["datagrams_c2s"] + r.wire["datagrams_s2c"]
        assert (
            r.wire["framed_c2s"] + r.wire["framed_s2c"]
            == r.wire["bytes_c2s"] + r.wire["bytes_s2c"] + framing * datagrams
        )


def _dup_bytes(report):
    return 0  # no dup_rate in these scenarios


def test_duplication_counted_on_wire_but_not_per_message():
    r = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk",
                              net=NetConfig(dup_rate=1.0, seed=5)))
    assert r.ok
    per_msg = sum(size for _, _, size, _ in r.per_message)
    assert r.wire["bytes_c2s"] + r.wire["bytes_s2c"] == 2 * per_msg


def test_wire_direction_dtls_13_beats_12_model():
    for profile, mode in (("psk128", "psk"), ("ecdsa128", "pk_mutual")):
        r = run_scenario(scenario(profile=profile, protocol="dtls", mode=mode))
        assert r.ok
        assert r.total() < r.legacy12_total


def test_mode_ranking_by_bytes():
    def total(profile, mode, **kw):
        r = run_scenario(scenario(profile=profile, mode=mode, protocol="dtls", **kw))
        assert r.ok
        return r.total()

    psk = total("psk128", "psk")
    psk_ecdhe = total("psk128", "psk_ecdhe",
                      overrides={"modes": ["psk_ecdhe"], "groups": [0x0017]})
    pk = total("ecdsa128", "pk_mutual")
    assert psk <= psk_ecdhe < pk


def test_zero_rtt_rtt_is_zero():
    r = run_scenario(scenario(profile="full", protocol="dtls", mode="zero_rtt"))
    assert r.ok
    assert r.rtt_to_first_appdata_ms == 0
    other = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk"))
    assert other.rtt_to_first_appdata_ms > 0


def test_retried_zero_rtt_rtt_is_the_handshake_time():
    # the HelloRetryRequest of a --dos server ends the 0-RTT offer (RFC 8446 section
    # 4.2.10), so the first application data waits for the handshake, as in every other mode
    r = run_scenario(scenario(profile="full", protocol="dtls", mode="zero_rtt", dos=True))
    assert r.ok and not any("early_data" in line for line in r.events)
    assert r.rtt_to_first_appdata_ms == 40


def test_compat_flag_costs_session_id_plus_ccs():
    base = run_scenario(scenario(profile="psk128", protocol="tls", mode="psk"))
    compat = run_scenario(scenario(profile="psk128", protocol="tls", mode="psk",
                                   overrides={"compat_mode": True}))
    assert compat.ok and base.ok
    assert compat.total() - base.total() >= 33 + 6


def test_cert_size_sensitivity_matched():
    base = run_scenario(scenario(profile="ecdsa128", protocol="dtls", mode="pk_mutual"))
    grown = run_scenario(scenario(profile="ecdsa128", protocol="dtls", mode="pk_mutual",
                                  overrides={"cert_size": 800}))
    assert grown.ok
    assert grown.legacy12_total - base.legacy12_total == 600
    delta_live = grown.total() - base.total()
    assert abs(delta_live - 600) <= 24  # fragment/record header slack


def test_report_determinism():
    s = scenario(profile="ecdsa128", protocol="dtls", mode="pk_mutual",
                 net=NetConfig(loss_rate=0.2, seed=11))
    assert run_scenario(s).to_json() == run_scenario(s).to_json()


def test_csv_contract():
    r = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk"))
    out = emit([r], "csv")
    header, row = out.strip().split("\n")
    assert header == CSV_HEADER
    fields = row.split(",")
    assert fields[1] == "dtls" and fields[2] == "psk"
    assert int(fields[6]) == r.total()


def test_emit_json_round_trips_scenario():
    r = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk"))
    parsed = json.loads(emit([r], "json"))
    assert Scenario.from_dict(parsed[0]["scenario"]) == r.scenario


def test_compare_paper_deviation_against_467():
    r = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk"))
    label, v12, v13 = paper_reference(r)
    assert (v12, v13) == (627, 467)
    assert deviation_pct(r, v13) == 100.0 * (r.total() - 467) / 467


def test_text_emit_shape():
    r = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk", compare_paper=True))
    text = emit([r], "text")
    lines = text.strip().split("\n")
    assert "1.2 model" in lines[0] and "1.3 measured" in lines[0]
    assert "paper 1.3" in lines[0]
    assert len(lines) == 3


# --- CLI ---------------------------------------------------------------------------


def test_cli_run_ok(capsys):
    code = cli.main(["run", "--profile", "psk128", "--protocol", "dtls", "--seed", "2"])
    assert code == 0
    assert "psk128-dtls" in capsys.readouterr().out


def test_cli_protocol_failure_exit_code(capsys):
    code = cli.main(["run", "--profile", "psk128", "--protocol", "dtls", "--loss", "1.0"])
    assert code == 2


def test_cli_strict_sign_breach(capsys):
    # app payload is not part of the 1.2 model, so a large enough payload
    # flips the DTLS sign and must trip the strict gate
    code = cli.main([
        "run", "--profile", "psk128", "--protocol", "dtls",
        "--app-payload", "1000", "--compare-paper", "--strict",
    ])
    assert code == 3
    assert "sign disagrees" in capsys.readouterr().err


def test_cli_deviation_warning(capsys):
    code = cli.main([
        "run", "--profile", "ecdsa128", "--protocol", "dtls", "--compare-paper",
    ])
    assert code == 0
    assert "deviates" in capsys.readouterr().err


MATRIX = ["matrix", "--config", "{matrix}"]


@pytest.mark.parametrize("argv,entry", [
    (["run", "--cid", "40"], None),
    (["run", "--protocol", "tls", "--cid", "4"], None),
    (["run", "--profile", "psk128", "--mode", "pk_mutual"], None),
    (["run", "--mode", "bogus"], None),
    (["run", "--suite", "0x9999"], None),
    (MATRIX, scenario(profile="nosuch").to_dict()),
    (MATRIX, {"protocol": "quic"}),
    (MATRIX, {"protocl": "dtls"}),
    (MATRIX, {"net": {"mtux": 400}}),
    (MATRIX, {"overrides": {"suites": [0x9999]}}),
    (MATRIX, {"profile": "ecdsa128", "overrides": {"groups": [0x9999]}}),
    (["run", "--profile", "psk128", "--mode", "psk_ecdhe"], None),
    (["run", "--mtu", "20"], None),
    (["run", "--mtu", "0"], None),
    (["run", "--padding", "-1"], None),
    (["run", "--app-payload", "-1"], None),
    (["run", "--profile", "ecdsa128", "--cert-size", "-5"], None),
    (MATRIX, {"net": {"mtu": "x"}}),
    (MATRIX, {"cid": "4"}),
    (MATRIX, {"net": {"loss_rate": "0.1"}}),
    (MATRIX, {"net": {"mtu": True}}),
    (["run", "--padding", "300", "--mtu", "200"], None),
    (["run", "--loss", "1.5"], None),
    (["run", "--dup", "-1"], None),
    (["run", "--reorder", "2"], None),
    (["run", "--latency", "-5"], None),
    (["run", "--framing", "-3"], None),
    (MATRIX, {"net": {"loss_rate": -0.1}}),
    (MATRIX, {"net": {"dup_rate": 1.01}}),
    (MATRIX, {"net": {"reorder_rate": -1}}),
    (MATRIX, {"net": {"latency_ms": -1}}),
    (MATRIX, {"net": {"framing_overhead": -3}}),
    (MATRIX, {"profile": "ecdsa128", "overrides": {"groups": []}}),
    (MATRIX, 5),
    (["run", "--mtu", "34", "--cid", "16", "--app-payload", "1"], None),
    (["run", "--protocol", "tls", "--padding", "16384", "--app-payload", "10"], None),
    (["run", "--protocol", "tls", "--padding", "16383"], None),
    (["run", "--profile", "ecdsa128", "--protocol", "tls", "--cert-size", str(MAX_CERT_SIZE + 1)], None),
    (MATRIX, {"profile": "full", "protocol": "tls", "mode": "zero_rtt", "early_payload": MAX_EARLY_DATA + 1}),
], ids=["cid-range", "cid-on-tls", "mode-not-in-profile", "unknown-mode", "unknown-suite", "unknown-profile",
        "matrix-unknown-protocol", "matrix-unknown-key", "matrix-unknown-net-key", "matrix-suites-not-an-override-knob",
        "matrix-unknown-override-group",
        "key-share-mode-without-group", "mtu-20", "mtu-0", "negative-padding", "negative-app-payload",
        "negative-cert-size", "matrix-str-mtu", "matrix-str-cid", "matrix-str-loss-rate", "matrix-bool-mtu",
        "padding-300-mtu-200", "loss-1.5", "dup-minus-1", "reorder-2", "negative-latency", "negative-framing",
        "matrix-negative-loss-rate", "matrix-dup-rate-above-1", "matrix-negative-reorder-rate",
        "matrix-negative-latency", "matrix-negative-framing", "matrix-ecdhe-without-group",
        "matrix-entry-not-an-object", "cid-16-leaves-no-room-for-app-data", "tls-padding-16384",
        "tls-padding-16383-leaves-no-room-for-an-alert", "cert-size-over-one-certificate-entry",
        "matrix-early-payload-over-max-early-data-size"])
def test_cli_configuration_error_exit_code(argv, entry, tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"scenarios": [entry]}))
    code = cli.main([a.format(matrix=matrix) for a in argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG == 4
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("body", [None, "not json", "{}", '{"scenarios": 5}', "[]"],
                         ids=["missing-file", "not-json", "no-scenarios", "scenarios-not-a-list", "not-an-object"])
def test_cli_matrix_file_not_a_scenario_list_is_a_configuration_error(body, tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    if body is not None:
        matrix.write_text(body)
    code = cli.main(["matrix", "--config", str(matrix)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG == 4
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")


LIMIT = (1 << 14) + 1  # the longest inner plaintext (RFC 8446 section 5.4)


@pytest.mark.parametrize("kw,largest", [
    (dict(profile="ecdsa128", protocol="tls", mode="pk_mutual", overrides={"cert_size": 17000}), LIMIT),
    (dict(profile="ecdsa128", protocol="dtls", mode="pk_mutual", overrides={"cert_size": 20000},
          net=NetConfig(mtu=30000, seed=1)), LIMIT),
    (dict(profile="full", protocol="tls", mode="zero_rtt", early_payload=1 << 14), LIMIT),
    (dict(profile="full", protocol="dtls", mode="zero_rtt", early_payload=1 << 14,
          net=NetConfig(mtu=30000, seed=1)), LIMIT),
    (dict(profile="full", protocol="dtls", mode="zero_rtt", early_payload=2000), 1280 - 2 - 16),
], ids=["tls-cert-17000", "dtls-mtu-30000-cert-20000", "tls-early-16384", "dtls-mtu-30000-early-16384",
        "dtls-early-2000"])
def test_records_fill_to_the_plaintext_limit_and_no_further(kw, largest, monkeypatch):
    # a handshake message longer than one record spans records (RFC 8446 section
    # 5.1), each filled to the limit or, on DTLS, to one datagram of the MTU less
    # the 2-byte header and the tag (RFC 9147 section 4); a 0-RTT payload of the
    # whole max_early_data_size fills one record to the limit
    sizes = []
    seal = crypto.aead_seal

    def recording(aead, nonce, aad, plaintext):
        sizes.append(len(plaintext))
        return seal(aead, nonce, aad, plaintext)

    monkeypatch.setattr(crypto, "aead_seal", recording)
    assert run_scenario(scenario(**kw)).ok
    assert max(sizes) == largest


def test_cli_matrix_takes_a_json_int_for_a_float(tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"scenarios": [{"net": {"loss_rate": 0, "seed": 1}}]}))
    assert cli.main(["matrix", "--config", str(matrix)]) == cli.EXIT_OK


def test_cli_matrix(tmp_path, capsys):
    config = {
        "scenarios": [
            scenario(profile="psk128", protocol="dtls", mode="psk").to_dict(),
            scenario(profile="psk128", protocol="tls", mode="psk").to_dict(),
        ]
    }
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "out.csv"
    code = cli.main(["matrix", "--config", str(path), "--format", "csv", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER and len(lines) == 3


def test_cli_out_file_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "--profile", "ecdsa128", "--protocol", "dtls", "--seed", "5",
            "--format", "json"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_bench_lines_exit_zero(tmp_path, monkeypatch):
    # every command in README's "Running the bench" block runs as written;
    # the matrix line reads README's JSON example as scenarios.json
    text = README.read_text()
    block = re.search(r"## Running the bench\n\n```\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("bench ")]
    example = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    (tmp_path / "scenarios.json").write_text(example)
    monkeypatch.chdir(tmp_path)
    assert lines
    for line in lines:
        assert (line, cli.main(shlex.split(line)[1:])) == (line, 0)
    assert (tmp_path / "results.csv").read_text().startswith(CSV_HEADER)


# Commands whose combined output is pinned byte for byte: text, CSV and JSON
# output, --compare-paper warnings, a lossy DTLS run, 0-RTT, CID, packing, the
# cookie exchange, resumption through the matrix, and the --strict row that
# exits 3. Each command's exit code, stdout and stderr are hashed, not its
# argv, so only a change meant to move bench output may update the constant.
GOLDEN_COMMANDS = [
    ["run", "--profile", "psk128", "--protocol", "dtls", "--seed", "1"],
    ["run", "--profile", "psk128_256", "--protocol", "tls", "--format", "csv", "--compare-paper"],
    ["run", "--profile", "ecdsa128", "--protocol", "dtls", "--mode", "pk_mutual", "--format", "json"],
    ["run", "--profile", "ecdsa128", "--protocol", "tls", "--mode", "pk_server_only", "--compat",
     "--compare-paper"],
    ["run", "--profile", "ecdsa128", "--protocol", "dtls", "--mode", "pk_mutual", "--mtu", "400",
     "--loss", "0.2", "--dup", "0.1", "--reorder", "0.2", "--seed", "7", "--format", "json"],
    ["run", "--profile", "full", "--protocol", "tls", "--mode", "zero_rtt", "--format", "json"],
    ["run", "--profile", "full", "--protocol", "dtls", "--mode", "zero_rtt", "--cid", "4",
     "--packing", "--dos", "--format", "csv"],
    ["run", "--profile", "ecdsa128_256", "--protocol", "tls", "--mode", "pk_mutual", "--suite",
     "0x13A4", "--compare-paper", "--strict"],
    ["matrix", "--config", "{matrix}", "--format", "json", "--compare-paper"],
]
GOLDEN_MATRIX = {"scenarios": [
    {"profile": "full", "protocol": "tls", "mode": "psk", "resume": True},
    {"profile": "full", "protocol": "dtls", "mode": "zero_rtt", "resume": True},
    {"profile": "ecdsa128", "protocol": "tls", "mode": "pk_mutual", "pad_len": 3},
]}
GOLDEN_SHA256 = "41e5ada2c25a3ec6fc3a3f04be20d2299234c3293481b212b04d024ccee35795"


def test_cli_output_golden(tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(GOLDEN_MATRIX))
    digest = hashlib.sha256()
    for argv in GOLDEN_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.format(matrix=matrix) for a in argv])
        digest.update(f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    assert digest.hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("protocol", ["dtls", "tls"])
def test_resumed_scenario_runs_psk_flow(protocol):
    r = run_scenario(scenario(profile="full", protocol=protocol, mode="psk", resume=True))
    assert r.ok
    assert r.counters_client["sign_ops"] == 0  # resumed leg needs no signatures
    assert r.counters_client["dh_ops"] == 0
    names = [n for n, _, _, _ in r.per_message]
    assert "client_hello" in names and "certificate" not in names


def test_resume_reports_a_warm_leg_that_issued_no_ticket(tmp_path, capsys):
    # at loss 0.6 and seed 28 the warm leg times out in wait_sh, so there is no ticket to resume
    entry = {"profile": "psk128", "protocol": "dtls", "mode": "psk", "resume": True,
             "net": {"loss_rate": 0.6, "seed": 28}}
    r = run_scenario(Scenario.from_dict(entry))
    assert not r.ok
    assert r.failure == "handshake_timeout"
    assert r.failed_phase == "warm:wait_sh"
    assert r.total() > 0  # the warm leg's bytes
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"scenarios": [entry]}))
    assert cli.main(["matrix", "--config", str(matrix)]) == cli.EXIT_PROTOCOL_FAILURE
    assert "FAILED(handshake_timeout)" in capsys.readouterr().out


def test_resumed_zero_rtt_scenario():
    r = run_scenario(scenario(profile="full", protocol="dtls", mode="zero_rtt", resume=True))
    assert r.ok
    assert r.rtt_to_first_appdata_ms == 0
    assert any(n == "early_data" for n, _, _, _ in r.per_message)


def test_packing_reduces_datagram_count():
    base = run_scenario(scenario(profile="ecdsa128", protocol="dtls", mode="pk_mutual"))
    packed = run_scenario(scenario(profile="ecdsa128", protocol="dtls", mode="pk_mutual",
                                   packing=True))
    assert packed.ok
    base_dg = base.wire["datagrams_c2s"] + base.wire["datagrams_s2c"]
    packed_dg = packed.wire["datagrams_c2s"] + packed.wire["datagrams_s2c"]
    assert packed_dg < base_dg
    # with per-datagram framing the packed run wins overall
    framed_base = run_scenario(scenario(profile="ecdsa128", protocol="dtls", mode="pk_mutual",
                                        net=NetConfig(seed=1, framing_overhead=8)))
    framed_packed = run_scenario(scenario(profile="ecdsa128", protocol="dtls", mode="pk_mutual",
                                          packing=True, net=NetConfig(seed=1, framing_overhead=8)))
    total_framed = lambda r: r.wire["framed_c2s"] + r.wire["framed_s2c"]
    assert total_framed(framed_packed) < total_framed(framed_base)


def test_tls_packing_sends_one_record_per_link_send():
    # packing batches DTLS records into datagrams; a TLS stream is never batched
    dtls = run_scenario(scenario(profile="ecdsa128", protocol="dtls", mode="pk_mutual", packing=True))
    assert dtls.wire["datagrams_c2s"] + dtls.wire["datagrams_s2c"] < len(dtls.per_message)
    tls = run_scenario(scenario(profile="ecdsa128", protocol="tls", mode="pk_mutual", packing=True))
    assert tls.ok
    assert tls.wire["datagrams_c2s"] + tls.wire["datagrams_s2c"] == len(tls.per_message)


def test_cid_scenario_through_bench():
    r = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk", cid=4))
    assert r.ok


@pytest.mark.parametrize("cid", [17, -1])
def test_cid_length_outside_0_to_16_is_rejected(cid):
    with pytest.raises(ConfigError, match="cid length must be 0..16"):
        run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk", cid=cid))
    assert cli.main(["run", "--cid", str(cid)]) == 4


def test_cid_on_tls_is_rejected():
    with pytest.raises(ConfigError, match="dtls"):
        run_scenario(scenario(profile="psk128", protocol="tls", mode="psk", cid=4))


def test_cid_0_offers_an_empty_cid_and_asks_for_none():
    _, client_cfg, server_cfg = build_configs(scenario(profile="psk128", protocol="dtls", mode="psk", cid=0))
    assert (client_cfg.cid, server_cfg.cid) == (0, None)
    plain = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk"))
    r = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk", cid=0))
    assert r.ok

    def hello_sizes(report):
        return {name: size for name, _, size, _ in report.per_message if name.endswith("_hello")}

    # an empty connection_id extension is 5 bytes: type, length and the CID's length byte
    assert hello_sizes(r)["client_hello"] == hello_sizes(plain)["client_hello"] + 5
    assert hello_sizes(r)["server_hello"] == hello_sizes(plain)["server_hello"]  # no extension back
    assert r.total() == plain.total() + 5


def test_cid_length_16_completes():
    short = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk", cid=4))
    r = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk", cid=16))
    assert r.ok
    assert r.total() - short.total() == 16 - 4  # the server's connection_id extension


def test_direction_holds_for_every_profile():
    defaults = {
        "psk128": "psk",
        "psk128_256": "psk",
        "ecdsa128": "pk_mutual",
        "ecdsa128_256": "pk_mutual",
        "full": "psk",
    }
    for profile, mode in defaults.items():
        r = run_scenario(scenario(profile=profile, protocol="dtls", mode=mode))
        assert r.ok, (profile, r.failure)
        assert r.total() < r.legacy12_total, (profile, r.total(), r.legacy12_total)


def test_report_flights_and_failure_annotation():
    good = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk"))
    assert good.flights >= 2 and good.failed_phase is None
    bad = run_scenario(scenario(profile="psk128", protocol="dtls", mode="psk",
                                net=NetConfig(loss_rate=1.0, seed=1)))
    assert not bad.ok
    assert bad.failure == "handshake_timeout"
    assert bad.failed_phase == "wait_sh"
