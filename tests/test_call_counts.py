"""``tools/call_counts.py`` on this checkout: the counts repeat exactly.  The
tool is a script, so it is loaded by path."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "call_counts.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("call_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_repeat_exactly_per_workload():
    call_counts = load_tool()
    first = call_counts.count_calls(ROOT, 3)
    second = call_counts.count_calls(ROOT, 3)
    assert set(first) == {"psk_clean", "ecdhe_clean", "dtls_lossy"}
    assert all(counts["calls"] > 0 for counts in first.values())
    # psk_clean makes no ec call and builds no EC key; every ecdhe_clean
    # scenario verifies a signature and derives at least its two ECDHE keys
    assert first["psk_clean"]["openssl_verifies"] == first["psk_clean"]["openssl_derivations"] == 0
    assert first["ecdhe_clean"]["openssl_verifies"] >= 3
    assert first["ecdhe_clean"]["openssl_derivations"] >= 6
    assert first == second
