"""``tools/call_counts.py`` on this checkout: the counts repeat exactly, and
the parent -> change lines it prints.  The tool is a script, so it is loaded
by path."""

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


def test_difference_lines_parent_to_change():
    call_counts = load_tool()
    parent = {
        "dtls_lossy": {"calls": 259_008, "openssl_verifies": 60},
        "psk_clean": {"calls": 233_483, "openssl_verifies": 0},
    }
    change = {
        "psk_clean": {"calls": 230_703, "openssl_verifies": 0},
        "dtls_lossy": {"calls": 259_010, "openssl_verifies": 60},
        "new_workload": {"calls": 5},
    }
    totals = {"src/minitls lines": (4_056, 4_036), "import minitls.bench modules": (68, 60)}
    assert call_counts.difference(parent, change, totals) == [
        "dtls_lossy calls: 259,008 -> 259,010 (+2)",
        "dtls_lossy openssl_verifies: 60 -> 60 (+0)",
        "new_workload calls: 0 -> 5 (+5)",
        "psk_clean calls: 233,483 -> 230,703 (-2,780)",
        "psk_clean openssl_verifies: 0 -> 0 (+0)",
        "src/minitls lines: 4,056 -> 4,036 (-20)",
        "import minitls.bench modules: 68 -> 60 (-8)",
    ]


def test_import_modules_repeat_exactly():
    call_counts = load_tool()
    assert call_counts.import_modules(ROOT) == call_counts.import_modules(ROOT) > 0
