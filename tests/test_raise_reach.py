"""``tools/raise_reach.py`` on this checkout, tracing a few test modules.  The
tool is a script, so it is loaded by path."""

import ast
import importlib.util
import pathlib
import random
import re
import sys
import tracemalloc

from minitls import messages
from minitls.connection import Connection
from minitls.crypto import Protocol
from minitls.profiles import AuthMode

from .harness import make_configs

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "raise_reach.py"
# traced, the forged-fragment test's tracemalloc bound must still hold
TRACED = " ".join([
    "-q -p no:cacheprovider",
    "tests/test_connection.py::test_forged_fragment_lengths_allocate_nothing_they_claim",
    "tests/test_connection.py::test_second_hello_retry_request_is_unexpected",
])


def load_tool():
    spec = importlib.util.spec_from_file_location("raise_reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unreached_raise_statements_of_a_traced_subset(capsys):
    raise_reach = load_tool()
    assert raise_reach.main([str(ROOT), "--pytest-args", TRACED]) == 0
    *listed, summary = capsys.readouterr().out.splitlines()
    total = sum(
        isinstance(node, ast.Raise)
        for path in (ROOT / "src" / "minitls").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
    )
    assert summary == f"{len(listed)} of {total} raise statements in src/minitls never ran"
    for entry in listed:
        path, lineno, text = re.fullmatch(r"(src/minitls/\w+\.py):(\d+): (raise\b.*)", entry).groups()
        assert (ROOT / path).read_text().splitlines()[int(lineno) - 1].strip() == text
    assert not any('UnexpectedMessage("second HelloRetryRequest")' in entry for entry in listed)
    assert any('DecodeError("EndOfEarlyData carries no body")' in entry for entry in listed)


def test_tracer_holds_no_memory_while_it_records():
    # a tracer that grew a set of (file, line) pairs held about 4 KB here
    raise_reach = load_tool()
    client_cfg, _, _ = make_configs(Protocol.DTLS, AuthMode.PSK_ECDHE)
    client = Connection(client_cfg, "client", random.Random(1))
    client.start(0)
    [raw] = client.transcript.messages
    size = len(pathlib.Path(messages.__file__).read_bytes().splitlines()) + 2

    def traced_decode(hits):
        sys.settrace(raise_reach.tracer(hits))
        try:
            messages.decode_handshake(raw)
        finally:
            sys.settrace(None)

    traced_decode({messages.__file__: bytearray(size)})  # warm-up: the interpreter's own first-trace tables
    hits = {messages.__file__: bytearray(size)}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traced_decode(hits)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(hits[messages.__file__]) > 30
    assert held < 1024
