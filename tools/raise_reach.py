"""Which ``raise`` statements in ``src/minitls`` the tier-1 tests never run.

One fresh interpreter, in the given checkout's directory, runs pytest on that
checkout's tests under a line tracer; this process then lists every ``raise``
statement (found with ``ast``) whose first line never ran, one
``path:line: source`` line each, and ends with the count:

    python3 tools/raise_reach.py [CHECKOUT] [--pytest-args ARGS]

The tracer must not allocate while it records: a test that bounds the memory
one call holds under ``tracemalloc`` would otherwise count the tracer's growth.
So each source file gets one ``bytearray`` allocated before the run, indexed by
line number, and one shared local trace function sets its bytes.  A ``raise``
that shares its line with the test that guards it (``if x: raise E``) would
read as run; ``src/minitls`` has none.  The test modules of this tool are
left out of the traced run, which would otherwise run itself.

Standard library only; like ``call_counts.py`` it imports nothing from the
checkout in this process, so a parent checkout can be counted too.  Exits
non-zero when the traced tests fail, since a count from a failing run misleads.
"""

import argparse
import ast
import json
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path("src") / "minitls"
DEFAULT_PYTEST_ARGS = "-q -p no:cacheprovider tests --ignore=tests/test_raise_reach.py"


def raise_lines(source: str) -> list:
    """First line of each ``raise`` statement in ``source``, in order."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise))


def tracer(hits: dict):
    """A ``sys.settrace`` function that sets ``hits[filename][lineno]`` for each line
    run in the files ``hits`` holds, one preallocated ``bytearray`` per file."""

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename][frame.f_lineno] = 1
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in hits else None

    return call


def trace_here(out: Path, pytest_args: list) -> int:
    """Run in the checkout's directory: pytest under the line tracer; write the
    lines that ran, per source file, to ``out``; return pytest's exit code."""
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    sources = sorted(src.glob("minitls/*.py"))
    hits = {str(path): bytearray(len(path.read_bytes().splitlines()) + 2) for path in sources}
    import pytest

    sys.settrace(tracer(hits))
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    ran = {str(path.relative_to(Path.cwd())): [i for i, hit in enumerate(hits[str(path)]) if hit] for path in sources}
    out.write_text(json.dumps(ran))
    return int(code)


def lines_run(checkout: Path, pytest_args: str) -> dict:
    """``trace_here`` in a fresh interpreter whose working directory is ``checkout``:
    source path (relative to ``checkout``) -> the set of its lines that ran."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "lines.json"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--trace-to", str(out), "--pytest-args", pytest_args],
            cwd=checkout, capture_output=True, text=True, check=False,
        )
        if proc.returncode or not out.exists():
            tail = "\n".join(proc.stdout.splitlines()[-20:])
            raise RuntimeError(f"{checkout}: traced tests exited {proc.returncode}:\n{tail}\n{proc.stderr}")
        return {path: set(lines) for path, lines in json.loads(out.read_text()).items()}


def unreached(checkout: Path, pytest_args: str) -> tuple:
    """(total raise statements, [(path, line, source line) of each that never ran])."""
    ran = lines_run(checkout, pytest_args)
    total, missed = 0, []
    for path in sorted(checkout.glob(f"{PACKAGE}/*.py")):
        rel = str(path.relative_to(checkout))
        source = path.read_text()
        text = source.splitlines()
        for lineno in raise_lines(source):
            total += 1
            if lineno not in ran[rel]:
                missed.append((rel, lineno, text[lineno - 1].strip()))
    return total, missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, nargs="?", default=Path("."), help="checkout to trace")
    parser.add_argument("--pytest-args", default=DEFAULT_PYTEST_ARGS, help="pytest arguments, space-separated")
    parser.add_argument("--trace-to", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.trace_to:
        return trace_here(args.trace_to, args.pytest_args.split())
    try:
        total, missed = unreached(args.checkout.resolve(), args.pytest_args)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    for path, lineno, text in missed:
        print(f"{path}:{lineno}: {text}")
    print(f"{len(missed)} of {total} raise statements in {PACKAGE} never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
