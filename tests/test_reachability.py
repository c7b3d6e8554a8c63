"""Every public module-level function and class in ``src/minitls`` is
named by some other line of ``src/minitls``.

What neither the ``bench`` command nor the protocol reaches gets wired
in or deleted; tests exercise the production path, not helpers kept for
them.  Names count wherever they appear as a name, an attribute or an
import, so the check is a static over-approximation of reachability.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "minitls"

# Unreached on purpose, one reason each.
ALLOWED = {
    "legacy_header_sizes": "records: the header-size ladder acceptance test_02 reads",
    "dump_line": "messages: the transcript-dump line, to be wired into the bench command",
}


def _parse_src() -> dict:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _public_definitions(trees: dict) -> list:
    return [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _unreached(trees: dict) -> set:
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return {f"{module}:{node.lineno} {node.name}"
            for module, node in _public_definitions(trees) if node.name not in named}


def test_every_public_definition_is_named_in_src():
    unreached = {
        entry for entry in _unreached(_parse_src()) if entry.split()[-1] not in ALLOWED
    }
    assert sorted(unreached) == [], "wire these into bench or the protocol, or delete them"


def test_allow_list_is_not_stale():
    unreached = {entry.split()[-1] for entry in _unreached(_parse_src())}
    assert set(ALLOWED) <= unreached, "allowed names now reached or gone: drop them from ALLOWED"
