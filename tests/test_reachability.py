"""Every public module-level function and class in ``src/minitls`` is
referred to from some line of ``src/minitls``.

What neither the ``bench`` command nor the protocol reaches gets wired
in or deleted; tests exercise the production path, not helpers kept for
them.  References are resolved with ``ast``, not matched by word: a
definition counts as reached when another module reads it as ``m.name``
after ``from . import m``, imports it with ``from .m import name``, or
when its own module loads it by bare name.  An attribute or field that
merely shares the name does not count.
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
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _public_definitions(trees: dict) -> list:
    return [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _references(module: str, tree: ast.Module) -> set:
    """(module, name) pairs that ``tree`` refers to."""
    refs = set()
    aliases = {}  # local name -> sibling module, from ``from . import m``
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    refs.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add((module, node.id))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            refs.add((aliases[node.value.id], node.attr))
    return refs


def _unreached(trees: dict) -> set:
    refs = set().union(*(_references(module, tree) for module, tree in trees.items()))
    return {f"{module}.py:{node.lineno} {node.name}"
            for module, node in _public_definitions(trees) if (module, node.name) not in refs}


def test_every_public_definition_is_named_in_src():
    unreached = {
        entry for entry in _unreached(_parse_src()) if entry.split()[-1] not in ALLOWED
    }
    assert sorted(unreached) == [], "wire these into bench or the protocol, or delete them"


def test_allow_list_is_not_stale():
    unreached = {entry.split()[-1] for entry in _unreached(_parse_src())}
    assert set(ALLOWED) <= unreached, "allowed names now reached or gone: drop them from ALLOWED"
