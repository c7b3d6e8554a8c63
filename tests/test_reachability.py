"""Every public name in ``src/minitls`` is reached from some line of
``src/minitls``: module-level functions and classes, methods and
properties, attributes a class stores on ``self``, and dataclass fields
that have a default.

What neither the ``bench`` command nor the protocol reaches gets wired
in or deleted; tests exercise the production path, not helpers kept for
them.  References are resolved with ``ast``, not matched by word.

- A module-level definition counts as reached when another module reads
  it as ``m.name`` after ``from . import m``, imports it with
  ``from .m import name``, or when its own module loads it by bare name.
  An attribute or field that merely shares the name does not count.
- A public method or property counts as reached when some line loads an
  attribute of that name.
- An attribute stored on ``self`` counts as reached when some line loads
  an attribute of that name.
- A dataclass field with a default counts as reached when some line
  gives it a value: a keyword argument of that name whose expression
  differs from the default, a positional argument in a call to the
  class, a store to an attribute of that name, or the name as a string
  constant (as in ``profiles._OVERRIDABLE``).

The last three axes match attribute names, not types: the receiver of
``x.name`` is not resolved.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "minitls"

# Unreached on purpose, one reason each.  Module-level names are bare;
# members are ``Class.name``.
ALLOWED = {
    "legacy_header_sizes": "records: the header-size ladder acceptance test_02 reads",
    "dump_line": "messages: the transcript-dump line, to be wired into the bench command",
    "Scenario.to_json": "acceptance test_11 round-trips a scenario through JSON text",
    "Scenario.from_json": "acceptance test_11 round-trips a scenario through JSON text",
    "Report.to_json": "perfbench hashes each report's JSON text into its digest",
    "ServerListener.allocated": "acceptance test_08 counts connections a cookie-less flood allocates",
    "ServerListener.stateless_hrr_count": "acceptance test_08 counts stateless HelloRetryRequests",
    "KeySchedule.early_secret": "acceptance test_05 and the RFC 8448 vectors check the secret tree",
    "KeySchedule.client_early_traffic_secret": "acceptance test_05 and the RFC 8448 vectors check the secret tree",
    "KeySchedule.handshake_secret": "acceptance test_05 and the RFC 8448 vectors check the secret tree",
    "KeySchedule.master_secret": "acceptance test_05 and the RFC 8448 vectors check the secret tree",
    "KeySchedule.exporter_master": "acceptance test_05 and the RFC 8448 vectors check the secret tree",
    "Connection.dh_secret": "acceptance test_05 feeds the (EC)DHE secret to the reference schedule",
    "Connection.early_rejected": "the client's only view of a rejected 0-RTT offer",
    "ConnConfig.debug_tamper": "acceptance test_06 corrupts one message on the wire",
    "KeySchedule.set_keylog": "the key log debug surface, to be wired into the bench command",
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


def _classes(trees: dict) -> list:
    return [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    ]


def _nodes(trees: dict, kind) -> list:
    return [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, kind)]


def _attribute_names(trees: dict, ctx) -> set:
    return {node.attr for node in _nodes(trees, ast.Attribute) if isinstance(node.ctx, ctx)}


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


def _unreached_methods(trees: dict) -> set:
    loaded = _attribute_names(trees, ast.Load)
    return {
        f"{module}.py:{node.lineno} {cls.name}.{node.name}"
        for module, cls in _classes(trees)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in loaded
    }


def _unread_attributes(trees: dict) -> set:
    loaded = _attribute_names(trees, ast.Load)
    return {
        f"{module}.py:{node.lineno} {cls.name}.{node.attr}"
        for module, cls in _classes(trees)
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr not in loaded
    }


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _called_name(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _unset_fields(trees: dict) -> set:
    calls = _nodes(trees, ast.Call)
    stored = _attribute_names(trees, ast.Store)
    strings = {node.value for node in _nodes(trees, ast.Constant) if isinstance(node.value, str)}
    unset = set()
    for module, cls in _classes(trees):
        if not _is_dataclass(cls):
            continue
        fields = [
            node for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        ]
        max_positional = max(
            (len(call.args) for call in calls if _called_name(call) == cls.name), default=0
        )
        for index, node in enumerate(fields):
            name = node.target.id
            if node.value is None or index < max_positional or name in stored or name in strings:
                continue
            default = ast.dump(node.value)
            if any(
                kw.arg == name and ast.dump(kw.value) != default
                for call in calls
                for kw in call.keywords
            ):
                continue
            unset.add(f"{module}.py:{node.lineno} {cls.name}.{name}")
    return unset


AXES = [_unreached, _unreached_methods, _unread_attributes, _unset_fields]


def _not_allowed(entries: set) -> list:
    return sorted(entry for entry in entries if entry.split()[-1] not in ALLOWED)


def test_every_public_definition_is_named_in_src():
    unreached = _not_allowed(_unreached(_parse_src()))
    assert unreached == [], "wire these into bench or the protocol, or delete them"


def test_every_public_method_is_loaded_in_src():
    unreached = _not_allowed(_unreached_methods(_parse_src()))
    assert unreached == [], "wire these into bench or the protocol, or delete them"


def test_every_attribute_stored_on_self_is_read_in_src():
    unread = _not_allowed(_unread_attributes(_parse_src()))
    assert unread == [], "dead stores: read these in src, or stop storing them"


def test_every_defaulted_field_is_set_in_src():
    unset = _not_allowed(_unset_fields(_parse_src()))
    assert unset == [], "only tests set these fields: use the default, or wire them in"


def test_allow_list_is_not_stale():
    trees = _parse_src()
    unreached = {entry.split()[-1] for axis in AXES for entry in axis(trees)}
    assert set(ALLOWED) <= unreached, "allowed names now reached or gone: drop them from ALLOWED"
