"""Every public name in ``src/minitls`` is reached from some line of
``src/minitls``: module-level functions and classes, methods and
properties, attributes a class stores on ``self``, and the fields of a
dataclass or ``NamedTuple`` that have a default.

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
- An attribute that ``__init__`` sets to a constant counts as set when
  some other line stores an attribute of that name; otherwise it is a
  constant in disguise, or a knob only tests turn.
- A field of a dataclass or ``NamedTuple`` with a default counts as
  reached when some line gives it a value: a keyword argument of that
  name whose expression differs from the default (as in ``_replace``), a
  positional argument in a call to the class, a store to an attribute
  of that name, or the name as a string constant (as in
  ``profiles._OVERRIDABLE``).
- A field counts as read when some line loads an attribute of that name,
  or when its class serialises itself whole, through
  ``dataclasses.asdict(self)``, ``self._asdict()`` or ``self.__dict__``.

The last five axes match attribute names, not types: the receiver of
``x.name`` is not resolved.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "minitls"

# Unreached on purpose, one reason each.  Module-level names are bare;
# members are ``Class.name``.
ALLOWED = {
    "dump_line": "messages: the transcript-dump line, to be wired into the bench command",
    "Report.to_json": "perfbench hashes each report's JSON text into its digest",
    "KeySchedule.set_keylog": "the key log debug surface, to be wired into the bench command",
    "Scenario.resume": "set only from JSON: `bench matrix` entries and perfbench scenarios",
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


def _constant_attributes(trees: dict) -> set:
    """Attributes ``__init__`` sets to a constant and no other line stores."""
    stores = [node.attr for node in _nodes(trees, ast.Attribute) if isinstance(node.ctx, ast.Store)]
    return {
        f"{module}.py:{node.lineno} {cls.name}.{target.attr}"
        for module, cls in _classes(trees)
        for init in cls.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        for node in ast.walk(init)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Constant)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute) and _is_self(target.value) and stores.count(target.attr) == 1
    }


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """A ``@dataclass`` or a ``NamedTuple``: a class whose annotated names are its fields."""
    decorators = [dec.func if isinstance(dec, ast.Call) else dec for dec in cls.decorator_list]
    return any(_name(dec) == "dataclass" for dec in decorators) or any(_name(base) == "NamedTuple" for base in cls.bases)


def _called_name(call: ast.Call):
    return _name(call.func)


def _fields(cls: ast.ClassDef) -> list:
    return [node for node in cls.body if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _serialises_whole(cls: ast.ClassDef) -> bool:
    """The class hands all its fields on at once: ``asdict(self)``, ``self._asdict()`` or ``self.__dict__``."""
    return any(
        (isinstance(node, ast.Call) and _called_name(node) == "asdict" and node.args and _is_self(node.args[0]))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_asdict"
            and _is_self(node.func.value))
        or (isinstance(node, ast.Attribute) and node.attr == "__dict__" and _is_self(node.value))
        for node in ast.walk(cls)
    )


def _unset_fields(trees: dict) -> set:
    calls = _nodes(trees, ast.Call)
    stored = _attribute_names(trees, ast.Store)
    strings = {node.value for node in _nodes(trees, ast.Constant) if isinstance(node.value, str)}
    unset = set()
    for module, cls in _classes(trees):
        if not _is_dataclass(cls):
            continue
        fields = _fields(cls)
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


def _unread_fields(trees: dict) -> set:
    loaded = _attribute_names(trees, ast.Load)
    return {
        f"{module}.py:{node.lineno} {cls.name}.{node.target.id}"
        for module, cls in _classes(trees)
        if _is_dataclass(cls) and not _serialises_whole(cls)
        for node in _fields(cls)
        if node.target.id not in loaded
    }


AXES = [_unreached, _unreached_methods, _unread_attributes, _constant_attributes, _unset_fields, _unread_fields]


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


def test_every_attribute_set_to_a_constant_is_set_again_in_src():
    unset = _not_allowed(_constant_attributes(_parse_src()))
    assert unset == [], "only tests change these attributes: make them constants, or wire them in"


def test_every_defaulted_field_is_set_in_src():
    unset = _not_allowed(_unset_fields(_parse_src()))
    assert unset == [], "only tests set these fields: use the default, or wire them in"


def test_every_dataclass_field_is_read_in_src():
    unread = _not_allowed(_unread_fields(_parse_src()))
    assert unread == [], "dead fields: read these in src, or delete them"


def test_allow_list_is_not_stale():
    trees = _parse_src()
    unreached = {entry.split()[-1] for axis in AXES for entry in axis(trees)}
    assert set(ALLOWED) <= unreached, "allowed names now reached or gone: drop them from ALLOWED"
