"""Per-layer spans, recorded by wrapping minitls entry points from outside.

The package calls across modules through module and class attributes
(``ec.sign``, ``records.seal_dtls``, ``Connection.handle``), so replacing
those attributes for the duration of a traced run sees every crossing
without touching the package. A layer's self time is the time inside its
spans minus the time inside their child spans.
"""

import time

from minitls import bench, crypto, ec, messages, records, simnet
from minitls.connection import Connection, ServerListener
from minitls.keyschedule import KeySchedule

_MARK = "__perfbench_traced__"


def _public_functions(module) -> list:
    return sorted(
        name for name, obj in vars(module).items()
        if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    )


# (layer, owner, attribute names). Owner is the module or class whose
# attribute the caller looks up; ``bench.make_deployment`` and
# ``bench.resolve`` are the profiles functions as bench binds them.
TARGETS = [
    ("ec", ec, ["keypair", "shared_secret", "sign", "verify"]),
    ("crypto", crypto, [
        "hkdf_extract", "hkdf_expand", "hkdf_expand_label", "aead_seal", "aead_open",
        "block_encrypt", "transcript_hash", "hmac_digest", "hmac_verify", "hash_data",
    ]),
    ("keyschedule", KeySchedule, [
        "expand_label", "derive_secret", "init_early", "derive_early_traffic",
        "advance_handshake", "advance_master", "derive_resumption", "traffic_keys",
        "finished_key", "finished_mac", "verify_finished", "compute_binder", "resumption_psk",
    ]),
    ("records", records, ["seal_tls", "open_tls", "seal_dtls", "open_dtls", "parse_unified"]),
    ("messages", messages, _public_functions(messages)),
    ("messages", messages.FragmentBuffer, ["add", "assemble"]),
    ("messages", messages.DtlsFragment, ["encode", "to_tls_form"]),
    ("connection", Connection, ["start", "handle", "on_timeout", "send_app_data"]),
    ("connection", ServerListener, ["receive"]),
    ("simnet", simnet.DatagramLink, ["send", "poll"]),
    ("simnet", simnet.StreamLink, ["send", "poll"]),
    ("bench", bench, ["run_scenario", "build_configs"]),
    ("bench", bench.Driver, ["run"]),
    ("profiles", bench, ["make_deployment", "resolve"]),
]

LAYERS = sorted({layer for layer, _, _ in TARGETS})


def key(owner, name: str) -> str:
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"


def traced_attributes() -> list:
    """Keys of target attributes that currently hold a wrapper."""
    return [
        key(owner, name)
        for _, owner, names in TARGETS
        for name in names
        if getattr(vars(owner)[name], _MARK, False)
    ]


class Tracer:
    """Install with ``with Tracer() as t:``; read ``self_s``, ``calls``,
    ``raised`` and ``items`` afterwards."""

    # Results whose size is counted into ``items`` as well as the call.
    ITEM_COUNTS = {"messages.fragment": len}

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict = {}
        self.raised: dict = {}
        self.items: dict = {}
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, layer: str, k: str, fn):
        self_s, calls, raised, items = self.self_s, self.calls, self.raised, self.items
        stack = self._stack
        count_items = self.ITEM_COUNTS.get(k)
        clock = time.perf_counter
        calls[k] = raised[k] = items[k] = 0

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[k] += 1
                if not ok:
                    raised[k] += 1
            if count_items is not None:
                items[k] += count_items(result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, owner, names in TARGETS:
            for name in names:
                original = vars(owner)[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, key(owner, name), original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        left = traced_attributes()
        if left:
            raise RuntimeError(f"wrappers still installed: {left}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def total_calls(self, *keys: str) -> int:
        return sum(self.calls[k] for k in keys)

    def layer_calls(self, layer: str) -> int:
        return sum(
            self.calls[key(owner, name)]
            for lay, owner, names in TARGETS if lay == layer
            for name in names
        )
