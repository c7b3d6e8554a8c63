"""The configuration surface, pinned by name: every field of the four
configuration types, the profile fields an override may set, and
every option of ``bench run`` and ``bench matrix``.

Adding or removing a knob means editing one list here, so the change
shows in a reviewed diff. Each handshake property has one setting:
``ConnConfig`` holds no auth mode, only the credentials and settings a
mode stands for (``bench.build_configs`` alone maps ``Scenario.mode`` to
them); the PSK a client offers is ``ConnConfig.psk``, external or a
resumption ticket; and the DTLS connection id is ``ConnConfig.cid``
(RFC 9146: the length asked of the peer, 0 to offer CIDs and ask for
none, ``None`` for no extension), which ``bench.build_configs`` alone
sets from ``Scenario.cid``.
"""

import contextlib
import io
import re

import pytest

from minitls import cli, profiles
from minitls.bench import Scenario
from minitls.connection import ConnConfig
from minitls.profiles import Profile
from minitls.simnet import NetConfig

FIELDS = {
    Profile: [
        "name", "suites", "modes", "groups", "compat_mode", "zero_rtt", "tickets",
        "sni_hostname", "cert_size",
    ],
    ConnConfig: [
        "protocol", "suites", "groups", "psk", "local_ec", "peer_ec", "sni", "compat",
        "early_payload", "cid", "pad_len", "tickets", "dos", "mtu", "packing",
    ],
    Scenario: [
        "profile", "protocol", "mode", "suite", "net", "overrides", "app_payload",
        "early_payload", "cid", "packing", "pad_len", "compare_paper", "dos", "resume",
    ],
    NetConfig: [
        "loss_rate", "dup_rate", "reorder_rate", "latency_ms", "mtu", "seed", "framing_overhead",
    ],
}

OVERRIDABLE = ["cert_size", "compat_mode", "groups", "modes", "zero_rtt"]

_REPORT_OPTIONS = ["--compare-paper", "--format", "--out", "--strict"]
OPTIONS = {
    "run": sorted([
        "-h", "--help", "--profile", "--protocol", "--mode", "--suite", "--cid", "--loss",
        "--dup", "--reorder", "--mtu", "--latency", "--seed", "--cert-size", "--framing",
        "--app-payload", "--packing", "--padding", "--compat", "--dos",
        *_REPORT_OPTIONS,
    ]),
    "matrix": sorted(["-h", "--help", "--config", *_REPORT_OPTIONS]),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_config_fields(cls):
    assert list(cls._fields) == FIELDS[cls]


def test_overridable_profile_fields():
    assert sorted(profiles._OVERRIDABLE) == OVERRIDABLE


def _option_strings(command: str) -> list:
    """Every option string that ``bench COMMAND --help`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.main([command, "--help"])
    return sorted(set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out.getvalue())))


@pytest.mark.parametrize("command", list(OPTIONS))
def test_bench_options(command):
    assert _option_strings(command) == OPTIONS[command]
