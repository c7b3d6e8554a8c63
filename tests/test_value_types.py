"""The package's value types are ``NamedTuple``s: importing the ``bench``
command loads neither ``dataclasses`` nor ``inspect``, the defaults that
instances share stay unmutated, and a credential compares, hashes and
prints without its OpenSSL key."""

import os
import pathlib
import subprocess
import sys

from minitls import bench, connection, crypto, messages, profiles, records, simnet
from minitls.bench import Scenario, run_scenario
from minitls.crypto import NamedGroup
from minitls.profiles import make_deployment
from minitls.simnet import NetConfig

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_importing_the_bench_command_loads_no_dataclasses_or_inspect():
    code = "import sys, minitls.bench, minitls.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def shared_mutable_defaults() -> dict:
    """``Class.field`` -> the dict or list default every instance built without that field shares."""
    return {
        f"{cls.__name__}.{name}": default
        for module in (bench, connection, crypto, messages, profiles, records, simnet)
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and hasattr(cls, "_field_defaults")
        for name, default in cls._field_defaults.items()
        if isinstance(default, (dict, list))
    }


def test_shared_mutable_defaults_stay_empty():
    defaults = shared_mutable_defaults()
    assert sorted(defaults) == [
        "Certificate.entries", "CertificateRequest.extensions", "ClientHello.extensions", "EncryptedExtensions.extensions",
        "Event.detail", "NewSessionTicket.extensions", "Scenario.overrides", "ServerHello.extensions",
    ]
    for kind in (
        dict(mode="psk"),
        dict(protocol="tls", mode="psk_ecdhe", profile="full", overrides={"groups": [23]}),
        dict(profile="ecdsa128", mode="pk_server_only"),
        dict(protocol="tls", profile="ecdsa128", mode="pk_mutual"),
        dict(profile="full", mode="zero_rtt", dos=True),
        dict(protocol="tls", profile="full", mode="zero_rtt", resume=True),
        dict(protocol="tls", profile="full", mode="psk", resume=True, app_payload=32),
        dict(profile="psk128", cid=4, packing=True, net=NetConfig(loss_rate=0.2, mtu=200, seed=3)),
    ):
        run_scenario(Scenario(**kind))
    assert {name: default for name, default in defaults.items() if default} == {}


def test_ec_credential_compares_hashes_and_prints_without_its_key():
    first, second = (make_deployment(3, NamedGroup.SECP256R1, 50, ("server",))["server_ec"] for _ in range(2))
    assert first.private != second.private  # OpenSSL keys compare by identity
    assert first == second and not first != second and hash(first) == hash(second)
    assert first != first._replace(cert_der=b"")
    assert "private" not in repr(first) and repr(first.private) not in repr(first)
