import pytest

from minitls.crypto import NamedGroup, SuiteId
from minitls.errors import ConfigError
from minitls import ec, profiles
from minitls.profiles import AuthMode, resolve


def test_psk128_profile():
    p = resolve("psk128")
    assert p.suites == (SuiteId.AES_128_CCM_SHA256,)
    assert p.modes == {AuthMode.PSK}
    assert p.sni_hostname is None


def test_ecdsa128_256_profile():
    p = resolve("ecdsa128_256")
    assert set(p.suites) == {SuiteId.AES_128_CCM_SHA256, SuiteId.AES_256_CCM_SHA384}
    assert p.groups == (NamedGroup.SECP256R1, NamedGroup.SECP521R1)
    assert p.sni_hostname is not None
    assert AuthMode.PK_MUTUAL in p.modes


def test_full_profile_flags():
    p = resolve("full")
    assert p.zero_rtt and p.compat_mode and p.tickets
    assert AuthMode.PSK_ECDHE not in p.modes


def test_full_is_superset_of_every_profile():
    full = resolve("full")
    for name in profiles.profile_names():
        p = resolve(name)
        assert set(p.suites) <= set(full.suites)
        assert set(p.groups) <= set(full.groups)
        assert p.modes <= full.modes | {AuthMode.PSK_ECDHE}
        for flag in ("compat_mode", "zero_rtt", "tickets"):
            assert getattr(full, flag) >= getattr(p, flag)


def test_resolution_pure():
    assert resolve("ecdsa128", {"cert_size": 800}) == resolve("ecdsa128", {"cert_size": 800})
    assert resolve("ecdsa128", {"cert_size": 800}).cert_size == 800
    assert resolve("ecdsa128").cert_size == 500


def test_unknown_profile():
    with pytest.raises(ConfigError):
        resolve("rsa4096")


def test_illegal_overrides():
    with pytest.raises(ConfigError):
        resolve("psk128", {"max_key_shares": 2})
    with pytest.raises(ConfigError):
        resolve("psk128", {"modes": {AuthMode.PK_MUTUAL}})
    with pytest.raises(ConfigError):
        resolve("ecdsa128", {"modes": {AuthMode.PSK}})
    with pytest.raises(ConfigError):
        resolve("ecdsa128", {"zero_rtt": True})
    with pytest.raises(ConfigError):
        resolve("psk128", {"cid": 40})
    with pytest.raises(ConfigError):
        resolve("ecdsa128", {"mutual_auth": False})


def test_psk_ecdhe_reachable_by_override():
    p = resolve("psk128", {"modes": {AuthMode.PSK_ECDHE}, "groups": (NamedGroup.SECP256R1,)})
    assert p.modes == {AuthMode.PSK_ECDHE}


def test_zero_rtt_override_on_psk_profile_is_legal():
    p = resolve("psk128", {"zero_rtt": True})
    assert p.zero_rtt


def test_cert_size_changes_blob_by_exact_delta():
    import random

    a = profiles.synthetic_cert(random.Random(1), 500)
    b = profiles.synthetic_cert(random.Random(1), 800)
    assert len(b) - len(a) == 300


def test_make_deployment_deterministic():
    d1 = profiles.make_deployment(7, NamedGroup.SECP256R1, 500, ("client", "server"))
    d2 = profiles.make_deployment(7, NamedGroup.SECP256R1, 500, ("client", "server"))
    assert d1["psk"] == d2["psk"]
    assert d1["client_ec"] == d2["client_ec"]
    assert len(d1["server_ec"].cert_der) == 500


def test_make_deployment_builds_only_the_credentials_held():
    # each role's credential is the same whoever else holds one, and a role
    # that holds none gets none
    both = profiles.make_deployment(7, NamedGroup.SECP256R1, 500, ("client", "server"))
    server = profiles.make_deployment(7, NamedGroup.SECP256R1, 500, ("server",))
    client = profiles.make_deployment(7, NamedGroup.SECP256R1, 500, ("client",))
    neither = profiles.make_deployment(7, None, 500, ())
    assert (server["client_ec"], server["server_ec"]) == (None, both["server_ec"])
    assert (client["client_ec"], client["server_ec"]) == (both["client_ec"], None)
    assert neither["client_ec"] is neither["server_ec"] is None
    assert neither["psk"] == server["psk"] == both["psk"]
    cred = both["server_ec"]
    assert cred.public_point == ec.public_point(cred.private)


def test_reprs_hide_private_scalars():
    cred = profiles.make_deployment(3, NamedGroup.SECP256R1, 100, ("client",))["client_ec"]
    d = cred.private.private_numbers().private_value
    for text in (repr(cred), repr(cred.private)):
        assert f"{d:x}" not in text.lower()
        assert str(d) not in text
