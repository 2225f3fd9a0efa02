"""Tests for hop-by-hop MAC authentication."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.sos.auth import HopAuthenticator


@pytest.fixture
def auth():
    authenticator = HopAuthenticator(layers=3)
    authenticator.enroll_many(1, (101,))
    authenticator.enroll_many(2, (202,))
    return authenticator


class TestEnrollment:
    def test_enrolled_member_verifies(self, auth):
        mac = auth.issue(1, 101, packet_id=7)
        assert auth.verify(1, 101, 7, mac)

    def test_unenrolled_cannot_issue(self, auth):
        with pytest.raises(ProtocolError, match="not enrolled"):
            auth.issue(1, 999, packet_id=7)

    def test_layers_property(self, auth):
        assert auth.layers == 3


class TestVerification:
    def test_wrong_layer_key_rejected(self, auth):
        auth.enroll_many(2, (101,))
        mac = auth.issue(1, 101, packet_id=7)
        assert not auth.verify(2, 101, 7, mac)

    def test_wrong_packet_id_rejected(self, auth):
        mac = auth.issue(1, 101, packet_id=7)
        assert not auth.verify(1, 101, 8, mac)

    def test_forged_issuer_rejected(self, auth):
        auth.enroll_many(1, (102,))
        mac = auth.issue(1, 101, packet_id=7)
        assert not auth.verify(1, 102, 7, mac)

    def test_tampered_mac_rejected(self, auth):
        mac = bytearray(auth.issue(1, 101, packet_id=7))
        mac[0] ^= 0xFF
        assert not auth.verify(1, 101, 7, bytes(mac))

    def test_unknown_layer_raises(self, auth):
        with pytest.raises(ProtocolError, match="unknown layer"):
            auth.verify(9, 101, 7, b"x")


class TestDeterministicKeys:
    def test_seeded_authenticators_agree(self):
        a = HopAuthenticator(layers=2, seed_material=b"seed")
        b = HopAuthenticator(layers=2, seed_material=b"seed")
        a.enroll_many(1, (5,))
        b.enroll_many(1, (5,))
        assert a.issue(1, 5, 1) == b.issue(1, 5, 1)

    def test_unseeded_authenticators_differ(self):
        a = HopAuthenticator(layers=2)
        b = HopAuthenticator(layers=2)
        a.enroll_many(1, (5,))
        b.enroll_many(1, (5,))
        assert a.issue(1, 5, 1) != b.issue(1, 5, 1)

    def test_needs_one_layer(self):
        with pytest.raises(ProtocolError):
            HopAuthenticator(layers=0)
