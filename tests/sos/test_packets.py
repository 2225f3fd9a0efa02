"""Direct tests for Packet and DeliveryReceipt."""

from __future__ import annotations

from repro.sos.packets import DeliveryReceipt, Packet


class TestPacket:
    def test_unique_increasing_ids(self):
        a, b = Packet("s", "t"), Packet("s", "t")
        assert b.packet_id > a.packet_id

    def test_hop_trail_recording(self):
        packet = Packet("s", "t")
        packet.record_hop(1)
        packet.record_hop(2)
        assert packet.hops == (1, 2)

    def test_stamp(self):
        packet = Packet("s", "t")
        packet.stamp(issuer=7, mac=b"\x01\x02")
        assert packet.mac_issuer == 7
        assert packet.mac == b"\x01\x02"

    def test_payload_default_empty(self):
        assert Packet("s", "t").payload == b""


class TestDeliveryReceipt:
    def test_failure_carries_reason(self):
        receipt = DeliveryReceipt(
            packet_id=1, delivered=False, hop_trail=(),
            failure_reason="all access points bad",
        )
        assert not receipt.delivered
        assert "access points" in receipt.failure_reason

    def test_frozen(self):
        import dataclasses

        receipt = DeliveryReceipt(packet_id=1, delivered=True, hop_trail=())
        try:
            receipt.delivered = False  # type: ignore[misc]
            raised = False
        except dataclasses.FrozenInstanceError:
            raised = True
        assert raised
