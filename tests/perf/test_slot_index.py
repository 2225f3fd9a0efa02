"""SlotIndex edge cases, the arrays-only engine path and its contact matrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SOSArchitecture
from repro.errors import SimulationError
from repro.perf.fastsim import SlotIndex, encode_deployment, run_fast
from repro.simulation.packet_sim import PacketSimConfig, flood_layer
from repro.sos.deployment import SOSDeployment


class TestSlotIndex:
    def test_round_trips_ids_to_slots(self):
        ids = np.array([42, 7, 99, 13], dtype=np.int64)
        index = SlotIndex(ids)
        assert len(index) == 4
        for slot, node_id in enumerate(ids.tolist()):
            assert node_id in index
            assert index[node_id] == slot
        np.testing.assert_array_equal(
            index.lookup(np.array([99, 7])), [2, 1]
        )

    def test_empty_deployment(self):
        index = SlotIndex(np.empty(0, dtype=np.int64))
        assert len(index) == 0
        assert 5 not in index
        with pytest.raises(KeyError):
            index[5]
        empty = index.lookup(np.empty(0, dtype=np.int64))
        assert empty.shape == (0,)
        with pytest.raises(KeyError):
            index.lookup(np.array([5], dtype=np.int64))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SimulationError, match="duplicate node id 7"):
            SlotIndex(np.array([3, 7, 11, 7], dtype=np.int64))

    @pytest.mark.parametrize(
        "ids",
        [
            np.array([2**80, 5, 2**80], dtype=object),
            np.array([2**70, 3, 2**64 + 1], dtype=object),
            np.array([3, 7], dtype=object),
        ],
        ids=["duplicate-wide", "wider-than-int64", "small-objects"],
    )
    def test_object_ids_rejected(self, ids):
        with pytest.raises(SimulationError, match="dtype object"):
            SlotIndex(ids)

    def test_uint64_above_int64_max_rejected(self):
        ids = np.array([np.iinfo(np.int64).max + 10, 4], dtype=np.uint64)
        with pytest.raises(SimulationError, match="dtype uint64"):
            SlotIndex(ids)

    def test_uint64_within_int64_accepted(self):
        index = SlotIndex(np.array([np.iinfo(np.int64).max, 4], dtype=np.uint64))
        assert index[int(np.iinfo(np.int64).max)] == 0
        assert index[4] == 1

    @pytest.mark.parametrize(
        "wanted",
        [
            np.array([2**70], dtype=object),
            [2**70],
            [5, 2**70],
            np.array([[1, 2**70]], dtype=object),
        ],
        ids=["object-array", "list", "after-a-hit", "2-d"],
    )
    def test_lookup_of_wide_id_is_key_error(self, wanted):
        # An id wider than int64 has no slot: lookup raises the KeyError
        # that ``[]`` raises, not numpy's OverflowError.
        index = SlotIndex(np.array([1, 5]))
        with pytest.raises(KeyError) as lookup_error:
            index.lookup(wanted)
        with pytest.raises(KeyError) as item_error:
            index[2**70]
        assert lookup_error.value.args == item_error.value.args == (2**70,)
        assert 2**70 not in index

    @pytest.mark.parametrize(
        "wanted,missing",
        [([1.7], 1.7), (np.array([5.0, 5.5]), 5.5),
         (np.array([2**63 + 1], dtype=np.uint64), 2**63 + 1)],
        ids=["float-list", "float-array", "uint64-above-int64"],
    )
    def test_lookup_never_truncates_an_id(self, wanted, missing):
        # 1.7 is not id 1, and a uint64 id above the int64 maximum does
        # not wrap onto another slot: both miss, as they do under [].
        index = SlotIndex(np.array([1, 5]))
        with pytest.raises(KeyError) as error:
            index.lookup(wanted)
        assert error.value.args == (missing,)
        np.testing.assert_array_equal(index.lookup(np.array([5.0, 1.0])), [1, 0])

    def test_lookup_preserves_shape(self):
        index = SlotIndex(np.array([10, 20, 30], dtype=np.int64))
        grid = np.array([[30, 10], [20, 20]], dtype=np.int64)
        np.testing.assert_array_equal(
            index.lookup(grid), [[2, 0], [1, 1]]
        )


class TestZeroClientArraysRun:
    def _deployment(self):
        arch = SOSArchitecture(
            layers=3,
            mapping="one-to-half",
            total_overlay_nodes=300,
            sos_nodes=24,
            filters=4,
        )
        return SOSDeployment.deploy(arch, rng=5)

    @pytest.mark.parametrize("tier", ["numpy", "compiled"])
    def test_zero_clients_no_contacts(self, tier):
        dep = self._deployment()
        arrays = encode_deployment(dep)
        config = PacketSimConfig(
            duration=10.0, warmup=2.0, clients=0, client_rate=1.0, tier=tier
        )
        report = run_fast(
            None, config, rng=9, client_contacts=[], arrays=arrays
        )
        assert report.sent == 0
        assert report.delivered == 0
        assert report.latency_count == 0

    def test_zero_clients_flooded_still_congests(self):
        dep = self._deployment()
        targets = flood_layer(dep, layer=1, fraction=0.5, rng=2)
        arrays = encode_deployment(dep)
        config = PacketSimConfig(
            duration=20.0, warmup=2.0, clients=0, client_rate=1.0,
            flood_rate=150.0,
        )
        report = run_fast(
            None, config, rng=9, flood_targets=targets,
            client_contacts=[], arrays=arrays,
        )
        assert report.sent == 0
        assert report.attack_packets_absorbed > 0


class TestContactMatrix:
    """``run_fast`` takes baseline contacts as a ``(clients, m_1)`` matrix
    of layer-1 positions, one row per client — no more, no fewer."""

    def _setup(self, clients=6):
        arch = SOSArchitecture(
            layers=3,
            mapping="one-to-half",
            total_overlay_nodes=300,
            sos_nodes=24,
            filters=4,
        )
        dep = SOSDeployment.deploy(arch, rng=5)
        config = PacketSimConfig(
            duration=10.0, warmup=2.0, clients=clients, client_rate=1.0
        )
        contacts = dep.client_contact_matrix(np.random.default_rng(3), clients)
        return dep, encode_deployment(dep), config, contacts

    def test_too_few_rows_raise(self):
        _, arrays, config, contacts = self._setup()
        with pytest.raises(SimulationError, match="5 rows for 6 clients"):
            run_fast(
                None, config, rng=9, client_contacts=contacts[:5],
                arrays=arrays,
            )

    def test_too_many_rows_raise(self):
        _, arrays, config, contacts = self._setup()
        extra = np.concatenate([contacts, contacts[:1]])
        with pytest.raises(SimulationError, match="7 rows for 6 clients"):
            run_fast(
                None, config, rng=9, client_contacts=extra, arrays=arrays
            )

    def test_positions_outside_layer_one_raise(self):
        dep, arrays, config, contacts = self._setup()
        node_ids = dep.member_array(1)[contacts]  # ids, not positions
        with pytest.raises(SimulationError, match="layer-1 positions"):
            run_fast(
                None, config, rng=9, client_contacts=node_ids, arrays=arrays
            )

    def test_matrix_rows_are_sample_client_contacts_draws(self):
        dep, _, _, contacts = self._setup()
        rng = np.random.default_rng(3)
        members = dep.member_array(1)
        for row in contacts:
            drawn = dep.sample_client_contacts(rng)
            assert drawn == members[row].tolist()
            assert all(type(node_id) is int for node_id in drawn)

    def test_standalone_matches_supplied_matrix(self):
        dep, arrays, config, _ = self._setup()
        rng = np.random.default_rng(21)
        contacts = dep.client_contact_matrix(rng, config.clients)
        supplied = run_fast(
            None, config, rng=rng, client_contacts=contacts, arrays=arrays
        )
        standalone = run_fast(dep, config, rng=np.random.default_rng(21))
        assert supplied == standalone
        assert supplied.sent > 0
