"""``poisson_rows`` against one ``Generator`` per source, gap by gap.

:func:`repro.perf.compiled.poisson_rows` draws every Poisson source of a
run in one C call: per child ``SeedSequence`` it builds the PCG64 state
``PCG64(seed)`` would build and calls numpy's own ``random_exponential``.
Every case here compares its flat ``(times, offsets)`` with a reference
that builds a ``Generator`` per seed and adds one gap at a time, the way
the event-driven oracle's sources do. The same holds on the numpy
fallback: other bit generators, no library, a library built without
numpy's archive, and a failed self-check.
"""

from __future__ import annotations

import dataclasses
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SOSArchitecture
from repro.detection.marking import MarkCollector, MarkingConfig, build_attack_graph
from repro.perf import _cc, compiled
from repro.perf.compiled import (
    PoissonReplayDisabledWarning,
    poisson_rows,
    poisson_sampler,
)
from repro.simulation.packet_sim import (
    PacketLevelSimulation,
    PacketSimConfig,
    flood_layer,
)
from repro.sos.deployment import SOSDeployment

from tests.perf.event_oracle import EventPacketSimulation

needs_sampler = pytest.mark.skipif(
    poisson_sampler() != "cc", reason="no C Poisson sampler to test"
)


def _reference(seeds, rate, duration, start=0.0, bit_generator=np.random.PCG64):
    """One generator per seed; ``t = start + gap``, then ``t + gap``,
    kept while ``t < duration``."""
    times, offsets = [], [0]
    for seed in seeds:
        stream = np.random.Generator(bit_generator(seed))
        t = start
        while True:
            for gap in stream.exponential(1.0 / rate, size=256).tolist():
                t = t + gap
                if not t < duration:
                    break
                times.append(t)
            else:
                continue
            break
        offsets.append(len(times))
    return np.asarray(times, dtype=np.float64), np.asarray(offsets, dtype=np.int64)


def _assert_rows(got, want):
    times, offsets = got
    assert times.dtype == np.float64 and offsets.dtype == np.int64
    np.testing.assert_array_equal(offsets, want[1])
    np.testing.assert_array_equal(times, want[0])


@pytest.fixture
def fresh_verdict(monkeypatch):
    """Re-run the Poisson self-check in this test."""
    monkeypatch.setattr(compiled, "_POISSON_OK", None)


@settings(max_examples=150)
@given(
    root=st.integers(0, 2**64 - 1),
    sources=st.integers(0, 12),
    rate=st.floats(0.05, 400.0),
    duration=st.floats(0.0, 30.0),
    start=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
)
def test_matches_one_generator_per_source(root, sources, rate, duration, start):
    seeds = np.random.SeedSequence(root).spawn(sources)
    want = _reference(seeds, rate, duration, start)
    _assert_rows(poisson_rows(seeds, rate, duration, start), want)
    library = _cc.load_library()
    if library is not None and hasattr(library, "repro_poisson_rows"):
        # The C call itself, not only whichever path poisson_rows chose.
        _assert_rows(
            compiled._poisson_replay(library, seeds, rate, duration, start),
            want,
        )


@needs_sampler
def test_both_paths_agree_when_rows_outgrow_their_block(monkeypatch):
    # Four gaps per block: the numpy loop extends every row many times
    # and the C call moves its rows to a growing heap buffer.
    monkeypatch.setattr(compiled, "_block_width", lambda expected: 4)
    seeds = np.random.SeedSequence(3).spawn(7)
    want = _reference(seeds, 90.0, 5.0, 0.5)
    library = _cc.load_library()
    _assert_rows(compiled._poisson_replay(library, seeds, 90.0, 5.0, 0.5), want)
    _assert_rows(
        compiled._poisson_loop(seeds, 90.0, 5.0, 0.5, np.random.PCG64), want
    )


@pytest.mark.parametrize("start, duration", [(4.0, 4.0), (6.0, 2.0)])
def test_empty_windows_draw_no_times(start, duration):
    seeds = np.random.SeedSequence(9).spawn(5)
    times, offsets = poisson_rows(seeds, 50.0, duration, start)
    assert len(times) == 0
    np.testing.assert_array_equal(offsets, np.zeros(6, dtype=np.int64))


def test_zero_sources():
    times, offsets = poisson_rows([], 50.0, 10.0)
    assert len(times) == 0 and times.dtype == np.float64
    np.testing.assert_array_equal(offsets, [0])


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
)
def test_other_bit_generators_take_the_numpy_loop(monkeypatch, bit_generator):
    def refuse(*args):
        raise AssertionError("the C sampler seeds PCG64 only")

    monkeypatch.setattr(compiled, "_poisson_replay", refuse)
    seeds = np.random.SeedSequence(4).spawn(6)
    _assert_rows(
        poisson_rows(seeds, 30.0, 4.0, 1.0, bit_generator=bit_generator),
        _reference(seeds, 30.0, 4.0, 1.0, bit_generator=bit_generator),
    )


def test_seeds_other_than_a_4_word_seed_sequence_take_the_numpy_loop(
    monkeypatch,
):
    def refuse(*args):
        raise AssertionError("the C sampler hashes 4-word pools only")

    monkeypatch.setattr(compiled, "_poisson_replay", refuse)
    seeds = np.random.SeedSequence(4, pool_size=8).spawn(3)
    _assert_rows(poisson_rows(seeds, 30.0, 4.0), _reference(seeds, 30.0, 4.0))


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------

ARCH = SOSArchitecture(
    layers=3, mapping="one-to-half", total_overlay_nodes=400, sos_nodes=30,
    filters=4,
)
CONFIG = PacketSimConfig(
    duration=8.0, warmup=1.0, clients=5, client_rate=4.0, flood_rate=300.0,
    flood_start=2.0,
)
MARKING = MarkingConfig(probability=0.08, sources_per_target=2, path_depth=5)


def _run(engine, rng, marking=False, tier="numpy"):
    deployment = SOSDeployment.deploy(ARCH, rng=5)
    targets = flood_layer(deployment, 1, 0.5, rng=6)
    collector = None
    if marking:
        collector = MarkCollector(build_attack_graph(targets, MARKING), MARKING)
    simulation = engine(
        deployment, dataclasses.replace(CONFIG, tier=tier), rng=rng,
        marking=collector,
    )
    report = dataclasses.asdict(simulation.run(flood_targets=targets))
    marks = collector.packets_per_victim if collector else None
    return report, marks


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64],
)
def test_reports_equal_the_oracle_for_any_parent_bit_generator(bit_generator):
    def parent():
        return np.random.Generator(bit_generator(np.random.SeedSequence(21)))

    assert _run(PacketLevelSimulation, parent(), marking=True) == _run(
        EventPacketSimulation, parent(), marking=True
    )


def test_without_the_library_reports_are_the_same(monkeypatch):
    engaged = _run(PacketLevelSimulation, 8, marking=True)
    monkeypatch.setattr(_cc, "load_library", lambda: None)
    assert poisson_sampler() == "numpy"
    assert _run(PacketLevelSimulation, 8, marking=True) == engaged


@needs_sampler
def test_both_tiers_use_the_same_sampler():
    assert _run(PacketLevelSimulation, 12, tier="numpy") == _run(
        PacketLevelSimulation, 12, tier="compiled"
    )


@needs_sampler
def test_self_check_keeps_the_sampler_engaged(fresh_verdict):
    # The CI tripwire: a numpy release whose PCG64 seeding or exponential
    # no longer matches the C sampler disengages it, and this turns red.
    with warnings.catch_warnings():
        warnings.simplefilter("error", PoissonReplayDisabledWarning)
        assert poisson_sampler() == "cc", (
            f"numpy {np.__version__} changed PCG64 seeding or "
            "Generator.exponential: poisson_rows runs the per-source loop"
        )


@needs_sampler
def test_self_check_mismatch_falls_back_with_one_warning(
    monkeypatch, fresh_verdict
):
    replay = compiled._poisson_replay

    def nudged(library, seeds, rate, duration, start):
        times, offsets = replay(library, seeds, rate, duration, start)
        return np.nextafter(times, np.inf), offsets

    monkeypatch.setattr(compiled, "_poisson_replay", nudged)
    seeds = np.random.SeedSequence(2).spawn(4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):
            _assert_rows(
                poisson_rows(seeds, 40.0, 3.0), _reference(seeds, 40.0, 3.0)
            )
        assert poisson_sampler() == "numpy"
    assert [type(w.message) for w in caught] == [PoissonReplayDisabledWarning]


# ----------------------------------------------------------------------
# The stream contract: seed-only fan-out leaves the caller's generator
# exactly where ``Generator.spawn`` left it.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("marking", [False, True])
def test_caller_generator_continues_as_before(marking):
    deployment = SOSDeployment.deploy(ARCH, rng=5)
    targets = flood_layer(deployment, 1, 0.5, rng=6)
    collector = (
        MarkCollector(build_attack_graph(targets, MARKING), MARKING)
        if marking
        else None
    )
    ours = np.random.default_rng(31)
    PacketLevelSimulation(deployment, CONFIG, rng=ours, marking=collector)
    # The construction before seed-only fan-out: contacts, then
    # generator-level spawns of the client, routing and flood streams,
    # then the mark master.
    theirs = np.random.default_rng(31)
    deployment.client_contact_matrix(theirs, CONFIG.clients)
    theirs.spawn(CONFIG.clients + 2)
    if marking:
        theirs.spawn(1)
    assert ours.spawn(1)[0].random() == theirs.spawn(1)[0].random()
    assert ours.random() == theirs.random()


def test_seed_fan_out_matches_generator_spawn():
    from repro.utils.seeding import child_generator, spawn_seeds

    ours, theirs = np.random.default_rng(40), np.random.default_rng(40)
    seeds = spawn_seeds(ours, 3)
    children = theirs.spawn(3)
    for seed, child in zip(seeds, children):
        assert child_generator(ours, seed).random(4).tolist() == (
            child.random(4).tolist()
        )
    assert ours.bit_generator.seed_seq.n_children_spawned == 3


# ----------------------------------------------------------------------
# Build: the cache key and a library without numpy's archive.
# ----------------------------------------------------------------------


def test_cache_key_covers_source_numpy_and_archive(monkeypatch, tmp_path):
    archive = tmp_path / "libnpyrandom.a"
    archive.write_bytes(b"x" * 10)
    key = _cc._build_key(str(archive))
    assert key != _cc._build_key(None)
    archive.write_bytes(b"x" * 11)
    assert _cc._build_key(str(archive)) != key
    resized = _cc._build_key(str(archive))
    monkeypatch.setattr(np, "__version__", "0.0.0")
    assert _cc._build_key(str(archive)) != resized
    monkeypatch.undo()
    monkeypatch.setattr(_cc, "C_SOURCE", _cc.C_SOURCE + "\n")
    assert _cc._build_key(str(archive)) != resized


@pytest.fixture
def rebuilt_library(monkeypatch, tmp_path):
    """A fresh load in an empty cache directory; afterwards the normal
    library is loaded again."""
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
    monkeypatch.setattr(compiled, "_POISSON_OK", None)
    _cc._reset_for_tests()
    yield
    monkeypatch.undo()
    _cc._reset_for_tests()


@pytest.mark.skipif(
    compiled.compiled_backend() is None, reason="no C compiler"
)
def test_without_numpys_archive_the_library_loads_without_the_sampler(
    monkeypatch, rebuilt_library
):
    monkeypatch.setattr(_cc, "_npyrandom_archive", lambda: None)
    library = _cc.load_library()
    assert library is not None and compiled.compiled_backend() == "cc"
    assert not hasattr(library, "repro_poisson_rows")
    assert poisson_sampler() == "numpy"
    seeds = np.random.SeedSequence(6).spawn(3)
    _assert_rows(poisson_rows(seeds, 20.0, 2.0), _reference(seeds, 20.0, 2.0))
    built = [
        name
        for name in os.listdir(os.environ["REPRO_CC_CACHE"])
        if name.endswith(".so")
    ]
    assert built == [f"repro_kernels_{_cc._build_key(None)}.so"]


@needs_sampler
def test_with_numpys_archive_the_library_carries_the_sampler(rebuilt_library):
    library = _cc.load_library()
    assert hasattr(library, "repro_poisson_rows")
    assert poisson_sampler() == "cc"
