"""ScenarioSpec DSL: round-trip fidelity and validation errors."""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.errors import ScenarioError
from repro.scenarios import (
    ArchitectureSpec,
    BenignSurge,
    BotnetWave,
    PhaseSpec,
    PulsingFlood,
    ScenarioSpec,
    SimSpec,
    TargetedLowRate,
    vector_from_dict,
)

from tests.scenarios.conftest import tiny_spec


def test_dict_round_trip_is_identity():
    spec = tiny_spec()
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_json_round_trip_is_identity():
    spec = tiny_spec()
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_to_dict_emits_every_field_including_defaults():
    payload = ScenarioSpec(name="bare").to_dict()
    assert set(payload) == {
        "name",
        "description",
        "seed",
        "tier",
        "architecture",
        "sim",
        "phases",
    }
    assert payload["tier"] == "numpy"
    assert payload["architecture"]["overlay_nodes"] == 2000


@pytest.mark.parametrize(
    "vector",
    [
        PulsingFlood(),
        BotnetWave(),
        TargetedLowRate(),
        BenignSurge(),
        PulsingFlood(layer=2, fraction=0.25, rate=100.0, intensity=2.0),
        BotnetWave(bots=7, recruit_rate=1.5),
    ],
)
def test_vector_round_trip(vector):
    assert vector_from_dict(vector.to_dict()) == vector


def test_vector_from_dict_coerces_json_ints_to_floats():
    decoded = vector_from_dict(
        {"kind": "pulsing-flood", "rate": 300, "period": 2, "duty": 1}
    )
    assert decoded == PulsingFlood(rate=300.0, period=2.0, duty=1.0)
    assert isinstance(decoded.rate, float)


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({"kind": "no-such-vector"}, "unknown vector kind"),
        ({"kind": "pulsing-flood", "rate": -1.0}, "rate"),
        ({"kind": "pulsing-flood", "bogus": 1}, "bogus"),
        ({"kind": "botnet-wave", "bots": 0}, "bots"),
        ({"kind": "targeted-low-rate", "count": "two"}, "count"),
        ({"kind": "benign-surge", "ramp": -0.5}, "ramp"),
        ("not-a-dict", "JSON object"),
    ],
)
def test_vector_from_dict_rejects_bad_payloads(payload, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        vector_from_dict(payload)


def test_duplicate_phase_names_rejected():
    with pytest.raises(ScenarioError, match="duplicate phase name"):
        tiny_spec(
            phases=(PhaseSpec("p", 0.0, 2.0), PhaseSpec("p", 2.0, 2.0))
        )


def test_phase_past_sim_duration_rejected():
    with pytest.raises(ScenarioError, match="runs only to"):
        tiny_spec(phases=(PhaseSpec("late", 0.0, 100.0),))


def test_vector_layer_out_of_architecture_rejected():
    with pytest.raises(ScenarioError, match="targets layer"):
        tiny_spec(
            phases=(
                PhaseSpec(
                    "deep",
                    0.0,
                    4.0,
                    vectors=(TargetedLowRate(layer=9),),
                ),
            )
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": ""},
        {"seed": -1},
        {"tier": "gpu"},
        {"tier": "scalar"},  # retired tier: no alias
        {"seed": True},  # bool is not an int
    ],
)
def test_spec_field_validation(kwargs):
    with pytest.raises(ScenarioError):
        tiny_spec(**kwargs)


def test_from_dict_rejects_unknown_and_mistyped_fields():
    good = tiny_spec().to_dict()
    bad = dict(good, surprise=1)
    with pytest.raises(ScenarioError, match="surprise"):
        ScenarioSpec.from_dict(bad)
    with pytest.raises(ScenarioError, match="seed"):
        ScenarioSpec.from_dict(dict(good, seed="eleven"))
    with pytest.raises(ScenarioError, match="seed"):
        ScenarioSpec.from_dict(dict(good, seed=True))  # bool is not an int


def test_from_json_rejects_malformed_json():
    with pytest.raises(ScenarioError, match="does not parse"):
        ScenarioSpec.from_json("{not json")


def test_architecture_spec_validates_eagerly():
    with pytest.raises(ScenarioError, match="invalid architecture"):
        ArchitectureSpec(overlay_nodes=2, sos_nodes=600)


def test_sim_spec_validates_eagerly():
    with pytest.raises(ScenarioError, match="invalid sim settings"):
        SimSpec(duration=-1.0)


def test_non_finite_sim_settings_rejected():
    # ``Infinity`` parses from JSON and passes the ``> 0`` schema check;
    # the sim config must still refuse it before any engine runs.
    payload = tiny_spec().to_json().replace(
        '"hop_latency": 0.05', '"hop_latency": Infinity'
    )
    assert "Infinity" in payload
    with pytest.raises(ScenarioError, match="hop_latency must be finite"):
        ScenarioSpec.from_json(payload)


def test_unrunnable_client_count_rejected():
    # 10**12 passes the schema's ``>= 0`` check; the sim config must
    # refuse it before any stream or array is allocated.
    payload = tiny_spec().to_dict()
    payload["sim"]["clients"] = 10**12
    with pytest.raises(ScenarioError, match="clients must be <="):
        ScenarioSpec.from_dict(payload)


def test_sim_config_tier_override_does_not_mutate_spec():
    spec = tiny_spec()
    assert spec.sim_config().tier == spec.tier
    assert spec.sim_config(tier="compiled").tier == "compiled"
    assert spec.tier == "numpy"


def test_vector_occurrences_are_phase_major():
    spec = tiny_spec()
    kinds = [vector.kind for _, vector in spec.vector_occurrences()]
    assert kinds == ["pulsing-flood", "targeted-low-rate", "benign-surge"]


def test_specs_are_frozen():
    spec = tiny_spec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.seed = 99


@pytest.mark.parametrize("engine", ["fast", "event"])
def test_retired_engine_field_is_an_unknown_field(engine):
    # Specs written when two packet engines existed carried "engine";
    # it now hits the unknown-field rejection like any other typo.
    payload = dict(tiny_spec().to_dict(), engine=engine)
    with pytest.raises(ScenarioError, match="engine"):
        ScenarioSpec.from_dict(payload)


def test_unrepresentable_hop_latency_rejected():
    # A hop latency below the clock's resolution would make a packet
    # arrive at the instant it left; the sim config refuses it.
    payload = tiny_spec().to_dict()
    payload["sim"]["hop_latency"] = 1e-20
    with pytest.raises(ScenarioError, match="clock resolution"):
        ScenarioSpec.from_dict(payload)


@pytest.mark.parametrize(
    "field, value",
    [("rate", 1e300), ("intensity", 1e9), ("rate", 1e12)],
)
def test_unbounded_source_arrivals_rejected(field, value):
    # Each probe once surfaced at compile time as a bare ValueError
    # ("Maximum allowed dimension exceeded") or a MemoryError for a
    # multi-TiB arrival array; validation now refuses the spec first.
    from repro.scenarios.zoo import load_scenario

    payload = load_scenario("pulsing-shrew").to_dict()
    vector = payload["phases"][1]["vectors"][0]
    assert vector["kind"] == "pulsing-flood"
    vector[field] = value
    with pytest.raises(ScenarioError, match=re.escape(f"{field}={value!r}")):
        ScenarioSpec.from_dict(payload)


@pytest.mark.parametrize(
    "vector, field",
    [
        (PulsingFlood(rate=2e6), "rate"),
        (BotnetWave(rate_per_bot=2e6), "rate_per_bot"),
        (TargetedLowRate(intensity=2e4), "intensity"),
        (BenignSurge(rate=3e6), "rate"),
    ],
)
def test_every_poisson_vector_caps_arrivals_per_source(vector, field):
    with pytest.raises(ScenarioError, match=f"{field}="):
        PhaseSpec(name="p", start=0.0, duration=10.0, vectors=(vector,))
    # The same vector fits a window short enough to stay under the cap.
    PhaseSpec(name="p", start=0.0, duration=1.0, vectors=(vector,))


@pytest.mark.parametrize(
    "scenario, kind, field",
    [
        ("botnet-recruitment", "botnet-wave", "bots"),
        ("flash-crowd", "benign-surge", "clients"),
    ],
)
def test_unbounded_source_counts_rejected(scenario, kind, field):
    # Compiling loops once per bot or surge client (~5 us each), so 10**12
    # sources would take about two months; validation refuses them first.
    from repro.scenarios.zoo import load_scenario
    from repro.simulation.packet_sim import MAX_CLIENTS

    payload = load_scenario(scenario).to_dict()
    vector = next(
        vector
        for phase in payload["phases"]
        for vector in phase["vectors"]
        if vector["kind"] == kind
    )
    vector[field] = 10**12
    with pytest.raises(ScenarioError, match=f"'{field}'=1000000000000"):
        ScenarioSpec.from_dict(payload)
    vector[field] = MAX_CLIENTS + 1
    with pytest.raises(ScenarioError, match=field):
        ScenarioSpec.from_dict(payload)


@pytest.mark.parametrize(
    "vector_type, field", [(BotnetWave, "bots"), (BenignSurge, "clients")]
)
def test_source_count_capped_at_max_clients(vector_type, field):
    from repro.simulation.packet_sim import MAX_CLIENTS

    with pytest.raises(ScenarioError, match=f"{field} must be in"):
        vector_type(**{field: 10**12})
    with pytest.raises(ScenarioError, match=f"{field} must be in"):
        vector_type(**{field: 0})
    assert getattr(vector_type(**{field: MAX_CLIENTS}), field) == MAX_CLIENTS
