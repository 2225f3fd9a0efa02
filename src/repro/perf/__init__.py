"""Performance execution layer: vectorized batch evaluation.

:mod:`repro.perf.batch` evaluates whole parameter grids of the analytical
model at once with numpy, mirroring the scalar kernels in
:mod:`repro.core` operation for operation so batch results agree with the
scalar oracle to within 1e-12 (property-tested).
:mod:`repro.perf.fastsim` is the packet engine of the packet-level
flooding simulation (hop-synchronous numpy batches, checked bit for bit
against an event-driven oracle in the test suite) plus process-parallel
replica sweeps. Run the engine through
:class:`repro.simulation.packet_sim.PacketLevelSimulation`.
:mod:`repro.perf.parallel` is the one seeded parallel map that runs
Monte Carlo trials (``MonteCarloConfig.workers``) and packet replicas
in-process or over a process pool; ``docs/PERFORMANCE.md`` documents it
together with the ``BENCH_*.json`` benchmark-snapshot workflow.

:mod:`repro.perf.compiled` holds the packet engine's kernel sets, one per
tier: numpy (the default and oracle) and C (``compiled``), both behind
one four-method interface and bit-identical, selected per run via
``PacketSimConfig.tier``. ``tools/bench_ladder.py`` benchmarks the two
tiers side by side.
"""

from repro.perf.batch import (
    all_bad_probability_batch,
    evaluate_batch,
    hop_success_probability_batch,
)
from repro.perf.compiled import (
    TIERS,
    CompiledTierUnavailableWarning,
    available_tiers,
    compiled_backend,
    resolve_tier,
)

#: Names re-exported from :mod:`repro.perf.fastsim`, imported on first
#: access: the deployment layer that fastsim builds on imports
#: :mod:`repro.perf.compiled` (for :func:`~repro.perf.compiled.choice_rows`),
#: so this package must not pull fastsim in eagerly.
_FASTSIM_EXPORTS = (
    "encode_deployment",
    "mean_delivery_ratio",
    "run_packet_replicas",
)


def __getattr__(name: str) -> object:
    if name in _FASTSIM_EXPORTS:
        from repro.perf import fastsim

        return getattr(fastsim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "TIERS",
    "CompiledTierUnavailableWarning",
    "all_bad_probability_batch",
    "available_tiers",
    "compiled_backend",
    "encode_deployment",
    "evaluate_batch",
    "hop_success_probability_batch",
    "mean_delivery_ratio",
    "resolve_tier",
    "run_packet_replicas",
]
