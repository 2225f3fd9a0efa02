"""Monte Carlo estimation of ``P_S`` on concrete deployments.

Each trial deploys a fresh generalized-SOS instance (new role assignment
and neighbor tables) over a reusable overlay population, executes the
intelligent attack with :class:`~repro.attacks.IntelligentAttacker`, and
then measures client success. Averaging over trials yields an unbiased
estimate of the true ``P_S`` under the exact attack semantics — the
cross-check for the paper's average-case analytical approximation.

Two success metrics are supported (see :mod:`repro.sos.protocol`):

* ``"forward"`` — per-hop retry forwarding, the semantics Eq. (1) prices;
* ``"reachability"`` — existence of any all-good path (upper bound).

Trials are embarrassingly parallel: every trial draws from its own
:class:`~numpy.random.SeedSequence` stream, pre-spawned in the parent in
trial order, so dispatching chunks of trials over a
:class:`~concurrent.futures.ProcessPoolExecutor`
(``MonteCarloConfig.workers``) yields aggregates **bit-identical** to the
serial path regardless of worker count or completion order. See
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.attacks.attacker import IntelligentAttacker
from repro.core.architecture import SOSArchitecture
from repro.core.attack_models import OneBurstAttack, SuccessiveAttack
from repro.errors import CampaignInterrupted, SimulationError
from repro.overlay.arrays import HEALTH_CRASHED, HEALTH_GOOD
from repro.overlay.network import OverlayNetwork
from repro.perf.compiled import choice_sampler
from repro.resilience.checkpoint import CampaignCheckpoint, fingerprint
from repro.simulation.results import PsEstimate, summarize_indicators
from repro.sos.deployment import SOSDeployment
from repro.sos.protocol import SOSProtocol
from repro.utils.seeding import SeedSequenceFactory, make_rng

Attack = Union[OneBurstAttack, SuccessiveAttack]

#: ``(trial_index, success, per_layer_bad, error)`` — exactly one of the
#: result pair / error string is populated.
TrialOutcome = Tuple[int, Optional[float], Optional[Dict[int, int]], Optional[str]]

#: ``(trial_index, trial_seed)`` jobs handed to the execution paths.
TrialJob = Tuple[int, np.random.SeedSequence]

#: Most trials one estimate may run. Every trial's RNG stream is spawned
#: up front (about 0.85 s and a few tens of MB per 10⁵ streams), so the
#: cap bounds that work before any of it starts.
MAX_TRIALS = 100_000


@dataclasses.dataclass(frozen=True)
class MonteCarloConfig:
    """Tuning knobs for the estimator.

    ``churn_fraction`` crashes that fraction of the SOS membership
    (benignly, before the attack) in every trial; the crash sets are
    *nested* across churn levels under a fixed seed, so per-trial
    reachability is monotone in the fraction. ``error_isolation`` records
    a failing trial instead of aborting the whole campaign;
    ``checkpoint_path`` persists per-trial results as JSON so an
    interrupted campaign resumes — with per-trial RNG streams, resumption
    is bit-identical to an uninterrupted run with the same seed.

    ``trials``, ``clients_per_trial``, ``workers``, ``chunk_size`` and
    ``checkpoint_every`` must be ints (not bools); ``trials`` is capped at
    :data:`MAX_TRIALS`.

    ``workers`` dispatches trials over a process pool (``0`` means "all
    cores"); results are bit-identical to ``workers=1`` because every
    trial's RNG stream is pre-spawned in the parent. ``chunk_size``
    overrides the trials-per-task batching (default: enough chunks for
    ~4 tasks per worker). ``checkpoint_every`` batches checkpoint writes
    so a long campaign is not O(trials²) in checkpoint I/O; the
    checkpoint always flushes on completion or on an interrupting
    exception, and each write is atomic (temp file + ``os.replace``).
    """

    trials: int = 200
    clients_per_trial: int = 5
    metric: str = "forward"  # or "reachability"
    seed: Optional[int] = None
    churn_fraction: float = 0.0
    error_isolation: bool = True
    checkpoint_path: Optional[str] = None
    workers: int = 1
    chunk_size: Optional[int] = None
    checkpoint_every: int = 32

    def __post_init__(self) -> None:
        for name in (
            "trials", "clients_per_trial", "workers", "chunk_size",
            "checkpoint_every",
        ):
            value = getattr(self, name)
            if name == "chunk_size" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise SimulationError(f"{name} must be an int, got {value!r}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise SimulationError(
                f"trials must be in [1, {MAX_TRIALS}], got {self.trials}"
            )
        if self.clients_per_trial < 1:
            raise SimulationError("clients_per_trial must be >= 1")
        if self.metric not in ("forward", "reachability"):
            raise SimulationError(
                f"metric must be 'forward' or 'reachability', got {self.metric!r}"
            )
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise SimulationError(
                f"churn_fraction must be in [0, 1], got {self.churn_fraction}"
            )
        if self.workers < 0:
            raise SimulationError(
                f"workers must be >= 0 (0 means all cores), got {self.workers}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise SimulationError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.checkpoint_every < 1:
            raise SimulationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )

    @property
    def resolved_workers(self) -> int:
        """Worker-process count with ``0`` resolved to the core count."""
        if self.workers == 0:
            return os.cpu_count() or 1
        return self.workers


# ----------------------------------------------------------------------
# Trial execution — module-level so worker processes can run it.
# ----------------------------------------------------------------------


def _run_trial(
    architecture: SOSArchitecture,
    attack: Attack,
    config: MonteCarloConfig,
    network: OverlayNetwork,
    attacker: Any,
    rng: np.random.Generator,
) -> Tuple[float, Dict[int, int]]:
    """Deploy, attack, and measure one trial on its own RNG stream."""
    deployment = SOSDeployment.deploy(architecture, network=network, rng=rng)
    _inject_churn(config, deployment, rng)
    attacker.execute(deployment, attack, rng=rng)
    success = _client_success(config, deployment, rng)
    return success, deployment.bad_counts()


def _inject_churn(
    config: MonteCarloConfig, deployment: SOSDeployment, rng: np.random.Generator
) -> None:
    """Benignly crash a nested fraction of the SOS membership.

    A full permutation is drawn whenever churn is enabled, so runs
    differing only in ``churn_fraction`` consume identical RNG draws
    and crash *nested* node sets — that is what makes ``P_S``
    monotone in the churn level under a fixed seed.
    """
    if config.churn_fraction <= 0.0:
        return
    members = deployment.sos_member_array()
    order = rng.permutation(len(members))
    count = int(round(config.churn_fraction * len(members)))
    store = deployment.network.store
    rows = store.rows_of(members[order[:count]])
    # A crash takes down GOOD nodes only, as ``OverlayNode.crash`` does.
    store.set_health_many(rows[store.health[rows] == HEALTH_GOOD], HEALTH_CRASHED)


def _client_success(
    config: MonteCarloConfig, deployment: SOSDeployment, rng: np.random.Generator
) -> float:
    """Fraction of sampled clients that reach the target this trial."""
    protocol = SOSProtocol(deployment)
    hits = 0
    for _ in range(config.clients_per_trial):
        contacts = deployment.sample_client_contacts(rng)
        if config.metric == "forward":
            receipt = protocol.send(
                "mc-client", "mc-target", contacts=contacts, rng=rng
            )
            hits += int(receipt.delivered)
        else:
            hits += int(protocol.path_exists(contacts))
    return hits / config.clients_per_trial


#: Per-worker-process state installed by :func:`_init_worker`. The overlay
#: population is rebuilt once per worker from the campaign's network seed,
#: so every worker sees the identical structure the serial path builds.
_WORKER_STATE: Dict[str, Any] = {}


def _init_worker(
    architecture: SOSArchitecture,
    attack: Attack,
    config: MonteCarloConfig,
    network_seed: np.random.SeedSequence,
    attacker: Any,
) -> None:
    _WORKER_STATE["architecture"] = architecture
    _WORKER_STATE["attack"] = attack
    _WORKER_STATE["config"] = config
    _WORKER_STATE["attacker"] = attacker
    _WORKER_STATE["network"] = OverlayNetwork(
        architecture.total_overlay_nodes, rng=make_rng(network_seed)
    )


def _run_trial_chunk(jobs: List[TrialJob]) -> List[TrialOutcome]:
    """Run a chunk of trials inside a worker process.

    With error isolation on, a failing trial becomes an error outcome;
    with it off, the original exception propagates through the future
    and aborts the campaign exactly like the serial path.
    """
    architecture = _WORKER_STATE["architecture"]
    attack = _WORKER_STATE["attack"]
    config: MonteCarloConfig = _WORKER_STATE["config"]
    network = _WORKER_STATE["network"]
    attacker = _WORKER_STATE["attacker"]
    outcomes: List[TrialOutcome] = []
    for trial, seed in jobs:
        rng = make_rng(seed)
        try:
            success, per_layer_bad = _run_trial(
                architecture, attack, config, network, attacker, rng
            )
        except Exception as exc:  # noqa: BLE001 — per-trial isolation
            if not config.error_isolation:
                raise
            outcomes.append((trial, None, None, f"{type(exc).__name__}: {exc}"))
            continue
        outcomes.append((trial, success, per_layer_bad, None))
    return outcomes


class MonteCarloEstimator:
    """Estimates ``P_S`` by repeated deployment + attack + routing."""

    def __init__(self, config: MonteCarloConfig = MonteCarloConfig()) -> None:
        self.config = config
        self._attacker = IntelligentAttacker()
        #: ``(trial_index, error)`` pairs isolated during the last estimate.
        self.last_failures: List[Tuple[int, str]] = []

    def _checkpoint_for(
        self, architecture: SOSArchitecture, attack: Attack
    ) -> Optional[CampaignCheckpoint]:
        if self.config.checkpoint_path is None:
            return None
        # Execution knobs (workers, chunking, checkpoint cadence) stay out
        # of the fingerprint: a checkpoint resumes under any of them.
        payload = {
            "architecture": repr(architecture),
            "attack": repr(attack),
            "trials": self.config.trials,
            "clients_per_trial": self.config.clients_per_trial,
            "metric": self.config.metric,
            "seed": self.config.seed,
            "churn_fraction": self.config.churn_fraction,
        }
        return CampaignCheckpoint.load_or_create(
            self.config.checkpoint_path, fingerprint(payload)
        )

    def estimate(
        self,
        architecture: SOSArchitecture,
        attack: Attack,
        abort_check: Optional[Callable[[], bool]] = None,
    ) -> PsEstimate:
        """Run the configured number of trials and summarize.

        Failing trials are isolated (recorded, excluded from aggregates)
        rather than fatal; with a checkpoint, completed trials are loaded
        instead of re-run and previously *failed* trials are retried on
        their original RNG streams. With ``workers > 1`` pending trials
        are dispatched over a process pool; because trial streams are
        pre-spawned here in trial order and results are aggregated in
        trial order, the estimate is bit-identical to the serial path.

        ``abort_check`` makes the campaign cooperatively cancellable: it
        is polled between trials (serial) or completed chunks (parallel),
        and when it returns True the run flushes every completed trial to
        the checkpoint and raises
        :class:`~repro.errors.CampaignInterrupted`. A later ``estimate``
        with the same checkpoint resumes the remaining trials on their
        original RNG streams, so the final aggregates stay bit-identical
        to an uninterrupted run.
        """
        config = self.config
        factory = SeedSequenceFactory(config.seed)
        # Stream 0 seeds the reusable overlay population; streams 1..T are
        # the per-trial streams, spawned unconditionally and in order so
        # that skipped (checkpointed) trials leave later streams unchanged
        # and every worker replays exactly the serial draws.
        network_seed = factory.spawn()
        trial_seeds = [factory.spawn() for _ in range(config.trials)]

        checkpoint = self._checkpoint_for(architecture, attack)
        results: Dict[int, Tuple[float, Dict[int, int]]] = {}
        pending: List[TrialJob] = []
        for trial in range(config.trials):
            record = checkpoint.completed(trial) if checkpoint is not None else None
            if record is not None:
                results[trial] = (
                    float(record["p"]),
                    {int(layer): count for layer, count in record["bad"].items()},
                )
            else:
                pending.append((trial, trial_seeds[trial]))

        self.last_failures = []
        dirty = 0
        try:
            if pending:
                if config.resolved_workers > 1:
                    outcomes = self._run_parallel(
                        architecture, attack, network_seed, pending, abort_check
                    )
                else:
                    outcomes = self._run_serial(
                        architecture, attack, network_seed, pending, abort_check
                    )
                for trial, success, per_layer_bad, error in outcomes:
                    if error is not None or success is None or per_layer_bad is None:
                        self.last_failures.append((trial, error or "unknown error"))
                        if checkpoint is not None:
                            checkpoint.record_failure(trial, error or "unknown error")
                            dirty += 1
                    else:
                        results[trial] = (success, per_layer_bad)
                        if checkpoint is not None:
                            checkpoint.record_success(trial, success, per_layer_bad)
                            dirty += 1
                    if checkpoint is not None and dirty >= config.checkpoint_every:
                        checkpoint.save()
                        dirty = 0
        finally:
            # Flush the tail batch — also on an interrupting exception, so
            # a killed campaign never loses more than the in-flight batch.
            if checkpoint is not None and dirty > 0:
                checkpoint.save()

        # Parallel chunks complete out of order; sorting restores trial
        # order so the aggregation consumes values exactly like serial.
        self.last_failures.sort()
        if not results:
            raise SimulationError(
                f"all {config.trials} trials failed; first error: "
                f"{self.last_failures[0][1]}"
            )
        ordered = sorted(results)
        return summarize_indicators(
            [results[trial][0] for trial in ordered],
            [results[trial][1] for trial in ordered],
            failed_trials=len(self.last_failures),
        )

    def _run_serial(
        self,
        architecture: SOSArchitecture,
        attack: Attack,
        network_seed: np.random.SeedSequence,
        jobs: List[TrialJob],
        abort_check: Optional[Callable[[], bool]] = None,
    ) -> Iterator[TrialOutcome]:
        """Run pending trials in-process, yielding outcomes in order."""
        # One overlay population reused across trials; deploy() rewires
        # roles and neighbor tables per trial, so trials stay independent
        # in everything the model cares about.
        network = OverlayNetwork(
            architecture.total_overlay_nodes, rng=make_rng(network_seed)
        )
        for trial, seed in jobs:
            if abort_check is not None and abort_check():
                raise CampaignInterrupted(
                    f"campaign aborted before trial {trial} "
                    f"({len(jobs)} were pending); completed trials are "
                    "checkpointed and resumable"
                )
            rng = make_rng(seed)
            try:
                success, per_layer_bad = _run_trial(
                    architecture, attack, self.config, network, self._attacker, rng
                )
            except Exception as exc:  # noqa: BLE001 — per-trial isolation
                if not self.config.error_isolation:
                    raise
                yield trial, None, None, f"{type(exc).__name__}: {exc}"
                continue
            yield trial, success, per_layer_bad, None

    def _run_parallel(
        self,
        architecture: SOSArchitecture,
        attack: Attack,
        network_seed: np.random.SeedSequence,
        jobs: List[TrialJob],
        abort_check: Optional[Callable[[], bool]] = None,
    ) -> Iterator[TrialOutcome]:
        """Dispatch pending trials over a process pool in chunks.

        The attacker travels to each worker by pickling (so injected test
        doubles keep working); chunks default to ~4 tasks per worker to
        amortize task overhead while keeping the pool busy. Cancellation
        granularity is one chunk: ``abort_check`` is polled between
        completed chunks, and an abort cancels every not-yet-started
        chunk before raising.
        """
        workers = self.config.resolved_workers
        chunk = self.config.chunk_size or max(
            1, math.ceil(len(jobs) / (workers * 4))
        )
        chunks = [jobs[i : i + chunk] for i in range(0, len(jobs), chunk)]
        # Load the C library and run the sampler's self-check here, so
        # forked workers inherit both instead of each paying for them.
        choice_sampler()
        with ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)),
            initializer=_init_worker,
            initargs=(architecture, attack, self.config, network_seed, self._attacker),
        ) as pool:
            futures = [pool.submit(_run_trial_chunk, part) for part in chunks]
            for future in as_completed(futures):
                if abort_check is not None and abort_check():
                    for pending_future in futures:
                        pending_future.cancel()
                    raise CampaignInterrupted(
                        "campaign aborted between parallel chunks; "
                        "completed trials are checkpointed and resumable"
                    )
                for outcome in future.result():
                    yield outcome


def estimate_ps(
    architecture: SOSArchitecture,
    attack: Attack,
    trials: int = 200,
    clients_per_trial: int = 5,
    metric: str = "forward",
    seed: Optional[int] = None,
    churn_fraction: float = 0.0,
    checkpoint_path: Optional[str] = None,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    checkpoint_every: int = 32,
) -> PsEstimate:
    """Convenience wrapper around :class:`MonteCarloEstimator`.

    Examples
    --------
    >>> from repro.core import SOSArchitecture, OneBurstAttack
    >>> arch = SOSArchitecture(layers=2, mapping="one-to-half",
    ...                        total_overlay_nodes=1000, sos_nodes=40)
    >>> result = estimate_ps(arch, OneBurstAttack(break_in_budget=20,
    ...                                           congestion_budget=200),
    ...                      trials=20, seed=1)
    >>> 0.0 <= result.mean <= 1.0
    True
    """
    config = MonteCarloConfig(
        trials=trials,
        clients_per_trial=clients_per_trial,
        metric=metric,
        seed=seed,
        churn_fraction=churn_fraction,
        checkpoint_path=checkpoint_path,
        workers=workers,
        chunk_size=chunk_size,
        checkpoint_every=checkpoint_every,
    )
    return MonteCarloEstimator(config).estimate(architecture, attack)
