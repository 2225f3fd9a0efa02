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
trial order, and :func:`repro.perf.parallel.parallel_map` runs them
in-process or over a process pool (``MonteCarloConfig.workers``) and
hands results back in trial order, so aggregates are **bit-identical**
for any worker count. See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.attacks.attacker import IntelligentAttacker
from repro.core.architecture import SOSArchitecture
from repro.core.attack_models import OneBurstAttack, SuccessiveAttack
from repro.errors import SimulationError
from repro.overlay.arrays import HEALTH_CRASHED, HEALTH_GOOD
from repro.overlay.network import OverlayNetwork
from repro.perf.compiled import choice_sampler
from repro.perf.parallel import Job, check_count, parallel_map
from repro.resilience.checkpoint import CampaignCheckpoint, fingerprint
from repro.simulation.results import PsEstimate, summarize_indicators
from repro.sos.deployment import SOSDeployment
from repro.sos.protocol import SOSProtocol
from repro.utils.seeding import SeedSequenceFactory, make_rng

Attack = Union[OneBurstAttack, SuccessiveAttack]

#: ``(trial_index, success, per_layer_bad, error)`` — exactly one of the
#: result pair / error string is populated.
TrialOutcome = Tuple[int, Optional[float], Optional[Dict[int, int]], Optional[str]]

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

    ``trials``, ``clients_per_trial``, ``workers`` and
    ``checkpoint_every`` must be ints (not bools); ``trials`` is capped at
    :data:`MAX_TRIALS`.

    ``workers`` is the process count handed to
    :func:`repro.perf.parallel.parallel_map` (``1`` runs in-process,
    ``0`` means "all cores"); results are bit-identical to ``workers=1``
    because every trial's RNG stream is pre-spawned in the parent.
    ``checkpoint_every`` batches checkpoint writes
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
    checkpoint_every: int = 32

    def __post_init__(self) -> None:
        check_count("trials", self.trials, minimum=1)
        check_count("clients_per_trial", self.clients_per_trial, minimum=1)
        check_count("workers", self.workers)
        check_count("checkpoint_every", self.checkpoint_every, minimum=1)
        if self.trials > MAX_TRIALS:
            raise SimulationError(
                f"trials must be in [1, {MAX_TRIALS}], got {self.trials}"
            )
        if self.metric not in ("forward", "reachability"):
            raise SimulationError(
                f"metric must be 'forward' or 'reachability', got {self.metric!r}"
            )
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise SimulationError(
                f"churn_fraction must be in [0, 1], got {self.churn_fraction}"
            )


# ----------------------------------------------------------------------
# Trial execution — module-level so worker processes can run it.
# ----------------------------------------------------------------------


class _Trials(NamedTuple):
    """What every trial of one estimate reads; built once per process."""

    architecture: SOSArchitecture
    attack: Attack
    config: MonteCarloConfig
    attacker: Any
    network: OverlayNetwork


def _setup_trials(
    architecture: SOSArchitecture,
    attack: Attack,
    config: MonteCarloConfig,
    attacker: Any,
    network_seed: np.random.SeedSequence,
) -> _Trials:
    """Build the shared trial state. Every process rebuilds the one
    overlay population from the network seed, so all of them see the
    structure a serial run builds; ``deploy()`` rewires roles and neighbor
    tables per trial, so trials stay independent in everything the model
    cares about."""
    network = OverlayNetwork(
        architecture.total_overlay_nodes, rng=make_rng(network_seed)
    )
    return _Trials(architecture, attack, config, attacker, network)


def _run_trial(state: _Trials, job: Job) -> TrialOutcome:
    """Deploy, attack, and measure one trial on its own RNG stream.

    With error isolation on, a failing trial becomes an error outcome;
    with it off, the exception propagates and ends the estimate.
    """
    trial, seed = job
    rng = make_rng(seed)
    try:
        deployment = SOSDeployment.deploy(
            state.architecture, network=state.network, rng=rng
        )
        _inject_churn(state.config, deployment, rng)
        state.attacker.execute(deployment, state.attack, rng=rng)
        success = _client_success(state.config, deployment, rng)
        per_layer_bad = deployment.bad_counts()
    except Exception as exc:  # noqa: BLE001 — per-trial isolation
        if not state.config.error_isolation:
            raise
        return trial, None, None, f"{type(exc).__name__}: {exc}"
    return trial, success, per_layer_bad, None


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
        # Execution knobs (workers, checkpoint cadence) stay out
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
        their original RNG streams. Pending trials run through
        :func:`~repro.perf.parallel.parallel_map`; because trial streams
        are pre-spawned here in trial order and outcomes come back in
        trial order, the estimate is bit-identical for any ``workers``.

        ``abort_check`` makes the campaign cooperatively cancellable: it
        is polled between trials (in-process) or chunks (pool), and when
        it returns True the run flushes every completed trial to the
        checkpoint and raises
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
        pending: List[Job] = []
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
                # Load the C library and run the sampler's self-check here,
                # so forked workers inherit both instead of each paying.
                choice_sampler()
                outcomes = parallel_map(
                    pending,
                    _run_trial,
                    config.workers,
                    _setup_trials,
                    (architecture, attack, config, self._attacker, network_seed),
                    abort_check,
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
        checkpoint_every=checkpoint_every,
    )
    return MonteCarloEstimator(config).estimate(architecture, attack)
