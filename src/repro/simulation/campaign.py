"""Campaign simulation: the attack/repair race on a simulated clock.

The analytical model collapses the whole engagement into one number. This
module replays it in time: break-in rounds land at a configurable cadence,
the congestion phase fires when the break-in budget is spent, the defender
scans periodically, and a measurement process probes client success
throughout — producing the ``P_S(t)`` trajectory of the engagement.

Built on :class:`~repro.simulation.engine.EventScheduler`; each attack
round is one :func:`~repro.attacks.strategies.break_in_round` event — the
step :class:`~repro.attacks.strategies.SuccessiveStrategy` loops over — so
the campaign's endpoint matches the one-shot executable attack.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.attacks.knowledge import AttackerKnowledge
from repro.attacks.strategies import (
    _congestion_phase,
    break_in_round,
    even_quotas,
    learn_prior_knowledge,
)
from repro.core.architecture import SOSArchitecture
from repro.core.attack_models import SuccessiveAttack
from repro.errors import SimulationError
from repro.perf.compiled import NumpyKernels
from repro.repair.defender import RepairingDefender
from repro.repair.policy import NO_REPAIR, RepairPolicy
from repro.resilience.detector import DetectorConfig, FailureDetector
from repro.resilience.faults import ZERO_CHURN, FaultInjector, FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.simulation.engine import EventScheduler
from repro.sos.deployment import SOSDeployment
from repro.sos.protocol import SOSProtocol
from repro.utils.seeding import SeedLike, SeedSequenceFactory


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Timing of the engagement."""

    round_interval: float = 10.0  # time between break-in rounds
    repair_interval: float = 4.0  # time between defender scans
    probe_interval: float = 1.0  # time between P_S measurements
    probes_per_sample: int = 25  # client attempts per measurement
    cooldown: float = 30.0  # observation time after the congestion phase

    def __post_init__(self) -> None:
        for name in ("round_interval", "repair_interval", "probe_interval"):
            if getattr(self, name) <= 0:
                raise SimulationError(f"{name} must be > 0")
        if self.probes_per_sample < 1:
            raise SimulationError("probes_per_sample must be >= 1")
        if self.cooldown < 0:
            raise SimulationError("cooldown must be >= 0")


@dataclasses.dataclass(frozen=True)
class CampaignReport:
    """Time series produced by one campaign run.

    ``crashes_injected`` / ``benign_recoveries`` count fault-injector
    activity (0 without churn); ``false_alarms`` counts healthy nodes the
    failure detector flagged (0 without a detector). ``p_s_mean`` /
    ``p_s_variance`` summarize the measured ``P_S`` series with a
    streaming Welford fold (empty series: 1.0 / 0.0).
    """

    times: Tuple[float, ...]
    p_s: Tuple[float, ...]
    round_times: Tuple[float, ...]
    congestion_time: float
    repairs_total: int
    crashes_injected: int = 0
    benign_recoveries: int = 0
    false_alarms: int = 0
    p_s_mean: float = 1.0
    p_s_variance: float = 0.0

    @property
    def minimum(self) -> float:
        return min(self.p_s) if self.p_s else 1.0

    @property
    def final(self) -> float:
        return self.p_s[-1] if self.p_s else 1.0


class CampaignSimulation:
    """One engagement: successive attack vs periodic repair, over time."""

    def __init__(
        self,
        architecture: SOSArchitecture,
        attack: SuccessiveAttack,
        repair_policy: RepairPolicy = NO_REPAIR,
        config: CampaignConfig = CampaignConfig(),
        seed: SeedLike = None,
        fault_plan: FaultPlan = ZERO_CHURN,
        detector_config: Optional[DetectorConfig] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.architecture = architecture
        self.attack = attack
        self.config = config
        factory = SeedSequenceFactory(seed)
        self._rng = factory.generator()
        self.deployment = SOSDeployment.deploy(architecture, rng=factory.generator())
        self.protocol = SOSProtocol(self.deployment)
        defender_rng = factory.generator()
        self.scheduler = EventScheduler()
        # Resilience streams are spawned after the seed's three, so runs
        # without churn/detector stay bit-identical to the seed.
        self.injector = FaultInjector(
            fault_plan, self.deployment, self.scheduler, rng=factory.generator()
        )
        self.detector = (
            FailureDetector(detector_config, rng=factory.generator())
            if detector_config is not None
            else None
        )
        self.retry_policy = retry_policy
        self.defender = RepairingDefender(
            repair_policy, rng=defender_rng, detector=self.detector
        )
        self.knowledge = AttackerKnowledge()

        self._budget = int(round(attack.n_t))
        self._quotas = even_quotas(self._budget, attack.rounds)
        self._round_index = 0
        self._round_times: List[float] = []
        self._congestion_time: float = float("nan")
        self._times: List[float] = []
        self._ps: List[float] = []
        self._done_attacking = False

    # ------------------------------------------------------------------
    # Attack process (Algorithm 1, one round per event)
    # ------------------------------------------------------------------
    def _prior_knowledge_phase(self) -> None:
        learn_prior_knowledge(
            self.deployment, self.knowledge, self.attack.p_e, self._rng
        )

    def _attack_round(self) -> None:
        if self._done_attacking:
            return
        self._round_index += 1
        self._round_times.append(self.scheduler.now)
        _, self._budget, stop = break_in_round(
            self.deployment,
            self.knowledge,
            self._quotas[self._round_index - 1],
            self._budget,
            self.attack.p_b,
            self._rng,
        )
        if stop or self._budget <= 0 or self._round_index >= self.attack.rounds:
            self._done_attacking = True
            self.scheduler.schedule_after(
                self.config.round_interval, self._congestion_phase_event
            )
        else:
            self.scheduler.schedule_after(
                self.config.round_interval, self._attack_round
            )

    def _congestion_phase_event(self) -> None:
        self._congestion_time = self.scheduler.now
        _congestion_phase(
            self.deployment,
            self.knowledge,
            int(round(self.attack.n_c)),
            self._rng,
        )

    # ------------------------------------------------------------------
    # Defender and measurement processes
    # ------------------------------------------------------------------
    def _repair_scan(self, horizon: float) -> None:
        self.defender.scan_and_repair(
            self.deployment, self.knowledge, now=self.scheduler.now
        )
        if self.scheduler.now + self.config.repair_interval <= horizon:
            self.scheduler.schedule_after(
                self.config.repair_interval, lambda: self._repair_scan(horizon)
            )

    def _probe(self, horizon: float) -> None:
        hits = 0
        for _ in range(self.config.probes_per_sample):
            contacts = self.deployment.sample_client_contacts(self._rng)
            receipt = self.protocol.send(
                "probe",
                "target",
                contacts=contacts,
                rng=self._rng,
                retry_policy=self.retry_policy,
            )
            hits += int(receipt.delivered)
        self._times.append(self.scheduler.now)
        self._ps.append(hits / self.config.probes_per_sample)
        if self.scheduler.now + self.config.probe_interval <= horizon:
            self.scheduler.schedule_after(
                self.config.probe_interval, lambda: self._probe(horizon)
            )

    def _fold_p_s(self) -> Tuple[float, float]:
        """Welford mean/variance of the ``P_S`` series."""
        if not self._ps:
            return 1.0, 0.0
        count, mean, m2, _ = NumpyKernels.welford(
            np.asarray(self._ps, dtype=np.float64), 0, 0.0, 0.0, float("-inf")
        )
        return mean, m2 / float(count)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> CampaignReport:
        """Execute the engagement; returns the measured trajectory."""
        horizon = (
            self.config.round_interval * (self.attack.rounds + 1)
            + self.config.cooldown
        )
        self._prior_knowledge_phase()
        self.scheduler.schedule_at(0.0, lambda: self._probe(horizon))
        self.scheduler.schedule_after(self.config.round_interval, self._attack_round)
        if not self.defender.policy.is_noop:
            self.scheduler.schedule_after(
                self.config.repair_interval, lambda: self._repair_scan(horizon)
            )
        self.injector.install(horizon)
        self.scheduler.run(until=horizon)
        p_s_mean, p_s_variance = self._fold_p_s()
        return CampaignReport(
            times=tuple(self._times),
            p_s=tuple(self._ps),
            round_times=tuple(self._round_times),
            congestion_time=self._congestion_time,
            repairs_total=self.defender.total_repaired,
            crashes_injected=self.injector.crashes_injected,
            benign_recoveries=self.injector.recoveries,
            false_alarms=(
                self.detector.false_alarms if self.detector is not None else 0
            ),
            p_s_mean=p_s_mean,
            p_s_variance=p_s_variance,
        )


def run_campaign(
    architecture: SOSArchitecture,
    attack: SuccessiveAttack,
    repair_policy: RepairPolicy = NO_REPAIR,
    config: CampaignConfig = CampaignConfig(),
    seed: Optional[int] = None,
    fault_plan: FaultPlan = ZERO_CHURN,
    detector_config: Optional[DetectorConfig] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> CampaignReport:
    """Convenience wrapper: build and run one :class:`CampaignSimulation`."""
    return CampaignSimulation(
        architecture,
        attack,
        repair_policy,
        config,
        seed,
        fault_plan=fault_plan,
        detector_config=detector_config,
        retry_policy=retry_policy,
    ).run()
