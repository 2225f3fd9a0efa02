"""Average-case analysis of the successive attack with inter-round repair.

Complements the Monte Carlo estimator (:mod:`repro.repair.estimator`) with
a closed-form approximation in the spirit of the paper's §3 derivation:
after each break-in round, the defender detects and repairs each bad node
independently with probability ``rho`` and the attacker's stale knowledge
of repaired nodes is discounted the same way. The model runs Algorithm 1's
own round loop, so it lives in :mod:`repro.core.successive` next to it;
this module is its home in the repair package.

With ``rho = 0`` it reduces exactly to
:func:`repro.core.successive.analyze_successive`:

>>> from repro.core import SOSArchitecture, SuccessiveAttack, evaluate
>>> arch = SOSArchitecture(layers=4, mapping="one-to-two")
>>> attack = SuccessiveAttack(rounds=3)
>>> analyze_successive_with_repair(arch, attack, 0.0).p_s == evaluate(arch, attack).p_s
True
"""

from repro.core.successive import analyze_successive_with_repair

__all__ = ["analyze_successive_with_repair"]
