"""Crash-tolerant campaign state: JSON checkpoint and resume.

A long Monte-Carlo campaign should survive both a failing trial and a
dying process. :class:`CampaignCheckpoint` persists per-trial outcomes
(success fraction + per-layer bad counts, or the error that killed the
trial) keyed by trial index, plus a fingerprint of the experiment
configuration so a checkpoint can never be resumed against different
parameters.

Because every trial draws from its own
:class:`~repro.utils.seeding.SeedSequenceFactory` stream, a resumed run
replays the *exact* streams of the trials it skips or retries — resuming
an interrupted campaign yields bit-identical aggregates to an
uninterrupted run with the same seed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import warnings
from typing import Any, Dict, Optional

from repro.errors import SimulationError

_FORMAT_VERSION = 1

_LOG = logging.getLogger(__name__)


def fingerprint(payload: Dict[str, Any]) -> str:
    """Stable hash of an experiment configuration dictionary."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _checked_record(record: Any) -> Dict[str, Any]:
    """Return ``record`` when it has a trial record's shape, else raise
    ``ValueError``: a success needs ``p`` finite in [0, 1] and ``bad``
    mapping integer layers to non-negative counts; a failure needs a
    string ``error``."""
    if not isinstance(record, dict):
        raise ValueError(f"trial record is not an object: {record!r}")
    if "error" in record:
        if not isinstance(record["error"], str):
            raise ValueError(f"trial error is not a string: {record!r}")
        return record
    p, bad = record.get("p"), record.get("bad")
    if (
        isinstance(p, bool)
        or not isinstance(p, (int, float))
        or not (math.isfinite(p) and 0.0 <= p <= 1.0)
    ):
        raise ValueError(f"trial p is not a probability: {record!r}")
    if not isinstance(bad, dict) or not all(
        isinstance(layer, str)
        and layer.isascii()
        and layer.isdigit()
        and isinstance(count, int)
        and not isinstance(count, bool)
        and count >= 0
        for layer, count in bad.items()
    ):
        raise ValueError(f"trial bad counts are malformed: {record!r}")
    return record


class CampaignCheckpoint:
    """Per-trial campaign state persisted as one JSON file.

    Trial records are either ``{"p": float, "bad": {layer: count}}`` for a
    completed trial or ``{"error": str}`` for a failed one; failed trials
    are retried on resume (their RNG streams are reproducible, so a
    transient failure heals without skewing the estimate).
    """

    def __init__(self, path: str, config_fingerprint: str) -> None:
        self.path = path
        self.config_fingerprint = config_fingerprint
        self.trials: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @classmethod
    def load_or_create(
        cls, path: str, config_fingerprint: str
    ) -> "CampaignCheckpoint":
        """Resume from ``path`` when compatible, else start fresh.

        A checkpoint written under a *different* configuration raises
        :class:`SimulationError` rather than silently mixing results.

        A checkpoint that cannot be *parsed* — truncated by a crash that
        beat the atomic rename of a prior format, a disk-full partial
        write, stray bytes, a trial record of the wrong shape — is not
        fatal: the bad file is quarantined to ``<path>.corrupt`` and the
        campaign starts fresh with a degraded-coverage warning. Losing checkpointed trials only costs
        recomputation; per-trial RNG streams keep the rerun bit-identical.
        """
        checkpoint = cls(path, config_fingerprint)
        if not os.path.exists(path):
            return checkpoint
        try:
            with open(path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
            trials = {
                int(index): _checked_record(record)
                for index, record in state["trials"].items()
            }
        except (
            json.JSONDecodeError,
            UnicodeDecodeError,
            KeyError,
            TypeError,
            ValueError,
            AttributeError,
        ) as exc:
            cls._quarantine(path, exc)
            return checkpoint
        if state.get("fingerprint") != config_fingerprint:
            raise SimulationError(
                f"checkpoint {path} was written by a different experiment "
                f"configuration (fingerprint {state.get('fingerprint')!r} != "
                f"{config_fingerprint!r}); delete it or change the path"
            )
        checkpoint.trials = trials
        return checkpoint

    @staticmethod
    def _quarantine(path: str, cause: Exception) -> None:
        """Move an unparseable checkpoint aside and warn about coverage."""
        quarantine_path = f"{path}.corrupt"
        try:
            os.replace(path, quarantine_path)
        except OSError:
            # Quarantine is best-effort: if even the rename fails the next
            # save() will overwrite the bad file atomically anyway.
            quarantine_path = "<unmovable>"
        message = (
            f"checkpoint {path} is corrupt ({type(cause).__name__}: {cause}); "
            f"quarantined to {quarantine_path} and starting fresh — "
            "previously checkpointed trials will be recomputed (degraded "
            "coverage until the campaign catches back up)"
        )
        _LOG.warning(message)
        warnings.warn(message, RuntimeWarning, stacklevel=4)

    def save(self) -> None:
        """Atomically persist current state (write temp file, then rename)."""
        state = {
            "version": _FORMAT_VERSION,
            "fingerprint": self.config_fingerprint,
            "trials": {
                str(index): record for index, record in sorted(self.trials.items())
            },
        }
        temp_path = f"{self.path}.tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(state, handle)
        os.replace(temp_path, self.path)

    # ------------------------------------------------------------------
    # Trial bookkeeping
    # ------------------------------------------------------------------
    def record_success(
        self, trial: int, p: float, bad_counts: Dict[int, int]
    ) -> None:
        self.trials[trial] = {
            "p": p,
            "bad": {str(layer): count for layer, count in bad_counts.items()},
        }

    def record_failure(self, trial: int, error: str) -> None:
        self.trials[trial] = {"error": error}

    def completed(self, trial: int) -> Optional[Dict[str, Any]]:
        """The stored success record for ``trial``, or None.

        Failed trials return None so the estimator retries them.
        """
        record = self.trials.get(trial)
        if record is None or "error" in record:
            return None
        return record

    @property
    def failed_trials(self) -> Dict[int, str]:
        return {
            trial: record["error"]
            for trial, record in sorted(self.trials.items())
            if "error" in record
        }
