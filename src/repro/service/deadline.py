"""Per-request deadlines with cooperative propagation.

A deadline is an absolute point on the monotonic clock, carried with a
request from admission through queueing, dispatch, and into the worker
process (as a remaining-seconds budget, since monotonic clocks do not
compare across processes). Every stage consults the same object:

* admission refuses requests whose deadline already passed (instant 504,
  the queue never wastes a slot on dead work);
* the dispatcher drops queued requests that expired while waiting;
* the worker receives ``remaining()`` at dispatch time and aborts its
  campaign/evaluation cooperatively when the budget runs out;
* the parent enforces a hard stop at ``remaining() + grace`` — a wedged
  worker is killed and respawned rather than allowed to hold a request
  past its promise.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Any, Callable, Optional

from repro.errors import ServiceError

#: Extra seconds the parent waits past a deadline for the worker's own
#: cooperative abort to land before escalating to a kill.
DEFAULT_GRACE = 0.5


@dataclasses.dataclass(frozen=True)
class Deadline:
    """An absolute monotonic-clock deadline (or None = unbounded).

    Construct with :meth:`after` / :meth:`from_timeout_ms`; the raw
    constructor takes an absolute monotonic timestamp.
    """

    at: Optional[float]
    clock: Callable[[], float] = time.monotonic

    @classmethod
    def after(
        cls,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """Deadline ``seconds`` from now; None means unbounded."""
        if seconds is None:
            return cls(at=None, clock=clock)
        if not 0 < seconds < math.inf:
            raise ServiceError(
                f"deadline must be finite and > 0 seconds, got {seconds}"
            )
        return cls(at=clock() + seconds, clock=clock)

    @classmethod
    def from_timeout_ms(
        cls,
        timeout_ms: Any,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """Deadline from a client-supplied millisecond budget.

        The one parser of a client's budget (a JSON ``deadline_ms`` or an
        ``X-Deadline-Ms`` header): a number or numeric string, finite
        and > 0; anything else raises :class:`ServiceError`.
        """
        if timeout_ms is None:
            return cls(at=None, clock=clock)
        milliseconds = math.nan
        if isinstance(timeout_ms, (int, float, str)) and not isinstance(
            timeout_ms, bool
        ):
            try:
                milliseconds = float(timeout_ms)
            except (ValueError, OverflowError):
                pass
        if not 0 < milliseconds < math.inf:
            raise ServiceError(
                "deadline_ms must be a finite number of milliseconds > 0, "
                f"got {timeout_ms!r}"
            )
        return cls.after(milliseconds / 1000.0, clock=clock)

    def remaining(self) -> Optional[float]:
        """Seconds left (may be negative once expired); None if unbounded."""
        if self.at is None:
            return None
        return self.at - self.clock()

    @property
    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def clamp(self, seconds: float) -> float:
        """``seconds`` clipped so it never exceeds the remaining budget."""
        remaining = self.remaining()
        if remaining is None:
            return seconds
        return max(0.0, min(seconds, remaining))


#: The unbounded deadline (batch jobs that may run as long as they need).
NO_DEADLINE = Deadline(at=None)
