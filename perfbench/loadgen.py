"""Due-time open-loop load generator for the service workload.

Request ``i`` is due at ``start + i / rate`` whatever happened to earlier
requests (independent users make an open loop). Latency is timed from
the due instant, not the send instant, so a stall in the server — or in
this generator — is charged to every request it delays; how late the
generator actually sent is reported separately as its lag.

At most ``connections`` requests are in flight. Each goes out through the
service's own client, :func:`repro.service.http.http_request`, on a fresh
connection. A transport error, a non-200 answer or an answer slower than
the limit counts as failed.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ServiceError
from repro.service.http import http_request

#: What a failed round trip raises (``asyncio.TimeoutError`` is an OSError).
TRANSPORT_ERRORS = (OSError, asyncio.IncompleteReadError, ValueError, ServiceError)


class Record:
    """Outcome of one generated request (times are perf_counter seconds)."""

    __slots__ = ("index", "due", "sent", "done", "status", "body", "error")

    def __init__(self, index: int, due: float) -> None:
        self.index = index
        self.due = due
        self.sent = due
        self.done = due
        self.status = 0
        self.body: Dict[str, Any] = {}
        self.error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


async def open_loop(
    host: str,
    port: int,
    payloads: Sequence[Dict[str, Any]],
    rate: float,
    connections: int,
    on_done: Callable[[Record], None],
) -> List[Record]:
    """Send ``payloads`` to ``POST /eval`` at ``rate`` per second;
    ``on_done`` sees each record as its answer arrives."""
    in_flight = asyncio.Semaphore(connections)
    records: List[Record] = []
    tasks: List[asyncio.Task] = []

    async def send(record: Record, payload: Dict[str, Any]) -> None:
        try:
            record.status, _, record.body = await http_request(
                host, port, "POST", "/eval", payload
            )
        except TRANSPORT_ERRORS as exc:
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            record.done = time.perf_counter()
            in_flight.release()
            on_done(record)

    start = time.perf_counter() + 0.01
    for index, payload in enumerate(payloads):
        record = Record(index, start + index / rate)
        records.append(record)
        delay = record.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await in_flight.acquire()
        record.sent = time.perf_counter()
        tasks.append(asyncio.create_task(send(record, payload)))
    await asyncio.gather(*tasks)
    return records
