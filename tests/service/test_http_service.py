"""End-to-end HTTP service tests over a real ephemeral TCP port."""

from __future__ import annotations

import asyncio

from repro.resilience.breaker import BreakerConfig
from repro.service import (
    HttpServer,
    ServiceConfig,
    SOSEvaluationService,
    http_request,
)

ARCH = {
    "layers": 3,
    "mapping": "one-to-two",
    "total_overlay_nodes": 300,
    "sos_nodes": 30,
}
ATTACK = {"kind": "one-burst", "break_in_budget": 20, "congestion_budget": 50}
EVAL_BODY = {"architecture": ARCH, "attack": ATTACK}


def _config(tmp_path, **overrides):
    defaults = dict(workers=1, spool_dir=str(tmp_path), seed=3)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def _request(server, method, path, body=None, headers=None):
    return await http_request(
        "127.0.0.1", server.port, method, path, body=body, headers=headers,
        timeout=60.0,
    )


class TestBasicEndpoints:
    def test_health_eval_cache_and_errors_on_one_server(self, tmp_path):
        async def scenario():
            server = HttpServer(SOSEvaluationService(_config(tmp_path)))
            async with server:
                status, _h, body = await _request(server, "GET", "/healthz")
                assert (status, body) == (200, {"status": "ok"})

                status, _h, body = await _request(server, "GET", "/readyz")
                assert status == 200
                assert body["ready"] is True

                status, _h, first = await _request(
                    server, "POST", "/eval", body=EVAL_BODY
                )
                assert status == 200
                assert 0.0 <= first["p_s"] <= 1.0
                assert "cached" not in first

                status, _h, second = await _request(
                    server, "POST", "/eval", body=EVAL_BODY
                )
                assert status == 200
                assert second["cached"] is True
                assert second["p_s"] == first["p_s"]

                status, _h, body = await _request(
                    server, "POST", "/eval",
                    body={"architecture": {"bogus": 1}, "attack": ATTACK},
                )
                assert status == 400
                assert "unknown architecture" in body["error"]

                status, _h, body = await _request(server, "GET", "/nope")
                assert status == 404

                status, _h, body = await _request(server, "GET", "/metrics")
                assert status == 200
                assert body["pool"]["live_workers"] == 1
                assert body["queue"]["capacity"] == 64
                assert body["store"]["fresh_hits"] == 1

        asyncio.run(scenario())

    def test_sweep_endpoint(self, tmp_path):
        async def scenario():
            server = HttpServer(SOSEvaluationService(_config(tmp_path)))
            async with server:
                status, _h, body = await _request(
                    server, "POST", "/sweep",
                    body={
                        "layers": [2, 3],
                        "mappings": ["one-to-two"],
                        "total_overlay_nodes": 200,
                        "sos_nodes": 20,
                        "scenarios": {"burst": ATTACK},
                        "top": 3,
                    },
                )
                assert status == 200
                assert body["designs_evaluated"] >= 2
                assert body["scores"]

        asyncio.run(scenario())


class TestBackpressure:
    def test_flood_gets_429_with_retry_after_and_nothing_hangs(self, tmp_path):
        """Tiny queue + slow worker + burst: every request resolves, the
        overflow as 429 with a Retry-After header."""

        async def scenario():
            config = _config(tmp_path, queue_capacity=2)
            service = SOSEvaluationService(config)
            server = HttpServer(service)
            async with server:
                service.set_chaos(latency_ms=300.0)
                bodies = [
                    {
                        "architecture": {**ARCH, "sos_nodes": 10 + i},
                        "attack": ATTACK,
                        "deadline_ms": 30_000,
                    }
                    for i in range(8)
                ]
                results = await asyncio.gather(
                    *(
                        _request(server, "POST", "/eval", body=body)
                        for body in bodies
                    )
                )
                statuses = sorted(status for status, _h, _b in results)
                assert set(statuses) <= {200, 429}
                assert statuses.count(429) >= 1
                assert statuses.count(200) >= 1
                for status, headers, body in results:
                    if status == 429:
                        assert "retry-after" in headers
                        assert float(headers["retry-after"]) >= 1.0
                        assert body["error"] == "overloaded"

        asyncio.run(scenario())


class TestDeadlines:
    def test_deadline_overrun_is_504_not_a_hang(self, tmp_path):
        async def scenario():
            config = _config(tmp_path, deadline_grace=0.3)
            service = SOSEvaluationService(config)
            server = HttpServer(service)
            async with server:
                service.set_chaos(latency_ms=30_000.0)
                status, _h, body = await asyncio.wait_for(
                    _request(
                        server, "POST", "/eval",
                        body={**EVAL_BODY, "deadline_ms": 300},
                    ),
                    timeout=20.0,
                )
                assert status == 504
                assert "error" in body
                # The pool must have recovered a worker for later traffic.
                service.set_chaos()
                for _ in range(50):
                    ready, _h, _b = await _request(server, "GET", "/readyz")
                    if ready == 200:
                        break
                    await asyncio.sleep(0.2)
                assert ready == 200

        asyncio.run(scenario())

    def test_deadline_header_overrides_body(self, tmp_path):
        async def scenario():
            service = SOSEvaluationService(_config(tmp_path))
            server = HttpServer(service)
            async with server:
                service.set_chaos(latency_ms=2_000.0)
                status, _h, _b = await _request(
                    server, "POST", "/eval",
                    body={**EVAL_BODY, "deadline_ms": 60_000},
                    headers={"x-deadline-ms": "200"},
                )
                assert status == 504

        asyncio.run(scenario())


class TestDegradation:
    def test_breaker_opens_and_serves_stale_answers(self, tmp_path):
        async def scenario():
            config = _config(
                tmp_path,
                breaker=BreakerConfig(
                    window=8, failure_threshold=0.5, min_volume=2,
                    reset_timeout=60.0,
                ),
            )
            service = SOSEvaluationService(config)
            server = HttpServer(service)
            async with server:
                # Warm the cache with a healthy answer.
                status, _h, healthy = await _request(
                    server, "POST", "/eval", body=EVAL_BODY
                )
                assert status == 200
                # Make the entry stale so it stops short-circuiting the
                # breaker path, then break the backend.
                service.store.ttl = 0.0
                service.set_chaos(fail="backend down")
                for _ in range(4):
                    status, _h, body = await _request(
                        server, "POST", "/eval", body=EVAL_BODY
                    )
                    # Errors serve the stale cached answer, degraded.
                    assert status == 200
                    assert body.get("degraded") is True
                    assert body["p_s"] == healthy["p_s"]
                assert service.breaker.state == "open"
                # Open breaker + no cache entry -> honest 503.
                status, headers, body = await _request(
                    server, "POST", "/eval",
                    body={
                        "architecture": {**ARCH, "sos_nodes": 99},
                        "attack": ATTACK,
                    },
                )
                assert status == 503
                assert "retry-after" in headers
                # readyz reports not-ready while open (probe still fails).
                status, _h, ready = await _request(server, "GET", "/readyz")
                assert status == 503
                assert ready["ready"] is False

        asyncio.run(scenario())


class TestCampaignsOverHttp:
    def test_submit_poll_complete_and_idempotent_resubmit(self, tmp_path):
        async def scenario():
            server = HttpServer(SOSEvaluationService(_config(tmp_path)))
            async with server:
                campaign = {
                    "architecture": ARCH,
                    "attack": ATTACK,
                    "trials": 8,
                    "clients_per_trial": 4,
                    "seed": 5,
                }
                status, _h, submitted = await _request(
                    server, "POST", "/campaign", body=campaign
                )
                assert status == 202
                campaign_id = submitted["campaign_id"]

                # Same payload resubmitted: same campaign, no duplicate.
                status, _h, again = await _request(
                    server, "POST", "/campaign", body=campaign
                )
                assert status == 200
                assert again["campaign_id"] == campaign_id

                final = None
                for _ in range(300):
                    status, _h, view = await _request(
                        server, "GET", f"/campaign/{campaign_id}"
                    )
                    if view["status"] in ("completed", "failed", "timeout"):
                        final = view
                        break
                    await asyncio.sleep(0.1)
                assert final is not None
                assert final["status"] == "completed"
                assert final["result"]["trials"] == 8

                status, _h, _b = await _request(
                    server, "GET", "/campaign/not-a-campaign"
                )
                assert status == 404

        asyncio.run(scenario())

    def test_campaign_without_seed_is_400(self, tmp_path):
        async def scenario():
            server = HttpServer(SOSEvaluationService(_config(tmp_path)))
            async with server:
                status, _h, body = await _request(
                    server, "POST", "/campaign",
                    body={"architecture": ARCH, "attack": ATTACK,
                          "trials": 4},
                )
                assert status == 400
                assert "seed" in body["error"]

        asyncio.run(scenario())

    def test_campaign_with_malformed_counts_is_400(self, tmp_path):
        async def scenario():
            server = HttpServer(SOSEvaluationService(_config(tmp_path)))
            async with server:
                for field, value in (
                    ("trials", "3"),
                    ("trials", 2.5),
                    ("trials", True),
                    ("trials", 10**9),
                    ("clients_per_trial", 1.5),
                    ("checkpoint_every", "8"),
                ):
                    status, _h, body = await _request(
                        server, "POST", "/campaign",
                        body={"architecture": ARCH, "attack": ATTACK,
                              "trials": 4, "seed": 5, field: value},
                    )
                    assert status == 400, (field, value, body)
                    assert field in body["error"]

        asyncio.run(scenario())

    def test_unbounded_rounds_is_400(self, tmp_path):
        attack = {"kind": "successive", "rounds": 10**9}

        async def scenario():
            server = HttpServer(SOSEvaluationService(_config(tmp_path)))
            async with server:
                for path, body in (
                    ("/eval", {"architecture": ARCH, "attack": attack}),
                    ("/sweep", {"scenarios": {"r": attack}, "layers": [2]}),
                    ("/campaign", {"architecture": ARCH, "attack": attack,
                                   "trials": 4, "seed": 5}),
                ):
                    status, _h, reply = await _request(
                        server, "POST", path, body=body
                    )
                    assert status == 400, (path, reply)
                    assert "rounds" in reply["error"]

        asyncio.run(scenario())

    def test_campaign_with_retired_scalar_tier_is_400(self, tmp_path):
        async def scenario():
            server = HttpServer(SOSEvaluationService(_config(tmp_path)))
            async with server:
                status, _h, body = await _request(
                    server, "POST", "/campaign",
                    body={"scenario": "stealth-lowrate", "phases": 1,
                          "tier": "scalar"},
                )
                assert status == 400
                assert "tier" in body["error"]

        asyncio.run(scenario())


class TestHttpLayer:
    def test_malformed_json_is_400(self, tmp_path):
        async def scenario():
            server = HttpServer(SOSEvaluationService(_config(tmp_path)))
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                raw = b"not json"
                writer.write(
                    b"POST /eval HTTP/1.1\r\n"
                    b"Host: x\r\nConnection: close\r\n"
                    + f"Content-Length: {len(raw)}\r\n\r\n".encode()
                    + raw
                )
                await writer.drain()
                status_line = await reader.readline()
                assert b"400" in status_line
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())

    def test_keep_alive_serves_sequential_requests(self, tmp_path):
        async def scenario():
            server = HttpServer(SOSEvaluationService(_config(tmp_path)))
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                request = (
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 0\r\n\r\n"
                )
                for _ in range(3):
                    writer.write(request)
                    await writer.drain()
                    status_line = await reader.readline()
                    assert b"200" in status_line
                    length = 0
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n"):
                            break
                        if line.lower().startswith(b"content-length"):
                            length = int(line.split(b":")[1])
                    await reader.readexactly(length)
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())
