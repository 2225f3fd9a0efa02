"""Workload bodies, run in a worker process started by ``run.py``.

Usage (``run.py`` does this; ``PYTHONPATH`` must reach ``src``)::

    python3 perfbench/workloads.py build
    python3 perfbench/workloads.py <workload> --seed N --seconds S --trace 0|1
    python3 perfbench/workloads.py <workload> --seed N --seconds S --setup-only

The worker prints ``READY`` once set-up is done (the first timed op can
start) and, unless ``--setup-only``, one ``RESULT {json}`` line at the
end. Batch workloads run ops back to back for ``--seconds``; the service
workload drives a fixed-rate open loop for ``--seconds`` (so its set-up,
which builds the payloads, needs ``--seconds`` too). With
``--trace 1`` the layer wrappers of :mod:`tracing` are installed for set-up
and for every other op, and the worker reports per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

WORKLOADS = ("flood-1e6", "zoo-detect", "mc-workers2", "service-eval")

#: Service load shape: fixed rate, at most this many requests in flight
#: (the measuring host's core count), the share of payloads drawn from a
#: hot set of 16, and the latency limit a request must meet to count as
#: served. Hits (~1.4 ms) and misses (~2.3 ms) form two clusters; at a
#: 50% hot share the median falls in the gap between them and jumps from
#: run to run, so the hot share is 40% and the median sits among misses.
#: The limit is four times the worst p99 seen on a 2-vCPU host (25 ms).
SERVICE_RATE = 200.0
SERVICE_CONNECTIONS = 2
SERVICE_HOT_SET = 16
SERVICE_HOT_SHARE = 0.4
SERVICE_LIMIT_MS = 100.0


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def cpu_seconds() -> Tuple[float, float]:
    """(this process, its reaped children) user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def vm_hwm_mb(pid: Any = "self") -> float:
    """High-water resident set of ``pid`` in MiB (0 if it has gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children_rss_mb() -> float:
    """Largest high-water RSS among this process's reaped children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def batch_peak_rss_mb(children_at_once: int) -> float:
    """High-water RSS of this process plus ``children_at_once`` children.

    The kernel keeps only the largest reaped child's peak, so each child
    alive at the same time is counted at that peak: an upper bound.
    """
    return vm_hwm_mb() + children_at_once * children_rss_mb()


def child_pids(parent: int) -> List[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == parent:
            pids.append(int(entry))
    return pids


def proc_cpu_seconds(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def derive(seed: int, *parts: int) -> int:
    """A 63-bit seed for one input stream of this run."""
    value = seed
    for part in parts:
        value = (value * 1_000_003 + part) % (1 << 63)
    return value


# ----------------------------------------------------------------------
# Layer wrappers (traced runs only)
# ----------------------------------------------------------------------


def _report_counts(args: tuple, kwargs: dict, report: Any) -> Dict[str, float]:
    return {
        "sent": report.sent,
        "attack": report.attack_packets_absorbed,
        "delivered": report.delivered,
        "congested": report.dropped_at_congested,
        "no_neighbor": report.dropped_no_neighbor,
    }


def _rows(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"rows": len(args[1])}


def patch_layers(tracer: Tracer) -> None:
    """Register a wrapper around each layer's public entry points."""
    from repro.attacks.attacker import IntelligentAttacker
    from repro.detection.monitor import TrafficMonitor
    from repro.overlay.network import OverlayNetwork
    from repro.perf import fastsim
    from repro.perf.compiled import KernelSet
    from repro.repair.defender import RepairingDefender
    from repro.scenarios import schedule
    from repro.simulation.packet_sim import PacketLevelSimulation
    from repro.sos.deployment import SOSDeployment
    from repro.sos.protocol import SOSProtocol

    tracer.patch(OverlayNetwork, "__init__", "overlay.network")
    tracer.patch(SOSDeployment, "deploy", "sos.deploy")
    tracer.patch(fastsim, "encode_deployment", "fastsim.encode")
    tracer.patch(fastsim, "run_fast", "fastsim.run", _report_counts)
    tracer.patch(PacketLevelSimulation, "run", "sim.run")
    tracer.patch(KernelSet, "bucket_scan", "compiled.scan", _rows)
    tracer.patch(KernelSet, "timeline_table", "compiled.timeline", _rows)
    tracer.patch(KernelSet, "route", "compiled.route", _rows)
    tracer.patch(KernelSet, "welford", "compiled.welford")
    tracer.patch(schedule, "compile_scenario", "scenarios.compile")
    tracer.patch(TrafficMonitor, "observe_batch", "detection.observe")
    tracer.patch(TrafficMonitor, "flagged_nodes", "detection.flag")
    tracer.patch(RepairingDefender, "scan_and_repair", "repair.scan")
    tracer.patch(IntelligentAttacker, "execute", "mc.attack")
    tracer.patch(SOSProtocol, "send", "mc.probe")


def span_metrics(tracer: Tracer, ops: Sequence[int]) -> Dict[str, float]:
    """Per-layer numbers read off the spans: set-up spans per set-up,
    op spans per traced op."""
    n = max(len(ops), 1)
    ops = set(ops)
    setup = {"setup"}

    def per_op_ms(name: str, self_time: bool = False) -> float:
        return tracer.total_ms(name, ops, self_time) / n

    def per_op_count(name: str, key: str) -> float:
        return tracer.total_count(name, key, ops) / n

    sent = tracer.total_count("fastsim.run", "sent", ops)
    delivered = tracer.total_count("fastsim.run", "delivered", ops)
    return {
        "overlay.deploy_ms": tracer.total_ms("sos.deploy", setup),
        "fastsim.encode_ms": tracer.total_ms("fastsim.encode", setup),
        "compiled.load_ms": tracer.total_ms("compiled.load", setup),
        "compiled.route_ms": per_op_ms("compiled.route"),
        "compiled.route_calls": len(tracer.select("compiled.route", ops)) / n,
        "compiled.route_rows": per_op_count("compiled.route", "rows"),
        "compiled.scan_ms": per_op_ms("compiled.scan"),
        "compiled.scan_events": per_op_count("compiled.scan", "rows"),
        "compiled.timeline_ms": per_op_ms("compiled.timeline"),
        "compiled.timeline_events": per_op_count("compiled.timeline", "rows"),
        "compiled.welford_ms": per_op_ms("compiled.welford"),
        "fastsim.run_ms": per_op_ms("fastsim.run"),
        "fastsim.self_ms": per_op_ms("fastsim.run", self_time=True),
        "fastsim.sent": sent / n,
        "fastsim.attack_pkts": per_op_count("fastsim.run", "attack"),
        "fastsim.delivered": delivered / n,
        "fastsim.drops_congested": per_op_count("fastsim.run", "congested"),
        "fastsim.drops_no_neighbor": per_op_count("fastsim.run", "no_neighbor"),
        "fastsim.delivery_ratio": delivered / sent if sent else 0.0,
        "sos.deploy_ms": per_op_ms("sos.deploy"),
        "scenarios.compile_ms": per_op_ms("scenarios.compile"),
        "sim.run_ms": per_op_ms("sim.run"),
        "detection.observe_ms": per_op_ms("detection.observe"),
        "detection.flag_ms": per_op_ms("detection.flag"),
        "detection.flag_calls": len(tracer.select("detection.flag", ops)) / n,
        "repair.scan_ms": per_op_ms("repair.scan", self_time=True),
    }


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------


class BatchWorkload:
    """Set-up once, then identical-shaped ops back to back.

    ``check`` judges one op's output as it arrives; ``finish`` runs the
    checks that need a reference, after the last op and outside the timed
    region; ``extra_metrics`` adds the workload's own per-layer numbers.
    """

    #: How many child processes of the worker are alive at once.
    children_at_once = 1

    def check(self, index: int, output: Any) -> Optional[str]:
        return None

    def finish(self, outputs: Dict[int, Any]) -> Dict[int, str]:
        return {}

    def extra_metrics(self, tracer: Tracer, outputs: Dict[int, Any],
                      traced: List[int], timings: Dict[str, Any]) -> Dict[str, float]:
        return {}


class FloodWorkload(BatchWorkload):
    """One flooded round over a deployed 10^6-node overlay (compiled tier)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tracer: Optional[Tracer]) -> None:
        from repro.core import SOSArchitecture
        from repro.perf import compiled, fastsim
        from repro.simulation.packet_sim import (
            PacketLevelSimulation,
            PacketSimConfig,
            flood_layer,
        )
        from repro.sos.deployment import SOSDeployment

        if tracer is not None:
            kernels = tracer.timed("compiled.load", compiled.get_kernels, "compiled")
        else:
            kernels = compiled.get_kernels("compiled")
        if kernels is None:
            raise SystemExit("flood-1e6 needs the compiled tier; no backend")
        self.simulation = PacketLevelSimulation
        self.config = PacketSimConfig(
            clients=1000, client_rate=5.0, flood_rate=200.0, duration=6.0,
            warmup=1.0, flood_start=2.0, tier="compiled",
        )
        architecture = SOSArchitecture(
            layers=3, mapping="one-to-half",
            total_overlay_nodes=1_000_000, sos_nodes=3000,
        )
        self.deployment = SOSDeployment.deploy(
            architecture, rng=derive(self.seed, 1)
        )
        fastsim.encode_deployment(self.deployment)
        self.targets = flood_layer(
            self.deployment, 1, 0.25, rng=derive(self.seed, 2)
        )

    def op(self, index: int) -> Any:
        simulation = self.simulation(
            self.deployment, self.config, rng=derive(self.seed, 3, index)
        )
        return simulation.run(fast=True, flood_targets=self.targets)

    def work(self, report: Any) -> float:
        return report.sent + report.attack_packets_absorbed

    def check(self, index: int, report: Any) -> Optional[str]:
        return checks.flood_report(report)

    def finish(self, outputs: Dict[int, Any]) -> Dict[int, str]:
        if not outputs:
            return {}
        index = min(outputs)
        problem = checks.flood_rerun(outputs[index], self.op(index))
        return {index: problem} if problem else {}


class ZooWorkload(BatchWorkload):
    """All six committed zoo campaigns through the detect->repair loop."""

    PHASES = 3

    def __init__(self, seed: int) -> None:
        self.seed = derive(seed, 1) % (1 << 31)

    def setup(self, tracer: Optional[Tracer]) -> None:
        from repro.scenarios.runner import run_scenario
        from repro.scenarios.zoo import list_scenarios, load_scenario

        self.run_scenario = run_scenario
        self.specs = [load_scenario(name) for name in list_scenarios()]

    def op(self, index: int) -> List[Any]:
        return [
            self.run_scenario(spec, mode="detected", phases=self.PHASES, seed=self.seed)
            for spec in self.specs
        ]

    def work(self, reports: List[Any]) -> float:
        return float(sum(report.phases for report in reports))

    def finish(self, outputs: Dict[int, Any]) -> Dict[int, str]:
        references = [
            self.run_scenario(
                spec, mode="detected", phases=self.PHASES, seed=self.seed,
                tier="compiled",
            )
            for spec in self.specs
        ]
        problems: Dict[int, str] = {}
        for index, reports in outputs.items():
            for report, reference in zip(reports, references):
                problem = checks.zoo_report(report, reference)
                if problem:
                    problems[index] = problem
                    break
        return problems

    def extra_metrics(self, tracer: Tracer, outputs: Dict[int, Any],
                      traced: List[int], timings: Dict[str, Any]) -> Dict[str, float]:
        hits = flagged = truth = repaired = 0
        for index in traced:
            for report in outputs.get(index, []):
                union = {node for nodes in report.flagged_per_phase for node in nodes}
                targets = set(report.initial_targets)
                hits += len(union & targets)
                flagged += len(union)
                truth += len(targets)
                repaired += report.total_repaired
        n = max(len(traced), 1)
        return {
            "detection.precision": hits / flagged if flagged else 1.0,
            "detection.recall": hits / truth if truth else 1.0,
            "detection.flagged": flagged / n,
            "repair.repaired": repaired / n,
        }


class MonteCarloWorkload(BatchWorkload):
    """Algorithm-1 successive attack estimated over 2 pool workers."""

    TRIALS = 200
    children_at_once = 2

    def __init__(self, seed: int) -> None:
        self.seed = derive(seed, 1) % (1 << 31)

    def setup(self, tracer: Optional[Tracer]) -> None:
        from repro.core import SOSArchitecture, SuccessiveAttack
        from repro.simulation.monte_carlo import estimate_ps

        self.estimate_ps = estimate_ps
        self.architecture = SOSArchitecture(
            layers=3, mapping="one-to-two", total_overlay_nodes=2000, sos_nodes=80
        )
        self.attack = SuccessiveAttack(
            break_in_budget=60, congestion_budget=400, rounds=3
        )

    def estimate(self, workers: int) -> Any:
        return self.estimate_ps(
            self.architecture, self.attack, trials=self.TRIALS,
            clients_per_trial=4, seed=self.seed, workers=workers,
        )

    def op(self, index: int) -> Any:
        return self.estimate(2)

    def work(self, result: Any) -> float:
        return float(self.TRIALS)

    def finish(self, outputs: Dict[int, Any]) -> Dict[int, str]:
        start = time.perf_counter()
        serial = self.estimate(1)
        self.serial_wall_ms = 1e3 * (time.perf_counter() - start)
        problems = {}
        for index, result in outputs.items():
            problem = checks.mc_estimate(result, serial)
            if problem:
                problems[index] = problem
        return problems

    def extra_metrics(self, tracer: Tracer, outputs: Dict[int, Any],
                      traced: List[int], timings: Dict[str, Any]) -> Dict[str, float]:
        # Spans recorded inside forked pool workers are lost, so the stage
        # split comes from one traced serial pass over the same trials.
        tracer.op = "serial"
        tracer.install()
        try:
            self.estimate(1)
        finally:
            tracer.uninstall()
        serial = {"serial"}
        parallel_ms = percentile(timings["untraced_ms"], 50)
        return {
            "mc.network_ms": tracer.total_ms("overlay.network", serial),
            "mc.deploy_ms": tracer.total_ms("sos.deploy", serial),
            "mc.attack_ms": tracer.total_ms("mc.attack", serial),
            "mc.probe_ms": tracer.total_ms("mc.probe", serial),
            "mc.serial_wall_ms": self.serial_wall_ms,
            "mc.parallel_wall_ms": parallel_ms,
            "mc.speedup": self.serial_wall_ms / parallel_ms,
            "mc.dispatch_ms": parallel_ms - self.serial_wall_ms / 2.0,
            "mc.parent_cpu_ms": percentile(timings["untraced_self_cpu_ms"], 50),
            "mc.child_cpu_ms": percentile(timings["untraced_child_cpu_ms"], 50),
        }


def run_batch(workload: BatchWorkload, seconds: float, tracer: Optional[Tracer]) -> Dict[str, Any]:
    """Run ops back to back for ``seconds``; odd ops traced if tracing."""
    outputs: Dict[int, Any] = {}
    problems: Dict[int, str] = {}
    incorrect: Set[int] = set()
    wall: Dict[int, float] = {}
    self_cpu: Dict[int, float] = {}
    child_cpu: Dict[int, float] = {}
    traced: List[int] = []
    work = 0.0
    index = 0
    loop_start = time.perf_counter()
    while index < 3 or time.perf_counter() - loop_start < seconds:
        trace_this = tracer is not None and index % 2 == 1
        if trace_this:
            tracer.op = index
            tracer.install()
            traced.append(index)
        own0, kids0 = cpu_seconds()
        start = time.perf_counter()
        try:
            if trace_this:
                output = tracer.timed("op", workload.op, index)
            else:
                output = workload.op(index)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            problems[index] = f"{type(exc).__name__}: {exc}"
            output = None
        wall[index] = 1e3 * (time.perf_counter() - start)
        own1, kids1 = cpu_seconds()
        if trace_this:
            tracer.uninstall()
        self_cpu[index] = 1e3 * (own1 - own0)
        child_cpu[index] = 1e3 * (kids1 - kids0)
        if output is not None:
            outputs[index] = output
            work += workload.work(output)
            problem = workload.check(index, output)
            if problem:
                problems[index] = problem
                incorrect.add(index)
        index += 1
    # Read before the checks, whose reference runs no timed op performs.
    peak_rss_mb = batch_peak_rss_mb(workload.children_at_once)
    for failed, problem in workload.finish(outputs).items():
        problems.setdefault(failed, problem)
        incorrect.add(failed)

    untraced = [i for i in wall if i not in traced]
    timings = {
        "untraced_ms": [wall[i] for i in untraced],
        "untraced_self_cpu_ms": [self_cpu[i] for i in untraced],
        "untraced_child_cpu_ms": [child_cpu[i] for i in untraced],
    }
    result: Dict[str, Any] = {
        "attempted": index,
        "failed": len(problems),
        "incorrect": len(incorrect),
        "problems": sorted(problems.items())[:5],
        "samples": len(untraced),
    }
    if tracer is None:
        result["report_only"] = {"op_ms_p99": percentile(timings["untraced_ms"], 99)}
        result["metrics"] = {
            "op_ms_p50": percentile(timings["untraced_ms"], 50),
            "work_per_s": 1e3 * work / sum(wall.values()),
            "cpu_ms_per_op": percentile(
                [self_cpu[i] + child_cpu[i] for i in untraced], 50
            ),
            "peak_rss_mb": peak_rss_mb,
        }
        return result
    metrics = zero_layer_metrics()
    metrics.update(span_metrics(tracer, traced))
    metrics.update(workload.extra_metrics(tracer, outputs, traced, timings))
    metrics["op_ms_p99"] = percentile(timings["untraced_ms"], 99)
    metrics["trace.overhead_ms"] = (
        percentile([wall[i] for i in traced], 50)
        - percentile(timings["untraced_ms"], 50)
    )
    result["metrics"] = metrics
    result["traced_samples"] = len(traced)
    return result


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------


_MAPPINGS = ("one-to-one", "one-to-two", "one-to-half", "one-to-all")


def eval_payload(rng: random.Random, congestion_budget: int) -> Dict[str, Any]:
    """A successive-attack ``/eval`` body; the congestion budget keys it."""
    return {
        "architecture": {
            "layers": rng.randint(2, 5),
            "mapping": rng.choice(_MAPPINGS),
            "total_overlay_nodes": rng.randint(2000, 20000),
            "sos_nodes": rng.randint(50, 200),
        },
        "attack": {
            "kind": "successive",
            "break_in_budget": rng.randint(0, 200),
            "congestion_budget": congestion_budget,
            "rounds": rng.randint(1, 4),
        },
    }


def service_payloads(seed: int, count: int) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """(warm-up payload, load payloads): a hot-set share, the rest unique."""
    rng = random.Random(seed)
    hot = [eval_payload(rng, budget) for budget in range(SERVICE_HOT_SET)]
    first = eval_payload(rng, 1000)
    load = []
    for index in range(count):
        if rng.random() < SERVICE_HOT_SHARE:
            load.append(hot[rng.randrange(SERVICE_HOT_SET)])
        else:
            load.append(eval_payload(rng, 2000 + index))
    return first, load


class ServiceWorkload:
    """The evaluation service as a child process under an open loop."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.server: Optional[subprocess.Popen] = None
        self.server_kids: List[int] = []

    async def request(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None) -> Tuple[int, Dict[str, Any]]:
        from repro.service.http import http_request

        status, _, answer = await http_request(self.host, self.port, method, path, body)
        return status, answer

    async def setup(self) -> None:
        import asyncio

        started = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.service", "--workers", "1",
             "--port", "0", "--spool-dir",
             os.path.join(ROOT, ".bench_build", "service-spool")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = self.server.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        first, self.load = service_payloads(
            derive(self.seed, 1), int(SERVICE_RATE * self.seconds)
        )

        while (await self.request("GET", "/readyz"))[0] != 200:
            await asyncio.sleep(0.01)
        ready = time.perf_counter()
        status, body = await self.request("POST", "/eval", first)
        if status != 200 or body.get("cached"):
            raise RuntimeError(f"first /eval answered {status} {body}")
        self.readyz_s = ready - started
        self.first_eval_ms = 1e3 * (time.perf_counter() - ready)
        self.server_kids = child_pids(self.server.pid)

    async def metrics_snapshot(self) -> Dict[str, Any]:
        return (await self.request("GET", "/metrics"))[1]

    def pids(self) -> List[int]:
        return [self.server.pid] + self.server_kids if self.server else []

    def stop(self) -> None:
        """Stop the server and its worker."""
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        for pid in self.server_kids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.server.stdout.close()
        self.server = None


def service_eval_reference(payload: Dict[str, Any]) -> float:
    """``p_s`` straight from the model, not through the service's parser."""
    from repro.core import SOSArchitecture, SuccessiveAttack, evaluate

    attack = dict(payload["attack"])
    attack.pop("kind")
    return evaluate(
        SOSArchitecture(**payload["architecture"]), SuccessiveAttack(**attack)
    ).p_s


async def run_service(workload: ServiceWorkload, trace: bool) -> Dict[str, Any]:
    """Drive the open loop for the run's length, then check every answer."""
    from loadgen import open_loop

    # A traced run keeps a span for every other request; the p50 gap
    # between the two halves is what recording costs.
    tracer = Tracer()

    def record_span(record: Any) -> None:
        if trace and record.index % 2 == 1:
            span = Span("service.eval", record.due, -1, record.index)
            span.end = record.done
            tracer.spans.append(span)

    before = await workload.metrics_snapshot()
    cpu0 = sum(proc_cpu_seconds(pid) for pid in workload.pids())
    own0 = sum(cpu_seconds())
    # The generator's own collector pauses would be charged to the server.
    gc.disable()
    try:
        records = await open_loop(
            workload.host, workload.port, workload.load, SERVICE_RATE,
            SERVICE_CONNECTIONS, record_span,
        )
    finally:
        gc.enable()
    window = records[-1].done - records[0].due
    cpu1 = sum(proc_cpu_seconds(pid) for pid in workload.pids())
    own1 = sum(cpu_seconds())
    after = await workload.metrics_snapshot()
    rss = sum(vm_hwm_mb(pid) for pid in workload.pids()) + vm_hwm_mb()

    problems: Dict[int, str] = {}
    incorrect = 0
    references: Dict[int, float] = {}
    for record, payload in zip(records, workload.load):
        if record.error is not None:
            problems[record.index] = record.error
        elif record.status != 200:
            problems[record.index] = f"HTTP {record.status}: {record.body}"
        elif 1e3 * record.latency > SERVICE_LIMIT_MS:
            problems[record.index] = f"latency {1e3 * record.latency:.1f} ms over limit"
        else:
            key = id(payload)
            if key not in references:
                references[key] = service_eval_reference(payload)
            problem = checks.eval_answer(record.body.get("p_s"), references[key])
            if problem:
                problems[record.index] = problem
                incorrect += 1

    latency = [1e3 * r.latency for r in records]
    result: Dict[str, Any] = {
        "attempted": len(records),
        "failed": len(problems),
        "incorrect": incorrect,
        "problems": sorted(problems.items())[:5],
        "samples": len(records),
    }
    if not trace:
        result["report_only"] = {
            "op_ms_p99": percentile(latency, 99),
            "op_ms_max": max(latency),
        }
        result["metrics"] = {
            "op_ms_p50": percentile(latency, 50),
            "work_per_s": (len(records) - len(problems)) / window,
            "cpu_ms_per_op": 1e3 * (cpu1 - cpu0 + own1 - own0) / len(records),
            "peak_rss_mb": rss,
        }
        return result

    def counter(*path: str) -> float:
        def read(snapshot: Dict[str, Any]) -> float:
            for key in path:
                snapshot = snapshot.get(key, {})
            return float(snapshot or 0)
        return read(after) - read(before)

    ok = [r for r in records if r.error is None and r.status == 200]
    hits = [1e3 * r.latency for r in ok if r.body.get("cached")]
    misses = [1e3 * r.latency for r in ok if not r.body.get("cached")]
    metrics = zero_layer_metrics()
    metrics.update({
        "service.readyz_s": workload.readyz_s,
        "service.first_eval_ms": workload.first_eval_ms,
        "service.hit_ms_p50": percentile(hits, 50),
        "service.miss_ms_p50": percentile(misses, 50),
        "service.miss_ms_p99": percentile(misses, 99),
        "service.store_hits": counter("store", "fresh_hits"),
        "service.store_misses": counter("store", "misses"),
        "service.admitted": counter("queue", "admitted_total"),
        "service.shed": counter("queue", "shed_total"),
        "service.pool_jobs_ok": counter("pool", "jobs_ok"),
        "service.server_ms_p50": 1e3 * after["latency_seconds"]["eval"]["p50"],
        "service.gen_lag_ms_p99": percentile([1e3 * r.lag for r in records], 99),
        "op_ms_p99": percentile(latency, 99),
        "trace.overhead_ms": (
            percentile(latency[1::2], 50) - percentile(latency[0::2], 50)
        ),
    })
    result["metrics"] = metrics
    result["samples"] = len(records) - len(tracer.spans)
    result["traced_samples"] = len(tracer.spans)
    tracer.dump(span_path("service-eval", workload.seed))
    return result


async def service_main(seed: int, seconds: float, trace: bool,
                       setup_only: bool) -> Optional[Dict[str, Any]]:
    workload = ServiceWorkload(seed, seconds)
    try:
        await workload.setup()
        print("READY", flush=True)
        if setup_only:
            return None
        return await run_service(workload, trace)
    finally:
        workload.stop()


def span_path(workload: str, seed: int) -> str:
    """Where a traced run writes its spans when it ends."""
    directory = os.path.join(ROOT, ".bench_build")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"spans-{workload}-{seed}.json")


def zero_layer_metrics() -> Dict[str, float]:
    """Every per-layer metric BENCHMARK.json lists, at 0: a layer the
    workload does not reach did no work."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: 0.0 for entry in spec["per_layer"]}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def build() -> int:
    """Build (or find cached) the compiled kernel library before timing."""
    cache = os.environ["REPRO_CC_CACHE"]
    before = set(os.listdir(cache)) if os.path.isdir(cache) else set()
    from repro.perf.compiled import compiled_backend

    backend = compiled_backend()
    if backend is None:
        print("no compiled backend could be built", file=sys.stderr)
        return 1
    built = sorted(set(os.listdir(cache)) - before) if os.path.isdir(cache) else []
    print("BUILD " + json.dumps({"backend": backend, "compiled": bool(built)}),
          flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS + ("build",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "build":
        return build()
    if args.seed is None or args.seconds is None:
        parser.error("a workload needs --seed and --seconds")
    trace = bool(args.trace) and not args.setup_only

    if args.workload == "service-eval":
        import asyncio

        result = asyncio.run(
            service_main(args.seed, args.seconds, trace, args.setup_only)
        )
        if result is None:
            return 0
    else:
        classes: Dict[str, Callable[[int], BatchWorkload]] = {
            "flood-1e6": FloodWorkload,
            "zoo-detect": ZooWorkload,
            "mc-workers2": MonteCarloWorkload,
        }
        workload = classes[args.workload](args.seed)
        tracer = Tracer() if trace else None
        if tracer is not None:
            patch_layers(tracer)
            tracer.install()
        workload.setup(tracer)
        if tracer is not None:
            tracer.uninstall()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = run_batch(workload, args.seconds, tracer)
        if tracer is not None:
            tracer.dump(span_path(args.workload, args.seed))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
