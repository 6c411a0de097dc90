"""The serve-checkin workload: device check-ins against ``repro serve``.

A ``repro serve --workers 2`` subprocess hosts two long-running smoke-scale
churn experiments that checkpoint every round.  One single-threaded
generator on one keep-alive connection sends JSONL check-in batches of
:data:`BATCH` lines: first open loop at :data:`RATE` requests per second
(about a third of capacity on a 2-core host), each request timed from its
due time; then closed loop, back to back, for the saturation throughput.
"""

from __future__ import annotations

import http.client
import json
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from host import vm_hwm_mb
from spans import Tracer, span_layers

HERE = Path(__file__).resolve().parent
RATE = 30.0
BATCH = 100
HOSTED_RUNS = 2
#: Closed-loop throughput is the median over chunks of this many requests.
CAPACITY_CHUNK = 20
#: Server launches per untraced run; setup_s is their median.
LAUNCHES = 5


class Server:
    """One ``repro serve`` subprocess with its hosted runs.

    The client side here mirrors ``repro.serve.loadgen`` (a Nagle-free
    keep-alive connection, the same smoke churn spec) but does not import
    it: loadgen is one of the program's own benchmark tools, which a later
    change may rewrite or delete, and this workload must stay runnable and
    comparable across such changes.  It also polls for the ``running``
    state every 5 ms, not every 100 ms, because that wait is part of
    ``setup_s``.
    """

    def __init__(self, results_dir: Path, seed: int, trace_out: Optional[Path] = None) -> None:
        self.trace_out = trace_out
        start = time.perf_counter()
        command = [sys.executable, str(HERE / "serve_host.py"), "--results-dir", str(results_dir)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        try:
            url = self._listening_url()
            host, port = url.split("//", 1)[1].rsplit(":", 1)
            self.conn = http.client.HTTPConnection(host, int(port), timeout=60)
            self.conn.connect()
            self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.runs = [self._submit(seed + index) for index in range(HOSTED_RUNS)]
            deadline = time.monotonic() + 120
            while any(self.status(run["run_id"])["state"] != "running" for run in self.runs):
                if time.monotonic() > deadline:
                    raise RuntimeError("hosted runs did not reach the running state")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _listening_url(self) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if "listening on" in line:
                return line.split("listening on", 1)[1].split()[0]
            if not line and self.proc.poll() is not None:
                break
        raise RuntimeError("repro serve did not report a listening address")

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, dict]:
        self.conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def _submit(self, seed: int) -> dict:
        spec = {
            "algorithm": "fedavg",
            "dataset": "mnist",
            "scale": "smoke",
            "scenario": "churn",
            "seed": seed,
            "label": f"perfbench-{seed}",
            # Far past the window: the runs stay live for the whole workload.
            "overrides": {"rounds": 100000},
        }
        status, doc = self.request("POST", "/runs", json.dumps({"spec": spec}).encode())
        if status >= 300:
            raise RuntimeError(f"submit failed ({status}): {doc}")
        return doc

    def status(self, run_id: str) -> dict:
        return self.request("GET", f"/runs/{run_id}")[1]

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """Cancel the hosted runs, drain the server and wait for it to exit."""
        if self.proc.poll() is None:
            try:
                for run in getattr(self, "runs", []):
                    self.request("POST", f"/runs/{run['run_id']}/cancel", b"")
            except (OSError, http.client.HTTPException, ValueError):
                pass
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if getattr(self, "conn", None) is not None:
            self.conn.close()
        self.proc.stdout.close()

    def spans(self) -> Tracer:
        tracer = Tracer()
        tracer.spans = json.loads(self.trace_out.read_text())
        return tracer


def payloads(
    runs: List[dict], count: int, rng: np.random.Generator, bad_line: bool = False
) -> List[Tuple[bytes, int, str]]:
    """``count`` JSONL check-in batches of :data:`BATCH` lines, each for one
    run: (body, lines, run id)."""
    out = []
    for index in range(count):
        run = runs[index % len(runs)]
        clients = rng.integers(0, run["num_clients"], size=BATCH)
        online = rng.random(BATCH) < 0.5
        if bad_line and index == 0:
            clients[0] = run["num_clients"]  # out of range: the server rejects it
        body = "".join(
            json.dumps({"run": run["run_id"], "client": int(c), "online": bool(o)}) + "\n"
            for c, o in zip(clients, online)
        )
        out.append((body.encode(), BATCH, run["run_id"]))
    return out


def _checkin(
    server: Server, payload: Tuple[bytes, int, str], accepted: Dict[str, int], problems: List[str]
) -> bool:
    """Send one batch; counts the lines accepted per run.  False on failure."""
    body, lines, run_id = payload
    try:
        status, doc = server.request("POST", "/checkin", body)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        problems.append(f"check-in request failed: {exc!r}")
        return False
    accepted[run_id] += int(doc.get("accepted") or 0)
    if status != 200 or doc.get("accepted") != lines:
        problems.append(
            f"check-in answered {status} with {doc.get('accepted')} of {lines} lines accepted"
        )
        return False
    return True


def session(
    server: Server, seed: int, open_s: float, closed_s: float, bad_line: bool = False
) -> Dict[str, object]:
    """The open-loop phase, then the closed-loop phase, on one server."""
    rng = np.random.default_rng(seed)
    requests = max(1, int(RATE * open_s))
    open_bodies = payloads(server.runs, requests, rng, bad_line)
    closed_bodies = payloads(server.runs, 64, rng)
    problems: List[str] = []
    failed = 0
    accepted = {run["run_id"]: 0 for run in server.runs}

    rounds_before = sum(server.status(run["run_id"])["rounds"] for run in server.runs)
    latency, service, late = [], [], []
    open_start = time.perf_counter() + 0.05
    for index, payload in enumerate(open_bodies):
        due = open_start + index / RATE
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        sent = time.perf_counter()
        failed += not _checkin(server, payload, accepted, problems)
        done = time.perf_counter()
        latency.append(done - due)
        service.append(done - sent)
        late.append(sent - due)
    open_end = time.perf_counter()
    rounds_after = sum(server.status(run["run_id"])["rounds"] for run in server.runs)

    closed_start = time.perf_counter()
    stamps: List[float] = []
    while time.perf_counter() - closed_start < closed_s:
        payload = closed_bodies[len(stamps) % len(closed_bodies)]
        failed += not _checkin(server, payload, accepted, problems)
        stamps.append(time.perf_counter())
    closed_end = time.perf_counter()
    if len(stamps) >= CAPACITY_CHUNK:
        edges = [closed_start] + stamps[CAPACITY_CHUNK - 1 :: CAPACITY_CHUNK]
        capacity = CAPACITY_CHUNK * BATCH / statistics.median(np.diff(edges))
    else:
        capacity = len(stamps) * BATCH / (closed_end - closed_start)

    statuses = [server.status(run["run_id"]) for run in server.runs]
    states = [status["state"] for status in statuses]
    if any(state != "running" for state in states):
        problems.append(f"hosted runs ended the window as {states}")
    counted = {status["run_id"]: status["checkins"] for status in statuses}
    if counted != accepted:
        problems.append(f"hosted runs counted check-ins {counted}, accepted {accepted}")
    hosted_rounds = rounds_after - rounds_before
    return {
        "problems": problems,
        "attempted": len(open_bodies) + len(stamps),
        "failed": failed,
        "latency_ms": 1000 * np.asarray(latency),
        "service_ms": 1000 * np.asarray(service),
        "late_ms": 1000 * np.asarray(late),
        "capacity_eps": capacity,
        "hosted_rounds": hosted_rounds,
        "open_s": open_end - open_start,
        "window": (open_start, open_end, closed_end),
        "rss_mb": server.peak_rss_mb(),
    }


def tail_percentile(samples: int) -> float:
    """The highest of p95/p90/p75/p50 that leaves at least ten samples beyond it."""
    for q in (95, 90, 75):
        if samples * (100 - q) / 100 >= 10:
            return q
    return 50


def _run_s(result: Dict[str, object]) -> float:
    # Host seconds per hosted round while the open-loop traffic runs.
    return result["open_s"] / max(1, result["hosted_rounds"])


def measure(
    seed: int, seconds: float, trace: bool, workdir: Path, bad_line: bool = False
) -> Dict[str, object]:
    """Untraced: LAUNCHES server start-ups (setup_s is their median), then
    the phases on the last one.  Traced: an untraced and a traced server,
    each with half-length phases; the layers come from the traced one."""
    open_s, closed_s = 0.6 * seconds, 0.3 * seconds
    if trace:
        open_s, closed_s = open_s / 2, closed_s / 2
    setups: List[float] = []
    results: List[Dict[str, object]] = []
    layers: Dict[str, float] = {}
    launches = 2 if trace else LAUNCHES
    for launch in range(launches):
        traced = trace and launch == launches - 1
        spans_file = workdir / f"spans{launch}.json" if traced else None
        server = Server(workdir / f"results{launch}", seed, trace_out=spans_file)
        try:
            setups.append(server.setup_s)
            if trace or launch == launches - 1:
                results.append(session(server, seed, open_s, closed_s, bad_line))
        finally:
            server.stop()
        if traced:
            layers = _layers(server.spans(), results[-1])
            layers["trace.overhead_s"] = layers["trace.run_s"] - _run_s(results[0])

    main = results[-1]
    latency = main["latency_ms"]
    q = tail_percentile(len(latency))
    info = {
        "launches": launches,
        "requests_open_loop": len(latency),
        "checkin_p50_ms": float(np.percentile(latency, 50)),
        f"checkin_p{q:g}_ms": float(np.percentile(latency, q)),
        "checkin_capacity_eps": main["capacity_eps"],
        "hosted_rounds_per_s": main["hosted_rounds"] / main["open_s"],
        "offered_eps": RATE * BATCH,
    }
    if trace:
        metrics = layers
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": _run_s(main),
            "peak_rss_mb": main["rss_mb"],
        }
    return {
        "problems": [problem for result in results for problem in result["problems"]],
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
        "info": info,
    }


def _layers(tracer: Tracer, result: Dict[str, object]) -> Dict[str, float]:
    """Server-side layers over the measured window, plus generator health."""
    open_start, open_end, closed_end = result["window"]
    layers = span_layers(tracer.totals(open_start, closed_end))
    in_open = tracer.totals(open_start, open_end).get("serve.checkin", {"s": 0.0, "calls": 0})
    handler_ms = 1000 * in_open["s"] / max(1, in_open["calls"])
    late = result["late_ms"]
    layers.update(
        {
            "core.offloads": 0.0,
            "fl.transport.retransmits": 0.0,
            "simulation.events.count": 0.0,
            "simulation.events.self_s": 0.0,
            "simulation.events.us_per_event": 0.0,
            "serve.checkin.wait_ms": float(np.mean(result["service_ms"])) - handler_ms,
            "loadgen.late_p95_ms": float(np.percentile(late, 95)),
            "loadgen.late_max_ms": float(np.max(late)),
            "trace.run_s": _run_s(result),
        }
    )
    return layers
