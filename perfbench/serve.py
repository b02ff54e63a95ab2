"""Workload ``serve``: closed-loop HTTP traffic against a flat ``repro serve``.

An op is one HTTP request to a ``python -m repro serve --port 0``
subprocess running REF with 16 agents.  Two keep-alive connections from
this process each own half the agents and repeat whole rounds of
:data:`CYCLES` cycles (one bulk ``POST /v1/samples`` carrying one sample
per owned agent, then :data:`GETS_PER_POST` ``GET /v1/allocation``),
followed by one churn (deregister an owned agent, register a new one)
and one ``GET /metrics`` scrape.  Sample values come from seeded
ground-truth Cobb-Douglas agents.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import common

AGENTS = 16
CONNECTIONS = 2
CYCLES = 40
GETS_PER_POST = 4
ROUND = CYCLES * (1 + GETS_PER_POST) + 3  # + deregister, register, scrape
#: Requests per second of ``--seconds``, across both connections.
REQUESTS_PER_SECOND = 1900
#: Benchmarks the server's agents are registered as.  The server never
#: simulates them (samples arrive over HTTP); registration needs a name.
BENCHMARKS = ("freqmine", "dedup", "canneal", "fft", "x264", "lu_cb", "radiosity", "fmm")
#: ``DynamicAllocator`` floors (MIN_BANDWIDTH_GBPS, MIN_CACHE_KB).
FLOORS = {"membw_gbps": 0.4, "cache_kb": 64.0}
EQUAL_SPLIT = (6.4, 1024.0)  # the server's default per-agent capacity
JITTER_SIGMA = 0.5
NOISE_SIGMA = 0.01
#: Rounds between host probes (see ``common.HostProbe``).
PROBE_EVERY = 10
WARM_POSTS = 6  # bulk posts per connection before timing: every agent fits
START_TIMEOUT = 60.0

KIND_GET, KIND_POST, KIND_DEREGISTER, KIND_REGISTER, KIND_METRICS = range(5)
ROUTE_METRIC = {
    KIND_GET: "serve.get_allocation_ms",
    KIND_POST: "serve.post_samples_ms",
    KIND_DEREGISTER: "serve.churn_ms",
    KIND_REGISTER: "serve.churn_ms",
    KIND_METRICS: "serve.metrics_ms",
}


def round_schedule() -> List[int]:
    kinds = []
    for _ in range(CYCLES):
        kinds.append(KIND_POST)
        kinds.extend([KIND_GET] * GETS_PER_POST)
    return kinds + [KIND_DEREGISTER, KIND_REGISTER, KIND_METRICS]


class Connection:
    """One client: its agents, its sample stream and a keep-alive socket.

    Requests are written and responses parsed here, so one thread can
    drive every connection: the load has no lock contention of its own.
    """

    def __init__(self, index: int, seed: int) -> None:
        self.index = index
        self.rng = random.Random(f"{seed}/{index}")
        self.slots = [self._new_agent(slot, 0) for slot in range(AGENTS // CONNECTIONS)]
        self.churned = 0
        self.port = 0
        self.sock: Optional[socket.socket] = None
        self.log: List[Tuple[int, float, int, bytes]] = []
        self._kind = KIND_GET
        self._began = 0.0
        self._buffer = b""

    def _new_agent(self, slot: int, generation: int) -> Dict[str, object]:
        rng = self.rng
        return {
            "name": f"c{self.index}s{slot}g{generation}",
            "benchmark": BENCHMARKS[rng.randrange(len(BENCHMARKS))],
            "alpha": (rng.uniform(0.05, 0.7), rng.uniform(0.05, 0.7)),
            "scale": rng.uniform(0.5, 2.0),
        }

    def initial_agents(self) -> List[str]:
        """``NAME=BENCHMARK`` specs for ``repro serve --agents``."""
        return [f"{agent['name']}={agent['benchmark']}" for agent in self.slots]

    def connect(self, port: int) -> None:
        self.port = port
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def samples_body(self) -> bytes:
        gauss = self.rng.gauss
        samples = []
        for agent in self.slots:
            b = EQUAL_SPLIT[0] * math.exp(gauss(0.0, JITTER_SIGMA))
            c = EQUAL_SPLIT[1] * math.exp(gauss(0.0, JITTER_SIGMA))
            a0, a1 = agent["alpha"]
            ipc = agent["scale"] * b**a0 * c**a1 * math.exp(gauss(0.0, NOISE_SIGMA))
            samples.append(
                {"version": 1, "agent": agent["name"], "bandwidth_gbps": b,
                 "cache_kb": c, "ipc": ipc}
            )
        return json.dumps({"version": 1, "samples": samples}).encode()

    def _request_bytes(self, kind: int) -> bytes:
        if kind == KIND_GET:
            return b"GET /v1/allocation HTTP/1.1\r\nHost: bench\r\n\r\n"
        if kind == KIND_METRICS:
            return b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n"
        if kind == KIND_POST:
            path, body = "/v1/samples", self.samples_body()
        else:
            slot = self.churned % len(self.slots)
            if kind == KIND_DEREGISTER:
                payload = {"version": 1, "action": "deregister",
                           "agent": self.slots[slot]["name"]}
            else:
                self.churned += 1
                self.slots[slot] = self._new_agent(slot, self.churned)
                payload = {"version": 1, "action": "register",
                           "agent": self.slots[slot]["name"],
                           "workload": self.slots[slot]["benchmark"]}
            path, body = "/v1/agents", json.dumps(payload).encode()
        head = (
            f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        return head.encode() + body

    def send(self, kind: int) -> None:
        """Start one request of ``kind``; :meth:`receive` completes it."""
        data = self._request_bytes(kind)
        self._kind = kind
        self._buffer = b""
        self._began = time.perf_counter()
        try:
            if self.sock is None:
                self.connect(self.port)
            self.sock.sendall(data)
        except OSError as error:
            self._finish(0, repr(error).encode())

    def receive(self) -> bool:
        """Read what has arrived; True once the response (or a failure) is logged."""
        if self.sock is None:
            return True  # send() already logged a transport failure
        try:
            chunk = self.sock.recv(1 << 16)
        except OSError as error:
            self._finish(0, repr(error).encode())
            return True
        if not chunk:
            self._finish(0, b"connection closed by the server")
            return True
        self._buffer += chunk
        head_end = self._buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return False
        head = self._buffer[:head_end].decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        if len(self._buffer) < head_end + 4 + length:
            return False
        status = int(head[0].split()[1])
        self._finish(status, self._buffer[head_end + 4 : head_end + 4 + length])
        return True

    def _finish(self, status: int, body: bytes) -> None:
        latency = time.perf_counter() - self._began
        if status == 0:
            self.close()  # reconnects on the next request
        if self._kind == KIND_METRICS and status:
            body = b""  # only the status matters; the final scrape is read apart
        self.log.append((self._kind, latency, status, body))


def drive(clients: List[Connection], schedule: List[int]) -> float:
    """Closed loop: each connection sends its next request when its last
    response has arrived.  Returns the wall time."""
    selector = selectors.DefaultSelector()
    position = {client.index: 0 for client in clients}

    def start(client: Connection) -> bool:
        while position[client.index] < len(schedule):
            client.send(schedule[position[client.index]])
            position[client.index] += 1
            if client.sock is not None:
                selector.register(client.sock, selectors.EVENT_READ, client)
                return True
        return False

    began = time.perf_counter()
    active = sum(start(client) for client in clients)
    while active:
        events = selector.select(timeout=30)
        if not events:
            selector.close()
            raise RuntimeError("the server sent nothing for 30 s")
        for key, _ in events:
            client = key.data
            if client.receive():
                selector.unregister(key.fileobj)
                active -= 1
                active += start(client)
    selector.close()
    return time.perf_counter() - began


class Server:
    """A ``python -m repro serve`` subprocess."""

    def __init__(self, seed: int, agents: List[str]) -> None:
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--seed", str(seed), "--agents", ",".join(agents),
        ]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True
        )
        self.pid = self.process.pid
        self.summary: Optional[str] = None
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError("repro serve did not report its port")

    def scrape(self, connection: http.client.HTTPConnection) -> str:
        """``GET /metrics`` over a connection the caller keeps open.

        An open connection is not yet in the server's requests-per-
        connection histogram, so scraping does not disturb it.
        """
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET /metrics: HTTP {response.status}")
        return body.decode()

    def stop(self) -> str:
        """SIGTERM, wait, and return what the server printed on the way out."""
        if self.summary is None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            try:
                out, _ = self.process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                out, _ = self.process.communicate()
            self.summary = out or ""
        return self.summary


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """``{(name, sorted labels): value}`` for every sample line."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        pairs = tuple(sorted(re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', labels)))
        values[(name, pairs)] = float(value)
    return values


def total(scrape, name: str, **labels: str) -> float:
    """Sum of ``name`` over every label set that includes ``labels``."""
    want = set(labels.items())
    return math.fsum(v for (n, pairs), v in scrape.items() if n == name and want <= set(pairs))


def check(connection: Connection) -> Tuple[List[str], int]:
    """Statuses, bodies, feasibility, bulk acceptance, epoch order."""
    problems: List[str] = []
    parsed: Dict[bytes, dict] = {}
    last_epoch = -1
    failed_ops = 0
    for kind, _, status, data in connection.log:
        trouble = None
        if not 200 <= status < 300:
            trouble = f"HTTP {status}: {data[:120]!r}"
        elif kind != KIND_METRICS:
            body = parsed.get(data)
            if body is None:
                try:
                    body = parsed[data] = json.loads(data)
                except ValueError:
                    trouble = f"unparsable body {data[:120]!r}"
            if trouble is None:
                try:
                    trouble, epoch = _check_body(kind, body)
                except (KeyError, TypeError, ValueError) as error:
                    trouble, epoch = f"malformed body ({error!r}): {data[:120]!r}", None
                if epoch is not None:
                    if epoch < last_epoch:
                        trouble = f"epoch went back {last_epoch} -> {epoch}"
                    last_epoch = max(last_epoch, epoch)
        if trouble:
            failed_ops += 1
            if len(problems) < 3:
                problems.append(trouble)
    return problems, failed_ops


def _check_body(kind: int, body: dict) -> Tuple[Optional[str], Optional[int]]:
    """One response's own checks and the epoch it proves has completed."""
    if kind == KIND_GET:
        capacities = body["capacities"]
        shares = body["shares"]
        for resource, capacity in capacities.items():
            column = [bundle[resource] for bundle in shares.values()]
            if abs(math.fsum(column) - capacity) > 1e-9 * capacity:
                return f"{resource} sums to {math.fsum(column)}, not {capacity}", None
            if min(column) < FLOORS[resource] * (1 - 1e-9):
                return f"{resource} share {min(column)} below its floor", None
        return None, body["epoch"]
    if kind == KIND_POST:
        if body["accepted"] != AGENTS // CONNECTIONS or body["rejected"]:
            return f"bulk accepted {body['accepted']} rejected {body['rejected']}", None
        # ``epoch`` is the epoch the samples fold into; the one before it
        # has completed.
        return None, body["epoch"] - 1
    registered = body["agent"] in body["agents"]
    if registered != (kind == KIND_REGISTER):
        return f"{body['action']} of {body['agent']} left agents {body['agents']}", None
    return None, body["epoch"]


def run(seed: int, seconds: float, trace: bool, started: float, probe) -> Dict[str, object]:
    import repro  # noqa: F401  (the server subprocess imports the rest)

    imports_s = time.perf_counter() - started
    rounds = max(1, round(seconds * REQUESTS_PER_SECOND / (CONNECTIONS * ROUND)))
    if trace:
        rounds = max(2, rounds)  # untraced rounds, then traced ones on a fresh server
    untraced_rounds = rounds // 2 if trace else rounds

    running: List[Tuple[Server, List[Connection]]] = []

    def stop_running(keep: int = 0) -> str:
        summary = ""
        while len(running) > keep:
            server, clients = running.pop(0)
            for client in clients:
                client.close()
            summary = server.stop()
        return summary

    def set_up():
        clients = [Connection(index, seed) for index in range(CONNECTIONS)]
        server = Server(seed, [spec for c in clients for spec in c.initial_agents()])
        running.append((server, clients))
        for client in clients:
            client.connect(server.port)
        drive(clients, [KIND_POST, KIND_GET] * WARM_POSTS)
        # Let the last warm samples fold in, so every agent has a fit.
        time.sleep(0.2)
        drive(clients, [KIND_GET])
        for client in clients:
            if any(status != 200 for _, _, status, _ in client.log):
                raise RuntimeError("a warm-up request failed")
            client.log.clear()
        return server, clients

    try:
        setup_s, (server, clients) = common.timed_setup(imports_s, set_up, probe)
        stop_running(keep=1)  # the earlier repetitions' servers
        untraced = _load(server, clients, untraced_rounds, probe, traced=False)
        summary = stop_running()
        if trace:
            server, clients = set_up()
            traced = _load(server, clients, rounds - untraced_rounds, probe, traced=True)
            summary = stop_running()
    finally:
        stop_running()

    correct = "feasible=True" in summary
    if not correct:
        print(f"serve: server summary {summary.strip()!r}", file=sys.stderr)
    attempted = untraced["attempted"] + (traced["attempted"] if trace else 0)
    failed = untraced["failed"] + (traced["failed"] if trace else 0)
    if not trace:
        metrics = common.end_to_end(
            setup_s, untraced["peak_rss_mb"], untraced["latencies"], untraced["wall"]
        )
        return common.result(correct, attempted, failed, metrics)
    metrics = traced["layers"]
    metrics["trace.overhead"] = common.metric(
        (untraced["attempted"] / untraced["wall"]) / (traced["attempted"] / traced["wall"]),
        "ratio",
    )
    return common.result(correct, attempted, failed, metrics)


def _load(server: Server, clients: List[Connection], rounds: int, probe, traced: bool):
    """Drive every connection through ``rounds`` rounds; check; measure the server.

    The load pauses for a host probe every :data:`PROBE_EVERY` rounds;
    the pauses are not part of the timed wall time.
    """
    if traced:
        scraper = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        scraped_before = parse_prometheus(server.scrape(scraper))
        cpu_before = common.pid_cpu_seconds(server.pid)

    wall, latencies, client_cpu = 0.0, [], 0.0
    before = probe.block()
    for first in range(0, rounds, PROBE_EVERY):
        marks = [len(client.log) for client in clients]
        cpu_began = time.process_time()
        chunk = drive(clients, round_schedule() * min(PROBE_EVERY, rounds - first))
        client_cpu += time.process_time() - cpu_began
        after = probe.block()
        scale = common.segment_scale(before, after)
        before = after
        wall += chunk * scale
        for client, mark in zip(clients, marks):
            latencies.extend(entry[1] * scale for entry in client.log[mark:])
    for client in clients:
        client.close()

    peak_rss = common.pid_peak_rss_mb(server.pid)
    failed = 0
    for client in clients:
        problems, failed_ops = check(client)
        failed += failed_ops
        if problems:
            print(f"serve: connection {client.index}: {problems}", file=sys.stderr)
    outcome = {
        "attempted": len(latencies), "failed": failed, "latencies": latencies,
        "wall": wall, "peak_rss_mb": peak_rss,
    }
    if not traced:
        return outcome

    cpu = common.pid_cpu_seconds(server.pid) - cpu_before
    # The server records requests-per-connection when it sees a
    # connection close; wait for both load connections to be counted.
    closed_before = total(scraped_before, "repro_serve_requests_per_connection_count")
    deadline = time.monotonic() + 5.0
    try:
        while True:
            text = server.scrape(scraper)
            scraped_after = parse_prometheus(text)
            closed = total(scraped_after, "repro_serve_requests_per_connection_count")
            if closed - closed_before >= CONNECTIONS or time.monotonic() > deadline:
                break
            time.sleep(0.05)
    finally:
        scraper.close()

    def delta(name: str, **labels: str) -> float:
        return total(scraped_after, name, **labels) - total(scraped_before, name, **labels)

    layers: Dict[str, Dict[str, object]] = {}
    by_route: Dict[str, List[float]] = {name: [] for name in ROUTE_METRIC.values()}
    for client in clients:
        for kind, latency, _, _ in client.log:
            by_route[ROUTE_METRIC[kind]].append(latency)
    for name, values in by_route.items():
        layers[name] = common.metric(common.mean(values) * 1e3, "ms")
    ticks = delta("repro_dynamic_epoch_latency_seconds_count")
    layers["serve.ticks"] = common.metric(ticks, "count")
    layers["serve.tick_ms"] = common.metric(
        delta("repro_dynamic_epoch_latency_seconds_sum") / ticks * 1e3, "ms"
    )
    layers["serve.samples_per_tick"] = common.metric(
        delta("repro_serve_batch_size_sum") / delta("repro_serve_batch_size_count"), "count"
    )
    hits = delta("repro_serve_snapshots_total", route="/v1/allocation", result="hit")
    misses = delta("repro_serve_snapshots_total", route="/v1/allocation", result="miss")
    layers["serve.snapshot_hit_ratio"] = common.metric(hits / (hits + misses), "ratio")
    layers["serve.requests_per_connection"] = common.metric(
        delta("repro_serve_requests_per_connection_sum")
        / delta("repro_serve_requests_per_connection_count"),
        "count",
    )
    # The server's own epoch spans: the tick layers under HTTP load.
    steps = delta("repro_span_seconds_count", span="epoch")
    step_ms = delta("repro_span_seconds_sum", span="epoch") / steps * 1e3
    layers["dynamic.step_ms"] = common.metric(step_ms, "ms")
    named = 0.0
    for span, name in (("batch_refit", "dynamic.refit_ms"), ("allocate", "dynamic.allocate_ms"),
                       ("enforce", "dynamic.enforce_ms")):
        value = delta("repro_span_seconds_sum", span=span) / steps * 1e3
        layers[name] = common.metric(value, "ms")
        named += value
    layers["dynamic.step_other_ms"] = common.metric(step_ms - named, "ms")
    layers["core.refit_agents"] = common.metric(
        delta("repro_solver_batch_fit_agents_sum")
        / delta("repro_solver_batch_fit_agents_count"),
        "count",
    )
    layers["serve.metrics_kb"] = common.metric(len(text.encode()) / 1024.0, "KB")
    layers["serve.server_cpu_us_per_req"] = common.metric(cpu / len(latencies) * 1e6, "us")
    # The load shares the server's CPU, so its own work is part of every
    # request's latency; this is how much.
    layers["serve.client_cpu_us_per_req"] = common.metric(
        client_cpu / len(latencies) * 1e6, "us"
    )
    handled = delta("repro_serve_request_latency_seconds_sum")
    client_time = math.fsum(entry[1] for client in clients for entry in client.log)
    layers["trace.coverage"] = common.metric(handled / client_time, "ratio")
    outcome["layers"] = layers
    return outcome
