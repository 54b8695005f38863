"""The gateway workload: ``repro-serve --listen`` driven over TCP.

The gateway runs as its own process (2 shards of 1 worker each).  This
process is the one load generator: it sends ``analyze`` requests for
the Van Roy hot set over 2 TCP connections.  The hot set is warmed
during set-up, so every timed request is a cache hit and the fixpoint
never runs.

Phases:

* closed loop with 1 request in flight: the gated latency and
  throughput, calibrated for host speed (see calib.py).  The
  gateway, its workers and this process share one CPU here (see
  ``common.pin_to_one_cpu``);
* on a second gateway free to use every CPU, open loop at 50 and at
  150 req/s: requests are sent on schedule
  whether or not earlier ones were answered, and each is timed from
  the moment it was due;
* a search of a fixed rate ladder for max_rps, the highest rate whose
  tail stays within ``TAIL_LIMIT_MS`` with nothing shed or failed and
  no growth in the requests in flight.

The open-loop figures are reported by name.  They are not gated: a
spell of CPU steal on a shared host pushes 150 req/s past the knee,
and the latency then jumps by whole multiples.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import catalog
from calib import between, host_factor
from common import (
    ROOT,
    children_peak_rss_mb,
    median,
    on_all_cpus,
    out_path,
    percentile,
    source_env,
    summarize,
    tail_percentile,
)

SHARDS = 2
CONNECTIONS = 2
#: Gateway processes started per run; set-up is their median.
SETUP_SAMPLES = 5
#: The closed-loop phase: (requests kept in flight, share of the run,
#: requests per window).  It gives the gated latency and throughput.
#: With the system on one CPU, more requests in flight would not raise
#: throughput; they would only queue.
CLOSED = (1, 0.55, 100)
#: The two open-loop fixed rates (req/s) and the share of the run each
#: takes.
FIXED_RATES = ((50, 0.1), (150, 0.15))
#: Share of the run spent searching the rate ladder for max_rps.
LADDER_SHARE = 0.2
#: Rate ladder for max_rps: 5% steps.
LADDER = tuple(round(80 * 1.05 ** k) for k in range(36))
#: Bisection levels of the ladder search, and probes budgeted per run
#: (a level whose probe fails probes its rung once more).
LEVELS = 5
PROBES = 8
TAIL_LIMIT_MS = 50.0
#: How long after its last send a step waits for stragglers.
DRAIN_S = 10.0
#: Longest a whole gateway session may take (set-up included).
SESSION_TIMEOUT_S = 150.0
#: Worker start-up samples in the traced run.
READY_SAMPLES = 3

_clock = time.perf_counter


class GatewayProcess:
    """One ``python -m repro.serve --listen`` process."""

    def __init__(self) -> None:
        self.started = _clock()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--listen",
             "127.0.0.1:0", "--shards", str(SHARDS), "--workers", "1"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            env=source_env(), cwd=ROOT, text=True,
        )
        try:
            banner = json.loads(self.process.stdout.readline())
        except ValueError:
            self.process.kill()
            self.process.wait()
            raise
        host, _, port = banner["listening"].rpartition(":")
        self.address = (host, int(port))

    def stop(self) -> None:
        """Ask for shutdown over the wire; kill if it does not exit."""
        try:
            asyncio.run(_one_shot(self.address, {"op": "shutdown"}))
            self.process.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired,
                asyncio.TimeoutError):
            self.process.kill()
            self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


async def _one_shot(address, request: dict) -> dict:
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write((json.dumps(request) + "\n").encode("utf-8"))
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), 30)
        return json.loads(line)
    finally:
        writer.close()
        await writer.wait_closed()


class Client:
    """``CONNECTIONS`` TCP connections; responses are matched by id."""

    def __init__(self) -> None:
        self.conns: List[Tuple] = []
        self.received: Dict[int, Tuple[float, str]] = {}
        self.readers: List[asyncio.Task] = []
        self.arrived = 0
        #: Set on every arrival (closed loops wait on it).
        self.arrival = asyncio.Event()

    async def open(self, address) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(*address)
            self.conns.append((reader, writer))
            self.readers.append(asyncio.ensure_future(self._read(reader)))

    async def _read(self, reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = _clock()
            response = json.loads(line)
            self.received[response["id"]] = (now, response)
            self.arrived += 1
            self.arrival.set()

    def send(self, ident: int, request: dict) -> None:
        payload = dict(request, id=ident)
        writer = self.conns[ident % CONNECTIONS][1]
        writer.write((json.dumps(payload) + "\n").encode("utf-8"))

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
        for _, writer in self.conns:
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)


class Run:
    """One gateway run: set-up samples, warm-up, steps."""

    def __init__(self, seed: int, seconds: int) -> None:
        from inprocess import references
        from inputs import gateway_stream
        from repro.bench import BENCHMARKS

        self.seconds = seconds
        self.hot = [{"op": "analyze", "text": b.source,
                     "entries": [b.entry]} for b in BENCHMARKS]
        self.refs = refs = references(self.hot)
        self.digests = [refs[(r["text"], tuple(r["entries"]))]["digest"]
                        for r in self.hot]
        self.schedule = gateway_stream(seed)
        self.cursor = 0
        self.next_id = 1
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.steps: List[dict] = []

    # ------------------------------------------------------------------

    def first_per_shard(self) -> List[int]:
        """The smallest hot-set program routed to each shard."""
        from repro.serve.gateway import (
            ConsistentHashRing, GatewayConfig, route_key)

        ring = ConsistentHashRing(
            range(SHARDS), replicas=GatewayConfig().hash_replicas)
        chosen: Dict[int, int] = {}
        for index in sorted(range(len(self.hot)),
                            key=lambda i: len(self.hot[i]["text"])):
            chosen.setdefault(ring.route(route_key(self.hot[index])), index)
        return [chosen[shard] for shard in sorted(chosen)]

    async def closed_loop(self, client: Client, indices: List[int]) -> list:
        """Send the hot-set requests ``indices`` together and wait for
        all their answers; returns the parsed responses."""
        idents = []
        for index in indices:
            ident = self.next_id
            self.next_id += 1
            client.send(ident, self.hot[index])
            idents.append((ident, index))
        deadline = _clock() + 60
        while any(i not in client.received for i, _ in idents):
            if _clock() > deadline:
                raise RuntimeError("gateway did not answer set-up requests")
            await asyncio.sleep(0.001)
        out = []
        for ident, index in idents:
            response = client.received.pop(ident)[1]
            self._check(response, index)
            out.append(response)
        return out

    def _check(self, response: dict, index: int) -> bool:
        from target import digest

        ok = bool(response.get("ok")) and response.get("status") == "exact"
        if ok and digest(response.get("result")) != self.digests[index]:
            self.wrong += 1
            ok = False
        return ok

    # ------------------------------------------------------------------

    async def step(self, client: Client, rate: float, duration: float,
                   counted: bool, address=None, gap: float = 0.2) -> dict:
        """One open-loop step at ``rate`` req/s for ``duration`` s,
        then ``gap`` s of quiet; with ``address``, one ``stats`` op is
        sent halfway through to read the shards' queue depth."""
        count = max(1, int(rate * duration))
        interval = 1.0 / rate
        idents: List[Tuple[int, int, float, float]] = []
        in_flight: List[int] = []
        sent = 0
        depth_max = 0
        stats_task = None
        writers = [writer for _, writer in client.conns]
        begin = _clock() + 0.01
        base_arrived = client.arrived
        for n in range(count):
            due = begin + n * interval
            delay = due - _clock()
            if delay > 0:
                await asyncio.sleep(delay)
            index = self.schedule[self.cursor % len(self.schedule)]
            self.cursor += 1
            ident = self.next_id
            self.next_id += 1
            sent_at = _clock()
            client.send(ident, self.hot[index])
            sent += 1
            in_flight.append(sent - (client.arrived - base_arrived))
            idents.append((ident, index, due, sent_at))
            if n % 16 == 15:
                await asyncio.gather(*(w.drain() for w in writers))
            if address is not None and n == count // 2:
                stats_task = asyncio.ensure_future(
                    _one_shot(address, {"op": "stats"}))
        wait_until = _clock() + DRAIN_S
        while (any(i not in client.received for i, *_ in idents)
               and _clock() < wait_until):
            await asyncio.sleep(0.002)
        if stats_task is not None:
            stats = await stats_task
            depth_max = max(
                (shard.get("depth", 0)
                 for shard in stats.get("stats", {}).get("shards", [])),
                default=0)
        latencies, lags, layers = [], [], []
        shed = failed = 0
        for ident, index, due, sent_at in idents:
            lags.append((sent_at - due) * 1e3)
            got = client.received.pop(ident, None)
            if got is None:
                failed += 1
                continue
            received_at, response = got
            if response.get("shed"):
                shed += 1
            if not self._check(response, index):
                failed += 1
                continue
            latency = (received_at - due) * 1e3
            latencies.append(latency)
            layers.append(_layer_split(response, latency, lags[-1], due,
                                       sent_at, received_at))
        quarter = max(1, len(in_flight) // 4)
        first = sum(in_flight[:quarter]) / quarter
        last = sum(in_flight[-quarter:]) / quarter
        stats = summarize(latencies) if latencies else {
            "p50": 0.0, "tail": float("inf"), "tail_pct": 0.0, "n": 0}
        result = {
            "rate": rate, "stats": stats,
            "failed": failed, "shed": shed, "lags": lags,
            "growth": last > 2.0 * first + 2.0, "layers": layers,
            "depth_max": depth_max, "counted": counted,
        }
        result["passed"] = (
            failed == 0 and shed == 0 and not result["growth"]
            and stats["tail"] <= TAIL_LIMIT_MS)
        if counted:
            self.attempted += count
            self.failed += failed
        self.steps.append(result)
        await asyncio.sleep(gap)  # let the shards go idle
        return result

    async def closed(self, client: Client, outstanding: int,
                     duration: float, per_window: int) -> dict:
        """A closed loop keeping ``outstanding`` requests in flight for
        about ``duration`` s, as windows of ``per_window`` requests with
        the host factor measured between them.  Calibrated: the median
        over windows of the mean latency and of completions per second,
        and the tail of the pooled latencies at the percentile the tail
        rule gives for one window."""
        factors = [host_factor()]
        parts = []
        phase_end = _clock() + duration
        while len(parts) < 3 or _clock() < phase_end:
            inflight: Dict[int, Tuple[int, float]] = {}
            done = []
            sent = 0
            started = _clock()
            while sent < per_window or inflight:
                while len(inflight) < outstanding and sent < per_window:
                    index = self.schedule[self.cursor % len(self.schedule)]
                    self.cursor += 1
                    ident = self.next_id
                    self.next_id += 1
                    inflight[ident] = (index, _clock())
                    client.send(ident, self.hot[index])
                    sent += 1
                client.arrival.clear()
                await asyncio.wait_for(client.arrival.wait(), DRAIN_S)
                for ident in [i for i in inflight if i in client.received]:
                    index, sent_at = inflight.pop(ident)
                    at, response = client.received.pop(ident)
                    done.append((index, response, (at - sent_at) * 1e3))
            elapsed = _clock() - started
            self.attempted += len(done)
            self.failed += sum(1 for index, response, _ in done
                               if not self._check(response, index))
            parts.append(([latency for *_, latency in done],
                          len(done) / elapsed))
            factors.append(host_factor())
        pct = tail_percentile(per_window)
        return {
            "mean": median([sum(lat) / len(lat) / between(factors, i)
                            for i, (lat, _) in enumerate(parts)]),
            "tail": percentile([v / between(factors, i)
                                for i, (lat, _) in enumerate(parts)
                                for v in lat], pct),
            "rate": median([rate * between(factors, i)
                            for i, (_, rate) in enumerate(parts)]),
            "raw_rate": median([rate for _, rate in parts]),
            "tail_pct": pct,
            "factor": median(factors),
        }

    async def max_rps(self, client: Client, duration: float) -> float:
        """Bisect the ladder for its highest passing rung.

        Interference from outside the system under test can only make
        a probe slower, never faster, so a rung whose probe fails is
        probed once more and counts as met if either attempt meets it."""
        low, high = -1, len(LADDER)
        for _ in range(LEVELS):
            if high - low <= 1:
                break
            middle = (low + high) // 2
            for _ in range(2):
                probe = await self.step(client, LADDER[middle], duration,
                                        counted=False)
                if probe["passed"]:
                    break
            if probe["passed"]:
                low = middle
            else:
                high = middle
        return float(LADDER[low]) if low >= 0 else float(LADDER[0]) / 2


def _layer_split(response: dict, latency: float, lag: float, due: float,
                 sent_at: float, received_at: float) -> dict:
    """Where one request's client latency went, from the timing fields
    each layer already returns: worker ``elapsed_ms``, supervisor
    ``elapsed_total_ms`` and gateway ``gateway_ms``."""
    gateway_ms = float(response.get("gateway_ms", 0.0))
    total_ms = float(response.get("elapsed_total_ms", gateway_ms))
    worker_ms = float(response.get("elapsed_ms", total_ms))
    return {
        "due": due, "sent": sent_at, "received": received_at,
        "latency": latency, "lag": lag, "gateway": gateway_ms,
        "total": total_ms,
        "wire": latency - lag - gateway_ms,
        "queue": gateway_ms - total_ms,
        "pipe": total_ms - worker_ms,
        "worker": worker_ms,
    }


def _spans_for(recorder, layers: List[dict]) -> None:
    """Spans of the timed requests.  The benchmark's own span runs from
    due time to arrival; the remote layers nest inside it with the
    durations their timing fields give.  Only durations cross the
    process boundary, so each remote span is centred in its parent."""
    for split in layers:
        parent = recorder.add("bench.request", "bench", split["due"],
                              split["received"])
        start, end = split["sent"], split["received"]
        for name, layer, length_ms in (
            ("serve.gateway.request", "serve.gateway",
             split["latency"] - split["lag"]),
            ("serve.shard.request", "serve.shard", split["gateway"]),
            ("serve.supervisor.execute", "serve.supervisor",
             split["total"]),
            ("serve.worker.handle", "serve.worker", split["worker"]),
        ):
            length = min(end - start, max(0.0, length_ms / 1e3))
            start += (end - start - length) / 2
            end = start + length
            parent = recorder.add(name, layer, start, end, parent=parent)


async def _warm(run: Run, client: Client) -> None:
    """Warm the hot set: one miss each, then one hit each."""
    for _ in range(2):
        run.attempted += len(run.hot)
        responses = await run.closed_loop(client, list(range(len(run.hot))))
        run.failed += sum(1 for r in responses if not r.get("ok"))


async def _session(run: Run, traced: bool) -> dict:
    """Set-up samples and the closed-loop phases on one CPU (run.py
    pins the benchmark), then the open-loop phases on a second gateway
    that may use every CPU: a system squeezed onto one CPU would meet
    150 req/s near its knee."""
    setups: List[Tuple[float, float]] = []
    first = run.first_per_shard()
    loop = asyncio.get_running_loop()
    gateway: Optional[GatewayProcess] = None
    budget = float(run.seconds)
    try:
        for _ in range(SETUP_SAMPLES):
            if gateway is not None:
                await client.close()
                await loop.run_in_executor(None, gateway.stop)
            factor = host_factor()
            gateway = GatewayProcess()
            client = Client()
            await client.open(gateway.address)
            await run.closed_loop(client, first)
            setups.append((_clock() - gateway.started, factor))
        await _warm(run, client)
        closed = await run.closed(client, CLOSED[0], budget * CLOSED[1],
                                  CLOSED[2])
        await client.close()
        await loop.run_in_executor(None, gateway.stop)
        gateway = None
        with on_all_cpus():
            gateway = GatewayProcess()
            client = Client()
            await client.open(gateway.address)
            await _warm(run, client)
            fixed = {}
            address = gateway.address if traced else None
            for rate, share in FIXED_RATES:
                fixed[rate] = await run.step(client, rate, budget * share,
                                             counted=True, address=address)
            max_rps = await run.max_rps(client,
                                        budget * LADDER_SHARE / PROBES)
            if traced:
                # The traced step repeats 150 req/s with spans recorded,
                # so its difference from the untraced step is the
                # overhead.
                fixed["traced"] = await run.step(
                    client, 150, budget * FIXED_RATES[1][1], counted=True)
            await client.close()
    finally:
        if gateway is not None:
            await loop.run_in_executor(None, gateway.stop)
    return {"setups": setups, "fixed": fixed, "max_rps": max_rps,
            "closed": closed}


def worker_ready_s() -> float:
    """Median time for ``python -m repro.serve.worker`` to answer its
    first request (import, config and one ``stats`` op)."""
    from repro.serve.service import ServiceConfig
    from repro.serve.worker import config_to_wire

    config = json.dumps(config_to_wire(ServiceConfig()), sort_keys=True)
    samples = []
    for _ in range(READY_SAMPLES):
        started = _clock()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=source_env(), cwd=ROOT, text=True,
        )
        try:
            process.stdin.write(config + "\n" + '{"op": "stats"}\n')
            process.stdin.flush()
            process.stdout.readline()
            samples.append(_clock() - started)
            process.stdin.close()
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
    return median(samples)


def run(seed: int, seconds: int, traced: bool) -> dict:
    session = Run(seed, seconds)
    outcome = asyncio.run(
        asyncio.wait_for(_session(session, traced), SESSION_TIMEOUT_S))
    r50, r150 = outcome["fixed"][50], outcome["fixed"][150]
    setups = outcome["setups"]
    base = {
        "attempted": session.attempted,
        "failed": session.failed,
        "setup_s": median([setup / factor for setup, factor in setups]),
        "setup_raw_s": median([setup for setup, _ in setups]),
    }
    lines = [f"gateway: {SHARDS} shards x 1 worker, open loop over "
             f"{CONNECTIONS} connections, {session.wrong} wrong answers"]
    for label, step in (("r50_ms", r50), ("r150_ms", r150)):
        stats = step["stats"]
        lines.append(
            f"  {label}.p50 {stats['p50']:.3f} ms  {label}.tail "
            f"{stats['tail']:.3f} ms (p{stats['tail_pct']:g} of "
            f"{stats['n']}), shed {step['shed']}, failed {step['failed']}")
    probes = [s for s in session.steps if not s["counted"]]
    lines.append(f"  max_rps {outcome['max_rps']:g} req/s (ladder probes: " +
                 ", ".join(f"{s['rate']}{'+' if s['passed'] else '-'}"
                           for s in probes) + ")")
    if not traced:
        base["peak_rss_mb"] = children_peak_rss_mb()
        closed = outcome["closed"]
        base["e2e"] = {
            "mean_ms": closed["mean"],
            "tail_ms": closed["tail"],
            "rate_per_s": closed["rate"],
        }
        lines.append(
            f"  calibrated, closed loop with {CLOSED[0]} in flight: mean_ms "
            f"{closed['mean']:.3f}, tail_ms (p{closed['tail_pct']:g}) "
            f"{closed['tail']:.3f}, rate_per_s {closed['rate']:.1f} (raw "
            f"{closed['raw_rate']:.1f}); host factor {closed['factor']:.3f}")
        base["lines"] = lines
        return base
    ready = worker_ready_s()
    base["peak_rss_mb"] = children_peak_rss_mb()
    traced_step = outcome["fixed"]["traced"]
    from spans import Recorder

    recorder = Recorder()
    _spans_for(recorder, traced_step["layers"])
    trace_path = out_path(f"trace-gateway-{seed}-{os.getpid()}.jsonl")
    recorder.write_jsonl(trace_path, process="client")
    self_ms = recorder.self_ms()
    splits = traced_step["layers"]
    untraced_p50 = r150["stats"]["p50"]
    traced_p50 = traced_step["stats"]["p50"]
    count = max(1, len(splits))
    layer = {
        f"self_ms.{name}": self_ms.get(name, 0.0) / count
        for name in catalog.LAYERS
    }
    layer.update({
        "serve.worker.ready_s": ready,
        "serve.worker.handle_ms": median([s["worker"] for s in splits]),
        "serve.supervisor.pipe_ms": median([s["pipe"] for s in splits]),
        "serve.shard.queue_ms": median([s["queue"] for s in splits]),
        "serve.shard.depth_max": max(
            step["depth_max"] for step in session.steps),
        "serve.shard.shed": sum(
            outcome["fixed"][rate]["shed"] for rate in (50, 150)),
        "serve.gateway.wire_ms": median([s["wire"] for s in splits]),
        "bench.gen_lag_ms": median(r150["lags"]),
        "bench.trace_overhead": (traced_p50 - untraced_p50) / untraced_p50,
        "bench.span_coverage": sum(self_ms.values()) / max(
            1e-9, sum(s["latency"] for s in splits)),
    })
    layer.update(_hot_set_layers(session))
    base["layer"] = layer
    base["lines"] = lines + [
        f"  trace: {len(splits)} requests at 150 req/s, p50 "
        f"{traced_p50:.3f} ms traced vs {untraced_p50:.3f} ms untraced",
        f"  trace written to {os.path.relpath(trace_path)}",
    ]
    return base


def _hot_set_layers(session: Run) -> dict:
    """Parse cost of the hot-set programs, measured by this process: a
    worker re-parses on every hit, but its own parse time is not visible
    from outside.  No timed request compiles or analyzes."""
    parse = median([ref["parse"] for ref in session.refs.values()])
    worker = median([s["worker"] for s in session.steps[-1]["layers"]])
    return {"prolog.parse_ms": parse,
            "prolog.parse_share_warm": parse / worker}
