"""``http_topk``: two keep-alive connections sending ``POST /topk`` (k=10).

The server runs in its own process, started through ``python -m
repro.cli serve-http``, so the client's interpreter lock never shares a
core with the server's.  The load is closed-loop: each connection sends
its next request when the last one has been answered.  After set-up no
materialisation happens, so HTTP parsing, admission, the degradation
ladder and the event loop take most of each request.  One operation is
one request; a non-200 answer, a raised error or a wrong ranking fails
it.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import common
import inputs
import layers

CONNECTIONS = 2
ROUND = 64               # requests a connection sends between clock checks
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
# Each epoch starts a fresh server and measures seconds / EPOCHS.
EPOCHS = 10


class Server:
    """One ``serve-http`` process on a free port."""

    def __init__(self, ctx: common.Context) -> None:
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        self.log = open(ctx.work / "server.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve-http",
             str(ctx.graph_path), "--port", "0"],
            cwd=ctx.root, env=env, stdout=subprocess.PIPE, stderr=self.log,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.05)
            if ready:
                line = self.proc.stdout.readline().decode()
                if line.startswith("serving on "):
                    return int(line.split()[2].rsplit(":", 1)[1])
                if not line:
                    break
        self.stop()
        raise RuntimeError("serve-http did not report its address")

    def call(self, method: str, path: str, body=None):
        """One request on a fresh connection; the decoded JSON answer."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, payload, {"Content-Type": "application/json"})
            response = conn.getresponse()
            status, data = response.status, response.read()
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"{method} {path} answered {status}: {data[:200]!r}")
        return json.loads(data)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _setup(ctx: common.Context, servers: List[Server]) -> Server:
    """Start a server, warm the paths, answer the first request."""
    server = Server(ctx)
    servers.append(server)
    server.call("POST", "/warm", {"paths": list(inputs.PATHS)})
    source, code = ctx.inputs.http_stream()[0]
    server.call("POST", "/topk", {"source": source, "path": code, "k": inputs.TOPK})
    return server


def _client(port: int, stream, seconds: float, start_gate: threading.Barrier,
            clock: List[float], out: dict) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    headers = {"Content-Type": "application/json"}
    bodies = [
        json.dumps({"source": s, "path": p, "k": inputs.TOPK}) for s, p in stream
    ]
    samples: List[common.Sample] = []
    answers: Dict[Tuple[str, str, str], Dict[tuple, int]] = {}
    attempted = failed = degraded = 0
    errors: List[str] = []
    i = 0
    start_gate.wait()
    start = clock[0]
    try:
        while time.perf_counter() - start < seconds:
            for _ in range(ROUND):
                source, code = stream[i % len(stream)]
                body = bodies[i % len(stream)]
                i += 1
                attempted += 1
                tick = time.perf_counter()
                try:
                    conn.request("POST", "/topk", body, headers)
                    response = conn.getresponse()
                    data = response.read()
                except (OSError, http.client.HTTPException) as exc:
                    failed += 1
                    errors.append(f"{type(exc).__name__}: {exc}")
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                    continue
                done = time.perf_counter()
                samples.append((done - tick, 1))
                if response.status != 200:
                    failed += 1
                    errors.append(f"status {response.status}: {data[:120]!r}")
                    continue
                payload = json.loads(data)
                degraded += bool(payload["degraded"])
                ranking = tuple((key, score) for key, score in payload["ranking"])
                common.note_answer(answers, ("hetesim", source, code), ranking)
    finally:
        conn.close()
    out.update(samples=samples, answers=answers, attempted=attempted,
               failed=failed, degraded=degraded, errors=errors,
               end=time.perf_counter())


def _window(server: Server, stream, seconds: float):
    """Both connections for ``seconds``; returns merged client results."""
    clock = [0.0]
    gate = threading.Barrier(CONNECTIONS + 1, action=lambda: clock.__setitem__(0, time.perf_counter()))
    outs = [dict() for _ in range(CONNECTIONS)]
    threads = [
        threading.Thread(
            target=_client,
            args=(server.port, stream[j::CONNECTIONS], seconds, gate, clock, outs[j]),
        )
        for j in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    gate.wait()
    for thread in threads:
        thread.join()
    if any("end" not in out for out in outs):
        raise RuntimeError("a client thread died")
    merged = {
        "samples": [x for out in outs for x in out["samples"]],
        "attempted": sum(out["attempted"] for out in outs),
        "failed": sum(out["failed"] for out in outs),
        "degraded": sum(out["degraded"] for out in outs),
        "errors": [e for out in outs for e in out["errors"]],
        "wall": max(out["end"] for out in outs) - clock[0],
        "answers": [out["answers"] for out in outs],
    }
    return merged


def _server_stats(server: Server) -> Dict[str, float]:
    snapshot = server.call("GET", "/metrics/json")

    def total(name: str, field: str = "value", **labels) -> float:
        family = snapshot.get(name, {"series": []})
        return sum(
            s[field] for s in family["series"]
            if all(s["labels"].get(k) == v for k, v in labels.items())
        )

    return {
        "topk_seconds": total("repro_http_request_seconds", "sum", endpoint="topk"),
        "topk_count": total("repro_http_request_seconds", "count", endpoint="topk"),
        "shed": total("repro_http_shed_total"),
        "degraded": total("repro_http_degraded_total"),
        "materialisations": total("repro_halves_materialisations_total"),
        "cache_bytes": total("repro_cache_bytes"),
    }


class _Tally:
    """Counts and answers of every window of a run, checked at the end."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.degraded = 0
        self.errors: List[str] = []
        self.answers: Dict[Tuple[str, str, str], Dict[tuple, int]] = {}

    def add(self, result) -> None:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.degraded += result["degraded"]
        self.errors.extend(result["errors"])
        for answers in result["answers"]:
            for key, rankings in answers.items():
                for ranking, times in rankings.items():
                    seen = self.answers.setdefault(key, {})
                    seen[ranking] = seen.get(ranking, 0) + times

    def check(self, ctx: common.Context, outcome: common.Outcome) -> None:
        outcome.attempted += self.attempted
        outcome.failed += self.failed
        outcome.notes.extend(self.errors[:5])
        if self.degraded:
            outcome.notes.append(f"{self.degraded} degraded answers")
        common.check_answers(ctx.reference(), self.answers, outcome)


def run(ctx: common.Context) -> common.Outcome:
    outcome = common.Outcome()
    stream = ctx.inputs.http_stream()
    servers: List[Server] = []
    tally = _Tally()
    try:
        if not ctx.trace:
            peaks: List[float] = []

            def epoch(server: Server) -> common.Epoch:
                result = _window(server, stream, ctx.seconds / EPOCHS)
                tally.add(result)
                return common.Epoch(result["wall"], result["samples"])

            def teardown(server: Server) -> None:
                peaks.append(server.peak_rss_mb())
                server.stop()

            setups, epochs = common.run_epochs(
                lambda: _setup(ctx, servers), epoch,
                lambda epochs: len(epochs) < EPOCHS, teardown,
            )
            outcome.put("peak_rss_mb", max(peaks), "MB")
            common.report_timing(outcome, setups, epochs, wall=True)
        else:
            _traced(ctx, stream, servers, tally, outcome)
    finally:
        for server in servers:
            server.stop()
    tally.check(ctx, outcome)
    return outcome


def _traced(ctx, stream, servers, tally, outcome) -> None:
    server = _setup(ctx, servers)
    before = _server_stats(server)
    traced = _window(server, stream, ctx.seconds)
    after = _server_stats(server)
    tally.add(traced)
    served = after["topk_count"] - before["topk_count"]
    server_ms = (after["topk_seconds"] - before["topk_seconds"]) / served * 1e3
    client_ms = sum(s[0] for s in traced["samples"]) / len(traced["samples"]) * 1e3

    # The in-process share of a request: the same query stream through
    # the engine and the resilient runtime, probes installed.
    probe = ctx.probe.install()
    try:
        from repro.core.engine import HeteSimEngine
        from repro.hin import io

        engine = HeteSimEngine(io.load_graph(ctx.graph_path))
        engine.warm(list(inputs.PATHS))
        load_s = probe.mean("hin.load_graph")
        warm_s = probe.mean("core.engine.warm")
        probe.reset()
        runtime = engine.runtime(on_limit="degrade")
        hits0, misses0 = engine.cache.hits, engine.cache.misses
        replay_degraded = 0
        for source, code in stream:
            engine.top_k(source, code, k=inputs.TOPK)
            replay_degraded += runtime.top_k(source, code, k=inputs.TOPK).degraded
        hits, misses = engine.cache.hits - hits0, engine.cache.misses - misses0
    finally:
        probe.restore()

    n = len(stream)
    # Both the direct and the runtime call run engine.top_k once each.
    engine_top_k = probe.total.get("core.engine.top_k", 0.0) / (2 * n)
    resilience = probe.total.get("runtime.resilience.top_k", 0.0) / n
    layers.common_metrics(outcome, probe, load_s=load_s, warm_s=warm_s, ops=2 * n,
                          hits=hits, misses=misses, cache_bytes=after["cache_bytes"],
                          total=client_ms * served / 1e3,
                          unattributed=(client_ms - server_ms) * served / 1e3)
    outcome.put("core.engine.materialisations",
                after["materialisations"] - before["materialisations"], "count")
    outcome.put("runtime.resilience.overhead_us", (resilience - engine_top_k) * 1e6, "us")
    outcome.put("runtime.resilience.degraded", traced["degraded"] + replay_degraded, "count")
    outcome.put("serve.http.server_ms", server_ms, "ms")
    outcome.put("serve.http.outside_ms", client_ms - server_ms, "ms")
    outcome.put("serve.admission.shed", after["shed"], "count")
    # The server runs unwrapped, so nothing is traced in the measured
    # requests; the layer figures come from the in-process replay.
    outcome.put("obs.trace_overhead_pct", 0.0, "%")
    outcome.notes.append(
        f"split http_topk: per request ms: server {server_ms:.3f} + outside the server "
        f"{client_ms - server_ms:.3f} = client mean {client_ms:.3f}; in-process replay: "
        f"engine.top_k {engine_top_k * 1e3:.3f} + resilience "
        f"{(resilience - engine_top_k) * 1e3:.3f} of the server's share"
    )
