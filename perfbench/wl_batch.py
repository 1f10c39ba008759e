"""``batch_offline``: in-process ``QueryServer.run`` over 256-query batches.

Each batch mixes hetesim (four paths), pathsim (the two symmetric paths)
and pcrw (four paths) in equal shares and runs with the default
``backend`` at one worker.  After set-up nothing materialises, so block
scoring and selection take the time.  One operation is one query; a
batch that raises fails all of its queries.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import common
import inputs
import layers

# At two workers the default backend resolves to the process tier on a
# 2-CPU machine, which forks a pool per batch; its run-to-run spread
# (p90 IQR 25-30 % over ten seeds) exceeded the bounds, so the batch runs
# at one worker, where the default backend is the in-process thread tier.
WORKERS = 1
# Each epoch begins with a cold set-up and measures seconds / EPOCHS.
EPOCHS = 10


def _requests(ctx: common.Context):
    from repro.serve.batch import BatchRequest, Query

    return [
        BatchRequest(
            [Query(source, code, k=inputs.TOPK, measure=measure)
             for measure, source, code in batch],
            workers=WORKERS,
        )
        for batch in ctx.inputs.batches()
    ]


def _setup(ctx: common.Context, requests):
    from repro.core.engine import HeteSimEngine
    from repro.hin import io
    from repro.serve.batch import QueryServer

    graph = io.load_graph(ctx.graph_path)
    server = QueryServer(HeteSimEngine(graph))
    server.warm(list(inputs.PATHS))
    # The first batch prepares every (measure, path) group -- PathSim
    # counts and PCRW reach matrices included -- and is the first answer.
    first = server.run(requests[0])
    return server, first


class _Loop:
    """The closed loop of whole batches, kept across epochs.

    An answer equal to the variant's first answer to the same query is
    counted in ``repeats[(variant, position)]``; a different one is noted
    in ``answers`` to be checked on its own.
    """

    def __init__(self, requests, outcome: common.Outcome, epoch_s: float) -> None:
        self.requests = requests
        self.outcome = outcome
        self.epoch_s = epoch_s
        self.answers: Dict[Tuple[str, str, str], Dict[tuple, int]] = {}
        self.first_rankings: Dict[int, list] = {}
        self.repeats: Dict[Tuple[int, int], int] = {}
        self.backends: Dict[str, int] = {}
        self.sent = 0

    def epoch(self, state) -> common.Epoch:
        server, _ = state
        outcome, requests = self.outcome, self.requests
        samples: List[common.Sample] = []
        start = time.perf_counter()
        while time.perf_counter() - start < self.epoch_s:
            variant = self.sent % len(requests)
            request = requests[variant]
            self.sent += 1
            outcome.attempted += len(request.queries)
            tick = time.perf_counter()
            try:
                result = server.run(request)
            except Exception as exc:  # a raised error fails the whole batch
                outcome.failed += len(request.queries)
                outcome.notes.append(f"batch raised {type(exc).__name__}: {exc}")
                continue
            samples.append((time.perf_counter() - tick, len(request.queries)))
            self.backends[result.stats.backend] = self.backends.get(result.stats.backend, 0) + 1
            self._note(variant, request, result.rankings())
        return common.Epoch(time.perf_counter() - start, samples)

    def _note(self, variant, request, rankings) -> None:
        expected = self.first_rankings.setdefault(variant, rankings)
        if rankings is expected:
            return
        for position, (query, got, want) in enumerate(zip(request.queries, rankings, expected)):
            if got == want:
                self.repeats[(variant, position)] = self.repeats.get((variant, position), 0) + 1
            else:
                common.note_answer(self.answers, (query.measure, query.source, query.path), got)

    def check(self, ctx: common.Context) -> None:
        for variant, rankings in self.first_rankings.items():
            for position, (query, ranking) in enumerate(
                zip(self.requests[variant].queries, rankings)
            ):
                seen = self.answers.setdefault((query.measure, query.source, query.path), {})
                seen[ranking] = (seen.get(ranking, 0) + 1
                                 + self.repeats.get((variant, position), 0))
        self.outcome.notes.append(f"batches by backend: {self.backends}")
        common.check_answers(ctx.reference(), self.answers, self.outcome)


def run(ctx: common.Context) -> common.Outcome:
    outcome = common.Outcome()
    requests = _requests(ctx)
    loop = _Loop(requests, outcome, ctx.seconds / EPOCHS)
    more = lambda epochs: len(epochs) < EPOCHS  # noqa: E731
    if not ctx.trace:
        setups, epochs = common.run_epochs(lambda: _setup(ctx, requests), loop.epoch, more)
        outcome.put("peak_rss_mb", common.peak_rss_mb(), "MB")
        common.report_timing(outcome, setups, epochs, wall=False)
    else:
        _traced(ctx, requests, loop, more, outcome)
    loop.check(ctx)
    return outcome


def _traced(ctx, requests, loop, more, outcome) -> None:
    run = common.run_traced(ctx.probe, lambda: _setup(ctx, requests),
                            lambda state: state[0].engine, loop.epoch, more)
    probe = run.window
    batches = sum(len(e.samples) for e in run.traced)
    total = probe.total.get("serve.batch.run", 0.0)
    parts = {n: s for n, s in probe.self_time.items() if n != "serve.batch.run"}
    unattributed = probe.self_time.get("serve.batch.run", 0.0)
    layers.common_metrics(outcome, probe, load_s=common.p50(run.load_s),
                          warm_s=common.p50(run.warm_s), ops=batches,
                          hits=run.hits, misses=run.misses, cache_bytes=run.cache_bytes,
                          total=total, unattributed=unattributed)
    outcome.put("serve.batch.run_ms", probe.mean("serve.batch.run", 1e3), "ms")
    outcome.put("serve.batch.groups", _groups_per_batch(requests), "count")
    outcome.put("serve.procs.batches", loop.backends.get("process", 0), "count")
    outcome.put("serve.batch.unattributed_ms", unattributed / batches * 1e3 if batches else 0.0, "ms")
    outcome.put("obs.trace_overhead_pct", run.overhead_pct(), "%")
    outcome.notes.append(layers.split_line("batch_offline", total, parts, unattributed, batches, "batch"))


def _groups_per_batch(requests) -> float:
    groups = [len({(q.measure, q.path) for q in r.queries}) for r in requests]
    return sum(groups) / len(groups)
