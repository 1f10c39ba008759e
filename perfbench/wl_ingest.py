"""``ingest_mix``: writes through ``HeteroGraph.add_edges`` interleaved with
top-k queries on the same four paths.

Cycles alternate between adding new papers (``writes``,
``published_in`` and ``contains`` edges: every path goes stale) and
adding ``contains`` edges only (only ``APT`` goes stale), and each cycle
then asks one top-k query per path.  Adjacency rebuilds and half-matrix
re-materialisation dominate; scoring is minor.

Each epoch starts from a cold set-up on the generated graph and runs
the same ``ROUNDS`` rounds, so the graph sizes a round sees do not depend
on how fast the program is; epochs repeat until ``--seconds`` of rounds
have been measured.  The timed unit is a *round* of two cycles, one of
each kind: a median over single cycles would sit between the two kinds'
modes.  One operation is one ``add_edges`` call or one query (a round is
4 writes and 8 queries).  Answers of the checkpoint cycles are checked
against the reference on the graph as it stood when they were given,
i.e. right after that cycle's writes.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import common
import inputs
import layers
import reference


# Rounds per epoch: the graph grows by 2 papers per round, 128 in an epoch.
ROUNDS = 64


def is_checkpoint(cycle: int) -> bool:
    return cycle % 16 in (0, 1)


def _setup(ctx: common.Context):
    from repro.core.engine import HeteSimEngine
    from repro.hin import io

    graph = io.load_graph(ctx.graph_path)
    engine = HeteSimEngine(graph)
    engine.warm(list(inputs.PATHS))
    source, code = ctx.inputs.ingest_cycle(0)[1][0]
    engine.top_k(source, code, k=inputs.TOPK)
    return graph, engine


class _Loop:
    """``ROUNDS`` rounds per epoch; checkpoint answers kept across epochs."""

    def __init__(self, ctx: common.Context, outcome: common.Outcome) -> None:
        self.stream = [ctx.inputs.ingest_cycle(c) for c in range(2 * ROUNDS)]
        self.outcome = outcome
        self.probe = ctx.probe
        # {cycle: {("hetesim", source, path): {ranking: occurrences}}}
        self.checked: Dict[int, Dict[Tuple[str, str, str], Dict[tuple, int]]] = {}

    def epoch(self, state) -> common.Epoch:
        graph, engine = state
        span = self.probe.span
        samples: List[common.Sample] = []
        start = time.perf_counter()
        for first in range(0, 2 * ROUNDS, 2):
            ops = sum(len(w) + len(q) for w, q in self.stream[first:first + 2])
            tick = time.perf_counter()
            with span("ingest.round"):
                self._round(graph, engine, first, span)
            samples.append((time.perf_counter() - tick, ops))
        return common.Epoch(time.perf_counter() - start, samples)

    def _round(self, graph, engine, first, span) -> None:
        outcome = self.outcome
        for cycle in (first, first + 1):
            writes, queries = self.stream[cycle]
            outcome.attempted += len(writes) + len(queries)
            try:
                with span("ingest.write"):
                    for relation, pairs in writes:
                        graph.add_edges(relation, pairs)
            except Exception as exc:
                outcome.failed += len(writes)
                outcome.notes.append(f"write raised {type(exc).__name__}: {exc}")
            for source, code in queries:
                try:
                    ranking = tuple(engine.top_k(source, code, k=inputs.TOPK))
                except Exception as exc:
                    outcome.failed += 1
                    outcome.notes.append(f"query raised {type(exc).__name__}: {exc}")
                    continue
                if is_checkpoint(cycle):
                    common.note_answer(self.checked.setdefault(cycle, {}),
                                       ("hetesim", source, code), ranking)

    def check(self, ctx: common.Context) -> None:
        """Replay the write stream into the reference and check each
        checkpoint cycle's answers on the graph as it stood then."""
        if not self.checked:
            return
        graph = reference.ReferenceGraph(ctx.inputs.graph_doc)
        for cycle in range(max(self.checked) + 1):
            for relation, pairs in self.stream[cycle][0]:
                for s, t in pairs:
                    graph.add_edge(relation, s, t)
            if cycle in self.checked:
                common.check_answers(reference.ReferenceScorer(graph), self.checked[cycle],
                                     self.outcome, symmetry=False)


def run(ctx: common.Context) -> common.Outcome:
    outcome = common.Outcome()
    loop = _Loop(ctx, outcome)
    more = lambda epochs: sum(e.busy for e in epochs) < ctx.seconds  # noqa: E731
    if not ctx.trace:
        setups, epochs = common.run_epochs(lambda: _setup(ctx), loop.epoch, more)
        outcome.put("peak_rss_mb", common.peak_rss_mb(), "MB")
        common.report_timing(outcome, setups, epochs, wall=False)
        loop.check(ctx)
        return outcome

    run = common.run_traced(ctx.probe, lambda: _setup(ctx), lambda state: state[1],
                            loop.epoch, more)
    loop.check(ctx)
    probe = run.window
    rounds = sum(len(e.samples) for e in run.traced)
    total = probe.total["ingest.round"]
    unattributed = probe.self_time["ingest.round"]
    parts = {n: s for n, s in probe.self_time.items() if n != "ingest.round"}
    layers.common_metrics(outcome, probe, load_s=common.p50(run.load_s),
                          warm_s=common.p50(run.warm_s), ops=rounds,
                          hits=run.hits, misses=run.misses, cache_bytes=run.cache_bytes,
                          total=total, unattributed=unattributed)
    outcome.put("obs.trace_overhead_pct", run.overhead_pct(), "%")
    outcome.notes.append(layers.split_line("ingest_mix", total, parts, unattributed, rounds, "round"))
    return outcome
