"""Shared pieces of the three workloads: run context, statistics, checks."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import inputs
import reference
from probes import Probe


@dataclass
class Context:
    root: Path
    work: Path
    seconds: float
    trace: bool
    inputs: inputs.Inputs
    graph_path: Path
    probe: Probe = field(default_factory=Probe)
    _scorer: object = None

    def reference(self) -> reference.ReferenceScorer:
        """The reference on the generated graph as written (built once)."""
        if self._scorer is None:
            self._scorer = reference.ReferenceScorer(
                reference.ReferenceGraph(self.inputs.graph_doc)
            )
        return self._scorer


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


Sample = Tuple[float, int]  # (latency s, operations)


@dataclass
class Epoch:
    """One measured stretch of a run, begun by a cold set-up."""

    wall: float                 # seconds from the end of set-up to the last answer
    samples: List[Sample]

    @property
    def busy(self) -> float:
        return sum(s[0] for s in self.samples)

    def rate(self, wall: bool) -> float:
        """Operations per second of wall clock (concurrent clients) or
        of summed latency (one closed-loop caller, so time the benchmark
        spends between operations is not charged to the program)."""
        ops = sum(s[1] for s in self.samples)
        return ops / (self.wall if wall else self.busy)


def time_setup(setup: Callable[[], object]) -> Tuple[float, object]:
    """Seconds one ``setup()`` takes, after an untimed collection."""
    gc.collect()
    start = time.perf_counter()
    state = setup()
    return time.perf_counter() - start, state


# A run is cut into epochs, each begun by a cold set-up of the workload.
# The machines this runs on slow down in phases of a few seconds; set-ups
# spread over the run see the same phases as the measurements, and the
# median set-up and the median epoch are untouched by a minority of slow
# phases where a pooled figure is not.
def run_epochs(
    setup: Callable[[], object],
    epoch: Callable[[object], Epoch],
    more: Callable[[List[Epoch]], bool],
    teardown: Callable[[object], None] = lambda state: None,
) -> Tuple[List[float], List[Epoch]]:
    """Alternate a timed ``setup()`` and ``epoch(state)`` while
    ``more(epochs so far)``; return set-up seconds and epochs.  Each
    state is torn down and dropped before the next set-up."""
    setups: List[float] = []
    epochs: List[Epoch] = []
    while more(epochs):
        took, state = time_setup(setup)
        setups.append(took)
        try:
            epochs.append(epoch(state))
        finally:
            teardown(state)
            state = None
    return setups, epochs


def report_timing(outcome: Outcome, setups: Sequence[float],
                  epochs: Sequence[Epoch], wall: bool) -> None:
    """Put ``setup_s`` and, as medians over epochs, ``throughput_qps``,
    ``p50_ms`` and ``p90_ms``."""
    timed = [e for e in epochs if len(e.samples) >= 2]
    outcome.put("setup_s", p50(setups), "s")
    outcome.put("throughput_qps", p50([e.rate(wall) for e in timed]), "1/s")
    outcome.put("p50_ms", p50([p50([s[0] for s in e.samples]) for e in timed]) * 1e3, "ms")
    outcome.put("p90_ms", p50([p90([s[0] for s in e.samples]) for e in timed]) * 1e3, "ms")


@dataclass
class Traced:
    """What the traced epochs of a run recorded."""

    window: Probe = field(default_factory=Probe)  # the epochs, without set-up
    load_s: List[float] = field(default_factory=list)
    warm_s: List[float] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    cache_bytes: float = 0.0
    plain: List[Epoch] = field(default_factory=list)
    traced: List[Epoch] = field(default_factory=list)

    def overhead_pct(self) -> float:
        """Median untraced rate against median traced rate, in %."""
        plain = p50([e.rate(False) for e in self.plain])
        traced = p50([e.rate(False) for e in self.traced])
        return (plain / traced - 1.0) * 100.0


def run_traced(
    probe: Probe,
    setup: Callable[[], object],
    engine_of: Callable[[object], object],
    epoch: Callable[[object], Epoch],
    more: Callable[[List[Epoch]], bool],
) -> Traced:
    """Alternate untraced and traced epochs while ``more(epochs so far)``,
    at least one of each.

    Traced epochs run with the layer probes installed from before their
    set-up; the set-up's load and warm times are kept apart from what
    the epoch itself records.  Alternating short epochs puts both kinds
    in the same phases of the machine, so their rates give the tracing
    overhead.
    """
    out = Traced()
    epochs: List[Epoch] = []
    while more(epochs) or len(epochs) < 2:  # at least one of each kind
        traced = len(epochs) % 2 == 1
        if traced:
            probe.install()
        try:
            gc.collect()
            state = setup()
            if traced:
                out.load_s.append(probe.mean("hin.load_graph"))
                out.warm_s.append(probe.mean("core.engine.warm"))
                probe.reset()
                cache = engine_of(state).cache
                hits, misses = cache.hits, cache.misses
            done = epoch(state)
            if traced:
                out.hits += cache.hits - hits
                out.misses += cache.misses - misses
                out.cache_bytes = cache.nbytes
                out.window.add(probe)
                probe.reset()
        finally:
            if traced:
                probe.restore()
            state = None
        epochs.append(done)
        (out.traced if traced else out.plain).append(done)
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_answers(
    scorer: reference.ReferenceScorer,
    answers: Dict[Tuple[str, str, str], Dict[tuple, int]],
    outcome: Outcome,
    symmetry: bool = True,
) -> None:
    """Check ``{(measure, source, path): {ranking: occurrences}}``.

    Every distinct ranking is compared with the reference; a wrong one
    fails each operation that returned it.  With ``symmetry``, P3 is
    checked across the answers of each symmetric path and measure.
    """
    graph = scorer.graph
    by_group: Dict[Tuple[str, str], List[Tuple[str, tuple, int]]] = {}
    for (measure, source, code), rankings in answers.items():
        for ranking, times in rankings.items():
            by_group.setdefault((measure, code), []).append((source, ranking, times))
    for (measure, code), items in sorted(by_group.items()):
        hops = inputs.PATHS[code]
        keys = graph.keys[graph.end_type(hops[-1])]
        sources = sorted({source for source, _, _ in items})
        rows = reference.key_rows(graph, "author", sources)
        block = scorer.rows(measure, hops, rows)
        row_of = {source: i for i, source in enumerate(sources)}
        self_max = code in inputs.SYMMETRIC_PATHS and measure != "pcrw"
        for source, ranking, times in items:
            reason = reference.check_ranking(
                ranking, block[row_of[source]], keys, inputs.TOPK,
                source=source, self_max=self_max,
            )
            if reason is not None:
                outcome.failed += times
                outcome.wrong.append(f"{measure} {code} {source}: {reason}")
        if symmetry and self_max:
            reason = reference.check_symmetry(
                {source: ranking for source, ranking, _ in items}
            )
            if reason is not None:
                outcome.wrong.append(f"P3 {measure} {code}: {reason}")


def note_answer(
    answers: Dict[Tuple[str, str, str], Dict[tuple, int]],
    key: Tuple[str, str, str],
    ranking: tuple,
) -> None:
    seen = answers.setdefault(key, {})
    seen[ranking] = seen.get(ranking, 0) + 1
