"""Layer timing from the benchmark's own files.

A :class:`Probe` replaces chosen functions and methods of the program
with timing wrappers for the length of a traced run and restores them
afterwards; nothing under ``src/`` changes.  Each wrapper records the
call count, total time and *self* time (total minus the time of wrapped
calls nested inside it on the same thread), so the self times of every
probe under one top-level span add up to that span's total.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple


class Probe:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self.active = False

    # -- recording -------------------------------------------------------
    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, total: float, own: float) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + total
            self.self_time[name] = self.self_time.get(name, 0.0) + own

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _timed(self, name: str, fn: Callable, args, kwargs):
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            self._record(name, elapsed, elapsed - child)

    @contextmanager
    def span(self, name: str):
        """Time a block of benchmark code as a probe of its own."""
        if not self.active:
            yield
            return
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            self._record(name, elapsed, elapsed - child)

    # -- patching --------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        when: Optional[Callable[..., bool]] = None,
        after: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Time ``owner.attr`` as ``name``.

        ``when(*args, **kwargs)`` (optional) decides per call whether the
        call is timed; ``after(result)`` (optional) sees each result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        probe = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return original(*args, **kwargs)
            result = probe._timed(name, original, args, kwargs)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> "Probe":
        install_layer_probes(self)
        self.active = True
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def reset(self) -> None:
        with self._lock:
            self.calls.clear()
            self.total.clear()
            self.self_time.clear()
            self.counts.clear()

    def add(self, other: "Probe") -> None:
        """Add ``other``'s records to this probe's."""
        with self._lock:
            for mine, theirs in ((self.calls, other.calls), (self.total, other.total),
                                 (self.self_time, other.self_time),
                                 (self.counts, other.counts)):
                for name, value in theirs.items():
                    mine[name] = mine.get(name, 0) + value

    # -- reading ---------------------------------------------------------
    def mean(self, name: str, scale: float = 1.0) -> float:
        calls = self.calls.get(name, 0)
        return self.total.get(name, 0.0) / calls * scale if calls else 0.0


def install_layer_probes(probe: Probe) -> None:
    """Wrap the entry points of each program layer the benchmark drives."""
    from repro.core import backend, cache, engine, search
    from repro.core.measures import base, hetesim, pathsim, walk
    from repro.hin import graph, io
    from repro.runtime import resilience
    from repro.serve import batch, procs

    probe.wrap(io, "load_graph", "hin.load_graph")
    probe.wrap(graph.HeteroGraph, "add_edges", "hin.add_edges")
    probe.wrap(graph.HeteroGraph, "add_edge", "hin.add_edge")
    # Only rebuilds are timed: a cached CSR is returned without work.
    probe.wrap(
        graph._RelationEdges, "matrix", "hin.adjacency_rebuild",
        when=lambda edges, n_rows, n_cols: (
            edges._csr is None or edges._csr.shape != (n_rows, n_cols)
        ),
    )

    probe.wrap(engine.HeteSimEngine, "warm", "core.engine.warm")
    probe.wrap(engine.HeteSimEngine, "_materialise_halves", "core.engine.materialise")
    probe.wrap(engine.HeteSimEngine, "relevance_vector", "core.engine.relevance_vector")
    probe.wrap(engine.HeteSimEngine, "top_k", "core.engine.top_k")

    for method in ("reach_prob", "extended_product", "count_matrix"):
        probe.wrap(cache.PathMatrixCache, method, "core.cache.lookup")

    def count_steps(result) -> None:
        probe.count("core.backend.plan_steps", len(result[1].steps))

    for module in (backend, cache):
        probe.wrap(module, "execute_plan", "core.backend.execute_plan", after=count_steps)

    for module in (search, batch):
        probe.wrap(module, "select_top_k", "core.search.select_top_k")

    probe.wrap(base.Measure, "prepare", "core.measures.prepare")
    for prepared in (hetesim.HeteSimPrepared, pathsim.PathSimPrepared, walk.WalkPrepared):
        probe.wrap(prepared, "score_rows", "core.measures.score_rows")

    probe.wrap(resilience.ResilientRuntime, "top_k", "runtime.resilience.top_k")

    probe.wrap(batch.QueryServer, "run", "serve.batch.run")
    probe.wrap(procs.ProcessDispatcher, "map", "serve.procs.map")
    probe.wrap(procs.ProcessDispatcher, "close", "serve.procs.close")
    probe.wrap(procs, "publish_halves", "serve.procs.publish_halves")
