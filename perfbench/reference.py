"""An independent reference for HeteSim, PathSim and PCRW, plus a
tolerance-aware ranking comparator.

Built from the paper's definitions with numpy/scipy only, on edge lists
the benchmark generated itself -- nothing here imports the program:

* ``W_R``: weighted adjacency of relation ``R`` (parallel instances
  accumulate); the inverse relation uses ``W_R'``.
* ``U_R``: ``W_R`` row-normalised (transition probabilities, Def. 8).
* ``PM_P = U_R1 U_R2 ... U_Rl`` (reachable probability, Def. 9).
* HeteSim (Def. 10): split ``P = PL PR``; even length scores
  ``cos(PM_PL(s,:), PM_{PR^-1}(t,:))``.  Odd length decomposes the
  middle relation through edge objects ``E``, one per stored instance
  ``(a, b, w)`` with ``W_AE(a,e) = W_EB(e,b) = sqrt(w)`` (Def. 6 and
  Property 1), and appends the hop into ``E`` to each half.
* PathSim: ``2 M(x,y) / (M(x,x) + M(y,y))`` with ``M = W_R1 ... W_Rl``.
* PCRW: ``PM_P(s, t)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

# Two scores closer than this (relative, with an absolute floor for
# scores at zero) are the same score: summation order alone moves a
# cosine by a few ULPs, and a ranking may order such ties either way.
TIE_RTOL = 1e-12
TIE_ATOL = 1e-15

Hop = Tuple[str, bool]


def same_score(a: float, b: float) -> bool:
    """True when ``a`` and ``b`` are equal within the tie tolerance."""
    return abs(a - b) <= TIE_RTOL * max(abs(a), abs(b)) + TIE_ATOL


def _row_normalise(m: sparse.csr_matrix) -> sparse.csr_matrix:
    sums = np.asarray(m.sum(axis=1)).ravel()
    scale = np.zeros_like(sums)
    scale[sums > 0] = 1.0 / sums[sums > 0]
    return sparse.csr_matrix(sparse.diags(scale) @ m)


class ReferenceGraph:
    """Edge lists of the generated graph, mutable in step with the
    program's graph so answers can be checked on the graph as it stood."""

    def __init__(self, doc) -> None:
        self.types: Dict[str, Tuple[str, str]] = {
            r["name"]: (r["source"], r["target"])
            for r in doc["schema"]["relations"]
        }
        self.keys: Dict[str, List[str]] = {
            t: list(keys) for t, keys in doc["nodes"].items()
        }
        self.index: Dict[str, Dict[str, int]] = {
            t: {k: i for i, k in enumerate(keys)}
            for t, keys in self.keys.items()
        }
        self.edges: Dict[str, List[Tuple[int, int, float]]] = {
            r: [] for r in self.types
        }
        for relation, triples in doc["edges"].items():
            for s, t, w in triples:
                self.add_edge(relation, s, t, float(w))

    def _node(self, type_name: str, key: str) -> int:
        index = self.index[type_name]
        if key not in index:
            index[key] = len(self.keys[type_name])
            self.keys[type_name].append(key)
        return index[key]

    def add_edge(self, relation: str, s: str, t: str, w: float = 1.0) -> None:
        src, tgt = self.types[relation]
        self.edges[relation].append((self._node(src, s), self._node(tgt, t), w))

    def adjacency(self, relation: str, forward: bool = True) -> sparse.csr_matrix:
        src, tgt = self.types[relation]
        triples = self.edges[relation]
        rows = np.fromiter((e[0] for e in triples), dtype=np.int64, count=len(triples))
        cols = np.fromiter((e[1] for e in triples), dtype=np.int64, count=len(triples))
        data = np.fromiter((e[2] for e in triples), dtype=np.float64, count=len(triples))
        w = sparse.coo_matrix(
            (data, (rows, cols)), shape=(len(self.keys[src]), len(self.keys[tgt]))
        ).tocsr()
        w.sum_duplicates()
        return w if forward else w.T.tocsr()

    def end_type(self, hop: Hop) -> str:
        src, tgt = self.types[hop[0]]
        return tgt if hop[1] else src


def _reverse(hops: Sequence[Hop]) -> List[Hop]:
    return [(relation, not forward) for relation, forward in reversed(hops)]


class ReferenceScorer:
    """HeteSim / PathSim / PCRW scores on one snapshot of a graph."""

    def __init__(self, graph: ReferenceGraph) -> None:
        self.graph = graph
        self._adj: Dict[Hop, sparse.csr_matrix] = {}
        self._memo: Dict[Tuple[str, Tuple[Hop, ...]], object] = {}

    def _w(self, hop: Hop) -> sparse.csr_matrix:
        if hop not in self._adj:
            self._adj[hop] = self.graph.adjacency(hop[0], hop[1])
        return self._adj[hop]

    def _u(self, hop: Hop) -> sparse.csr_matrix:
        return _row_normalise(self._w(hop))

    def reach(self, hops: Sequence[Hop]) -> sparse.csr_matrix:
        """``PM_P`` for a non-empty hop list."""
        key = ("reach", tuple(hops))
        if key not in self._memo:
            pm = self._u(hops[0])
            for hop in hops[1:]:
                pm = sparse.csr_matrix(pm @ self._u(hop))
            self._memo[key] = pm
        return self._memo[key]

    def halves(self, hops: Sequence[Hop]):
        """``(left, right)`` with HeteSim = cosine of their rows."""
        key = ("halves", tuple(hops))
        if key in self._memo:
            return self._memo[key]
        n = len(hops)
        if n % 2 == 0:
            left = self.reach(hops[: n // 2])
            right = self.reach(_reverse(hops[n // 2:]))
        else:
            mid = n // 2
            w = self._w(hops[mid]).tocoo()
            roots = np.sqrt(w.data)
            edge_ids = np.arange(w.nnz)
            w_ae = sparse.csr_matrix(
                (roots, (w.row, edge_ids)), shape=(w.shape[0], w.nnz)
            )
            w_be = sparse.csr_matrix(
                (roots, (w.col, edge_ids)), shape=(w.shape[1], w.nnz)
            )
            left = _row_normalise(w_ae)
            if mid > 0:
                left = sparse.csr_matrix(self.reach(hops[:mid]) @ left)
            right = _row_normalise(w_be)
            if mid + 1 < n:
                right = sparse.csr_matrix(
                    self.reach(_reverse(hops[mid + 1:])) @ right
                )
        self._memo[key] = (left, right)
        return left, right

    def hetesim_rows(self, hops: Sequence[Hop], rows: Sequence[int]) -> np.ndarray:
        left, right = self.halves(hops)
        picked = left[list(rows)]
        block = (picked @ right.T).toarray()
        left_norms = np.sqrt(np.asarray(picked.multiply(picked).sum(axis=1))).ravel()
        right_norms = np.sqrt(np.asarray(right.multiply(right).sum(axis=1))).ravel()
        denom = left_norms[:, None] * right_norms[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denom > 0, block / denom, 0.0)

    def pathsim_rows(self, hops: Sequence[Hop], rows: Sequence[int]) -> np.ndarray:
        key = ("counts", tuple(hops))
        if key not in self._memo:
            m = self._w(hops[0])
            for hop in hops[1:]:
                m = sparse.csr_matrix(m @ self._w(hop))
            self._memo[key] = m
        m = self._memo[key]
        diag = m.diagonal()
        block = m[list(rows)].toarray()
        denom = diag[list(rows)][:, None] + diag[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denom > 0, 2.0 * block / denom, 0.0)

    def pcrw_rows(self, hops: Sequence[Hop], rows: Sequence[int]) -> np.ndarray:
        return self.reach(hops)[list(rows)].toarray()

    def rows(self, measure: str, hops: Sequence[Hop], rows: Sequence[int]) -> np.ndarray:
        return getattr(self, f"{measure}_rows")(hops, rows)


# ----------------------------------------------------------------------
# ranking comparison
# ----------------------------------------------------------------------
def check_ranking(
    ranking: Sequence[Tuple[str, float]],
    ref_scores: np.ndarray,
    keys: Sequence[str],
    k: int,
    source: Optional[str] = None,
    self_max: bool = False,
) -> Optional[str]:
    """``None`` when ``ranking`` is a correct top-``k`` of ``ref_scores``,
    else a one-line reason.

    Correct means: ``min(k, n)`` distinct known keys; each score equal to
    the reference within the tie tolerance; reference scores
    non-increasing down the list except between tied scores (which may
    come in either order); no omitted target scoring above the last one
    returned unless tied with it; every score in [0, 1] (P4); and, when
    ``self_max`` (symmetric HeteSim and PathSim paths), the first score
    equal to the source's own, which is the row maximum (P4).
    """
    position = {key: i for i, key in enumerate(keys)}
    expected = min(k, len(keys))
    if len(ranking) != expected:
        return f"returned {len(ranking)} targets, expected {expected}"
    seen = set()
    refs: List[float] = []
    for key, score in ranking:
        if key not in position:
            return f"unknown target {key!r}"
        if key in seen:
            return f"target {key!r} returned twice"
        seen.add(key)
        ref = float(ref_scores[position[key]])
        if not same_score(float(score), ref):
            return f"score of {key!r} is {score!r}, reference {ref!r}"
        if not (-TIE_ATOL <= float(score) <= 1.0 + TIE_RTOL):
            return f"score of {key!r} is {score!r}, outside [0, 1]"
        refs.append(ref)
    for (a, ra), (b, rb) in zip(zip(ranking, refs), zip(ranking[1:], refs[1:])):
        if rb > ra and not same_score(ra, rb):
            return f"{b[0]!r} ({rb!r}) ranked below {a[0]!r} ({ra!r})"
    if refs and expected < len(keys):
        mask = np.ones(len(keys), dtype=bool)
        mask[[position[key] for key, _ in ranking]] = False
        best_left = float(ref_scores[mask].max())
        if best_left > refs[-1] and not same_score(best_left, refs[-1]):
            return f"omitted a target scoring {best_left!r} > {refs[-1]!r}"
    if self_max and source is not None and refs:
        own = float(ref_scores[position[source]])
        if own > 0 and not same_score(refs[0], own):
            return f"top score {refs[0]!r} differs from self score {own!r}"
    return None


def check_symmetry(answers: Dict[str, Sequence[Tuple[str, float]]]) -> Optional[str]:
    """P3 on one symmetric path: whenever ``a``'s answer lists ``b`` and
    ``b``'s answer lists ``a``, the two scores agree."""
    scores = {
        (a, b): float(s) for a, ranking in answers.items() for b, s in ranking
    }
    for (a, b), s in scores.items():
        back = scores.get((b, a))
        if back is not None and not same_score(s, back):
            return f"score({a},{b})={s!r} but score({b},{a})={back!r}"
    return None


def key_rows(graph: ReferenceGraph, type_name: str, keys: Iterable[str]) -> List[int]:
    index = graph.index[type_name]
    return [index[key] for key in keys]
