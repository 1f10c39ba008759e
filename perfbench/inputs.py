"""Seeded workload inputs: an ACM-like graph file plus query and write streams.

Everything here depends only on ``--seed`` and on the constants below,
never on ``repro.datasets``: the program under test receives the graph
as a file in its own JSON graph format and the queries and writes as
plain requests, so a change to the program's bundled datasets cannot
change a workload.

Sizes are fixed; the seed only moves *which* endpoints each edge joins.
Every seed therefore yields the same node and edge counts per type, and
run-to-run differences between seeds come from structure (degree skew),
not from volume.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

# -- graph make-up -----------------------------------------------------
N_CONFERENCES = 14
VENUES_PER_CONFERENCE = 5
N_AUTHORS = 2000
N_PAPERS = 5000
N_TERMS = 400
N_SUBJECTS = 24
N_AFFILIATIONS = 60
AREAS = 4
# Authors per paper and terms per paper cycle through fixed patterns, so
# the total edge count of each relation is the same for every seed.
AUTHORS_PER_PAPER = (1, 2, 3, 4)
TERMS_PER_PAPER = (3, 4, 5, 6)
HOME_SHARE = 0.8      # authors drawn from the venue's own community
AREA_TERM_SHARE = 0.7  # terms drawn from the paper's area vocabulary
ZIPF_EXPONENT = 0.9   # degree skew of authors, terms and conferences

SCHEMA = {
    "types": [
        {"name": "author", "code": "A"},
        {"name": "paper", "code": "P"},
        {"name": "venue", "code": "V"},
        {"name": "conference", "code": "C"},
        {"name": "term", "code": "T"},
        {"name": "subject", "code": "S"},
        {"name": "affiliation", "code": "F"},
    ],
    "relations": [
        {"name": "writes", "source": "author", "target": "paper"},
        {"name": "published_in", "source": "paper", "target": "venue"},
        {"name": "belongs_to", "source": "venue", "target": "conference"},
        {"name": "contains", "source": "paper", "target": "term"},
        {"name": "has_subject", "source": "paper", "target": "subject"},
        {"name": "affiliated_with", "source": "author",
         "target": "affiliation"},
    ],
}

# The four query paths, as the program's code strings and as
# (relation, forward?) hops for the independent reference.  APA and
# APVCVPA are symmetric and even-length, APVC is odd-length (edge-object
# split on published_in), APT is asymmetric.
PATHS: Dict[str, Tuple[Tuple[str, bool], ...]] = {
    "APA": (("writes", True), ("writes", False)),
    "APVCVPA": (
        ("writes", True), ("published_in", True), ("belongs_to", True),
        ("belongs_to", False), ("published_in", False), ("writes", False),
    ),
    "APVC": (("writes", True), ("published_in", True), ("belongs_to", True)),
    "APT": (("writes", True), ("contains", True)),
}
SYMMETRIC_PATHS = ("APA", "APVCVPA")

# -- streams -----------------------------------------------------------
QUERY_POOL = 512           # distinct query authors per seed (HTTP stream: 4 x 512)
TOPK = 10
BATCH_SIZE = 256
BATCH_VARIANTS = 8         # distinct batches before the batch stream repeats
INGEST_NEW_PAPERS = 2      # papers added by a full write cycle
INGEST_CONTAINS = 6        # edges added by a contains-only write cycle


def _zipf_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """Zipf weights over a seeded permutation of ``n`` items."""
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    weights = weights[rng.permutation(n)]
    return weights / weights.sum()


def _cdf(weights: np.ndarray) -> np.ndarray:
    return np.cumsum(weights)


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn from the distribution whose CDF is ``cdf``."""
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def author_key(i: int) -> str:
    return f"a{i:04d}"


def paper_key(i: int) -> str:
    return f"p{i:05d}"


def term_key(i: int) -> str:
    return f"t{i:03d}"


def venue_key(conf: int, year: int) -> str:
    return f"c{conf:02d}.v{year}"


class Inputs:
    """The graph (as the program's JSON document) plus every stream."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        conferences = [f"c{c:02d}" for c in range(N_CONFERENCES)]
        venues = [
            venue_key(c, y)
            for c in range(N_CONFERENCES)
            for y in range(VENUES_PER_CONFERENCE)
        ]
        authors = [author_key(i) for i in range(N_AUTHORS)]
        papers = [paper_key(i) for i in range(N_PAPERS)]
        terms = [term_key(i) for i in range(N_TERMS)]
        subjects = [f"s{i:02d}" for i in range(N_SUBJECTS)]
        affiliations = [f"f{i:02d}" for i in range(N_AFFILIATIONS)]

        area_of_conf = np.arange(N_CONFERENCES) % AREAS
        home_of_author = np.arange(N_AUTHORS) % N_CONFERENCES
        community = [
            np.nonzero(home_of_author == c)[0] for c in range(N_CONFERENCES)
        ]
        community_cdfs = [
            _cdf(_zipf_weights(len(members), rng)) for members in community
        ]
        author_weights = _zipf_weights(N_AUTHORS, rng)
        author_cdf = _cdf(author_weights)
        conf_weights = _zipf_weights(N_CONFERENCES, rng)
        area_terms = [
            np.arange(a, N_TERMS, AREAS) for a in range(AREAS)
        ]
        area_term_cdfs = [
            _cdf(_zipf_weights(len(vocab), rng)) for vocab in area_terms
        ]
        term_cdf = _cdf(_zipf_weights(N_TERMS, rng))

        edges: Dict[str, List[List[object]]] = {
            r["name"]: [] for r in SCHEMA["relations"]
        }
        for c in range(N_CONFERENCES):
            for y in range(VENUES_PER_CONFERENCE):
                edges["belongs_to"].append([venue_key(c, y), conferences[c], 1.0])
        for i in range(N_AUTHORS):
            edges["affiliated_with"].append(
                [authors[i], affiliations[int(rng.integers(N_AFFILIATIONS))], 1.0]
            )
        n_authors = np.resize(np.asarray(AUTHORS_PER_PAPER), N_PAPERS)
        n_terms = np.resize(np.asarray(TERMS_PER_PAPER), N_PAPERS)
        n_authors = n_authors[rng.permutation(N_PAPERS)]
        n_terms = n_terms[rng.permutation(N_PAPERS)]
        confs = rng.choice(N_CONFERENCES, size=N_PAPERS, p=conf_weights)
        for p in range(N_PAPERS):
            conf = int(confs[p])
            year = int(rng.integers(VENUES_PER_CONFERENCE))
            edges["published_in"].append([papers[p], venue_key(conf, year), 1.0])
            chosen = self._pick(
                rng, int(n_authors[p]), community[conf], community_cdfs[conf],
                author_cdf, HOME_SHARE, N_AUTHORS,
            )
            for a in chosen:
                edges["writes"].append([authors[a], papers[p], 1.0])
            area = int(area_of_conf[conf])
            for t in self._pick(
                rng, int(n_terms[p]), area_terms[area], area_term_cdfs[area],
                term_cdf, AREA_TERM_SHARE, N_TERMS,
            ):
                edges["contains"].append([papers[p], terms[t], 1.0])
            edges["has_subject"].append(
                [papers[p], subjects[int(rng.integers(N_SUBJECTS))], 1.0]
            )

        self.graph_doc = {
            "format_version": 1,
            "schema": SCHEMA,
            "nodes": {
                "author": authors,
                "paper": papers,
                "venue": venues,
                "conference": conferences,
                "term": terms,
                "subject": subjects,
                "affiliation": affiliations,
            },
            "edges": edges,
        }
        degree: Dict[str, int] = {}
        for s, _, _ in edges["writes"]:
            degree[str(s)] = degree.get(str(s), 0) + 1
        self.active_authors = sorted(degree)
        # The query pool takes authors at evenly spaced degree quantiles,
        # so every seed queries the same degree profile: hubs and
        # one-paper authors in the proportions the graph has them.
        by_degree = sorted(degree, key=lambda a: (degree[a], a))
        picks = np.linspace(0, len(by_degree) - 1, QUERY_POOL).round().astype(int)
        self.query_pool = [by_degree[int(i)] for i in picks]

    # -- graph construction helpers ------------------------------------
    @staticmethod
    def _pick(rng, count, local, local_cdf, global_cdf, local_share, n_all):
        """``count`` distinct items: each from ``local`` (Zipf) with
        probability ``local_share``, else from all ``n_all`` (Zipf)."""
        chosen: List[int] = []
        while len(chosen) < count:
            if rng.random() < local_share:
                item = int(local[min(_draw(local_cdf, rng), len(local) - 1)])
            else:
                item = min(_draw(global_cdf, rng), n_all - 1)
            if item not in chosen:
                chosen.append(item)
        return chosen

    def write_graph(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            json.dump(self.graph_doc, handle)

    # -- query streams -------------------------------------------------
    def _sources(self, rng: np.random.Generator, n: int) -> List[str]:
        """``n`` sources sweeping the pool in seeded random order, so
        each pool author is asked equally often."""
        out: List[str] = []
        while len(out) < n:
            out.extend(self.query_pool[int(i)] for i in rng.permutation(QUERY_POOL))
        return out[:n]

    def http_stream(self) -> List[Tuple[str, str]]:
        """Every (pool author, path) pair once, in seeded random order."""
        rng = np.random.default_rng([self.seed, 2])
        pairs = [(source, code) for code in PATHS for source in self.query_pool]
        return [pairs[int(i)] for i in rng.permutation(len(pairs))]

    def batches(self) -> List[List[Tuple[str, str, str]]]:
        """``BATCH_VARIANTS`` batches of ``(measure, source, path)``.

        Each batch holds the same make-up: hetesim on all four paths,
        pathsim on the two symmetric ones, pcrw on all four -- ten
        (measure, path) groups of near-equal size.
        """
        rng = np.random.default_rng([self.seed, 3])
        groups = (
            [("hetesim", code) for code in PATHS]
            + [("pathsim", code) for code in SYMMETRIC_PATHS]
            + [("pcrw", code) for code in PATHS]
        )
        out = []
        for _ in range(BATCH_VARIANTS):
            sources = self._sources(rng, BATCH_SIZE)
            out.append([
                (groups[i % len(groups)][0], source, groups[i % len(groups)][1])
                for i, source in enumerate(sources)
            ])
        return out

    # -- ingest stream -------------------------------------------------
    def ingest_cycle(self, index: int):
        """Writes and queries of write-then-query cycle ``index``.

        Even cycles add ``INGEST_NEW_PAPERS`` new papers (``writes``,
        ``published_in`` and ``contains`` edges: every query path goes
        stale); odd cycles add ``INGEST_CONTAINS`` ``contains`` edges
        between existing papers and terms (only ``APT`` goes stale).
        Returns ``(writes, queries)`` with ``writes`` a list of
        ``(relation, [(source, target), ...])`` and ``queries`` one
        ``(source, path)`` per query path.
        """
        rng = np.random.default_rng([self.seed, 4, index])
        writes: List[Tuple[str, List[Tuple[str, str]]]] = []
        if index % 2 == 0:
            w_pairs, v_pairs, t_pairs = [], [], []
            for j in range(INGEST_NEW_PAPERS):
                paper = f"n{index:06d}.{j}"
                conf = int(rng.integers(N_CONFERENCES))
                year = int(rng.integers(VENUES_PER_CONFERENCE))
                v_pairs.append((paper, venue_key(conf, year)))
                count = AUTHORS_PER_PAPER[(index // 2 + j) % len(AUTHORS_PER_PAPER)]
                picks = rng.choice(len(self.active_authors), size=count, replace=False)
                w_pairs.extend(
                    (self.active_authors[int(a)], paper) for a in picks
                )
                for t in rng.choice(N_TERMS, size=3, replace=False):
                    t_pairs.append((paper, term_key(int(t))))
            writes = [
                ("writes", w_pairs),
                ("published_in", v_pairs),
                ("contains", t_pairs),
            ]
        else:
            pairs = [
                (paper_key(int(rng.integers(N_PAPERS))),
                 term_key(int(rng.integers(N_TERMS))))
                for _ in range(INGEST_CONTAINS)
            ]
            writes = [("contains", pairs)]
        sources = self._sources(rng, len(PATHS))
        queries = list(zip(sources, PATHS))
        return writes, queries
