"""Tests of the benchmark's own reference and ranking comparator.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The tiny graph: authors a1, a2; papers p1, p2, p3; conferences c1, c2;
a1 writes p1 and p2, a2 writes p2 and p3; p1 and p2 appear in c1, p3 in
c2.  Every expected value below is worked by hand from the paper's
definitions.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402
from reference import ReferenceGraph, ReferenceScorer, check_ranking  # noqa: E402

APC = (("writes", True), ("published_in", True))
AP = (("writes", True),)
APA = (("writes", True), ("writes", False))
APCPA = APC + (("published_in", False), ("writes", False))


@pytest.fixture
def scorer() -> ReferenceScorer:
    doc = {
        "schema": {"relations": [
            {"name": "writes", "source": "author", "target": "paper"},
            {"name": "published_in", "source": "paper", "target": "conference"},
        ]},
        "nodes": {"author": ["a1", "a2"], "paper": ["p1", "p2", "p3"],
                  "conference": ["c1", "c2"]},
        "edges": {
            "writes": [["a1", "p1", 1.0], ["a1", "p2", 1.0],
                       ["a2", "p2", 1.0], ["a2", "p3", 1.0]],
            "published_in": [["p1", "c1", 1.0], ["p2", "c1", 1.0],
                             ["p3", "c2", 1.0]],
        },
    }
    return ReferenceScorer(ReferenceGraph(doc))


def test_even_path_hetesim(scorer):
    # U_AP(a1) = (1/2, 1/2, 0), U_CP(c1) = (1/2, 1/2, 0), U_CP(c2) = (0, 0, 1).
    # a1-c1: (1/4 + 1/4) / (sqrt(1/2) sqrt(1/2)) = 1; a1-c2: 0.
    # a2-c1: (1/4) / (1/2) = 1/2; a2-c2: (1/2) / (sqrt(1/2) * 1) = sqrt(1/2).
    got = scorer.hetesim_rows(APC, [0, 1])
    assert got == pytest.approx(np.array([[1.0, 0.0], [0.5, math.sqrt(0.5)]]))


def test_odd_path_uses_edge_objects(scorer):
    # Edge objects e1=(a1,p1) e2=(a1,p2) e3=(a2,p2) e4=(a2,p3).
    # U_AE(a1) = (1/2, 1/2, 0, 0); U_PE(p2) = (0, 1/2, 1/2, 0);
    # a1-p2: (1/4) / (sqrt(1/2) sqrt(1/2)) = 1/2; a1-p1: (1/2)/(sqrt(1/2)*1).
    got = scorer.hetesim_rows(AP, [0])[0]
    assert got == pytest.approx([math.sqrt(0.5), 0.5, 0.0])


def test_symmetric_path_properties(scorer):
    # APA: U_AP(a1).U_AP(a2) = 1/4, norms sqrt(1/2) each -> 1/2; self = 1.
    got = scorer.hetesim_rows(APA, [0, 1])
    assert got == pytest.approx(np.array([[1.0, 0.5], [0.5, 1.0]]))
    longer = scorer.hetesim_rows(APCPA, [0, 1])
    assert longer == pytest.approx(longer.T)          # P3
    assert np.diag(longer) == pytest.approx([1.0, 1.0])  # P4 self-maximum
    assert longer.max() <= 1.0 + 1e-12


def test_pathsim_and_pcrw(scorer):
    # M_APA = W_AP W_PA = [[2, 1], [1, 2]] -> PathSim(a1, a2) = 2/4.
    assert scorer.pathsim_rows(APA, [0])[0] == pytest.approx([1.0, 0.5])
    # PCRW APC: a1 -> c1 with 1/2 + 1/2; a2 -> c1 1/2, c2 1/2.
    assert scorer.pcrw_rows(APC, [0, 1]) == pytest.approx(
        np.array([[1.0, 0.0], [0.5, 0.5]])
    )


def test_weighted_edges_accumulate(scorer):
    scorer.graph.add_edge("writes", "a1", "p1")  # parallel instance: weight 2
    fresh = ReferenceScorer(scorer.graph)
    # U_AP(a1) = (2/3, 1/3, 0): PCRW a1 -> c1 = 1.
    assert fresh.pcrw_rows(APC, [0])[0] == pytest.approx([1.0, 0.0])
    # Odd AP: W_AE(a1) = (sqrt 2, 1, 0, 0) -> U = (s/(s+1), 1/(s+1), 0, 0).
    s = math.sqrt(2.0)
    left = np.array([s, 1.0, 0, 0]) / (s + 1)
    right_p1 = np.array([1.0, 0, 0, 0])
    expected = left @ right_p1 / np.linalg.norm(left)
    assert fresh.hetesim_rows(AP, [0])[0][0] == pytest.approx(expected)


# ----------------------------------------------------------------------
# comparator
# ----------------------------------------------------------------------
KEYS = ["A206", "A220", "A362", "A400", "A500"]
TIED = 0.4330127018922193
SCORES = np.array([TIED, math.nextafter(TIED, math.inf), TIED, 0.25, 0.125])


def _ranking(order):
    return [(KEYS[i], float(SCORES[i])) for i in order]


def test_comparator_accepts_exact_ranking():
    assert check_ranking(_ranking([1, 0, 2, 3]), SCORES, KEYS, 4) is None


def test_comparator_accepts_one_ulp_tie_reordering():
    # A220 is one ULP above A206 and A362: any order of the three is right.
    assert check_ranking(_ranking([0, 2, 1, 3]), SCORES, KEYS, 4) is None
    assert check_ranking(_ranking([2, 0, 1]), SCORES, KEYS, 3) is None


def test_comparator_rejects_swapped_non_tied_pair():
    reason = check_ranking(_ranking([0, 1, 3, 2]), SCORES, KEYS, 4)
    assert reason is not None and "ranked below" in reason


def test_comparator_rejects_score_off_by_1e6():
    ranking = _ranking([0, 1, 2, 3])
    ranking[3] = (ranking[3][0], ranking[3][1] + 1e-6)
    reason = check_ranking(ranking, SCORES, KEYS, 4)
    assert reason is not None and "reference" in reason


def test_comparator_rejects_omitted_better_target():
    reason = check_ranking(_ranking([0, 1, 2, 4]), SCORES, KEYS, 4)
    assert reason is not None and "omitted" in reason


def test_comparator_rejects_wrong_length_and_range():
    assert check_ranking(_ranking([0, 1]), SCORES, KEYS, 4) is not None
    high = np.array([1.5, 0.1])
    assert "outside" in check_ranking([("x", 1.5), ("y", 0.1)], high, ["x", "y"], 2)


def test_comparator_self_maximum():
    scores = np.array([1.0, 0.9, 0.2])
    keys = ["me", "b", "c"]
    assert check_ranking([("me", 1.0), ("b", 0.9)], scores, keys, 2,
                         source="me", self_max=True) is None
    bad = np.array([0.8, 0.9, 0.2])
    assert check_ranking([("b", 0.9), ("me", 0.8)], bad, keys, 2,
                         source="me", self_max=True) is not None


def test_symmetry_check():
    good = {"a": [("b", 0.5)], "b": [("a", 0.5)]}
    assert reference.check_symmetry(good) is None
    bad = {"a": [("b", 0.5)], "b": [("a", 0.5 + 1e-9)]}
    assert reference.check_symmetry(bad) is not None
