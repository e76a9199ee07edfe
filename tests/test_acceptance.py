"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-5, 8, 9, and 11 run over a shared 200-graph corpus of seeded
connected random graphs (n in 5..10, p in {0.2, 0.35, 0.5}), every
non-adjacent terminal pair; criteria 6, 7, and 10 draw their own fixed
instance counts (100/200/100).  All comparisons are exact.
"""

import itertools
import random

import pytest

import sepenum as sp
from sepenum.graph import Terminals
from sepenum.mincut import flow_call_count

from conftest import nonadjacent_pairs, pop_key, random_connected_graph
from oracle import (
    brute_chordless_paths_through,
    brute_minimal_separators,
    brute_minimum_separators,
)


def _k_values(n: int):
    return sorted({1, (n + 1) // 2, n})


@pytest.fixture(scope="module")
def small_minimal_runs(corpus, cache):
    """Criterion-1 enumeration runs, shared with criteria 2 and 11."""
    runs = []
    for G in corpus:
        for term in nonadjacent_pairs(G):
            for k in _k_values(G.n):
                marks = [flow_call_count()]
                emitted = []
                for S in sp.iter_small_minimal(G, term, k):
                    emitted.append(S)
                    marks.append(flow_call_count())
                runs.append((G, term, k, emitted, marks))
    return runs


def test_criterion_1_minimal_completeness(small_minimal_runs, cache):
    for G, term, k, emitted, _ in small_minimal_runs:
        expected = {X for X in cache.minimal(G, term) if len(X) <= k}
        assert len(emitted) == len(set(emitted)), (term, k)
        assert set(emitted) == expected, (term, k)
    print("\nPASS criterion 1: minimal-separator completeness, each exactly once "
          f"({len(small_minimal_runs)} runs)")


def test_criterion_2_emission_order(small_minimal_runs):
    for G, term, _, emitted, _ in small_minimal_runs:
        sizes = [pop_key(G, term.s, S)[0] for S in emitted]
        assert sizes == sorted(sizes)
    print("\nPASS criterion 2: |C_s| emission order non-decreasing")


def test_criterion_3_important_exactness_and_bound(corpus, cache):
    runs = 0
    for G in corpus:
        for term in nonadjacent_pairs(G):
            for k in range(1, G.n + 1):
                got = sp.enumerate_important(G, term, k)
                assert set(got) == cache.important(G, term, k), (term, k)
                assert len(got) <= 4 ** k
                runs += 1
    print(f"\nPASS criterion 3: important enumeration exact, |set| <= 4^k ({runs} runs)")


def test_criterion_4_unique_minimum_important(corpus, cache):
    pairs = 0
    for G in corpus:
        for term in nonadjacent_pairs(G):
            k = sp.kappa(G, term).kappa
            smallest = {X for X in cache.important(G, term, G.n) if len(X) == k}
            assert len(smallest) == 1, term
            assert sp.kappa(G, term).separator in smallest
            pairs += 1
    print(f"\nPASS criterion 4: exactly one minimum important separator ({pairs} pairs)")


def test_criterion_5_menger_consistency(corpus, cache):
    pairs = 0
    for G in corpus:
        for term in nonadjacent_pairs(G):
            cut = sp.kappa(G, term)
            assert len(cut.disjoint_paths) == cut.kappa == len(cut.separator)
            assert cut.kappa == min(len(X) for X in cache.minimum(G, term))
            for p1, p2 in itertools.combinations(cut.disjoint_paths, 2):
                assert not set(p1[1:-1]) & set(p2[1:-1])
            pairs += 1
    print(f"\nPASS criterion 5: Menger consistency ({pairs} pairs)")


def test_criterion_6_saturation_exclusion():
    rng = random.Random(2024)
    instances = 0
    while instances < 100:
        n = rng.randint(5, 9)
        G = random_connected_graph(n, rng.choice((0.2, 0.35, 0.5)), rng.randrange(10**6))
        pairs = nonadjacent_pairs(G)
        if not pairs:
            continue
        term = pairs[rng.randrange(len(pairs))]
        U = tuple(v for v in range(n) if v not in term and rng.random() < 0.35)
        got = brute_minimal_separators(sp.saturate(G, U), term)
        want = {X for X in brute_minimal_separators(G, term) if not set(X) & set(U)}
        assert got == want, (n, term, U)
        instances += 1
    print("\nPASS criterion 6: saturation preserves exactly the U-avoiding minimal separators (100 instances)")


def test_criterion_7_inclusion_characterization():
    rng = random.Random(777)
    instances = 0
    while instances < 200:
        n = rng.randint(5, 9)
        G = random_connected_graph(n, rng.choice((0.2, 0.35, 0.5)), rng.randrange(10**6))
        pairs = nonadjacent_pairs(G)
        if not pairs:
            continue
        term = pairs[rng.randrange(len(pairs))]
        I = tuple(v for v in range(n) if v not in term and rng.random() < 0.3)
        got = sp.min_separator_containing(G, term, I)
        minimum = brute_minimum_separators(G, term)
        has_superset = any(set(I) <= set(X) for X in minimum)
        assert (got is not None) == has_superset, (n, term, I)
        if got is not None:
            assert set(I) <= set(got) and got in minimum
        instances += 1
    print("\nPASS criterion 7: minimum-containing-I iff some minimum separator covers I (200 instances)")


def test_criterion_8_minimum_enumeration(corpus, cache):
    pairs = 0
    for G in corpus:
        for term in nonadjacent_pairs(G):
            got = list(sp.iter_minimum_separators(G, term))
            assert len(got) == len(set(got))
            assert set(got) == cache.minimum(G, term), term
            pairs += 1
    print(f"\nPASS criterion 8: minimum-separator enumeration exact ({pairs} pairs)")


def test_criterion_9_ranked_enumeration(corpus, cache):
    pairs = 0
    for G in corpus:
        for term in nonadjacent_pairs(G):
            got = list(sp.iter_ranked_separators(G, term))
            assert len(got) == len(set(got))
            assert all(sp.is_separator(G, term, X) for X in got)
            sizes = [len(X) for X in got]
            assert sizes == sorted(sizes)
            assert set(got) >= cache.minimal(G, term)
            minimum = cache.minimum(G, term)
            assert set(got[: len(minimum)]) == minimum
            pairs += 1
    print(f"\nPASS criterion 9: ranked enumeration contract ({pairs} pairs)")


def test_criterion_10_chordless_path_equivalence():
    rng = random.Random(31337)
    instances = 0
    while instances < 100:
        n = rng.randint(5, 9)
        G = random_connected_graph(n, rng.choice((0.2, 0.35, 0.5)), rng.randrange(10**6))
        pairs = nonadjacent_pairs(G)
        if not pairs:
            continue
        term = pairs[rng.randrange(len(pairs))]
        minimal = brute_minimal_separators(G, term)
        for v in range(n):
            if v in term:
                continue
            ref = brute_chordless_paths_through(G, term, v)
            path = sp.chordless_path_through(G, term, v)
            assert path == (ref[0] if ref else None), (n, term, v)
            assert (path is not None) == any(v in X for X in minimal), (n, term, v)
            if path:
                sep = sp.chordless_path_to_separator(G, term, path, v)
                assert v in sep
                assert sp.is_minimal_separator(G, term, sep)
        instances += 1
    print("\nPASS criterion 10: chordless-path equivalence and construction (100 instances)")


def test_criterion_11_delay_accounting(small_minimal_runs):
    worst = 0.0
    for G, term, k, emitted, marks in small_minimal_runs:
        bound = 4 * G.n * k * 4 ** k
        gaps = [b - a for a, b in zip(marks, marks[1:])]
        for gap in gaps:
            assert gap <= bound, (term, k, gap, bound)
            worst = max(worst, gap / bound)
    print(f"\nPASS criterion 11: flow calls between emissions <= 4nk4^k "
          f"(worst observed ratio {worst:.3f})")
