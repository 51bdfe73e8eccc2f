"""Modular/median recognition, triple classification, 2-intersection route."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from swk import (
    PreconditionError,
    all_pairs_distances,
    cartesian_product,
    check_sw3_modular_bound,
    classify_triples,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube,
    is_median,
    is_modular,
    is_modular_triple,
    median_set,
    path_graph,
    star_graph,
    steiner_distance_3,
    steiner_distance_oracle,
    steiner_via_2intersection,
)
from swk import structure
from swk.bitset import bit_list, mask_of
from swk.generators import grid_graph, random_connected, random_connected_graph, random_tree
from swk.graphs import Graph, fibonacci_cube
from swk.structure import MAX_TRIPLE_N, TripleClassification, _scan_guard

from conftest import classify_by_median_sets, enumerate_connected_graphs, is_bipartite


def test_median_set_tree_unique():
    rng = random.Random(3)
    for _ in range(5):
        t = random_tree(8, rng)
        D = all_pairs_distances(t)
        for a, b, c in combinations(range(t.n), 3):
            assert median_set(D, a, b, c).bit_count() == 1


def test_median_set_triangle_empty():
    D = all_pairs_distances(complete_graph(3))
    assert median_set(D, 0, 1, 2) == 0


def test_median_set_k23_two_medians():
    g = complete_bipartite_graph(2, 3)  # part {0,1} degree 3, part {2,3,4} degree 2
    D = all_pairs_distances(g)
    assert bit_list(median_set(D, 2, 3, 4)) == [0, 1]


def test_modular_triple_c5():
    D = all_pairs_distances(cycle_graph(5))
    assert is_modular_triple(D, 0, 1, 2)
    assert not is_modular_triple(D, 0, 1, 3)
    assert is_modular_triple(D, 0, 0, 3)  # repeated vertex is its own median


def test_classify_triples_counts():
    assert classify_triples(complete_graph(3)).nonmodular == 1
    assert classify_triples(cycle_graph(5)).nonmodular == 5
    rng = random.Random(17)
    t = random_tree(9, rng)
    cls = classify_triples(t)
    assert cls == TripleClassification(84, 84, 0, True)


def test_classify_needs_three_vertices():
    with pytest.raises(PreconditionError):
        classify_triples(path_graph(2))


def test_scan_size_guard():
    with pytest.raises(PreconditionError):
        _scan_guard(MAX_TRIPLE_N + 1)


def test_recognition_flags():
    assert is_modular(hypercube(3)) and is_median(hypercube(3))
    assert is_modular(complete_bipartite_graph(2, 3))
    assert not is_median(complete_bipartite_graph(2, 3))
    assert not is_modular(cycle_graph(5))
    assert is_modular(cycle_graph(4)) and is_median(cycle_graph(4))
    assert is_modular(grid_graph(3, 4)) and is_median(grid_graph(3, 4))
    assert is_modular(star_graph(6)) and is_median(star_graph(6))
    for n in (3, 5, 6, 7):
        if n != 4:
            assert not is_modular(cycle_graph(n))
    for n in (3, 4, 5):
        assert not is_modular(complete_graph(n))


def test_modular_consistent_with_classification(small_corpus):
    for g in small_corpus:
        cls = classify_triples(g)
        assert is_modular(g) == (cls.nonmodular == 0)
        assert is_median(g) == (cls.nonmodular == 0 and cls.median_unique)


def test_classification_counts_match_per_triple_scan(small_corpus):
    # classify_triples batches interval masks; recount through median_set
    for g in small_corpus[:12]:
        D = all_pairs_distances(g)
        modular = sum(
            1
            for a, b, c in combinations(range(g.n), 3)
            if median_set(D, a, b, c)
        )
        cls = classify_triples(g)
        assert cls.modular == modular
        assert cls.nonmodular == cls.total - modular


def _assert_scan_matches_reference(g) -> None:
    expected = classify_by_median_sets(g)
    if g.n >= 3:
        assert classify_triples(g) == expected
    assert is_modular(g) == (expected.nonmodular == 0)
    assert is_median(g) == (expected.nonmodular == 0 and expected.median_unique)


def test_triple_scan_matches_median_sets_on_tiny_graphs():
    for g in [Graph(0, []), Graph(1, []), path_graph(2), path_graph(3), complete_graph(3)]:
        _assert_scan_matches_reference(g)


def test_triple_scan_matches_median_sets_on_corpora(small_corpus):
    rng = random.Random(65)
    for g in small_corpus + [random_connected(rng, 12) for _ in range(100)]:
        _assert_scan_matches_reference(g)


def test_triple_scan_matches_median_sets_at_word_boundaries():
    # 63, 64, 65, 128 and 129 vertices: around one and two 64-bit words;
    # paths on 64 and 65 vertices also straddle the int8/int16 switch of
    # the interval test (twice the diameter is 126, then 128)
    for rows, cols in [(7, 9), (8, 8), (5, 13), (8, 16), (3, 43)]:
        for g in [grid_graph(rows, cols), path_graph(rows * cols), cycle_graph(rows * cols)]:
            _assert_scan_matches_reference(g)


def test_triple_scan_matches_median_sets_across_blocks(monkeypatch):
    # n = 144 and 150 split the interval build into several row blocks
    for g in [fibonacci_cube(10), random_connected_graph(150, 3352, random.Random(150))]:
        _assert_scan_matches_reference(g)
    # a tiny budget makes every run a single a and every row block one row
    monkeypatch.setattr(structure, "_BLOCK", 1)
    rng = random.Random(66)
    for g in [random_connected(rng, 12) for _ in range(10)] + [path_graph(65), grid_graph(8, 9)]:
        _assert_scan_matches_reference(g)


def test_modular_implies_bipartite(small_corpus):
    for g in small_corpus:
        if is_modular(g):
            assert is_bipartite(g)


def test_modular_iff_sw3_bound_equality(small_corpus):
    for g in small_corpus:
        assert check_sw3_modular_bound(g).equality == is_modular(g)


def test_modular_iff_sw3_bound_equality_exhaustive_small():
    checked = 0
    for n in range(3, 7):
        for g in enumerate_connected_graphs(n):
            res = check_sw3_modular_bound(g)
            assert res.twice_sw3 >= res.scaled_wiener
            assert res.equality == is_modular(g)
            checked += 1
    assert checked > 20_000


def test_two_intersection_matches_oracle_exhaustive_small():
    # every terminal set of size >= 2 in every connected graph on <= 5 vertices
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            D = all_pairs_distances(g)
            for k in range(2, n + 1):
                for ids in combinations(range(n), k):
                    via = steiner_via_2intersection(D, ids)
                    if via is not None:
                        assert via == steiner_distance_oracle(g, ids)


def test_product_of_modular_is_modular():
    factors = [path_graph(3), cycle_graph(4), star_graph(4), complete_bipartite_graph(2, 3)]
    for a in factors:
        for b in factors:
            assert is_modular(cartesian_product(a, b))


def test_modular_triples_halve_the_perimeter(small_corpus):
    for g in small_corpus[:40]:
        D = all_pairs_distances(g)
        for a, b, c in combinations(range(g.n), 3):
            if is_modular_triple(D, a, b, c):
                per = int(D[a, b]) + int(D[a, c]) + int(D[b, c])
                assert per % 2 == 0
                assert steiner_distance_3(D, a, b, c) == per // 2


# -- Steiner distance through the 2-intersection interval ------------------------


def test_two_intersection_tree_triples():
    rng = random.Random(6)
    t = random_tree(9, rng)
    D = all_pairs_distances(t)
    for a, b, c in combinations(range(t.n), 3):
        assert steiner_via_2intersection(D, [a, b, c]) == steiner_distance_3(D, a, b, c)


def test_two_intersection_k23():
    g = complete_bipartite_graph(2, 3)
    D = all_pairs_distances(g)
    assert steiner_via_2intersection(D, [2, 3, 4]) == 3


def test_two_intersection_triangle_not_applicable():
    D = all_pairs_distances(complete_graph(3))
    assert steiner_via_2intersection(D, [0, 1, 2]) is None


def test_two_intersection_needs_two_terminals():
    D = all_pairs_distances(path_graph(3))
    with pytest.raises(PreconditionError):
        steiner_via_2intersection(D, [1])


def test_two_intersection_matches_oracle_when_applicable(small_corpus):
    rng = random.Random(44)
    for g in small_corpus[:30]:
        D = all_pairs_distances(g)
        sets = [list(S) for S in combinations(range(g.n), 3)]
        for _ in range(10):
            k = rng.randint(2, min(5, g.n))
            sets.append(rng.sample(range(g.n), k))
        for ids in sets:
            via = steiner_via_2intersection(D, ids)
            if via is not None:
                assert via == steiner_distance_oracle(g, ids)


def test_two_intersection_accepts_bitmask():
    D = all_pairs_distances(path_graph(4))
    assert steiner_via_2intersection(D, mask_of([0, 3])) == 3
