"""Steiner distances (three routes), Steiner k-Wiener index, mean bounds."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from swk import (
    Graph,
    PreconditionError,
    all_pairs_distances,
    average_distance,
    check_bounds,
    check_sw3_modular_bound,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube,
    jiang_f,
    lucas_cube,
    mean_steiner,
    path_graph,
    star_graph,
    steiner_distance_3,
    steiner_distance_dw,
    steiner_distance_oracle,
    steiner_distance_table,
    steiner_wiener,
    wiener_index,
)
from swk import steiner
from swk.bitset import mask_of
from swk.generators import (
    curated_modular,
    random_connected,
    random_connected_graph,
    random_tree,
)
from swk.graphs import fibonacci_cube
from swk.structure import _by_order

from conftest import (
    connected_graphs,
    proved_hold,
    relabelled,
    sw3_by_triples,
    tree_steiner_distance,
)


# -- steiner_distance_3 -------------------------------------------------------


def test_three_terminal_star_and_triangle():
    D = all_pairs_distances(star_graph(4))
    assert steiner_distance_3(D, 1, 2, 3) == 3
    D3 = all_pairs_distances(complete_graph(3))
    assert steiner_distance_3(D3, 0, 1, 2) == 2


def test_three_terminal_c5():
    D = all_pairs_distances(cycle_graph(5))
    assert steiner_distance_3(D, 0, 2, 4) == 3


def test_three_terminal_degenerate():
    D = all_pairs_distances(path_graph(4))
    assert steiner_distance_3(D, 1, 1, 3) == D[1, 3]
    assert steiner_distance_3(D, 2, 2, 2) == 0


# -- Dreyfus-Wagner -----------------------------------------------------------


def test_dw_small_terminal_sets():
    g = path_graph(5)
    assert steiner_distance_dw(g, [2]) == 0
    assert steiner_distance_dw(g, [0, 4]) == 4
    assert steiner_distance_dw(g, (4, 0)) == 4  # order and type agnostic


def test_dw_accepts_bitmask():
    g = cycle_graph(6)
    assert steiner_distance_dw(g, mask_of([0, 2, 4])) == 4


def test_dw_hypercube_even_weight_set():
    # four pairwise-distance-2 terminals; two extra branch vertices needed
    q3 = hypercube(3)
    even = [i for i, lab in enumerate(q3.labels) if lab.count("1") % 2 == 0]
    assert steiner_distance_dw(q3, even) == 5
    assert steiner_distance_oracle(q3, even) == 5


def test_dw_rejects_bad_terminals():
    g = path_graph(13)
    with pytest.raises(PreconditionError, match=r"too large \(13 > 12\)"):
        steiner_distance_dw(g, list(range(13)))
    with pytest.raises(PreconditionError, match="empty"):
        steiner_distance_dw(g, [])
    with pytest.raises(PreconditionError):
        steiner_distance_dw(g, [13])


# -- exponential oracle ---------------------------------------------------------


def test_oracle_basics():
    g = path_graph(4)
    assert steiner_distance_oracle(g, [0, 1, 2]) == 2  # already connected
    assert steiner_distance_oracle(g, [0, 3]) == 3
    c6 = cycle_graph(6)
    assert steiner_distance_oracle(c6, [0, 2, 4]) == 4


def test_oracle_size_guard():
    with pytest.raises(PreconditionError, match="oracle"):
        steiner_distance_oracle(path_graph(25), [0, 1])


def test_subset_table_matches_oracle():
    rng = random.Random(5)
    for _ in range(5):
        g = random_connected(rng, 8)
        table = steiner_distance_table(g)
        for _ in range(20):
            k = rng.randint(1, g.n)
            ids = sorted(rng.sample(range(g.n), k))
            assert table[mask_of(ids)] == steiner_distance_oracle(g, ids)


def test_three_routes_agree_on_triples(small_corpus):
    for g in small_corpus[:40]:
        D = all_pairs_distances(g)
        for a, b, c in combinations(range(g.n), 3):
            s3 = steiner_distance_3(D, a, b, c)
            assert s3 == steiner_distance_dw(g, [a, b, c])
            assert s3 == steiner_distance_oracle(g, [a, b, c])


def test_monotone_under_terminal_growth():
    rng = random.Random(31)
    for _ in range(10):
        g = random_connected(rng, 9)
        table = steiner_distance_table(g)
        for _ in range(25):
            k = rng.randint(1, g.n - 1)
            ids = rng.sample(range(g.n), k)
            v = rng.choice([x for x in range(g.n) if x not in ids])
            assert table[mask_of(ids)] <= table[mask_of(ids + [v])]


def test_triple_sandwich(small_corpus):
    for g in small_corpus[:30]:
        D = all_pairs_distances(g)
        for a, b, c in combinations(range(g.n), 3):
            s3 = steiner_distance_3(D, a, b, c)
            dab, dac, dbc = int(D[a, b]), int(D[a, c]), int(D[b, c])
            assert max(dab, dac, dbc) <= s3
            assert 2 * s3 >= dab + dac + dbc
            assert s3 <= min(dab + dac, dab + dbc, dac + dbc)


@settings(max_examples=50, deadline=None)
@given(connected_graphs(min_n=3))
def test_triple_routes_property(g):
    D = all_pairs_distances(g)
    for a, b, c in combinations(range(g.n), 3):
        s3 = steiner_distance_3(D, a, b, c)
        assert s3 == steiner_distance_dw(g, [a, b, c])
        assert s3 == steiner_distance_oracle(g, [a, b, c])


# -- Steiner k-Wiener -----------------------------------------------------------


def test_sw2_equals_wiener(small_corpus):
    for g in small_corpus[:25]:
        assert steiner_wiener(g, 2) == wiener_index(g)


def test_sw3_reference_values():
    assert steiner_wiener(lucas_cube(3), 3) == 9
    assert steiner_wiener(fibonacci_cube(5), 3) == 968
    assert steiner_wiener(cycle_graph(5), 3) == 25


def test_sw_k_against_subset_table():
    rng = random.Random(8)
    for _ in range(6):
        g = random_connected(rng, 9)
        table = steiner_distance_table(g)
        for k in range(2, min(6, g.n) + 1):
            by_table = sum(
                table[mask_of(S)] for S in combinations(range(g.n), k)
            )
            assert steiner_wiener(g, k) == by_table


def test_dw_against_independent_references_on_large_graphs():
    # 90-100 vertices: triples against the median scan on one random graph,
    # 4-6 terminals against the edge-cut count on random trees
    rng = random.Random(61)
    g = random_connected(rng, 100, min_n=90)
    D = all_pairs_distances(g)
    for _ in range(25):
        a, b, c = rng.sample(range(g.n), 3)
        assert steiner_distance_dw(g, (a, b, c)) == steiner_distance_3(D, a, b, c)
    for _ in range(25):
        t = random_tree(rng.randint(90, 100), rng)
        ids = rng.sample(range(t.n), rng.randint(4, 6))
        assert steiner_distance_dw(t, ids) == tree_steiner_distance(t, ids)


def test_sw3_matches_per_triple_sum_on_tiny_graphs():
    tiny = [Graph(0, []), Graph(1, []), path_graph(2), path_graph(3), complete_graph(3)]
    for g in tiny:
        assert steiner_wiener(g, 3) == sw3_by_triples(g)


def test_sw3_matches_per_triple_sum_on_corpora(small_corpus):
    rng = random.Random(63)
    graphs = small_corpus + [random_connected(rng, 12) for _ in range(100)]
    for g in graphs:
        assert steiner_wiener(g, 3) == sw3_by_triples(g)


def test_sw3_at_the_exponent_base_boundaries():
    # the base 2^s of the SW_3 kernel's exponent sums, s = bitlength(n + 1),
    # steps up between each pair of orders below; in K_{3,n-3} the three
    # vertices of the small side tie at all n - 3 of the other side
    rng = random.Random(67)
    for n in (14, 15, 30, 31, 62, 63):
        graphs = [random_connected(rng, n, min_n=n), complete_bipartite_graph(3, n - 3),
                  relabelled(path_graph(n), n), relabelled(cycle_graph(n), n)]
        for g in graphs:
            assert steiner_wiener(g, 3) == sw3_by_triples(g)
    for n in (126, 127):
        g = complete_bipartite_graph(3, n - 3)
        assert steiner_wiener(g, 3) == sw3_by_triples(g)


def test_sw3_on_complete_bipartite_graphs_with_many_tied_medians():
    # three vertices on one side of K_{k,k} have all k vertices of the other
    # side as medians
    graphs = [complete_bipartite_graph(k, k) for k in range(2, 17)]
    graphs += [complete_bipartite_graph(k, 12 - k) for k in range(1, 7)]
    assert [steiner_wiener(g, 3) for g in graphs] == [sw3_by_triples(g) for g in graphs]
    assert _by_order(steiner._sw3, graphs) == [sw3_by_triples(g) for g in graphs]


@pytest.mark.parametrize("exponent", [5, 20, 40])
def test_sw3_with_small_balls(monkeypatch, exponent):
    # the ball radius (exponent - s) // (3 s) is 0 (one ball per vertex), 1,
    # or 2-3 on graphs of 10-25 vertices, alone and stacked, with one
    # product over every ordered triple or one per middle vertex
    monkeypatch.setattr(steiner, "_MAX_EXPONENT", exponent)
    rng = random.Random(68)
    graphs = [random_connected(rng, 12, min_n=10) for _ in range(8)]
    graphs += [random_tree(rng.randint(10, 25), rng) for _ in range(4)]
    graphs += [relabelled(path_graph(20), 1), relabelled(cycle_graph(21), 2),
               complete_bipartite_graph(3, 9), path_graph(12)]
    expected = [sw3_by_triples(g) for g in graphs]
    for block in (steiner._BLOCK, 1):
        monkeypatch.setattr(steiner, "_BLOCK", block)
        assert [steiner_wiener(g, 3) for g in graphs] == expected
        assert _by_order(steiner._sw3, graphs) == expected


def test_sw3_matches_per_triple_sum_across_blocks(monkeypatch):
    # both graphs take one product per middle vertex
    big = [fibonacci_cube(10), random_connected_graph(150, 3352, random.Random(150))]
    for g in big:
        assert steiner_wiener(g, 3) == sw3_by_triples(g)
    # a tiny budget sends small graphs that way too
    monkeypatch.setattr(steiner, "_BLOCK", 1)
    rng = random.Random(64)
    for g in [random_connected(rng, 12) for _ in range(10)] + [path_graph(44)]:
        assert steiner_wiener(g, 3) == sw3_by_triples(g)


def test_sw_k_range_checks():
    g = path_graph(5)
    with pytest.raises(PreconditionError):
        steiner_wiener(g, 1)
    with pytest.raises(PreconditionError):
        steiner_wiener(g, 13)
    assert steiner_wiener(g, 5) == 4  # the whole path
    assert steiner_wiener(path_graph(2), 3) == 0  # no 3-subsets


def test_sw3_refuses_graphs_above_the_triple_scan_limit(apsp_calls):
    for g in (path_graph(513), hypercube(10)):
        with pytest.raises(PreconditionError, match="limited to 512 vertices"):
            steiner_wiener(g, 3)
    assert apsp_calls == []  # refused before any distance is computed


# -- mean Steiner distance --------------------------------------------------------


def test_mean_steiner_values():
    assert mean_steiner(cycle_graph(4), 3) == 2
    for g in [path_graph(4), cycle_graph(5), complete_graph(4)]:
        assert mean_steiner(g, 2) == average_distance(g)
    rng = random.Random(12)
    for _ in range(5):
        t = random_tree(rng.randint(3, 10), rng)
        assert mean_steiner(t, t.n) == t.n - 1
    with pytest.raises(PreconditionError):
        mean_steiner(path_graph(3), 4)


# -- bounds report ------------------------------------------------------------------


def test_jiang_floor_values():
    assert jiang_f(2) == 1
    assert jiang_f(3) == Fraction(3, 2)
    assert jiang_f(4) == Fraction(3, 2)
    assert jiang_f(5) == Fraction(5, 3)


def test_bounds_complete_graph_sharp():
    report = check_bounds(complete_graph(5), 3)
    assert report.mu_k == 2
    row = next(c for c in report.checks if c.name == "mu3<=mu2+mu2")
    assert row.holds and row.left == row.right == 2


def test_bounds_modular_graphs_meet_lower_bound_exactly():
    for g in curated_modular():
        report = check_bounds(g, 3)
        row = next(c for c in report.checks if c.name == "mu3>=3/2*mu")
        assert row.holds and row.left == row.right
        assert proved_hold(report)


def test_bounds_status_labels():
    rep4 = check_bounds(complete_graph(6), 4)
    row = next(c for c in rep4.checks if c.name.startswith("mu4>="))
    assert row.status == "conjectural"
    rep_n = check_bounds(path_graph(4), 4)  # k == n: proved
    row = next(c for c in rep_n.checks if c.name.startswith("mu4>="))
    assert row.status == "proved"


def test_bounds_hold_on_random_corpus():
    rng = random.Random(99)
    for _ in range(40):
        g = random_connected(rng, 9)
        cache: dict[int, Fraction] = {}
        for k in range(3, min(5, g.n) + 1):
            assert proved_hold(check_bounds(g, k, mu_cache=cache))


def test_bounds_range_check():
    with pytest.raises(PreconditionError):
        check_bounds(path_graph(5), 2)
    with pytest.raises(PreconditionError):
        check_bounds(path_graph(5), 6)


# -- modular lower bound for SW3 ------------------------------------------------------


def test_modular_bound_tree_equality():
    rng = random.Random(4)
    for _ in range(10):
        t = random_tree(rng.randint(3, 10), rng)
        res = check_sw3_modular_bound(t)
        assert res.equality and res.twice_sw3 == (t.n - 2) * wiener_index(t)


def test_modular_bound_c5_strict():
    res = check_sw3_modular_bound(cycle_graph(5))
    assert (res.twice_sw3, res.scaled_wiener, res.equality) == (50, 45, False)


def test_modular_bound_c4_equality():
    res = check_sw3_modular_bound(cycle_graph(4))
    assert res.equality and res.twice_sw3 == 16


def test_modular_bound_needs_three_vertices():
    with pytest.raises(PreconditionError):
        check_sw3_modular_bound(path_graph(2))


def test_mu3_is_three_halves_mu_on_modular():
    for g in curated_modular():
        assert mean_steiner(g, 3) == Fraction(3, 2) * average_distance(g)
