"""Distance matrix, Wiener index, average distance, geodesic intervals."""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from swk import (
    PreconditionError,
    all_pairs_distances,
    average_distance,
    cartesian_product,
    complete_graph,
    cycle_graph,
    fibonacci_cube,
    hypercube,
    interval,
    lucas_cube,
    path_graph,
    star_graph,
    steiner_wiener,
    wiener_index,
)
from swk.bitset import bit_list, mask_of
from swk.generators import random_connected, random_connected_graph
from swk.graphs import Graph

from conftest import brute_interval, connected_graphs


def test_distances_path_and_complete():
    D = all_pairs_distances(path_graph(3))
    assert D[0, 2] == 2 and D[2, 0] == 2 and D[1, 1] == 0
    D4 = all_pairs_distances(complete_graph(4))
    off = D4[~np.eye(4, dtype=bool)]
    assert set(off.tolist()) == {1}


def test_distances_fibonacci_cube_hamming_pair():
    g = fibonacci_cube(4)
    D = all_pairs_distances(g)
    u = g.labels.index("0101")
    v = g.labels.index("1010")
    assert D[u, v] == 4


def test_distances_are_computed_once_and_read_only(apsp_calls):
    for G in (path_graph(1), cycle_graph(6), fibonacci_cube(7)):
        D = all_pairs_distances(G)
        assert all_pairs_distances(G) is D
        assert wiener_index(G) == int(D.sum()) // 2
        graph, matrix = apsp_calls[-1]  # wiener_index's own call
        assert graph is G and matrix is D
        with pytest.raises(ValueError, match="read-only"):
            D[0, 0] = 1


def test_distances_require_connected():
    with pytest.raises(PreconditionError, match="connected"):
        all_pairs_distances(Graph(4, [(0, 1), (2, 3)]))


def _from_pairs(g: Graph) -> Graph:
    return Graph(g.n, list(g.edges()))


def _from_array(g: Graph) -> Graph:
    h = Graph(g.n, np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2))
    assert h.indptr is not None
    return h


# Both BFS routes: Python ints over pair-built graphs, numpy over CSR arrays.
ROUTES = (_from_pairs, _from_array)


def _networkx_distances(g: Graph) -> np.ndarray:
    """Distance matrix from networkx BFS, which shares no code with swk."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    D = np.full((g.n, g.n), -1, dtype=np.int64)
    for u, row in nx.all_pairs_shortest_path_length(h):
        for v, d in row.items():
            D[u, v] = d
    return D


def _assert_matches_networkx(g: Graph) -> None:
    D = all_pairs_distances(g)
    assert D.dtype == np.int32 and D.shape == (g.n, g.n)
    assert (D == _networkx_distances(g)).all(), g


def _family_graphs() -> list[Graph]:
    graphs = [Graph(0, []), Graph(1, []), Graph(2, [(0, 1)])]
    # diameters 0..39 cross every bit-plane boundary up to 32
    graphs += [path_graph(n) for n in range(1, 41)]
    graphs.append(path_graph(300))  # diameter above 255, rows in several blocks
    graphs += [star_graph(n) for n in range(1, 15)]
    graphs += [cycle_graph(n) for n in range(3, 40)]
    graphs += [complete_graph(n) for n in range(1, 15)]
    graphs += [fibonacci_cube(k) for k in range(13)]
    graphs += [lucas_cube(k) for k in range(13)]
    graphs += [hypercube(k) for k in range(1, 9)]
    return graphs


def test_distances_match_networkx_families():
    for rebuild in ROUTES:
        for g in _family_graphs():
            _assert_matches_networkx(rebuild(g))


def test_distances_match_networkx_small_corpus(small_corpus):
    for rebuild in ROUTES:
        for g in small_corpus:
            _assert_matches_networkx(rebuild(g))


def _random_graphs() -> list[Graph]:
    rng = random.Random(1105)
    graphs = [random_connected(rng, 12) for _ in range(200)]
    return graphs + [random_connected_graph(150, m, rng) for m in (2000, 5000, 9000)]


def test_distances_match_networkx_random():
    for rebuild in ROUTES:
        for g in _random_graphs():
            _assert_matches_networkx(rebuild(g))


def test_csr_route_across_gather_and_unpack_blocks(monkeypatch):
    """Gather chunks of one row and of a few rows; unpack blocks of one row
    and of a few rows."""
    import swk.metric as metric_mod

    rng = random.Random(7)
    graphs = [path_graph(300), fibonacci_cube(9), hypercube(6), star_graph(70)]
    graphs += [random_connected_graph(150, 2000, rng), random_connected(rng, 12)]
    graphs = [_from_array(g) for g in graphs]
    for gather, unpack in ((1, 1), (16, 200), (200, 1000)):
        monkeypatch.setattr(metric_mod, "_GATHER_WORDS", gather)
        monkeypatch.setattr(metric_mod, "_UNPACK_BYTES", unpack)
        for g in graphs:
            g._dist = None
            _assert_matches_networkx(g)


@pytest.mark.parametrize(
    "g",
    [
        Graph(5, [(1, 2), (2, 3), (3, 4)]),  # vertex 0 isolated
        Graph(5, [(0, 1), (1, 2), (2, 3)]),  # last vertex isolated
        Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]),  # two halves
        Graph(2, []),
        Graph(70, [(i, i + 1) for i in range(69) if i != 64]),  # split past the first word
    ],
)
def test_distances_reject_disconnected(g):
    for rebuild in ROUTES:
        with pytest.raises(PreconditionError, match="connected"):
            all_pairs_distances(rebuild(g))


def test_distance_matrix_properties_random():
    rng = random.Random(2024)
    for _ in range(8):
        g = random_connected(rng, 50)
        D = all_pairs_distances(g)
        assert (D == D.T).all()
        assert (np.diag(D) == 0).all()
        n = g.n
        # triangle inequality via min-plus: D[u,w] <= min_v D[u,v]+D[v,w]
        relaxed = (D[:, :, None] + D[None, :, :]).min(axis=1)
        assert (D <= relaxed).all()
        assert (relaxed == D).all()


def test_wiener_values():
    assert wiener_index(fibonacci_cube(3)) == 16
    assert wiener_index(fibonacci_cube(4)) == 54
    assert wiener_index(lucas_cube(4)) == 40
    for n in range(2, 7):
        assert wiener_index(complete_graph(n)) == n * (n - 1) // 2


def test_wiener_product_identity_random_factors():
    rng = random.Random(77)
    for _ in range(12):
        a = random_connected(rng, 12, min_n=2)
        b = random_connected(rng, 12, min_n=2)
        p = cartesian_product(a, b)
        assert wiener_index(p) == a.n**2 * wiener_index(b) + b.n**2 * wiener_index(a)


def test_wiener_equals_sw2(small_corpus):
    for g in small_corpus:
        if g.n >= 2:
            assert steiner_wiener(g, 2) == wiener_index(g)


def test_average_distance_values():
    assert average_distance(path_graph(2)) == 1
    assert average_distance(path_graph(3)) == Fraction(4, 3)
    assert average_distance(cycle_graph(4)) == Fraction(4, 3)
    with pytest.raises(PreconditionError):
        average_distance(Graph(1, []))


def test_interval_basics():
    g = cycle_graph(4)
    D = all_pairs_distances(g)
    assert interval(D, 1, 1) == mask_of([1])
    assert interval(D, 0, 2) == mask_of([0, 1, 2, 3])  # opposite corners
    c5 = all_pairs_distances(cycle_graph(5))
    assert bit_list(interval(c5, 0, 2)) == [0, 1, 2]


def test_interval_matches_path_enumeration(small_corpus):
    for g in small_corpus:
        if g.n > 9:
            continue
        D = all_pairs_distances(g)
        for u in range(g.n):
            for v in range(u, g.n):
                assert set(bit_list(interval(D, u, v))) == brute_interval(g, D, u, v)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_interval_property(g):
    D = all_pairs_distances(g)
    for u in range(g.n):
        for v in range(u, g.n):
            members = set(bit_list(interval(D, u, v)))
            assert {u, v} <= members
            assert members == brute_interval(g, D, u, v)
