"""Block decomposition, block-graph recognition, blockwise triple counting."""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from swk import (
    PreconditionError,
    block_decomposition,
    classify_triples,
    complete_graph,
    cycle_graph,
    is_block_graph,
    n3_of_components,
    nm_block_graph,
    path_graph,
    star_graph,
    steiner_wiener,
    sw3_block_formula,
    wiener_index,
)
from swk.bitset import bit_list, mask_of
from swk.blocks import BlockDecomposition
from swk.generators import paw_graph, random_block_graph, random_connected, random_tree
from swk.graphs import Graph

from conftest import degree, enumerate_connected_graphs, sizes_without_block


def test_tree_blocks_are_edges():
    rng = random.Random(10)
    t = random_tree(8, rng)
    decomp = block_decomposition(t)
    assert len(decomp.blocks) == t.n - 1
    assert all(b.bit_count() == 2 for b in decomp.blocks)
    internal = [v for v in range(t.n) if degree(t, v) >= 2]
    assert sorted(bit_list(decomp.cut_vertices)) == internal


def test_k4_single_block():
    decomp = block_decomposition(complete_graph(4))
    assert decomp.blocks == (mask_of(range(4)),)
    assert decomp.cut_vertices == 0


def test_paw_decomposition():
    decomp = block_decomposition(paw_graph())
    assert decomp.blocks == (mask_of([0, 1, 2]), mask_of([0, 3]))
    assert bit_list(decomp.cut_vertices) == [0]
    # without the triangle's edges: {0, 3}, {1}, {2}; without 03: {0, 1, 2}, {3}
    assert decomp.sizes == ((2, 1, 1), (3, 1))


def test_single_edge_graph():
    decomp = block_decomposition(path_graph(2))
    assert decomp.blocks == (mask_of([0, 1]),)
    assert decomp.cut_vertices == 0


def test_decomposition_requires_connected():
    disconnected = [
        Graph(4, [(0, 1), (2, 3)]),
        Graph(2, []),
        Graph(5, np.array([[0, 1], [1, 2], [0, 2], [3, 4]])),
        Graph(3, np.array([[1, 2]])),
    ]
    for G in disconnected:
        with pytest.raises(PreconditionError, match="connected"):
            block_decomposition(G)
    for G in (Graph(1, []), Graph(0, [])):
        assert block_decomposition(G) == BlockDecomposition((), 0, ())


def test_decomposition_invariants_random():
    rng = random.Random(21)
    for _ in range(50):
        g = _random_messy_graph(rng)
        decomp = block_decomposition(g)
        # every edge has both endpoints in exactly one block
        for u, v in g.edges():
            assert sum((b >> u) & (b >> v) & 1 for b in decomp.blocks) == 1
        # one component size per member, and the components cover the graph
        assert len(decomp.sizes) == len(decomp.blocks)
        for b, sizes in zip(decomp.blocks, decomp.sizes):
            assert len(sizes) == b.bit_count() >= 2
            assert min(sizes) >= 1 and sum(sizes) == g.n
        # two blocks share at most one vertex, and that vertex is a cut vertex
        for i, a in enumerate(decomp.blocks):
            for b in decomp.blocks[i + 1:]:
                shared = a & b
                assert shared.bit_count() <= 1
                assert shared & ~decomp.cut_vertices == 0


def _random_messy_graph(rng) -> Graph:
    n = rng.randint(2, 10)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(rng.sample(pool, rng.randint(0, len(pool))))
    edges.update((rng.randrange(i), i) for i in range(1, n))  # make it connected
    return Graph(n, edges)


def test_decomposition_matches_networkx():
    rng = random.Random(33)
    for _ in range(40):
        g = _random_messy_graph(rng)
        decomp = block_decomposition(g)
        nxg = nx.Graph(list(g.edges()))
        nxg.add_nodes_from(range(g.n))
        theirs = {frozenset(c) for c in nx.biconnected_components(nxg)}
        ours = {frozenset(bit_list(b)) for b in decomp.blocks}
        assert ours == theirs
        assert set(bit_list(decomp.cut_vertices)) == set(nx.articulation_points(nxg))


def test_is_block_graph_cases():
    rng = random.Random(2)
    assert is_block_graph(random_tree(9, rng))
    assert not is_block_graph(cycle_graph(4))
    assert is_block_graph(paw_graph())
    assert is_block_graph(complete_graph(5))
    # C4 with a pendant triangle: the triangle is a clique, the C4 block is not
    c4_triangle = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (3, 5), (4, 5)])
    assert len(block_decomposition(c4_triangle).blocks) == 2
    assert not is_block_graph(c4_triangle)


def test_sizes_match_bfs_reference():
    # the DFS's hang sizes against one BFS per block member with the
    # block's edges deleted, on block graphs and graphs that are not
    rng = random.Random(77)
    graphs = [random_block_graph(rng, 14) for _ in range(150)]
    graphs += [random_tree(rng.randint(2, 14), rng) for _ in range(100)]
    graphs += [random_connected(rng, 12) for _ in range(100)]
    graphs += [_random_messy_graph(rng) for _ in range(200)]
    graphs += [star_graph(5), paw_graph(), Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])]
    root_cuts = non_block = 0
    for g in graphs:
        decomp = block_decomposition(g)
        assert decomp.sizes == tuple(sizes_without_block(g, b) for b in decomp.blocks)
        root_cuts += decomp.cut_vertices & 1
        non_block += not is_block_graph(g, decomp)
    # vertex 0, where the DFS starts, often has several DFS children
    assert root_cuts >= 50 and non_block >= 50


def test_block_formulas_on_large_block_graphs():
    # 150 vertices: a deep DFS and blocks that pop long runs of the stack
    rng = random.Random(150)
    graphs = [random_block_graph(rng, 150) for _ in range(6)]
    assert max(g.n for g in graphs) >= 120
    for g in graphs:
        decomp = block_decomposition(g)
        assert is_block_graph(g, decomp)
        assert nm_block_graph(g, decomp) == classify_triples(g).nonmodular
        assert sw3_block_formula(g, decomp) == 2 * steiner_wiener(g, 3)
    # a 300-vertex path: a DFS 300 deep, each edge a block splitting i + 1 | n - i - 1
    decomp = block_decomposition(path_graph(300))
    assert decomp.sizes == tuple((i + 1, 299 - i) for i in range(299))
    assert nm_block_graph(path_graph(300), decomp) == 0


def test_n3_of_components():
    assert n3_of_components([2, 1, 1]) == 2
    assert n3_of_components([5]) == 0
    assert n3_of_components([3, 2, 2]) == 12
    assert n3_of_components([]) == 0
    assert n3_of_components([4, 7]) == 0
    assert n3_of_components([2, 2, 1, 1]) == n3_of_components([1, 2, 1, 2]) == 12
    with pytest.raises(ValueError):
        n3_of_components([2, 0, 1])


def test_nm_block_graph_values():
    assert nm_block_graph(complete_graph(3)) == 1
    assert nm_block_graph(paw_graph()) == 2
    rng = random.Random(9)
    assert nm_block_graph(random_tree(10, rng)) == 0


def test_nm_block_graph_rejects_non_block_graph():
    with pytest.raises(PreconditionError, match="block"):
        nm_block_graph(cycle_graph(4))


def test_sw3_formula_values():
    assert sw3_block_formula(complete_graph(3)) == 4  # doubled; SW3 = 2
    assert sw3_block_formula(paw_graph()) == 18  # SW3 = 9
    rng = random.Random(13)
    t = random_tree(9, rng)
    assert sw3_block_formula(t) == (t.n - 2) * wiener_index(t)


def test_sw3_formula_rejects():
    with pytest.raises(PreconditionError):
        sw3_block_formula(cycle_graph(5))
    with pytest.raises(PreconditionError):
        sw3_block_formula(path_graph(2))


def test_block_formula_and_nm_on_random_block_graphs():
    rng = random.Random(123)
    for _ in range(150):
        g = random_block_graph(rng, 12)
        decomp = block_decomposition(g)
        assert is_block_graph(g, decomp)
        assert sw3_block_formula(g, decomp) == 2 * steiner_wiener(g, 3)
        assert nm_block_graph(g, decomp) == classify_triples(g).nonmodular


def test_star_is_block_graph_with_zero_nm():
    g = star_graph(6)
    assert is_block_graph(g)
    assert nm_block_graph(g) == 0
    assert sw3_block_formula(g) == 2 * steiner_wiener(g, 3)


def test_block_formulas_exhaustive_small():
    # every labeled connected block graph on 3..6 vertices
    checked = 0
    for n in range(3, 7):
        for g in enumerate_connected_graphs(n):
            decomp = block_decomposition(g)
            if not is_block_graph(g, decomp):
                continue
            assert sw3_block_formula(g, decomp) == 2 * steiner_wiener(g, 3)
            assert nm_block_graph(g, decomp) == classify_triples(g).nonmodular
            checked += 1
    assert checked > 1_000
