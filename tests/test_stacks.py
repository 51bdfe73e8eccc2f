"""Triple kernels over stacks of same-order graphs.

``structure._by_order`` groups graphs by order and runs a kernel (``_sw3``,
``_classify`` or ``_every_triple``) over each order's distance matrices as
one stack.  Each result must equal the per-graph call, and the per-graph
call must equal the per-triple references (``steiner_distance_3`` sums and
``median_set``).
"""

from __future__ import annotations

import random

import pytest

from swk import steiner, structure
from swk.errors import PreconditionError
from swk.generators import random_connected, random_tree
from swk.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from swk.steiner import _sw3, steiner_wiener
from swk.structure import _by_order, _classify, _every_triple, classify_triples, is_median, is_modular

from conftest import classify_by_median_sets, relabelled, sw3_by_triples


def sw3_batch(graphs):
    return _by_order(_sw3, graphs)


def classify_batch(graphs):
    return _by_order(_classify, graphs)


def is_modular_batch(graphs):
    return _by_order(_every_triple, graphs)


def _assert_stack_matches(graphs) -> None:
    """Stacked results equal per-graph calls, and those equal the references."""
    triples = [G for G in graphs if G.n >= 3]
    sw3 = [steiner_wiener(G, 3) for G in graphs]
    assert sw3_batch(graphs) == sw3 == [sw3_by_triples(G) for G in graphs]
    cls = [classify_triples(G) for G in triples]
    assert classify_batch(triples) == cls == [classify_by_median_sets(G) for G in triples]
    modular = [is_modular(G) for G in graphs]
    assert is_modular_batch(graphs) == modular
    assert modular == [classify_by_median_sets(G).nonmodular == 0 for G in graphs]


def test_stack_of_one():
    for G in [path_graph(7), cycle_graph(7), complete_bipartite_graph(3, 4), complete_graph(5)]:
        _assert_stack_matches([G])


def test_modular_and_nonmodular_graphs_in_one_stack():
    rng = random.Random(71)
    stack = [path_graph(6), cycle_graph(6), complete_bipartite_graph(3, 3),
             complete_graph(6), star_graph(6)]
    stack += [random_connected(rng, 6, min_n=6) for _ in range(20)]
    stack += [random_tree(6, rng) for _ in range(5)]
    assert {is_modular(G) for G in stack} == {True, False}
    _assert_stack_matches(stack)


def test_mixed_orders_come_back_in_input_order():
    rng = random.Random(72)
    graphs = [random_connected(rng, 9) for _ in range(40)]
    assert len({G.n for G in graphs}) > 3
    _assert_stack_matches(graphs)


def test_stack_runs_a_graph_of_several_balls_alone(monkeypatch):
    # a path and a cycle on 100 vertices have radius 50, past the
    # SW_3 kernel's ball radius 48 at that order, so their stack runs one
    # graph at a time; the 5-vertex graphs are a stack of their own
    rng = random.Random(73)
    long_graphs = [relabelled(path_graph(100), 73), relabelled(cycle_graph(100), 74)]
    short = random_connected(rng, 100, min_n=100)
    small = [random_connected(rng, 5, min_n=5) for _ in range(4)]
    assert all(structure.all_pairs_distances(G).max(axis=1).min() == 50 for G in long_graphs)
    graphs = small[:2] + [short, long_graphs[0], short, long_graphs[1]] + small[2:]
    stacks = []
    inner = steiner._sw3
    monkeypatch.setattr(steiner, "_sw3", lambda D: stacks.append(len(D)) or inner(D))
    by_triples = {id(G): sw3_by_triples(G) for G in small + [short] + long_graphs}
    expected = [by_triples[id(G)] for G in graphs]
    assert sw3_batch(graphs) == expected
    assert stacks == [1, 1, 1, 1]  # the order-100 stack, one graph at a time
    assert [steiner_wiener(G, 3) for G in graphs] == expected


def test_one_element_blocks_wrap_the_buffer(monkeypatch):
    # every interval block is then one a, and SW_3 takes one product per
    # middle vertex, not one over every ordered triple
    monkeypatch.setattr(steiner, "_BLOCK", 1)
    monkeypatch.setattr(structure, "_BLOCK", 1)
    rng = random.Random(74)
    graphs = [random_connected(rng, 12, min_n=12) for _ in range(6)]
    graphs += [random_tree(12, rng) for _ in range(3)] + [cycle_graph(12), path_graph(20)]
    _assert_stack_matches(graphs)


def test_is_modular_stack_stops_only_when_every_graph_failed(monkeypatch):
    # vertices 0, 1, 2 of K4 form a triangle, which fails in the first block
    fails_first, never_fails = complete_graph(4), path_graph(4)
    blocks = []
    scan = structure._median_counts

    def counting(D):
        for item in scan(D):
            blocks.append(D.shape[0])
            yield item

    monkeypatch.setattr(structure, "_median_counts", counting)
    assert is_modular_batch([fails_first, never_fails, fails_first]) == [False, True, False]
    every_block = len(blocks)
    blocks.clear()
    assert is_modular_batch([fails_first, complete_graph(4)]) == [False, False]
    assert len(blocks) == 1 < every_block


def test_groups_below_three_vertices_and_empty_lists():
    tiny = [Graph(0, []), Graph(1, []), path_graph(2), path_graph(2)]
    graphs = tiny + [path_graph(5)]
    assert sw3_batch(graphs) == [0, 0, 0, 0, 30]
    assert is_modular_batch(graphs) == [is_modular(G) for G in graphs] == [True] * 5
    _assert_stack_matches(graphs)
    with pytest.raises(PreconditionError, match="at least 3 vertices"):
        classify_batch(tiny)
    assert sw3_batch([]) == classify_batch([]) == is_modular_batch([]) == []


def test_blocks_wider_than_one_row_on_large_stacks(monkeypatch):
    # 102 graphs of order 40: blocks of up to 20 x 19 triples per graph
    distinct = [path_graph(40), cycle_graph(40), complete_bipartite_graph(20, 20)]
    stack = distinct[:1] * 100 + distinct[1:]
    cls, sw3 = [classify_by_median_sets(G) for G in distinct], [sw3_by_triples(G) for G in distinct]
    assert classify_batch(stack) == cls[:1] * 100 + cls[1:]
    assert sw3_batch(stack) == sw3[:1] * 100 + sw3[1:]
    # a middle block size: several rows, blocks of different widths per stack
    monkeypatch.setattr(steiner, "_BLOCK", 256)
    monkeypatch.setattr(structure, "_BLOCK", 256)
    rng = random.Random(75)
    graphs = [random_connected(rng, 12, min_n=12) for _ in range(30)] + [path_graph(12)] * 5
    _assert_stack_matches(graphs)


def test_disconnected_graphs_below_three_vertices_are_modular():
    # no triple to scan, so no distances are needed
    for G in (Graph(2, []), Graph(1, []), Graph(0, [])):
        assert is_modular(G) and is_median(G)
