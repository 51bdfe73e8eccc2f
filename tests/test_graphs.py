"""Construction layer: parsers, graph6 codec, families, Cartesian product."""

from __future__ import annotations

import pickle
import random
import re
from functools import partial

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swk import (
    FamilySpec,
    Graph,
    ParseError,
    PreconditionError,
    all_pairs_distances,
    cartesian_product,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    fibonacci,
    fibonacci_cube,
    hypercube,
    is_connected,
    lucas,
    lucas_cube,
    make_family,
    parse_edgelist,
    parse_graph6,
    path_graph,
    read_graph6_file,
    star_graph,
    write_graph6,
)
from swk.generators import random_connected

from conftest import bfs_connected, brute_cube, degree, has_edge, searchsorted_cube


@st.composite
def simple_graphs(draw, max_n: int = 12) -> Graph:
    n = draw(st.integers(0, max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), max_size=len(pool))) if pool else []
    return Graph(n, edges)


# -- Graph basics ------------------------------------------------------------


def test_graph_dedupes_and_symmetrizes():
    g = Graph(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
    assert g.m == 2
    assert g.adjacency == ((1,), (0, 2), (1,))
    assert g.adj_bits == (0b010, 0b101, 0b010)


def test_graph_rejects_self_loop_and_bad_ids():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError, match="outside"):
        Graph(2, [(0, 2)])


def _random_pairs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Seeded pairs with repeats, both orientations, and untouched vertices."""
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    if not pool:
        return []
    return [rng.choice(pool) for _ in range(rng.randint(0, 2 * n))]


def test_graph_from_array_matches_pairs():
    rng = random.Random(2024)
    cases = [(0, []), (1, []), (2, []), (5, []), (2, [(0, 1), (1, 0), (0, 1)])]
    cases += [(n, _random_pairs(rng, n)) for n in [rng.randint(0, 40) for _ in range(300)]]
    for n, pairs in cases:
        from_pairs = Graph(n, pairs)
        from_array = Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        assert from_array == from_pairs
        assert from_array.m == from_pairs.m
        assert all(type(w) is int for a in from_array.adjacency for w in a)
    # Dtype and shape of an empty array do not matter; other shapes are rejected.
    assert Graph(3, np.array([])) == Graph(3, [])
    assert Graph(3, np.array([[0, 2]], dtype=np.uint8)) == Graph(3, [(0, 2)])
    for bad in (np.array([0, 1]), np.array([[0, 1, 2]]), np.array([[0.0, 1.0]])):
        with pytest.raises(ValueError, match="integer array"):
            Graph(3, bad)


@pytest.mark.parametrize(
    "n,pairs",
    [
        (3, [(0, 1), (1, 3)]),
        (3, [(0, 1), (-1, 2)]),
        (3, [(0, 1), (2, 2), (0, 7)]),
        (3, [(0, 1), (0, 7), (2, 2)]),
        (3, [(4, 4)]),
        (0, [(0, 0)]),
        (1, [(0, 0)]),
    ],
)
def test_graph_rejects_bad_pairs_alike_on_both_routes(n, pairs):
    with pytest.raises(ValueError) as from_pairs:
        Graph(n, pairs)
    with pytest.raises(ValueError) as from_array:
        Graph(n, np.array(pairs))
    assert str(from_array.value) == str(from_pairs.value)


def test_graph_array_route_names_unsigned_ids_exactly():
    huge = (1 << 64) - 1
    with pytest.raises(ValueError, match=rf"edge \(0, {huge}\) outside"):
        Graph(3, np.array([[0, huge]], dtype=np.uint64))
    with pytest.raises(ValueError, match=r"edge \(0, 300\) outside"):
        Graph(256, np.array([[0, 300]], dtype=np.uint16))


def test_edges_iterator_sorted():
    g = cycle_graph(4)
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert has_edge(g, 0, 3) and not has_edge(g, 0, 2)


# -- edge list parser ---------------------------------------------------------


def test_parse_edgelist_path():
    g = parse_edgelist("0 1\n1 2")
    assert g == path_graph(3)


def test_parse_edgelist_collapses_duplicates():
    g = parse_edgelist("0 1\n0 1")
    assert (g.n, g.m) == (2, 1)


def test_parse_edgelist_rejects_self_loop_with_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_edgelist("0 0")


def test_parse_edgelist_comments_blanks_and_declared_count():
    g = parse_edgelist("# a path\nn 5\n\n0 1  # first\n1 2\n")
    assert (g.n, g.m) == (5, 2)


def test_parse_edgelist_rejects_small_declared_count():
    with pytest.raises(ParseError, match="declared"):
        parse_edgelist("n 2\n0 3")


def test_parse_edgelist_rejects_non_integer():
    with pytest.raises(ParseError, match="line 2"):
        parse_edgelist("0 1\n0 x")


def test_parse_edgelist_empty_gives_empty_graph():
    g = parse_edgelist("")
    assert (g.n, g.m) == (0, 0)


def test_parse_edgelist_builds_an_array_graph():
    g = parse_edgelist("n 4\n2 1\n0 1\n1 0\n0 1\n1 2  # again\n")
    assert g.indptr is not None
    assert (g.n, g.m) == (4, 2)
    assert g.indptr.tolist() == [0, 1, 3, 4, 4]
    assert g.indices.tolist() == [1, 0, 2, 1]
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert parse_edgelist("").indptr.tolist() == [0]


@pytest.mark.parametrize(
    "text,message",
    [
        ("0 0", "line 1: self-loop at vertex 0"),
        ("0 1\n\n# c\n3 3 # loop", "line 4: self-loop at vertex 3"),
        ("n 2\n0 3", "declared vertex count 2 but vertex id 3 appears"),
        ("0 1\n0 x", "line 2: non-integer token 'x'"),
        ("0 1\nx y", "line 2: non-integer token 'x'"),
        ("0 1\n1 2 3", "line 2: expected 'u v', got '1 2 3'"),
        ("# c\n\n0 1 # c\n5", "line 4: expected 'u v', got '5'"),
        ("0 1\n\n2 -3", "line 3: negative vertex id"),
        ("-1 0", "line 1: negative vertex id"),
        ("n 3 4", "line 1: expected 'n <count>'"),
        ("# c\nn", "line 2: expected 'n <count>'"),
        ("n x", "line 1: non-integer token 'x'"),
        ("n -1", "line 1: negative vertex count"),
        ("0 1\nn 3", "line 2: non-integer token 'n'"),
        # the first bad line wins, whatever the later lines hold
        ("0 0\n0 x", "line 1: self-loop at vertex 0"),
        ("0 -1\n1 2 3", "line 1: negative vertex id"),
        ("0 x\n1 1", "line 1: non-integer token 'x'"),
        ("n 2\n0 x\n0 5", "line 2: non-integer token 'x'"),
    ],
)
def test_parse_edgelist_error_messages(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_edgelist(text)


@pytest.mark.parametrize("text,n", [(f"0 {1 << 20}", (1 << 20) + 1),
                                    ("0 99999999999999999999999", 10**23),
                                    ("n 1048577", (1 << 20) + 1)])
def test_parse_edgelist_refuses_more_vertices_than_the_cap(text, n):
    with pytest.raises(ParseError, match=f"^edge list has {n} vertices \\(cap 1048576\\)$"):
        parse_edgelist(text)


# -- graph6 codec -------------------------------------------------------------

# Literals frozen from an independent reference encoder.
G6_KNOWN = [
    (b"A?", Graph(2, [])),
    (b"A_", complete_graph(2)),
    (b"Bg", path_graph(3)),
    (b"C~", complete_graph(4)),
    (b"Dhc", cycle_graph(5)),
]


@pytest.mark.parametrize("encoded,graph", G6_KNOWN)
def test_graph6_known_values(encoded, graph):
    assert write_graph6(graph) == encoded
    assert parse_graph6(encoded) == graph


def test_graph6_header_prefix_tolerated():
    assert parse_graph6(b">>graph6<<A_") == complete_graph(2)
    assert write_graph6(complete_graph(2), header=True) == b">>graph6<<A_"


def test_graph6_rejects_bad_input():
    with pytest.raises(ParseError, match="empty"):
        parse_graph6(b"")
    with pytest.raises(ParseError, match="outside"):
        parse_graph6(b"A\x1f")
    with pytest.raises(ParseError, match="needs"):
        parse_graph6(b"D")  # five vertices but no body
    with pytest.raises(ParseError, match="padding"):
        parse_graph6(b"A~")  # one payload bit, nonzero padding


def test_graph6_roundtrip_seeded_sample():
    rng = random.Random(1234)
    for _ in range(1000):
        n = rng.randint(1, 12)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pool, rng.randint(0, len(pool))))
        assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=150)
@given(simple_graphs())
def test_graph6_roundtrip_property(g):
    assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=60)
@given(simple_graphs(max_n=10))
def test_graph6_matches_networkx(g):
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(g.n))
    nx_graph.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(nx_graph, header=False).strip()
    assert write_graph6(g) == theirs
    decoded = nx.from_graph6_bytes(write_graph6(g))
    assert sorted(decoded.edges()) == list(g.edges())


def test_graph6_three_byte_size_form():
    g = path_graph(100)  # n > 62 switches to the extended size header
    encoded = write_graph6(g)
    assert encoded.startswith(b"~")
    assert parse_graph6(encoded) == g
    theirs = nx.to_graph6_bytes(nx.path_graph(100), header=False).strip()
    assert encoded == theirs


def _nx_random_graph(rng: random.Random, n: int) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    density = rng.random()
    graph.add_edges_from(
        (u, v) for v in range(n) for u in range(v) if rng.random() < density
    )
    return graph


def test_graph6_decode_matches_networkx():
    rng = random.Random(6363)
    graphs = [_nx_random_graph(rng, n) for n in (0, 1, 2, 62, 63, 64)]
    graphs += [nx.complete_graph(n) for n in (2, 62, 63, 64)]
    graphs += [_nx_random_graph(rng, rng.randint(0, 150)) for _ in range(50)]
    for graph in graphs:
        encoded = nx.to_graph6_bytes(graph, header=False).strip()
        ours = parse_graph6(encoded)
        theirs = nx.from_graph6_bytes(encoded)
        assert ours.n == theirs.number_of_nodes() == graph.number_of_nodes()
        assert list(ours.edges()) == sorted(tuple(sorted(e)) for e in theirs.edges())
        assert ours.m == graph.number_of_edges()


def test_read_graph6_file():
    text = "A_\nDhc\n\n"
    graphs = read_graph6_file(text)
    assert graphs == [complete_graph(2), cycle_graph(5)]


# -- families ------------------------------------------------------------------


def test_family_vertex_counts_match_sequences():
    for n in range(21):
        fib_cube, luc_cube = fibonacci_cube(n), lucas_cube(n)
        assert fib_cube.n == fibonacci(n + 2)
        assert luc_cube.n == (lucas(n) if n >= 1 else 1)
        assert is_connected(fib_cube) and is_connected(luc_cube)


def test_order_20_cubes_have_sequence_vertex_counts():
    assert fibonacci_cube(20).n == fibonacci(22) == 17711
    assert lucas_cube(20).n == lucas(20) == 15127


@pytest.mark.parametrize("n", range(15))
def test_cubes_match_brute_force_scan(n):
    top = 1 << (n - 1) if n else 0
    fib = lambda x: x & (x >> 1) == 0  # noqa: E731
    assert_same = [
        (hypercube(n), brute_cube(n, lambda x: True)),
        (fibonacci_cube(n), brute_cube(n, fib)),
        (lucas_cube(n), brute_cube(n, lambda x: fib(x) and not (x & top and x & 1))),
    ]
    for built, reference in assert_same:
        assert built == reference
        assert built.m == reference.m
        assert built.labels == reference.labels


@pytest.mark.parametrize(
    "build,top,keep",
    [
        (hypercube, 16, lambda n, x: x >= 0),
        (fibonacci_cube, 20, lambda n, x: x & (x >> 1) == 0),
        # no two ones adjacent around the cycle: x and its rotation by one
        (lucas_cube, 20, lambda n, x: x & ((x >> 1) | (x & 1) << max(n - 1, 0)) == 0),
    ],
    ids=["hypercube", "fibonacci", "lucas"],
)
def test_cube_csr_arrays_match_searchsorted_reference(build, top, keep):
    for n in range(top + 1):
        built, reference = build(n), searchsorted_cube(n, partial(keep, n))
        assert np.array_equal(built.indptr, reference.indptr), n
        assert np.array_equal(built.indices, reference.indices), n
        assert built.m == reference.m and built.labels == reference.labels, n


def test_fibonacci_cube_4_has_8_vertices():
    assert fibonacci_cube(4).n == 8


def test_lucas_cube_3_is_star_on_four():
    assert lucas_cube(3) == star_graph(4)


def test_fibonacci_cube_3_is_banner():
    g = fibonacci_cube(3)
    assert g.labels == ("000", "001", "010", "100", "101")
    # 4-cycle 000-001-101-100 with the pendant 010 at 000
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 4), (3, 4)]


def test_hypercube_structure():
    q3 = hypercube(3)
    assert (q3.n, q3.m) == (8, 12)
    assert all(degree(q3, v) == 3 for v in range(8))
    assert q3.labels[5] == "101"


def test_generated_families_connected():
    specs = [
        FamilySpec("path", 6),
        FamilySpec("cycle", 6),
        FamilySpec("complete", 5),
        FamilySpec("complete_bipartite", 2, 3),
        FamilySpec("star", 7),
        FamilySpec("hypercube", 4),
        FamilySpec("fibonacci_cube", 6),
        FamilySpec("lucas_cube", 6),
    ]
    for spec in specs:
        assert is_connected(make_family(spec))


def test_family_validation():
    with pytest.raises(PreconditionError):
        cycle_graph(2)
    with pytest.raises(PreconditionError):
        star_graph(0)
    with pytest.raises(PreconditionError):
        hypercube(31)  # order cap
    with pytest.raises(PreconditionError):
        fibonacci_cube(29)  # vertex cap
    with pytest.raises(PreconditionError):
        make_family(FamilySpec("path", 3, 4))  # extra parameter
    with pytest.raises(PreconditionError):
        make_family(FamilySpec("complete_bipartite", 3))  # missing parameter
    with pytest.raises(PreconditionError):
        make_family(FamilySpec("petersen", 1))


# -- Cartesian product ---------------------------------------------------------


def test_product_p2_p2_is_c4():
    p = cartesian_product(path_graph(2), path_graph(2))
    assert sorted(p.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_product_identity_factor_preserves_ids():
    h = cycle_graph(5)
    p = cartesian_product(path_graph(1), h)
    assert p == h


def test_product_grid_2x3():
    p = cartesian_product(path_graph(2), path_graph(3))
    assert (p.n, p.m) == (6, 7)


def test_product_edge_count_law_random_factors():
    rng = random.Random(55)
    for _ in range(20):
        a = random_connected(rng, 15, min_n=1)
        b = random_connected(rng, 15, min_n=1)
        p = cartesian_product(a, b)
        assert p.m == a.n * b.m + b.n * a.m


def test_product_rejects_oversize_and_empty():
    with pytest.raises(PreconditionError, match="cap"):
        cartesian_product(path_graph(100), path_graph(100), max_vertices=5000)
    with pytest.raises(PreconditionError, match="nonempty"):
        cartesian_product(Graph(0, []), path_graph(2))


# -- connectivity ----------------------------------------------------------------


def test_is_connected_cases():
    assert is_connected(path_graph(3))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1, []))
    assert is_connected(Graph(0, []))


def _slot_is_set(G: Graph, name: str) -> bool:
    """Whether a slot holds a value, read past Graph.__getattr__."""
    try:
        object.__getattribute__(G, name)
    except AttributeError:
        return False
    return True


def test_is_connected_numpy_route_matches_python_bfs():
    rng = random.Random(7301)
    cases = [(0, []), (1, []), (2, []), (2, [(0, 1)]), (3, [(1, 2)]), (3, [(0, 1)]),
             (4, [(0, 1), (2, 3)]), (5, [(0, 1), (1, 2), (2, 3)])]
    for i in range(200):
        G = random_connected(rng, 20, min_n=2)
        pairs = list(G.edges())
        if i % 2:
            # drop every edge across a random proper vertex split
            side = set(rng.sample(range(G.n), rng.randint(1, G.n - 1)))
            pairs = [(u, v) for u, v in pairs if (u in side) == (v in side)]
        cases.append((G.n, pairs))
    outcomes = set()
    for n, pairs in cases:
        expected = bfs_connected(n, pairs)
        from_array = Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        assert from_array.indptr is not None
        assert is_connected(from_array) == expected, (n, pairs)
        assert is_connected(Graph(n, pairs)) == expected, (n, pairs)
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "build,lazy_labels",
    [
        (lambda: fibonacci_cube(20), True),
        (lambda: lucas_cube(20), True),
        (lambda: hypercube(14), True),
        (lambda: parse_graph6(write_graph6(fibonacci_cube(12))), False),
        (lambda: hypercube(0), True),
        (lambda: fibonacci_cube(1), True),
        (lambda: lucas_cube(1), True),
        (lambda: lucas_cube(2), True),
    ],
    ids=["fibonacci20", "lucas20", "hypercube14", "graph6", "hypercube0", "fibonacci1",
         "lucas1", "lucas2"],
)
def test_array_built_graph_builds_tuples_on_first_read(build, lazy_labels):
    G = build()
    assert G._dist is None and is_connected(G)
    assert not _slot_is_set(G, "adjacency")
    assert _slot_is_set(G, "labels") != lazy_labels
    adjacency = G.adjacency
    assert _slot_is_set(G, "adjacency") and G.adjacency is adjacency
    assert [len(a) for a in adjacency] == np.diff(G.indptr).tolist()
    assert sum(map(len, adjacency)) == 2 * G.m
    if lazy_labels:
        assert len(G.labels) == G.n and _slot_is_set(G, "labels")


def test_lazy_graphs_pickle():
    for G in (fibonacci_cube(6), lucas_cube(0), parse_graph6("Dhc"), cycle_graph(5),
              hypercube(0), fibonacci_cube(1), lucas_cube(1), lucas_cube(2)):
        copy = pickle.loads(pickle.dumps(G))
        assert copy == G and copy.m == G.m and copy.labels == G.labels
        all_pairs_distances(G)
        copy = pickle.loads(pickle.dumps(G))
        D = all_pairs_distances(copy)
        assert all_pairs_distances(copy) is D and not D.flags.writeable
        assert np.array_equal(D, all_pairs_distances(Graph(G.n, G.edges())))


def test_pickle_keeps_only_what_defines_a_graph():
    # no lazy slot is filled, and the pickle is the CSR arrays and a header
    G = fibonacci_cube(18)
    data = pickle.dumps(G)
    assert not any(_slot_is_set(G, name) for name in ("adjacency", "adj_bits", "labels"))
    assert len(data) <= G.indptr.nbytes + G.indices.nbytes + 1024
    copy = pickle.loads(data)
    assert copy == G and copy.m == G.m and copy.labels == G.labels
    # the kept distance matrix does not travel; the copy's own BFS gives the same
    H = fibonacci_cube(12)
    D = all_pairs_distances(H)
    copy = pickle.loads(pickle.dumps(H))
    assert copy._dist is None
    assert np.array_equal(all_pairs_distances(copy), D)
    assert np.array_equal(D, all_pairs_distances(Graph(H.n, H.edges())))


def test_pair_built_graph_fills_adjacency_at_once():
    G = cycle_graph(5)
    assert _slot_is_set(G, "adjacency") and _slot_is_set(G, "labels")
    assert G.indptr is None and G.indices is None and G.labels is None
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        G.missing

