"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately take different routes than the library code
(path enumeration instead of distance-sum tests, explicit 2-coloring, ...)
so that agreement means something.
"""

from __future__ import annotations

import importlib
import pkgutil
import random
from collections.abc import Iterator
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import strategies as st

import swk
from swk.bitset import bit_list
from swk.generators import (
    curated_modular,
    curated_nonmodular,
    random_connected,
    random_tree,
)
from swk.graphs import Graph, is_connected
from swk.metric import all_pairs_distances, interval
from swk.steiner import steiner_distance_3
from swk.structure import TripleClassification


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Every labeled connected graph on exactly n vertices (no sampling)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        if mask.bit_count() < n - 1:
            continue
        edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
        g = Graph(n, edges)
        if is_connected(g):
            yield g


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 9) -> Graph:
    """Connected graph strategy: random spanning tree plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pool = sorted(
        {(u, v) for u in range(n) for v in range(u + 1, n)} - edges
    )
    if pool:
        edges.update(draw(st.lists(st.sampled_from(pool), max_size=len(pool))))
    return Graph(n, edges)


@pytest.fixture(scope="session")
def small_corpus() -> list[Graph]:
    """Curated modular/non-modular graphs plus seeded random connected ones,
    all with at most 9 vertices."""
    rng = random.Random(90125)
    graphs = curated_modular() + curated_nonmodular()
    graphs += [random_connected(rng, 9) for _ in range(60)]
    graphs += [random_tree(rng.randint(3, 9), rng) for _ in range(15)]
    assert all(g.n <= 9 for g in graphs)
    return graphs


@pytest.fixture
def apsp_calls(monkeypatch) -> list:
    """(graph, returned matrix) per call of ``all_pairs_distances``, wrapped
    in every swk module that binds it.  A call that runs the BFS returns an
    array no earlier call returned; see :func:`bfs_runs`."""
    original = swk.metric.all_pairs_distances
    calls = []

    def recording(G):
        D = original(G)
        calls.append((G, D))
        return D

    modules = [swk] + [importlib.import_module(f"swk.{m.name}")
                       for m in pkgutil.iter_modules(swk.__path__)]
    for module in modules:
        if getattr(module, "all_pairs_distances", None) is original:
            monkeypatch.setattr(module, "all_pairs_distances", recording)
    return calls


def bfs_runs(calls) -> list:
    """The distinct matrices among recorded calls: one per BFS run, since
    the recorded pairs keep every returned array alive."""
    return list({id(D): D for _, D in calls}.values())


def degree(G: Graph, v: int) -> int:
    return len(G.adjacency[v])


def has_edge(G: Graph, u: int, v: int) -> bool:
    return v in G.adjacency[u]


def proved_hold(report) -> bool:
    """Every row of a ``check_bounds`` report marked "proved" holds."""
    return all(c.holds for c in report.checks if c.status == "proved")


def relabelled(G: Graph, seed: int) -> Graph:
    """G under a seeded random permutation of its vertex ids."""
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    return Graph(G.n, [(perm[u], perm[v]) for u in range(G.n) for v in G.adjacency[u] if u < v])


def sw3_by_triples(g) -> int:
    """SW_3 as the sum of steiner_distance_3 over every triple."""
    D = all_pairs_distances(g)
    return sum(steiner_distance_3(D, a, b, c) for a, b, c in combinations(range(g.n), 3))


def classify_by_median_sets(g) -> TripleClassification:
    """classify_triples by one median_set per triple; each pair's interval
    is computed once, as median_set would compute it."""
    D = all_pairs_distances(g)
    I = [[interval(D, u, v) for v in range(g.n)] for u in range(g.n)]
    modular, unique = 0, True
    for a, b, c in combinations(range(g.n), 3):
        mset = I[a][b] & I[a][c] & I[b][c]
        if mset:
            modular += 1
            unique = unique and mset.bit_count() == 1
    total = comb(g.n, 3)
    return TripleClassification(total, modular, total - modular, unique)


def brute_interval(G: Graph, D, u: int, v: int) -> set[int]:
    """Union of vertices over all shortest u-v paths, by path enumeration."""
    target = int(D[u, v])
    found: set[int] = set()

    def walk(w: int, path: list[int]) -> None:
        if w == v:
            found.update(path)
            return
        for x in G.adjacency[w]:
            if int(D[u, x]) == int(D[u, w]) + 1 and int(D[u, x]) + int(D[x, v]) == target:
                walk(x, path + [x])

    walk(u, [u])
    return found


def is_bipartite(G: Graph) -> bool:
    color = [-1] * G.n
    for s in range(G.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in G.adjacency[v]:
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def tree_steiner_distance(T: Graph, terminals) -> int:
    """Steiner distance in a tree: the number of edges whose removal leaves
    terminals on both sides (each such edge is in every tree spanning them)."""
    wanted = set(terminals)
    parent = [-1] * T.n
    order = [0]
    seen = {0}
    for v in order:
        for w in T.adjacency[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                order.append(w)
    below = [int(v in wanted) for v in range(T.n)]
    for v in reversed(order[1:]):
        below[parent[v]] += below[v]
    return sum(1 for v in order[1:] if 0 < below[v] < len(wanted))


def sizes_without_block(G: Graph, block: int) -> tuple[int, ...]:
    """Reference for ``BlockDecomposition.sizes``: for each vertex of the
    block (a bitmask) in increasing order, the size of its component once
    the block's edges are deleted.  A BFS that refuses to cross an edge
    with both ends in the block, as two blocks share at most one vertex."""
    adjacency = G.adjacency
    sizes = []
    for s0 in bit_list(block):
        seen = {s0}
        stack = [s0]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w in seen or (block >> v) & (block >> w) & 1:
                    continue
                seen.add(w)
                stack.append(w)
        sizes.append(len(seen))
    return tuple(sizes)


def bfs_connected(n: int, pairs) -> bool:
    """Connectivity of the graph on 0..n-1 with the given edge pairs, by a
    Python BFS over a dict of neighbour sets (no Graph involved)."""
    if n <= 1:
        return True
    nbrs: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    seen = {0}
    queue = [0]
    for v in queue:
        for w in nbrs[v] - seen:
            seen.add(w)
            queue.append(w)
    return len(seen) == n


def brute_cube(n: int, keep) -> Graph:
    """Subgraph of the n-cube induced by the strings x in 0..2^n-1 with
    keep(x), by a scan of all 2^n strings and their Hamming-distance-1
    pairs; vertex ids in numeric order, labels the n-digit strings."""
    values = [x for x in range(1 << n) if keep(x)]
    index = {x: i for i, x in enumerate(values)}
    edges = [
        (index[x], index[x ^ (1 << i)])
        for x in values
        for i in range(n)
        if x ^ (1 << i) in index
    ]
    labels = [format(x, f"0{n}b") if n else "" for x in values]
    return Graph(len(values), edges, labels=labels)


def searchsorted_cube(n: int, keep) -> Graph:
    """Reference for the cube builders: the subgraph of the n-cube induced by
    the strings x in 0..2^n-1 where the array predicate keep(x) holds.  For
    each bit i, one searchsorted finds x | 2^i among the kept strings for
    every x with bit i clear, and the edges go to Graph as an (m, 2) array,
    so the result shares no code with the builders' rank arithmetic."""
    values = np.arange(1 << n, dtype=np.int64)
    values = values[keep(values)]
    found = [np.empty((0, 2), dtype=np.int64)]
    for i in range(n):
        lo = np.flatnonzero((values & (1 << i)) == 0)
        up = values[lo] | (1 << i)
        hi = np.minimum(np.searchsorted(values, up), values.size - 1)
        hit = values[hi] == up
        found.append(np.stack((lo[hit], hi[hit]), axis=1))
    labels = [format(x, f"0{n}b") if n else "" for x in values.tolist()]
    return Graph(values.size, np.concatenate(found), labels=labels)


def _median_mask(D, a: int, b: int, c: int) -> int:
    return interval(D, a, b) & interval(D, a, c) & interval(D, b, c)


def _triangle_gates(D, triple, tri) -> bool:
    """Some order (p, q, r) of the triangle lies on shortest a-b, b-c and
    a-c paths through its edges pq, qr and pr."""
    a, b, c = triple
    for p, q, r in permutations(tri):
        if (
            D[a, p] + 1 + D[q, b] == D[a, b]
            and D[b, q] + 1 + D[r, c] == D[b, c]
            and D[a, p] + 1 + D[r, c] == D[a, c]
        ):
            return True
    return False


def walk_pseudo_median(G: Graph, D) -> bool:
    """Reference: every triple has a unique median vertex or, if it has no
    median, a unique gating triangle.  A walk over triples and triangles."""
    n = G.n
    triangles = [
        (p, q, r)
        for p, q, r in combinations(range(n), 3)
        if has_edge(G, p, q) and has_edge(G, p, r) and has_edge(G, q, r)
    ]
    for triple in combinations(range(n), 3):
        medians = _median_mask(D, *triple)
        if medians:
            if medians.bit_count() != 1:
                return False
            continue
        if sum(1 for tri in triangles if _triangle_gates(D, triple, tri)) != 1:
            return False
    return True


def walk_half_perimeter(D) -> bool:
    """Reference: every median-free triple has Steiner distance half its
    perimeter plus one half.  A walk over triples."""
    return all(
        2 * steiner_distance_3(D, a, b, c)
        == int(D[a, b]) + int(D[a, c]) + int(D[b, c]) + 1
        for a, b, c in combinations(range(D.shape[0]), 3)
        if not _median_mask(D, a, b, c)
    )
