#!/usr/bin/env python3
"""Write ``golden.json``: reference values for every graph the benchmark
feeds to ``swk index`` and ``swk structure``.

This script imports nothing from swk, so it shares no code with the timed
route.  Distances come from networkx; SW_3 and the triple classification
from plain loops over all triples; SW_k for k >= 4 from popcount sums of
an independent all-subsets Steiner table; cube Wiener and SW_3 values are
also compared with their closed forms.  Run it from the repository root:

    python3 perfbench/golden.py

It needs networkx (a test dependency of swk) and takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from math import comb
from operator import add
from pathlib import Path

import networkx as nx

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import POOL_SIZE, named_graph  # noqa: E402
from workloads import CUBE_GRAPHS, SUBSET_CASES, TRIPLE_GRAPHS  # noqa: E402


def fib(i: int) -> int:
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def closed_wiener(key: str) -> int | None:
    """Known closed forms: W(Q_d) = d 4^(d-1); Fibonacci and Lucas cubes
    (Klavzar-Mollard); grids from W(P_a x P_b) = b^2 W(P_a) + a^2 W(P_b)."""
    if key.startswith("cube"):
        d = int(key[4:])
        return d * 4 ** (d - 1)
    if key.startswith("fib"):
        n = int(key[3:])
        f0, f1 = fib(n), fib(n + 1)
        num = 4 * (n + 1) * f0 * f0 + (9 * n + 2) * f0 * f1 + 6 * n * f1 * f1
        assert num % 25 == 0
        return num // 25
    if key.startswith("lucas"):
        n = int(key[5:])
        return n * fib(n - 1) * fib(n + 1)
    if key.startswith("grid"):
        a, b = (int(x) for x in key[4:].split("x"))
        return b * b * (a**3 - a) // 6 + a * a * (b**3 - b) // 6
    return None


def to_nx(graph) -> nx.Graph:
    n, edges = graph
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    return G


def distance_rows(G: nx.Graph) -> list[list[int]]:
    lengths = dict(nx.all_pairs_shortest_path_length(G))
    n = G.number_of_nodes()
    return [[lengths[u][v] for v in range(n)] for u in range(n)]


def triple_scan(D: list[list[int]]) -> tuple[int, int, bool]:
    """(SW_3, non-modular triples, every median unique) by plain loops.

    d({a,b,c}) = min_v D[a][v]+D[b][v]+D[c][v].  The minimum is at least
    half the perimeter (sum of three triangle inequalities), with equality
    exactly at the vertices on all three geodesic intervals, i.e. at the
    medians; so a triple is modular iff twice the minimum equals the
    perimeter, and then the argmin set is its median set.
    """
    n = len(D)
    total = nonmodular = 0
    unique = True
    for a in range(n):
        Da = D[a]
        for b in range(a + 1, n):
            s = list(map(add, Da, D[b]))
            Db = D[b]
            for c in range(b + 1, n):
                t = list(map(add, s, D[c]))
                m = min(t)
                total += m
                if 2 * m != Da[b] + Da[c] + Db[c]:
                    nonmodular += 1
                elif unique and t.count(m) != 1:
                    unique = False
    return total, nonmodular, unique


def subset_steiner_sums(graph, ks) -> dict[int, int]:
    """SW_k for each k: d(S) = min |T| - 1 over connected T containing S,
    tabulated for every subset by pushing each connected set's value down
    to its subsets, then summed by popcount."""
    n, edges = graph
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    inf = n + 1
    full = 1 << n
    d = [inf] * full
    for mask in range(1, full):
        seen = frontier = mask & -mask
        while frontier:
            reach = 0
            for v in range(n):
                if frontier >> v & 1:
                    reach |= nbr[v]
            frontier = reach & mask & ~seen
            seen |= frontier
        if seen == mask:
            d[mask] = bin(mask).count("1") - 1
    for mask in range(full - 1, 0, -1):
        for v in range(n):
            if mask >> v & 1:
                sub = mask ^ (1 << v)
                if sub and d[sub] > d[mask]:
                    d[sub] = d[mask]
    sums = {k: 0 for k in ks}
    for mask in range(1, full):
        k = bin(mask).count("1")
        if k in sums:
            sums[k] += d[mask]
    return sums


def structure_values(G: nx.Graph) -> dict:
    blocks = list(nx.biconnected_components(G))
    block_graph = all(
        G.subgraph(b).number_of_edges() == comb(len(b), 2) for b in blocks
    )
    return {
        "blocks": len(blocks),
        "cut_vertices": len(list(nx.articulation_points(G))),
        "block_graph": block_graph,
    }


def reference(key: str, need_triples: bool, ks=()) -> dict:
    graph = named_graph(key)
    G = to_nx(graph)
    assert nx.is_connected(G), key
    D = distance_rows(G)
    n = G.number_of_nodes()
    wiener = sum(map(sum, D)) // 2
    closed = closed_wiener(key)
    if closed is not None and closed != wiener:
        raise AssertionError(f"{key}: closed-form Wiener {closed} != BFS {wiener}")
    out = {"n": n, "m": G.number_of_edges(), "sw": {"2": wiener}}
    if need_triples:
        sw3, nonmodular, unique = triple_scan(D)
        if closed is not None:
            # cubes and grids are median graphs: 2 SW_3 = (n - 2) W
            assert nonmodular == 0 and unique and 2 * sw3 == (n - 2) * wiener, key
        out["sw"]["3"] = sw3
        out.update(nonmodular=nonmodular, median_unique=unique, **structure_values(G))
    if ks:
        out["sw"].update({str(k): v for k, v in subset_steiner_sums(graph, ks).items()})
    return out


def pool_keys(name: str) -> list[str]:
    if name.startswith(("rand", "small")):
        return [f"{name}/{i}" for i in range(POOL_SIZE)]
    return [name]


def main() -> None:
    golden: dict[str, dict] = {}
    for _, prefix, orders in CUBE_GRAPHS:
        for order in orders:
            golden[f"{prefix}{order}"] = reference(f"{prefix}{order}", False)
    for name in TRIPLE_GRAPHS:
        for key in pool_keys(name):
            golden[key] = reference(key, True)
            print(key, golden[key]["sw"], file=sys.stderr)
    subset_ks: dict[str, set[int]] = {}
    for name, k in SUBSET_CASES:
        subset_ks.setdefault(name, set()).add(k)
    for name, ks in subset_ks.items():
        for key in pool_keys(name):
            golden[key] = reference(key, False, sorted(ks | {4}))
    out = HERE / "golden.json"
    out.write_text(json.dumps({"graphs": dict(sorted(golden.items()))}, indent=1) + "\n")
    print(f"wrote {len(golden)} graphs to {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
