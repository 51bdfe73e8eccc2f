"""Graph inputs for the benchmark, built without importing swk.

Every graph is a pair ``(n, edges)`` with vertex ids 0..n-1.  Random
graphs come from a fixed pool: pool entry ``(slot, index)`` is always the
same graph, so its reference values can be committed once
(``golden.json``).  A benchmark seed chooses pool entries and relabels
every vertex, which changes the files swk reads but none of the values
swk must report.
"""

from __future__ import annotations

import random
from itertools import combinations

# Entries per random slot; a benchmark seed draws one of them.
POOL_SIZE = 6


def _cube(width: int, keep) -> tuple[int, list[tuple[int, int]]]:
    words = [x for x in range(1 << width) if keep(x)]
    index = {x: i for i, x in enumerate(words)}
    edges = [
        (index[x], index[x ^ (1 << b)])
        for x in words
        for b in range(width)
        if x ^ (1 << b) > x and x ^ (1 << b) in index
    ]
    return len(words), edges


def fibonacci_cube(order: int):
    """Binary words of length ``order`` with no two adjacent ones."""
    return _cube(order, lambda x: x & (x >> 1) == 0)


def lucas_cube(order: int):
    """Fibonacci words whose first and last bits are not both one."""
    hi = 1 << (order - 1)
    return _cube(order, lambda x: x & (x >> 1) == 0 and not (x & hi and x & 1))


def hypercube(dim: int):
    return _cube(dim, lambda x: True)


def grid(rows: int, cols: int):
    """Cartesian product of the paths P_rows and P_cols."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return rows * cols, edges


def random_connected(n: int, m: int, rng: random.Random):
    """Connected graph with n vertices and m edges: a random spanning tree
    plus m - (n - 1) distinct extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        edges.add((min(u, v), max(u, v)))
    spare = [e for e in combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(spare, m - (n - 1)))
    return n, sorted(edges)


# Random slots: name -> (vertices, edges).  Dense slots make most triples
# non-modular; the small slots feed the k-subset layer.
RANDOM_SLOTS = {
    "rand60": (60, 531),
    "rand100": (100, 990),
    "rand150": (150, 3352),
    "small9": (9, 16),
    "small10": (10, 18),
    "small11": (11, 20),
    "small12": (12, 22),
}


def pool_graph(slot: str, index: int):
    n, m = RANDOM_SLOTS[slot]
    return random_connected(n, m, random.Random(f"{slot}/{index}"))


def named_graph(name: str):
    """Graph for a golden key: ``fib<k>``, ``lucas<k>``, ``cube<k>``,
    ``grid<r>x<c>`` or ``<slot>/<pool index>``."""
    if "/" in name:
        slot, index = name.split("/")
        return pool_graph(slot, int(index))
    for prefix, build in (("fib", fibonacci_cube), ("lucas", lucas_cube), ("cube", hypercube)):
        if name.startswith(prefix):
            return build(int(name[len(prefix):]))
    if name.startswith("grid"):
        rows, cols = name[4:].split("x")
        return grid(int(rows), int(cols))
    raise ValueError(f"unknown graph {name!r}")


def relabel(graph, rng: random.Random):
    """The same graph under a random vertex permutation and edge order."""
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return n, out


def edgelist_text(graph) -> str:
    n, edges = graph
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def graph6_text(graph) -> str:
    """graph6 encoding (n < 258048): size header, then the upper triangle
    column by column, six bits per byte offset by 63."""
    n, edges = graph
    adj = set()
    for u, v in edges:
        adj.add((min(u, v), max(u, v)))
    if n <= 62:
        out = [63 + n]
    else:
        out = [126] + [63 + ((n >> s) & 63) for s in (12, 6, 0)]
    bits = [1 if (u, v) in adj else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i:i + 6]:
            x = (x << 1) | b
        out.append(63 + x)
    return bytes(out).decode("ascii") + "\n"
