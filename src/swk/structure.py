"""Modular-triple testing and modular/median graph recognition.

A triple {a, b, c} is modular when the three pairwise geodesic intervals
share a vertex (a median).  A graph is modular when every triple is, and
median when that median is always unique.  One kernel scans all triples of
a stack of same-order graphs: it packs every interval into uint64 words,
then popcounts the blocked AND of I(a,b), I(a,c) and I(b,c).  ``median_set``
is the per-triple reference.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .bitset import as_vertex_list, bits
from .errors import PreconditionError
from .graphs import Graph
from .metric import all_pairs_distances, interval

# C(n,3) interval intersections and n^2 bitmasks get impractical above this.
MAX_TRIPLE_N = 512
# Largest temporary of the triple scan, in elements.
_BLOCK = 1 << 17


def median_set(D: np.ndarray, a: int, b: int, c: int) -> int:
    """Bitmask of vertices on shortest paths between every pair of a, b, c."""
    return interval(D, a, b) & interval(D, a, c) & interval(D, b, c)


def is_modular_triple(D: np.ndarray, a: int, b: int, c: int) -> bool:
    return median_set(D, a, b, c) != 0


@dataclass(frozen=True)
class TripleClassification:
    total: int
    modular: int
    nonmodular: int
    median_unique: bool  # every modular triple has exactly one median


def _scan_guard(n: int) -> None:
    if n > MAX_TRIPLE_N:
        raise PreconditionError(f"triple scan limited to {MAX_TRIPLE_N} vertices")


def _interval_words(D: np.ndarray) -> np.ndarray:
    """(ceil(n/64), g, n, n) uint64 for g stacked distance matrices: bit v at
    [:, i, u, x] is set iff v lies on a shortest u-x path of graph i."""
    g, n = D.shape[:2]
    words = -(-n // 64)
    # padding columns v >= n hold -1, so their test D[u,v] + D[v,x] == D[u,x] fails
    E = np.full((g, n, 64 * words), -1, np.int8 if 2 * int(D.max(initial=0)) <= 127 else np.int16)
    E[:, :, :n] = D
    out = np.empty((words, g, n, n), dtype=np.uint64)
    step = max(1, _BLOCK // max(1, g * n * n))
    for lo in range(0, n, step):
        on = E[:, lo:lo + step, None, :] + E[:, None, :, :] == E[:, lo:lo + step, :n, None]
        packed = np.packbits(on, axis=3, bitorder="little").view(np.uint64)
        out[:, :, lo:lo + step] = packed.transpose(3, 0, 1, 2)
    return out


def _median_counts(D: np.ndarray) -> Iterator[np.ndarray]:
    """Median-set sizes |I(a,b) & I(a,c) & I(b,c)| of all triples a < b < c of
    g stacked graphs: per middle vertex b, (g, rows a < b, columns c > b)
    blocks of about _BLOCK words (at least one a).  Consumers may stop early."""
    g, n = D.shape[:2]
    I = _interval_words(D)
    for b in range(1, n - 1):
        step = max(1, _BLOCK // (g * I.shape[0] * (n - b - 1)))
        for lo in range(0, b, step):
            # I is symmetric, so a and c may swap; the longer run goes innermost
            a, c = slice(lo, min(b, lo + step)), slice(b + 1, n)
            rows, cols = (c, a) if a.stop - lo > n - b - 1 else (a, c)
            R = I[:, :, rows]
            M = np.bitwise_count(R[:, :, :, b, None] & R[:, :, :, cols] & I[:, :, b, None, cols])
            yield M[0] if len(M) == 1 else M.sum(axis=0, dtype=np.int16)  # summed over words


def _classify(D: np.ndarray) -> list[TripleClassification]:
    g, n = D.shape[:2]
    if n < 3:
        raise PreconditionError("triple classification needs at least 3 vertices")
    axis = (1, 2) if g > 1 else None  # counting a whole block costs less per call
    modular, unique, some = 0, np.ones(g, dtype=bool), True  # some: unique.any()
    for counts in _median_counts(D):
        modular += np.count_nonzero(counts, axis=axis)
        if some and counts.max() > 1:  # per graph only on a block that fails somewhere
            unique &= (counts <= 1).all(axis=(1, 2))
            some = unique.any()
    return [TripleClassification(comb(n, 3), m, comb(n, 3) - m, u)
            for m, u in zip(np.atleast_1d(modular).tolist(), unique.tolist())]


def _every_triple(D: np.ndarray, unique: bool = False) -> list[bool]:
    """Per graph, whether every triple has a median (one if ``unique``); stops once all fail."""
    holds = np.ones(D.shape[0], dtype=bool)
    for counts in _median_counts(D):
        ok = counts == 1 if unique else counts
        if not ok.all():
            holds &= ok.all(axis=(1, 2))
            if not holds.any():
                break
    return holds.tolist()


def _stack(G: Graph) -> np.ndarray:
    _scan_guard(G.n)
    return all_pairs_distances(G)[None]


def _by_order(kernel: Callable[[np.ndarray], list], graphs: Sequence[Graph]) -> list:
    """``kernel`` over each order's graphs as one stack; results in the order of ``graphs``."""
    results: list = [None] * len(graphs)
    for n in {G.n for G in graphs}:
        ids = [i for i, G in enumerate(graphs) if G.n == n]
        for i, result in zip(ids, kernel(np.concatenate([_stack(graphs[i]) for i in ids]))):
            results[i] = result
    return results


def classify_triples(G: Graph) -> TripleClassification:
    """Count modular and non-modular 3-sets over all C(n, 3) triples, and
    whether every modular triple has exactly one median."""
    return _classify(_stack(G))[0]


def is_modular(G: Graph) -> bool:
    """True iff every vertex triple has a median; stops at the first failing block."""
    return G.n < 3 or _every_triple(_stack(G))[0]


def is_median(G: Graph) -> bool:
    """True iff every vertex triple has exactly one median."""
    return G.n < 3 or _every_triple(_stack(G), unique=True)[0]


def steiner_via_2intersection(
    D: np.ndarray, terminals: int | Iterable[int]
) -> int | None:
    """d(S) from any member of the 2-intersection interval of S.

    When some vertex x lies on a shortest path between every pair of
    terminals, d(S) = sum of d(u, x) over the terminals; every such x gives
    the same total (asserted).  Returns None when the intersection is empty.
    """
    n = D.shape[0]
    try:
        ids = as_vertex_list(terminals, n)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None
    if len(ids) < 2:
        raise PreconditionError("needs at least two distinct terminals")
    i2 = -1  # all-ones; narrowed by each pair
    for x, y in combinations(ids, 2):
        i2 &= interval(D, x, y)
        if not i2:
            return None
    values = {sum(int(D[u, x]) for u in ids) for x in bits(i2)}
    if len(values) != 1:
        raise AssertionError("2-intersection members disagree on the distance sum")
    return values.pop()
