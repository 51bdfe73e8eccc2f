"""Modular-triple testing and modular/median graph recognition.

A triple {a, b, c} is modular when the three pairwise geodesic intervals
share a vertex (a median).  A graph is modular when every triple is, and
median when that median is always unique.  One kernel scans all triples:
it packs every interval into uint64 words, then popcounts the blocked AND
of I(a, b), I(a, c) and I(b, c).  ``median_set`` is the per-triple reference.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
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
    """(ceil(n/64), n, n) uint64: bit v of the words at [:, u, x] is set iff v
    lies on a shortest u-x path.  Built about _BLOCK tests at a time."""
    n = D.shape[0]
    words = -(-n // 64)
    # padding columns v >= n hold -1, so their test D[u,v] + D[v,x] == D[u,x] fails
    E = np.full((n, 64 * words), -1, np.int8 if 2 * int(D.max()) <= 127 else np.int16)
    E[:, :n] = D
    out = np.empty((words, n, n), dtype=np.uint64)
    step = max(1, _BLOCK // (n * n))
    for lo in range(0, n, step):
        on = E[lo:lo + step, None, :] + E[None, :, :] == E[lo:lo + step, :n, None]
        packed = np.packbits(on, axis=2, bitorder="little").view(np.uint64)
        out[:, lo:lo + step] = packed.transpose(2, 0, 1)
    return out


def _median_counts(G: Graph) -> Iterator[np.ndarray]:
    """Median-set sizes |I(a,b) & I(a,c) & I(b,c)| of all triples a < b < c:
    per middle vertex b, blocks of about _BLOCK words (at least one a) with
    rows a < b and columns c > b.  Consumers may stop early."""
    n = G.n
    if n < 3:
        return
    _scan_guard(n)
    I = _interval_words(all_pairs_distances(G))
    for b in range(1, n - 1):
        step = max(1, _BLOCK // (I.shape[0] * (n - b - 1)))
        for lo in range(0, b, step):
            # I is symmetric, so a and c may swap; the longer run goes innermost
            a, c = slice(lo, min(b, lo + step)), slice(b + 1, n)
            rows, cols = (c, a) if a.stop - lo > n - b - 1 else (a, c)
            R = I[:, rows]
            M = R[:, :, b, None] & R[:, :, cols] & I[:, b, None, cols]
            yield np.bitwise_count(M).sum(axis=0, dtype=np.int16)


def classify_triples(G: Graph) -> TripleClassification:
    """Count modular and non-modular 3-sets over all C(n, 3) triples, and
    whether every modular triple has exactly one median."""
    if G.n < 3:
        raise PreconditionError("triple classification needs at least 3 vertices")
    modular, unique = 0, True
    for counts in _median_counts(G):
        modular += int(np.count_nonzero(counts))
        unique = unique and int(counts.max()) <= 1
    total = comb(G.n, 3)
    return TripleClassification(total, modular, total - modular, unique)


def is_modular(G: Graph) -> bool:
    """True iff every vertex triple has a median; stops at the first failing block."""
    return all(counts.all() for counts in _median_counts(G))


def is_median(G: Graph) -> bool:
    """True iff every vertex triple has exactly one median."""
    return all((counts == 1).all() for counts in _median_counts(G))


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
