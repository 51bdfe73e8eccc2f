"""Shortest-path distances, Wiener index, average distance, geodesic interval.

Distance matrices are plain numpy int32 arrays (hop counts), materialized
because the Steiner and structure layers look distances up n^3..n^4 times.
A graph's matrix is computed once, kept on the graph and read-only, so the
functions that take a graph all read the same matrix.  The BFS has two
routes, split like ``graphs.is_connected``: numpy over the CSR arrays of a
graph built from an edge array (the cube builders and both parsers), and
Python ints over the adjacency tuples of a pair-built graph.  Pair-built
graphs are the small generated ones, where the Python route is cheaper.
On a shared 2-core host, over 300 seeded ``random_connected(rng, 12)``
graphs (7.3 vertices on average), a build from pairs and the Python route
took 44 us per graph, against 157 us for an array build and the numpy
route; on ``fibonacci_cube(13)`` (610 vertices) the numpy route took
3.5 ms and the Python one 9.4 ms.
All averages are exact fractions; floats never enter an equality check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import or_

import numpy as np

from .bitset import pack_bool
from .errors import PreconditionError
from .graphs import Graph

# Largest vertex count whose n*n int32 distance matrix is materialized;
# the CLI also caps the families it builds at this size.
MATRIX_LIMIT = 8192
# The CSR route gathers about this many 64-bit words at a time, and bit
# planes are unpacked about this many bytes at a time.
_GATHER_WORDS = 1 << 16
_UNPACK_BYTES = 1 << 16


def all_pairs_distances(G: Graph) -> np.ndarray:
    """All-pairs hop distances as a symmetric, read-only (n, n) int32 array.

    The BFS runs on the first call for G; the array is kept on G, and every
    later call returns that same array.  Level-synchronous BFS from all
    sources at once on bitmasks over sources (Then et al., PVLDB 8(4),
    2014): row v of level d holds the sources at distance d from v, and
    level d is ORed into bit plane j for each bit j of d.  Graphs built from
    edge arrays run it in numpy over their CSR arrays; pair-built graphs,
    which are small, run it on Python ints over their adjacency tuples.
    """
    if G._dist is not None:
        return G._dist
    n = G.n
    if n > MATRIX_LIMIT:
        raise PreconditionError(f"distance matrix limited to {MATRIX_LIMIT} vertices")
    if n > 1:
        planes = _csr_planes(G) if G.indptr is not None else _tuple_planes(G)
        out = _matrix_from_planes(planes, n)
    else:
        out = np.zeros((n, n), dtype=np.int32)
    out.flags.writeable = False
    G._dist = out
    return out


def _tuple_planes(G: Graph) -> np.ndarray:
    """Bit planes from a BFS on Python ints.  A vertex is done at the first
    level that brings it nothing new, as its distance spheres are nonempty up
    to its eccentricity; G is connected iff vertex 0 has then seen all."""
    n, adjacency = G.n, G.adjacency
    full = (1 << n) - 1
    frontier = [1 << v for v in range(n)]
    seen = frontier[:]
    planes: list[list[int]] = []
    active = range(n)
    d = 0
    while active:
        d += 1
        nxt = [0] * n
        still = []
        for v in active:
            acc = 0
            for u in adjacency[v]:
                acc |= frontier[u]
            sv = seen[v]
            acc &= ~sv
            if acc:
                nxt[v] = acc
                seen[v] = sv = sv | acc
                if sv != full:
                    still.append(v)
        if d & (d - 1) == 0:
            planes.append(nxt)  # d = 2^j opens plane j
        else:
            for j, plane in enumerate(planes):
                if d >> j & 1:
                    planes[j] = list(map(or_, plane, nxt))
        active = still
        frontier = nxt
    if seen[0] != full:
        raise PreconditionError("graph must be connected")
    nbytes = (n + 7) // 8
    rows = b"".join([row.to_bytes(nbytes, "little") for plane in planes for row in plane])
    return np.frombuffer(rows, dtype=np.uint8).reshape(len(planes), n, nbytes)


def _csr_planes(G: Graph) -> np.ndarray:
    """Bit planes from a BFS over CSR arrays, as (n, ceil(n/64)) uint64 words.

    Each level ORs the frontier rows of every vertex's neighbours with one
    ``reduceat`` per chunk of rows, a chunk gathering about
    ``_GATHER_WORDS`` words.  ``reduceat`` misreads an empty neighbour list,
    so a graph with an isolated vertex is refused first.
    """
    n, indptr, indices = G.n, G.indptr, G.indices
    if (indptr[1:] == indptr[:-1]).any():
        raise PreconditionError("graph must be connected")
    words = (n + 63) // 64
    v = np.arange(n)
    frontier = np.zeros((n, words), dtype="<u8")
    frontier[v, v >> 6] = np.left_shift(np.uint64(1), (v & 63).astype(np.uint64))
    unseen = ~frontier
    unseen[:, -1] &= np.uint64((1 << (n - 64 * (words - 1))) - 1)  # no source past n - 1
    chunks = []
    lo = 0
    while lo < n:
        end = indptr[lo] + max(1, _GATHER_WORDS // words)
        hi = min(n, max(lo + 1, int(np.searchsorted(indptr, end, side="right")) - 1))
        chunks.append((lo, hi, indices[indptr[lo]:indptr[hi]], indptr[lo:hi] - indptr[lo]))
        lo = hi
    planes = np.zeros(((n - 1).bit_length(), n, words), dtype="<u8")
    d = 0
    while True:
        d += 1
        nxt = np.empty_like(frontier)
        for lo, hi, nbrs, starts in chunks:
            np.bitwise_or.reduceat(np.take(frontier, nbrs, axis=0), starts, axis=0,
                                   out=nxt[lo:hi])
        nxt &= unseen
        if not nxt.any():
            break
        unseen ^= nxt
        for j in range(d.bit_length()):
            if d >> j & 1:
                planes[j] |= nxt
        frontier = nxt
    if unseen[0].any():
        raise PreconditionError("graph must be connected")
    return planes[:(d - 1).bit_length()].view(np.uint8)


def _matrix_from_planes(planes: np.ndarray, n: int) -> np.ndarray:
    """Distances from (depth, n, nbytes) bit planes, little-endian bit order.

    Rows are unpacked in blocks of about ``_UNPACK_BYTES`` bytes per plane
    and shifted into a uint16 block (depth <= 13 since n <= 8192).
    """
    out = np.empty((n, n), dtype=np.int32)
    step = max(1, _UNPACK_BYTES // n)
    for lo in range(0, n, step):
        bits = np.unpackbits(planes[:, lo:lo + step], axis=2, count=n, bitorder="little")
        acc = bits[0].astype(np.uint16)
        for j in range(1, len(bits)):
            acc |= np.left_shift(bits[j], j, dtype=np.uint16)
        out[lo:lo + step] = acc
    return out


def wiener_index(G: Graph) -> int:
    """Sum of hop distances over unordered vertex pairs."""
    return int(all_pairs_distances(G).sum(dtype=np.int64)) // 2


def average_distance(G: Graph) -> Fraction:
    """Wiener index divided by C(n, 2), in lowest terms."""
    if G.n < 2:
        raise PreconditionError("average distance needs at least 2 vertices")
    return Fraction(wiener_index(G), comb(G.n, 2))


def interval(D: np.ndarray, u: int, v: int) -> int:
    """Bitmask of vertices on some shortest u-v path (always contains u, v)."""
    return pack_bool(D[u] + D[v] == D[u, v])

