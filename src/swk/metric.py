"""Shortest-path distances, Wiener index, average distance, geodesic interval.

Distance matrices are plain numpy int32 arrays (hop counts), materialized
because the Steiner and structure layers look distances up n^3..n^4 times.
A graph's matrix is computed once, kept on the graph and read-only, so the
functions that take a graph all read the same matrix.
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
# Bit planes are unpacked about this many bytes at a time.
_UNPACK_BYTES = 1 << 16
_PLANE_WEIGHTS = 1 << np.arange(MATRIX_LIMIT.bit_length(), dtype=np.int32)


def all_pairs_distances(G: Graph) -> np.ndarray:
    """All-pairs hop distances as a symmetric, read-only (n, n) int32 array.

    The BFS runs on the first call for G; the array is kept on G, and every
    later call returns that same array.  Level-synchronous BFS from all
    sources at once on bitmasks over sources (Then et al., PVLDB 8(4),
    2014).  A vertex is done at the first level that brings it nothing new,
    as its distance spheres are nonempty up to its eccentricity; G is
    connected iff vertex 0 has then seen all sources.  Level d is ORed into
    bit plane j for each bit j of d.
    """
    if G._dist is not None:
        G._dist.flags.writeable = False  # copied or unpickled arrays come back writeable
        return G._dist
    n = G.n
    if n > MATRIX_LIMIT:
        raise PreconditionError(f"distance matrix limited to {MATRIX_LIMIT} vertices")
    out = np.zeros((n, n), dtype=np.int32)
    if n > 1:
        adjacency = G.adjacency
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
        depth, nbytes = len(planes), (n + 7) // 8
        rows = b"".join([row.to_bytes(nbytes, "little") for plane in planes for row in plane])
        packed = np.frombuffer(rows, dtype=np.uint8).reshape(depth, n, nbytes)
        step = max(1, _UNPACK_BYTES // (depth * n))
        for lo in range(0, n, step):
            bits = np.unpackbits(packed[:, lo:lo + step], axis=2, count=n, bitorder="little")
            block = out[lo:lo + step].reshape(-1)
            np.matmul(_PLANE_WEIGHTS[:depth], bits.reshape(depth, -1), out=block)
    out.flags.writeable = False
    G._dist = out
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

