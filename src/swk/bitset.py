"""Vertex subsets as int bitmasks.

Bit ``i`` set means vertex ``i`` is a member.  Plain Python ints give
arbitrary-width bitsets with word-at-a-time AND/OR.  Terminal sets, single
intervals and median sets, block and cut-vertex sets and the Steiner oracle's
connectivity test use them; the all-triples scan in ``structure`` packs
its intervals into numpy uint64 words instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def bit_list(mask: int) -> list[int]:
    return list(bits(mask))


def pack_bool(flags: np.ndarray) -> int:
    """Bool vector -> bitmask with bit i = flags[i]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def as_vertex_list(subset: int | Iterable[int], n: int) -> list[int]:
    """Normalize a bitmask or iterable of ids to a sorted duplicate-free list.

    Raises ValueError if any id falls outside 0..n-1.
    """
    ids = bit_list(subset) if isinstance(subset, int) else sorted(set(subset))
    if ids and (ids[0] < 0 or ids[-1] >= n):
        raise ValueError(f"vertex id outside 0..{n - 1}")
    return ids
