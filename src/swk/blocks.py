"""Biconnected blocks, block graphs, and triple counts via block removal.

A block is a maximal subgraph without a cut vertex (a bridge or a maximal
2-connected piece); a block graph is one where every block is a clique.
For block graphs the number of non-modular triples decomposes over blocks:
deleting the edges of one block splits the graph, and a triple is
non-modular exactly when it lands in three different components for
exactly one block.  That turns the Steiner 3-Wiener index into pure
counting: 2*SW_3 = (n-2)*W + nm.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .bitset import mask_of
from .errors import PreconditionError
from .graphs import Graph
from .metric import wiener_index


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[int, ...]  # vertex bitmask per block
    cut_vertices: int  # bitmask
    block_of_edge: dict[tuple[int, int], int]  # (u, v) with u < v -> block index


def block_decomposition(G: Graph) -> BlockDecomposition:
    """Lowpoint DFS block decomposition.

    Blocks come out ordered by their sorted vertex tuples, so the result is
    reproducible regardless of traversal order.  Every edge belongs to
    exactly one block; two blocks share at most a cut vertex.  The DFS from
    vertex 0 doubles as the connectivity check.
    """
    n = G.n
    if n <= 1:
        return BlockDecomposition((), 0, {})

    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    edge_stack: list[tuple[int, int]] = []
    raw_blocks: list[list[tuple[int, int]]] = []
    cut = 0
    root_children = 0

    timer = 0
    disc[0] = low[0] = timer
    timer += 1
    adjacency = G.adjacency
    call: list[tuple[int, object]] = [(0, iter(adjacency[0]))]
    while call:
        v, it = call[-1]
        advanced = False
        for w in it:  # type: ignore[union-attr]
            if disc[w] == -1:
                parent[w] = v
                edge_stack.append((v, w))
                disc[w] = low[w] = timer
                timer += 1
                call.append((w, iter(adjacency[w])))
                if v == 0:
                    root_children += 1
                advanced = True
                break
            if w != parent[v] and disc[w] < disc[v]:
                edge_stack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        if not advanced:
            call.pop()
            if call:
                u = call[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    comp = []
                    while True:
                        e = edge_stack.pop()
                        comp.append(e)
                        if e == (u, v):
                            break
                    raw_blocks.append(comp)
                    if u != 0:
                        cut |= 1 << u
    if timer < n:
        raise PreconditionError("graph must be connected")
    if root_children > 1:
        cut |= 1
    assert not edge_stack, "edge stack not drained"

    keyed = []
    for comp in raw_blocks:
        verts = tuple(sorted({x for e in comp for x in e}))
        keyed.append((verts, comp))
    keyed.sort(key=lambda kv: kv[0])
    blocks = []
    block_of_edge: dict[tuple[int, int], int] = {}
    for idx, (verts, comp) in enumerate(keyed):
        blocks.append(mask_of(verts))
        for u, v in comp:
            block_of_edge[(u, v) if u < v else (v, u)] = idx
    return BlockDecomposition(tuple(blocks), cut, block_of_edge)


def is_block_graph(G: Graph, decomp: BlockDecomposition | None = None) -> bool:
    """True iff every block induces a complete subgraph."""
    if decomp is None:
        decomp = block_decomposition(G)
    counts = [0] * len(decomp.blocks)
    for idx in decomp.block_of_edge.values():
        counts[idx] += 1
    for bmask, count in zip(decomp.blocks, counts):
        s = bmask.bit_count()
        if count != s * (s - 1) // 2:
            return False
    return True


def n3_of_components(sizes: Sequence[int]) -> int:
    """Sum of n_i * n_j * n_k over component triples i < j < k.

    Zero when fewer than three components; order of sizes is irrelevant.
    """
    e1 = e2 = e3 = 0
    for s in sizes:
        if s <= 0:
            raise ValueError("component sizes must be positive")
        e3 += e2 * s
        e2 += e1 * s
        e1 += s
    return e3


def _component_sizes_without_block(
    G: Graph, decomp: BlockDecomposition, skip: int
) -> list[int]:
    # Deletes block edges virtually: the BFS just refuses to cross them.
    boe, adjacency = decomp.block_of_edge, G.adjacency
    seen = bytearray(G.n)
    sizes = []
    for s0 in range(G.n):
        if seen[s0]:
            continue
        seen[s0] = 1
        stack = [s0]
        count = 0
        while stack:
            v = stack.pop()
            count += 1
            for w in adjacency[v]:
                if not seen[w]:
                    key = (v, w) if v < w else (w, v)
                    if boe[key] == skip:
                        continue
                    seen[w] = 1
                    stack.append(w)
        sizes.append(count)
    return sizes


def nm_block_graph(G: Graph, decomp: BlockDecomposition | None = None) -> int:
    """Non-modular triple count of a block graph, one block removal at a time."""
    if decomp is None:
        decomp = block_decomposition(G)
    if not is_block_graph(G, decomp):
        raise PreconditionError("not a block graph (a block is not a clique)")
    return sum(
        n3_of_components(_component_sizes_without_block(G, decomp, i))
        for i in range(len(decomp.blocks))
    )


def sw3_block_formula(G: Graph, decomp: BlockDecomposition | None = None) -> int:
    """Twice the Steiner 3-Wiener index of a block graph:
    2*SW_3 = (n-2)*W + nm.  Returned doubled to stay integral."""
    if G.n < 3:
        raise PreconditionError("needs at least 3 vertices")
    if decomp is None:
        decomp = block_decomposition(G)
    nm = nm_block_graph(G, decomp)
    return (G.n - 2) * wiener_index(G) + nm
