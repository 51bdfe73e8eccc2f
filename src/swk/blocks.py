"""Biconnected blocks, block graphs, and triple counts via block removal.

A block is a maximal subgraph without a cut vertex (a bridge or a maximal
2-connected piece); a block graph is one where every block is a clique.
For block graphs the number of non-modular triples decomposes over blocks:
deleting the edges of one block splits the graph, and a triple is
non-modular exactly when it lands in three different components for
exactly one block.  That turns the Steiner 3-Wiener index into pure
counting: 2*SW_3 = (n-2)*W + nm.

One lowpoint DFS on a vertex stack (Hopcroft & Tarjan, CACM 16(6), 1973)
gives every number the formulas need.  A vertex w's ``hang`` is 1 plus the
subtree sizes of its DFS children that start blocks of their own: deleting
a block's edges leaves each member w but its top one (nearest the DFS root)
in a component of hang[w] vertices, and the top one with the rest.  Every
edge lies in exactly one block, and a block on s vertices has at most
C(s, 2) edges, so the edge count alone tells whether every block is a clique.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import comb

from .bitset import mask_of
from .errors import PreconditionError
from .graphs import Graph
from .metric import wiener_index


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[int, ...]  # vertex bitmask per block
    cut_vertices: int  # bitmask
    sizes: tuple[tuple[int, ...], ...]  # per block and sorted member: its component's size


def block_decomposition(G: Graph) -> BlockDecomposition:
    """Lowpoint DFS block decomposition with component sizes.

    When v finishes with low[v] >= disc[u], u its DFS parent, the vertices
    above v on the stack, v included, and u form a block, and u's hang grows
    by v's subtree.  Every popped member w has finished, so hang[w] (1 plus
    the subtree sizes of w's children c with low[c] >= disc[w]) is final:
    it is w's component once the block's edges go, and u's is n minus their
    sum.  Blocks come out ordered by their sorted vertex tuples, so the
    result is reproducible regardless of traversal order; the cut vertices
    are those in two or more blocks.  The DFS from vertex 0 doubles as the
    connectivity check.
    """
    n = G.n
    if n <= 1:
        return BlockDecomposition((), 0, ())
    adjacency = G.adjacency
    disc, low = [0] + [-1] * (n - 1), [0] * n
    size, hang = [1] * n, [1] * n
    timer = 1
    stack = [0]  # visited vertices whose block is not yet popped
    call = [(0, iter(adjacency[0]), 0)]  # (vertex, neighbours left, its stack index)
    found = []  # (sorted members, their sizes) per block
    while True:
        v, it, at = call[-1]
        for w in it:
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                call.append((w, iter(adjacency[w]), len(stack)))
                stack.append(w)
                break
            if disc[w] < low[v]:  # v's parent too: low[v] = its disc still pops there
                low[v] = disc[w]
        else:
            call.pop()
            if not call:
                break
            u = call[-1][0]
            size[u] += size[v]
            if low[v] < low[u]:  # so low[v] < disc[u]: no block pops at u
                low[u] = low[v]
            elif low[v] >= disc[u]:
                hang[u] += size[v]
                members = stack[at:] + [u]
                del stack[at:]
                sizes = [hang[w] for w in members[:-1]]
                sizes.append(n - sum(sizes))
                members, sizes = zip(*sorted(zip(members, sizes)))
                found.append((members, sizes))
    if timer < n:
        raise PreconditionError("graph must be connected")

    found.sort(key=lambda block: block[0])
    blocks = tuple(mask_of(members) for members, _ in found)
    seen = cut = 0
    for b in blocks:
        cut |= seen & b
        seen |= b
    return BlockDecomposition(blocks, cut, tuple(sizes for _, sizes in found))


def is_block_graph(G: Graph, decomp: BlockDecomposition | None = None) -> bool:
    """True iff every block induces a complete subgraph: the edge count
    equals the sum of C(|B|, 2) over blocks B."""
    if decomp is None:
        decomp = block_decomposition(G)
    return G.m == sum(comb(len(sizes), 2) for sizes in decomp.sizes)


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


def nm_block_graph(G: Graph, decomp: BlockDecomposition | None = None) -> int:
    """Non-modular triple count of a block graph, one block removal at a time."""
    if decomp is None:
        decomp = block_decomposition(G)
    if not is_block_graph(G, decomp):
        raise PreconditionError("not a block graph (a block is not a clique)")
    return sum(n3_of_components(sizes) for sizes in decomp.sizes)


def sw3_block_formula(G: Graph, decomp: BlockDecomposition | None = None) -> int:
    """Twice the Steiner 3-Wiener index of a block graph:
    2*SW_3 = (n-2)*W + nm.  Returned doubled to stay integral."""
    if G.n < 3:
        raise PreconditionError("needs at least 3 vertices")
    if decomp is None:
        decomp = block_decomposition(G)
    nm = nm_block_graph(G, decomp)
    return (G.n - 2) * wiener_index(G) + nm
