"""Graph construction: parsers, family generators, and the Cartesian product.

Graphs are simple, finite, undirected, with dense vertex ids 0..n-1.
Instances are immutable after construction and safe to share read-only.
The small builders hand :class:`Graph` Python pairs, which become sorted
adjacency tuples at once: on graphs of about ten vertices that loop is
several times cheaper than the numpy calls' fixed cost.  The parsers hand
it an (m, 2) numpy edge array, which it checks and keeps as CSR arrays;
the hypercube, Fibonacci and Lucas cube builders write sorted CSR arrays
themselves, by rank arithmetic.  Connectivity and distances are searched
over those arrays in numpy, and their adjacency tuples, the cube labels
and every graph's neighbor bitmasks are built on first use.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bitset import mask_of
from .errors import ParseError, PreconditionError
from .families import fibonacci, lucas

DEFAULT_VERTEX_CAP = 1 << 20
CUBE_ORDER_CAP = 30
# Adjacency tuples are cut from about this many neighbour ids at a time.
_TOLIST_ENTRIES = 1 << 16


class Graph:
    """Simple undirected graph with adjacency lists and neighbor bitmasks.

    ``edges`` is an iterable of (u, v) pairs or an (m, 2) integer ndarray.
    Both give the same graph and reject bad input with the same message,
    naming the first offending pair: an id outside 0..n-1, then a
    self-loop.  Duplicates and reversed pairs collapse.

    Pairs fill ``adjacency`` at once and leave ``indptr`` and ``indices``
    None.  An array is kept as CSR arrays: the sorted neighbours of v are
    ``indices[indptr[v]:indptr[v + 1]]``; cube builders pass theirs, sorted
    and unchecked, to ``_from_csr``.  ``labels`` may be a function, and
    ``__getattr__`` fills an unset ``adjacency``, ``adj_bits`` or ``labels``
    slot on first read.  ``_dist`` holds the distance matrix once
    :func:`swk.metric.all_pairs_distances` has computed it.
    """

    __slots__ = ("n", "m", "adjacency", "adj_bits", "labels", "indptr", "indices", "_labels",
                 "_dist")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        labels: Iterable[str] | Callable[[], Iterable[str]] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if isinstance(edges, np.ndarray):
            self.m, self.indptr, self.indices = _csr_from_array(n, edges)
        else:
            pairs: set[tuple[int, int]] = set()
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                pairs.add((u, v) if u < v else (v, u))
            adj: list[list[int]] = [[] for _ in range(n)]
            for u, v in pairs:
                adj[u].append(v)
                adj[v].append(u)
            self.m = len(pairs)
            self.adjacency: tuple[tuple[int, ...], ...] = tuple(
                tuple(sorted(a)) for a in adj
            )
            self.indptr = self.indices = None
        self.n = n
        self._labels = labels
        self._dist = None
        if not callable(labels):
            self.labels = tuple(labels) if labels is not None else None
            if self.labels is not None and len(self.labels) != n:
                raise ValueError("labels length must equal vertex count")

    @classmethod
    def _from_csr(cls, indptr: np.ndarray, indices: np.ndarray,
                  labels: Callable | tuple | None) -> Graph:
        """A graph on sorted, duplicate-free CSR arrays, kept unchecked."""
        G = cls.__new__(cls)
        G.n, G.m, G.indptr, G.indices = indptr.size - 1, indices.size // 2, indptr, indices
        G._labels, G._dist = labels, None
        return G

    def __getattr__(self, name: str):
        if name == "adjacency":
            self.adjacency = _tuples_from_csr(self.indptr, self.indices)
        elif name == "adj_bits":
            self.adj_bits = tuple(mask_of(a) for a in self.adjacency)
        elif name == "labels":
            self.labels = tuple(self._labels()) if callable(self._labels) else self._labels
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return getattr(self, name)

    def __reduce__(self) -> tuple:
        """Pickle n and the edges, or the CSR arrays, with the labels or their
        function.  ``_dist`` and the slots filled on first use do not travel."""
        if self.indptr is None:
            return Graph, (self.n, list(self.edges()), self.labels)
        labels = self._labels if callable(self._labels) else self.labels
        return Graph._from_csr, (self.indptr, self.indices, labels)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _csr_from_array(n: int, edges: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Edge count and CSR arrays (indptr, indices) of an (m, 2) edge array.

    Each edge is coded in both directions as u*n + v; one sort of those
    codes followed by an adjacent compare drops duplicates and leaves
    every neighbour list in order.
    """
    if edges.size == 0:
        edges = np.empty((0, 2), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
        raise ValueError("edge array must be an (m, 2) integer array")
    outside = ((edges < 0) | (edges >= n)).any(axis=1)
    bad = outside | (edges[:, 0] == edges[:, 1])
    if bad.any():
        i = int(bad.argmax())
        a, b = int(edges[i, 0]), int(edges[i, 1])
        if outside[i]:
            raise ValueError(f"edge ({a}, {b}) outside vertex range 0..{n - 1}")
        raise ValueError(f"self-loop at vertex {a}")
    u = edges[:, 0].astype(np.int64)
    v = edges[:, 1].astype(np.int64)
    codes = np.concatenate((u * n + v, v * n + u))
    codes.sort()
    codes = codes[np.diff(codes, prepend=-1) != 0]
    rows, indices = np.divmod(codes, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return codes.size // 2, indptr, indices


def _tuples_from_csr(indptr: np.ndarray, indices: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Adjacency tuples cut from ``tolist()`` chunks mapped through one shared
    list of ids, so the vertex ids are the same int objects in every tuple."""
    n = indptr.size - 1
    ids = list(range(n))
    adjacency: list[tuple[int, ...]] = []
    step = max(1, n * _TOLIST_ENTRIES // max(1, indices.size))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        base = indptr[lo]
        flat = list(map(ids.__getitem__, indices[base:indptr[hi]].tolist()))
        bounds = (indptr[lo:hi + 1] - base).tolist()
        adjacency.extend(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
    return tuple(adjacency)


def is_connected(G: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (vacuously for n <= 1).

    CSR arrays are searched level by level in numpy, so no tuples are built.
    Pair-built graphs have no arrays and keep the Python BFS over their
    tuples: at ten vertices it is about ten times cheaper than numpy's.
    """
    if G.n <= 1:
        return True
    if G.indptr is not None:
        seen = np.zeros(G.n, dtype=bool)
        seen[0] = True
        frontier, degrees = seen, np.diff(G.indptr)
        while frontier.any():
            grown = seen.copy()
            grown[G.indices[np.repeat(frontier, degrees)]] = True
            frontier, seen = grown & ~seen, grown
        return bool(seen.all())
    adjacency = G.adjacency
    seen = bytearray(G.n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                stack.append(w)
    return count == G.n


# -- edge-list text format ---------------------------------------------------


def _int_token(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer token {token!r}") from None


def parse_edgelist(text: str) -> Graph:
    """Parse an edge list: one "u v" pair per line, into an array-built graph.

    '#' starts a comment, blank lines are skipped, and an optional first
    line "n <count>" pins the vertex count, at most ``DEFAULT_VERTEX_CAP``.
    Duplicate edges collapse; self-loops are rejected with their line number.
    """
    declared: int | None = None
    ids: list[int] = []
    first = True
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if first and tokens[0] == "n":
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected 'n <count>'")
            declared = _int_token(tokens[1], lineno)
            if declared < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            first = False
            continue
        first = False
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            for token in tokens:  # name the first token that is not an integer
                _int_token(token, lineno)
            raise
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        ids.append(u)
        ids.append(v)
    max_id = max(ids, default=-1)
    if declared is not None and max_id >= declared:
        raise ParseError(
            f"declared vertex count {declared} but vertex id {max_id} appears"
        )
    n = declared if declared is not None else max_id + 1
    if n > DEFAULT_VERTEX_CAP:
        raise ParseError(f"edge list has {n} vertices (cap {DEFAULT_VERTEX_CAP})")
    return Graph(n, np.array(ids, dtype=np.int64).reshape(-1, 2))


# -- graph6 byte format ------------------------------------------------------

_G6_CAP = 1 << 18
_G6_HEADER = b">>graph6<<"


def _read_g6_size(data: bytes) -> tuple[int, bytes]:
    if data[0] != 126:
        return data[0] - 63, data[1:]
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise ParseError("truncated graph6 size field")
        n = 0
        for byte in data[1:4]:
            n = (n << 6) | (byte - 63)
        return n, data[4:]
    if len(data) < 8:
        raise ParseError("truncated graph6 size field")
    n = 0
    for byte in data[2:8]:
        n = (n << 6) | (byte - 63)
    return n, data[8:]


def parse_graph6(data: bytes | str) -> Graph:
    """Decode one graph6-encoded graph (an optional '>>graph6<<' prefix is
    tolerated).  The size header, the column-major upper-triangle bit order,
    and the 63-offset 6-bit byte packing follow the standard format."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError:
            raise ParseError("graph6 input is not ASCII") from None
    data = data.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if not data:
        raise ParseError("empty graph6 input")
    raw = np.frombuffer(data, dtype=np.uint8)
    outside = (raw < 63) | (raw > 126)
    if outside.any():
        i = int(outside.argmax())
        raise ParseError(f"graph6 byte {data[i]} at offset {i} outside 63..126")
    n, body = _read_g6_size(data)
    if n >= _G6_CAP:
        raise ParseError(f"graph6 vertex count {n} exceeds the 2^18 limit")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ParseError(f"graph6 body for n={n} needs {need} bytes, got {len(body)}")
    six = np.frombuffer(body, dtype=np.uint8) - np.uint8(63)
    bits = np.unpackbits(six[:, None], axis=1)[:, 2:].ravel()
    if bits[nbits:].any():
        raise ParseError("nonzero padding bits in graph6 body")
    # Bit k is the pair (u, v) with k = v(v-1)/2 + u, u < v: column v
    # is the last one whose start v(v-1)/2 is at most k.
    k = np.flatnonzero(bits[:nbits])
    cols = np.arange(n, dtype=np.int64)
    starts = cols * (cols - 1) // 2
    v = np.searchsorted(starts, k, side="right") - 1
    return Graph(n, np.stack((k - starts[v], v), axis=1))


def write_graph6(G: Graph, header: bool = False) -> bytes:
    """Encode a graph in graph6 form; inverse of :func:`parse_graph6`."""
    n = G.n
    if n >= _G6_CAP:
        raise PreconditionError(f"graph6 supports fewer than {_G6_CAP} vertices")
    out = bytearray(_G6_HEADER if header else b"")
    if n <= 62:
        out.append(63 + n)
    elif n <= 258047:
        out.append(126)
        out.extend(63 + ((n >> s) & 63) for s in (12, 6, 0))
    else:
        out.extend((126, 126))
        out.extend(63 + ((n >> s) & 63) for s in (30, 24, 18, 12, 6, 0))
    acc = 0
    nb = 0
    for v in range(1, n):
        mask = G.adj_bits[v]
        for u in range(v):
            acc = (acc << 1) | ((mask >> u) & 1)
            nb += 1
            if nb == 6:
                out.append(63 + acc)
                acc = 0
                nb = 0
    if nb:
        out.append(63 + (acc << (6 - nb)))
    return bytes(out)


def read_graph6_file(text: str | bytes) -> list[Graph]:
    """Parse a whole-file graph6 corpus, one graph per line."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]


# -- standard families -------------------------------------------------------

FAMILY_NAMES = (
    "path",
    "cycle",
    "complete",
    "complete_bipartite",
    "star",
    "hypercube",
    "fibonacci_cube",
    "lucas_cube",
)


@dataclass(frozen=True)
class FamilySpec:
    """A named family plus its one or two integer parameters."""

    family: str
    a: int
    b: int | None = None


def path_graph(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("complete graph needs at least 1 vertex")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise PreconditionError("complete bipartite parts must be nonempty")
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    if n < 1:
        raise PreconditionError("star needs at least 1 vertex")
    return Graph(n, [(0, v) for v in range(1, n)])


def _cube_from_strings(width: int, values: np.ndarray, rule: str,
                       keep: np.ndarray | None = None) -> Graph:
    """Subgraph of the width-cube on the sorted strings ``values`` (those with
    ``keep``, if given), its CSR arrays written by rank arithmetic.

    A string's rank is its place in ``values``.  Setting bit i adds 2^i to it
    under ``rule`` "any", where any clear bit is settable; under "path" or
    "cycle" it adds F(i+2) (Zeckendorf), and a bit is settable only when its
    neighbours on the path or cycle are clear (a one-bit cycle's bit is its
    own neighbour).  Mask columns clear set bits from the highest down, then
    set settable bits from the lowest up, so ids rise along each row.  With
    ``keep``, ranks are renumbered among the kept strings.
    """
    ranks = np.arange(values.size) if keep is None else np.flatnonzero(keep)
    values = values if keep is None else values[keep]
    step = np.array([1 << i if rule == "any" else fibonacci(i + 2) for i in range(width)], np.int64)
    bits = np.unpackbits(values.astype("<u4").view(np.uint8).reshape(-1, 4), axis=1,
                         count=width, bitorder="little").view(bool)
    mask = np.concatenate((bits[:, ::-1], ~bits), axis=1)
    if rule != "any" and width:
        near = np.pad(bits, ((0, 0), (1, 1)), "wrap" if rule == "cycle" else "constant")
        mask[:, width:] &= ~near[:, :-2] & ~near[:, 2:] & (rule == "path" or width > 1)
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
    indices = np.repeat(ranks, np.diff(indptr))
    indices += np.concatenate((-step[::-1], step))[np.flatnonzero(mask) % (2 * width)]
    ids = indices if keep is None else (np.cumsum(keep) - 1)[indices]
    return Graph._from_csr(indptr, ids, partial(_cube_labels, width, rule))


def _cube_labels(width: int, rule: str) -> list[str]:
    """The cube's strings, rebuilt from (width, rule) so that no graph keeps them."""
    values = np.arange(1 << width) if rule == "any" else _fibonacci_strings(width)
    values = values[_lucas_keep(values, width)] if rule == "cycle" and width else values
    return [format(x, f"0{width}b") for x in values.tolist()] if width else [""]


def _lucas_keep(values: np.ndarray, n: int) -> np.ndarray:
    return ((values >> (n - 1)) & values & 1) == 0


def _fibonacci_strings(n: int) -> np.ndarray:
    """Sorted length-n strings with no two consecutive ones, as integers.

    F_n = F_{n-1} followed by 2^{n-1} + F_{n-2}: strings with the top bit
    set have a zero below it.  O(F(n+2)) work, not O(2^n).
    """
    prev, cur = np.zeros(1, dtype=np.int64), np.array([0, 1], dtype=np.int64)
    if n == 0:
        return prev
    for k in range(2, n + 1):
        prev, cur = cur, np.concatenate((cur, prev + (1 << (k - 1))))
    return cur


def _check_cube_order(n: int, nv: int, max_vertices: int) -> None:
    if not 0 <= n <= CUBE_ORDER_CAP:
        raise PreconditionError(f"cube order must be in 0..{CUBE_ORDER_CAP}")
    if nv > max_vertices:
        raise PreconditionError(f"family would have {nv} vertices (cap {max_vertices})")


def hypercube(n: int, max_vertices: int = DEFAULT_VERTEX_CAP) -> Graph:
    """n-cube on all binary strings of length n."""
    _check_cube_order(n, 1 << n, max_vertices)
    return _cube_from_strings(n, np.arange(1 << n, dtype=np.int64), "any")


def fibonacci_cube(n: int, max_vertices: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Subgraph of the n-cube induced by strings with no two consecutive ones.

    Vertex ids follow the numeric order of the strings; labels carry the
    strings themselves.  |V| = F(n+2).
    """
    _check_cube_order(n, fibonacci(n + 2), max_vertices)
    return _cube_from_strings(n, _fibonacci_strings(n), "path")


def lucas_cube(n: int, max_vertices: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Fibonacci strings whose first and last bits are not both one.

    |V| = L(n) for n >= 1; the order-0 cube is a single vertex.
    """
    _check_cube_order(n, lucas(n) if n >= 1 else 1, max_vertices)
    values = _fibonacci_strings(n)
    return _cube_from_strings(n, values, "cycle", _lucas_keep(values, n) if n >= 1 else None)


def make_family(spec: FamilySpec, max_vertices: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Build the graph described by a :class:`FamilySpec`."""
    name, a, b = spec.family, spec.a, spec.b
    two_param = name == "complete_bipartite"
    if name not in FAMILY_NAMES:
        raise PreconditionError(f"unknown family {name!r}")
    if (b is not None) != two_param:
        raise PreconditionError(
            f"family {name!r} takes {'two parameters' if two_param else 'one parameter'}"
        )
    if two_param:
        if a + b > max_vertices:
            raise PreconditionError(f"family would exceed the {max_vertices}-vertex cap")
        return complete_bipartite_graph(a, b)
    if name in ("path", "cycle", "complete", "star") and a > max_vertices:
        raise PreconditionError(f"family would exceed the {max_vertices}-vertex cap")
    builders = {
        "path": path_graph,
        "cycle": cycle_graph,
        "complete": complete_graph,
        "star": star_graph,
    }
    if name in builders:
        return builders[name](a)
    cubes = {
        "hypercube": hypercube,
        "fibonacci_cube": fibonacci_cube,
        "lucas_cube": lucas_cube,
    }
    return cubes[name](a, max_vertices)


def cartesian_product(
    G: Graph, H: Graph, max_vertices: int = DEFAULT_VERTEX_CAP
) -> Graph:
    """Cartesian product: (a, x) ~ (b, y) iff (a=b and xy is an H-edge) or
    (x=y and ab is a G-edge).  Vertex (g, h) gets id g*|V(H)| + h."""
    if G.n == 0 or H.n == 0:
        raise PreconditionError("product factors must be nonempty")
    n = G.n * H.n
    if n > max_vertices:
        raise PreconditionError(f"product would have {n} vertices (cap {max_vertices})")
    edges = []
    for g in range(G.n):
        base = g * H.n
        for x, y in H.edges():
            edges.append((base + x, base + y))
    for a, b in G.edges():
        for x in range(H.n):
            edges.append((a * H.n + x, b * H.n + x))
    return Graph(n, edges)
