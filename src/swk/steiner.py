"""Exact Steiner distances and Steiner k-Wiener indices.

The Steiner distance d(S) of a terminal set S is the edge count of a
minimum connected subgraph spanning S (always a tree).  For |S| = 3 it is
min_v of the three distances to v (such a tree has at most one branch
vertex): SW_3 reads these minima from float64 exponent sums, one matrix
product per run of middle vertices over a stack of same-order graphs.
Larger S run one Dreyfus-Wagner program over (terminal subset, root)
states, once per k-subset for SW_k.  The superset-scan oracle and the
all-subsets table are exponential references that share no code with
them.  The mean-Steiner bounds, the SW_3 modular bound and the SW_3
product formula are built on these values.  Terminal sets are iterables
of vertex ids or int bitmasks; duplicates collapse.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .bitset import as_vertex_list, mask_of
from .errors import PreconditionError
from .graphs import Graph
from .metric import all_pairs_distances, wiener_index
from .structure import _stack, is_modular

# Largest terminal set or k: the DP has 2^k * n states per subset.
K_MAX = 12
_ORACLE_N_LIMIT = 20
_INF = 1 << 40
_BLOCK = 1 << 14  # largest g n^3 for which the SW_3 kernel takes one product
_MAX_EXPONENT = 1023  # of a normal float64; bounds the SW_3 kernel's ball radius
# sw3_product_modular re-checks the modularity of factors up to this size.
_PRODUCT_CHECK_N = 200


def _terminals(subset: int | Iterable[int], n: int) -> list[int]:
    try:
        ids = as_vertex_list(subset, n)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None
    return ids


def steiner_distance_3(D: np.ndarray, a: int, b: int, c: int) -> int:
    """d({a, b, c}) = min over v of d(a,v) + d(b,v) + d(c,v).

    Repeated ids degenerate to the pairwise distance (or 0).
    """
    return int((D[a] + D[b] + D[c]).min())


def _induced_connected(G: Graph, tmask: int) -> bool:
    adj = G.adj_bits
    start = tmask & -tmask
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = nxt & tmask & ~seen
        seen |= frontier
    return seen == tmask


def steiner_distance_oracle(G: Graph, terminals: int | Iterable[int]) -> int:
    """Reference value: min |T| - 1 over connected induced supersets T of S.

    Exponential scan by superset size; restricted to n <= 20.
    """
    if G.n > _ORACLE_N_LIMIT:
        raise PreconditionError(f"oracle limited to {_ORACLE_N_LIMIT} vertices")
    ids = _terminals(terminals, G.n)
    if not ids:
        raise PreconditionError("terminal set is empty")
    smask = mask_of(ids)
    if _induced_connected(G, smask):
        return len(ids) - 1
    rest = [v for v in range(G.n) if not (smask >> v) & 1]
    for extra in range(1, len(rest) + 1):
        for combo in combinations(rest, extra):
            if _induced_connected(G, smask | mask_of(combo)):
                return len(ids) + extra - 1
    raise PreconditionError("terminals are not in one connected component")


def steiner_distance_table(G: Graph) -> list[int]:
    """d(S) for every nonempty vertex subset, indexed by bitmask.

    Downward propagation from connected supersets; an exponential reference
    for tests (n <= 16).  Entry 0 is unused.
    """
    n = G.n
    if n > 16:
        raise PreconditionError("subset table limited to 16 vertices")
    full = 1 << n
    g = [0] * full
    for mask in range(1, full):
        g[mask] = mask.bit_count() - 1 if _induced_connected(G, mask) else _INF
    for mask in range(full - 1, 0, -1):
        gm = g[mask]
        sub = mask
        while sub:
            b = sub & -sub
            prev = mask ^ b
            if prev and g[prev] > gm:
                g[prev] = gm
            sub ^= b
    return g


def _dreyfus_wagner(D: np.ndarray, ids: list[int]) -> int:
    """d(ids) by the Dreyfus-Wagner DP over (terminal subset, root) states."""
    k = len(ids)
    n = D.shape[0]
    full = 1 << k
    dp = np.full((full, n), _INF, dtype=np.int64)
    for i, t in enumerate(ids):
        dp[1 << i] = D[t]
    for mask in range(3, full):
        if mask & (mask - 1) == 0:
            continue
        low = mask & -mask
        best = np.full(n, _INF, dtype=np.int64)
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                np.minimum(best, dp[sub] + dp[mask ^ sub], out=best)
            sub = (sub - 1) & mask
        dp[mask] = (best[:, None] + D).min(axis=0)
    return int(dp[full - 1, ids[0]])


def steiner_distance_dw(G: Graph, terminals: int | Iterable[int]) -> int:
    """Exact d(S) via the Dreyfus-Wagner subset dynamic program.

    Agrees with the pairwise distance at |S| = 2 and with
    :func:`steiner_distance_3` at |S| = 3.  State space is 2^|S| * n, so
    |S| is capped at ``K_MAX``.
    """
    ids = _terminals(terminals, G.n)
    if not ids:
        raise PreconditionError("terminal set is empty")
    if len(ids) > K_MAX:
        raise PreconditionError(f"terminal set too large ({len(ids)} > {K_MAX})")
    if len(ids) == 1:
        return 0
    D = all_pairs_distances(G)
    if len(ids) == 2:
        return int(D[ids[0], ids[1]])
    return _dreyfus_wagner(D, ids)


def _sw3(D: np.ndarray) -> list[int]:
    """SW_3 of each graph in a stack D of g distance matrices of order n:
    d({a,b,c}) = min_v f(v), f(v) = D[a,v] + D[b,v] + D[c,v], read from the
    float64 exponent of a sum of powers of two (G. Yuval, 1976).

    Balls of radius rho = (1023 - s) // (3 s), s = bitlength(n + 1), split
    the vertices (first center: least eccentricity; next: most uncovered
    vertices within rho).  For center z, P[x,v] = 2^(-s (D[x,v] - D[x,z]))
    and m = min over the ball of f(v) - f(z), S = sum over the ball of
    P[a,v] P[b,v] P[c,v] lies in [2^(-s m), 2^(s - s m)) as 2^s exceeds the
    term count, so m = (s - e) // s for frexp's exponent e of S.  Computed,
    S lies there too: each term is an exact normal power of two (exponent
    within +-3 s rho <= 1023 - s by the triangle inequality), and a sum of
    nonnegative terms rounds to at least its largest term and within
    (1 + n eps) of the true sum.  d is the least f(z) + m over the balls; a
    stack with a graph of several balls runs one graph at a time.  Products
    take P[a] P[b] against P[c] over every ordered triple while g n^3 <=
    _BLOCK (summing to 6 SW_3 + 3 sum D), else per middle vertex b, a < b < c.
    """
    g, n = D.shape[:2]
    if n < 3:
        return [0] * g
    s = (n + 1).bit_length()
    rho = (_MAX_EXPONENT - s) // (3 * s)
    ecc = D.max(axis=2)
    balls = [(D[np.arange(g), ecc.argmin(axis=1)], slice(None))]  # (D[i, z_i], members)
    if n - 1 > rho and ecc.min(axis=1).max() > rho:
        if g > 1:
            return [_sw3(D[i:i + 1])[0] for i in range(g)]
        near, left, balls, z = D[0] <= rho, np.ones(n, dtype=bool), [], ecc.argmin()
        while left.any():
            balls.append((D[:, z], np.flatnonzero(near[z] & left)))
            left[balls[-1][1]] = False
            z = ((near & left).sum(axis=1) - n * ~left).argmax()
    terms = [(np.ldexp(1.0, s * (Dz[:, :, None] - D[:, :, V])), Dz) for Dz, V in balls]
    every = g * n ** 3 <= _BLOCK
    runs = [(slice(0, b), slice(b, b + 1), slice(b + 1, n)) for b in range(1, n - 1)]
    runs, weight = ([(slice(None),) * 3], 3 * n * n) if every else (runs, comb(n - 1, 2))
    totals = weight * balls[0][0].sum(axis=1) if len(terms) == 1 else 0
    for a, b, c in runs:
        best = None  # max over balls of e - s f(z), so that min f = (s - best) // s
        for P, Dz in terms:
            X = (P[:, a, None] * P[:, None, b]).reshape(g, -1, P.shape[2])
            e = np.frexp(X @ P[:, c].transpose(0, 2, 1))[1]
            if len(terms) > 1:
                e -= s * ((Dz[:, a, None] + Dz[:, None, b]).reshape(g, -1, 1) + Dz[:, None, c])
            best = e if best is None else np.maximum(best, e, out=best)
        totals = totals + ((s - best) // s).sum(axis=(1, 2))
    return ((totals - 3 * D.sum(axis=(1, 2))) // 6 if every else totals).tolist()


def steiner_wiener(G: Graph, k: int) -> int:
    """Sum of d(S) over all k-element vertex subsets.

    k = 2 reproduces the Wiener index; k = 3 runs the median-candidate
    scan, on at most ``structure.MAX_TRIPLE_N`` vertices like the triple
    classification; larger k runs the Dreyfus-Wagner program once per
    k-subset.  When k exceeds the vertex count there are no k-subsets and
    the sum is 0.
    """
    if k < 2 or k > K_MAX:
        raise PreconditionError(f"k must be in 2..{K_MAX}")
    n = G.n
    if k > n:
        return 0
    if k == 3:
        return _sw3(_stack(G))[0]
    D = all_pairs_distances(G)
    if k == 2:
        return int(D.sum(dtype=np.int64)) // 2
    return sum(_dreyfus_wagner(D, list(S)) for S in combinations(range(n), k))


def mean_steiner(G: Graph, k: int) -> Fraction:
    """Average Steiner distance over k-subsets: SW_k / C(n, k), exact."""
    if k > G.n:
        raise PreconditionError("k exceeds the vertex count")
    return Fraction(steiner_wiener(G, k), comb(G.n, k))


def jiang_f(k: int) -> Fraction:
    """Known floor for mu_k/mu over connected graphs with at least k vertices:
    2 - 2/k for even k, 2 - 2/(k+1) for odd k."""
    if k < 2:
        raise ValueError("defined for k >= 2")
    return Fraction(2) - (Fraction(2, k) if k % 2 == 0 else Fraction(2, k + 1))


@dataclass(frozen=True)
class BoundCheck:
    name: str
    left: Fraction
    relation: str  # "<=" or ">="
    right: Fraction
    holds: bool
    status: str = "proved"  # or "conjectural"


@dataclass(frozen=True)
class BoundsReport:
    k: int
    mu_k: Fraction
    checks: tuple[BoundCheck, ...]


def _cmp(name: str, left: Fraction, relation: str, right: Fraction,
         status: str = "proved") -> BoundCheck:
    holds = left <= right if relation == "<=" else left >= right
    return BoundCheck(name, left, relation, right, holds, status)


def check_bounds(G: Graph, k: int, mu_cache: dict[int, Fraction] | None = None) -> BoundsReport:
    """Evaluate the classical mean-Steiner-distance inequalities exactly.

    Relations checked for 3 <= k <= n:

    * mu_k <= mu_r + mu_{k+1-r} for every 2 <= r <= k-1
    * mu_k <= (k-1) mu
    * mu_k <= (k+1)/(k-1) mu_{k-1}
    * mu_k >= 3(k-1)/(k+1) mu -- proved only for k = 3 and k = n, recorded
      as "conjectural" otherwise (counterexamples exist for large graphs)
    * mu_k / mu >= f(k) with f the parity-split floor from
      :func:`jiang_f`, kept as a reference row

    ``mu_cache`` lets callers share mean-Steiner values across several k.
    """
    n = G.n
    if k < 3 or k > min(n, K_MAX):
        raise PreconditionError(f"k must be in 3..min(n, {K_MAX})")
    cache = mu_cache if mu_cache is not None else {}

    def mu(j: int) -> Fraction:
        if j not in cache:
            cache[j] = mean_steiner(G, j)
        return cache[j]

    mu_k = mu(k)
    mu2 = mu(2)
    rows = [
        _cmp(f"mu{k}<=mu{r}+mu{k + 1 - r}", mu_k, "<=", mu(r) + mu(k + 1 - r))
        for r in range(2, k)
    ]
    rows.append(_cmp(f"mu{k}<={k - 1}*mu", mu_k, "<=", (k - 1) * mu2))
    rows.append(
        _cmp(
            f"mu{k}<={Fraction(k + 1, k - 1)}*mu{k - 1}",
            mu_k,
            "<=",
            Fraction(k + 1, k - 1) * mu(k - 1),
        )
    )
    status = "proved" if k == 3 or k == n else "conjectural"
    rows.append(
        _cmp(
            f"mu{k}>={Fraction(3 * (k - 1), k + 1)}*mu",
            mu_k,
            ">=",
            Fraction(3 * (k - 1), k + 1) * mu2,
            status,
        )
    )
    rows.append(_cmp(f"mu{k}/mu>=f({k})", mu_k / mu2, ">=", jiang_f(k)))
    return BoundsReport(k, mu_k, tuple(rows))


@dataclass(frozen=True)
class ModularBoundResult:
    """2*SW_3 against (n-2)*W, both as exact integers (doubling avoids
    fractions).  Equality characterizes modular graphs."""

    twice_sw3: int
    scaled_wiener: int
    equality: bool


def check_sw3_modular_bound(G: Graph) -> ModularBoundResult:
    """Compare 2*SW_3(G) with (n-2)*W(G); the former is never smaller."""
    if G.n < 3:
        raise PreconditionError("needs at least 3 vertices")
    twice_sw3 = 2 * steiner_wiener(G, 3)
    scaled = (G.n - 2) * wiener_index(G)
    return ModularBoundResult(twice_sw3, scaled, twice_sw3 == scaled)


def sw3_product_modular(G: Graph, H: Graph) -> int:
    """Steiner 3-Wiener index of the Cartesian product of two modular graphs.

    Computed without building the product:

        (|V(G)||V(H)| - 2)/2 * (|V(G)|^2 W(H) + |V(H)|^2 W(G))

    Factors with at most ``_PRODUCT_CHECK_N`` vertices are re-checked for
    modularity; a non-modular factor is rejected.
    """
    if G.n == 0 or H.n == 0:
        raise PreconditionError("product factors must be nonempty")
    for name, factor in (("first", G), ("second", H)):
        if factor.n <= _PRODUCT_CHECK_N and not is_modular(factor):
            raise PreconditionError(f"{name} factor is not modular")
    return _sw3_product(G, H)


def _sw3_product(G: Graph, H: Graph) -> int:
    """sw3_product_modular's formula, for factors already known to be modular."""
    w_g, w_h = wiener_index(G), wiener_index(H)
    num = (G.n * H.n - 2) * (G.n * G.n * w_h + H.n * H.n * w_g)
    if num % 2:
        raise AssertionError("product sw3 numerator not even; modularity violated?")
    return num // 2
