"""Verification suites: closed forms and structural identities against
brute-force recomputation on seeded corpora.

Each suite aggregates named properties over many instances; the first
failing instance (if any) is serialized as graph6 so it can be replayed.
The small-graph suites draw chunks that end at ``_CHUNK`` instances or once
they hold ``_CHUNK_ENTRIES`` distance entries, scan each order's graphs in a
chunk as one stack and check in draw order.  The block-graphs suite's
half-perimeter and pseudo-median checks scan the distance matrix alone, in
runs of triples of bounded size: the same suite tests the triple kernels of
``structure`` and ``steiner``, so its own checks share no code with them.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, combinations, permutations

import numpy as np

from .blocks import block_decomposition, nm_block_graph, sw3_block_formula
from .errors import ParseError, PreconditionError
from .families import (
    fibonacci,
    lucas,
    mu3_ratio,
    sw3_fibonacci_closed,
    sw3_lucas_closed,
    wiener_fibonacci_closed,
    wiener_lucas_closed,
)
from .generators import (
    curated_modular,
    curated_nonmodular,
    random_block_graph,
    random_connected,
    random_terminals,
    random_tree,
)
from .graphs import (
    Graph,
    cartesian_product,
    complete_bipartite_graph,
    fibonacci_cube,
    hypercube,
    is_connected,
    lucas_cube,
    path_graph,
    read_graph6_file,
    star_graph,
    write_graph6,
)
from .metric import all_pairs_distances, wiener_index
from .report import Report
from .steiner import (
    K_MAX,
    _sw3,
    _sw3_product,
    check_bounds,
    steiner_distance_3,
    steiner_distance_dw,
    steiner_distance_oracle,
    steiner_wiener,
)
from .structure import _by_order, _classify, _every_triple

_CHUNK = 1024  # draws held at once by the trees, modular-bound and block-graphs suites
_CHUNK_ENTRIES = 1 << 17  # or their n^2 sum: 13 graphs of 100 vertices, 1024 of 11

# Reference value tables for the cube families (order 0..10).
FIBONACCI_SW3_SEQUENCE = (
    0, 0, 2, 24, 162, 968, 5206, 26672, 131652, 634752, 3006708,
)
LUCAS_SW3_SEQUENCE = (
    0, 0, 2, 9, 100, 540, 3120, 15876, 79560, 384615, 1830730,
)


class Check:
    """One named property aggregated over many instances."""

    def __init__(self, name: str, required: bool = True):
        self.name = name
        self.required = required
        self.count = 0
        self.failures = 0
        self.first_failure: dict | None = None

    def record(self, ok: bool, graph: Graph | None = None, detail: str | None = None):
        self.count += 1
        if not ok:
            self.failures += 1
            if self.first_failure is None:
                info: dict = {}
                if graph is not None:
                    info["graph6"] = write_graph6(graph).decode("ascii")
                if detail is not None:
                    info["detail"] = detail
                self.first_failure = info

    @property
    def holds(self) -> bool:
        """No failure, and a required check saw at least one instance."""
        return self.failures == 0 and (self.count > 0 or not self.required)

    def add_to(self, report: Report) -> None:
        extra: dict = {"instances": self.count, "failures": self.failures}
        if self.first_failure:
            extra["first_failure"] = self.first_failure
        report.add_check(self.name, self.holds, required=self.required, **extra)


def _require_max_n(max_n: int, least: int) -> None:
    """Reject a size bound below the suite's smallest draw, before drawing."""
    if max_n < least:
        raise PreconditionError(f"--max-n must be at least {least} for this suite, got {max_n}")


def _scan(draws, *kernels):
    """(graph, its result of each kernel) in draw order, for an iterator of
    graphs; each kernel runs once per order over a chunk of draws, which ends
    at _CHUNK draws or once their n^2 sum reaches _CHUNK_ENTRIES."""
    while True:
        graphs, entries = [], 0
        for G in draws:
            graphs.append(G)
            entries += G.n * G.n
            if len(graphs) == _CHUNK or entries >= _CHUNK_ENTRIES:
                break
        if not graphs:
            return
        yield from zip(graphs, *(_by_order(kernel, graphs) for kernel in kernels))


def _finish(report: Report, checks: list[Check], started: float) -> Report:
    for check in checks:
        check.add_to(report)
    report.timing_ms["suite"] = (time.perf_counter() - started) * 1000.0
    return report


def _suite_trees(*, count: int = 200, max_n: int = 12, seed: int = 42, **_) -> Report:
    _require_max_n(max_n, 3)
    started = time.perf_counter()
    rng = random.Random(seed)
    c_ident = Check("tree-double-sw3-equals-(n-2)-wiener")
    c_median = Check("tree-is-median-with-no-nonmodular-triples")
    c_block = Check("tree-block-formula-agrees")
    draws = (random_tree(rng.randint(3, max_n), rng) for _ in range(count))
    for T, s3, cls in _scan(draws, _sw3, _classify):
        c_ident.record(2 * s3 == (T.n - 2) * wiener_index(T), T)
        c_median.record(cls.nonmodular == 0 and cls.median_unique, T)
        c_block.record(sw3_block_formula(T) == 2 * s3, T)
    return _finish(Report(), [c_ident, c_median, c_block], started)


def _modular_bound_corpus(count, max_n, seed, corpus):
    """(iterator of graphs, how many): the corpus file's graphs, or the
    curated graphs followed by count seeded draws."""
    if corpus is not None:
        graphs = read_graph6_file(corpus)[::-1]  # popped in file order, freed once checked
        return (graphs.pop() for _ in range(len(graphs))), len(graphs)
    curated = curated_modular() + curated_nonmodular()
    rng = random.Random(seed)
    # trees guarantee the equality direction shows up in the sample
    draws = (random_tree(rng.randint(3, max_n), rng) if rng.random() < 0.2
             else random_connected(rng, max_n) for _ in range(count))
    return chain(curated, draws), len(curated) + count


def _suite_modular_bound(
    *, count: int = 10000, max_n: int = 9, seed: int = 42, corpus=None, **_
) -> Report:
    if corpus is None:
        _require_max_n(max_n, 3)
    started = time.perf_counter()
    c_lower = Check("double-sw3-at-least-(n-2)-wiener")
    c_iff = Check("equality-iff-modular")
    draws, drawn = _modular_bound_corpus(count, max_n, seed, corpus)
    kept = (G for G in draws if G.n >= 3 and is_connected(G))
    modular = 0
    for G, s3, mod in _scan(kept, _sw3, _every_triple):
        twice_sw3, scaled_wiener = 2 * s3, (G.n - 2) * wiener_index(G)
        c_lower.record(twice_sw3 >= scaled_wiener, G)
        c_iff.record((twice_sw3 == scaled_wiener) == mod, G)
        modular += mod
    report = Report()
    report.add_result("modular-instances", modular)
    report.add_result("nonmodular-instances", c_lower.count - modular)
    if drawn > c_lower.count:
        report.add_result("skipped-instances", drawn - c_lower.count)
    return _finish(report, [c_lower, c_iff], started)


# The six orders (p, q, r) of a triangle's vertices.
_ORDERS = np.array(list(permutations(range(3))))
_RUN = 1 << 17  # elements of the largest temporaries per run of triples below


def _median_free_checks(stack: np.ndarray) -> Iterator[tuple[bool, bool]]:
    """(half-perimeter holds, pseudo-median holds) over triples a < b < c, for
    each graph D of a stack of same-order distance matrices.

    Half-perimeter: 2 d({a,b,c}) = D[a,b] + D[b,c] + D[a,c] + 1 on every
    median-free triple.  Pseudo-median: no triple has two medians, and each
    median-free one has exactly one triangle with some order (p, q, r) on
    shortest a-b, b-c and a-c paths through pq, qr and pr.  Both read only
    D, so they share no code with the structure and SW_3 kernels that the
    suite tests.  The a < b < c mask and triple ids are built once a stack.
    Per graph, on[x, y, v] (v on an x-y geodesic) takes n^3 int16 sums, and
    a run of triples about _RUN elements: by n, or by 6 T (T triangles).
    """
    n = stack.shape[1]
    I = np.arange(n)
    lt = (I[:, None, None] < I[:, None]) & (I[:, None] < I)  # lt[a, b, c]: a < b < c
    triples = np.flatnonzero(lt)
    for D in stack:
        on = np.add(D[:, None, :], D[None, :, :], dtype=np.int16) == D[:, :, None]
        adj = D == 1
        triangles = np.argwhere(lt & adj[:, :, None] & adj[:, None, :] & adj[None, :, :])
        p, q, r = triangles[:, _ORDERS].reshape(-1, 3).T
        step = max(1, _RUN // max(1, n, len(p)))
        half_ok = pm_ok = True
        for lo in range(0, triples.size, step):
            a, b, c = np.unravel_index(triples[lo:lo + step], (n, n, n))
            medians = (on[a, b] & on[a, c] & on[b, c]).sum(axis=1)
            pm_ok &= not (medians > 1).any()
            free = medians == 0
            a, b, c = a[free], b[free], c[free]
            ab, ac, bc = D[a, b][:, None], D[a, c][:, None], D[b, c][:, None]
            Da, Db, Dc = D[a], D[b], D[c]
            half_ok &= bool((2 * (Da + Db + Dc).min(1, keepdims=True) == ab + ac + bc + 1).all())
            near, qb, rc = Da[:, p] + 1, Db[:, q], Dc[:, r]  # (median-free triples, 6 T)
            gate = (near + qb == ab) & (qb + 1 + rc == bc) & (near + rc == ac)
            gating = gate.reshape(a.size, len(triangles), len(_ORDERS)).any(axis=2).sum(axis=1)
            pm_ok &= bool((gating == 1).all())
            if not (half_ok or pm_ok):
                break
        yield half_ok, pm_ok


def _suite_block_graphs(
    *, count: int = 1000, max_n: int = 12, seed: int = 42, **_
) -> Report:
    _require_max_n(max_n, 3)
    started = time.perf_counter()
    rng = random.Random(seed)
    c_formula = Check("block-formula-equals-double-brute-sw3")
    c_nm = Check("blockwise-nonmodular-count-equals-triple-scan")
    c_half = Check("nonmodular-triples-exceed-half-perimeter-by-half")
    c_pm = Check("pseudo-median-triples")
    draws = (random_block_graph(rng, max_n) for _ in range(count))
    for G, s3, cls, (ok_half, ok_pm) in _scan(draws, _sw3, _classify, _median_free_checks):
        decomp = block_decomposition(G)
        c_formula.record(sw3_block_formula(G, decomp) == 2 * s3, G)
        c_nm.record(nm_block_graph(G, decomp) == cls.nonmodular, G)
        c_half.record(ok_half, G)
        c_pm.record(ok_pm, G)
    return _finish(Report(), [c_formula, c_nm, c_half, c_pm], started)


def _product_factors() -> list[tuple[str, Graph]]:
    factors: list[tuple[str, Graph]] = []
    factors += [(f"path{n}", path_graph(n)) for n in range(2, 6)]
    factors += [(f"star{n}", star_graph(n)) for n in range(3, 6)]
    factors += [(f"cube{n}", hypercube(n)) for n in range(1, 4)]
    factors += [
        (f"K{a},{b}", complete_bipartite_graph(a, b))
        for a in range(1, 4)
        for b in range(a, 4)
    ]
    return factors


def _suite_products(*, max_size: int = 200, **_) -> Report:
    started = time.perf_counter()
    c_sw3 = Check("product-sw3-identity-matches-brute")
    c_w = Check("product-wiener-identity")
    c_frac = Check("product-fractional-form-identity")
    c_mod = Check("product-of-modular-is-modular")
    names, graphs = zip(*_product_factors())
    # W, SW_3 and modularity of each factor, computed once
    w, s3 = [wiener_index(F) for F in graphs], _by_order(_sw3, graphs)
    mod = _by_order(_every_triple, graphs)
    pairs = [(i, j) for i, A in enumerate(graphs) for j in range(i, len(graphs))
             if A.n * graphs[j].n <= max_size]
    products = [cartesian_product(graphs[i], graphs[j]) for i, j in pairs]
    modular = iter(_by_order(_every_triple, [P for P in products if P.n <= 100]))
    for (i, j), P, brute in zip(pairs, products, _by_order(_sw3, products)):
        A, B, detail = graphs[i], graphs[j], f"{names[i]} x {names[j]}"
        if not (mod[i] and mod[j]):  # as sw3_product_modular refuses
            raise PreconditionError(f"{'second' if mod[i] else 'first'} factor is not modular")
        formula = _sw3_product(A, B)
        c_sw3.record(formula == brute, P, detail)
        c_w.record(wiener_index(P) == A.n**2 * w[j] + B.n**2 * w[i], P, detail)
        if A.n > 2 and B.n > 2:
            fractional = (A.n * B.n - 2) * (
                Fraction(A.n**2, B.n - 2) * s3[j] + Fraction(B.n**2, A.n - 2) * s3[i]
            )
            c_frac.record(fractional == formula, P, detail)
        if P.n <= 100:
            c_mod.record(next(modular), P, detail)
    return _finish(Report(), [c_sw3, c_w, c_frac, c_mod], started)


def _cube_vertex_count(family: str, n: int) -> int:
    if family == "fibonacci":
        return fibonacci(n + 2)
    return lucas(n) if n >= 1 else 1


def _suite_cubes(family: str, *, max_n: int = 10, wiener_max_n: int = 14, **_) -> Report:
    started = time.perf_counter()
    if family == "fibonacci":
        table = FIBONACCI_SW3_SEQUENCE
        closed_sw3, closed_w, build = (
            sw3_fibonacci_closed,
            wiener_fibonacci_closed,
            fibonacci_cube,
        )
        wiener_lo = 0  # the Lucas Wiener closed form starts at order 1
    else:
        table = LUCAS_SW3_SEQUENCE
        closed_sw3, closed_w, build = sw3_lucas_closed, wiener_lucas_closed, lucas_cube
        wiener_lo = 1
    c_seq = Check("closed-form-matches-reference-sequence")
    for n, expected in enumerate(table):
        c_seq.record(closed_sw3(n) == expected, detail=f"n={n}")
    c_counts = Check("vertex-count-matches-number-sequence")
    c_brute = Check("closed-form-matches-brute-sw3")
    c_wiener = Check("wiener-closed-form-matches-bfs")
    # One build per order; no order builds adjacency tuples, as the BFS reads CSR arrays.
    for n in range(max(21, max_n + 1, wiener_max_n + 1)):
        G = build(n)
        if n <= 20:
            c_counts.record(G.n == _cube_vertex_count(family, n) and is_connected(G), G, f"n={n}")
        if n <= max_n:
            c_brute.record(steiner_wiener(G, 3) == closed_sw3(n), G, f"n={n}")
        if wiener_lo <= n <= wiener_max_n:
            c_wiener.record(wiener_index(G) == closed_w(n), G, f"n={n}")
    c_pair = Check("double-sw3-equals-(count-2)-wiener")
    for n in range(wiener_lo, 21):
        count = _cube_vertex_count(family, n)
        c_pair.record(2 * closed_sw3(n) == (count - 2) * closed_w(n), detail=f"n={n}")
    target = Fraction(3, 5)
    c_limit = Check("mu3-over-n-within-0.02-of-3/5-at-30")
    c_limit.record(abs(mu3_ratio(30, family) - target) <= Fraction(2, 100))
    c_mono = Check("mu3-over-n-gap-nonincreasing-10-40")
    gaps = [abs(mu3_ratio(n, family) - target) for n in range(10, 41)]
    c_mono.record(all(b <= a for a, b in zip(gaps, gaps[1:])))
    checks = [c_seq, c_counts, c_brute, c_wiener, c_pair, c_limit, c_mono]
    return _finish(Report(), checks, started)


def _suite_bounds(
    *, count: int = 500, max_n: int = 10, seed: int = 42, k_cap: int = 5, **_
) -> Report:
    _require_max_n(max_n, 3)
    if k_cap < 3:
        raise PreconditionError(f"--k-cap must be at least 3, got {k_cap}")
    if min(k_cap, max_n) > K_MAX:  # a draw with n > K_MAX would reach k > K_MAX
        raise PreconditionError(f"--k-cap {k_cap} and --max-n {max_n} both exceed {K_MAX}")
    started = time.perf_counter()
    rng = random.Random(seed)
    rows: dict[str, Check] = {}
    for _ in range(count):
        G = random_connected(rng, max_n)
        cache: dict[int, Fraction] = {}
        for k in range(3, min(k_cap, G.n) + 1):
            bounds = check_bounds(G, k, mu_cache=cache)
            for chk in bounds.checks:
                row = rows.get(chk.name)
                if row is None:
                    row = rows[chk.name] = Check(
                        chk.name, required=chk.status == "proved"
                    )
                row.record(chk.holds, G)
    if not rows:
        # no instance drawn: one required row with 0 instances fails the run
        rows["mean-steiner-bounds"] = Check("mean-steiner-bounds")
    ordered = [rows[name] for name in sorted(rows)]
    return _finish(Report(), ordered, started)


def _suite_steiner_oracle(
    *, count: int = 200, max_n: int = 9, seed: int = 42, **_
) -> Report:
    _require_max_n(max_n, 5)
    started = time.perf_counter()
    rng = random.Random(seed)
    c_triples = Check("steiner-triple-routes-agree")
    c_sets = Check("steiner-dp-matches-oracle-on-4-and-5-sets")
    for _ in range(count):
        G = random_connected(rng, max_n)
        D = all_pairs_distances(G)
        ok = True
        for a, b, c in combinations(range(G.n), 3):
            s3 = steiner_distance_3(D, a, b, c)
            if not s3 == steiner_distance_dw(G, (a, b, c)) == steiner_distance_oracle(G, (a, b, c)):
                ok = False
                break
        c_triples.record(ok, G)
    for k in (4, 5):
        for _ in range(count):
            G = random_connected(rng, max_n, min_n=max(5, k))
            ids = random_terminals(rng, G.n, k)
            c_sets.record(
                steiner_distance_dw(G, ids) == steiner_distance_oracle(G, ids),
                G,
                f"terminals {ids}",
            )
    return _finish(Report(), [c_triples, c_sets], started)


_SUITES = {
    "trees": _suite_trees,
    "modular-bound": _suite_modular_bound,
    "block-graphs": _suite_block_graphs,
    "products": _suite_products,
    "fibonacci": lambda **kw: _suite_cubes("fibonacci", **kw),
    "lucas": lambda **kw: _suite_cubes("lucas", **kw),
    "bounds": _suite_bounds,
    "steiner-oracle": _suite_steiner_oracle,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, **params) -> Report:
    """Run one verification suite; unknown names raise ParseError."""
    if name not in _SUITES:
        raise ParseError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    clean = {k: v for k, v in params.items() if v is not None}
    return _SUITES[name](**clean)
