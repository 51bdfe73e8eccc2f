"""Acceptance suite: every shipped identity at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and asserts exactness; nothing here uses
floating point comparisons.

Criterion 9 runs the ``bounds`` verify suite (seed 42, 500 graphs, k <= 5)
and asserts its instance counts.  Criteria 4-7 stay independent of the
suites on purpose.  Criterion 4's corpus differs from the modular-bound
suite's: it draws no trees.  Criteria 5-7 draw the same instances as the
block-graphs, products and steiner-oracle suites at their defaults, but
call the library directly, so a fault in the suites' bookkeeping cannot
hide a failure from both.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from swk import (
    all_pairs_distances,
    check_sw3_modular_bound,
    classify_triples,
    fibonacci_cube,
    is_modular,
    lucas_cube,
    mu3_ratio,
    nm_block_graph,
    steiner_distance_3,
    steiner_distance_dw,
    steiner_distance_oracle,
    steiner_wiener,
    sw3_block_formula,
    sw3_fibonacci_closed,
    sw3_lucas_closed,
    sw3_product_modular,
    wiener_fibonacci_closed,
    wiener_index,
    wiener_lucas_closed,
)
from swk.blocks import block_decomposition
from swk.generators import (
    curated_modular,
    curated_nonmodular,
    random_block_graph,
    random_connected,
    random_tree,
)
from swk.graphs import cartesian_product
from swk.verify import FIBONACCI_SW3_SEQUENCE, LUCAS_SW3_SEQUENCE, _product_factors, run_suite

SEED = 42


def _report(number: int, description: str, ok: bool, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} [{time.time() - started:.1f}s] {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_acceptance_1_fibonacci_sequence():
    started = time.time()
    closed = tuple(sw3_fibonacci_closed(n) for n in range(11))
    brute = tuple(steiner_wiener(fibonacci_cube(n), 3) for n in range(11))
    ok = closed == FIBONACCI_SW3_SEQUENCE and brute == FIBONACCI_SW3_SEQUENCE
    _report(1, "Fibonacci cube SW3 sequence, closed form and brute force", ok, started)


def test_acceptance_2_lucas_sequence():
    started = time.time()
    closed = tuple(sw3_lucas_closed(n) for n in range(11))
    brute = tuple(steiner_wiener(lucas_cube(n), 3) for n in range(11))
    ok = closed == LUCAS_SW3_SEQUENCE and brute == LUCAS_SW3_SEQUENCE
    _report(2, "Lucas cube SW3 sequence, closed form and brute force", ok, started)


def test_acceptance_3_wiener_closed_forms():
    started = time.time()
    ok = all(
        wiener_fibonacci_closed(n) == wiener_index(fibonacci_cube(n))
        for n in range(15)
    ) and all(
        wiener_lucas_closed(n) == wiener_index(lucas_cube(n)) for n in range(1, 15)
    )
    _report(3, "cube Wiener closed forms match BFS up to order 14", ok, started)


def test_acceptance_4_modular_equality_both_directions():
    started = time.time()
    rng = random.Random(SEED)
    graphs = curated_modular() + curated_nonmodular()
    graphs += [random_connected(rng, 9) for _ in range(10_000)]
    modular_seen = nonmodular_seen = 0
    ok = True
    for g in graphs:
        if g.n < 3:
            continue
        res = check_sw3_modular_bound(g)
        mod = is_modular(g)
        modular_seen += mod
        nonmodular_seen += not mod
        if res.twice_sw3 < res.scaled_wiener or res.equality != mod:
            ok = False
            break
    ok = ok and modular_seen > 100 and nonmodular_seen > 100
    _report(
        4,
        f"2*SW3 >= (n-2)*W with equality iff modular "
        f"({modular_seen} modular / {nonmodular_seen} non-modular instances)",
        ok,
        started,
    )


def test_acceptance_5_block_graph_formulas():
    started = time.time()
    rng = random.Random(SEED)
    ok = True
    for _ in range(1000):
        g = random_block_graph(rng, 12)
        decomp = block_decomposition(g)
        if sw3_block_formula(g, decomp) != 2 * steiner_wiener(g, 3):
            ok = False
            break
        if nm_block_graph(g, decomp) != classify_triples(g).nonmodular:
            ok = False
            break
    _report(5, "block formula and blockwise nm on 1000 random block graphs", ok, started)


def test_acceptance_6_product_identity():
    started = time.time()
    factors = _product_factors()
    checked = 0
    ok = True
    for i, (_, a) in enumerate(factors):
        for _, b in factors[i:]:
            if a.n * b.n > 200:
                continue
            product = cartesian_product(a, b)
            if sw3_product_modular(a, b) != steiner_wiener(product, 3):
                ok = False
                break
            checked += 1
        if not ok:
            break
    ok = ok and checked >= 50
    _report(6, f"product SW3 identity on {checked} modular factor pairs", ok, started)


def test_acceptance_7_oracle_triangle():
    started = time.time()
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        g = random_connected(rng, 9)
        D = all_pairs_distances(g)
        for a, b, c in combinations(range(g.n), 3):
            s3 = steiner_distance_3(D, a, b, c)
            if s3 != steiner_distance_dw(g, (a, b, c)):
                ok = False
                break
            if s3 != steiner_distance_oracle(g, (a, b, c)):
                ok = False
                break
        if not ok:
            break
    for k in (4, 5):
        if not ok:
            break
        for _ in range(200):
            g = random_connected(rng, 9, min_n=max(5, k))
            ids = rng.sample(range(g.n), k)
            if steiner_distance_dw(g, ids) != steiner_distance_oracle(g, ids):
                ok = False
                break
    _report(
        7,
        "median scan = subset DP = superset oracle on triples; DP = oracle on "
        "4- and 5-terminal sets",
        ok,
        started,
    )


def test_acceptance_8_limit_ratio():
    started = time.time()
    target = Fraction(3, 5)
    tolerance = Fraction(2, 100)
    ok = True
    for family in ("fibonacci", "lucas"):
        gaps = [abs(mu3_ratio(n, family) - target) for n in range(10, 41)]
        if abs(mu3_ratio(30, family) - target) > tolerance:
            ok = False
        if any(b > a for a, b in zip(gaps, gaps[1:])):
            ok = False
    _report(8, "mu3/n within 0.02 of 3/5 at order 30, gap non-increasing 10..40", ok, started)


def test_acceptance_9_mean_steiner_bounds():
    started = time.time()
    report = run_suite("bounds", seed=SEED, count=500, max_n=10, k_cap=5)
    mu3_rows = [c for c in report.checks if c["name"].startswith("mu3")]
    # a row's required flag comes from its first instance, so a row may mix
    # proved and conjectural instances; none may fail on this corpus
    ok = (
        report.ok()
        and all(c["failures"] == 0 for c in report.checks)
        and len(mu3_rows) == 5
        and all(c["instances"] == 500 for c in mu3_rows)
    )
    _report(9, "bounds suite: mean-Steiner inequalities on 500 random graphs, k <= 5",
            ok, started)
