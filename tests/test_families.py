"""Closed-form values for the cube families and modular products."""

from __future__ import annotations

from fractions import Fraction

import pytest

from swk import (
    PreconditionError,
    cartesian_product,
    complete_bipartite_graph,
    cycle_graph,
    fibonacci,
    fibonacci_cube,
    hypercube,
    lucas,
    lucas_cube,
    mu3_ratio,
    path_graph,
    star_graph,
    steiner_wiener,
    sw3_fibonacci_closed,
    sw3_lucas_closed,
    sw3_product_modular,
    wiener_fibonacci_closed,
    wiener_index,
    wiener_lucas_closed,
)

from conftest import bfs_runs

FIB_SW3 = (0, 0, 2, 24, 162, 968, 5206, 26672, 131652, 634752, 3006708)
LUC_SW3 = (0, 0, 2, 9, 100, 540, 3120, 15876, 79560, 384615, 1830730)


def test_number_sequences():
    assert [fibonacci(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert fibonacci(6) == 8 and fibonacci(7) == 13
    assert [lucas(n) for n in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]
    assert lucas(4) == 7 and lucas(5) == 11


def test_lucas_fibonacci_identities():
    for n in range(1, 25):
        assert lucas(n) == fibonacci(n - 1) + fibonacci(n + 1)
    n = 10
    assert lucas(n) ** 2 == 5 * fibonacci(n) ** 2 + 4 * (-1) ** n


def test_wiener_closed_fibonacci():
    assert wiener_fibonacci_closed(0) == 0
    assert wiener_fibonacci_closed(3) == 16
    assert wiener_fibonacci_closed(4) == 54
    for n in range(9):
        assert wiener_fibonacci_closed(n) == wiener_index(fibonacci_cube(n))


def test_wiener_closed_lucas():
    assert wiener_lucas_closed(2) == 4
    assert wiener_lucas_closed(3) == 9
    assert wiener_lucas_closed(4) == 40
    for n in range(1, 9):
        assert wiener_lucas_closed(n) == wiener_index(lucas_cube(n))
    with pytest.raises(PreconditionError):
        wiener_lucas_closed(0)


def test_sw3_closed_sequences():
    assert tuple(sw3_fibonacci_closed(n) for n in range(11)) == FIB_SW3
    assert tuple(sw3_lucas_closed(n) for n in range(11)) == LUC_SW3


def test_sw3_closed_consistency_with_wiener():
    for n in range(21):
        assert 2 * sw3_fibonacci_closed(n) == (fibonacci(n + 2) - 2) * wiener_fibonacci_closed(n)
    for n in range(1, 21):
        assert 2 * sw3_lucas_closed(n) == (lucas(n) - 2) * wiener_lucas_closed(n)


def test_sw3_closed_matches_brute_small():
    for n in range(8):
        assert sw3_fibonacci_closed(n) == steiner_wiener(fibonacci_cube(n), 3)
        assert sw3_lucas_closed(n) == steiner_wiener(lucas_cube(n), 3)


# -- products of modular factors ------------------------------------------------


def test_product_sw3_p2_p2():
    assert sw3_product_modular(path_graph(2), path_graph(2)) == 8


def test_product_sw3_computes_one_distance_matrix_per_factor(apsp_calls):
    assert sw3_product_modular(cycle_graph(4), hypercube(3)) == 19200  # C4 x Q3 = Q5
    assert sorted(D.shape[0] for D in bfs_runs(apsp_calls)) == [4, 8]


def test_product_sw3_identity_factor():
    for h in [path_graph(3), cycle_graph(4), hypercube(3), star_graph(5)]:
        assert sw3_product_modular(path_graph(1), h) == steiner_wiener(h, 3)


def test_product_sw3_grid_2x3():
    value = sw3_product_modular(path_graph(2), path_graph(3))
    assert value == 50
    grid = cartesian_product(path_graph(2), path_graph(3))
    assert value == steiner_wiener(grid, 3)


def test_product_sw3_rejects_nonmodular_factor():
    with pytest.raises(PreconditionError, match="modular"):
        sw3_product_modular(cycle_graph(5), path_graph(2))
    with pytest.raises(PreconditionError, match="modular"):
        sw3_product_modular(path_graph(2), cycle_graph(3))


def test_product_fractional_form_agrees_when_defined():
    pairs = [
        (path_graph(3), path_graph(4)),
        (star_graph(4), cycle_graph(4)),
        (complete_bipartite_graph(2, 3), path_graph(3)),
    ]
    for a, b in pairs:
        base = sw3_product_modular(a, b)
        fractional = (a.n * b.n - 2) * (
            Fraction(a.n**2, b.n - 2) * steiner_wiener(b, 3)
            + Fraction(b.n**2, a.n - 2) * steiner_wiener(a, 3)
        )
        assert fractional == base


# -- the 3/5 limit ---------------------------------------------------------------


def test_mu3_ratio_anchor():
    assert mu3_ratio(2, "fibonacci") == 1  # single triple at distance 2
    assert mu3_ratio(2, "lucas") == 1


def test_mu3_ratio_near_limit_at_30():
    target = Fraction(3, 5)
    assert abs(mu3_ratio(30, "fibonacci") - target) <= Fraction(2, 100)
    assert abs(mu3_ratio(30, "lucas") - target) <= Fraction(2, 100)


def test_mu3_ratio_validation():
    with pytest.raises(PreconditionError):
        mu3_ratio(1, "fibonacci")
    with pytest.raises(ValueError):
        mu3_ratio(5, "hexagon")
