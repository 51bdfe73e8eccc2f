"""Closed-form index values for Fibonacci cubes and Lucas cubes.

Everything here is integer or rational arithmetic on Fibonacci/Lucas
numbers; no graph is ever built.  Each closed form carries an internal
divisibility assertion so a wrong formula fails loudly instead of silently
truncating.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import PreconditionError


def fibonacci(n: int) -> int:
    """F(0)=0, F(1)=F(2)=1, F(n)=F(n-1)+F(n-2)."""
    if n < 0:
        raise ValueError("fibonacci index must be nonnegative")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    """L(0)=2, L(1)=1, L(n)=L(n-1)+L(n-2)."""
    if n < 0:
        raise ValueError("lucas index must be nonnegative")
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _fibonacci_bracket(n: int) -> int:
    # 4(n+1)F(n)^2 + (9n+2)F(n)F(n+1) + 6nF(n+1)^2; divisible by 25.
    fn = fibonacci(n)
    fn1 = fibonacci(n + 1)
    return 4 * (n + 1) * fn * fn + (9 * n + 2) * fn * fn1 + 6 * n * fn1 * fn1


def wiener_fibonacci_closed(n: int) -> int:
    """Wiener index of the n-th Fibonacci cube."""
    if n < 0:
        raise PreconditionError("fibonacci cube order must be nonnegative")
    bracket = _fibonacci_bracket(n)
    if bracket % 25:
        raise AssertionError(f"fibonacci wiener bracket not divisible by 25 at n={n}")
    return bracket // 25


def wiener_lucas_closed(n: int) -> int:
    """Wiener index of the n-th Lucas cube: n * F(n-1) * F(n+1)."""
    if n < 1:
        raise PreconditionError("lucas cube order must be at least 1")
    return n * fibonacci(n - 1) * fibonacci(n + 1)


def sw3_fibonacci_closed(n: int) -> int:
    """Steiner 3-Wiener index of the n-th Fibonacci cube."""
    if n < 0:
        raise PreconditionError("fibonacci cube order must be nonnegative")
    num = (fibonacci(n + 2) - 2) * _fibonacci_bracket(n)
    if num % 50:
        raise AssertionError(f"fibonacci sw3 numerator not divisible by 50 at n={n}")
    return num // 50


def sw3_lucas_closed(n: int) -> int:
    """Steiner 3-Wiener index of the n-th Lucas cube.

    The n = 0 cube is a single vertex, so the value is 0 there; for n >= 1
    the closed form n/2 * F(n-1) * F(n+1) * (L(n) - 2) applies.
    """
    if n < 0:
        raise PreconditionError("lucas cube order must be nonnegative")
    if n == 0:
        return 0
    num = n * fibonacci(n - 1) * fibonacci(n + 1) * (lucas(n) - 2)
    if num % 2:
        raise AssertionError(f"lucas sw3 numerator not even at n={n}")
    return num // 2


def mu3_ratio(n: int, family: str) -> Fraction:
    """mu_3(cube_n) / n as an exact rational, from the closed forms.

    ``family`` is "fibonacci" or "lucas".  Converges to 3/5 as n grows.
    """
    if n < 2:
        raise PreconditionError("ratio needs order at least 2 (at least one triple)")
    if family == "fibonacci":
        sw3 = sw3_fibonacci_closed(n)
        nv = fibonacci(n + 2)
    elif family == "lucas":
        sw3 = sw3_lucas_closed(n)
        nv = lucas(n)
    else:
        raise ValueError(f"unknown family {family!r}")
    return Fraction(sw3, comb(nv, 3)) / n
