"""Exact scalar arithmetic: p-adic valuations of rationals, and the
combinatorial number sequences (Bernoulli numbers, the Stirling-type
integers c(r, m), generalized binomials) that the state and q-series layers
consume.

All state and series construction elsewhere in the package happens over exact
rationals: states store a coefficient as a plain `int` when it is integral
and as a `fractions.Fraction` otherwise, and q-series hold `Fraction`s.
p-adic information enters only at reporting boundaries, as norm exponents
-v_p(q) from `valuation` (which takes either type), so no precision
bookkeeping enters the recursive mode engine.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

__all__ = [
    "bernoulli",
    "c_coefficient",
    "gen_binomial",
    "is_prime",
    "valuation",
]


def is_prime(n: int) -> bool:
    """Trial-division primality test; the primes used here are tiny."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def valuation(q: Fraction | int, p: int) -> int:
    """p-adic valuation v_p(q) of a nonzero rational.

    Raises ValueError on q = 0 (the valuation of zero is +infinity and is
    handled by callers, never by a sentinel integer) and when p is not a
    prime.
    """
    if not is_prime(p):
        raise ValueError(f"prime required, got {p}")
    if q == 0:
        raise ValueError("valuation of zero is infinite")
    num = q.numerator if isinstance(q, Fraction) else q
    den = q.denominator if isinstance(q, Fraction) else 1
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, from the defining series z/(e^z - 1).

    Computed by the equivalent recurrence sum_{j=0}^{k} C(k+1, j) B_j = 0
    (k >= 1) with memoization, so B_1 = -1/2 and B_k = 0 for odd k >= 3.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    while len(_BERNOULLI) <= k:
        m = len(_BERNOULLI)
        acc = Fraction(0)
        for j in range(m):
            if _BERNOULLI[j]:
                acc += comb(m + 1, j) * _BERNOULLI[j]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[k]


def c_coefficient(r: int, m: int) -> int:
    """The torus-to-sphere change-of-basis integer

        c(r, m) = sum_{j=0}^{m} (-1)^(m+j) C(m, j) (j+1)^(r-1),

    equal to m! * S(r, m+1); in particular c(r, m) = 0 for m >= r and
    c(r, r-1) = (r-1)!.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    total = 0
    for j in range(m + 1):
        term = comb(m, j) * (j + 1) ** (r - 1)
        total += term if (m + j) % 2 == 0 else -term
    return total


def gen_binomial(t: int, i: int) -> int:
    """Binomial coefficient C(t, i) for arbitrary integer upper index t.

    C(t, i) = t(t-1)...(t-i+1) / i!, so C(-1, i) = (-1)^i and more generally
    C(t, i) = (-1)^i C(-t+i-1, i) for t < 0.
    """
    if i < 0:
        raise ValueError("lower index must be >= 0")
    num = 1
    for j in range(i):
        num *= t - j
    return num // factorial(i)
