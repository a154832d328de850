"""Exact scalar arithmetic: p-adic valuations of rationals, and the
combinatorial number sequences (Bernoulli numbers from integer tangent
numbers, the Stirling-type integers c(r, m) from one forward-difference
table, partition counts from Euler's pentagonal recurrence, divisor sums
from one sieve) that the state, trace and q-series layers consume.

All state and series construction elsewhere in the package happens over exact
rationals, by one storage rule (`fock._exact`) for states and q-series alike:
a coefficient is a plain `int` when it is integral and a `fractions.Fraction`
otherwise.
p-adic information enters only at reporting boundaries, as norm exponents:
every one, of a single coefficient or of a whole state, is read by
`_norm_exponent` (which takes either type and reads zero as `_NEG_INF`), so no
precision bookkeeping enters the recursive mode engine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise
from math import gcd, inf, lcm
from typing import Iterable, Iterator

__all__ = [
    "bernoulli",
    "c_row",
    "is_prime",
    "valuation",
]


# Miller-Rabin on the first twelve primes is exact below psi_12 = _MR_BOUND
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test on `_MR_BASES`, exact for every
    n < psi_12 ~ 3.2e23 (Sorenson and Webster, *Strong pseudoprimes to twelve
    prime bases*, Math. Comp. 2017).  Raises ValueError for larger n rather
    than answering slowly or wrongly."""
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES
    if any(n % base == 0 for base in _MR_BASES):
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large for the primality test (limit {_MR_BOUND - 1})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"prime required, got {p}")


def _require_order(n_max: int) -> None:
    if n_max < 0:
        raise ValueError("n_max must be >= 0")


def _require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def valuation(q: Fraction | int, p: int) -> int:
    """p-adic valuation v_p(q) of a nonzero rational.

    Raises ValueError on q = 0 (the valuation of zero is +infinity and is
    handled by callers, never by a sentinel integer) and when p is not a
    prime.
    """
    _require_prime(p)
    if q == 0:
        raise ValueError("valuation of zero is infinite")
    return _multiplicity(q.numerator, p) - _multiplicity(q.denominator, p)


_NEG_INF = -inf  # the norm exponent of every zero state and coefficient, one float for all


def _norm_exponent(coefficients: Iterable[Fraction | int], p: int) -> int | float:
    """log_p of the sup norm of rationals, for a prime p the caller has
    checked: max of -v_p(c) over the nonzero c, and `_NEG_INF` when there is
    none.  By Gauss's lemma that is -v_p of the content, v_p(lcm of
    denominators) - v_p(gcd of numerators) (each c is in lowest terms, so p
    divides at most one of its numerator and denominator; a zero adds
    nothing to either), in two multiplicities and never one per coefficient.

    The gcd and lcm are folded in one loop: the star-call `gcd(*numerators)`
    builds an argument tuple per call, whose memory stays on CPython's tuple
    free lists, and it raised the peak RSS of perfbench's heisenberg-axioms
    workload from 38.2 to 39.4 MB (2 vCPUs, Python 3.11)."""
    numerators, denominators = 0, 1
    for c in coefficients:
        numerators = gcd(numerators, c.numerator)
        denominators = lcm(denominators, c.denominator)
    if not numerators:
        return _NEG_INF
    return _multiplicity(denominators, p) - _multiplicity(numerators, p)


def _multiplicity(n: int, p: int) -> int:
    """The largest v with p^v | n, for n != 0: divide by p, p^2, p^4, ...
    while the power divides, then step back down the same powers (as GMP's
    mpz_remove), so a multiplicity v costs O(log v) divisions instead of v."""
    v = 0
    powers = [p]  # powers[j] = p^(2^j)
    while n % powers[-1] == 0:
        n //= powers[-1]
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for j in range(len(powers) - 2, -1, -1):
        if n % powers[j] == 0:
            n //= powers[j]
            v += 1 << j
    return v


_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, from the defining series z/(e^z - 1), so
    B_1 = -1/2 and B_k = 0 for odd k >= 3.

    Even indices come from the integer tangent numbers T_n (Brent and Harvey,
    *Fast computation of Bernoulli, tangent and secant numbers*, 2013):

        B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)).

    The values are memoised in `_BERNOULLI` (B_0, B_1, ...); a call past its
    end refills it to at least twice its length, so ascending calls do the
    O(k^2) integer work a bounded number of times.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k >= len(_BERNOULLI):
        top = max(k, 2 * len(_BERNOULLI))
        tangent = _tangent_numbers(top // 2)
        for j in range(len(_BERNOULLI), top + 1):
            if j == 1:
                value = Fraction(-1, 2)
            elif j % 2:
                value = Fraction(0)
            else:
                n = j // 2
                value = Fraction((-1) ** (n - 1) * j * tangent[n], 4**n * (4**n - 1))
            _BERNOULLI.append(value)
    return _BERNOULLI[k]


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n], tan z = sum_k T_k z^(2k-1)/(2k-1)! (1, 2, 16, 272,
    ...), by Brent and Harvey's in-place triangle: integer multiply-adds
    only."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _pentagonal_terms(n_max: int) -> Iterator[tuple[int, int]]:
    """(g, (-1)^j) for the generalized pentagonal numbers g = j(3j -+ 1)/2 in
    (0, n_max], j >= 1, in increasing order: Euler's pentagonal number
    theorem, prod_{n>=1} (1 - q^n) = 1 + sum_{j>=1} (-1)^j (q^(j(3j-1)/2) +
    q^(j(3j+1)/2))."""
    j = 1
    while j * (3 * j - 1) // 2 <= n_max:
        sign = -1 if j % 2 else 1
        for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if g <= n_max:
                yield g, sign
        j += 1


def _partition_counts(n_max: int) -> list[int]:
    """[p(0), ..., p(n_max)], the coefficients of 1 / prod (1 - q^n), by
    Euler's recurrence p(m) = -sum_g (-1)^j p(m - g) over the pentagonal
    terms g <= m: O(n_max^1.5) integer additions, no partition listed."""
    terms = list(_pentagonal_terms(n_max))
    counts = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        total = 0
        for g, sign in terms:
            if g > m:
                break
            total -= sign * counts[m - g]
        counts[m] = total
    return counts


def _truncated_product(xs: list[int], ys: list[int]) -> list[int]:
    """The coefficients of the product of two integer series of equal order,
    truncated there; the zeros of xs are skipped, so a sparse series goes
    first."""
    out = [0] * len(xs)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys[: len(xs) - i]):
                out[i + j] += x * y
    return out


def _divisor_sums(weights: list[int]) -> list[int]:
    """[0, s(1), ..., s(n)] for weights [f(1), ..., f(n)], with
    s(j) = sum_{a | j} f(a): a sieve that adds each nonzero f(a) to the
    slots of its multiples, O(n log n) integer additions and no division."""
    sums = [0] * (len(weights) + 1)
    for a, f in enumerate(weights, 1):
        if f:
            for j in range(a, len(sums), a):
                sums[j] += f
    return sums


def c_row(r: int) -> tuple[int, ...]:
    """(c(r, 0), ..., c(r, r-1)) of the torus-to-sphere change-of-basis
    integers

        c(r, m) = sum_{j=0}^{m} (-1)^(m+j) C(m, j) (j+1)^(r-1) = m! S(r, m+1),

    the forward differences at 0 of (j+1)^(r-1), read down one difference
    table built by subtraction alone.  c(r, r-1) = (r-1)!, and c(r, m) = 0
    for m >= r, so the row stops there."""
    if r < 1:
        raise ValueError("r must be >= 1")
    column = [(j + 1) ** (r - 1) for j in range(r)]
    row = []
    while column:
        row.append(column[0])
        column = [b - a for a, b in pairwise(column)]
    return tuple(row)
