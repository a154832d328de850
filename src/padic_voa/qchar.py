"""q-series arithmetic and the character map: graded traces Z(v, q), the eta
normalization, and classical and p-stabilized Eisenstein series (their
divisor sums from the sieve `scalars._divisor_sums`).

A QSeries is a dense truncated expansion sum_n a_n q^(offset+n) with exact
rational coefficients and a rational exponent offset (e.g. -1/24), carried
symbolically so that eta * Z lands exactly on integer exponents.  Its
coefficients follow the storage rule of graded states (`fock._exact`): an
`int` when integral, a `Fraction` only otherwise, so integer traces, eta,
divisor sums and their products stay on int arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul, sub
from typing import Collection

from .fock import GradedState, HeisenbergState, _exact
from .modes import _cached_trace
from .scalars import (
    _divisor_sums,
    _norm_exponent,
    _pentagonal_terms,
    _require_odd_prime,
    _require_order,
    _require_prime,
    _truncated_product,
    bernoulli,
)

__all__ = [
    "QSeries",
    "character",
    "eisenstein_G",
    "eisenstein_G2_star",
    "eta_series",
    "normalized_character",
]

Coefficient = Fraction | int


def _common_denominator(coeffs: Collection[Coefficient]) -> tuple[list[int], int]:
    """(numerators, d) with c = numerator / d for each rational c, d the lcm of
    the denominators: integer kernels then sum and convolve the numerators,
    and one Fraction per result divides by d."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _quotient(n: Coefficient, d: int) -> Coefficient:
    """n / d for d > 0, stored by `_exact`: an int n makes a Fraction only
    when d does not divide it."""
    if type(n) is int:
        q, r = divmod(n, d)
        return Fraction(n, d) if r else q
    return _exact(n / d)


class QSeries:
    """Truncated q-expansion: coefficient(n) multiplies q^(offset + n).

    Coefficients are stored densely on [0, order], each by `_exact` (an int
    when integral, a Fraction only otherwise); `coeffs` holds those stored
    values and `coefficient` returns a Fraction.  Addition requires equal
    offsets; multiplication adds offsets and truncates to the smaller order.
    """

    __slots__ = ("offset", "coeffs")

    def __init__(self, coeffs, offset: Coefficient = 0) -> None:
        self.coeffs: tuple[Coefficient, ...] = tuple(map(_exact, coeffs))
        if not self.coeffs:
            raise ValueError("a QSeries needs at least the constant coefficient")
        self.offset = offset if type(offset) is Fraction else Fraction(offset)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        return Fraction(self.coeffs[n])

    def norm_exponents(self, p: int) -> list[int | float]:
        """-v_p of each coefficient, -inf for a zero one."""
        _require_prime(p)
        return [_norm_exponent((c,), p) for c in self.coeffs]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.offset == other.offset and self.coeffs == other.coeffs

    def _combine(self, op, other: "QSeries") -> "QSeries":
        """op applied coefficient-wise through the smaller order."""
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.offset != other.offset:
            raise ValueError(f"offset mismatch: {self.offset} vs {other.offset}")
        return QSeries(map(op, self.coeffs, other.coeffs), self.offset)

    def __add__(self, other: "QSeries") -> "QSeries":
        return self._combine(add, other)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self._combine(sub, other)

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self.coeffs], self.offset)

    def scale(self, scalar: Coefficient) -> "QSeries":
        scalar = _exact(scalar)
        return QSeries([scalar * c for c in self.coeffs], self.offset)

    def __rmul__(self, scalar: Coefficient) -> "QSeries":
        return self.scale(scalar)

    def __mul__(self, other) -> "QSeries":
        """The truncated product, convolved on integer numerators over the
        two series' common denominators; a Fraction only where their product
        d does not divide the sum."""
        if not isinstance(other, QSeries):
            return self.scale(other)
        order = min(self.order, other.order)
        xs, dx = _common_denominator(self.coeffs[: order + 1])
        ys, dy = _common_denominator(other.coeffs[: order + 1])
        d = dx * dy
        products = _truncated_product(xs, ys)
        return QSeries(products if d == 1 else [_quotient(n, d) for n in products], self.offset + other.offset)

    def to_json(self) -> dict:
        return {
            "offset": str(self.offset),
            "coeffs": [str(c) for c in self.coeffs],
            "order": self.order,
        }

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"QSeries(q^({self.offset}) * [{head}{tail}]; order {self.order})"


# a Heisenberg character sums p(n) keys of grade n at q-order n: `padic-voa
# character --state vac --qmax 40` takes 0.12 s on 2 vCPUs (Python 3.11), and
# `kummer --prime 997 --amax 0 --qmax 40`, 998 keys of weight 998, 0.8-1.0 s
_MAX_ORDER = 40

# a Virasoro trace scans the engine's images of every basis key of each grade,
# about exp(pi sqrt(2n/3)) of them: `character(VirasoroState({(2, 2): 1}, 1),
# n)` takes 0.64 s at n = 25, 0.82 s at 26 and 1.5 s at 28 (same machine)
_MAX_VIRASORO_ORDER = 25


def _require_character_order(cls: type, n_max: int) -> None:
    """The q-order rule of `character` for a state of type cls, which a
    caller may check before it builds the state."""
    _require_order(n_max)
    limit = _MAX_ORDER if issubclass(cls, HeisenbergState) else _MAX_VIRASORO_ORDER
    if n_max > limit:
        raise ValueError(f"q-order {n_max} is too large for a character (limit {limit})")


def character(v: GradedState, n_max: int) -> QSeries:
    """Graded trace Z(v, q) = q^(-c/24) sum_n Tr(o(v) on grade n) q^n, with c
    the central charge of v's algebra (1 for Heisenberg, 2c' for Virasoro),
    through q-order n_max <= `_MAX_ORDER` for a Heisenberg state and
    n_max <= `_MAX_VIRASORO_ORDER` for a Virasoro one.

    Z is linear in v, so Z(v) = sum_key c_key Z(key) over the basis keys of
    v.  Each key's trace series Tr(o(key) | grade n), n = 0..n_max, is one
    cached `modes.zero_mode_trace` entry, read without that function's input
    checks: for Heisenberg integers, Wick sums over pairings of divisor-sum
    series times the partition counts p(n); for Virasoro elements of Z[c']
    (so Fractions at a fractional c'), read off the diagonal of the engine's
    basis images.  The coefficients
    c_key are put over one common denominator d, so each q-order sums the
    products of numerator and trace down one column of the traces, and
    divides by d only when d > 1, making a Fraction only where d does not
    divide the sum.
    """
    _require_character_order(type(v), n_max)
    numerators, d = _common_denominator(v._terms.values())
    # a state's keys are basis keys and n_max is checked above
    traces = [_cached_trace(v, key, n_max) for key in v._terms]
    sums = [sum(map(mul, numerators, column)) for column in zip(*traces)] or [0] * (n_max + 1)
    return QSeries(sums if d == 1 else [_quotient(n, d) for n in sums], -Fraction(v.central_charge) / 24)


def eta_series(n_max: int) -> QSeries:
    """Dedekind eta: q^(1/24) prod_{n>=1} (1 - q^n), by Euler's pentagonal
    number expansion."""
    _require_order(n_max)
    coeffs = [0] * (n_max + 1)
    coeffs[0] = 1
    for g, sign in _pentagonal_terms(n_max):
        coeffs[g] += sign
    return QSeries(coeffs, Fraction(1, 24))


def normalized_character(v: HeisenbergState, n_max: int) -> QSeries:
    """The rescaled character f(v) = eta * Z(v, q) of a Heisenberg state,
    landing on integer exponents (offset 0).  Any other state raises
    ValueError."""
    if not isinstance(v, HeisenbergState):
        raise ValueError(f"eta normalises Heisenberg characters only, got {type(v).__name__}")
    return eta_series(n_max) * character(v, n_max)


# B_k grows like k^k: `padic-voa eisenstein --k 2000 --qmax 2` takes about 1 s
# on 2 vCPUs (Python 3.11), the numerator of B_2100 is past Python's 4,300-digit
# int-to-str limit, and --k 20000 does not end within 30 s
_MAX_WEIGHT = 2000

# the JSON holds every coefficient as a decimal string, and Python converts no
# int of more than 4,300 digits to str; sigma_{k-1}(n) has about
# (k-1) log10(n) digits, so at k = 2000 the largest q-order is 141
_MAX_DIGITS = 4300

# time, memory and output grow with the q-order, as each coefficient becomes a
# JSON string: in a fresh process (2 vCPUs, Python 3.11)
# `padic-voa eisenstein --k 4 --qmax 10000` takes 0.17 s and writes 0.2 MB,
# --qmax 50000 0.43 s and 1.2 MB, and --qmax 100000000 would write gigabytes
_MAX_EISENSTEIN_ORDER = 10000


def eisenstein_G(k: int, n_max: int) -> QSeries:
    """Weight-k Eisenstein series G_k = -B_k/2k + sum_n sigma_{k-1}(n) q^n,
    for even 2 <= k <= `_MAX_WEIGHT`, through a q-order
    n_max <= `_MAX_EISENSTEIN_ORDER` with 2 n_max^(k-1) < 10^`_MAX_DIGITS`.
    For k >= 4 that bound covers every coefficient, since
    sigma_{k-1}(n) < zeta(k-1) n^(k-1) < 2 n^(k-1).  The divisor sums
    sigma_{k-1}(1..n_max) come from one sieve, `scalars._divisor_sums`, the
    kernel of the Wick pair series too."""
    if k < 2 or k % 2:
        raise ValueError("k must be even and >= 2")
    if k > _MAX_WEIGHT:
        raise ValueError(f"weight {k} is too large for an Eisenstein series (limit {_MAX_WEIGHT})")
    _require_order(n_max)
    # the bit-length test refuses a huge n_max without raising it to the power
    if (n_max.bit_length() - 1) * (k - 1) >= 4 * _MAX_DIGITS or 2 * n_max ** (k - 1) >= 10**_MAX_DIGITS:
        raise ValueError(
            f"q-order {n_max} is too large for an Eisenstein series of weight {k} (limit {_MAX_DIGITS} digits)"
        )
    if n_max > _MAX_EISENSTEIN_ORDER:
        raise ValueError(f"q-order {n_max} is too large for an Eisenstein series (limit {_MAX_EISENSTEIN_ORDER})")
    sigma = _divisor_sums([a ** (k - 1) for a in range(1, n_max + 1)])
    return QSeries([-bernoulli(k) / (2 * k)] + sigma[1:])


def eisenstein_G2_star(p: int, n_max: int) -> QSeries:
    """The p-stabilized weight-2 Eisenstein series G_2*(q) = G_2(q) - p G_2(q^p)
    = (p-1)/24 + sum_{n>=1} sigma*(n) q^n, sigma*(n) the sum of the divisors
    of n coprime to p; the p-adic limit of G_k along weights k = 2 + p^a (p-1).
    Its q-order obeys the limits of `eisenstein_G`.
    """
    _require_odd_prime(p)
    g2 = eisenstein_G(2, n_max).coeffs
    return QSeries([c - p * g2[n // p] if n % p == 0 else c for n, c in enumerate(g2)])
