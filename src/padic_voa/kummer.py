"""Square-bracket states, the v_r / u_r families, Kummer-congruence checks in
the state space, and the comparison of limit characters with the p-stabilized
weight-2 Eisenstein series.

The torus-coordinate state h[-r]h[-1]|0> expands over the round-bracket basis
as

    (r-1)! h[-r]h[-1]|0>
        = sum_{m=0}^{r-1} c(r, m) h(-m-1)h(-1)|0>  -  B_{r+1}/(r+1) |0>,

with c(r, m) = m! S(r, m+1) the Stirling-type integers, taken a whole row at
a time from `scalars.c_row`.  States are assembled as exact rationals first;
p-adic reduction happens only at the reporting boundary (norm exponents),
after the (1 - p^r) rescaling.  The checks and character rows read each
family member u_r from one bounded memo (`_member`), and every public
function returns new objects.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .axioms import DefectReport
from .fock import HeisenbergState
from .qchar import QSeries, _require_character_order, eisenstein_G2_star, normalized_character
from .scalars import _NEG_INF, _norm_exponent, _require_odd_prime, bernoulli, c_row

__all__ = [
    "character_row",
    "character_verdict",
    "kummer_check",
    "kummer_index",
    "limit_character_check",
    "on_exceptional_branch",
    "square_bracket_state",
    "state_verdict",
    "u_state",
    "v_state",
]


def square_bracket_state(r: int) -> HeisenbergState:
    """The state (r-1)! h[-r]h[-1]|0> in the round-bracket monomial basis,
    via the closed-form Stirling/Bernoulli expansion, built in one piece from
    the row c(r, 0..r-1).  The keys (m+1, 1) are canonical, c(r, m) > 0 for
    m < r, and 6 divides the denominator of B_{r+1} (von Staudt-Clausen), so
    the terms are already in stored form and skip the constructor's checks."""
    if r < 1 or r % 2 == 0:
        raise ValueError(f"r must be a positive odd integer, got {r}")
    terms = {(): -bernoulli(r + 1) / (r + 1)}
    terms.update(((m + 1, 1), c) for m, c in enumerate(c_row(r)))
    return HeisenbergState()._with(terms)


def v_state(r: int) -> HeisenbergState:
    """v_r = (1/2)(r-1)! h[-r]h[-1]|0>; its rescaled character is G_{r+1}."""
    return square_bracket_state(r).scale(Fraction(1, 2))


def u_state(r: int, p: int) -> HeisenbergState:
    """The p-rescaled family member u_r = 2 (1 - p^r) v_r."""
    _require_odd_prime(p)
    return square_bracket_state(r).scale(1 - p**r)


# `c_row(r)` holds about r^2 log10(r) digits: `padic-voa kummer --prime 997
# --amax 0`, which builds its one member once, takes 0.55 s in a fresh process
# on 2 vCPUs (Python 3.11), half of it in c_row(997); --prime 10007 does not end.
_MAX_INDEX = 1000


def kummer_index(p: int, a: int) -> int:
    """The weight index r = 1 + p^a (p-1) of depth a in the family, at most
    `_MAX_INDEX` (p^a is not computed past the limit's bit length), for an
    odd prime p."""
    _require_odd_prime(p)
    if a < 0:
        raise ValueError("depth must be >= 0")
    r = 1 + p ** min(a, _MAX_INDEX.bit_length()) * (p - 1)
    if r > _MAX_INDEX:
        raise ValueError(f"r = 1 + {p}^{a} ({p}-1) is too large for the Kummer family (limit {_MAX_INDEX})")
    return r


def kummer_check(p: int, a: int, b: int) -> DefectReport:
    """Difference of family members u_r - u_s for r = 1 + p^a(p-1) and
    s = 1 + p^b(p-1), a <= b, reported with its sup-norm exponent.

    The congruence target is exponent <= -(a+1).  The c(r, m) coefficients
    meet it for every odd prime; the vacuum (Bernoulli) coefficient meets it
    off the exceptional branch (see `on_exceptional_branch`).
    """
    if a > b:
        raise ValueError("need a <= b")
    r, s = kummer_index(p, a), kummer_index(p, b)  # both limits before any build
    params = {"p": p, "a": a, "b": b, "r": r, "s": s, "bound": -(a + 1)}
    return DefectReport.from_defect(_member(p, a) - _member(p, b), p, params)


def character_row(p: int, a: int, n_max: int) -> tuple[QSeries, list[int | float]]:
    """The rescaled character f(u_r), r = kummer_index(p, a), and the norm
    exponents of the coefficients of f(u_r) - 2 G_2* through q-order n_max:
    the row that `character_verdict` judges.  The q-order is checked before
    the member is built."""
    _require_character_order(HeisenbergState, n_max)
    series = normalized_character(_member(p, a), n_max)
    return series, (series - eisenstein_G2_star(p, n_max).scale(2)).norm_exponents(p)


# a characters-kummer benchmark pass asks for 9 members 57 times, and a CLI
# report of depth amax for amax + 1; u_997 holds 2.4 MB of coefficients, so 16
# members near the index limit hold about 40 MB
@lru_cache(maxsize=16)
def _member(p: int, a: int) -> HeisenbergState:
    """The family member u_r of depth a, r = kummer_index(p, a), built once
    while it is among the last 16 asked for.  Its readers only build new
    objects from it, so no caller of `kummer` is handed the shared state."""
    return u_state(kummer_index(p, a), p)


def limit_character_check(p: int, a: int, n_max: int) -> int | float:
    """p-adic distance exponent between the rescaled character of
    u_{1 + p^a(p-1)} and 2 G_2* through q-order n_max."""
    return max(character_row(p, a, n_max)[1])


def on_exceptional_branch(p: int, r: int) -> bool:
    """(p-1) | r+1: the weight k = r+1 lies on the pole of the p-adic zeta
    function (Washington, *Introduction to Cyclotomic Fields*, Thm 7.10).
    There the vacuum coefficient z(k) = zeta_p(1-k) of u_{k-1} converges
    only at exponent 1 - a; this holds for every family weight at p = 3.
    p must be an odd prime."""
    _require_odd_prime(p)
    return (r + 1) % (p - 1) == 0


def _zeta(p: int, k: int) -> Fraction:
    """z(k) = -(1 - p^(k-1)) B_k / k = zeta_p(1-k), the vacuum coefficient of
    u_{k-1}; z(2) = (p-1)/12 is the constant term of 2 G_2*."""
    return -(1 - Fraction(p) ** (k - 1)) * bernoulli(k) / k


def _regularised_exponent(p: int, k: int, z: Fraction, k2: int) -> int | float:
    """Exponent of E(k) z - E(k2) z(k2) with E(k) = 1 - (1+p)^k.  E(k) cancels
    the pole: E(k) zeta_p(1-k) is an Iwasawa power series in (1+p)^(1-k) - 1."""
    x = (1 - (1 + p) ** k) * z - (1 - (1 + p) ** k2) * _zeta(p, k2)
    return _norm_exponent((x,), p)


def state_verdict(report: DefectReport) -> tuple[dict, bool]:
    """The Kummer verdict on a `kummer_check` row u_r - u_s, as (branch
    exponents, ok).  Off the exceptional branch it is exponent <= -(a+1),
    with no branch exponents.  On it, each branch exponent must be <= -(a+1)
    and the whole exponent exactly 1 - a (-inf for a = b); they are those of
    the non-vacuum part and of E(r+1) z(r+1) - E(s+1) z(s+1), z(k) the vacuum
    coefficient of u_{k-1}, read from `_zeta`.  Each bound is sharp."""
    p, a, b, r, s = (report.parameters[key] for key in ("p", "a", "b", "r", "s"))
    if not on_exceptional_branch(p, r):
        return {}, report.norm_exponent <= -(a + 1)
    branch = {
        "non_vacuum_exponent": _norm_exponent((c for key, c in report.defect._terms.items() if key), p),
        "regularised_exponent": _regularised_exponent(p, r + 1, _zeta(p, r + 1), s + 1),
    }
    return branch, report.norm_exponent == (_NEG_INF if a == b else 1 - a) and max(branch.values()) <= -(a + 1)


def character_verdict(p: int, a: int, series: QSeries, exponents: list) -> tuple[dict, bool]:
    """As `state_verdict`, for f(u_r) - 2 G_2* with r = kummer_index(p, a),
    given the row f(u_r), exponents of `character_row`.  The branch exponents
    are the largest of the q^n coefficients (n >= 1) and that of
    E(r+1) f(u_r)_0 - E(2) z(2), z(2) = zeta_p(-1) the constant term of 2 G_2*."""
    r = kummer_index(p, a)
    if not on_exceptional_branch(p, r):
        return {}, max(exponents) <= -(a + 1)
    branch = {
        "q_coefficient_exponent": max(exponents[1:], default=_NEG_INF),
        "regularised_exponent": _regularised_exponent(p, r + 1, series.coefficient(0), 2),
    }
    return branch, max(exponents) == 1 - a and max(branch.values()) <= -(a + 1)
