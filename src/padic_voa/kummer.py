"""Square-bracket states, the v_r / u_r families, Kummer-congruence checks in
the state space, and the comparison of limit characters with the p-stabilized
weight-2 Eisenstein series.

The torus-coordinate state h[-r]h[-1]|0> expands over the round-bracket basis
as

    (r-1)! h[-r]h[-1]|0>
        = sum_{m=0}^{r-1} c(r, m) h(-m-1)h(-1)|0>  -  B_{r+1}/(r+1) |0>,

with c(r, m) the Stirling-type integers of `scalars.c_coefficient`, taken a
whole row at a time from `scalars.c_row`.  States are assembled as exact
rationals first; p-adic reduction happens only at the reporting boundary
(norm exponents), after the (1 - p^r) rescaling.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .axioms import DefectReport
from .fock import HeisenbergState
from .qchar import QSeries, eisenstein_G2_star, normalized_character, qseries_padic_distance
from .scalars import bernoulli, c_row, is_prime, valuation

__all__ = [
    "exceptional_branch_ok",
    "exceptional_character_exponents",
    "exceptional_state_exponents",
    "kummer_check",
    "kummer_index",
    "limit_character_check",
    "on_exceptional_branch",
    "square_bracket_state",
    "u_state",
    "v_state",
]


def _require_odd_positive(r: int) -> None:
    if r < 1 or r % 2 == 0:
        raise ValueError(f"r must be a positive odd integer, got {r}")


def _require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def square_bracket_state(r: int) -> HeisenbergState:
    """The state (r-1)! h[-r]h[-1]|0> in the round-bracket monomial basis,
    via the closed-form Stirling/Bernoulli expansion, built in one piece from
    the row c(r, 0..r-1)."""
    _require_odd_positive(r)
    terms = [((m + 1, 1), c) for m, c in enumerate(c_row(r))]
    return HeisenbergState([((), -bernoulli(r + 1) / (r + 1)), *terms])


def v_state(r: int) -> HeisenbergState:
    """v_r = (1/2)(r-1)! h[-r]h[-1]|0>; its rescaled character is G_{r+1}."""
    return square_bracket_state(r).scale(Fraction(1, 2))


def u_state(r: int, p: int) -> HeisenbergState:
    """The p-rescaled family member u_r = 2 (1 - p^r) v_r."""
    _require_odd_prime(p)
    return square_bracket_state(r).scale(1 - Fraction(p) ** r)


def kummer_index(p: int, a: int) -> int:
    """The weight index r = 1 + p^a (p-1) of depth a in the family."""
    if a < 0:
        raise ValueError("depth must be >= 0")
    return 1 + p**a * (p - 1)


def kummer_check(p: int, a: int, b: int) -> DefectReport:
    """Difference of family members u_r - u_s for r = 1 + p^a(p-1) and
    s = 1 + p^b(p-1), a <= b, reported with its sup-norm exponent.

    The congruence target is exponent <= -(a+1).  The c(r, m) coefficients
    meet it for every odd prime; the vacuum (Bernoulli) coefficient meets it
    off the exceptional branch (see `on_exceptional_branch`).
    """
    if a > b:
        raise ValueError("need a <= b")
    r = kummer_index(p, a)
    s = kummer_index(p, b)
    defect = u_state(r, p) - u_state(s, p)
    return DefectReport.from_defect(
        defect, p, {"p": p, "a": a, "b": b, "r": r, "s": s, "bound": -(a + 1)}
    )


def limit_character_check(p: int, a: int, n_max: int) -> int | float:
    """p-adic distance exponent between the rescaled character of
    u_{1 + p^a(p-1)} and 2 G_2* through q-order n_max."""
    _require_odd_prime(p)
    u = u_state(kummer_index(p, a), p)
    target = eisenstein_G2_star(p, n_max).scale(2)
    return qseries_padic_distance(normalized_character(u, n_max), target, p)


def on_exceptional_branch(p: int, r: int) -> bool:
    """(p-1) | r+1: the weight k = r+1 lies on the pole of the p-adic zeta
    function (Washington, *Introduction to Cyclotomic Fields*, Thm 7.10).
    There the vacuum coefficient z(k) = zeta_p(1-k) of u_{k-1} converges
    only at exponent 1 - a; this holds for every family weight at p = 3."""
    return (r + 1) % (p - 1) == 0


def _regularised_exponent(p: int, k: int, z: Fraction, k2: int, z2: Fraction) -> int | float:
    """Exponent of E(k) z - E(k2) z2 with E(k) = 1 - (1+p)^k.  E(k) cancels
    the pole: E(k) zeta_p(1-k) is an Iwasawa power series in (1+p)^(1-k) - 1."""
    x = (1 - (1 + p) ** k) * z - (1 - (1 + p) ** k2) * z2
    return -valuation(x, p) if x else -inf


def exceptional_state_exponents(report: DefectReport) -> dict:
    """For a `kummer_check` row u_r - u_s: the exponents of its non-vacuum part
    and of E(r+1) z(r+1) - E(s+1) z(s+1), z(k) the vacuum coefficient of u_{k-1}."""
    p, r, s = (report.parameters[key] for key in ("p", "r", "s"))
    vacuum = HeisenbergState.vacuum(report.defect.coefficient(()))
    z_r, z_s = (u_state(i, p).coefficient(()) for i in (r, s))
    return {
        "non_vacuum_exponent": (report.defect - vacuum).sup_norm_exponent(p),
        "regularised_exponent": _regularised_exponent(p, r + 1, z_r, s + 1, z_s),
    }


def exceptional_character_exponents(p: int, a: int, character: QSeries, target: QSeries) -> dict:
    """For f(u_r) - 2 G_2* with r = kummer_index(p, a): the largest exponent
    of its q^n coefficients (n >= 1), and that of E(r+1) f(u_r)_0 - E(2) zeta_p(-1),
    zeta_p(-1) = (p-1)/12 being the constant term of 2 G_2*."""
    k = kummer_index(p, a) + 1
    q_exponents = (character - target).norm_exponents(p)[1:]
    return {
        "q_coefficient_exponent": max(q_exponents, default=-inf),
        "regularised_exponent": _regularised_exponent(p, k, character.coefficient(0), 2, Fraction(p - 1, 12)),
    }


def exceptional_branch_ok(exponents: dict, whole: int | float, a: int, b: int | None = None) -> bool:
    """The Kummer criterion on the exceptional branch: each of `exponents`
    is <= -(a+1) and the whole difference has exponent exactly 1 - a, or
    -inf for a = b.  Character rows pass b = None.  Each bound is sharp."""
    return whole == (-inf if a == b else 1 - a) and all(e <= -(a + 1) for e in exponents.values())
