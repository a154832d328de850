"""Defect computations for the vertex-algebra identities: Jacobi, commutator,
associator, locality decay, and isometry of the state-field correspondence.

Each check returns the exact defect state together with its p-adic sup-norm
exponent (read by `scalars._norm_exponent`) rather than a boolean: on the
algebraic sublattice the defects are exactly zero, and a nonzero defect's
norm exponent makes near-misses diagnosable (this is the quantitative
epsilon-form of the congruence reading of the axioms).
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple, Sequence

from .fock import GradedState, _accumulate_terms, partitions_of
from .modes import _MODE_CACHE, _mode_table, _residue_sum
from .scalars import _NEG_INF, _norm_exponent, _require_prime

__all__ = [
    "DefectReport",
    "associator_defect",
    "commutator_defect",
    "isometry_probe",
    "jacobi_defect",
    "locality_profile",
]


class DefectReport(NamedTuple):
    """An exact defect state, its sup-norm exponent at the reporting prime,
    and the parameters that produced it.  The exponent is -inf exactly when
    the defect vanishes.  An immutable tuple with no per-instance dict."""

    defect: Any
    norm_exponent: int | float
    parameters: dict
    prime: int

    @classmethod
    def from_defect(cls, defect, prime: int, parameters: dict) -> "DefectReport":
        _require_prime(prime)
        return _report(defect, prime, dict(parameters))

    @property
    def is_zero(self) -> bool:
        return self.norm_exponent == _NEG_INF


def _report(defect, prime: int, parameters: dict) -> DefectReport:
    """The report of `defect` at a prime the caller has checked, holding
    `parameters` itself.  tuple.__new__ skips the generated __new__ and its
    Python frame; the exponent is `sup_norm_exponent` without its two
    frames, and with no call at all for a defect with no terms."""
    terms = defect._terms
    exponent = _norm_exponent(terms.values(), prime) if terms else _NEG_INF
    return tuple.__new__(DefectReport, (defect, exponent, parameters, prime))


def _jacobi_sides(
    u: GradedState, v: GradedState, w: GradedState, r: int, s: int, t: int, sign: int = 1
) -> GradedState:
    """sign times (left minus right side) of the Jacobi identity at (r, s, t),
    both sides summed with the sign on the engine's (key, coefficient) pairs
    without building a state for u(t+i)v, one term of u and one of v at a
    time, as both sides are bilinear in (u, v); u's row of v's key is read
    once, and an empty image is skipped.  Each table, of a term of u or v
    or of a term of u(t+i)v, is one lookup in the store, and `_mode_table`
    runs only when the lookup misses (or finds an empty table, which it
    returns again).  A zero result is the `proto` of u's first table,
    shared by every call, or a new zero when u or v is zero."""
    u._check(v)
    u._check(w)
    acc: dict = {}
    get, algebra, v_terms, w_terms = _MODE_CACHE.get, u.algebra, v._terms.items(), w._terms.items()
    zero = None
    for pu, cu in u._terms.items():
        u_table = get((algebra, pu)) or _mode_table(u, pu)
        if zero is None:
            zero = u_table.proto
        for pv, cv in v_terms:
            v_table, cuv = get((algebra, pv)) or _mode_table(v, pv), cu * cv
            u_row, binomial = u_table[pv], sign  # binomial = sign C(r, i), an int, which i divides below
            for i in range(max(0, u_table.weight + v_table.weight - t)):
                if i:
                    binomial = binomial * (r - i + 1) // i
                    if not binomial:
                        break  # C(r, i) = 0 for 0 <= r < i, and so for every larger i
                for pk, ck in u_row[t + i]:  # the terms of u(t+i)v
                    scale, table = binomial * cuv * ck, get((algebra, pk)) or _mode_table(w, pk)
                    for pw, cw in w_terms:
                        image = table[pw][r + s - i]
                        if image:
                            _accumulate_terms(acc, image, scale * cw)
            for key, c in w_terms:
                _residue_sum(acc, -sign * cuv * c, u_table, v_table, r, s, t, key)
    return w._with(acc) if acc or zero is None or not v._terms else zero


def jacobi_defect(
    u: GradedState,
    v: GradedState,
    w: GradedState,
    r: int,
    s: int,
    t: int,
    prime: int = 2,
) -> DefectReport:
    """Left minus right side of the Jacobi identity

        sum_i C(r, i) (u(t+i)v)(r+s-i) w = R_t(u, v; r, s) w,

    with R_t the residue sum of `modes` and every i-sum truncated at its
    proven grading bound.  Exactly zero on finitely supported states of
    either algebra.
    """
    _require_prime(prime)
    return _report(_jacobi_sides(u, v, w, r, s, t), prime, {"r": r, "s": s, "t": t})


def commutator_defect(
    u: GradedState,
    v: GradedState,
    w: GradedState,
    r: int,
    s: int,
    prime: int = 2,
) -> DefectReport:
    """Defect of the commutator formula
    [u(r), v(s)] w = sum_i C(r, i) (u(i)v)(r+s-i) w: the Jacobi identity at
    t = 0, right minus left side."""
    _require_prime(prime)
    return _report(_jacobi_sides(u, v, w, r, s, 0, -1), prime, {"r": r, "s": s})


def associator_defect(
    u: GradedState,
    v: GradedState,
    w: GradedState,
    s: int,
    t: int,
    prime: int = 2,
) -> DefectReport:
    """Defect of the associator formula (u(t)v)(s) w = R_t(u, v; 0, s) w:
    the composed modes minus the residue product.  This is the Jacobi
    identity at r = 0, where only the i = 0 term C(0, 0) = 1 survives."""
    _require_prime(prime)
    return _report(_jacobi_sides(u, v, w, 0, s, t), prime, {"s": s, "t": t})


def locality_profile(
    u: GradedState,
    v: GradedState,
    w: GradedState,
    t_max: int,
    prime: int = 2,
) -> list[tuple[int, int | float]]:
    """Probe of locality: sup-norm exponents of the coefficients of
    (x-y)^t [Y(u,x), Y(v,y)] w for t = 0 .. t_max, over a chosen window of
    mode labels.

    The (r, s) coefficient (of x^(-r-1) y^(-s-1)) is R_t(u, v; r, s) w, the
    right side of the Jacobi identity.  At t = 0 it is the bracket
    [u(r), v(s)] w, computed once per call by the residue sum of `modes`;
    each further factor (x-y) is one subtraction,

        R_t(r, s) = R_{t-1}(r+1, s) - R_{t-1}(r, s+1).

    Row t's exponent, the max over cells of each cell's sup norm, is one
    `scalars._norm_exponent` of every coefficient of every cell in the
    window, -inf when every cell is empty.

    Every coefficient lands in grade W - r - s - t - 2, with
    W = wt(u) + wt(v) + wt(w), so pairs with r + s > W - t - 2 vanish by
    grading and are skipped.  The clamp |r|, |s| <= W + 2 is a chosen
    window, not a consequence of grading: for u = v = h, w = |0> and t = 0
    the coefficient [h(r), h(-r)]|0> = r|0> is nonzero for every r.  A
    profile that vanishes for t >= wt(u) + wt(v) is therefore evidence, not
    proof.  The exact criterion is the OPE characterisation of locality:
    (x-y)^t [Y(u,x), Y(v,y)] = 0 exactly when u(j)v = 0 for all j >= t.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    _require_prime(prime)
    u._check(v)
    u._check(w)
    if u.is_zero or v.is_zero or w.is_zero:
        return [(t, _NEG_INF) for t in range(t_max + 1)]
    pairs = [
        (_mode_table(u, pu), _mode_table(v, pv), cu * cv) for pu, cu in u._terms.items() for pv, cv in v._terms.items()
    ]
    total_weight = max(u_table.weight + v_table.weight for u_table, v_table, _ in pairs) + w.max_weight()
    span = total_weight + 2
    # R_0 on every (r, s) that the t_max steps below read
    grid: dict[tuple[int, int], dict] = {}
    for r in range(-span, span + t_max + 1):
        for s in range(-span, min(span + t_max, total_weight - 2 - r) + 1):
            terms = grid[r, s] = {}
            for u_table, v_table, cuv in pairs:
                for key, c in w._terms.items():
                    _residue_sum(terms, cuv * c, u_table, v_table, r, s, 0, key)
    profile: list[tuple[int, int | float]] = []
    for t in range(t_max + 1):
        if t:
            previous, grid, reach = grid, {}, span + t_max - t
            for r, s in previous:
                if r + s <= total_weight - t - 2 and r <= reach and s <= reach:
                    terms = grid[r, s] = dict(previous[r + 1, s])
                    below = previous[r, s + 1]
                    if below:
                        _accumulate_terms(terms, below.items(), -1)
        coefficients = (c for (r, s), terms in grid.items() if r <= span and s <= span for c in terms.values())
        profile.append((t, _norm_exponent(coefficients, prime)))
    return profile


def isometry_probe(
    a: GradedState,
    p: int,
    grade_bound: int,
    index_window: Iterable[int] | Sequence[int],
) -> tuple[int | float, int | float]:
    """Probe of |Y(a, z)| = |a|: returns (lhs, rhs) where

        lhs = sup over n in the window and basis vectors b of grade
              <= grade_bound of log_p |a(n) b|   (basis vectors have norm 1),
        rhs = log_p |a|.

    lhs <= rhs always holds; equality holds whenever the window contains
    n = -1 and the grade bound admits the vacuum, since a(-1)|0> = a.
    lhs, the max of the images' sup norms, is one `scalars._norm_exponent`
    of every coefficient of every image, -inf if all are empty.
    """
    if a.is_zero:
        raise ValueError("isometry probe needs a nonzero state")
    rhs = a.sup_norm_exponent(p)
    keys = [key for grade in range(grade_bound + 1) for key in partitions_of(grade, a.WEIGHT)]
    rows = [[(_mode_table(a, pa)[key], ca) for pa, ca in a._terms.items()] for key in keys]
    coefficients: list = []
    for n in index_window:
        for key_rows in rows:  # a(n) key
            image: dict = {}
            for row, ca in key_rows:
                _accumulate_terms(image, row[n], ca)
            coefficients.extend(image.values())
    return _norm_exponent(coefficients, p), rhs
