"""Mode actions on graded states: the generator modes, the cached recursive
engine computing v(n)b for arbitrary states of the Heisenberg or the
Virasoro vertex algebra, Virasoro modes at central charge 1 inside the
Heisenberg algebra (the modes of the conformal vector, through the same
engine), zero modes and their graded traces, and residue products.

The trace of a basis key is a series: Tr(o(key) | grade g) for g = 0..n,
computed in one pass and cached as one tuple per key.  A Heisenberg series is
the product of P(q) = sum p(g) q^g with the sum over pairings of
Eisenstein-type divisor-sum series (Wick's theorem, `_wick_trace`), each
from the sieve `scalars._divisor_sums` that `qchar.eisenstein_G` reads too,
with no engine call; a Virasoro series reads the diagonal of the engine's
images of each grade's basis keys.

Everything rests on one residue sum, the right side of the Jacobi identity
(Kac, *Vertex Algebras for Beginners*, the associativity/Borcherds form):

    R_t(a, b; r, s) w = sum_{i>=0} (-1)^i C(t, i)
                        { a(r+t-i) b(s+i) w - (-1)^t b(s+t-i) a(r+i) w },

written once, in `_residue_sum`.  At r = 0 it is the mode (a(t)b)(s) w of a
residue product.  The engine
expands Y(v, z) = sum_n v(n) z^(-n-1) by peeling the top part k off each
basis vector, v = g(t)u with g the generator and t = wt g - 1 - k, and
evaluating this sum with a = g and b = u.  Both i-sums terminate: b(j)w
vanishes once j >= wt(b) + wt(w) because the grading is nonnegative, and
likewise for a.  Every infinite sum is truncated by these proven grading
bounds, never by thresholds, so all results are exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import groupby, islice
from math import comb
from typing import Callable, Iterable

from .fock import Coefficient, GradedState, HeisenbergState, Partition, _accumulate_terms, partitions_of
from .scalars import _divisor_sums, _partition_counts, _truncated_product

__all__ = [
    "clear_mode_cache",
    "h_mode",
    "mode_action",
    "residue_product_mode",
    "virasoro_mode",
    "zero_mode",
    "zero_mode_trace",
]

_Terms = dict[Partition, Coefficient]
_Pairs = Iterable[tuple[Partition, Coefficient]]
_FrozenTerms = tuple[tuple[Partition, Coefficient], ...]
_KeyMode = Callable[[int, Partition], _Pairs]


def _residue_sum(
    acc: _Terms, scalar, a: _KeyMode, wa: int, b: _KeyMode, wb: int, r: int, s: int, t: int, key: Partition
) -> None:
    """acc += scalar * R_t(a, b; r, s) key, i.e. scalar times

        sum_{i>=0} (-1)^i C(t, i) { a(r+t-i) b(s+i) key - (-1)^t b(s+t-i) a(r+i) key }.

    a and b map (mode index, basis key) to (key, coefficient) pairs, for
    states of largest weight wa and wb; b(s+i) key vanishes once
    s + i >= wb + wt key, and a(r+i) key once r + i >= wa + wt key."""
    wk = sum(key)
    first_bound = wb + wk - s
    second_bound = wa + wk - r
    t_sign = -1 if t % 2 else 1
    signed_binomial = 1  # (-1)^i C(t, i)
    for i in range(max(0, first_bound, second_bound)):
        if i:
            signed_binomial = -signed_binomial * (t - i + 1) // i
            if not signed_binomial:
                break  # C(t, i) = 0 for 0 <= t < i, and so for every larger i
        coeff = scalar * signed_binomial
        if i < first_bound:
            for inner, c in b(s + i, key):
                _accumulate_terms(acc, a(r + t - i, inner), coeff * c)
        if i < second_bound:
            coeff *= -t_sign
            for inner, c in a(r + i, key):
                _accumulate_terms(acc, b(s + t - i, inner), coeff * c)


def h_mode(m: int, b: GradedState) -> GradedState:
    """Action of the generator mode h(m) on a Heisenberg state: multiplication
    by h(m) for m < 0, the derivation m * d/dh(-m) for m > 0, and zero for
    m = 0.  On a Virasoro state this is the mode w(m) = L(m-1) of the
    conformal vector."""
    acc: _Terms = {}
    for key, coeff in b._terms.items():
        _accumulate_terms(acc, b._generator_mode(m, key), coeff)
    return b._with(acc)


# v(n) on basis keys, keyed on (algebra, pv, n, pb); the default commutator
# and locality sweeps together leave 105,327 entries, below the bound
_MODE_CACHE: dict[tuple[str, Partition, int, Partition], _FrozenTerms] = {}
_MODE_CACHE_SIZE = 1 << 17

# zero-mode trace series keyed on (algebra, pv): the longest tuple
# (Tr(o(pv) | grade g) for g = 0..n) asked for so far, which a lower order reads
# a prefix of and a higher one replaces
_TRACE_CACHE: dict[tuple[str, Partition], tuple[Coefficient, ...]] = {}
_TRACE_CACHE_SIZE = 8192


def _remember(cache: dict, size: int, key, value) -> None:
    """cache[key] = value, first dropping the oldest half of a full cache (one
    at a time, each drop would rescan the freed slots at the dict's front)."""
    if len(cache) >= size:
        for old in list(islice(cache, size // 2)):
            del cache[old]
    cache[key] = value


def clear_mode_cache() -> None:
    """Empty `_MODE_CACHE` (v(n) on basis keys) and `_TRACE_CACHE` (zero-mode
    trace series); `virasoro._apply.cache_clear()` resets the Virasoro rewrite memo."""
    _MODE_CACHE.clear()
    _TRACE_CACHE.clear()


def _monomial_mode(proto: GradedState, pv: Partition, n: int, pb: Partition) -> _FrozenTerms:
    """v(n) applied to a basis key pb, for v the basis vector pv of the
    algebra of `proto`, as an immutable tuple of (key, coefficient) pairs.
    Cached on (algebra, pv, n, pb)."""
    cache_key = (proto.algebra, pv, n, pb)
    cached = _MODE_CACHE.get(cache_key)
    if cached is not None:
        return cached

    wg = proto.WEIGHT
    if not pv:
        result = ((pb, 1),) if n == -1 else ()
    elif pv == (wg,):
        result = tuple(proto._generator_mode(n, pb))
    else:
        u = pv[1:]
        acc: _Terms = {}
        _residue_sum(
            acc, 1,
            proto._generator_mode, wg,
            lambda j, key: _monomial_mode(proto, u, j, key), sum(u),
            0, n, wg - 1 - pv[0], pb,
        )
        result = tuple(acc.items())

    _remember(_MODE_CACHE, _MODE_CACHE_SIZE, cache_key, result)
    return result


def _pair_series(k: int, l: int, n: int) -> list[int]:
    """[q^0..q^n] of E_{k,l}(q) = sum_{j>=1} (sum_{a | j} a w(a)) q^j, the
    contraction of two slots d^(k-1)h/(k-1)! and d^(l-1)h/(l-1)! of a
    normal-ordered zero mode, with

        w(a) = C(-a-1, k-1) C(a-1, l-1) + C(-a-1, l-1) C(a-1, k-1),

    C(-a-1, k-1) = (-1)^(k-1) C(a+k-1, k-1): one slot carries h(-a), the
    other h(a), and h(-a)h(a) has trace a q^a / (1 - q^a) per q^(L(0)).
    The divisor sums come from the sieve `_divisor_sums`, which also builds
    `qchar.eisenstein_G`: E_{1,1} = 2 (G_2 - G_2(0)), G_2(0) = -1/24."""
    return _divisor_sums([
        a * ((-1) ** (k - 1) * comb(a + k - 1, k - 1) * comb(a - 1, l - 1)
             + (-1) ** (l - 1) * comb(a + l - 1, l - 1) * comb(a - 1, k - 1))
        for a in range(1, n + 1)
    ])


def _wick_trace(pv: Partition, n: int) -> list[int]:
    """[Tr(o(v) | grade g) for g = 0..n] for the Heisenberg basis vector
    v = pv, by Wick's theorem (Mason and Tuite, *Torus chiral n-point
    functions for free boson and lattice VOAs*, CMP 235, 2003): the
    coefficients of P(q) Haf_pv(q) through q^n, with P(q) = sum p(g) q^g and
    Haf_pv the sum over the perfect matchings of the slots of pv of the
    products of their `_pair_series`.

    Y(v, z) = :d^(k_1-1)h ... d^(k_m-1)h: (divided powers) and h(0) = 0 on
    the Fock space, so a normal-ordered monomial of o(v) meets the diagonal
    only when its creation and annihilation indices agree as multisets, and
    each such agreement is a pairing of slots.  Haf is 1 for m = 0 and 0
    for odd m; it recurses over the multiplicity vector of pv (the first
    slot pairs with each part type, weighted by its count), memoised for
    this call only, so no (m-1)!! matchings are listed.  E_{k,l} starts at
    q^min(k, l), so Haf_pv starts at q^d, d the sum of the smaller half of
    pv's parts, and the series is zero through q^n when d > n."""
    if len(pv) % 2 or sum(pv[len(pv) // 2 :]) > n:
        return [0] * (n + 1)
    pair_series: dict[tuple[int, int], list[int]] = {}
    hafnians: dict[tuple[tuple[int, int], ...], list[int]] = {}

    def hafnian(counts: tuple[tuple[int, int], ...]) -> list[int]:
        if counts in hafnians:
            return hafnians[counts]
        total = [0] * (n + 1)
        if not counts:
            total[0] = 1
        else:
            (k, ck), rest = counts[0], counts[1:]
            if ck > 1:
                rest = ((k, ck - 1), *rest)
            for index, (l, cl) in enumerate(rest):
                if (k, l) not in pair_series:
                    pair_series[k, l] = _pair_series(k, l, n)
                remaining = rest[:index] + (((l, cl - 1),) if cl > 1 else ()) + rest[index + 1 :]
                for j, x in enumerate(_truncated_product(hafnian(remaining), pair_series[k, l])):
                    total[j] += cl * x
        hafnians[counts] = total
        return total

    haf = hafnian(tuple((part, len(list(group))) for part, group in groupby(pv)))
    return _truncated_product(haf, _partition_counts(n))


def zero_mode_trace(proto: GradedState, pv: Partition, n: int) -> tuple[Coefficient, ...]:
    """The trace series (Tr(o(v) | grade g) for g = 0..n) of v the basis
    vector pv of the algebra of `proto`.  A Heisenberg series is integral,
    from Wick's theorem (`_wick_trace`), with no engine call; a Virasoro
    trace at grade g is the sum over the grade-g basis keys pb of the
    pb-coefficient of v(wt v - 1) pb, read off the engine's images by a scan
    for pb, without building states or dicts.  Cached on (algebra, pv): the
    entry is the longest series asked for so far, a lower order reads its
    prefix and a higher one recomputes and replaces it."""
    cache_key = (proto.algebra, pv)
    series = _TRACE_CACHE.get(cache_key, ())
    if len(series) <= n:
        if isinstance(proto, HeisenbergState):
            series = tuple(_wick_trace(pv, n))
        else:
            k = sum(pv) - 1
            series = tuple(
                sum(next((c for key, c in _monomial_mode(proto, pv, k, pb) if key == pb), 0) for pb in basis)
                for basis in (partitions_of(g, proto.WEIGHT) for g in range(n + 1))
            )
        _remember(_TRACE_CACHE, _TRACE_CACHE_SIZE, cache_key, series)
    return series[: n + 1]


def mode_action(v: GradedState, n: int, b: GradedState) -> GradedState:
    """The mode v(n) of Y(v, z) applied to b, extended bilinearly from the
    basis case.  For homogeneous inputs the result is homogeneous of weight
    wt(v) + wt(b) - n - 1, and vanishes once n >= wt(v) + wt(b)."""
    v._check(b)
    acc: _Terms = {}
    for pv, cv in v._terms.items():
        for pb, cb in b._terms.items():
            _accumulate_terms(acc, _monomial_mode(v, pv, n, pb), cv * cb)
    return b._with(acc)


_CONFORMAL_VECTOR = HeisenbergState({(1, 1): Fraction(1, 2)})


def virasoro_mode(n: int, b: HeisenbergState) -> HeisenbergState:
    """The Virasoro mode L(n) inside the Heisenberg algebra (central charge 1):
    L(n) = w(n+1) for the conformal vector w = 1/2 h(-1)^2|0>."""
    return mode_action(_CONFORMAL_VECTOR, n + 1, b)


def zero_mode(v: GradedState) -> Callable[[GradedState], GradedState]:
    """The grade-preserving zero mode o(v): for homogeneous v of weight k this
    is v(k-1), extended linearly over homogeneous components otherwise."""
    components = v.homogeneous_components()

    def apply(b: GradedState) -> GradedState:
        acc: _Terms = {}
        for w, component in components.items():
            _accumulate_terms(acc, mode_action(component, w - 1, b)._terms.items())
        return b._with(acc)

    return apply


def _modes_of(v: GradedState) -> _KeyMode:
    """(n, key) -> v(n) key as (key, coefficient) pairs: the cached engine
    itself when v is one basis vector with coefficient 1."""
    if len(v) == 1:
        ((pv, cv),) = v._terms.items()
        if cv == 1:
            return partial(_monomial_mode, v, pv)

    def key_mode(n: int, key: Partition) -> _Pairs:
        acc: _Terms = {}
        for pv, cv in v._terms.items():
            _accumulate_terms(acc, _monomial_mode(v, pv, n, key), cv)
        return acc.items()

    return key_mode


def residue_product_mode(a: GradedState, b: GradedState, t: int, n: int, w: GradedState) -> GradedState:
    """n-th mode of the t-th residue product of the fields of a and b,
    applied to w: (a(z)_t b(z))(n) w = R_t(a, b; 0, n) w, the residue sum
    with both i-sums truncated by the grading bounds.  Agrees exactly with
    mode_action(a(t)b, n, w)."""
    a._check(b)
    a._check(w)
    acc: _Terms = {}
    if a and b:
        for key, c in w._terms.items():
            _residue_sum(acc, c, _modes_of(a), a.max_weight(), _modes_of(b), b.max_weight(), 0, n, t, key)
    return w._with(acc)

