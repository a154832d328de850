"""Mode actions on graded states: the generator modes, the cached recursive
engine computing v(n)b for arbitrary states of the Heisenberg or the
Virasoro vertex algebra, Virasoro modes at central charge 1 inside the
Heisenberg algebra (the modes of the conformal vector, through the same
engine), zero modes and their graded traces, and residue products.

The trace of a basis key is a series: Tr(o(key) | grade g) for g = 0..n,
computed in one pass and kept as the entry n of the trace row (the row at
None) of the key's mode table.  A Heisenberg series is the product of
P(q) = sum p(g) q^g with the sum over pairings of Eisenstein-type
divisor-sum series (Wick's theorem, `_wick_trace`), each from the sieve
`scalars._divisor_sums` that `qchar.eisenstein_G` reads too, with no engine
call; a Virasoro series reads the diagonal of the table's own images of
each grade's basis keys.

Everything rests on one residue sum, the right side of the Jacobi identity
(Kac, *Vertex Algebras for Beginners*, the associativity/Borcherds form):

    R_t(a, b; r, s) w = sum_{i>=0} (-1)^i C(t, i)
                        { a(r+t-i) b(s+i) w - (-1)^t b(s+t-i) a(r+i) w },

written once, in `_residue_sum`.  At r = 0 it is the mode (a(t)b)(s) w of a
residue product.  The engine expands Y(v, z) = sum_n v(n) z^(-n-1) by
peeling the top part k off each basis vector, v = g(t)u with g the
generator and t = wt g - 1 - k, and evaluating this sum with a = g and
b = u.  Each basis vector v has one table, a dict holding one row per basis
key b; a row is a dict keyed on n that computes a missing image v(n)b once,
so a caller holding the row reads a known image with one int subscript.
The sum is bilinear in (a, b), so a state enters it term by term, its
callers looping over the terms of a and, inside that, of b, and it only
ever reads two tables.  Each table carries its vector's weight: b(j)w
vanishes once j >= b.weight + wt(w), the grading being nonnegative, and
likewise for a.  So every infinite sum is truncated by proven grading
bounds, never by thresholds, and all results are exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import comb, prod
from typing import Callable

from .fock import Coefficient, GradedState, HeisenbergState, Partition, _accumulate_terms, partitions_of
from .scalars import _divisor_sums, _partition_counts, _require_order, _truncated_product

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
_FrozenTerms = tuple[tuple[Partition, Coefficient], ...]


def _residue_sum(acc: _Terms, scalar, a: _ModeTable, b: _ModeTable, r: int, s: int, t: int, key: Partition) -> None:
    """acc += scalar * R_t(a, b; r, s) key, i.e. scalar times

        sum_{i>=0} (-1)^i C(t, i) { a(r+t-i) b(s+i) key - (-1)^t b(s+t-i) a(r+i) key }.

    a and b are two basis vectors' tables: a[key][m] and b[key][m] are the
    (key, coefficient) pairs of a(m) key and b(m) key; b(s+i) key vanishes
    once s + i >= b.weight + wt key, and a(r+i) key once r + i >= a.weight
    + wt key.  The rows of key are read once, and an empty image adds
    nothing, so it is skipped."""
    wk = sum(key)
    first_bound = b.weight + wk - s
    second_bound = a.weight + wk - r
    b_row = b[key] if first_bound > 0 else None
    a_row = a[key] if second_bound > 0 else None
    t_sign = -1 if t % 2 else 1
    signed_binomial = 1  # (-1)^i C(t, i)
    for i in range(max(0, first_bound, second_bound)):
        if i:
            signed_binomial = -signed_binomial * (t - i + 1) // i
            if not signed_binomial:
                break  # C(t, i) = 0 for 0 <= t < i, and so for every larger i
        coeff = scalar * signed_binomial
        if i < first_bound:
            for inner, c in b_row[s + i]:
                image = a[inner][r + t - i]
                if image:
                    _accumulate_terms(acc, image, coeff * c)
        if i < second_bound:
            coeff *= -t_sign
            for inner, c in a_row[r + i]:
                image = b[inner][s + t - i]
                if image:
                    _accumulate_terms(acc, image, coeff * c)


def h_mode(m: int, b: GradedState) -> GradedState:
    """Action of the generator mode h(m) on a Heisenberg state: multiplication
    by h(m) for m < 0, the derivation m * d/dh(-m) for m > 0, and zero for
    m = 0.  On a Virasoro state this is the mode w(m) = L(m-1) of the
    conformal vector."""
    gen = _mode_table(b, (b.WEIGHT,))
    acc: _Terms = {}
    for key, coeff in b._terms.items():
        _accumulate_terms(acc, gen[key][m], coeff)
    return b._with(acc) if acc else gen.proto


# one `_ModeTable` per (algebra, pv), at most 3 * 2^16 entries over all tables,
# a table, a row, an image and a trace series each counting as one, so that no
# empty table or row escapes the bound: the default commutator and locality
# sweeps in one process store 141,288 images in 11,519 rows of 44 tables,
# 152,851 entries, so no table is dropped (a Virasoro rewrite is a generator
# image); the count is a list, so that restoring the module's lists restores it
_MODE_CACHE: dict[tuple[str, Partition], "_ModeTable"] = {}
_MODE_CACHE_SIZE = 3 << 16
_MODE_CACHE_ENTRIES = [0]


def clear_mode_cache() -> None:
    """Empty `_MODE_CACHE` (the mode tables, with their rows, images, trace
    series and entry count), the Virasoro rewrites with them."""
    _MODE_CACHE.clear()
    _MODE_CACHE_ENTRIES[0] = 0


def _count_entry() -> None:
    """Count one more entry of a cached table; at `_MODE_CACHE_SIZE` entries
    the oldest tables go, each with its rows and their entries, until half
    remain."""
    _MODE_CACHE_ENTRIES[0] += 1
    if _MODE_CACHE_ENTRIES[0] >= _MODE_CACHE_SIZE:
        for key in list(_MODE_CACHE):
            if _MODE_CACHE_ENTRIES[0] <= _MODE_CACHE_SIZE // 2:
                break
            table = _MODE_CACHE.pop(key)
            _MODE_CACHE_ENTRIES[0] -= 1 + len(table) + sum(map(len, table.values()))


class _ModeTable(dict):
    """The rows of v, the basis vector pv of `proto`'s algebra, of weight
    `weight`: at each basis key pb the `_ModeRow` of the images v(n) pb, and
    at None the row of v's trace series.  A missing row is made empty and,
    while the table is cached, counted as an entry.  `proto` is also the
    zero that every zero result computed through the table shares."""

    __slots__ = ("proto", "pv", "cache_key", "weight")

    def __init__(self, proto: GradedState, pv: Partition) -> None:
        # an empty state of the algebra, so that the cache keeps no caller's state alive
        self.proto, self.pv, self.cache_key, self.weight = proto._with({}), pv, (proto.algebra, pv), sum(pv)

    def __missing__(self, pb: Partition | None) -> _ModeRow:
        row = self[pb] = _ModeRow(self.proto, self.pv, pb)
        if _MODE_CACHE.get(self.cache_key) is self:
            _count_entry()
        return row


class _ModeRow(dict):
    """v(n) pb for v the basis vector pv of `proto`'s algebra, keyed on n, as
    immutable tuples of (key, coefficient) pairs; for pb = None, the trace
    series of v through q^n (`_trace_series`).  A missing image is computed
    once, by the residue sum on pv = g(t)u reading the tables of
    g = (WEIGHT,) and u = pv[1:], and counted while the row is in its cached
    table, which it finds by key: a row holds no reference to its table, so
    a dropped table is freed without the cyclic collector."""

    __slots__ = ("proto", "pv", "pb")

    def __init__(self, proto: GradedState, pv: Partition, pb: Partition | None) -> None:
        self.proto, self.pv, self.pb = proto, pv, pb

    def __missing__(self, n: int) -> _FrozenTerms | tuple[Coefficient, ...]:
        proto, pv, pb = self.proto, self.pv, self.pb
        wg = proto.WEIGHT
        if pb is None:
            result = _trace_series(proto, pv, n)
        elif not pv:
            result = ((pb, 1),) if n == -1 else ()
        elif pv == (wg,):
            result = tuple(proto._generator_mode(n, pb))
        else:
            acc: _Terms = {}
            _residue_sum(acc, 1, _mode_table(proto, (wg,)), _mode_table(proto, pv[1:]), 0, n, wg - 1 - pv[0], pb)
            result = tuple(acc.items())
        self[n] = result
        table = _MODE_CACHE.get((proto.algebra, pv))
        if table is not None and table.get(pb) is self:
            _count_entry()
        return result


def _mode_table(proto: GradedState, pv: Partition) -> _ModeTable:
    """The cached table of the basis vector pv of `proto`'s algebra, made
    and counted as an entry when missing."""
    table = _MODE_CACHE.get((proto.algebra, pv))
    if table is None:
        table = _ModeTable(proto, pv)
        _MODE_CACHE[table.cache_key] = table
        _count_entry()
    return table


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


# the hafnian visits up to prod(c + 1) multiplicity vectors: `character --state
# "h(-1)^m h(-2m)...h(-(m+1)) vac" --qmax 40`, 2^m (m + 1) of them, takes 2.6 s
# at m = 16 (1,114,112), 4.0 s at 17 and 7.6 s at 18 (fresh process, 2 vCPUs)
_MAX_WICK_VECTORS = 2_000_000


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
    pv's parts, and the series is zero through q^n when d > n.  Otherwise
    the multiplicity vectors, at most prod(c + 1) over pv's part counts c,
    must number at most `_MAX_WICK_VECTORS`, or ValueError is raised."""
    if len(pv) % 2 or sum(pv[len(pv) // 2 :]) > n:
        return [0] * (n + 1)
    counts = tuple((part, len(list(group))) for part, group in groupby(pv))
    vectors = prod(c + 1 for _, c in counts)
    if vectors > _MAX_WICK_VECTORS:
        raise ValueError(f"{vectors} multiplicity vectors are too many for a Wick trace (limit {_MAX_WICK_VECTORS})")
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

    return _truncated_product(hafnian(counts), _partition_counts(n))


def _trace_series(proto: GradedState, pv: Partition, n: int) -> tuple[Coefficient, ...]:
    """(Tr(o(v) | grade g) for g = 0..n) for v the basis vector pv of
    `proto`'s algebra.  A Heisenberg series is integral, from Wick's theorem
    (`_wick_trace`), with no engine call; a Virasoro trace at grade g is the
    sum over the grade-g basis keys pb of the pb-coefficient of
    v(wt v - 1) pb, read off the rows of v's own table by a scan for pb,
    without building states or dicts."""
    if isinstance(proto, HeisenbergState):
        return tuple(_wick_trace(pv, n))
    table, k = _mode_table(proto, pv), sum(pv) - 1
    return tuple(
        sum(next((c for key, c in table[pb][k] if key == pb), 0) for pb in basis)
        for basis in (partitions_of(g, proto.WEIGHT) for g in range(n + 1))
    )


def _cached_trace(proto: GradedState, pv: Partition, n: int) -> tuple[Coefficient, ...]:
    """`zero_mode_trace` for a basis key pv and n >= 0, unchecked: the entry
    n of the trace row of v's table."""
    return _mode_table(proto, pv)[None][n]


def zero_mode_trace(proto: GradedState, pv: Partition, n: int) -> tuple[Coefficient, ...]:
    """The trace series (Tr(o(v) | grade g) for g = 0..n) of v the basis
    vector pv of the algebra of `proto`, cached.  A negative n or a pv that
    is no basis key of the algebra raises ValueError before the cache is
    touched."""
    _require_order(n)
    proto._require_key(pv)
    return _cached_trace(proto, pv, n)


def mode_action(v: GradedState, n: int, b: GradedState) -> GradedState:
    """The mode v(n) of Y(v, z) applied to b, extended bilinearly from the
    basis case.  For homogeneous inputs the result is homogeneous of weight
    wt(v) + wt(b) - n - 1, and vanishes once n >= wt(v) + wt(b)."""
    v._check(b)
    acc: _Terms = {}
    for pv, cv in v._terms.items():  # each image once, straight into the result
        table = _mode_table(v, pv)
        for pb, cb in b._terms.items():
            image = table[pb][n]
            if image:
                _accumulate_terms(acc, image, cv * cb)
    return b._with(acc) if acc or not v else table.proto


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


def residue_product_mode(a: GradedState, b: GradedState, t: int, n: int, w: GradedState) -> GradedState:
    """n-th mode of the t-th residue product of the fields of a and b,
    applied to w: (a(z)_t b(z))(n) w = R_t(a, b; 0, n) w, the residue sum
    with both i-sums truncated by the grading bounds.  Agrees exactly with
    mode_action(a(t)b, n, w)."""
    a._check(b)
    a._check(w)
    acc: _Terms = {}
    zero = None
    for pa, ca in a._terms.items():  # the sum is bilinear in (a, b): one term of each at a time
        a_table = _mode_table(a, pa)
        if zero is None:
            zero = a_table.proto
        for pb, cb in b._terms.items():
            b_table, cab = _mode_table(b, pb), ca * cb
            for key, c in w._terms.items():
                _residue_sum(acc, cab * c, a_table, b_table, 0, n, t, key)
    return w._with(acc) if acc or zero is None or not b._terms else zero

