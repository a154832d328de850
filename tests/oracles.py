"""Independent oracles used by the test suite.

Everything here is deliberately implemented by a different route than the
package code it checks, and works on plain coefficient lists where it can:

* p-adic valuations by dividing out one factor of p at a time, instead of
  the repeated squaring of the divisor in `scalars.valuation`;
* binomials C(t, i) for any integer t as the falling product
  t(t-1)...(t-i+1) over i!, instead of the term-by-term recurrence of the
  residue sums in `modes` and `axioms`;
* Bernoulli numbers by the Akiyama-Tanigawa triangle of rationals, instead
  of the integer tangent numbers of `scalars.bernoulli`;
* Stirling numbers S(n, k) by the triangle recurrence, instead of the
  forward-difference table of (j+1)^(r-1) of `scalars.c_row`, whose
  entries are c(r, m) = m! S(r, m+1);
* partition counts by generating-function coefficient extraction
  (`series_inverse_coeffs` inverts a power series, as `QSeries.inverse`
  did), instead of recursive enumeration;
* square-bracket states by substituting x = e^z - 1 into Y(h, x)h and
  extracting one z-coefficient, instead of the closed Stirling/Bernoulli
  form of `kummer.square_bracket_state`, built from one `c_row`;
* v(n)b for a basis monomial v by the brute-force normal-ordered product
  expansion, and the Virasoro modes L(n) = 1/2 sum_j h(j)h(n-j) of the
  Heisenberg algebra from generator modes alone, instead of the associator
  recursion of `modes.mode_action`;
* L(n) on a Virasoro PBW word by straightening unsorted mode sequences on
  v0 with the bracket alone, instead of the memoised head-peeling rewrite
  `virasoro._apply`;
* the rank of a list of rational vectors by exact Fraction elimination, with
  no computer-algebra package.

Graded traces are checked in `tests/test_qchar.py` against o(v) applied as
a state map to every basis monomial of each grade, through
`modes.mode_action`, instead of the per-key trace series of
`modes.zero_mode_trace` that `qchar.character` combines: one tuple of traces
for grades 0..n per basis key, cached once per order asked, from
the product of p(n) with the sum over pairings of divisor-sum series for
Heisenberg and from the engine's diagonal for Virasoro.  Partition counts
come from inverting the Euler product, instead of the pentagonal recurrence
of `scalars._partition_counts`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, prod

from padic_voa.fock import HeisenbergState
from padic_voa.modes import h_mode


def valuation_by_loop(q: Fraction, p: int) -> int:
    """v_p(q) for a nonzero rational q, one division by p at a time."""
    num, den, v = q.numerator, q.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def binomial(t: int, i: int) -> int:
    """C(t, i) for any integer t and i >= 0: the falling product over i!, so
    C(-1, i) = (-1)^i."""
    return prod(range(t, t - i, -1)) // factorial(i)


def akiyama_tanigawa_bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n by the Akiyama-Tanigawa triangle, adjusted to the
    generating-series convention B_1 = -1/2 (even indices are convention
    independent)."""
    row = [Fraction(0)] * (n + 1)
    out: list[Fraction] = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return out


def series_inverse_coeffs(coeffs: list, order: int) -> list[Fraction]:
    """Coefficients of 1 / sum c_n q^n up to the given order (c_0 != 0)."""
    inv = [Fraction(1, coeffs[0])]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, min(n, len(coeffs) - 1) + 1):
            acc += coeffs[i] * inv[n - i]
        inv.append(-acc / coeffs[0])
    return inv


def series_product_coeffs(a: list, b: list) -> list:
    """Coefficients of the product of two power series, truncated to the
    shorter one."""
    order = min(len(a), len(b))
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order)]


def product_coeffs(order: int, min_part: int = 1) -> list[int]:
    """Coefficients of prod_{k >= min_part} (1 - q^k), truncated."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for k in range(min_part, order + 1):
        for n in range(order, k - 1, -1):
            coeffs[n] -= coeffs[n - k]
    return coeffs


def partition_counts(order: int, min_part: int = 1) -> list[int]:
    """Coefficients of prod_{k >= min_part} (1 - q^k)^(-1): the number of
    partitions of n into parts >= min_part."""
    inv = series_inverse_coeffs(product_coeffs(order, min_part), order)
    assert all(c.denominator == 1 for c in inv)
    return [int(c) for c in inv]


def rank(rows: list[list]) -> int:
    """Rank over Q of a list of equal-length rational rows, by exact Fraction
    elimination: each row is reduced by the pivots found so far, and kept as
    a pivot when a nonzero entry remains."""
    pivots: list[tuple[int, list[Fraction]]] = []
    for row in rows:
        row = [Fraction(c) for c in row]
        for col, pivot in pivots:
            if row[col]:
                factor = row[col] / pivot[col]
                row = [a - factor * b for a, b in zip(row, pivot)]
        col = next((i for i, c in enumerate(row) if c), None)
        if col is not None:
            pivots.append((col, row))
    return len(pivots)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), building the triangle
    S(m, j) = j S(m-1, j) + S(m-1, j-1) row by row."""
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        row = [(j * row[j] if j < m else 0) + (row[j - 1] if j else 0) for j in range(m + 1)]
    return row[k] if 0 <= k <= n else 0


def square_bracket_state_by_substitution(r: int) -> HeisenbergState:
    """(r-1)! h[-r]h[-1]|0> for odd r >= 1: the z^(r-1) coefficient of
    (r-1)! e^z Y(h, e^z - 1) h, with e^z - 1 expanded as a truncated power
    series.

    Y(h, x) h = sum_{k>=1} h(-k)h(-1)|0> x^(k-1) + |0> x^(-2), so after the
    substitution x = e^z - 1 the monomial h(-m-1)h(-1)|0> picks up the
    z^(r-1) coefficient of (r-1)! e^z (e^z-1)^m, and the vacuum picks up the
    z^(r-1) coefficient of (r-1)! e^z (e^z-1)^(-2).  The (e^z-1)^(-2) factor
    is computed as z^(-2) times the inverse square of (e^z-1)/z.
    """
    order = r + 2
    factorials = [1]
    for i in range(1, order + 2):
        factorials.append(factorials[-1] * i)
    exp_z = [Fraction(1, factorials[i]) for i in range(order + 1)]
    expm1 = [0] + exp_z[1:]
    scale = factorials[r - 1]

    state = HeisenbergState.zero()
    power = [1] + [0] * order  # (e^z - 1)^m
    for m in range(r):
        coeff = scale * series_product_coeffs(exp_z, power)[r - 1]
        if coeff:
            state = state + HeisenbergState.monomial([m + 1, 1], coeff)
        power = series_product_coeffs(power, expm1)

    # (e^z - 1)^(-2) = z^(-2) * ((e^z - 1)/z)^(-2)
    inverse = series_inverse_coeffs([Fraction(1, factorials[i + 1]) for i in range(order + 1)], order)
    inverse_square = series_product_coeffs(inverse, inverse)
    vacuum_coeff = scale * series_product_coeffs(exp_z, inverse_square)[r + 1]
    return state + HeisenbergState.vacuum(vacuum_coeff)


def virasoro_mode_by_sum(n: int, b: HeisenbergState) -> HeisenbergState:
    """The Virasoro mode L(n) of the Heisenberg algebra (central charge 1)
    from generator modes alone: L(n) = 1/2 sum_j h(j) h(n-j) for n != 0,
    summed over the j for which a term can be nonzero, and L(0) acting on
    each homogeneous component as multiplication by its weight."""
    if n == 0:
        total = HeisenbergState.zero()
        for w, component in b.homogeneous_components().items():
            total = total + component.scale(w)
        return total
    parts_seen = {part for parts, _ in b.items() for part in parts}
    candidates = set(range(min(0, n) + 1, max(0, n)))
    candidates |= parts_seen | {n - q for q in parts_seen}
    candidates -= {0, n}
    total = HeisenbergState.zero()
    for j in sorted(candidates):
        total = total + h_mode(j, h_mode(n - j, b))
    return total.scale(Fraction(1, 2))


def divisor_sum_brute(n: int, k: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def coprime_divisor_sum_brute(n: int, p: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0 and d % p)


def normal_ordered_mode(parts: tuple[int, ...], n: int, b: HeisenbergState) -> HeisenbergState:
    """Brute-force v(n)b for a basis monomial v = h(-k_1)...h(-k_l)|0>.

    The field of v is the normal-ordered product of the divided derivatives
    of the generator field, whose modes are

        (1/(k-1)!) d^(k-1) h(z) = sum_m (-1)^(k-1) C(m+k-1, k-1) h_m z^(-m-k),

    so v(n) collects ordered tuples (m_1, ..., m_l) with sum m_i equal to
    n + 1 - wt(v), each applied to b in normal order (annihilators first).
    """
    if not parts:
        return b if n == -1 else HeisenbergState.zero()
    if b.is_zero:
        return HeisenbergState.zero()
    length = len(parts)
    target = n + 1 - sum(parts)
    wb = b.max_weight()
    lo = target - (length - 1) * wb
    hi = wb
    total = HeisenbergState.zero()
    for head in itertools.product(range(lo, hi + 1), repeat=length - 1):
        last = target - sum(head)
        if not lo <= last <= hi:
            continue
        assignment = (*head, last)
        if any(m == 0 for m in assignment):
            continue
        coeff = 1
        for k, m in zip(parts, assignment):
            c = binomial(m + k - 1, k - 1)
            if k % 2 == 0:
                c = -c
            coeff *= c
            if coeff == 0:
                break
        if coeff == 0:
            continue
        state = b
        for m in sorted(assignment, reverse=True):
            state = h_mode(m, state)
            if state.is_zero:
                break
        if not state.is_zero:
            total = total + state.scale(coeff)
    return total


def virasoro_straighten(modes: tuple[int, ...], charge) -> dict[tuple[int, ...], object]:
    """L(m_1) ... L(m_k) v0 in the PBW basis of the Virasoro quotient module,
    as {word: coefficient} with words n_1 >= ... >= n_r >= 2 for
    L(-n_1) ... L(-n_r) v0.

    A worklist of mode sequences, read left to right, is straightened with
    two rules only: L(n) v0 = 0 for n >= -1 on the rightmost mode, and the
    first adjacent pair L(a) L(b) with a > b is swapped by

        L(a) L(b) = L(b) L(a) + (a - b) L(a + b) + delta_{a+b,0} C(a+1, 3) c'.

    A sequence with no such pair and rightmost mode <= -2 is a PBW word."""
    out: dict[tuple[int, ...], object] = {}
    pending: dict[tuple[int, ...], object] = {tuple(modes): 1}
    while pending:
        seq, coeff = pending.popitem()
        if not coeff or (seq and seq[-1] >= -1):
            continue
        i = next((i for i in range(len(seq) - 1) if seq[i] > seq[i + 1]), None)
        if i is None:
            word = tuple(-m for m in seq)
            out[word] = out.get(word, 0) + coeff
            continue
        a, b = seq[i], seq[i + 1]
        head, tail = seq[:i], seq[i + 2 :]
        moves = [((*head, b, a, *tail), coeff), ((*head, a + b, *tail), (a - b) * coeff)]
        if a + b == 0:
            moves.append(((*head, *tail), comb(a + 1, 3) * charge * coeff))
        for move, c in moves:
            pending[move] = pending.get(move, 0) + c
    return {word: c for word, c in out.items() if c}
