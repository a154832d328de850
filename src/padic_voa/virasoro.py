"""The Virasoro vertex algebra over p-adic integers: the highest-weight
module generated by a vector v0 killed by all nonnegative modes, taken modulo
the submodule generated by L(-1)v0.

The quotient has a PBW basis of words L(-n1)...L(-nr)v0 with
n1 >= ... >= nr >= 2.  The bracket is kept in the integral form

    [L(m), L(n)] = (m-n) L(m+n) + delta_{m+n,0} C(m+1, 3) c' kappa,

with kappa acting as the identity and c' the quasicentral charge (half the
conventional central charge), so that all structure constants lie in Z[c'].
Applied modes are rewritten to PBW normal form by bubbling rightward with the
bracket; normal-form words containing a part 1 span the quotient ideal and
are dropped.  Each rewrite of L(n) on a word is kept, as an immutable tuple,
in its row of the mode store's generator table; `clear_mode_cache()` drops it.

The bracket defect at (m, n) is summed into one dict word by word, straight
from the generator rows: for each word w of the state, L(m) on the terms of
L(n)w, minus L(n) on the terms of L(m)w, minus (m-n) L(m+n)w, and then the
central term; no image state is built.  `vir_bracket_defects` sums each
unordered pair {m, n} of a window once: the defect expression is antisymmetric,
D(n, m) = -D(m, n), as C(1-m, 3) = -C(m+1, 3), so the other order is the
negated defect with the same norm exponent; a zero defect is shared as it is,
since states are immutable values and -0 is 0.  Every zero defect is one
state, the `proto` of the charge's generator table, which carries the charge.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from .axioms import DefectReport, _report
from .fock import _NO_TERMS, Coefficient, GradedState, _accumulate_terms, _exact, partitions_of
from .modes import _ModeTable, _mode_table, h_mode, mode_action
from .scalars import _require_prime

__all__ = [
    "VirasoroState",
    "L_action",
    "vir_bracket_defect",
    "vir_bracket_defects",
    "vir_grade_basis",
    "vir_mode_action",
]

Word = tuple[int, ...]


def vir_grade_basis(n: int) -> tuple[Word, ...]:
    """PBW words of grade n: partitions of n into parts >= 2, lex order."""
    return partitions_of(n, 2)


class VirasoroState(GradedState):
    """Finite rational combination of PBW words at a fixed quasicentral
    charge.  Words are weakly decreasing tuples of integers >= 2; the empty
    word is the vacuum v0.  The generator is the conformal vector
    w = L(-2)v0, of weight 2, whose modes are w(m) = L(m-1)."""

    __slots__ = ("_charge", "_algebra")

    LABEL = "L"
    WEIGHT = 2
    VACUUM = "v0"

    def __init__(self, terms=(), charge: Coefficient = 0) -> None:
        self._charge = _exact(charge)
        self._algebra = f"L c'={self._charge}"
        super().__init__(terms)

    # read-only, as a zero result is a mode table's shared `proto`, whose charge rewrites read
    charge = property(lambda self: self._charge, doc="The quasicentral charge c'.")
    algebra = property(lambda self: self._algebra)

    def _with(self, terms: dict[Word, Coefficient]) -> "VirasoroState":
        # `GradedState._with` in this one frame, with the charge and its tag
        state = object.__new__(type(self))
        state._terms = terms or _NO_TERMS
        state._charge = self._charge
        state._algebra = self._algebra
        return state

    def __reduce__(self):
        return type(self), (dict(self._terms), self.charge)

    @property
    def central_charge(self) -> Coefficient:
        return 2 * self.charge

    def _generator_mode(self, m: int, key: Word) -> Iterable[tuple[Word, Coefficient]]:
        return _apply(m - 1, key, _mode_table(self, (2,)))

    @classmethod
    def vacuum(cls, charge: Coefficient, coeff: Coefficient = 1) -> "VirasoroState":
        return cls({(): coeff}, charge)

    @classmethod
    def word(cls, parts: Iterable[int], charge: Coefficient, coeff: Coefficient = 1) -> "VirasoroState":
        return cls({tuple(sorted(parts, reverse=True)): coeff}, charge)

    @classmethod
    def zero(cls, charge: Coefficient) -> "VirasoroState":
        return cls({}, charge)

    def __repr__(self) -> str:
        return f"VirasoroState({self.render()}; c'={self.charge})"


def _apply(n: int, word: Word, gen: _ModeTable) -> tuple[tuple[Word, Coefficient], ...]:
    """L(n) applied to a PBW basis word, in PBW normal form, by commuting L(n)
    rightward past the word's top part:

        L(n) L(-head) = L(-head) L(n) + (n + head) L(n - head)
                        + delta_{n, head} C(n+1, 3) c'.

    A creation L(n), n <= -2, stops in front of a part <= -n.  L(n) with
    n >= 0 annihilates v0, and a bare L(-1)v0 lies in the quotient ideal and
    is dropped.  Terminates: L(n) with n >= -1 recurses on the shorter rest
    of the word, apart from creations.  A creation L(-k) recurses either at a
    smaller total grade k + wt(word), or at the same total grade with a
    deeper creation, L(-head) or L(-k-head) with head > k; and no creation
    is deeper than the total grade.  Each L(k)w is read from the generator
    table's row gen[w][k + 1], which keeps the rewrite as a tuple."""
    if n <= -2 and (not word or -n >= word[0]):
        return (((-n, *word), 1),)
    if not word:
        return ()
    head, rest = word[0], word[1:]
    out: dict[Word, Coefficient] = {}
    for inner, c in gen[rest][n + 1]:
        _accumulate_terms(out, gen[inner][1 - head], c)
    _accumulate_terms(out, gen[rest][n - head + 1], n + head)
    if n == head:
        _accumulate_terms(out, [(rest, (n + 1) * n * (n - 1) // 6 * gen.proto.charge)])
    return tuple(out.items())


def L_action(n: int, state: VirasoroState) -> VirasoroState:
    """The Virasoro mode L(n) on the quotient module, rewritten to the PBW
    basis.  L(0) acts on a basis word as its grade; L(n) shifts grade by -n.
    This is the generator mode w(n+1) of the conformal vector w = L(-2)v0."""
    return h_mode(n + 1, state)


def _bracket_defect(m: int, n: int, state: VirasoroState, gen: _ModeTable, prime: int) -> DefectReport:
    """The bracket defect at (m, n), summed into one dict word by word from
    the generator rows `gen`: for each word w of the state, L(m) on the terms
    of L(n)w, minus L(n) on the terms of L(m)w, minus (m-n) L(m+n)w, each
    scaled by w's coefficient; then minus the central term when m + n = 0.
    Reported at `prime`, which the caller has checked."""
    charge = state.charge
    acc: dict[Word, Coefficient] = {}
    for word, c in state._terms.items():
        row = gen[word]
        for key, d in row[n + 1]:
            _accumulate_terms(acc, gen[key][m + 1], c * d)
        for key, d in row[m + 1]:
            _accumulate_terms(acc, gen[key][n + 1], -c * d)
        _accumulate_terms(acc, row[m + n + 1], (n - m) * c)
    if m + n == 0:
        _accumulate_terms(acc, state._terms.items(), -((m + 1) * m * (m - 1) // 6) * charge)
    params = {"m": m, "n": n, "cprime": str(charge)}
    return _report(state._with(acc) if acc else gen.proto, prime, params)


def vir_bracket_defect(m: int, n: int, state: VirasoroState, prime: int = 2) -> DefectReport:
    """Defect of the integral-form bracket relation on a state:

        [L(m), L(n)] s - (m-n) L(m+n) s - delta_{m+n,0} C(m+1, 3) c' s.

    The prime is checked first, before any generator row is read.
    """
    _require_prime(prime)
    return _bracket_defect(m, n, state, _mode_table(state, (2,)), prime)


def vir_bracket_defects(
    state: VirasoroState, span: Iterable[int], prime: int = 2
) -> Iterator[tuple[int, int, DefectReport]]:
    """(m, n, `vir_bracket_defect(m, n, state, prime)`) for every (m, n) in
    span x span, in `itertools.product` order, the prime checked first.
    Every pair is summed word by word from the generator rows, and each
    unordered pair {m, n} is summed once, in the order met first: the other
    order reads D(n, m) = -D(m, n), which holds term by term, since
    C(1-m, 3) = -C(m+1, 3), whatever the rewrite returns.  Every row has its
    own parameters dict; every zero defect is the one zero state of the
    generator table, `gen.proto`, in every row."""
    _require_prime(prime)
    span = tuple(span)
    gen = _mode_table(state, (2,))
    cprime = str(state.charge)
    reports: dict[tuple[int, int], tuple[int, DefectReport]] = {}  # {m, n} -> (the m it was summed at, its report)
    for m, n in product(span, span):
        pair = (m, n) if m <= n else (n, m)
        entry = reports.get(pair)
        if entry is None:
            reports[pair] = (m, report := _bracket_defect(m, n, state, gen, prime))
        else:
            first_m, report = entry
            defect = -report.defect if first_m != m and report.defect._terms else report.defect  # -0 is 0
            params = {"m": m, "n": n, "cprime": cprime}
            report = tuple.__new__(DefectReport, (defect, report.norm_exponent, params, prime))
        yield m, n, report


def vir_mode_action(v: VirasoroState, n: int, b: VirasoroState) -> VirasoroState:
    """Generic mode v(n)b for the Virasoro vertex algebra: `mode_action`,
    whose cached associator recursion peels a word L(-k)u as w(1-k)u with
    generator field Y(w, z) = sum_n L(n) z^(-n-2) attached to the conformal
    vector w = L(-2)v0 (so w(j) = L(j-1)).  States at different charges
    raise ValueError."""
    return mode_action(v, n, b)
