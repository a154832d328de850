"""Sparse graded states, and the rank-1 bosonic Fock space: a polynomial ring
in the creation variables h(-1), h(-2), ..., graded by total degree with
deg h(-n) = n.

A graded state is a finite rational linear combination of basis vectors
g(-k1)...g(-kr)|0> of one vertex algebra strongly generated by a single
field g, indexed by partitions written as weakly decreasing tuples of parts
>= wt g; the empty partition is the vacuum.  `GradedState` owns everything
that does not depend on the generator; a subclass fixes the generator's
label, its weight (which is also the minimum part) and the action of its
modes on a basis key.  The family of norms |.|_r with r = p^e restricted to
the value group of Q_p is carried on the exponent scale: sup over terms of
(-v_p(coefficient) + e * weight), read per grade by `scalars._norm_exponent`
(once in all for the sup norm, e = 0), never one valuation per term.

Coefficients are stored exactly, by the package's one storage rule for
exact values (`_exact`, which `qchar.QSeries` applies too): a plain `int`
when the value is integral and a `Fraction` only otherwise.  The checked
constructor, which sums repeated keys, and `scale` store each coefficient
by that rule.  Sums made by `+`,
`-` and the mode engine (`_accumulate_terms`) keep the type that Python's
arithmetic gives, so an integral sum of `Fraction`s stays a `Fraction`
there.  The mode structure constants of both algebras lie in Z (in Z[c']
for Virasoro), so integral inputs keep the mode engine on `int` arithmetic,
and Python's int/Fraction interop keeps mixed states exact with no second
code path.  `coefficient` and `items` return `Fraction`s whatever the
storage.  The terms of a zero state are the one immutable empty map
`_NO_TERMS`, so a zero state holds no dict of its own, and a zero that the
mode engine computes through a mode table is that table's `proto`, one state
shared by every zero read through the table.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .scalars import _NEG_INF, _norm_exponent, _require_prime

__all__ = [
    "GradedState",
    "HeisenbergState",
    "Partition",
    "grade_basis",
    "partitions_of",
]

Partition = tuple[int, ...]

Coefficient = Fraction | int

# the terms of every zero state: one empty map that no caller can fill
_NO_TERMS: Mapping[Partition, Coefficient] = MappingProxyType({})


# bounded like every cache; the whole test suite in one process asks for 43 keys
@lru_cache(maxsize=128)
def partitions_of(n: int, min_part: int = 1) -> tuple[Partition, ...]:
    """All partitions of n into parts >= min_part, in lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(remaining: int, cap: int) -> Iterator[Partition]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), min_part - 1, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    return tuple(sorted(gen(n, n)))


def grade_basis(n: int) -> tuple[Partition, ...]:
    """Monomial basis of the degree-n graded piece; its length is p(n)."""
    return partitions_of(n, 1)


def _exact(c: Coefficient) -> Coefficient:
    """c as the package stores an exact value, in a state or a q-series: a
    plain int when c is integral, otherwise a Fraction.  An int or a Fraction
    is read as it is; anything else (a bool, a float, a str) goes through
    `Fraction(c)` first."""
    kind = type(c)
    if kind is int:
        return c
    if kind is not Fraction:
        if isinstance(c, int):
            return int(c)
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _accumulate_terms(acc: dict, pairs: Iterable[tuple[Partition, Coefficient]], scalar: Coefficient = 1) -> None:
    """acc += scalar * (sum of the (key, coefficient) pairs), dropping keys
    whose coefficient cancels to zero."""
    for key, coeff in pairs:
        total = acc.get(key, 0) + scalar * coeff
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)


class GradedState:
    """A finite rational linear combination of basis keys of one algebra.

    The constructor checks each (key, coefficient) pair it is given and adds
    it with `_accumulate_terms`, so repeated keys are summed and a key whose
    sum is zero is dropped; each sum is stored by `_exact`.

    Instances are treated as immutable values: all arithmetic returns fresh
    states of the same algebra, and combining states of different algebras
    (Heisenberg with Virasoro, or two Virasoro charges) raises ValueError.
    Subclasses set `LABEL` (the generator's name in `render`), `WEIGHT`
    (the generator's weight and the minimum part), `VACUUM` (the vacuum's
    name in `render`), `algebra` (a hashable tag naming the algebra) and
    `central_charge` (the algebra's c, which offsets its characters), and
    implement `_generator_mode`.
    """

    __slots__ = ("_terms",)

    LABEL: str
    WEIGHT: int
    VACUUM: str
    algebra: str
    central_charge: Coefficient

    def __init__(self, terms: Mapping[Partition, Coefficient] | Iterable[tuple[Partition, Coefficient]] = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        out: dict[Partition, Coefficient] = {}
        for key, coeff in items:
            key = tuple(key)
            self._require_key(key)
            _accumulate_terms(out, ((key, _exact(coeff)),))
        self._terms = {key: _exact(c) for key, c in out.items()} or _NO_TERMS

    def _with(self, terms: dict[Partition, Coefficient]) -> "GradedState":
        """Trusted constructor: a state of this algebra with canonical terms
        (weakly decreasing keys, nonzero coefficients); skips the checks."""
        state = object.__new__(type(self))
        state._terms = terms or _NO_TERMS  # no emptied hash table, and no new one
        return state

    def __reduce__(self):
        # the terms as a plain dict, which pickle and deepcopy can copy; the
        # checked constructor stores `_NO_TERMS` again for a zero state
        return type(self), (dict(self._terms),)

    @classmethod
    def _require_key(cls, key: Partition) -> None:
        """Raise ValueError unless key is a basis key: weakly decreasing parts,
        none below `WEIGHT`."""
        if any(part < cls.WEIGHT for part in key) or list(key) != sorted(key, reverse=True):
            raise ValueError(f"not a basis key of {cls.__name__}: {key}")

    def _generator_mode(self, m: int, key: Partition) -> Iterable[tuple[Partition, Coefficient]]:
        """(key, coefficient) pairs of the generator's mode g(m) applied to one
        basis key."""
        raise NotImplementedError

    def _check(self, other: "GradedState") -> None:
        if self.algebra != other.algebra:
            raise ValueError(f"states of different algebras: {self.algebra} and {other.algebra}")

    def _ordered_terms(self) -> list[tuple[Partition, Coefficient]]:
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def items(self) -> list[tuple[Partition, Fraction]]:
        """Terms in a deterministic (weight, key) order."""
        return [(key, Fraction(c)) for key, c in self._ordered_terms()]

    def coefficient(self, parts: Iterable[int]) -> Fraction:
        return Fraction(self._terms.get(tuple(sorted(parts, reverse=True)), 0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedState):
            return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    def __add__(self, other: "GradedState") -> "GradedState":
        if not isinstance(other, GradedState):
            return NotImplemented
        self._check(other)
        merged = dict(self._terms)
        _accumulate_terms(merged, other._terms.items())
        return self._with(merged)

    def __sub__(self, other: "GradedState") -> "GradedState":
        if not isinstance(other, GradedState):
            return NotImplemented
        self._check(other)
        merged = dict(self._terms)
        _accumulate_terms(merged, other._terms.items(), -1)
        return self._with(merged)

    def __neg__(self) -> "GradedState":
        return self._with({key: -c for key, c in self._terms.items()})

    def scale(self, scalar: Coefficient) -> "GradedState":
        scalar = _exact(scalar)
        if not scalar:
            return self._with({})
        return self._with({key: _exact(scalar * c) for key, c in self._terms.items()})

    def __rmul__(self, scalar: Coefficient) -> "GradedState":
        return self.scale(scalar)

    def __mul__(self, scalar: Coefficient) -> "GradedState":
        return self.scale(scalar)

    def weight(self) -> int:
        """L(0)-weight of a homogeneous nonzero state."""
        weights = {sum(key) for key in self._terms}
        if not weights:
            raise ValueError("zero state has no weight")
        if len(weights) > 1:
            raise ValueError(f"state is inhomogeneous, weights {sorted(weights)}")
        return weights.pop()

    def max_weight(self) -> int:
        """Largest basis weight present; 0 for the zero state."""
        return max((sum(key) for key in self._terms), default=0)

    def homogeneous_components(self) -> dict[int, "GradedState"]:
        buckets: dict[int, dict[Partition, Coefficient]] = {}
        for key, coeff in self._terms.items():
            buckets.setdefault(sum(key), {})[key] = coeff
        return {w: self._with(t) for w, t in sorted(buckets.items())}

    def is_integral(self) -> bool:
        """True when every coefficient is an integer (the Z_p-lattice side of
        the integral-form statement)."""
        return all(c.denominator == 1 for c in self._terms.values())

    def sup_norm_exponent(self, p: int) -> int | float:
        """log_p of the sup-norm |.|_1: max over terms of -v_p(coefficient);
        -inf for the zero state."""
        return self.r_norm_exponent(p, 0)

    def r_norm_exponent(self, p: int, e: int) -> int | float:
        """log_p of |.|_r at r = p^e: max over terms of
        (-v_p(coefficient) + e * weight), taken per grade w as
        e * w - v_p(content of grade w); -inf for the zero state."""
        _require_prime(p)
        if not e:
            return _norm_exponent(self._terms.values(), p)
        grades: dict[int, list[Coefficient]] = {}
        for key, c in self._terms.items():
            grades.setdefault(sum(key), []).append(c)
        return max((e * w + _norm_exponent(cs, p) for w, cs in grades.items()), default=_NEG_INF)

    def render(self, vacuum: str | None = None) -> str:
        """Canonical text form, e.g. '1/2 h(-2)^2 h(-1) |0> - 1/12 |0>'."""
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for key, coeff in self._ordered_terms():
            factors = []
            for part, exp in sorted(Counter(key).items(), reverse=True):
                factors.append(f"{self.LABEL}(-{part})" + (f"^{exp}" if exp > 1 else ""))
            factors.append(self.VACUUM if vacuum is None else vacuum)
            magnitude = abs(coeff)
            body = (f"{magnitude} " if magnitude != 1 or not key else "") + " ".join(factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


class HeisenbergState(GradedState):
    """A finite rational linear combination of Fock monomials h(-k1)...|0>."""

    __slots__ = ()

    LABEL = "h"
    WEIGHT = 1
    VACUUM = "|0>"
    algebra = "h"
    central_charge = 1

    def _generator_mode(self, m: int, key: Partition) -> tuple[tuple[Partition, int], ...]:
        """h(m) on a Fock monomial: multiplication by h(m) for m < 0, the
        derivation m * d/dh(-m) for m > 0, and zero for m = 0 (the rank-1
        algebra has no index-0 generator)."""
        if m < 0:
            return ((tuple(sorted(key + (-m,), reverse=True)), 1),)
        mult = key.count(m)
        if not mult:
            return ()
        reduced = list(key)
        reduced.remove(m)
        return ((tuple(reduced), m * mult),)

    @classmethod
    def zero(cls) -> "HeisenbergState":
        return cls()

    @classmethod
    def vacuum(cls, coeff: Coefficient = 1) -> "HeisenbergState":
        return cls({(): coeff})

    @classmethod
    def monomial(cls, parts: Iterable[int], coeff: Coefficient = 1) -> "HeisenbergState":
        """The monomial with the given creation parts (any order), e.g.
        monomial([2, 1]) is h(-2)h(-1)|0>."""
        return cls({tuple(sorted(parts, reverse=True)): coeff})
