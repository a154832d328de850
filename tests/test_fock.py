from __future__ import annotations

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_voa import fock, scalars
from padic_voa.fock import HeisenbergState, grade_basis, partitions_of
from padic_voa.kummer import kummer_check
from padic_voa.modes import mode_action

from oracles import partition_counts, valuation_by_loop

partitions = st.integers(0, 6).flatmap(lambda n: st.sampled_from(grade_basis(n)))
coefficients = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=500
).filter(bool)


@st.composite
def states(draw, max_terms: int = 4) -> HeisenbergState:
    terms = draw(st.lists(st.tuples(partitions, coefficients), max_size=max_terms))
    total = HeisenbergState.zero()
    for parts, coeff in terms:
        total = total + HeisenbergState.monomial(parts, coeff)
    return total


@st.composite
def padic_states(draw) -> tuple[int, HeisenbergState]:
    """(p, state) with coefficients p^k * c, so p-powers sit in numerators and
    denominators alike, over grades 0..6."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    terms = draw(st.dictionaries(partitions, st.tuples(st.integers(-6, 6), coefficients), max_size=8))
    return p, HeisenbergState({key: Fraction(p) ** k * c for key, (k, c) in terms.items()})


def norm_exponent_by_loop(state: HeisenbergState, p: int, e: int) -> int | float:
    """max over terms of -v_p(coefficient) + e * weight, one valuation per term."""
    return max((-valuation_by_loop(c, p) + e * sum(key) for key, c in state.items()), default=-inf)


class TestGradeBasis:
    def test_vacuum_grade(self):
        assert grade_basis(0) == ((),)

    def test_counts(self):
        assert len(grade_basis(4)) == 5
        assert len(grade_basis(10)) == 42

    def test_lexicographic_order(self):
        for n in range(9):
            basis = grade_basis(n)
            assert list(basis) == sorted(basis)
            for parts in basis:
                assert sum(parts) == n
                assert list(parts) == sorted(parts, reverse=True)
                assert all(p >= 1 for p in parts)

    def test_dimension_matches_euler_product(self):
        oracle = partition_counts(20)
        assert [len(grade_basis(n)) for n in range(21)] == oracle

    def test_min_part_variant(self):
        assert partitions_of(6, min_part=2) == ((2, 2, 2), (3, 3), (4, 2), (6,))

    @pytest.mark.parametrize("min_part", [1, 2])
    def test_negative_grade_rejected(self, min_part):
        with pytest.raises(ValueError, match="n must be >= 0"):
            partitions_of(-1, min_part)

    def test_one_cache_entry_per_partition_set(self):
        # the engine asks for partitions_of(g, WEIGHT) positionally
        assert grade_basis(4) is partitions_of(4, 1)


class TestStateBasics:
    def test_repeated_keys_sum(self):
        assert HeisenbergState([((1,), 1), ((1,), -1)]).is_zero
        assert HeisenbergState([((1,), 1), ((1,), 2)]) == HeisenbergState.monomial([1], 3)
        state = HeisenbergState([((2, 1), Fraction(1, 3)), ((), 5), ((2, 1), Fraction(-1, 3)), ((2, 1), 4), ((), 0)])
        assert state == HeisenbergState({(2, 1): 4, (): 5})

    def test_integral_sums_are_stored_as_int(self):
        # an integral sum of Fractions used to be stored as Fraction(1, 1), unlike `scale`
        halves = HeisenbergState([((1,), Fraction(1, 2))] * 2)
        thirds = HeisenbergState([((2, 1), Fraction(1, 3))] * 3 + [((), Fraction(1, 2))])
        assert halves._terms == {(1,): 1} and type(halves._terms[(1,)]) is int
        assert thirds._terms == {(2, 1): 1, (): Fraction(1, 2)} and type(thirds._terms[(2, 1)]) is int
        assert halves._terms == HeisenbergState.monomial([1], Fraction(1, 2)).scale(2)._terms

    def test_add_cancels(self):
        x = HeisenbergState.monomial([2, 1], Fraction(3, 7))
        assert (x - x).is_zero
        assert (x + (-x)).is_zero

    def test_scale_examples(self):
        x = HeisenbergState.monomial([1], 6)
        assert Fraction(1, 6) * x == HeisenbergState.monomial([1])
        assert x * Fraction(1, 6) == HeisenbergState.monomial([1])
        assert type(x * Fraction(1, 2)) is HeisenbergState
        assert x.scale(0).is_zero

    def test_repr(self):
        state = HeisenbergState({(2, 1): 3, (): Fraction(-1, 2)})
        assert repr(state) == "HeisenbergState(-1/2 |0> + 3 h(-2) h(-1) |0>)"
        assert repr(HeisenbergState.zero()) == "HeisenbergState(0)"

    def test_weight(self):
        assert HeisenbergState.monomial([2, 1]).weight() == 3
        with pytest.raises(ValueError):
            HeisenbergState.zero().weight()
        with pytest.raises(ValueError):
            (HeisenbergState.vacuum() + HeisenbergState.monomial([1])).weight()

    def test_homogeneity(self):
        assert list(HeisenbergState.monomial([3, 1], 2).homogeneous_components()) == [4]
        mixed = HeisenbergState.vacuum() + HeisenbergState.monomial([2])
        assert sorted(mixed.homogeneous_components()) == [0, 2]

    def test_monomial_sorts_parts(self):
        assert HeisenbergState.monomial([1, 3, 2]) == HeisenbergState.monomial([3, 2, 1])
        with pytest.raises(ValueError):
            HeisenbergState.monomial([0])

    def test_coefficient_lookup(self):
        x = HeisenbergState.monomial([2, 1], Fraction(5, 3))
        assert x.coefficient([1, 2]) == Fraction(5, 3)
        assert x.coefficient([3]) == 0

    def test_render(self):
        x = HeisenbergState.monomial([2, 2, 1])
        assert x.render() == "h(-2)^2 h(-1) |0>"
        y = HeisenbergState.monomial([3, 1], Fraction(1, 2)) - HeisenbergState.vacuum(
            Fraction(1, 12)
        )
        assert y.render() == "-1/12 |0> + 1/2 h(-3) h(-1) |0>"
        assert HeisenbergState.zero().render() == "0"


class TestExactStorage:
    """Integral coefficients are stored as plain ints, others as Fractions;
    the public accessors return Fractions either way."""

    def test_integral_coefficients_stored_as_int(self):
        x = HeisenbergState({(2, 1): Fraction(4, 2), (): Fraction(1, 3)})
        assert type(x._terms[(2, 1)]) is int
        assert type(x._terms[()]) is Fraction
        assert type(HeisenbergState.monomial([1], Fraction(1, 2)).scale(6)._terms[(1,)]) is int
        assert type(HeisenbergState.monomial([1], 3).scale(Fraction(1, 2))._terms[(1,)]) is Fraction

    @pytest.mark.parametrize(
        "value, stored",
        [
            (True, 1),
            (False, 0),
            (7, 7),
            (-3, -3),
            (Fraction(4, 2), 2),
            (Fraction(1, 2), Fraction(1, 2)),
            ("3/6", Fraction(1, 2)),
            (" -6/3 ", -2),
            ("4", 4),
        ],
    )
    def test_exact_values_and_types(self, value, stored):
        result = fock._exact(value)
        assert result == stored
        assert type(result) is type(stored)

    def test_accessors_return_fractions(self):
        x = HeisenbergState.monomial([2, 1], 3) + HeisenbergState.vacuum(Fraction(1, 2))
        assert type(x.coefficient([1, 2])) is Fraction
        assert type(x.coefficient([3])) is Fraction
        assert [(key, type(c)) for key, c in x.items()] == [((), Fraction), ((2, 1), Fraction)]

    def test_int_and_fraction_inputs_agree(self):
        from_int = HeisenbergState.monomial([2, 1], 2)
        from_fraction = HeisenbergState.monomial([2, 1], Fraction(2))
        assert from_int == from_fraction
        assert from_int.render() == from_fraction.render() == "2 h(-2) h(-1) |0>"

    def test_mixed_state_stays_exact(self):
        x = HeisenbergState.monomial([1], Fraction(1, 2)) + HeisenbergState.monomial([2])
        assert x.render() == "1/2 h(-1) |0> + h(-2) |0>"
        assert x.coefficient([1]) == Fraction(1, 2)
        assert x.coefficient([2]) == 1
        h = HeisenbergState.monomial([1])
        assert mode_action(h, 1, x) == HeisenbergState.vacuum(Fraction(1, 2))
        assert mode_action(x, -1, x).coefficient([1, 1]) == Fraction(1, 4)


class TestNorms:
    def test_sup_norm_examples(self):
        h = HeisenbergState.monomial([1])
        assert h.sup_norm_exponent(3) == 0
        assert h.sup_norm_exponent(7) == 0
        p = 5
        assert HeisenbergState.monomial([2, 1], p * p).sup_norm_exponent(p) == -2
        mixed = HeisenbergState.vacuum(Fraction(1, p)) + HeisenbergState.monomial([3], p)
        assert mixed.sup_norm_exponent(p) == 1
        assert HeisenbergState.zero().sup_norm_exponent(p) == -inf

    def test_r_norm_examples(self):
        p = 5
        assert HeisenbergState.monomial([2]).r_norm_exponent(p, 1) == 2
        assert HeisenbergState.vacuum().r_norm_exponent(p, -3) == 0
        assert HeisenbergState.monomial([1], p).r_norm_exponent(p, 0) == -1

    def test_zero_state_reads_the_shared_negative_infinity(self):
        for e in (0, 2, -1):
            assert HeisenbergState.zero().r_norm_exponent(5, e) is scalars._NEG_INF

    def test_rejects_non_prime_on_zero_state(self):
        for state in (HeisenbergState.zero(), HeisenbergState.vacuum()):
            with pytest.raises(ValueError):
                state.sup_norm_exponent(4)
            with pytest.raises(ValueError):
                state.r_norm_exponent(4, 1)

    @given(states(), states(), st.sampled_from([2, 3, 5, 7]))
    def test_strong_triangle(self, a, b, p):
        assert (a + b).sup_norm_exponent(p) <= max(
            a.sup_norm_exponent(p), b.sup_norm_exponent(p)
        )

    @given(states(), coefficients, st.sampled_from([2, 3, 5, 7]))
    def test_scaling(self, a, scalar, p):
        from padic_voa.scalars import valuation

        scaled = scalar * a
        if a.is_zero:
            assert scaled.sup_norm_exponent(p) == -inf
        else:
            assert scaled.sup_norm_exponent(p) == a.sup_norm_exponent(p) - valuation(
                scalar, p
            )

    @given(states())
    def test_zero_iff_norm_vanishes(self, a):
        assert (a.sup_norm_exponent(5) == -inf) == a.is_zero

    @given(states(), st.sampled_from([2, 3, 5]), st.integers(-2, 2), st.integers(0, 3))
    def test_r_norm_nesting(self, a, p, e1, gap):
        # weights are nonnegative, so the norm grows with the radius exponent
        e2 = e1 + gap
        assert a.r_norm_exponent(p, e1) <= a.r_norm_exponent(p, e2)


class TestNormsAgainstLoopOracle:
    """The content kernels (one gcd and one lcm per grade) against one
    valuation per term, by single divisions."""

    @given(padic_states(), st.sampled_from([-2, 0, 1, 3]))
    def test_r_norm(self, drawn, e):
        p, state = drawn
        assert state.r_norm_exponent(p, e) == norm_exponent_by_loop(state, p, e)

    @given(padic_states())
    def test_sup_norm(self, drawn):
        p, state = drawn
        assert state.sup_norm_exponent(p) == norm_exponent_by_loop(state, p, 0)

    def test_grades_with_different_contents(self):
        # grade 0 has content 1/5, grade 2 content 25: e = 1 picks grade 0, e = 3 grade 2
        state = HeisenbergState({(): Fraction(3, 5), (1, 1): 50, (2,): -75})
        assert state.r_norm_exponent(5, 1) == 1
        assert state.r_norm_exponent(5, 3) == 4
        assert state.sup_norm_exponent(5) == 1

    @pytest.mark.parametrize("p, a, b", [(p, a, b) for p in (5, 7) for a in range(3) for b in range(a, 3)])
    def test_kummer_defects(self, p, a, b):
        # coefficients of up to ~900 digits, p-adic valuations up to 50
        report = kummer_check(p, a, b)
        assert report.norm_exponent == norm_exponent_by_loop(report.defect, p, 0)
