from __future__ import annotations

import contextlib
import io
from fractions import Fraction
from math import factorial, inf

import pytest

from padic_voa import kummer
from padic_voa.cli import main
from padic_voa.fock import HeisenbergState
from padic_voa.kummer import (
    character_row,
    character_verdict,
    family_rows,
    kummer_check,
    kummer_index,
    limit_character_check,
    square_bracket_state,
    state_verdict,
    u_state,
    v_state,
)
from padic_voa.qchar import eisenstein_G, normalized_character
from padic_voa.scalars import bernoulli, c_coefficient

from oracles import square_bracket_state_by_substitution


class TestSquareBracketState:
    def test_r_one(self):
        state = square_bracket_state(1)
        expected = HeisenbergState.monomial([1, 1]) - HeisenbergState.vacuum(
            Fraction(1, 12)
        )
        assert state == expected

    def test_r_three_support(self):
        state = square_bracket_state(3)
        assert state.coefficient([1, 1]) == 1
        assert state.coefficient([2, 1]) == 3
        assert state.coefficient([3, 1]) == 2
        assert state.coefficient([]) == Fraction(1, 120)
        assert len(state) == 4

    def test_top_monomial_coefficient(self):
        for r in (1, 3, 5, 7, 9):
            assert square_bracket_state(r).coefficient([r, 1]) == factorial(r - 1)

    def test_rejects_even_or_nonpositive(self):
        for bad in (0, -1, 2, 4):
            with pytest.raises(ValueError):
                square_bracket_state(bad)

    def test_substitution_oracle_agrees(self):
        for r in (1, 3, 5):
            assert square_bracket_state_by_substitution(r) == square_bracket_state(r)


class TestVStates:
    def test_half_of_square_bracket(self):
        for r in (1, 3, 5):
            assert v_state(r) == square_bracket_state(r).scale(Fraction(1, 2))

    def test_weight_components(self):
        for r in (3, 5):
            weights = sorted(v_state(r).homogeneous_components())
            assert weights == [0] + list(range(2, r + 2))

    def test_character_is_eisenstein(self):
        for r in (1, 3):
            lhs = normalized_character(v_state(r), 12)
            assert lhs == eisenstein_G(r + 1, 12)


class TestUStates:
    def test_rescaling(self):
        for p in (3, 5):
            for r in (1, 3):
                assert u_state(r, p) == v_state(r).scale(2 * (1 - Fraction(p) ** r))

    def test_p_integrality_away_from_exceptional_branch(self):
        # vacuum coefficient is p-integral when (p-1) does not divide r+1,
        # which holds for p >= 5 in this family (von Staudt-Clausen)
        for p in (5, 7):
            for a in (0, 1):
                assert u_state(kummer_index(p, a), p).sup_norm_exponent(p) <= 0

    def test_character_scales(self):
        p, r = 5, 3
        lhs = normalized_character(u_state(r, p), 10)
        rhs = eisenstein_G(r + 1, 10).scale(2 * (1 - Fraction(p) ** r))
        assert lhs == rhs

    def test_rejects_bad_prime(self):
        with pytest.raises(ValueError):
            u_state(3, 2)
        with pytest.raises(ValueError):
            u_state(3, 15)


class TestCCongruences:
    def test_lemma_congruence(self):
        for p in (3, 5, 7):
            for a in range(3):
                for b in range(a, 3):
                    r = kummer_index(p, a)
                    s = kummer_index(p, b)
                    modulus = p ** (a + 1)
                    for m in range(max(r, s) + 1):
                        assert (c_coefficient(r, m) - c_coefficient(s, m)) % modulus == 0


class TestKummerCheck:
    def test_equal_depths_give_zero(self):
        report = kummer_check(7, 0, 0)
        assert report.is_zero
        assert report.norm_exponent == -inf

    def test_indices(self):
        assert kummer_index(5, 0) == 5
        assert kummer_index(5, 2) == 101
        assert kummer_index(7, 2) == 295

    def test_index_limit(self):
        # c_row(r) grows like r^2 log r digits: r above the limit is refused
        # before any work, and p^a is not computed for a huge depth
        assert kummer_index(997, 0) == 997
        for p, a in ((10007, 0), (5, 6), (3, 10**12)):
            with pytest.raises(ValueError, match="too large for the Kummer family"):
                kummer_index(p, a)

    @pytest.mark.parametrize("p", [5, 7])
    def test_congruence_bound_untwisted_primes(self, p):
        for a in range(3):
            for b in range(a, 3):
                report = kummer_check(p, a, b)
                assert report.norm_exponent <= -(a + 1), (p, a, b)

    def test_p_three_exceptional_branch(self):
        # (p-1) | r+1 for every member at p=3: the vacuum coefficient only
        # satisfies the congruence two powers short of the generic rate
        for a in range(2):
            for b in range(a + 1, 3):
                report = kummer_check(3, a, b)
                assert report.norm_exponent == 1 - a, (a, b)

    def test_rejects_misordered_depths(self):
        with pytest.raises(ValueError):
            kummer_check(5, 2, 1)


class TestLimitCharacter:
    @pytest.mark.parametrize("p", [5, 7])
    def test_distance_bound_untwisted_primes(self, p):
        for a in range(2):
            assert limit_character_check(p, a, 10) <= -(a + 1)

    def test_p_three_exceptional_branch(self):
        for a in range(3):
            assert limit_character_check(3, a, 8) == 1 - a

    def test_constant_term_convergence(self):
        # the vacuum coefficients converge to 2 * (p-1)/24 at rate p^(a+1)
        p = 5
        from padic_voa.scalars import valuation

        limit = Fraction(p - 1, 12)
        for a in range(3):
            r = kummer_index(p, a)
            vacuum_coeff = -(1 - Fraction(p) ** r) * bernoulli(r + 1) / (r + 1)
            assert valuation(vacuum_coeff - limit, p) >= a + 1


class TestVerdicts:
    def test_generic_rows_at_five(self):
        for a in range(3):
            for b in range(a, 3):
                assert state_verdict(kummer_check(5, a, b)) == ({}, True), (a, b)
            assert character_verdict(5, a, *character_row(5, a, 10)) == ({}, True), a

    def test_branch_exponents_at_three(self):
        # the exponents that the p = 3 CLI report pins, each <= -(a+1)
        def state(non_vacuum, regularised):
            return {"non_vacuum_exponent": non_vacuum, "regularised_exponent": regularised}, True

        states = {(a, b): state_verdict(kummer_check(3, a, b)) for a in range(3) for b in range(a, 3)}
        assert states == {
            (0, 0): state(-inf, -inf), (0, 1): state(-1, -1), (0, 2): state(-1, -1),
            (1, 1): state(-inf, -inf), (1, 2): state(-2, -2), (2, 2): state(-inf, -inf),
        }
        characters = [character_verdict(3, a, *character_row(3, a, 10)) for a in range(3)]
        assert characters == [
            ({"q_coefficient_exponent": e, "regularised_exponent": e}, True) for e in (-1, -2, -3)
        ]

    @pytest.mark.parametrize("shift", [1, -1])
    def test_shifted_character_row_fails(self, shift):
        # one power of p more or less in every coefficient: the distance is no longer exactly 1 - a
        for a in range(3):
            series, exponents = character_row(3, a, 10)
            assert not character_verdict(3, a, series, [e + shift for e in exponents])[1], a

    def test_state_verdict_builds_no_family_state(self, monkeypatch):
        # the branch reads z(k) = zeta_p(1-k) directly, not from u_r and u_s
        report = kummer_check(3, 0, 1)

        def refuse(*args):
            raise AssertionError("state_verdict built a family state")

        monkeypatch.setattr(kummer, "u_state", refuse)
        monkeypatch.setattr(kummer, "square_bracket_state", refuse)
        expected = {"non_vacuum_exponent": -1, "regularised_exponent": -1}
        assert state_verdict(report) == (expected, True)


class TestFamilyRows:
    @pytest.fixture
    def built(self, monkeypatch):
        """The index r of each family member built, in order."""
        indices, build = [], kummer.u_state

        def counted(r, p):
            indices.append(r)
            return build(r, p)

        monkeypatch.setattr(kummer, "u_state", counted)
        return indices

    @pytest.mark.parametrize("p", [3, 5])
    def test_rows_match_the_single_checks(self, p):
        characters, states = family_rows(p, 2, 8)
        assert characters == [character_row(p, a, 8) for a in range(3)]
        assert states == [kummer_check(p, a, b) for a in range(3) for b in range(a, 3)]

    def test_each_member_built_once(self, built):
        # the report used to build u_r 15 times for its 3 members
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["kummer", "--prime", "3", "--amax", "2"]) == 0
        assert built == [3, 7, 19]

    def test_limits_are_checked_before_the_builds(self, built):
        # a depth above the limit builds no member, an order above it one
        with pytest.raises(ValueError, match="too large for the Kummer family"):
            family_rows(5, 6, 10)
        assert built == []
        with pytest.raises(ValueError, match="too large for a character"):
            family_rows(5, 2, 41)
        assert built == [5]
        with pytest.raises(ValueError, match="too large for the Kummer family"):
            kummer_check(5, 0, 6)
        assert built == [5]


# p = 3 with a <= b <= 3 (the exceptional branch) and p = 5, 7 with a <= b <= 2
CONTRACTION_ROWS = [(3, a, b) for b in range(4) for a in range(b + 1)] + [
    (p, a, b) for p in (5, 7) for b in range(3) for a in range(b + 1)
]


@pytest.mark.parametrize("p, a, b", CONTRACTION_ROWS)
def test_state_row_bounds_the_character_difference(p, a, b):
    # |f(u_r) - f(u_s)|_p <= |u_r - u_s|_p, with equality on the family through q^20
    report = kummer_check(p, a, b)
    r, s = report.parameters["r"], report.parameters["s"]
    difference = normalized_character(u_state(r, p), 20) - normalized_character(u_state(s, p), 20)
    exponent = max(difference.norm_exponents(p))
    assert exponent <= report.norm_exponent
    assert exponent == report.norm_exponent
