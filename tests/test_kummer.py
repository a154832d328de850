from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction
from itertools import zip_longest
from math import factorial, inf
from pathlib import Path

import pytest

from padic_voa import kummer
from padic_voa.cli import main
from padic_voa.fock import HeisenbergState
from padic_voa.kummer import (
    character_row,
    character_verdict,
    kummer_check,
    kummer_index,
    limit_character_check,
    on_exceptional_branch,
    square_bracket_state,
    state_verdict,
    u_state,
    v_state,
)
from padic_voa.qchar import eisenstein_G, normalized_character
from padic_voa.scalars import bernoulli, c_row

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


NOT_ODD_PRIMES = [-1, 0, 1, 2, 4, 9]


class TestOddPrimeRequired:
    @pytest.mark.parametrize("p", NOT_ODD_PRIMES)
    def test_each_entry_point_refuses(self, p):
        # kummer_index(4, 1) used to return 13 and on_exceptional_branch(1, 5) to divide by zero
        calls = [
            lambda: u_state(3, p),
            lambda: kummer_index(p, 1),
            lambda: on_exceptional_branch(p, 5),
            lambda: kummer_check(p, 0, 1),
            lambda: character_row(p, 0, 4),
            lambda: limit_character_check(p, 0, 4),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"p must be an odd prime, got {p}$"):
                call()

    def test_verdicts_refuse_in_a_bounded_time(self):
        # character_verdict(-1, ...) used to loop forever in the p-adic multiplicity,
        # so the verdicts run in a child that the timeout kills
        script = (
            "from padic_voa.kummer import character_row, character_verdict, kummer_check, state_verdict\n"
            "row, report = character_row(5, 0, 4), kummer_check(5, 0, 1)\n"
            f"for p in {NOT_ODD_PRIMES}:\n"
            "    forged = report._replace(parameters={**report.parameters, 'p': p})\n"
            "    for verdict in (lambda: character_verdict(p, 0, *row), lambda: state_verdict(forged)):\n"
            "        try:\n"
            "            verdict()\n"
            "        except ValueError as exc:\n"
            "            print(exc)\n"
        )
        src = str(Path(kummer.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60, check=True
        )
        assert result.stdout.splitlines() == [f"p must be an odd prime, got {p}" for p in NOT_ODD_PRIMES for _ in "cs"]


class TestCCongruences:
    def test_lemma_congruence(self):
        for p in (3, 5, 7):
            for a in range(3):
                for b in range(a, 3):
                    r = kummer_index(p, a)
                    s = kummer_index(p, b)
                    modulus = p ** (a + 1)
                    # c(r, m) = 0 for m >= r, past the end of the row
                    for c_r, c_s in zip_longest(c_row(r), c_row(s), fillvalue=0):
                        assert (c_r - c_s) % modulus == 0


class TestKummerCheck:
    def test_equal_depths_give_zero(self):
        report = kummer_check(7, 0, 0)
        assert report.is_zero
        assert report.norm_exponent == -inf

    def test_indices(self):
        assert kummer_index(5, 0) == 5
        assert kummer_index(5, 2) == 101
        assert kummer_index(7, 2) == 295

    @pytest.mark.parametrize("p", [3, 5])
    def test_negative_depth_rejected(self, p):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            kummer_index(p, -1)

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
        """The index r of each family member built, in order, from an empty
        member memo; the memo is emptied again afterwards, so it keeps no
        member built through the patch."""
        indices, build = [], kummer.u_state

        def counted(r, p):
            indices.append(r)
            return build(r, p)

        monkeypatch.setattr(kummer, "u_state", counted)
        kummer._member.cache_clear()
        yield indices
        kummer._member.cache_clear()

    def test_each_member_built_once(self, built):
        # the report used to build u_r 15 times for its 3 members
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["kummer", "--prime", "3", "--amax", "2"]) == 0
        assert built == [3, 7, 19]

    def test_each_member_built_once_per_process(self, built):
        # a second report used to build its 3 members again
        reports = []
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["kummer", "--prime", "3", "--amax", "2"]) == 0
            reports.append(out.getvalue())
        assert reports[0] == reports[1]
        assert built == [3, 7, 19]

    def test_a_depth_is_built_once_across_checks(self, built):
        assert kummer_check(5, 0, 1).norm_exponent <= -1
        assert character_verdict(5, 1, *character_row(5, 1, 4)) == ({}, True)
        assert sorted(built) == [5, 21]

    def test_cache_clear_builds_again(self, built):
        row = character_row(5, 0, 4)
        assert character_row(5, 0, 4) == row
        assert built == [5]
        kummer._member.cache_clear()
        assert character_row(5, 0, 4) == row
        assert built == [5, 5]

    def test_readers_leave_the_member_unchanged(self, built):
        member = kummer._member(3, 1)
        terms = dict(member._terms)
        report = kummer_check(3, 0, 1)
        state_verdict(report)
        state_verdict(kummer_check(3, 1, 1))
        character_verdict(3, 1, *character_row(3, 1, 6))
        assert kummer._member(3, 1) is member and built == [7, 3]
        assert member._terms == terms == u_state(7, 3)._terms
        assert report.defect._terms is not member._terms

    def test_limits_are_checked_before_the_builds(self, built):
        # neither a depth nor a q-order above its limit builds a member (a
        # q-order above it used to build one)
        with pytest.raises(ValueError, match="too large for the Kummer family"):
            kummer_check(5, 0, 6)
        with pytest.raises(ValueError, match="too large for a character"):
            character_row(5, 2, 41)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(["kummer", "--prime", "5", "--amax", "6"]) == 2
            assert main(["kummer", "--prime", "997", "--amax", "0", "--qmax", "41"]) == 2
        assert "too large for the Kummer family" in err.getvalue()
        assert "too large for a character (limit 40)" in err.getvalue()
        assert built == []


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
