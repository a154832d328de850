from __future__ import annotations

import copy
import itertools
import pickle
from fractions import Fraction
from math import comb, factorial, inf, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_voa import axioms, fock, modes, scalars
from padic_voa.axioms import (
    DefectReport,
    associator_defect,
    commutator_defect,
    isometry_probe,
    jacobi_defect,
    locality_profile,
)
from padic_voa.fock import GradedState, HeisenbergState, grade_basis
from padic_voa.kummer import kummer_check
from padic_voa.modes import mode_action, residue_product_mode
from padic_voa.virasoro import L_action, VirasoroState, vir_bracket_defect, vir_bracket_defects, vir_grade_basis

VAC = HeisenbergState.vacuum()
H = HeisenbergState.monomial([1])


def basis_states(max_grade: int) -> list[HeisenbergState]:
    return [
        HeisenbergState.monomial(parts)
        for g in range(max_grade + 1)
        for parts in grade_basis(g)
    ]


def vir_basis(max_grade: int, charge) -> list[VirasoroState]:
    return [
        VirasoroState.word(word, charge)
        for g in range(max_grade + 1)
        for word in vir_grade_basis(g)
    ]


monomials = st.integers(0, 3).flatmap(lambda n: st.sampled_from(grade_basis(n)))
indices = st.integers(-3, 3)


class TestJacobi:
    def test_vacuum_triple(self):
        for r, s, t in itertools.product(range(-2, 3), repeat=3):
            assert jacobi_defect(VAC, VAC, VAC, r, s, t).is_zero

    def test_generator_instance(self):
        assert jacobi_defect(H, H, VAC, 0, 0, 0).is_zero

    @given(monomials, monomials, monomials, indices, indices, indices)
    def test_defect_vanishes(self, pu, pv, pw, r, s, t):
        report = jacobi_defect(
            HeisenbergState.monomial(pu),
            HeisenbergState.monomial(pv),
            HeisenbergState.monomial(pw),
            r,
            s,
            t,
        )
        assert report.is_zero

    def test_report_invariants(self):
        report = jacobi_defect(H, H, VAC, 1, -1, 0, prime=5)
        assert report.is_zero
        assert report.norm_exponent == -inf
        assert report.defect.is_zero
        assert report.parameters == {"r": 1, "s": -1, "t": 0}

    def test_rejects_non_prime_on_zero_defect(self):
        with pytest.raises(ValueError):
            jacobi_defect(H, H, VAC, 1, -1, 0, prime=4)


class TestCommutator:
    def test_pairing_instance(self):
        report = commutator_defect(H, H, VAC, 1, -1)
        assert report.is_zero
        bracket = mode_action(H, 1, mode_action(H, -1, VAC)) - mode_action(
            H, -1, mode_action(H, 1, VAC)
        )
        assert bracket == VAC

    def test_vanishing_instance(self):
        assert commutator_defect(H, H, VAC, 2, -1).is_zero
        assert mode_action(H, 2, mode_action(H, -1, VAC)).is_zero

    @given(monomials, monomials, monomials, indices, indices)
    def test_defect_vanishes(self, pu, pv, pw, r, s):
        report = commutator_defect(
            HeisenbergState.monomial(pu),
            HeisenbergState.monomial(pv),
            HeisenbergState.monomial(pw),
            r,
            s,
        )
        assert report.is_zero

    def test_defect_is_the_negated_jacobi_sides(self):
        # a wrong image h(-1)|0> = 2 h(-1)|0> in the generator's row of the
        # vacuum makes the defects nonzero; the cache is emptied before and
        # after, so no image built from the wrong one outlives the test
        modes.clear_mode_cache()
        try:
            modes._mode_table(H, (1,))[()][-1] = (((1,), 2),)
            nonzero = 0
            for u, v, w in ((H, H, VAC), (H, H, H), (HeisenbergState.monomial([1, 1]), H, VAC)):
                for r, s in itertools.product(range(-2, 3), repeat=2):
                    commutator = commutator_defect(u, v, w, r, s, prime=3)
                    jacobi = jacobi_defect(u, v, w, r, s, 0, prime=3)
                    assert commutator.defect == -jacobi.defect, (u, v, w, r, s)
                    assert commutator.norm_exponent == jacobi.norm_exponent
                    nonzero += not commutator.is_zero
            assert nonzero
        finally:
            modes.clear_mode_cache()


class TestAssociator:
    @given(monomials, monomials, monomials, indices, indices)
    def test_defect_vanishes(self, pu, pv, pw, s, t):
        report = associator_defect(
            HeisenbergState.monomial(pu),
            HeisenbergState.monomial(pv),
            HeisenbergState.monomial(pw),
            s,
            t,
        )
        assert report.is_zero

    def test_inhomogeneous_inputs(self):
        u = H + HeisenbergState.monomial([2, 1], Fraction(1, 3))
        v = VAC + HeisenbergState.monomial([2], -2)
        for s, t in itertools.product(range(-2, 3), repeat=2):
            assert associator_defect(u, v, H, s, t).is_zero


# one report of each kind; every defect is zero but the Kummer difference
REPORTS = {
    "jacobi": lambda: jacobi_defect(H, H, VAC, 1, -1, 0),
    "commutator": lambda: commutator_defect(H, H, VAC, 1, -1),
    "associator": lambda: associator_defect(H, H, VAC, 0, 0),
    "virasoro": lambda: vir_bracket_defect(1, 1, VirasoroState.word([2, 2], 7)),
    "kummer": lambda: kummer_check(5, 0, 1),
}


class TestReportRecord:
    def test_fields_in_order(self):
        assert DefectReport._fields == ("defect", "norm_exponent", "parameters", "prime")

    @pytest.mark.parametrize("kind", sorted(REPORTS))
    def test_immutable(self, kind):
        report = REPORTS[kind]()
        with pytest.raises(AttributeError):
            report.norm_exponent = 0
        assert report.is_zero == (kind != "kummer")

    @pytest.mark.parametrize("kind", sorted(REPORTS))
    def test_no_instance_dict(self, kind):
        assert not hasattr(REPORTS[kind](), "__dict__")

    @pytest.mark.parametrize("kind", sorted(REPORTS))
    def test_parameters_are_copied(self, kind):
        report = REPORTS[kind]()
        parameters = dict(report.parameters)
        copy = DefectReport.from_defect(report.defect, report.prime, parameters)
        parameters["r"] = "changed"
        parameters["extra"] = 0
        assert type(copy) is DefectReport
        assert copy == report
        assert copy.parameters == report.parameters


class TestZeroDefect:
    ZEROS = {
        "heisenberg": HeisenbergState.zero(),
        "virasoro": VirasoroState.zero(1),
        "cancelled": H - H,
    }

    @pytest.mark.parametrize("kind", sorted(ZEROS))
    def test_prime_is_checked_first(self, kind):
        with pytest.raises(ValueError, match="prime required, got 4"):
            DefectReport.from_defect(self.ZEROS[kind], 4, {})

    @pytest.mark.parametrize("kind", sorted(ZEROS))
    def test_reads_the_shared_negative_infinity(self, kind):
        parameters = {"r": 0}
        report = DefectReport.from_defect(self.ZEROS[kind], 2, parameters)
        assert report.is_zero and report.norm_exponent is scalars._NEG_INF
        assert report.defect is self.ZEROS[kind] and report.prime == 2
        assert report.parameters == parameters and report.parameters is not parameters


def mixed_algebra_triples():
    """(u, v, w) with one position holding a state of another algebra, so
    that each of the pairs (u, v), (u, w) and (v, w) differs in some triple:
    a Heisenberg state against Virasoro at c' = 1, and c' = 1 against
    c' = 12, either way round, with the odd state, the others or all three
    zero."""
    algebras = [
        (H, VirasoroState.word([2], 1)),
        (VirasoroState.word([3], 1), VirasoroState.word([2, 2], 12)),
    ]
    triples = []
    for first, second in algebras:
        for same, other in ((first, second), (second, first)):
            for odd, zero_odd, zero_same in itertools.product(range(3), (False, True), (False, True)):
                triple = [same - same if zero_same else same] * 3
                triple[odd] = other - other if zero_odd else other
                triples.append(tuple(triple))
    return triples


# every caller of the residue sum, on states (u, v, w)
RESIDUE_SUM_CALLERS = {
    "jacobi": lambda u, v, w: jacobi_defect(u, v, w, 1, -1, 2),
    "commutator": lambda u, v, w: commutator_defect(u, v, w, 1, -1),
    "associator": lambda u, v, w: associator_defect(u, v, w, -1, 1),
    "locality": lambda u, v, w: locality_profile(u, v, w, 2),
    "residue_product": lambda u, v, w: residue_product_mode(u, v, 1, -1, w),
}

# the defect checks and the locality probe at the prime 4, on states whose
# defects would fill the store
BAD_PRIME_CALLS = {
    "jacobi": lambda: jacobi_defect(*mixed_states("heisenberg"), 1, -1, 2, prime=4),
    "commutator": lambda: commutator_defect(*mixed_states("heisenberg"), 1, -1, prime=4),
    "associator": lambda: associator_defect(*mixed_states("heisenberg"), -1, 1, prime=4),
    "locality": lambda: locality_profile(*mixed_states("heisenberg"), 2, prime=4),
    "vir_bracket": lambda: vir_bracket_defect(2, -3, VirasoroState.word([3, 2], 1), prime=4),
    "vir_bracket_sweep": lambda: next(vir_bracket_defects(VirasoroState.word([3, 2], 1), range(-3, 3), prime=4)),
}


class TestRefusedBeforeTheStore:
    """A bad prime or states of different algebras are refused before the
    engine runs, so a refused call leaves the mode store as it was."""

    @staticmethod
    def assert_refused(call, message):
        modes.clear_mode_cache()
        with pytest.raises(ValueError, match=message):
            call()
        assert not modes._MODE_CACHE and modes._MODE_CACHE_ENTRIES == [0]

    @pytest.mark.parametrize("check", sorted(BAD_PRIME_CALLS))
    def test_bad_prime(self, check):
        self.assert_refused(BAD_PRIME_CALLS[check], "prime required, got 4")

    @pytest.mark.parametrize("caller", sorted(RESIDUE_SUM_CALLERS))
    def test_states_of_different_algebras(self, caller):
        triples = mixed_algebra_triples()
        assert len(triples) == 48
        for u, v, w in triples:
            self.assert_refused(lambda: RESIDUE_SUM_CALLERS[caller](u, v, w), "states of different algebras")


class TestZeroStorage:
    """A zero result holds the one immutable empty map `fock._NO_TERMS`, not
    the table its accumulator grew before the terms cancelled, and no caller
    can fill it."""

    @staticmethod
    def assert_no_terms(state):
        assert state._terms is fock._NO_TERMS, state
        with pytest.raises(TypeError):
            state._terms[(1,)] = 1

    def test_cancelled_jacobi_defect(self):
        # the accumulator holds |0> before it cancels
        report = jacobi_defect(H, H, VAC, 1, -1, 0)
        assert report.is_zero
        self.assert_no_terms(report.defect)

    def test_other_zero_results(self):
        zeros = [
            commutator_defect(H, H, VAC, 1, -1).defect,
            vir_bracket_defect(1, 1, VirasoroState.word([2, 2], 7)).defect,
            # the (2, 1) row reads the zero defect of the (1, 2) row
            list(vir_bracket_defects(VirasoroState.word([2, 2], 7), (1, 2)))[2][2].defect,
            L_action(1, VirasoroState.vacuum(1)),
            mode_action(H, 1, HeisenbergState.monomial([2])),
            H - H,
        ]
        for state in zeros:
            assert state.is_zero
            self.assert_no_terms(state)

    def test_nonzero_result_keeps_its_terms(self):
        terms = {(2, 1): Fraction(1, 3)}
        assert VAC._with(terms)._terms is terms
        assert mode_action(H, -1, H)._terms == {(1, 1): 1}
        report = kummer_check(5, 0, 1)
        assert not report.is_zero and report.defect._terms


class TestSharedZero:
    """A zero result computed through a mode table is that table's `proto`,
    one zero state shared by every zero read through the table, with the
    right class and charge."""

    def test_repeated_zero_reports_hold_one_defect(self):
        u, v = HeisenbergState.monomial([2, 1]), HeisenbergState.monomial([3])
        reports = [jacobi_defect(u, v, VAC, r, s, t) for r, s, t in itertools.product(range(-5, 5), repeat=3)]
        assert len(reports) == 1000
        assert all(report.is_zero for report in reports)
        assert len({id(report.defect) for report in reports}) == 1

    @pytest.mark.parametrize("charge", [1, 12])
    def test_zero_bracket_defect_keeps_the_charge(self, charge):
        defect = vir_bracket_defect(1, 1, VirasoroState.word([2, 2], charge)).defect
        assert defect.is_zero and type(defect) is VirasoroState
        assert defect.charge == charge and defect == VirasoroState.zero(charge)

    def test_the_shared_zero_keeps_its_charge_and_tag(self):
        # the rewrite reads the charge of the generator table's proto, which
        # this zero defect is
        defect = vir_bracket_defect(1, 1, VirasoroState.word([2, 2], 1)).defect
        for name in ("charge", "algebra"):
            with pytest.raises(AttributeError):
                setattr(defect, name, 5)
        assert L_action(3, VirasoroState.word([3], 1)) == VirasoroState.vacuum(1, 4)

    @pytest.mark.parametrize("b", [HeisenbergState.monomial([2]), VirasoroState.word([2], 5)], ids=["h", "vir"])
    def test_zero_mode_action_has_its_input_class(self, b):
        result = mode_action(b, 4, b)
        assert result.is_zero and isinstance(result, type(b))
        assert result.algebra == b.algebra and result == b - b

    def test_zero_input_gives_an_immutable_zero(self):
        zero = HeisenbergState.zero()
        for u, v, w in ((zero, H, VAC), (H, zero, VAC), (H, H, zero)):
            for report in (jacobi_defect(u, v, w, 1, -1, 0), commutator_defect(u, v, w, 1, -1)):
                assert report.is_zero
                TestZeroStorage.assert_no_terms(report.defect)

    def test_nonzero_result_owns_its_dict(self):
        first, second = mode_action(H, -1, H), mode_action(H, -1, H)
        assert type(first._terms) is dict and first._terms is not second._terms
        first._terms[(1, 1)] = 5
        assert second == mode_action(H, -1, H) == HeisenbergState.monomial([1, 1])


def pickle_cases():
    """{Heisenberg, Virasoro at c' = 1/2} x {zero engine result, zero(), nonzero}."""
    vir = VirasoroState.word([2], Fraction(1, 2))
    return {
        "h-engine-zero": jacobi_defect(H, H, VAC, 1, -1, 0).defect,
        "h-zero": HeisenbergState.zero(),
        "h-nonzero": HeisenbergState({(2, 1): Fraction(1, 3), (): 2}),
        "vir-engine-zero": vir_bracket_defect(1, 1, vir).defect,
        "vir-zero": VirasoroState.zero(Fraction(1, 2)),
        "vir-nonzero": VirasoroState({(2,): Fraction(1, 3), (3, 2): 4}, Fraction(1, 2)),
    }


class TestPickleAndCopy:
    @pytest.mark.parametrize("kind", sorted(pickle_cases()))
    @pytest.mark.parametrize(
        "round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy], ids=["pickle", "deepcopy", "copy"]
    )
    def test_round_trip_gives_an_equal_state(self, kind, round_trip):
        state = pickle_cases()[kind]
        back = round_trip(state)
        assert type(back) is type(state) and back == state and back.algebra == state.algebra
        assert getattr(back, "charge", None) == getattr(state, "charge", None)
        assert back.render() == state.render()
        if state.is_zero:
            TestZeroStorage.assert_no_terms(back)
        else:
            assert back._terms is not state._terms

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_protocol_restores_the_shared_zero(self, protocol):
        back = pickle.loads(pickle.dumps(pickle_cases()["vir-engine-zero"], protocol))
        assert back == VirasoroState.zero(Fraction(1, 2)) and back.charge == Fraction(1, 2)
        TestZeroStorage.assert_no_terms(back)


def mixed_states(algebra):
    """Multi-term, inhomogeneous states with Fraction coefficients, which
    enter every residue sum term by term, as more than one pair of mode
    tables, each pair with its own grading bounds."""
    if algebra == "heisenberg":
        return (
            H + HeisenbergState.monomial([2, 1], Fraction(1, 3)),
            VAC + HeisenbergState.monomial([2], -2) + HeisenbergState.monomial([1, 1], Fraction(-1, 2)),
            HeisenbergState({(1,): Fraction(2, 5), (3,): 1}),
        )
    return (
        VirasoroState({(2,): Fraction(1, 2), (3,): 1}, algebra),
        VirasoroState({(): 1, (2,): Fraction(-1, 3)}, algebra),
        VirasoroState({(2,): 1, (2, 2): Fraction(3, 4)}, algebra),
    )


class TestKeyLevelPath:
    """The Jacobi family on (key, coefficient) pairs from the engine."""

    @pytest.mark.parametrize("algebra", ["heisenberg", 0, Fraction(1, 2), 12])
    def test_defects_vanish_on_mixed_states(self, algebra):
        a, b, w = mixed_states(algebra)
        unit = a._with({(3,): 1})  # a basis vector of the same algebra
        for u, v in ((a, b), (b, a), (unit, a), (b, unit)):
            for r, s in itertools.product(range(-2, 3), repeat=2):
                assert commutator_defect(u, v, w, r, s).is_zero, (u, v, r, s)
                for t in range(-2, 3):
                    assert jacobi_defect(u, v, w, r, s, t).is_zero, (u, v, r, s, t)

    def test_no_intermediate_states(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the Jacobi family must not build mode_action states")

        # axioms holds no name for the state builder, so the one route to it
        # is through modes
        assert not hasattr(axioms, "mode_action")
        monkeypatch.setattr(modes, "mode_action", forbidden)
        for u, v, w in (mixed_states("heisenberg"), mixed_states(Fraction(1, 2)), (H, H, VAC)):
            for r, s, t in itertools.product(range(-1, 2), repeat=3):
                assert jacobi_defect(u, v, w, r, s, t).is_zero
                assert commutator_defect(u, v, w, r, s).is_zero
                assert associator_defect(u, v, w, s, t).is_zero

    def test_mode_maps_carry_the_largest_weight(self):
        for algebra in ("heisenberg", Fraction(1, 2)):
            self.assert_each_term_at_its_own_weight(*mixed_states(algebra))

    @staticmethod
    def assert_each_term_at_its_own_weight(a, b, w):
        # a state enters a residue sum term by term, each term truncated at
        # its own key's weight: the first term of each mixed `a` has the
        # lowest weight, so a bound read off the first table would be too
        # small, and at the indices counted below only the heavier terms
        # contribute, yet every result is still the term-by-term sum
        first = next(iter(a._terms))
        light = a._with({first: a._terms[first]})
        heavy, zero = a - light, a - a
        assert sum(first) < min(map(sum, heavy._terms))

        def left_side(u, r, s, t):
            # sum_i C(r, i) (u(t+i)b)(r+s-i) w, composed mode by mode; u(t+i)b
            # vanishes once t + i >= wt u + wt b
            total = zero
            for i in range(max(0, u.max_weight() + b.max_weight() - t)):
                binomial = prod(range(r - i + 1, r + 1)) // factorial(i)
                total = total + mode_action(mode_action(u, t + i, b), r + s - i, w).scale(binomial)
            return total

        only_heavy = 0
        for t, n in itertools.product(range(5), range(-2, 3)):
            result = residue_product_mode(a, b, t, n, w)
            term_by_term = [
                residue_product_mode(a._with({pa: ca}), b._with({pb: cb}), t, n, w)
                for pa, ca in a._terms.items()
                for pb, cb in b._terms.items()
            ]
            assert result == sum(term_by_term, zero) == mode_action(mode_action(a, t, b), n, w), (t, n)
            only_heavy += bool(result) and residue_product_mode(light, b, t, n, w).is_zero
        assert only_heavy
        only_heavy = 0
        for r, s, t in itertools.product((-1, 1, 2), range(-2, 3), range(5)):
            assert jacobi_defect(a, b, w, r, s, t).is_zero, (r, s, t)
            only_heavy += bool(left_side(a, r, s, t)) and left_side(light, r, s, t).is_zero
        assert only_heavy
        t_max = a.max_weight() + b.max_weight() + 1
        profile, heavy_profile = locality_profile(a, b, w, t_max), locality_profile(heavy, b, w, t_max)
        rows = range(ope_order(light, b), t_max + 1)  # every cell of light's profile is zero on these rows
        assert profile[rows.start :] == heavy_profile[rows.start :]
        assert any(profile[t][1] != -inf for t in rows)
        for u, v, x in ((zero, b, w), (a, b - b, w), (a, b, w - w)):
            assert residue_product_mode(u, v, 1, -1, x).is_zero
            assert jacobi_defect(u, v, x, 1, -1, 3).is_zero
            assert all(exponent == -inf for _, exponent in locality_profile(u, v, x, 2))

    @pytest.mark.parametrize("algebra", ["heisenberg", Fraction(1, 2)])
    def test_defects_read_no_max_weight(self, algebra, monkeypatch):
        def forbidden(self):
            raise AssertionError("the engine must read the weight off the mode maps")

        a, b, w = mixed_states(algebra)
        composed = {(s, t): mode_action(mode_action(a, t, b), s, w) for s, t in itertools.product(range(-1, 2), repeat=2)}
        monkeypatch.setattr(GradedState, "max_weight", forbidden)
        for u, v in ((a, b), (b, a)):
            for r, s, t in itertools.product(range(-1, 2), repeat=3):
                assert jacobi_defect(u, v, w, r, s, t).is_zero, (u, v, r, s, t)
                assert commutator_defect(u, v, w, r, s).is_zero, (u, v, r, s)
                assert associator_defect(u, v, w, s, t).is_zero, (u, v, s, t)
        for (s, t), expected in composed.items():
            assert residue_product_mode(a, b, t, s, w) == expected, (s, t)


class TestLocality:
    def test_generator_pole_order(self):
        profile = dict(locality_profile(H, H, VAC, 4))
        assert profile[0] != -inf
        assert profile[1] != -inf
        assert profile[2] == -inf
        assert profile[3] == -inf

    def test_empty_rows_read_the_shared_negative_infinity(self):
        rows = locality_profile(H, H, VAC, 3) + locality_profile(HeisenbergState.zero(), H, VAC, 1)
        assert [t for t, exponent in rows if exponent is scalars._NEG_INF] == [2, 3, 0, 1]
        assert isometry_probe(H, 5, 1, range(5, 7))[0] is scalars._NEG_INF

    def test_zero_state_checks_prime(self):
        zero = HeisenbergState.zero()
        for triple in ((zero, H, VAC), (H, zero, VAC), (H, H, zero)):
            with pytest.raises(ValueError, match="prime required, got 4"):
                locality_profile(*triple, 2, prime=4)
            assert locality_profile(*triple, 2, prime=5) == [(0, -inf), (1, -inf), (2, -inf)]

    def test_negative_t_max_rejected(self):
        zero = HeisenbergState.zero()
        for triple in ((H, H, VAC), (zero, H, VAC), (H, H, zero)):
            with pytest.raises(ValueError, match="t_max must be >= 0"):
                locality_profile(*triple, -1)

    def test_identity_field_commutes(self):
        for w in basis_states(2):
            profile = locality_profile(VAC, HeisenbergState.monomial([2, 1]), w, 3)
            assert all(exponent == -inf for _, exponent in profile)

    def test_square_generator_pole_order(self):
        # [h(m), (h^2)(n)] = 2m h(m+n-1) since h(0)h^2 = 0 and h(1)h^2 = 2h,
        # so the pole order is 2: vanishing from t = 2 on, nonzero at t = 1
        profile = dict(locality_profile(HeisenbergState.monomial([1, 1]), H, VAC, 5))
        assert all(profile[t] == -inf for t in range(2, 6))
        assert profile[1] != -inf

    def test_threshold_bound(self):
        states = basis_states(2)
        for u, v, w in itertools.product(states, repeat=3):
            threshold = u.max_weight() + v.max_weight()
            profile = locality_profile(u, v, w, threshold + 2)
            for t, exponent in profile:
                if t >= threshold:
                    assert exponent == -inf, (u.render(), v.render(), w.render(), t)


def unmemoised_profile(u, v, w, t_max, prime=2):
    """The locality profile over the same window, with every coefficient
    R_t(u, v; r, s) w summed afresh from composed modes:

        sum_{i=0..t} (-1)^i C(t, i) { u(r+t-i) v(s+i) w - (-1)^t v(s+t-i) u(r+i) w }.
    """
    total_weight = u.max_weight() + v.max_weight() + w.max_weight()
    span = total_weight + 2
    profile = []
    for t in range(t_max + 1):
        best = -inf
        for r, s in itertools.product(range(-span, span + 1), repeat=2):
            if r + s > total_weight - t - 2:
                continue
            coefficient = w.scale(0)
            for i in range(t + 1):
                term = mode_action(u, r + t - i, mode_action(v, s + i, w)) - mode_action(
                    v, s + t - i, mode_action(u, r + i, w)
                ).scale((-1) ** t)
                coefficient = coefficient + term.scale((-1) ** i * comb(t, i))
            best = max(best, coefficient.sup_norm_exponent(prime))
        profile.append((t, best))
    return profile


def ope_order(u, v):
    """1 + max{j >= 0 : u(j)v != 0}, or 0 when there is no such j: by the OPE
    criterion, (x-y)^t [Y(u,x), Y(v,y)] = 0 exactly for t >= this order."""
    nonzero = [j for j in range(u.max_weight() + v.max_weight()) if mode_action(u, j, v)]
    return 1 + max(nonzero, default=-1)


# Virasoro at c' = 1/2, so that coefficients with a 2 in the denominator
# reach the profile at the prime 2; the unmemoised profile costs grow fast
# with the total weight, hence its cap; each algebra's `mixed_states` triple,
# whose u and v enter as several pairs of tables, comes last, in one order
# only, as its unmemoised profile takes seconds
VIR_HALF = vir_basis(4, Fraction(1, 2))
LOCALITY_TRIPLES = {
    "heisenberg": [*itertools.product(basis_states(2), basis_states(2), basis_states(1)), mixed_states("heisenberg")],
    "virasoro": [
        (u, v, w)
        for u, v, w in itertools.product(VIR_HALF, VIR_HALF, vir_basis(2, Fraction(1, 2)))
        if u.max_weight() + v.max_weight() + w.max_weight() <= 8
    ]
    + [mixed_states(Fraction(1, 2))],
}


class TestLocalityMemo:
    """The stepped `locality_profile` against unmemoised residue sums, and
    its zero rows against the exact OPE certificate."""

    @pytest.mark.parametrize("algebra", sorted(LOCALITY_TRIPLES))
    def test_matches_unmemoised_profile(self, algebra):
        for u, v, w in LOCALITY_TRIPLES[algebra]:
            t_max = u.max_weight() + v.max_weight() + 1
            expected = unmemoised_profile(u, v, w, t_max)
            assert locality_profile(u, v, w, t_max) == expected, (u, v, w)

    @pytest.mark.parametrize("algebra", sorted(LOCALITY_TRIPLES))
    def test_zero_from_ope_order(self, algebra):
        for u, v, w in LOCALITY_TRIPLES[algebra]:
            t0 = ope_order(u, v)  # at most wt u + wt v, by grading
            profile = locality_profile(u, v, w, u.max_weight() + v.max_weight() + 1)
            assert all(exponent == -inf for t, exponent in profile if t >= t0), (u, v, w, t0)


class TestIsometry:
    def test_unit_generator(self):
        assert isometry_probe(H, 5, 2, range(-3, 3)) == (0, 0)

    def test_rescaled(self):
        state = HeisenbergState.monomial([2], 5)
        assert isometry_probe(state, 5, 2, range(-3, 3)) == (-1, -1)

    def test_mixed_components(self):
        state = H + HeisenbergState.vacuum(5)
        assert isometry_probe(state, 5, 2, range(-3, 3)) == (0, 0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            isometry_probe(HeisenbergState.zero(), 5, 2, range(-2, 2))

    @given(
        st.lists(
            st.tuples(monomials, st.integers(-9, 9).filter(bool)), min_size=1, max_size=3
        ),
        st.sampled_from([3, 5]),
        st.integers(-2, 2),
    )
    def test_bounded_and_attained(self, terms, p, power):
        state = HeisenbergState.zero()
        for parts, coeff in terms:
            state = state + HeisenbergState.monomial(parts, coeff)
        if state.is_zero:
            return
        state = state.scale(Fraction(p) ** power)
        lhs, rhs = isometry_probe(state, p, 3, range(-4, 4))
        assert lhs == rhs

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_content_equals_the_largest_image_norm(self, p):
        def two_squares_plus(y):
            # a = h(-2)^2|0> + y h(-3)h(-1)|0>: a(2) h(-1)|0> = (3y - 4) h(-2)|0>
            # and a(0) h(-1)|0> = (6y - 12) h(-4)|0>
            return HeisenbergState([((2, 2), 1), ((3, 1), y)])

        cancelling = HeisenbergState.monomial([1, 1, 1]) - HeisenbergState.monomial([3])
        assert mode_action(cancelling, 3, HeisenbergState.monomial([1, 1])).is_zero  # 6 h(-1) - 6 h(-1)
        assert mode_action(two_squares_plus(Fraction(4, 3)), 2, H).is_zero
        states = [
            cancelling,
            cancelling.scale(Fraction(1, p)) + HeisenbergState.monomial([2], p**2),
            two_squares_plus(Fraction(4, 3)),
            two_squares_plus(-12),  # -40 h(-2): v_2 and v_5 rise past those of -4 and -36
            two_squares_plus(-4),  # -36 h(-4): v_3 rises past those of -12 and -24
            HeisenbergState.monomial([2, 1], Fraction(3, 4)) + HeisenbergState.monomial([1], 10) - VAC.scale(Fraction(2, 15)),
        ]
        # the last window admits no nonzero image: a(n) vanishes on grade <= 1 for n >= 5
        windows = [(2, range(-3, 4)), (1, range(2, 3)), (1, range(0, 1)), (3, range(3, 4)), (1, range(5, 7))]
        for a in states:
            for grade_bound, window in windows:
                per_image = max(
                    (
                        mode_action(a, n, HeisenbergState.monomial(key)).sup_norm_exponent(p)
                        for n in window
                        for grade in range(grade_bound + 1)
                        for key in grade_basis(grade)
                    ),
                    default=-inf,
                )
                assert isometry_probe(a, p, grade_bound, window) == (per_image, a.sup_norm_exponent(p)), (a, window)
        assert isometry_probe(cancelling, p, 1, range(5, 7))[0] == -inf

    def test_upper_bound_without_window(self):
        # Lemma direction: |a(n)b| <= |a| |b| holds for every window
        state = H + HeisenbergState.monomial([3, 1], Fraction(1, 5))
        lhs, rhs = isometry_probe(state, 5, 3, range(2, 5))
        assert lhs <= rhs
