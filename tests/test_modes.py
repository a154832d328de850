from __future__ import annotations

import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_voa import modes
from padic_voa.axioms import jacobi_defect
from padic_voa.fock import HeisenbergState, grade_basis, partitions_of
from padic_voa.kummer import v_state
from padic_voa.modes import (
    h_mode,
    mode_action,
    residue_product_mode,
    virasoro_mode,
    zero_mode,
    zero_mode_trace,
)
from padic_voa.qchar import character

from mode_store import cached_entries, entries
from oracles import normal_ordered_mode, virasoro_mode_by_sum

VAC = HeisenbergState.vacuum()
H = HeisenbergState.monomial([1])
HH = HeisenbergState.monomial([1, 1])


def basis_states(max_grade: int) -> list[HeisenbergState]:
    return [
        HeisenbergState.monomial(parts)
        for g in range(max_grade + 1)
        for parts in grade_basis(g)
    ]


monomials = st.integers(0, 4).flatmap(lambda n: st.sampled_from(grade_basis(n)))


class TestGeneratorMode:
    def test_creation(self):
        assert h_mode(-2, VAC) == HeisenbergState.monomial([2])
        assert h_mode(-1, HeisenbergState.monomial([2])) == HeisenbergState.monomial([2, 1])

    def test_annihilation(self):
        assert h_mode(2, HeisenbergState.monomial([2])) == 2 * VAC
        assert h_mode(3, H).is_zero
        assert h_mode(1, HH) == 2 * H

    def test_index_zero_acts_as_zero(self):
        assert h_mode(0, HH).is_zero

    def test_ccr(self):
        for m, n in itertools.product(range(-5, 6), repeat=2):
            for b in basis_states(4):
                bracket = h_mode(m, h_mode(n, b)) - h_mode(n, h_mode(m, b))
                expected = m * b if m + n == 0 else HeisenbergState.zero()
                assert bracket == expected, (m, n)


class TestModeAction:
    def test_vacuum_field_is_identity(self):
        for n in range(-4, 4):
            for b in (VAC, H, HeisenbergState.monomial([3, 1])):
                expected = b if n == -1 else HeisenbergState.zero()
                assert mode_action(VAC, n, b) == expected

    def test_generator_base_case(self):
        for n in range(-4, 5):
            for b in basis_states(3):
                assert mode_action(H, n, b) == h_mode(n, b)

    def test_square_mode_example(self):
        assert mode_action(HH, 1, H) == 2 * H

    def test_creativity(self):
        for v in basis_states(4):
            assert mode_action(v, -1, VAC) == v
            for n in range(0, 5):
                assert mode_action(v, n, VAC).is_zero

    def test_against_normal_ordered_oracle(self):
        # dual route: associator recursion vs brute-force normal ordering
        for pv in [p for g in range(5) for p in grade_basis(g)]:
            v = HeisenbergState.monomial(pv)
            for n in range(-3, 4):
                for b in basis_states(3):
                    assert mode_action(v, n, b) == normal_ordered_mode(pv, n, b), (
                        pv,
                        n,
                        b.render(),
                    )

    @given(monomials, monomials, st.integers(-4, 4))
    def test_grading(self, pv, pb, n):
        v = HeisenbergState.monomial(pv)
        b = HeisenbergState.monomial(pb)
        result = mode_action(v, n, b)
        if n >= sum(pv) + sum(pb):
            assert result.is_zero
        if not result.is_zero:
            assert result.weight() == sum(pv) + sum(pb) - n - 1

    @given(monomials, monomials, monomials, st.integers(-3, 3))
    def test_bilinear(self, pu, pv, pb, n):
        u = HeisenbergState.monomial(pu, 3)
        v = HeisenbergState.monomial(pv, Fraction(-1, 2))
        b = HeisenbergState.monomial(pb)
        assert mode_action(u + v, n, b) == mode_action(u, n, b) + mode_action(v, n, b)

    def test_scalar_on_the_state(self):
        c = Fraction(-3, 7)
        for v in basis_states(4):
            for n in range(-3, 4):
                for b in basis_states(4):
                    assert mode_action(c * v, n, b) == c * mode_action(v, n, b), (v.render(), n, b.render())

    def test_state_of_many_terms_builds_no_term_sum(self):
        u, v = HeisenbergState.monomial([2, 1]), HeisenbergState.monomial([3])
        states = basis_states(3)
        expected = [Fraction(1, 2) * mode_action(u, n, b) + 4 * mode_action(v, n, b) for n in range(-2, 3) for b in states]
        w = Fraction(1, 2) * u + 4 * v
        assert [mode_action(w, n, b) for n in range(-2, 3) for b in states] == expected
        assert virasoro_mode(0, HH) == 2 * HH


class TestVirasoroInHeisenberg:
    def test_grading_operator(self):
        x = HeisenbergState.monomial([2, 1])
        assert virasoro_mode(0, x) == 3 * x
        assert virasoro_mode(0, VAC).is_zero

    def test_annihilates_vacuum(self):
        for n in range(-1, 4):
            assert virasoro_mode(n, VAC).is_zero

    def test_central_term(self):
        bracket = virasoro_mode(2, virasoro_mode(-2, VAC)) - virasoro_mode(
            -2, virasoro_mode(2, VAC)
        )
        assert bracket == HeisenbergState.vacuum(Fraction(1, 2))

    def test_bracket_relation_small(self):
        for m, n in itertools.product(range(-3, 4), repeat=2):
            for b in basis_states(3):
                bracket = virasoro_mode(m, virasoro_mode(n, b)) - virasoro_mode(
                    n, virasoro_mode(m, b)
                )
                expected = (m - n) * virasoro_mode(m + n, b)
                if m + n == 0:
                    expected = expected + Fraction(m**3 - m, 12) * b
                assert bracket == expected, (m, n, b.render())

    def test_agrees_with_conformal_vector_modes(self):
        # the engine's w(n+1) against 1/2 sum_j h(j)h(n-j), on basis states
        # and on inhomogeneous states with fractional coefficients, where
        # the oracle's L(0) multiplies each component by its own weight
        parts = [p for g in range(5) for p in grade_basis(g)]
        mixed = [
            HeisenbergState.monomial(p, Fraction(1, 2))
            + HeisenbergState.monomial(q, Fraction(-3, 7))
            + HeisenbergState.vacuum(Fraction(-1, 12))
            for p, q in itertools.combinations(parts, 2)
        ]
        for n in range(-4, 5):
            for b in basis_states(4) + mixed:
                assert virasoro_mode(n, b) == virasoro_mode_by_sum(n, b), (n, b.render())


class TestZeroMode:
    def test_vacuum_zero_mode_is_identity(self):
        o = zero_mode(VAC)
        for b in basis_states(3):
            assert o(b) == b

    def test_square_acts_as_twice_weight_on_grade_one(self):
        o = zero_mode(HH)
        assert o(H) == 2 * H

    def test_preserves_grade(self):
        o = zero_mode(HeisenbergState.monomial([2, 1]))
        for b in basis_states(4):
            image = o(b)
            if not image.is_zero:
                assert image.weight() == b.weight()

    def test_linear_extension_over_components(self):
        v = HH + HeisenbergState.vacuum(Fraction(1, 3))
        o = zero_mode(v)
        for b in basis_states(3):
            assert o(b) == mode_action(HH, 1, b) + Fraction(1, 3) * b


class TestResidueProduct:
    def test_heisenberg_pairing_example(self):
        assert residue_product_mode(H, H, 1, -1, VAC) == VAC

    def test_vacuum_left_factor(self):
        for t in range(-2, 3):
            for n in range(-2, 3):
                for w in basis_states(2):
                    got = residue_product_mode(VAC, H, t, n, w)
                    want = mode_action(H, n, w) if t == -1 else HeisenbergState.zero()
                    assert got == want

    def test_matches_composed_mode_path(self):
        states = basis_states(3)
        for a, b, w in itertools.product(states, repeat=3):
            for t, n in itertools.product(range(-2, 3), repeat=2):
                ab = mode_action(a, t, b)
                direct = mode_action(ab, n, w)
                assert residue_product_mode(a, b, t, n, w) == direct


def translation(a: HeisenbergState) -> HeisenbergState:
    """The canonical derivation T(a) = a(-2)|0>."""
    return mode_action(a, -2, VAC)


class TestTranslation:
    def test_kills_vacuum(self):
        assert translation(VAC).is_zero

    def test_shifts_generator(self):
        assert translation(H) == HeisenbergState.monomial([2])

    def test_mode_shift_identity(self):
        for a in basis_states(3):
            ta = translation(a)
            for n in range(-3, 4):
                for b in basis_states(2):
                    assert mode_action(ta, n, b) == (-n) * mode_action(a, n - 1, b)

    def test_derivation_property(self):
        states = basis_states(2)
        for u, v in itertools.product(states, repeat=2):
            for n in range(-3, 3):
                lhs = translation(mode_action(u, n, v))
                rhs = mode_action(translation(u), n, v) + mode_action(u, n, translation(v))
                assert lhs == rhs, (u.render(), v.render(), n)

    def test_equals_l_minus_one(self):
        for a in basis_states(3):
            assert translation(a) == virasoro_mode(-1, a)


class TestBoundedCaches:
    @staticmethod
    def sweep():
        """A grade-2 Jacobi sweep, the mode images it is built from, and one
        character, all computed from empty caches."""
        modes.clear_mode_cache()
        states = basis_states(2)
        images = [mode_action(u, n, v) for u, v in itertools.product(states, repeat=2) for n in range(-2, 3)]
        defects = [
            jacobi_defect(u, v, w, r, s, t, 2)
            for u, v, w in itertools.product(states, repeat=3)
            for r, s, t in itertools.product(range(-1, 2), repeat=3)
        ]
        return images, [(d.defect, d.norm_exponent) for d in defects], character(v_state(5), 10)

    @staticmethod
    def watch_entries(monkeypatch) -> list[int]:
        """After each row stored into a mode table and each image stored into
        a row, the total of entries over the tables of `_MODE_CACHE`,
        recorded before any eviction it causes."""
        totals: list[int] = []

        def store(container, index, value):
            dict.__setitem__(container, index, value)
            totals.append(cached_entries())

        monkeypatch.setattr(modes._ModeTable, "__setitem__", store, raising=False)
        monkeypatch.setattr(modes._ModeRow, "__setitem__", store, raising=False)
        return totals

    def test_small_bound_gives_the_same_results(self, monkeypatch):
        expected = self.sweep()
        totals = self.watch_entries(monkeypatch)
        monkeypatch.setattr(modes, "_MODE_CACHE_SIZE", 64)
        assert self.sweep() == expected
        assert 0 < max(totals) <= 64
        # the character's trace series are entries of the tables, counted with their images
        assert any(pb is None for table in modes._MODE_CACHE.values() for pb, _ in entries(table))
        # tables were dropped: some store saw fewer entries than the one before
        assert any(later < earlier for earlier, later in zip(totals, totals[1:]))
        assert modes._MODE_CACHE_ENTRIES == [cached_entries()]

    def test_clear_resets_the_entry_count(self, monkeypatch):
        totals = self.watch_entries(monkeypatch)
        monkeypatch.setattr(modes, "_MODE_CACHE_SIZE", 64)
        first = self.sweep()  # sweep() starts from clear_mode_cache()
        first_totals = totals[:]
        del totals[:]
        assert self.sweep() == first
        assert totals == first_totals and max(totals) <= 64
        modes.clear_mode_cache()
        assert not modes._MODE_CACHE and modes._MODE_CACHE_ENTRIES == [0]

    def test_tables_without_images_are_counted(self, monkeypatch):
        # mode_action on the zero state makes a table and stores nothing in it
        keys = [key for grade in range(1, 26) for key in partitions_of(grade)]
        zero = HeisenbergState.zero()
        modes.clear_mode_cache()
        for key in keys:
            mode_action(HeisenbergState.monomial(key), 0, zero)
        assert len(modes._MODE_CACHE) == len(keys) == 9295
        assert modes._MODE_CACHE_ENTRIES == [cached_entries()] == [len(keys)]
        modes.clear_mode_cache()
        monkeypatch.setattr(modes, "_MODE_CACHE_SIZE", 64)
        for key in keys:
            mode_action(HeisenbergState.monomial(key), 0, zero)
        assert len(modes._MODE_CACHE) < 64
        assert modes._MODE_CACHE_ENTRIES == [cached_entries()] == [len(modes._MODE_CACHE)]

    def test_refused_wick_trace_leaves_only_counted_entries(self):
        # 22 distinct parts make 2^22 multiplicity vectors, past the limit
        key = tuple(range(22, 0, -1))
        modes.clear_mode_cache()
        with pytest.raises(ValueError, match="multiplicity vectors are too many"):
            zero_mode_trace(VAC, key, 66)
        assert list(modes._MODE_CACHE) == [(VAC.algebra, key)]
        assert entries(modes._MODE_CACHE[VAC.algebra, key]) == []
        assert modes._MODE_CACHE_ENTRIES == [cached_entries()] == [2]  # the table and its trace row

    def test_dropped_tables_and_rows_need_no_collector(self, monkeypatch):
        # subclasses that take weak references; a row that referred to its
        # table would make a cycle, which only the cyclic collector frees
        class Table(modes._ModeTable):
            pass

        class Row(modes._ModeRow):
            pass

        monkeypatch.setattr(modes, "_ModeTable", Table)
        monkeypatch.setattr(modes, "_ModeRow", Row)

        def evict():
            monkeypatch.setattr(modes, "_MODE_CACHE_SIZE", 16)
            for n in range(-4, 4):
                mode_action(HeisenbergState.monomial([3, 1]), n, HeisenbergState.monomial([2]))
            assert (HH.algebra, (1, 1)) not in modes._MODE_CACHE

        gc.disable()
        try:
            for drop in (modes.clear_mode_cache, evict):
                monkeypatch.setattr(modes, "_MODE_CACHE_SIZE", 1 << 17)
                modes.clear_mode_cache()
                mode_action(HH, -1, H)
                table = modes._MODE_CACHE[HH.algebra, (1, 1)]
                assert type(table) is Table and type(table[(1,)]) is Row and table[(1,)]
                refs = weakref.ref(table), weakref.ref(table[(1,)])
                del table
                drop()
                assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
