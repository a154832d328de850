from __future__ import annotations

import contextlib
import io
import itertools
import json
from fractions import Fraction
from math import inf

import pytest

from padic_voa import modes, virasoro
from padic_voa.axioms import DefectReport, associator_defect, commutator_defect, jacobi_defect
from padic_voa.cli import main
from padic_voa.fock import HeisenbergState, grade_basis, partitions_of
from padic_voa.modes import _MODE_CACHE, _mode_table, clear_mode_cache, mode_action, residue_product_mode, virasoro_mode
from padic_voa.qchar import character
from padic_voa.virasoro import (
    VirasoroState,
    L_action,
    vir_bracket_defect,
    vir_bracket_defects,
    vir_grade_basis,
    vir_mode_action,
)

from mode_store import cached_entries
from oracles import binomial, partition_counts, rank, valuation_by_loop, virasoro_straighten

CHARGES = (0, 1, 12, Fraction(1, 2))


class TestStateBasics:
    def test_rejects_non_pbw_words(self):
        with pytest.raises(ValueError):
            VirasoroState({(1,): 1}, 1)
        with pytest.raises(ValueError):
            VirasoroState({(2, 3): 1}, 1)

    def test_word_constructor_sorts(self):
        assert VirasoroState.word([2, 3], 1) == VirasoroState.word([3, 2], 1)

    def test_repeated_words_sum(self):
        assert VirasoroState([((3, 2), 1), ((3, 2), -1)], 1).is_zero
        assert VirasoroState([((2,), 1), ((2,), 2)], 1) == VirasoroState.word([2], 1, 3)
        assert VirasoroState([((2,), Fraction(1, 2)), ((), 1), ((2,), Fraction(-1, 2))], 1) == VirasoroState.vacuum(1)

    def test_charge_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VirasoroState.vacuum(1) + VirasoroState.vacuum(2)

    def test_repr(self):
        assert repr(VirasoroState.word([2, 3], Fraction(1, 2), Fraction(2, 3))) == "VirasoroState(2/3 L(-3) L(-2) v0; c'=1/2)"
        assert repr(VirasoroState.zero(1)) == "VirasoroState(0; c'=1)"

    def test_render(self):
        state = VirasoroState.word([3, 2, 2], 1, Fraction(-1, 4))
        assert state.render() == "-1/4 L(-3) L(-2)^2 v0"

    def test_exact_storage(self):
        state = VirasoroState({(3, 2): Fraction(6, 3), (2,): Fraction(1, 2)}, Fraction(1, 2))
        assert type(state._terms[(3, 2)]) is int
        assert type(state._terms[(2,)]) is Fraction
        assert type(state.charge) is Fraction
        assert [type(c) for _, c in state.items()] == [Fraction, Fraction]
        assert type(state.coefficient([2, 3])) is Fraction

    @pytest.mark.parametrize("charge", [0, 7, Fraction(1, 2)], ids=str)
    def test_trusted_constructor_keeps_type_charge_and_algebra(self, charge):
        source = VirasoroState.word([3, 2], charge)
        terms = {(2,): Fraction(1, 3)}
        for state, expected in ((source._with(terms), terms), (source._with({}), {})):
            assert type(state) is VirasoroState
            assert state.charge == charge and type(state.charge) is type(source.charge)
            assert state.algebra == source.algebra == f"L c'={source.charge}"
            assert state._terms == expected
        assert source._with(terms)._terms is terms

    def test_integral_charge_shares_algebra_and_cache(self):
        # charge 12 is stored as the int 12 whichever type it arrives as, so
        # both states name one algebra and hit the same mode-cache keys
        a, b = VirasoroState.word([3, 2], 12), VirasoroState.word([3, 2], Fraction(12))
        assert type(a.charge) is int and type(b.charge) is int
        assert a.algebra == b.algebra
        assert a == b and a.render() == b.render() and repr(a) == repr(b)
        clear_mode_cache()
        first = [mode_action(a, n, a) for n in range(-2, 6)]
        entries = cached_entries()
        assert [mode_action(b, n, b) for n in range(-2, 6)] == first
        assert cached_entries() == entries


class TestGradedBasis:
    def test_dimensions_match_generating_function(self):
        oracle = partition_counts(10, min_part=2)
        assert [len(vir_grade_basis(n)) for n in range(11)] == oracle

    def test_grade_six(self):
        assert vir_grade_basis(6) == ((2, 2, 2), (3, 3), (4, 2), (6,))

    def test_grade_one_is_empty(self):
        assert vir_grade_basis(1) == ()

    def test_one_cache_entry_per_word_set(self):
        # the engine's trace and isometry loops ask for partitions_of(g, 2)
        # positionally; a keyword call would be a second cache key
        assert vir_grade_basis(4) is partitions_of(4, 2)


class TestLAction:
    def test_highest_weight_annihilation(self):
        for charge in CHARGES:
            v0 = VirasoroState.vacuum(charge)
            for n in range(0, 4):
                assert L_action(n, v0).is_zero

    def test_quotient_kills_translation_of_vacuum(self):
        assert L_action(-1, VirasoroState.vacuum(1)).is_zero

    def test_central_pairing(self):
        for charge in CHARGES:
            v0 = VirasoroState.vacuum(charge)
            result = L_action(2, L_action(-2, v0))
            assert result == v0.scale(charge), charge

    def test_grading_eigenvalue(self):
        for grade in range(8):
            for word in vir_grade_basis(grade):
                state = VirasoroState.word(word, 1)
                assert L_action(0, state) == state.scale(grade)

    def test_grade_shift(self):
        for n in range(-3, 4):
            for word in vir_grade_basis(5):
                image = L_action(n, VirasoroState.word(word, 12))
                if not image.is_zero:
                    assert image.weight() == 5 - n

    def test_reordering_bracket(self):
        # L(-1) L(-2) v0 = L(-2) L(-1) v0 + L(-3) v0, and the first summand
        # dies in the quotient
        got = L_action(-1, VirasoroState.word([2], 1))
        assert got == VirasoroState.word([3], 1)
        # L(-2) L(-2) v0 is already in PBW order
        assert L_action(-2, VirasoroState.word([2], 1)) == VirasoroState.word([2, 2], 1)


class TestRewriteMemo:
    """`virasoro._apply` against the straightening oracle, and the contract
    of its memo, the rows of the generator table of the mode store: bounded,
    one table per c', immutable values."""

    WORDS = [word for grade in range(7) for word in vir_grade_basis(grade)]
    CASES = [(n, word) for word in WORDS for n in range(-4, 5)]

    @staticmethod
    def check(n, word, charge):
        got = L_action(n, VirasoroState.word(word, charge))._terms
        expected = virasoro_straighten((n, *(-part for part in word)), charge)
        assert got == expected, (n, word, charge)

    def test_matches_straightening_oracle(self):
        clear_mode_cache()
        for charge in CHARGES:
            for n, word in self.CASES:
                self.check(n, word, charge)
        # charges interleaved on a warm memo: a table shared across c' would
        # hand one charge's rewrite to the next
        for n, word in self.CASES:
            for charge in CHARGES:
                self.check(n, word, charge)

    def test_values_are_tuples_and_memo_bounded(self):
        gen = _mode_table(VirasoroState.zero(1), (2,))
        assert type(virasoro._apply(2, (3, 2), gen)) is tuple
        assert type(virasoro._apply(-5, (3, 2), gen)) is tuple
        assert type(gen[(3, 2)][3]) is tuple and type(gen[(3, 2)][-4]) is tuple
        assert all(type(image) is tuple for row in gen.values() for image in row.values())
        # the rows are the rewrite's only memo, bounded by `_MODE_CACHE_SIZE`
        assert not hasattr(virasoro._apply, "cache_info")
        assert isinstance(modes._MODE_CACHE_SIZE, int)

    def test_results_do_not_share_memo_values(self):
        state = VirasoroState.word([4, 2, 2], Fraction(1, 2))
        first = L_action(2, state)
        expected = dict(first._terms)
        first._terms.clear()
        first._terms[(9,)] = 5
        assert L_action(2, state)._terms == expected

    def test_repeated_sweep_adds_no_misses(self):
        argv = ["virasoro", "--cprime", "1", "--grade", "5", "--window", "3"]
        outputs = []
        for _ in range(2):
            entries = modes._MODE_CACHE_ENTRIES[0]
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert main(argv) == 0
            outputs.append(buffer.getvalue())
        assert modes._MODE_CACHE_ENTRIES[0] == entries
        assert outputs[0] == outputs[1]

    def test_sweep_leaves_every_image_of_its_window_stored(self, monkeypatch):
        # the CLI's integrality probe reads L(n)s for every n of the window
        # after the sweep: each image is read off the generator rows, with
        # no rewrite and no new entry
        span, rewrites, rewrite = range(-3, 4), [], virasoro._apply
        monkeypatch.setattr(virasoro, "_apply", lambda *args: rewrites.append(args[:2]) or rewrite(*args))
        for word in ((), (2,), (4, 2), (3, 3, 2)):
            state = VirasoroState.word(word, Fraction(1, 3))
            list(vir_bracket_defects(state, span))
            entries, stored = modes._MODE_CACHE_ENTRIES[0], cached_entries()
            rewrites.clear()
            for n in span:
                L_action(n, state)
            assert (modes._MODE_CACHE_ENTRIES[0], cached_entries(), rewrites) == (entries, stored, []), word

    def test_clearing_the_store_drops_patched_rewrites(self, monkeypatch):
        state, span = VirasoroState.word([3, 2], 1), range(-3, 4)
        clear_mode_cache()
        expected = [L_action(n, state) for n in span]
        clear_mode_cache()
        rewrite = virasoro._apply
        monkeypatch.setattr(virasoro, "_apply", lambda n, word, gen: tuple((key, 3 * c) for key, c in rewrite(n, word, gen)))
        patched = [L_action(n, state) for n in span]
        assert patched != expected
        monkeypatch.undo()
        assert [L_action(n, state) for n in span] == patched  # still stored
        clear_mode_cache()
        assert [L_action(n, state) for n in span] == expected

    def test_a_word_of_100_parts_rewrites(self):
        # each part of the word is one level of row -> generator mode -> rewrite
        clear_mode_cache()
        state = VirasoroState.word([2] * 100, 1)
        assert L_action(0, state) == state.scale(200)
        assert vir_bracket_defect(1, -1, state).is_zero
        assert len(L_action(1, state)) == 99


class TestBracketDefect:
    def test_central_example(self):
        report = vir_bracket_defect(2, -2, VirasoroState.vacuum(12))
        assert report.is_zero

    def test_equal_modes(self):
        report = vir_bracket_defect(1, 1, VirasoroState.word([2, 2], 7))
        assert report.is_zero

    def test_sweep_small(self):
        for charge in (0, 1, 12):
            for grade in range(5):
                for word in vir_grade_basis(grade):
                    state = VirasoroState.word(word, charge)
                    for m, n in itertools.product(range(-3, 4), repeat=2):
                        report = vir_bracket_defect(m, n, state)
                        assert report.is_zero, (charge, word, m, n)

    def test_integrality_for_integer_charge(self):
        for charge in (0, 1, 12):
            for grade in range(6):
                for word in vir_grade_basis(grade):
                    state = VirasoroState.word(word, charge)
                    for n in range(-4, 5):
                        assert L_action(n, state).is_integral(), (charge, word, n)

    def test_half_integer_charge_stays_rational(self):
        state = L_action(2, L_action(-2, VirasoroState.vacuum(Fraction(1, 2))))
        assert state.coefficient([]) == Fraction(1, 2)


class TestBracketDefects:
    """`vir_bracket_defects` (each pair summed word by word from the generator
    rows) against the one-pair `vir_bracket_defect` and against the bracket
    composed on states."""

    SPAN = range(-4, 5)
    WORDS = [word for grade in range(7) for word in vir_grade_basis(grade)]

    @staticmethod
    def composed(m, n, state):
        defect = L_action(m, L_action(n, state)) - L_action(n, L_action(m, state))
        defect = defect - L_action(m + n, state).scale(m - n)
        if m + n == 0:
            defect = defect - state.scale((m + 1) * m * (m - 1) // 6 * state.charge)
        return defect

    @pytest.mark.parametrize("charge", [0, 1, 12, Fraction(1, 2), Fraction(1, 3)], ids=str)
    def test_rows_match_single_pairs(self, charge):
        for word in self.WORDS:
            state = VirasoroState.word(word, charge)
            rows = list(vir_bracket_defects(state, self.SPAN))
            assert [(m, n) for m, n, _ in rows] == list(itertools.product(self.SPAN, self.SPAN))
            for m, n, report in rows:
                single = vir_bracket_defect(m, n, state)
                assert report == single, (charge, word, m, n)
                assert report.parameters == {"m": m, "n": n, "cprime": str(state.charge)}
                assert single.defect == self.composed(m, n, state), (charge, word, m, n)

    @staticmethod
    def mirrored_pairs(rows):
        """(row, partner) for every row (m, n), m != n, whose partner (n, m)
        came earlier in the sweep."""
        first = {}
        for m, n, report in rows:
            if (n, m) in first and m != n:
                yield report, first[n, m]
            first.setdefault((m, n), report)

    def test_rows_are_plain_reports(self):
        for word in ((), (2,), (3, 2)):
            for m, n, report in vir_bracket_defects(VirasoroState.word(word, 1), (2, -1, 0, 1, -2)):
                assert type(report) is DefectReport, (word, m, n)
                assert not hasattr(report, "__dict__")
                assert report.prime == 2

    def test_mirrored_zero_row_shares_the_zero_defect(self):
        rows = list(vir_bracket_defects(VirasoroState.word([3, 2], 1), range(-2, 3)))
        mirrored = list(self.mirrored_pairs(rows))
        assert len(mirrored) == 10
        for report, partner in mirrored:
            assert report.is_zero and report.defect is partner.defect
            assert report.norm_exponent is partner.norm_exponent
            assert report.parameters is not partner.parameters

    def test_parameters_are_separate_dicts(self):
        state, span = VirasoroState.word([2, 2], 1), (1, -1, 0)
        rows = {(m, n): report for m, n, report in vir_bracket_defects(state, span)}
        rows[1, -1].parameters["m"] = "changed"
        rows[-1, 1].parameters["extra"] = 0
        assert rows[-1, 1].parameters == {"m": -1, "n": 1, "cprime": "1", "extra": 0}
        assert rows[1, -1].parameters == {"m": "changed", "n": -1, "cprime": "1"}
        assert rows[0, 1].parameters == {"m": 0, "n": 1, "cprime": "1"}
        fresh = [(m, n, report.parameters) for m, n, report in vir_bracket_defects(state, span)]
        assert fresh == [(m, n, {"m": m, "n": n, "cprime": "1"}) for m, n in itertools.product(span, span)]

    def test_rows_met_again_have_their_own_parameters(self, broken_rewrite):
        # a span that repeats a value meets rows (2, -1) and (2, 2) twice each
        rows = list(vir_bracket_defects(VirasoroState.vacuum(1), (2, -1, 2)))
        assert (rows[1][:2], rows[7][:2], rows[0][:2], rows[8][:2]) == ((2, -1), (2, -1), (2, 2), (2, 2))
        assert len({id(report.parameters) for _, _, report in rows}) == len(rows) == 9
        rows[1][2].parameters["m"] = "changed"
        assert rows[7][2].parameters == {"m": 2, "n": -1, "cprime": "1"}
        # the sweep reads nothing back from a report it has yielded, so a
        # caller that edits one row's parameters leaves every later row as a
        # fresh sweep gives it, repeated and mirrored rows included
        state, span = VirasoroState.word([3], 1), (2, -1, 2, 1, -1)
        fresh = [(m, n, report.defect, report.parameters) for m, n, report in vir_bracket_defects(state, span)]
        assert sum(not defect.is_zero for _, _, defect, _ in fresh) == 16
        seen = []
        for m, n, report in vir_bracket_defects(state, span):
            seen.append((m, n, report.defect, dict(report.parameters)))
            report.parameters["m"] = "changed"
            report.parameters["extra"] = 0
        assert seen == fresh

    def test_empty_window_checks_prime(self):
        with pytest.raises(ValueError, match="prime required, got 4"):
            list(vir_bracket_defects(VirasoroState.vacuum(1), [], 4))
        with pytest.raises(ValueError, match="prime required, got 1"):
            next(vir_bracket_defects(VirasoroState.zero(1), range(-1, 2), 1))
        assert list(vir_bracket_defects(VirasoroState.vacuum(1), [], 5)) == []

    @pytest.fixture
    def broken_rewrite(self, monkeypatch):
        """A rewrite that doubles every L(1) image of a nonempty word, so that
        most defects are nonzero."""
        rewrite = virasoro._apply

        def broken(n, word, gen):
            images = rewrite(n, word, gen)
            return tuple((key, 2 * c) for key, c in images) if n == 1 and word else images

        clear_mode_cache()
        monkeypatch.setattr(virasoro, "_apply", broken)
        yield
        clear_mode_cache()  # the mode tables hold rewrites made through `broken`

    @pytest.mark.parametrize(
        "span",
        [range(3, -4, -1), (2, -3, 0, 3, -1, 1, -2), (2, -1, 2, 0, -1, 2)],
        ids=["reversed", "shuffled", "repeated"],
    )
    def test_rows_match_single_pairs_in_any_span_order(self, span, broken_rewrite):
        # D(n, m) = -D(m, n) for any rewrite, so each row read from the other
        # order equals the pair computed on its own
        nonzero = 0
        for charge in (1, Fraction(1, 3)):
            for word in ((), (2,), (3, 2), (4,)):
                state = VirasoroState.word(word, charge)
                rows = list(vir_bracket_defects(state, span))
                assert [(m, n) for m, n, _ in rows] == list(itertools.product(span, span))
                for m, n, report in rows:
                    assert report == vir_bracket_defect(m, n, state), (charge, word, m, n)
                    assert report.parameters == {"m": m, "n": n, "cprime": str(charge)}
                    nonzero += not report.is_zero
        assert nonzero >= 40  # the broken rewrite leaves defects to compare

    @pytest.mark.parametrize("span", [(1, 2), (3, 1), (-1, -2), (-3,), (4,)], ids=str)
    def test_one_signed_spans(self, span, broken_rewrite):
        # a pair reads the rows L(m)w and L(n)w as well as L(m+n)w, on the
        # positive and on the negative side alike
        for word in ((), (2,), (3, 2)):
            state = VirasoroState.word(word, 1)
            rows = list(vir_bracket_defects(state, span))
            assert [(m, n) for m, n, _ in rows] == list(itertools.product(span, span))
            for m, n, report in rows:
                assert report == vir_bracket_defect(m, n, state), (word, m, n)

    def test_mirrored_nonzero_row_negates_its_own_copy(self, broken_rewrite):
        nonzero = 0
        for word in ((2,), (3, 2), (4,)):
            rows = list(vir_bracket_defects(VirasoroState.word(word, 1), range(-3, 4)))
            for report, partner in self.mirrored_pairs(rows):
                assert report.defect == -partner.defect
                assert report.norm_exponent == partner.norm_exponent
                if not partner.is_zero:
                    nonzero += 1
                    assert report.defect is not partner.defect
                    assert report.defect._terms is not partner.defect._terms
                    assert report.defect != partner.defect
        assert nonzero >= 10

    # sums of several words, with negative and fractional coefficients; the
    # images of (4,) and (2, 2) share keys
    SUMS = (
        {(4,): Fraction(-3, 2), (2, 2): 5},
        {(4,): Fraction(2, 3), (2, 2): Fraction(-1, 4), (3,): 7, (): -2},
        {(3, 2): -1, (5,): Fraction(1, 2), (2,): Fraction(-5, 3)},
    )

    @pytest.mark.parametrize("charge", [1, Fraction(1, 3)], ids=str)
    def test_sums_of_words(self, charge, broken_rewrite):
        # each word enters the defect scaled by its own coefficient
        span, nonzero = range(-3, 4), 0
        for terms in self.SUMS:
            state = VirasoroState(terms, charge)
            for m, n, report in vir_bracket_defects(state, span):
                assert report == vir_bracket_defect(m, n, state), (charge, terms, m, n)
                assert report.defect == self.composed(m, n, state), (charge, terms, m, n)
                nonzero += not report.is_zero
        assert nonzero >= 30  # the broken rewrite leaves defects to compare

    def test_no_image_state(self, monkeypatch, broken_rewrite):
        # both kernels read the generator rows word by word: neither builds
        # an image L(k)s as a state
        span = range(-3, 4)
        sums = ({(): 1}, {(3, 2): 1}, *self.SUMS)
        states = [VirasoroState(terms, charge) for charge in (1, Fraction(1, 3)) for terms in sums]

        def reports(state):
            singles = [(m, n, vir_bracket_defect(m, n, state)) for m, n in itertools.product(span, span)]
            return singles, list(vir_bracket_defects(state, span))

        expected = [reports(state) for state in states]
        assert sum(not report.is_zero for _, rows in expected for _, _, report in rows) >= 60

        def forbidden(*args):
            raise AssertionError("a bracket defect must not build an image state")

        clear_mode_cache()
        monkeypatch.setattr(virasoro, "L_action", forbidden)
        monkeypatch.setattr(virasoro, "h_mode", forbidden)
        assert [reports(state) for state in states] == expected

    def test_one_shot_iterator(self):
        state = VirasoroState({(4,): Fraction(-3, 2), (2, 2): 5}, 1)
        rows = list(vir_bracket_defects(state, iter(range(-2, 3))))
        assert len(rows) == 25
        assert rows == list(vir_bracket_defects(state, range(-2, 3)))

    @pytest.mark.parametrize("span", [range(-3, 4), range(3, -4, -1), (2, -3, 0), (1, 1, -1, 1)], ids=str)
    def test_each_unordered_pair_is_summed_once(self, span, monkeypatch):
        pairs, kernel = [], virasoro._bracket_defect

        def counted(m, n, *args):
            pairs.append((m, n))
            return kernel(m, n, *args)

        monkeypatch.setattr(virasoro, "_bracket_defect", counted)
        values = set(span)
        for word in ((), (2,), (3, 2)):
            pairs.clear()
            assert len(list(vir_bracket_defects(VirasoroState.word(word, 1), span))) == len(span) ** 2
            assert len(pairs) == len(values) * (len(values) + 1) // 2
            assert {frozenset(pair) for pair in pairs} == {frozenset(pair) for pair in itertools.product(values, values)}

    def test_sweep_sums_each_unordered_pair_once(self, monkeypatch):
        # 5 PBW words of grade <= 4, 5 * 6 / 2 = 15 unordered pairs each (25 rows)
        calls, kernel = [], virasoro._bracket_defect
        monkeypatch.setattr(virasoro, "_bracket_defect", lambda *args: calls.append(args[:2]) or kernel(*args))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["virasoro", "--grade", "4", "--window", "2"]) == 0
        assert json.loads(out.getvalue())["checks"] == 125
        assert len(calls) == 75

    def test_a_broken_relation_is_reported(self, monkeypatch):
        # L(2) L(-2) v0 rewritten to (c' + 1) v0 instead of c' v0 leaves the
        # (2, -2) defect v0 on the vacuum: every route must report it
        rewrite = virasoro._apply

        def broken(n, word, gen):
            if (n, word) == (2, (2,)):
                return (((), gen.proto.charge + 1),)
            return rewrite(n, word, gen)

        clear_mode_cache()
        monkeypatch.setattr(virasoro, "_apply", broken)
        try:
            v0 = VirasoroState.vacuum(1)
            report = vir_bracket_defect(2, -2, v0)
            assert report.defect == v0 and report.norm_exponent == 0
            rows = {(m, n): row for m, n, row in vir_bracket_defects(v0, range(-2, 3))}
            assert rows[2, -2] == report
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert main(["virasoro", "--grade", "2", "--window", "2"]) == 1
            payload = json.loads(buffer.getvalue())
            row = {"word": "1 v0", "m": 2, "n": -2, "cprime": "1", "norm_exponent": 0}
            assert row in payload["violations"] and not payload["all_ok"]
        finally:
            clear_mode_cache()  # the mode tables hold rewrites made through `broken`


class TestVirModeAction:
    def test_vacuum_mode_is_identity(self):
        b = VirasoroState.word([3, 2], 1)
        assert vir_mode_action(VirasoroState.vacuum(1), -1, b) == b
        assert vir_mode_action(VirasoroState.vacuum(1), 0, b).is_zero

    def test_conformal_vector_grading_mode(self):
        omega = VirasoroState.word([2], 1)
        for grade in range(6):
            for word in vir_grade_basis(grade):
                b = VirasoroState.word(word, 1)
                assert vir_mode_action(omega, 1, b) == b.scale(grade)

    def test_central_charge_mode_identity(self):
        for charge in CHARGES:
            omega = VirasoroState.word([2], charge)
            got = vir_mode_action(omega, 3, omega)
            assert got == VirasoroState.vacuum(charge, charge)

    def test_modes_match_l_action(self):
        omega = VirasoroState.word([2], 12)
        for n in range(-4, 5):
            for grade in range(5):
                for word in vir_grade_basis(grade):
                    b = VirasoroState.word(word, 12)
                    assert vir_mode_action(omega, n + 1, b) == L_action(n, b)

    def test_charge_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vir_mode_action(VirasoroState.vacuum(1), -1, VirasoroState.vacuum(2))


def vir_jacobi_defect(u, v, w, r, s, t):
    lhs = VirasoroState.zero(u.charge)
    for i in range(max(0, u.max_weight() + v.max_weight() - t)):
        product = vir_mode_action(u, t + i, v)
        if product:
            lhs = lhs + vir_mode_action(product, r + s - i, w).scale(binomial(r, i))
    rhs = VirasoroState.zero(u.charge)
    t_sign = -1 if t % 2 else 1
    first = v.max_weight() + w.max_weight() - s
    second = u.max_weight() + w.max_weight() - r
    for i in range(max(0, first, second)):
        coeff = (-1 if i % 2 else 1) * binomial(t, i)
        if coeff == 0:
            continue
        if i < first:
            inner = vir_mode_action(v, s + i, w)
            if inner:
                rhs = rhs + vir_mode_action(u, r + t - i, inner).scale(coeff)
        if i < second:
            inner = vir_mode_action(u, r + i, w)
            if inner:
                rhs = rhs - vir_mode_action(v, s + t - i, inner).scale(coeff * t_sign)
    return lhs - rhs


class TestVirasoroJacobi:
    def test_generator_triple(self):
        omega = VirasoroState.word([2], 12)
        v0 = VirasoroState.vacuum(12)
        for r, s, t in itertools.product(range(-2, 3), repeat=3):
            defect = vir_jacobi_defect(omega, omega, v0, r, s, t)
            assert defect.is_zero, (r, s, t)


def vir_basis(charge, grade: int = 3):
    return [VirasoroState.word(word, charge) for g in range(grade + 1) for word in vir_grade_basis(g)]


class TestSharedEngine:
    """The generic axioms and residue products of the shared engine, run on
    Virasoro states; `vir_jacobi_defect` above is the independent oracle."""

    @pytest.mark.parametrize("charge", CHARGES)
    def test_jacobi_matches_oracle(self, charge):
        basis = vir_basis(charge)
        for u, v, w in itertools.product(basis, repeat=3):
            for r, s, t in itertools.product(range(-1, 2), repeat=3):
                report = jacobi_defect(u, v, w, r, s, t)
                assert report.is_zero, (u, v, w, r, s, t)
                assert report.defect == vir_jacobi_defect(u, v, w, r, s, t)

    @pytest.mark.parametrize("charge", CHARGES)
    def test_commutator_and_associator(self, charge):
        basis = vir_basis(charge)
        for u, v, w in itertools.product(basis, repeat=3):
            for r, s in itertools.product(range(-1, 2), repeat=2):
                assert commutator_defect(u, v, w, r, s).is_zero, (u, v, w, r, s)
                assert associator_defect(u, v, w, r, s).is_zero, (u, v, w, r, s)

    @pytest.mark.parametrize("charge", CHARGES)
    def test_residue_product_matches_composed_modes(self, charge):
        basis = vir_basis(charge, 4)
        mixed = VirasoroState({(4,): 3, (2, 2): Fraction(-1, 2)}, charge)
        for a, b, w in itertools.product(basis[:4] + [mixed], repeat=3):
            for t, n in itertools.product(range(-2, 3), repeat=2):
                composed = mode_action(mode_action(a, t, b), n, w)
                assert residue_product_mode(a, b, t, n, w) == composed, (a, b, w, t, n)

    def test_cache_keyed_by_algebra(self):
        # the basis key (2,) is L(-2)v0 at each charge and h(-2)|0> in the
        # Heisenberg algebra; each algebra must get its own mode table for it,
        # whichever algebra filled the cache first
        cases = [
            (VirasoroState.word([2], c), VirasoroState.word([3, 2], c)) for c in (1, 12, 0, Fraction(1, 2))
        ] + [(HeisenbergState.monomial([2]), HeisenbergState.monomial([3, 2]))]

        def modes(v, b):
            return [mode_action(v, n, b) for n in range(-2, 5)]

        fresh = []
        for v, b in cases:
            clear_mode_cache()
            fresh.append(modes(v, b))
        for order in (cases, cases[::-1]):
            clear_mode_cache()
            got = [modes(v, b) for v, b in order]
            assert got == [fresh[cases.index(case)] for case in order]
        assert len({id(_MODE_CACHE[v.algebra, (2,)]) for v, _ in cases}) == len(cases)

    def test_mixed_algebras_rejected(self):
        vir1, vir2 = VirasoroState.word([2], 1), VirasoroState.word([2], 2)
        heis = HeisenbergState.monomial([2])
        for a, b in ((heis, vir1), (vir1, heis), (vir1, vir2)):
            with pytest.raises(ValueError):
                mode_action(a, 0, b)
            with pytest.raises(ValueError):
                a + b
            with pytest.raises(ValueError):
                jacobi_defect(a, b, b, 0, 0, 0)
            with pytest.raises(ValueError):
                residue_product_mode(a, a, 0, 0, b)


def feigin_fuchs_vector(lam) -> HeisenbergState:
    """w_lam = 1/2 h(-1)^2|0> + lam h(-2)|0>, a conformal vector of the
    Heisenberg algebra of central charge 1 - 12 lam^2, so c' = 1/2 - 6 lam^2;
    lam h(-2) = lam D h(-1) leaves L(-1) the translation, so L(-1)|0> = 0."""
    return HeisenbergState({(1, 1): Fraction(1, 2), (2,): lam})


def phi(state: VirasoroState, conformal: HeisenbergState | None = None) -> HeisenbergState:
    """L(-n1)...L(-nk)v0 -> L_H(-n1)...L_H(-nk)|0>, with L_H(n) the modes of
    a Heisenberg conformal vector, extended linearly: by default
    `virasoro_mode`, those of 1/2 h(-1)^2|0>, else `mode_action` of
    `conformal`.  At the conformal vector's c' (1/2 by default) this is a map
    of vertex algebras."""
    out = HeisenbergState.zero()
    for word, c in state.items():
        image = HeisenbergState.vacuum()
        for n in reversed(word):
            image = virasoro_mode(-n, image) if conformal is None else mode_action(conformal, 1 - n, image)
        out = out + image.scale(c)
    return out


def phi_failures(charge, grade: int, conformal: HeisenbergState | None = None) -> tuple[int, int]:
    """(checks, failures) of phi(u(n)v) == phi(u)(n) phi(v) over every pair of
    PBW words u, v of grade <= `grade` and -3 <= n < wt u + wt v."""
    words = vir_basis(charge, grade)
    images = [phi(u, conformal) for u in words]
    checks = failures = 0
    for (u, phi_u), (v, phi_v) in itertools.product(zip(words, images), repeat=2):
        for n in range(-3, u.weight() + v.weight()):
            checks += 1
            failures += phi(mode_action(u, n, v), conformal) != mode_action(phi_u, n, phi_v)
    return checks, failures


def phi_ranks(charge, conformal: HeisenbergState | None = None) -> tuple[list[int], list[int]]:
    """(ranks, words): at each grade g <= 12, the rank of the images of the
    PBW words, read on the Heisenberg keys of grade g, and their number."""
    ranks, words = [], []
    for g in range(13):
        images = [phi(VirasoroState.word(word, charge), conformal) for word in vir_grade_basis(g)]
        ranks.append(rank([[image.coefficient(key) for key in grade_basis(g)] for image in images]))
        words.append(len(images))
    return ranks, words


FEIGIN_FUCHS = (0, 1, Fraction(1, 2), Fraction(1, 3), 2, Fraction(-3, 5), Fraction(1, 12))


class TestHeisenbergEmbedding:
    """The Virasoro algebra at c' = 1/2 inside the Heisenberg algebra: one
    oracle for both engines, which sees a change that keeps either one a
    vertex algebra, such as a scaled central term (only another c').  The
    Feigin-Fuchs vectors w_lam carry it to c' = 1/2 - 6 lam^2, so that the
    Virasoro rewrite is checked at seven charges."""

    def test_modes_commute_with_phi(self):
        assert phi_failures(Fraction(1, 2), 6) == (1397, 0)

    def test_doubled_central_charge_is_caught(self):
        assert phi_failures(1, 4) == (205, 52)

    @pytest.mark.parametrize("p, exponent", [(2, 4), (3, 0), (5, 0)])
    def test_largest_image_norm(self, p, exponent):
        # phi is a contraction for odd p; at p = 2 the 1/2 in the conformal vector shows
        assert max(phi(u).sup_norm_exponent(p) for u in vir_basis(Fraction(1, 2), 8)) == exponent

    def test_phi_is_injective(self):
        # at each grade g <= 12 the images of the PBW words, read on the
        # Heisenberg keys of grade g, have full rank
        ranks, words = phi_ranks(Fraction(1, 2))
        assert ranks == words == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12, 14, 21]

    @pytest.mark.parametrize("lam", FEIGIN_FUCHS, ids=str)
    def test_feigin_fuchs_modes_commute_with_phi(self, lam):
        assert phi_failures(Fraction(1, 2) - 6 * Fraction(lam) ** 2, 5, feigin_fuchs_vector(lam)) == (469, 0)

    @pytest.mark.parametrize("lam", FEIGIN_FUCHS, ids=str)
    def test_feigin_fuchs_shifted_charge_is_caught(self, lam):
        assert phi_failures(Fraction(3, 2) - 6 * Fraction(lam) ** 2, 5, feigin_fuchs_vector(lam)) == (469, 154)

    @pytest.mark.parametrize("lam", FEIGIN_FUCHS, ids=str)
    def test_feigin_fuchs_phi_is_injective(self, lam):
        # the kernel of phi is an ideal: V^c is simple unless c = c_{p,q} with
        # p, q >= 2 (W. Wang, 1993), and c = 11/12 (lam = 1/12) is c_{9,8},
        # whose vacuum singular vector lies at grade (9-1)(8-1) = 56
        ranks, words = phi_ranks(Fraction(1, 2) - 6 * Fraction(lam) ** 2, feigin_fuchs_vector(lam))
        assert ranks == words == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12, 14, 21]


class TestChargeContinuity:
    """Virasoro traces lie in Z[c'], so the character is p-adically
    continuous in the charge: |Z(v, c') - Z(v, c' + p^e)| <= p^-e.  The
    offsets -c'/12 differ, so the coefficients are compared, not the series."""

    def test_distance_is_bounded_by_the_charge_distance(self):
        rows = {}  # (p, word, e) -> largest exponent of the difference through q^12
        for p, charge in ((5, 1), (3, Fraction(1, 2))):
            for word in (w for g in range(7) for w in vir_grade_basis(g)):
                near = character(VirasoroState.word(word, charge), 12).coeffs
                for e in (1, 2, 3):
                    far = character(VirasoroState.word(word, charge + p**e), 12).coeffs
                    rows[p, word, e] = max((-valuation_by_loop(a - b, p) for a, b in zip(near, far) if a != b), default=-inf)
        assert len(rows) == 66
        assert all(exponent <= -e for (_, _, e), exponent in rows.items())
        # L(-2)^2 v0 meets the bound; the vacuum and one-part words do not depend on c'
        assert [rows[p, (2, 2), e] for p in (5, 3) for e in (1, 2, 3)] == [-1, -2, -3] * 2
        constant = [exponent for (_, word, _), exponent in rows.items() if len(word) <= 1]
        assert len(constant) == 36 and all(exponent == -inf for exponent in constant)
