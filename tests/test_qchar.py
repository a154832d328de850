from __future__ import annotations

import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_voa import modes, qchar, scalars
from padic_voa.fock import HeisenbergState, grade_basis, partitions_of
from padic_voa.kummer import u_state
from padic_voa.modes import clear_mode_cache, zero_mode, zero_mode_trace
from padic_voa.qchar import (
    QSeries,
    character,
    eisenstein_G,
    eisenstein_G2_star,
    eta_series,
    normalized_character,
)
from padic_voa.virasoro import VirasoroState

from mode_store import cached_entries, entries, trace_entry
from oracles import (
    coprime_divisor_sum_brute,
    divisor_sum_brute,
    partition_counts,
    product_coeffs,
    series_inverse_coeffs,
    series_product_coeffs,
)

VAC = HeisenbergState.vacuum()
H = HeisenbergState.monomial([1])
HH = HeisenbergState.monomial([1, 1])
SERIES_COEFFICIENTS = st.one_of(
    st.just(0), st.integers(-50, 50), st.fractions(min_value=-50, max_value=50, max_denominator=60)
)


@pytest.mark.parametrize(
    "build",
    [
        eta_series,
        lambda n: normalized_character(H, n),
        lambda n: eisenstein_G(4, n),
        lambda n: eisenstein_G2_star(5, n),
    ],
    ids=["eta_series", "normalized_character", "eisenstein_G", "eisenstein_G2_star"],
)
def test_negative_order_rejected(build):
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        build(-1)


class TestQSeries:
    def test_offset_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QSeries([1, 2], Fraction(1, 24)) + QSeries([1, 2], 0)

    @pytest.mark.parametrize("coeffs", [[], (), iter([])], ids=["list", "tuple", "iterator"])
    def test_empty_series_rejected(self, coeffs):
        with pytest.raises(ValueError, match="at least the constant coefficient"):
            QSeries(coeffs)

    def test_scalar_on_either_side(self):
        series = QSeries([1, Fraction(1, 2)], Fraction(-1, 24))
        for product in (series * 4, 4 * series, series * Fraction(4)):
            assert product == QSeries([4, 2], Fraction(-1, 24))
            assert product.coeffs == (4, 2) and all(type(c) is int for c in product.coeffs)

    def test_repr(self):
        assert repr(QSeries([1, 2, 3, 4, 5, 6, 7], Fraction(-1, 24))) == "QSeries(q^(-1/24) * [1, 2, 3, 4, 5, 6, ...]; order 6)"
        assert repr(QSeries([1, Fraction(1, 2)])) == "QSeries(q^(0) * [1, 1/2]; order 1)"

    def test_multiplication_adds_offsets(self):
        a = QSeries([1, 1], Fraction(1, 24))
        b = QSeries([1, -1], Fraction(-1, 24))
        product = a * b
        assert product.offset == 0
        assert product.coeffs == (Fraction(1), Fraction(0))

    def test_norm_exponents(self):
        assert QSeries([0, 25, Fraction(1, 5), 3]).norm_exponents(5) == [-inf, -2, 1, 0]

    def test_zero_coefficients_read_the_shared_negative_infinity(self):
        exponents = QSeries([0, 3, Fraction(0)]).norm_exponents(3)
        assert exponents[0] is exponents[2] is scalars._NEG_INF

    def test_norm_exponents_reject_non_prime_on_zero_series(self):
        with pytest.raises(ValueError):
            QSeries([0, 0]).norm_exponents(4)

    def test_json_strings_are_exact(self):
        a = QSeries([Fraction(-691, 2730), 1], Fraction(-1, 24))
        assert a.to_json() == {
            "offset": "-1/24",
            "coeffs": ["-691/2730", "1"],
            "order": 1,
        }

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    )
    def test_distributive(self, xs, ys, zs):
        a, b, c = QSeries(xs), QSeries(ys), QSeries(zs)
        # truncation to the smaller order makes both sides comparable as-is
        assert (a + b) * c == a * c + b * c

    @given(
        st.lists(SERIES_COEFFICIENTS, min_size=1, max_size=9),
        st.lists(SERIES_COEFFICIENTS, min_size=1, max_size=9),
        st.fractions(max_denominator=24),
        st.fractions(max_denominator=24),
    )
    def test_product_matches_oracle(self, xs, ys, x_offset, y_offset):
        product = QSeries(xs, x_offset) * QSeries(ys, y_offset)
        assert list(product.coeffs) == series_product_coeffs(xs, ys)
        assert product.offset == x_offset + y_offset

    def test_product_unequal_orders_with_zeros(self):
        xs = [Fraction(1, 6), 0, Fraction(-25, 4), 3, 0, Fraction(7, 10)]
        ys = [0, Fraction(5, 9), 0, -2]
        product = QSeries(xs, Fraction(-1, 24)) * QSeries(ys, Fraction(1, 3))
        assert list(product.coeffs) == series_product_coeffs(xs, ys)
        assert product.offset == Fraction(7, 24)
        assert product.order == 3


def assert_stored_by_rule(series: QSeries) -> None:
    """Each stored coefficient is an int exactly when it is integral."""
    for n, c in enumerate(series.coeffs):
        assert type(c) is (int if c.denominator == 1 else Fraction), (n, c)


# test-local QSeries arithmetic on lists of Fractions, truncated to the shorter
def fraction_sum(xs: list, ys: list) -> list[Fraction]:
    return [Fraction(x) + Fraction(y) for x, y in zip(xs, ys)]


def fraction_difference(xs: list, ys: list) -> list[Fraction]:
    return [Fraction(x) - Fraction(y) for x, y in zip(xs, ys)]


def fraction_product(xs: list, ys: list) -> list[Fraction]:
    order = min(len(xs), len(ys))
    return [sum((Fraction(xs[i]) * Fraction(ys[n - i]) for i in range(n + 1)), Fraction(0)) for n in range(order)]


# a fractional state whose character sums are all integral, and one whose
# character mixes integral and fractional coefficients
INTEGRAL_SUMS = HeisenbergState({(1, 1): Fraction(1, 2), (1,): Fraction(1, 2)})
MIXED_SUMS = HeisenbergState({(): Fraction(1, 2), (1, 1): Fraction(1, 2)})


class TestStorageRule:
    """A QSeries stores each coefficient as `fock._exact` stores a state's:
    an int when it is integral, a Fraction only otherwise."""

    def test_constructor_and_arithmetic(self):
        a = QSeries([Fraction(4, 2), Fraction(1, 3), 5, Fraction(-6, 3)])
        b = QSeries([Fraction(1, 2), Fraction(2, 3), Fraction(1, 2), 7])
        assert a.coeffs == (2, Fraction(1, 3), 5, -2)
        assert [type(c) for c in a.coeffs] == [int, Fraction, int, int]
        results = (a + b, a - b, b - a, -a, -b, a.scale(3), a.scale(Fraction(3, 2)), 6 * b, a * b, b * b)
        for series in results:
            assert_stored_by_rule(series)
        assert (a + b).coeffs == (Fraction(5, 2), 1, Fraction(11, 2), 5)
        assert (a.scale(3)).coeffs == (6, 1, 15, -6)

    @pytest.mark.parametrize(
        "v",
        [H, HH, MIXED_SUMS, INTEGRAL_SUMS, HeisenbergState.zero(), u_state(5, 5)],
        ids=["h", "hh", "mixed-sums", "integral-sums", "zero", "u_5"],
    )
    def test_characters(self, v):
        assert_stored_by_rule(character(v, 8))
        assert_stored_by_rule(normalized_character(v, 8))

    def test_fractional_state_with_integral_sums(self):
        assert all(type(c) is int for c in character(INTEGRAL_SUMS, 8).coeffs)
        assert {type(c) for c in character(MIXED_SUMS, 8).coeffs} == {int, Fraction}

    def test_a_quotient_makes_a_fraction_only_when_inexact(self, monkeypatch):
        made = []

        def recording_fraction(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(qchar, "Fraction", recording_fraction)
        for v in (INTEGRAL_SUMS, MIXED_SUMS, u_state(5, 5)):
            normalized_character(v, 8)
        quotients = [args for args in made if len(args) == 2]
        assert quotients  # MIXED_SUMS and u_5 have inexact ones
        assert all(n % d for n, d in quotients)

    @pytest.mark.parametrize(
        "v",
        [
            VirasoroState.word([2, 2], Fraction(1, 3)),
            VirasoroState({(2, 2): Fraction(1, 2), (): Fraction(1, 2)}, Fraction(1, 3)),
            VirasoroState.word([3], 1),
        ],
        ids=["word-third", "mixed-third", "word-one"],
    )
    def test_virasoro_characters(self, v):
        series = character(v, 6)
        assert_stored_by_rule(series)
        traces = {key: zero_mode_trace(v, key, 6) for key in v._terms}
        expected = [sum((Fraction(c) * traces[key][n] for key, c in v.items()), Fraction(0)) for n in range(7)]
        assert list(series.coeffs) == expected

    def test_eta_and_eisenstein(self):
        for series in (eta_series(20), eisenstein_G(2, 12), eisenstein_G(12, 12), eisenstein_G2_star(5, 12)):
            assert_stored_by_rule(series)
        # (p - 1)/24 is integral at p = 73, so G_2* stores its constant as an int
        star = eisenstein_G2_star(73, 3)
        assert_stored_by_rule(star)
        assert star.coeffs[0] == 3 and type(star.coeffs[0]) is int

    @given(
        st.lists(SERIES_COEFFICIENTS, min_size=1, max_size=7),
        st.lists(SERIES_COEFFICIENTS, min_size=1, max_size=7),
        SERIES_COEFFICIENTS,
        st.fractions(max_denominator=24),
    )
    def test_arithmetic_matches_fraction_reference(self, xs, ys, scalar, offset):
        a, b = QSeries(xs, offset), QSeries(ys, offset)
        cases = [
            (a + b, fraction_sum(xs, ys)),
            (a - b, fraction_difference(xs, ys)),
            (-a, [-Fraction(x) for x in xs]),
            (a.scale(scalar), [Fraction(scalar) * x for x in xs]),
            (scalar * a, [Fraction(scalar) * x for x in xs]),
            (a * b, fraction_product(xs, ys)),
        ]
        for series, expected in cases:
            assert list(series.coeffs) == expected
            assert_stored_by_rule(series)
        assert (a * b).offset == 2 * offset and (a - b).offset == offset

    def test_coefficient_is_a_fraction(self):
        series = QSeries([3, Fraction(1, 2), 0])
        assert [type(series.coefficient(n)) for n in range(3)] == [Fraction] * 3
        assert series.coefficient(0) == 3 and series.coefficient(1) == Fraction(1, 2)

    def test_int_and_fraction_twins(self):
        assert QSeries([3]).to_json() == QSeries([Fraction(3)]).to_json() == {"offset": "0", "coeffs": ["3"], "order": 0}
        assert type(QSeries([3]).offset) is type(QSeries([3], Fraction(1, 24)).offset) is Fraction
        twin = QSeries([Fraction(3), Fraction(-8, 4), Fraction(1, 2)], Fraction(-1, 24))
        assert twin == QSeries([3, -2, Fraction(1, 2)], Fraction(-1, 24))
        assert twin.coeffs == (3, -2, Fraction(1, 2))
        assert twin.norm_exponents(2) == [0, -1, 1]


class TestEta:
    def test_first_coefficients(self):
        eta = eta_series(5)
        assert [int(c) for c in eta.coeffs] == [1, -1, -1, 0, 0, 1]
        assert eta.offset == Fraction(1, 24)

    def test_against_product_oracle(self):
        eta = eta_series(30)
        assert [int(c) for c in eta.coeffs] == product_coeffs(30)

    def test_inverse_is_one(self):
        eta = eta_series(15)
        inverse = QSeries(series_inverse_coeffs(list(eta.coeffs), 15), -eta.offset)
        assert eta * inverse == QSeries([1] + [0] * 15)


def matrix_free_character(v: HeisenbergState, n_max: int) -> list[Fraction]:
    """Test-local traces: o(v) applied as a state map to each grade-n basis
    monomial, and the diagonal coefficient read off the image."""
    o_v = zero_mode(v)
    return [
        sum((o_v(HeisenbergState.monomial(parts)).coefficient(parts) for parts in grade_basis(n)), Fraction(0))
        for n in range(n_max + 1)
    ]


INHOMOGENEOUS = HH.scale(Fraction(3, 7)) + HeisenbergState.monomial([3, 1], Fraction(-5, 2)) + VAC.scale(Fraction(1, 12))


class TestZeroModeTraceInput:
    """`zero_mode_trace` refuses what `character` and the state constructors
    refuse, in their words, before the mode cache is touched."""

    @pytest.mark.parametrize(
        "proto, key, n, same_refusal",
        [
            (VAC, (1,), -1, lambda: character(VAC, -1)),
            (VAC, (0,), 3, lambda: HeisenbergState({(0,): 1})),
            (VAC, (1, 2), 3, lambda: HeisenbergState({(1, 2): 1})),
            (VirasoroState.vacuum(1), (1,), 3, lambda: VirasoroState({(1,): 1}, 1)),
            (VirasoroState.vacuum(1), (2, 3), 3, lambda: VirasoroState({(2, 3): 1}, 1)),
        ],
        ids=["negative_order", "heisenberg_part_0", "heisenberg_unsorted", "virasoro_part_1", "virasoro_unsorted"],
    )
    def test_refused_before_the_cache(self, proto, key, n, same_refusal):
        with pytest.raises(ValueError) as expected:
            same_refusal()
        clear_mode_cache()
        with pytest.raises(ValueError) as refused:
            zero_mode_trace(proto, key, n)
        assert str(refused.value) == str(expected.value)
        assert str(refused.value) in ("n_max must be >= 0", f"not a basis key of {type(proto).__name__}: {key}")
        assert not modes._MODE_CACHE and modes._MODE_CACHE_ENTRIES == [0]


class TestCharacter:
    @pytest.mark.parametrize(
        "v, n_max",
        [
            (INHOMOGENEOUS, 8),
            (u_state(21, 5), 10),
            (HeisenbergState.zero(), 5),
        ],
        ids=["inhomogeneous", "u_21_at_5", "zero"],
    )
    def test_matches_matrix_free_trace(self, v, n_max):
        series = character(v, n_max)
        assert series.offset == Fraction(-1, 24)
        assert list(series.coeffs) == matrix_free_character(v, n_max)

    def test_clear_mode_cache_empties_the_trace_cache(self):
        v = HeisenbergState.monomial([2, 1]) + HH.scale(Fraction(1, 3))
        clear_mode_cache()
        first = character(v, 7)
        assert all(trace_entry(modes._MODE_CACHE[v.algebra, key], 7) is not None for key in v._terms)
        clear_mode_cache()
        assert not modes._MODE_CACHE and modes._MODE_CACHE_ENTRIES == [0]
        assert character(v, 7) == first

    def test_heisenberg_character_writes_counted_trace_entries(self):
        # a Wick series is the entry n of its key's trace row, counted like an
        # image, and the table and the row count one entry each
        clear_mode_cache()
        character(INHOMOGENEOUS, 6)
        assert list(modes._MODE_CACHE) == [(INHOMOGENEOUS.algebra, key) for key in INHOMOGENEOUS._terms]
        for key in INHOMOGENEOUS._terms:
            table = modes._mode_table(INHOMOGENEOUS, key)
            assert entries(table) == [(None, 6)] and trace_entry(table, 6) == zero_mode_trace(INHOMOGENEOUS, key, 6)
        assert modes._MODE_CACHE_ENTRIES == [cached_entries()] == [3 * len(INHOMOGENEOUS)]

    def test_trace_cache_drops_its_oldest_entries(self, monkeypatch):
        # three tables of three entries (the table, its trace row and the one
        # series) under a bound of six: the series go with their tables
        expected = QSeries(matrix_free_character(INHOMOGENEOUS, 6), Fraction(-1, 24))
        clear_mode_cache()
        assert character(INHOMOGENEOUS, 6) == expected
        clear_mode_cache()
        monkeypatch.setattr(modes, "_MODE_CACHE_SIZE", 6)
        assert character(INHOMOGENEOUS, 6) == expected
        assert list(modes._MODE_CACHE) == [(INHOMOGENEOUS.algebra, ())]
        assert modes._MODE_CACHE_ENTRIES == [cached_entries()] == [3]

    @pytest.mark.parametrize("v", [INHOMOGENEOUS, VirasoroState({(2, 2): 1, (3,): Fraction(1, 2)}, Fraction(1, 3))])
    def test_lower_order_reads_a_prefix_of_the_cached_series(self, v):
        clear_mode_cache()
        higher = character(v, 8)
        assert character(v, 5).coeffs == higher.coeffs[:6]
        for key in v._terms:
            table = modes._MODE_CACHE[v.algebra, key]
            series = zero_mode_trace(v, key, 3)
            assert series == trace_entry(table, 8)[:4]
            assert type(series) is tuple and trace_entry(table, 3) is series and zero_mode_trace(v, key, 3) is series
        assert modes._MODE_CACHE_ENTRIES == [cached_entries()]

    @pytest.mark.parametrize("v", [INHOMOGENEOUS, VirasoroState({(2, 2): 1, (3,): Fraction(1, 2)}, Fraction(1, 3))])
    def test_each_order_has_its_own_entry(self, v):
        clear_mode_cache()
        lower = character(v, 3)
        higher = character(v, 9)
        assert higher.coeffs[:4] == lower.coeffs
        for key in v._terms:
            table = modes._MODE_CACHE[v.algebra, key]
            assert [n for pb, n in entries(table) if pb is None] == [3, 9]
            assert all(type(trace_entry(table, n)) is tuple and len(trace_entry(table, n)) == n + 1 for n in (3, 9))
        clear_mode_cache()
        assert character(v, 9) == higher

    def test_repeated_virasoro_character_computes_nothing(self, monkeypatch):
        v = VirasoroState({(2, 2): 1, (3,): Fraction(1, 2)}, Fraction(1, 3))
        clear_mode_cache()
        first = character(v, 8)
        calls = []
        missing_row, missing_image = modes._ModeTable.__missing__, modes._ModeRow.__missing__
        monkeypatch.setattr(modes._ModeTable, "__missing__", lambda table, pb: calls.append(pb) or missing_row(table, pb))
        monkeypatch.setattr(modes._ModeRow, "__missing__", lambda row, n: calls.append((row.pb, n)) or missing_image(row, n))
        assert character(v, 8) == first and calls == []
        character(v, 9)  # the spy sees a new order
        assert (None, 9) in calls

    def test_vacuum_counts_partitions(self):
        series = character(VAC, 10)
        assert series.offset == Fraction(-1, 24)
        assert [int(c) for c in series.coeffs] == [len(grade_basis(n)) for n in range(11)]

    @pytest.mark.parametrize("cprime", [0, 1, 12])
    def test_virasoro_vacuum_offset_and_counts(self, cprime):
        # q^(-c/24) with c = 2c', and the PBW words of grade n counted: parts >= 2
        series = character(VirasoroState.vacuum(cprime), 12)
        assert series.offset == Fraction(-cprime, 12)
        assert list(series.coeffs) == partition_counts(12, min_part=2)

    def test_square_state(self):
        series = character(HH, 4)
        assert [int(c) for c in series.coeffs] == [
            2 * n * len(grade_basis(n)) for n in range(5)
        ]

    def test_generator_traces_vanish(self):
        series = character(H, 6)
        assert all(c == 0 for c in series.coeffs)

    def test_weight_one_state_has_no_vacuum_trace(self):
        assert character(HeisenbergState.monomial([2]), 0).coeffs[0] == 0

    def test_linearity(self):
        u = HH
        v = HeisenbergState.monomial([2, 2])
        a, b = Fraction(3, 5), Fraction(-7, 2)
        combined = character(u.scale(a) + v.scale(b), 6)
        split = character(u, 6).scale(a) + character(v, 6).scale(b)
        assert combined == split

    def test_trace_matches_full_matrix(self):
        # second evaluation path: materialize the matrix of o(v) on the
        # grade basis and sum its diagonal
        v = HeisenbergState.monomial([2, 1]) + HH.scale(Fraction(1, 3))
        o_v = zero_mode(v)
        series = character(v, 6)
        for n in range(7):
            basis = grade_basis(n)
            matrix = [
                [o_v(HeisenbergState.monomial(col)).coefficient(row) for col in basis]
                for row in basis
            ]
            diagonal = sum(matrix[i][i] for i in range(len(basis)))
            assert diagonal == series.coeffs[n]

    def test_normalized_vacuum_character_is_one(self):
        assert normalized_character(VAC, 12) == QSeries([1] + [0] * 12)
        assert normalized_character(HH, 8).offset == 0

    def test_normalized_character_rejects_virasoro(self):
        # eta * Z(v0) would sit at offset -1/24, not the promised 0
        with pytest.raises(ValueError, match="Heisenberg characters only"):
            normalized_character(VirasoroState.vacuum(1), 4)

    def test_mixed_state_is_the_per_key_trace_sum(self):
        v = HeisenbergState({(2, 1): 3, (1, 1): Fraction(-5, 6), (3,): Fraction(7, 10), (): 2, (2, 2): Fraction(1, 15)})
        assert {type(c) for c in v._terms.values()} == {int, Fraction}
        expected = [sum(c * zero_mode_trace(v, key, 9)[n] for key, c in v.items()) for n in range(10)]
        assert list(character(v, 9).coeffs) == expected

    @pytest.mark.parametrize("cprime", [Fraction(1, 2), Fraction(1, 3)])
    def test_virasoro_state_is_the_per_key_trace_sum(self, cprime):
        # at c' = 1/3 the traces themselves are Fractions, e.g. 26/3 for L(-2)^2 v0 at grade 2
        v = VirasoroState({(2, 2): Fraction(3, 4), (4, 2): -2, (3,): Fraction(5, 9), (): 1}, cprime)
        expected = [sum(c * zero_mode_trace(v, key, 8)[n] for key, c in v.items()) for n in range(9)]
        series = character(v, 8)
        assert list(series.coeffs) == expected
        assert series.offset == -cprime / 12

    @pytest.mark.parametrize(
        "v",
        [
            HeisenbergState({(2, 1, 1): 1, (1, 1, 1, 1): Fraction(2, 3), (2, 2, 1): -3, (3, 1, 1): 5}),
            VirasoroState({(2, 2): 1, (3, 2): Fraction(-1, 2)}, Fraction(1, 3)),
        ],
        ids=["heisenberg_three_and_four_parts", "virasoro_at_one_third"],
    )
    def test_trace_reads_the_diagonal_off_the_front(self, v):
        # in these images the pb entry is not always the first one, so the
        # trace must scan for it; o(v) applied as a state map reads it by key
        o_v = zero_mode(v)
        expected = [
            sum((o_v(v._with({pb: 1})).coefficient(pb) for pb in partitions_of(n, v.WEIGHT)), Fraction(0))
            for n in range(8)
        ]
        assert list(character(v, 7).coeffs) == expected

    @pytest.mark.parametrize(
        "key, n_max",
        [
            pytest.param(key, n_max, id="-".join(map(str, key)) or "vac")
            for key, n_max in [(key, 10) for g in range(8) for key in partitions_of(g)]
            + [((k, 1), 12) for k in (11, 21, 51, 101)]
            # the smaller half of the parts sums to more than n_max
            + [((3, 3, 2, 2), 3), ((4, 3, 2, 1), 2)]
        ],
    )
    def test_heisenberg_trace_matches_the_state_map(self, key, n_max):
        # zero_mode_trace sums Wick pairings; o(v) applied through mode_action
        # reads each diagonal entry off the engine's image instead
        clear_mode_cache()
        v = HeisenbergState.monomial(key)
        assert list(zero_mode_trace(v, key, n_max)) == matrix_free_character(v, n_max)

    def test_order_limit(self):
        # the zero state sums no traces, so the largest order is cheap
        assert character(HeisenbergState.zero(), qchar._MAX_ORDER).order == qchar._MAX_ORDER
        for v in (VAC, VirasoroState.vacuum(1)):
            with pytest.raises(ValueError, match="too large for a character"):
                character(v, qchar._MAX_ORDER + 1)

    def test_wick_vector_limit(self, monkeypatch):
        # (6, 5, 4, 1, 1, 1) has 2 * 2 * 2 * 4 = 32 multiplicity vectors; keys
        # whose trace is zero by degree (odd length, or d > n) are not counted
        v = HeisenbergState.monomial([6, 5, 4, 1, 1, 1])
        clear_mode_cache()
        expected = character(v, 8)
        monkeypatch.setattr(modes, "_MAX_WICK_VECTORS", 32)
        clear_mode_cache()
        assert character(v, 8) == expected
        monkeypatch.setattr(modes, "_MAX_WICK_VECTORS", 31)
        clear_mode_cache()
        with pytest.raises(ValueError, match="32 multiplicity vectors are too many for a Wick trace"):
            character(v, 8)
        assert list(character(v, 2).coeffs) == [0, 0, 0]
        assert list(character(HeisenbergState.monomial([6, 5, 4, 1, 1]), 8).coeffs) == [0] * 9

    def test_virasoro_order_limit(self):
        assert qchar._MAX_VIRASORO_ORDER < qchar._MAX_ORDER
        with pytest.raises(ValueError, match="too large for a character"):
            character(VirasoroState({(2, 2): 1}, 1), qchar._MAX_VIRASORO_ORDER + 1)


class TestEisenstein:
    def test_weight_two(self):
        series = eisenstein_G(2, 4)
        assert [str(c) for c in series.coeffs] == ["-1/24", "1", "3", "4", "7"]

    def test_weight_four_constant(self):
        assert eisenstein_G(4, 0).coeffs[0] == Fraction(1, 240)

    def test_divisor_sums(self):
        assert eisenstein_G(4, 39).coeffs[6] == 252
        for k in (1, 3, 5):
            series = eisenstein_G(k + 1, 39)
            for n in range(1, 40):
                assert series.coeffs[n] == divisor_sum_brute(n, k)

    def test_pair_series_is_the_weight_two_series(self):
        # the contraction of two h(-1) slots is E_{1,1} = 2 (G_2 - G_2(0)), G_2(0) = -1/24
        for n in (0, 1, 30):
            g2 = eisenstein_G(2, n) - QSeries([-Fraction(1, 24)] + [0] * n)
            assert modes._pair_series(1, 1, n) == [2 * c for c in g2.coeffs]

    def test_order_limit_for_the_weight(self):
        # sigma_1999(142) has 4,303 digits, past the limit of 4,300
        with pytest.raises(ValueError, match="q-order 142 is too large for an Eisenstein series of weight 2000"):
            eisenstein_G(2000, 142)
        # refused by bit length: raising 10^4000 to the power 1999 takes seconds
        with pytest.raises(ValueError, match="too large for an Eisenstein series of weight 2000"):
            eisenstein_G(2000, 10**4000)
        assert eisenstein_G(4, 3).coeffs[3] == 28

    def test_order_limit(self):
        assert eisenstein_G(4, qchar._MAX_EISENSTEIN_ORDER).order == qchar._MAX_EISENSTEIN_ORDER
        for build in (lambda n: eisenstein_G(4, n), lambda n: eisenstein_G2_star(5, n)):
            with pytest.raises(ValueError, match=r"too large for an Eisenstein series \(limit 10000\)"):
                build(qchar._MAX_EISENSTEIN_ORDER + 1)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            eisenstein_G(3, 5)
        with pytest.raises(ValueError):
            eisenstein_G(0, 5)

    def test_star_coefficients(self):
        series = eisenstein_G2_star(5, 6)
        assert series.coeffs[5] == 1
        assert series.coeffs[1] == 1
        assert eisenstein_G2_star(3, 4).coeffs[4] == 7
        for p in (3, 5, 7):
            full = eisenstein_G2_star(p, 20)
            for n in range(1, 21):
                assert full.coeffs[n] == coprime_divisor_sum_brute(n, p)

    def test_star_constant_term(self):
        # constant of the p-stabilization G_2(q) - p G_2(q^p)
        for p in (3, 5, 7):
            assert eisenstein_G2_star(p, 0).coeffs[0] == Fraction(p - 1, 24)

    def test_star_is_p_stabilized_g2(self):
        for p in (3, 5):
            n_max = 2 * p * p
            g2 = eisenstein_G(2, n_max)
            stabilized = list(g2.coeffs)
            for n in range(n_max + 1):
                if n % p == 0 and n // p <= n_max:
                    stabilized[n] -= p * g2.coeffs[n // p]
            assert list(eisenstein_G2_star(p, n_max).coeffs) == stabilized

    def test_rejects_bad_prime(self):
        with pytest.raises(ValueError):
            eisenstein_G2_star(2, 5)
        with pytest.raises(ValueError):
            eisenstein_G2_star(9, 5)


def random_states(cls, grades, p, count, seed, *args):
    """`count` seeded nonzero states of 1-4 basis keys of grade <= grades,
    each coefficient an integer in [-30, 30] times a power p^j, -3 <= j <= 2."""
    rng = random.Random(seed)
    keys = [key for n in range(grades + 1) for key in partitions_of(n, cls.WEIGHT)]
    states = []
    while len(states) < count:
        terms = {
            key: Fraction(rng.randint(-30, 30)) * Fraction(p) ** rng.randint(-3, 2)
            for key in rng.sample(keys, rng.randint(1, 4))
        }
        state = cls(terms, *args)
        if state:
            states.append(state)
    return states


class TestContraction:
    """The character map does not increase the sup norm: Wick traces are
    integer products times p(n), eta has integer coefficients, and Virasoro
    traces lie in Z[c'].  So |f(v)|_p <= |v|_p at every q-order."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_heisenberg_normalized_character(self, p):
        for v in random_states(HeisenbergState, 8, p, 75, 100 + p):
            assert max(normalized_character(v, 20).norm_exponents(p)) <= v.sup_norm_exponent(p), v

    @pytest.mark.parametrize("cprime", [0, 1, 12, -3])
    def test_virasoro_character_at_integral_charge(self, cprime):
        for i, p in enumerate([2, 3, 5, 7]):
            for v in random_states(VirasoroState, 6, p, 4 if i else 3, 200 + 10 * p + cprime, cprime):
                assert max(character(v, 12).norm_exponents(p)) <= v.sup_norm_exponent(p), v

    def test_bound_is_met_with_equality(self):
        # the vacuum's character is eta / eta = 1, with the vacuum's norm
        for p in (2, 3, 5, 7):
            v = VAC.scale(Fraction(1, p**2))
            assert max(normalized_character(v, 20).norm_exponents(p)) == v.sup_norm_exponent(p) == 2


class TestPadicDistance:
    """The distance exponent of two series is max((a - b).norm_exponents(p))."""

    def test_identical_series(self):
        a = eisenstein_G(2, 8)
        assert max((a - a).norm_exponents(5)) == -inf

    def test_single_term(self):
        a = QSeries([0, 25, 0])
        b = QSeries([0, 0, 0])
        assert max((a - b).norm_exponents(5)) == -2

    def test_rejects_non_prime_on_identical_series(self):
        a = eisenstein_G(2, 4)
        with pytest.raises(ValueError):
            (a - a).norm_exponents(4)

    def test_offset_mismatch(self):
        with pytest.raises(ValueError):
            (QSeries([1]) - QSeries([1], Fraction(1, 24))).norm_exponents(5)
