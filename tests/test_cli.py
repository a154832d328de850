from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shlex
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padic_voa import cli, modes
from padic_voa.cli import (
    _SUITE_DEFAULTS,
    _SWEEP_LIMITS,
    ParseError,
    _json_chunks,
    _sweep_size,
    build_parser,
    main,
    parse_state,
    render_heisenberg,
)
from padic_voa.fock import GradedState, HeisenbergState, grade_basis


def run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


class TestParser:
    def test_monomial(self):
        state = parse_state("h(-1)^2 vac")
        assert state == HeisenbergState.monomial([1, 1])
        assert state.weight() == 2

    def test_two_term_state(self):
        state = parse_state("1/2 h(-3)h(-1) vac - 1/12 vac")
        assert state.coefficient([3, 1]) == Fraction(1, 2)
        assert state.coefficient([]) == Fraction(-1, 12)

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ParseError) as excinfo:
            parse_state("h(-1 vac")
        assert excinfo.value.offset == 5

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_state("vac vac")

    def test_h_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_state("h(0) vac")

    def test_missing_vacuum(self):
        with pytest.raises(ParseError):
            parse_state("h(-1)")

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_state("h(-1)^0 vac")

    def test_one_state_from_its_terms(self, monkeypatch):
        # the terms are collected and summed by the constructor, not state by state
        def add(self, other):
            raise AssertionError("parse_state added two states")

        monkeypatch.setattr(GradedState, "__add__", add)
        state = parse_state("h(-1) h(-2) vac - 1/3 vac + h(-2)h(-1) vac")
        assert state == HeisenbergState({(2, 1): 2, (): Fraction(-1, 3)})

    def test_repeated_terms_sum(self):
        assert parse_state("h(-1) vac - h(-1) vac").is_zero
        assert parse_state("1/2 h(-2) vac + h(-1) vac + 1/2 h(-2) vac") == HeisenbergState({(2,): 1, (1,): 1})

    def test_leading_minus(self):
        state = parse_state("-1/12 vac + h(-1) vac")
        assert state.coefficient([]) == Fraction(-1, 12)

    def test_positive_creation_index_rejected(self):
        with pytest.raises(ParseError, match="not a creation index") as excinfo:
            parse_state("h(-1) h(2) vac")
        assert excinfo.value.offset == 8

    def test_mixed_generators_rejected(self):
        # the grammar has one generator; an L factor is a parse error at its offset
        with pytest.raises(ParseError) as excinfo:
            parse_state("h(-1) L(-2) vac")
        assert excinfo.value.offset == 6

    # every error kind of the grammar, with the message and offset it reports
    ERRORS = [
        ("h(-1 vac", "expected ')'", 5),
        ("1/0 vac", "zero denominator", 3),
        ("1 / 0 vac", "zero denominator", 5),
        ("h(-1)^0 vac", "exponent must be >= 1", 6),
        ("h(2) vac", "h(2) is not a creation index", 2),
        ("h(0) vac", "h(0) is not a creation index", 2),
        ("h(-1) L(-2) vac", "expected a factor h(-n) or 'vac'", 6),
        ("h(-1)", "expected a factor h(-n) or 'vac'", 5),
        ("", "expected a factor h(-n) or 'vac'", 0),
        ("   ", "expected a factor h(-n) or 'vac'", 3),
        ("2 3 vac", "expected a factor h(-n) or 'vac'", 2),
        ("- vac +", "expected a factor h(-n) or 'vac'", 7),
        ("vac vac", "expected '+', '-', or end of input", 4),
        ("vacuum", "expected '+', '-', or end of input", 3),
        ("1/ vac", "expected an integer", 3),
        ("h(-1)^ vac", "expected an integer", 7),
        ("h-1) vac", "expected '('", 1),
        ("hvac", "expected '('", 1),
    ]

    @pytest.mark.parametrize("text, message, offset", ERRORS)
    def test_error_message_and_offset(self, text, message, offset):
        with pytest.raises(ParseError) as excinfo:
            parse_state(text)
        assert str(excinfo.value).startswith(message)
        assert str(excinfo.value).endswith(f"(at offset {offset})")
        assert excinfo.value.offset == offset

    def test_whitespace_inside_a_factor(self):
        assert parse_state("h(- 1) vac") == HeisenbergState.monomial([1])

    def test_non_ascii_digit_is_a_parse_error(self):
        # '²' is a digit to str.isdigit but no integer literal
        with pytest.raises(ParseError) as excinfo:
            parse_state("h(-1)^² vac")
        assert excinfo.value.offset == 6

    @pytest.mark.parametrize(
        "head, tail, offset",
        [("", " vac", 0), ("1/", " vac", 2), ("h(-", ") vac", 3), ("h(-1)^", " vac", 6)],
        ids=["coefficient", "denominator", "index", "exponent"],
    )
    def test_integer_above_the_digit_limit(self, head, tail, offset):
        # one digit past Python's int conversion limit used to raise its own
        # ValueError, which names sys.set_int_max_str_digits() and no offset
        with pytest.raises(ParseError) as excinfo:
            parse_state(head + "9" * 4301 + tail)
        assert str(excinfo.value) == f"4301 digits are too many for an integer (limit 4300) (at offset {offset})"
        assert excinfo.value.offset == offset

    def test_integer_at_the_digit_limit(self):
        assert parse_state("9" * 4300 + " vac") == HeisenbergState.vacuum(10**4300 - 1)


class TestRoundTrip:
    CASES = [
        "h(-1)^2 vac",
        "1/2 h(-3) h(-1) vac - 1/12 vac",
        "-1/12 vac + 2 h(-2)^3 vac",
        "1 vac",
        "3/4 h(-5) vac + h(-2) h(-1) vac - 7 vac",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_render_parse(self, text):
        state = parse_state(text)
        rendered = render_heisenberg(state)
        assert parse_state(rendered) == state
        assert render_heisenberg(parse_state(rendered)) == rendered

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5).flatmap(lambda n: st.sampled_from(grade_basis(n))),
                st.fractions(
                    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=24
                ).filter(bool),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_generated_states_round_trip(self, terms):
        state = HeisenbergState.zero()
        for parts, coeff in terms:
            state = state + HeisenbergState.monomial(parts, coeff)
        if state.is_zero:
            return
        rendered = render_heisenberg(state)
        assert parse_state(rendered) == state


class TestSubcommands:
    def test_eisenstein_table(self):
        code, out = run_cli(["eisenstein", "--k", "2", "--qmax", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["series"]["coeffs"] == ["-1/24", "1", "3", "4", "7"]

    def test_eisenstein_star(self):
        code, out = run_cli(["eisenstein", "--star", "--prime", "5", "--qmax", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["series"]["coeffs"][5] == "1"
        assert payload["series"]["coeffs"][0] == "1/6"

    def test_character_series(self):
        code, out = run_cli(
            ["character", "--state", "h(-1)^2 vac", "--qmax", "4", "--prime", "5"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["series"]["coeffs"] == ["0", "2", "8", "18", "40"]
        assert payload["series"]["offset"] == "-1/24"
        assert payload["sup_norm_exponent"] == 0

    def test_character_eta_normalized(self):
        code, out = run_cli(
            ["character", "--state", "1/2 h(-1)^2 vac - 1/24 vac", "--qmax", "4", "--eta"]
        )
        payload = json.loads(out)
        assert payload["series"]["coeffs"] == ["-1/24", "1", "3", "4", "7"]

    def test_character_of_many_distinct_parts_is_cut_at_its_degree(self, monkeypatch):
        # h(-1)...h(-20): the smaller half of the parts sums to 55 > 40, so the
        # trace is zero through q^40 with no pairing formed (it ran past 60 s)
        def no_pairing(*args):
            raise AssertionError("a pairing was formed")

        monkeypatch.setattr(modes, "_pair_series", no_pairing)
        state = "".join(f"h(-{k})" for k in range(1, 21)) + " vac"
        code, out = run_cli(["character", "--state", state, "--qmax", "40"])
        assert code == 0
        assert json.loads(out)["series"]["coeffs"] == ["0"] * 41

    def test_kummer_report_prime_five(self):
        code, out = run_cli(["kummer", "--prime", "5", "--amax", "1", "--qmax", "10"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"]
        row = next(
            r for r in payload["state_congruences"] if (r["a"], r["b"]) == (0, 1)
        )
        assert row["norm_exponent"] <= -1
        # no row of p = 5 is on the exceptional branch
        assert all("regularised_exponent" not in r for r in payload["state_congruences"])

    def test_kummer_report_prime_three_exceptional_branch(self):
        # every p = 3 row has (p-1) | r+1 and is judged by the exceptional-
        # branch criterion: both new exponents <= -(a+1), whole exactly 1 - a
        code, out = run_cli(["kummer", "--prime", "3", "--amax", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"]
        states = {
            (row["a"], row["b"]): (row["non_vacuum_exponent"], row["regularised_exponent"], row["norm_exponent"])
            for row in payload["state_congruences"]
        }
        zero = (None, None, None)
        assert states == {
            (0, 0): zero, (0, 1): (-1, -1, 1), (0, 2): (-1, -1, 1),
            (1, 1): zero, (1, 2): (-2, -2, 0), (2, 2): zero,
        }
        characters = [
            (row["q_coefficient_exponent"], row["regularised_exponent"], row["distance_exponent"])
            for row in payload["character_distances"]
        ]
        assert characters == [(-1, -1, 1), (-2, -2, 0), (-3, -3, -1)]
        assert all(row["ok"] for row in payload["state_congruences"] + payload["character_distances"])

    def test_axioms_jacobi(self):
        code, out = run_cli(["axioms", "--suite", "jacobi", "--grade", "2", "--window", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"] and payload["violations"] == []
        assert payload["checks"] == 8000

    def test_axioms_commutator(self):
        code, out = run_cli(
            ["axioms", "--suite", "commutator", "--grade", "2", "--window", "2"]
        )
        assert code == 0

    def test_axioms_locality(self):
        code, out = run_cli(["axioms", "--suite", "locality", "--grade", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"]

    def test_axioms_isometry(self):
        code, out = run_cli(
            ["axioms", "--suite", "isometry", "--grade", "2", "--count", "8", "--prime", "5"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"] == 8

    def test_axioms_isometry_without_n_minus_one(self):
        # window 0 holds no n = -1, so a(n)b cannot reach |a|: only lhs <= rhs is checked
        code, out = run_cli(["axioms", "--suite", "isometry", "--window", "0", "--count", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"] and payload["checks"] == 3

    def test_virasoro_table(self):
        code, out = run_cli(
            ["virasoro", "--cprime", "12", "--grade", "4", "--window", "3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["integrality_ok"] and payload["all_ok"]

    def test_virasoro_integrality_probe_is_not_counted(self, monkeypatch):
        # a non-integral L(n) image is a violation but not a check or a row
        monkeypatch.setattr("padic_voa.cli.L_action", lambda n, state: state.scale(Fraction(1, 2)))
        code, out = run_cli(["virasoro", "--grade", "0", "--window", "0", "--full"])
        assert code == 1
        payload = json.loads(out)
        assert payload["checks"] == 1 and len(payload["rows"]) == 1
        assert not payload["integrality_ok"] and not payload["all_ok"]
        assert payload["violations"] == [{"word": "1 v0", "n": 0, "non_integral": True}]

    def test_deterministic_output(self):
        args = ["kummer", "--prime", "5", "--amax", "1", "--qmax", "6"]
        assert run_cli(args) == run_cli(args)

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(
            ["eisenstein", "--k", "4", "--qmax", "3", "--out", str(target)]
        )
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)

    def test_out_file_holds_the_stdout_bytes(self, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(["virasoro", "--grade", "4", "--window", "2", "--full", "--out", str(target)])
        assert code == 0
        assert target.read_bytes().decode("utf-8") == out

    def test_usage_errors_exit_two(self):
        assert run_cli(["character", "--state", "h(-1 vac"])[0] == 2
        assert run_cli(["character", "--state", "h(2) vac"])[0] == 2
        assert run_cli(["character", "--state", "L(-2) vac"])[0] == 2
        assert run_cli(["eisenstein", "--star"])[0] == 2
        assert run_cli(["eisenstein"])[0] == 2
        assert run_cli(["bogus"])[0] == 2
        assert run_cli(["eisenstein", "--k", "3"])[0] == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eisenstein", "--star"], "--star requires --prime"),
            (["eisenstein"], "provide --k or --star"),
            # each option is read, or the command is refused before any work
            (["eisenstein", "--star", "--prime", "3", "--k", "4"], "--star takes no --k"),
            (["eisenstein", "--k", "4", "--prime", "5"], "--prime requires --star"),
            (["eisenstein", "--star", "--prime", "2"], "p must be an odd prime, got 2"),
        ],
    )
    def test_eisenstein_usage_error_message(self, argv, message, capsys):
        # raised like every other usage error, and reported by main alone
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


# stdout sha256 of small --full sweeps: sweep JSON must stay byte-identical
SWEEP_SHA256 = [
    ("axioms --suite jacobi --grade 1 --window 1 --full", "b5516c08f9b7ee8b44d46dcc138ebf20458a2c512612ffdf74de3ff352036c10"),
    ("axioms --suite commutator --grade 2 --window 1 --full", "22d38e2180959f5d2f8c976dbdc973de7e6a10e7f19ed26397ecac58f74da39e"),
    ("axioms --suite locality --grade 1 --window 3 --full", "bbc2da0169ed364b5fa778bc3781a8be452633dec7d56e085f3a745515b7087d"),
    ("axioms --suite locality --grade 2 --window 4 --full", "a6ba66bf22ef05647f4f2643c722c369073d6bae98c139900217f73d81fbf5f2"),
    ("axioms --suite isometry --grade 2 --count 5 --prime 5 --full", "181952c9624db6e0ca9575d05cefff88ef6aab83294629ca0b12c493abb44860"),
    ("virasoro --cprime 1/2 --grade 4 --window 2 --full", "48f7b824b1f3395c3f8b7805fda00f7fd9d5a00665f301a89ec0f1ba53e67eed"),
    ("virasoro --cprime 12 --grade 4 --window 2 --full", "3e8152549f981c47b2f641969378c136e63d3dea7cd9474a33401bbbbe080896"),
    ("virasoro --cprime 1/2 --grade 8 --window 3 --full", "2aefb3e35c83f40a34ddeaaeedf21ab8f75e067db943d387b4811f9c57dbd78a"),
    ("virasoro --cprime 1 --grade 7 --window 7 --full", "4530c8f321160b75a6152eb2ef65fe0d4411b48cfad1eabb5e299e264f8a2eb9"),
    ('character --state "1/2 h(-9)h(-1) vac" --qmax 20 --eta', "0cb485648ef6555cdd5f4bc0b743c95da23bdea0d0c81eca613c46faba29cbb2"),
    ('character --state "h(-1)^2 vac" --qmax 10 --prime 5', "97375d45cc622472693d2e574a4cbd97e501b4b944417325b53bf6866025cc72"),
    ("kummer --prime 5 --amax 2", "eec2c8287de6af7bf193adf8daab374e23a1c97fb3010d2df203cff9efea6096"),
    ("kummer --prime 3 --amax 2", "7f28f70c5cb53c94bed24fa5978ce68bf27f2fee6b4a864c24f1341a25170a6c"),
    ("kummer --prime 7 --amax 1 --qmax 6", "33f3c2a77770909b69747a1381a03b6466d16d43e57729fa239d2d438c963916"),
    ("kummer --prime 7 --amax 2", "d8cc31318e9dee24e7ed28348bcc268eb83e57f51b4ea608504fda69c7381a46"),
    ("eisenstein --star --prime 3 --qmax 40", "ea385afb3442cab127d333720c2a1e43f857896162d464725f7f37f44de67605"),
    ("eisenstein --star --prime 7 --qmax 50", "107a1ca1206ed9c17cfdd1e403c3165af23cc5e60cfc2504db41e8ce94b9a052"),
    ("axioms --suite jacobi --grade 2 --window 2 --full", "cdf2f630633ba379ad575f31baa69ca9ee2b315320c80fee1a3d72f51ffe5cf7"),
    ("axioms --suite commutator --grade 3 --window 2 --full", "06d2e82ebb09b803574a055c4f41e1ebd67a8e0cfb1f093db3240e8197d9e078"),
    ("axioms --suite isometry", "0c16e899e4dd123638acebd9805c967d7289b6861ddcd1d0876eefbece70c622"),
    ("kummer --prime 5 --amax 3", "4cee2234bee30c4a1228b938994a4ba0a47bd830d12e6b8c329780600cb872b0"),
    ("kummer --prime 3 --amax 5", "3c62394359b42bac04874447acf1fd7f9bed788c33cbae23344e4ba8af16cbd0"),
    ("kummer --prime 5 --amax 3 --qmax 40", "be1e58060ac188f655e581f4f64eeecce828140fd448346e644506c4d63113f8"),
    ("eisenstein --k 4 --qmax 200", "72d15e934e2e6961b3de3aeb296d283c708caf2b3e81c91cb909633f96881b00"),
    ("eisenstein --k 2000 --qmax 141", "6a0e8a492cf13d401d4c37701aa46cb7a051f5f6df20de0e444f12b0f36b9d6f"),
    ("kummer --prime 997 --amax 0 --qmax 40", "729d4d667c50d333b4fce751d0e8c1d671b4fe30ecf049d38e215a820e1265ed"),
    ("virasoro --cprime 1/3 --grade 9 --window 5 --full", "dfcbc3b4213ec6f75b92b890a6b1996ba9cd2951827d7ffab8fd9551617de311"),
    (
        'character --state "3/5 h(-4)h(-2) vac - 7/25 h(-3)^2 vac + 2/3 h(-1)^6 vac" --qmax 12 --eta --prime 5',
        "c03b7491220083d21b9a61bc0a91046835372090e1d9b20ccf6d25a3e90195b3",
    ),
]


@pytest.mark.parametrize("command, digest", SWEEP_SHA256)
def test_sweep_output_unchanged(command, digest):
    code, out = run_cli(shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# strings built to look like the writer's row seams, brackets and escapes
_TRICKY = ['"},\n      {"', "},\n    {", "}", "{", "]", "[", '"', "\\", ": ", ",\n  ", "\x00", "\x1f", "\n", "é", "∞", "😀"]
json_strings = st.lists(st.sampled_from(_TRICKY) | st.text(max_size=3), max_size=4).map("".join)
json_scalars = (
    json_strings
    | st.integers()
    | st.sampled_from([10**40, -(10**40)])
    | st.floats()
    | st.sampled_from([float("inf"), float("-inf"), -0.0])
    | st.booleans()
    | st.none()
)
json_empties = st.builds(dict) | st.builds(list)
flat_dicts = st.dictionaries(json_strings, json_scalars | json_empties, min_size=1, max_size=4)
json_values = st.recursive(
    json_scalars | json_empties | st.lists(flat_dicts, min_size=1, max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(json_strings, inner, max_size=4)
    | st.lists(flat_dicts | st.dictionaries(json_strings, inner, min_size=1, max_size=3) | json_empties, max_size=5),
    max_leaves=24,
)


@settings(max_examples=200)
@given(json_values)
@example([{"a": '"},\n    {"', "b": 1}, {"c": "},\n    {"}])
@example({"rows": [{"a": 1}, {}, {"b": {"c": [1, {}]}}], "x": [[], {}, [[]]]})
@example([{"a": {}, "b": []}, {"c": []}])
@example([{"a": 1}, {"b": [1, 2]}])
@example(({"a": (1,)},))
def test_writer_matches_json_dumps(value):
    assert "".join(_json_chunks(value)) == json.dumps(value, sort_keys=True, indent=2)


class TestInputValidation:
    SUBCOMMANDS = (
        ["character", "--state", "h(-1)^2 vac", "--qmax", "4"],
        ["eisenstein", "--star", "--qmax", "4"],
        ["kummer", "--amax", "0", "--qmax", "2"],
        ["axioms", "--suite", "isometry", "--count", "1"],
        ["virasoro", "--grade", "2", "--window", "1"],
    )

    @pytest.mark.parametrize("prime", ["0", "1", "4"])
    def test_non_prime_rejected(self, prime):
        # --prime 1 used to hang, --prime 0 read as "no prime", 4 as "4-adic"
        for argv in self.SUBCOMMANDS:
            assert run_cli(argv + ["--prime", prime]) == (2, ""), argv

    @pytest.mark.parametrize("argv", [["kummer", "--prime", "abc"], ["character", "--state", "vac", "--prime", "2.5"]])
    def test_non_integer_prime_rejected(self, argv, capsys):
        # int() ran outside the type's try, so argparse named the private function
        assert run_cli(argv) == (2, "")
        err = capsys.readouterr().err
        assert f"argument --prime: {argv[-1]} is not a prime" in err and "_prime" not in err

    @pytest.mark.parametrize(
        "text, parts, offset",
        [
            ("h(-1)^100001 vac", 100001, 6),
            ("h(-1)^60000 h(-1)^60000 vac", 120000, 18),
            ("h(-1)^60000 vac + h(-2)^60000 vac", 120000, 24),
        ],
    )
    def test_parts_above_limit(self, text, parts, offset, capsys):
        # each factor adds its exponent before any list of parts is built, so
        # h(-1)^1000000000 no longer asks for a list of 10^9 parts (MemoryError)
        assert run_cli(["character", "--state", text, "--qmax", "2"]) == (2, "")
        message = f"{parts} parts are too many for a state expression (limit 100000) (at offset {offset})"
        assert message in capsys.readouterr().err

    def test_parts_at_limit(self):
        code, out = run_cli(["character", "--state", "h(-1)^99999 h(-2) vac", "--qmax", "2"])
        assert code == 0 and json.loads(out)["state"] == "h(-2) h(-1)^99999 vac"
        assert run_cli(["character", "--state", "h(-1)^100000 vac", "--qmax", "2"])[0] == 0

    def test_integer_above_the_digit_limit(self, capsys):
        state = "h(-1)^" + "1" * 5000 + " vac"
        assert run_cli(["character", "--state", state, "--qmax", "2"]) == (2, "")
        err = capsys.readouterr().err
        assert "5000 digits are too many for an integer (limit 4300) (at offset 6)" in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize(
        "cprime",
        ["1e10000000", "1e100000000", "1e4300", "1e-4300", "1" * 4301, "12e4299", "1e" + "9" * 5000],
        ids=["e10^7", "e10^8", "e4300", "e-4300", "4301-digits", "two-digits-e4299", "5000-digit-exponent"],
    )
    def test_cprime_above_the_digit_limit(self, cprime, capsys):
        # Fraction("1e10000000") raised 10 to the exponent first: 7 s, then
        # Python's int-to-str error; 1e100000000 did not end within 20 s
        argv = ["virasoro", "--cprime", cprime, "--grade", "1", "--window", "1"]
        assert run_cli(argv) == (2, "")
        err = capsys.readouterr().err
        assert "argument --cprime: too many digits for a rational number (limit 4300; an exponent e counts as e)" in err

    @pytest.mark.parametrize(
        "cprime, shown",
        [
            ("12", "12"),
            ("1/2", "1/2"),
            ("0.5", "1/2"),
            ("25E-2", "1/4"),
            ("1e4299", "1" + "0" * 4299),
            ("1" * 4300, "1" * 4300),
        ],
        ids=["integer", "fraction", "decimal", "exponent", "exponent-at-limit", "digits-at-limit"],
    )
    def test_cprime_within_the_digit_limit(self, cprime, shown):
        code, out = run_cli(["virasoro", "--cprime", cprime, "--grade", "1", "--window", "1"])
        assert code == 0 and json.loads(out)["cprime"] == shown

    def test_cprime_not_rational(self, capsys):
        assert run_cli(["virasoro", "--cprime", "1e2x"]) == (2, "")
        assert "argument --cprime: 1e2x is not a rational number" in capsys.readouterr().err

    def test_character_empty_range(self):
        assert run_cli(["character", "--state", "h(-1) vac", "--qmax", "-1"]) == (2, "")

    def test_eisenstein_empty_range(self):
        assert run_cli(["eisenstein", "--k", "4", "--qmax", "-1"]) == (2, "")

    def test_kummer_empty_range(self):
        assert run_cli(["kummer", "--prime", "5", "--amax", "-1"]) == (2, "")
        assert run_cli(["kummer", "--prime", "5", "--qmax", "-1"]) == (2, "")

    @pytest.mark.parametrize("argv", [["--prime", "10007", "--amax", "0"], ["--prime", "5", "--amax", "6"]])
    def test_kummer_index_above_limit(self, argv, capsys):
        # r = 10007 and r = 62501 used to hang building c_row(r)
        assert run_cli(["kummer", *argv]) == (2, "")
        assert "too large for the Kummer family" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["character", "--state", "vac", "--qmax", "41"], ["kummer", "--prime", "5", "--qmax", "41"]]
    )
    def test_qmax_above_character_limit(self, argv, capsys):
        # character --qmax 60 used to run past 20 s summing traces over p(n) keys
        assert run_cli(argv) == (2, "")
        assert "too large for a character (limit 40)" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["2002", "20000"])
    def test_eisenstein_weight_above_limit(self, k, capsys):
        # --k 2100 used to end past Python's int-to-str digit limit, --k 20000 ran past 30 s
        assert run_cli(["eisenstein", "--k", k, "--qmax", "1"]) == (2, "")
        assert "too large for an Eisenstein series (limit 2000)" in capsys.readouterr().err

    def test_eisenstein_order_above_limit_for_the_weight(self, capsys):
        # sigma_1999(n) has about 1999 log10(n) digits: --qmax 142 used to pass
        # Python's 4,300-digit int-to-str limit and exit 2 with its message
        assert run_cli(["eisenstein", "--k", "2000", "--qmax", "150"]) == (2, "")
        assert "q-order 150 is too large for an Eisenstein series of weight 2000 (limit 4300 digits)" in capsys.readouterr().err
        code, out = run_cli(["eisenstein", "--k", "2000", "--qmax", "141"])
        assert code == 0 and json.loads(out)["series"]["order"] == 141

    @pytest.mark.parametrize(
        "argv", [["--k", "4", "--qmax", "100000000"], ["--star", "--prime", "5", "--qmax", "100000000"]]
    )
    def test_eisenstein_order_above_limit(self, argv, capsys):
        # one divisor sum per q-order: --qmax 100000000 used to run without end
        assert run_cli(["eisenstein", *argv]) == (2, "")
        assert "q-order 100000000 is too large for an Eisenstein series (limit 10000)" in capsys.readouterr().err

    def test_wick_trace_above_limit(self, monkeypatch, capsys):
        # h(-1)^20 h(-40)...h(-21) has 21 * 2^20 multiplicity vectors: its
        # hafnian ran for 18.4 s; now no pairing is formed
        def no_pairing(*args):
            raise AssertionError("a pairing was formed")

        monkeypatch.setattr(modes, "_pair_series", no_pairing)
        state = "h(-1)^20 " + "".join(f"h(-{k})" for k in range(40, 20, -1)) + " vac"
        assert run_cli(["character", "--state", state, "--qmax", "40"]) == (2, "")
        assert "22020096 multiplicity vectors are too many for a Wick trace (limit 2000000)" in capsys.readouterr().err

    def test_axioms_empty_range(self):
        assert run_cli(["axioms", "--suite", "isometry", "--count", "0"]) == (2, "")
        assert run_cli(["axioms", "--suite", "jacobi", "--grade", "-1"]) == (2, "")
        assert run_cli(["axioms", "--suite", "commutator", "--window", "-1"]) == (2, "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--suite", "jacobi", "--grade", "6"], "sweep size 3375000 is too large for the jacobi suite (limit 300000)"),
            (["--suite", "commutator", "--window", "10"], "sweep size 762048 is too large for the commutator suite"),
            (["--suite", "locality", "--grade", "4"], "sweep size 17280 is too large for the locality suite"),
            (["--suite", "isometry", "--count", "100000"], "sweep size 7700000 is too large for the isometry suite"),
            (["--suite", "jacobi", "--grade", "7", "--window", "0"], "grade 7 is too large for an axioms sweep (limit 6)"),
            (["--suite", "isometry", "--window", "300"], "window 300 is too large for an axioms sweep (limit 16)"),
        ],
    )
    def test_axioms_sweep_above_limit(self, argv, message, monkeypatch, capsys):
        # each of these used to run past 60 s; now no check starts
        def refuse(*args):
            raise AssertionError("a sweep above its limit started")

        for name in ("jacobi_defect", "commutator_defect", "locality_profile", "isometry_probe"):
            monkeypatch.setattr(f"padic_voa.cli.{name}", refuse)
        assert run_cli(["axioms", *argv]) == (2, "")
        assert message in capsys.readouterr().err

    def test_axioms_defaults_within_limits(self):
        sizes = {suite: _sweep_size(suite, grade, window, 50) for suite, (grade, window, _) in _SUITE_DEFAULTS.items()}
        assert sizes == {"jacobi": 42875, "commutator": 84672, "locality": 3087, "isometry": 3850}
        assert all(sizes[suite] <= _SWEEP_LIMITS[suite] for suite in sizes)
        # the default virasoro sweep: 11 PBW words of grade <= 6, 81 points (m, n) each
        assert _sweep_size("virasoro", 6, 4, 0) == 891 <= _SWEEP_LIMITS["virasoro"]

    def test_virasoro_empty_range(self):
        assert run_cli(["virasoro", "--grade", "-1"]) == (2, "")
        assert run_cli(["virasoro", "--window", "-1"]) == (2, "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--grade", "30"], "grade 30 is too large for a virasoro sweep (limit 20)"),
            (["--window", "200"], "window 200 is too large for a virasoro sweep (limit 40)"),
            (["--grade", "20", "--window", "9"], "sweep size 226347 is too large for the virasoro suite (limit 200000)"),
        ],
    )
    def test_virasoro_sweep_above_limit(self, argv, message, monkeypatch, capsys):
        # --grade 30 used to take 41 s and --window 200 18.6 s; now no word is built
        def refuse(*args):
            raise AssertionError("a sweep above its limit started")

        for name in ("VirasoroState", "vir_bracket_defects", "L_action", "vir_grade_basis"):
            monkeypatch.setattr(f"padic_voa.cli.{name}", refuse)
        assert run_cli(["virasoro", *argv]) == (2, "")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cprime", ["1/0", "abc"])
    def test_virasoro_charge_not_rational(self, cprime):
        # 1/0 used to end in a ZeroDivisionError traceback with exit 1
        assert run_cli(["virasoro", "--cprime", cprime]) == (2, "")

    def test_large_prime_is_decided_quickly(self):
        # trial division of this prime used to take minutes
        code, out = run_cli(["eisenstein", "--star", "--prime", "1000000000000000003", "--qmax", "2"])
        assert code == 0 and json.loads(out)["prime"] == 1000000000000000003

    def test_prime_beyond_the_exact_test_rejected(self, capsys):
        assert run_cli(["eisenstein", "--star", "--prime", str(10**24 + 7), "--qmax", "2"]) == (2, "")
        assert "too large for the primality test" in capsys.readouterr().err

    def test_out_into_missing_directory(self, tmp_path, capsys):
        # used to end in a FileNotFoundError traceback with exit 1
        target = tmp_path / "missing" / "x.json"
        assert run_cli(["eisenstein", "--k", "4", "--out", str(target)]) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}")


def test_option_surface():
    # every option of every subcommand: a new knob is a deliberate change here
    (subcommands,) = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    surface = {
        name: [option for action in parser._actions for option in action.option_strings]
        for name, parser in subcommands.choices.items()
    }
    assert surface == {
        "character": ["-h", "--help", "--state", "--qmax", "--eta", "--prime", "--out"],
        "eisenstein": ["-h", "--help", "--k", "--star", "--prime", "--qmax", "--out"],
        "kummer": ["-h", "--help", "--prime", "--amax", "--qmax", "--out"],
        "axioms": ["-h", "--help", "--suite", "--grade", "--window", "--prime", "--count", "--seed", "--full", "--out"],
        "virasoro": ["-h", "--help", "--cprime", "--grade", "--window", "--prime", "--full", "--out"],
    }


def test_one_parser_per_process(monkeypatch):
    # main used to build its parser on every call (about 1.5 ms); a call that
    # exits 2 in argparse leaves the cached parser as it was
    built = []

    def build():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", build)
    cli._parser.cache_clear()
    try:
        eisenstein = run_cli(["eisenstein", "--k", "4", "--qmax", "2"])
        assert run_cli(["kummer", "--amax", "0"]) == (2, "")
        assert run_cli(["eisenstein", "--k", "4", "--qmax", "2"]) == eisenstein
        assert len(built) == 1
        cli._parser.cache_clear()
        assert run_cli(["eisenstein", "--k", "4", "--qmax", "2"]) == eisenstein
        assert len(built) == 2
    finally:
        cli._parser.cache_clear()  # drop the parser built through the patch
