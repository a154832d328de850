"""Command-line front end: a state-expression parser and subcommands that
orchestrate characters, Eisenstein series, Kummer congruence reports, axiom
defect sweeps, and Virasoro bracket sweeps, with deterministic JSON output.

State-expression grammar (whitespace between tokens is ignored):

    expr   := '-'? term (('+'|'-') term)*
    term   := coeff? factor* 'vac'
    factor := 'h' '(' '-' int ')' ('^' int)?
    coeff  := int ('/' int)?

The leading '-' extension lets canonical renderings of states with a negative
leading coefficient round-trip.  Every factor must be a creation operator
h(-n) with n >= 1; any other factor is a ParseError at its offset.

Exit codes: 0 on success with all contracts met, 1 on a contract violation
(nonzero defect where an exact zero is required, or a congruence bound
missed), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from json.encoder import encode_basestring_ascii
from math import inf

from .axioms import (
    commutator_defect,
    isometry_probe,
    jacobi_defect,
    locality_profile,
)
from .fock import HeisenbergState, grade_basis
from .kummer import character_row, character_verdict, kummer_check, kummer_index, state_verdict
from .qchar import character, eisenstein_G, eisenstein_G2_star, normalized_character
from .scalars import _partition_counts, is_prime
from .virasoro import VirasoroState, L_action, vir_bracket_defects, vir_grade_basis

__all__ = [
    "ParseError",
    "main",
    "parse_state",
    "render_heisenberg",
]


class ParseError(ValueError):
    """Syntax or validation error with the offending input offset."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_TOKEN = re.compile(r"\s*(\d+|vac|\S)")

# a key of more than 81 parts has a zero trace through q^40 (`modes._wick_trace`
# cuts by degree), and h(-1)^1000000000 would build a list of 10^9 parts
_MAX_PARTS = 100_000


def parse_state(text: str) -> HeisenbergState:
    """Parse a state expression into a Fock state; raises ParseError with the
    input offset.  The rules below read one list of (token, offset) pairs,
    last token first, whose bottom is an end marker ("", len(text))."""
    tokens = [("", len(text))] + [(match[1], match.start(1)) for match in _TOKEN.finditer(text)][::-1]
    terms = [_parse_term(tokens, -1 if _take(tokens, "-") else 1, 0)]
    parts = len(terms[0][0])
    while tokens[-1][0]:
        token, offset = tokens.pop()
        if token not in ("+", "-"):
            raise ParseError("expected '+', '-', or end of input", offset)
        terms.append(_parse_term(tokens, 1 if token == "+" else -1, parts))
        parts += len(terms[-1][0])
    return HeisenbergState(terms)


def _take(tokens: list[tuple[str, int]], token: str) -> bool:
    if tokens[-1][0] == token:
        tokens.pop()
        return True
    return False


def _expect(tokens: list[tuple[str, int]], token: str) -> None:
    found, offset = tokens.pop()
    if found != token:
        raise ParseError(f"expected '{token}'", offset)


def _integer(tokens: list[tuple[str, int]]) -> int:
    token, offset = tokens.pop()
    if not token.isdecimal():
        raise ParseError("expected an integer", offset)
    try:
        return int(token)
    except ValueError:  # more digits than Python converts (sys.set_int_max_str_digits)
        raise ParseError(f"{len(token)} digits are too many for an integer (limit {sys.get_int_max_str_digits()})", offset) from None


def _parse_term(tokens: list[tuple[str, int]], sign: int, used: int) -> tuple[tuple[int, ...], Fraction]:
    """One term as its (basis key, coefficient) pair."""
    coeff = Fraction(sign)
    if tokens[-1][0].isdecimal():
        coeff *= _integer(tokens)
        if _take(tokens, "/"):
            token, offset = tokens[-1]
            denominator = _integer(tokens)
            if denominator == 0:
                raise ParseError("zero denominator", offset + len(token))
            coeff /= denominator
    parts: list[int] = []
    while _take(tokens, "h"):
        parts.extend(_parse_factor(tokens, used + len(parts)))
    token, offset = tokens.pop()
    if token != "vac":
        raise ParseError("expected a factor h(-n) or 'vac'", offset)
    return tuple(sorted(parts, reverse=True)), coeff


def _parse_factor(tokens: list[tuple[str, int]], used: int) -> list[int]:
    """A factor h(-n)^e after its 'h', as e copies of the part n; `used`
    counts the parts of the expression before it."""
    _expect(tokens, "(")
    index_pos = exponent_pos = tokens[-1][1]
    index = -_integer(tokens) if _take(tokens, "-") else _integer(tokens)
    _expect(tokens, ")")
    exponent = 1
    if tokens[-1][0] == "^":
        exponent_pos = tokens.pop()[1] + 1
        exponent = _integer(tokens)
        if exponent < 1:
            raise ParseError("exponent must be >= 1", exponent_pos)
    if index >= 0:
        raise ParseError(f"h({index}) is not a creation index h(-n) with n >= 1", index_pos)
    if used + exponent > _MAX_PARTS:
        raise ParseError(f"{used + exponent} parts are too many for a state expression (limit {_MAX_PARTS})", exponent_pos)
    return [-index] * exponent


def render_heisenberg(state: HeisenbergState) -> str:
    """Grammar-compatible canonical rendering (vacuum spelled 'vac')."""
    return state.render(vacuum="vac")


# ---------------------------------------------------------------------------
# sweeps: each yields a (row, ok) pair per check, for `_tally`


def random_probe_states(grade: int, prime: int, count: int, seed: int) -> list[HeisenbergState]:
    """Pseudo-random integral states plus p-power rescalings, for isometry
    probes.  Deterministic for a fixed seed."""
    rng = random.Random(seed)
    pool = [parts for g in range(grade + 1) for parts in grade_basis(g)]
    coefficients = [c for c in range(-9, 10) if c]
    states: list[HeisenbergState] = []
    for _ in range(count):
        support = rng.sample(pool, k=min(len(pool), rng.randint(1, 4)))
        state = HeisenbergState([(parts, rng.choice(coefficients)) for parts in support])
        if rng.random() < 0.5:
            state = state.scale(Fraction(prime) ** rng.randint(-2, 2))
        states.append(state)
    return states


def _axiom_checks(args, grade: int, window: int, prime: int):
    """Jacobi (r, s, t) and commutator (r, s) defects over [-window, window]
    and locality profiles, on every triple of basis states up to `grade`; or
    isometry probes of `args.count` random states.  A locality row fails
    when a coefficient survives at t >= wt(u) + wt(v); an isometry row when
    lhs > rhs, since lhs = rhs needs n = -1 in the window."""
    span = range(-window, window + 1)
    if args.suite == "isometry":
        for state in random_probe_states(grade, prime, args.count, args.seed):
            lhs, rhs = isometry_probe(state, prime, grade, span)
            row = {
                "state": render_heisenberg(state),
                "lhs": _exponent_json(lhs),
                "rhs": _exponent_json(rhs),
                "ok": lhs <= rhs,
            }
            yield row, lhs <= rhs
        return
    basis = [HeisenbergState.monomial(parts) for g in range(grade + 1) for parts in grade_basis(g)]
    for u, v, w in product(basis, repeat=3):
        triple = {"u": render_heisenberg(u), "v": render_heisenberg(v), "w": render_heisenberg(w)}
        if args.suite == "locality":
            threshold = u.max_weight() + v.max_weight()
            for t, exponent in locality_profile(u, v, w, max(window, threshold + 1), prime):
                row = {**triple, "t": t, "threshold": threshold, "norm_exponent": _exponent_json(exponent)}
                yield row, t < threshold or exponent == -inf
            continue
        if args.suite == "jacobi":
            reports = (jacobi_defect(u, v, w, r, s, t, prime) for r, s, t in product(span, repeat=3))
        else:
            reports = (commutator_defect(u, v, w, r, s, prime) for r, s in product(span, repeat=2))
        for report in reports:
            row = {**triple, "norm_exponent": _exponent_json(report.norm_exponent), **report.parameters}
            yield row, report.is_zero


def _virasoro_checks(args, charge: Fraction, payload: dict):
    """Bracket defects [L(m), L(n)] for |m|, |n| <= window on every PBW word
    up to `args.grade`.  At an integral charge each L(n) image is probed for
    integrality too: a non-integral one clears `payload["integrality_ok"]`
    and yields its row with ok None, a violation outside the check count."""
    span = range(-args.window, args.window + 1)
    for g in range(args.grade + 1):
        for word in vir_grade_basis(g):
            state = VirasoroState.word(word, charge)
            name = state.render()
            for _, _, report in vir_bracket_defects(state, span, args.prime):
                row = {"word": name, "norm_exponent": _exponent_json(report.norm_exponent), **report.parameters}
                yield row, report.is_zero
            if payload["integral_charge"]:
                for n in span:
                    if not L_action(n, state).is_integral():
                        payload["integrality_ok"] = False
                        yield {"word": name, "n": n, "non_integral": True}, None


def _tally(args, payload: dict, checked) -> tuple[dict, int]:
    """Count a sweep's (row, ok) pairs into `payload`, keep failing rows as
    violations and every counted row under --full (ok None marks an
    uncounted probe violation); return it with the exit code."""
    checks = 0
    rows, violations = [], []
    for row, ok in checked:
        if ok is not None:
            checks += 1
            if args.full:
                rows.append(row)
        if not ok:
            violations.append(row)
    payload.update(checks=checks, violations=violations, all_ok=not violations)
    if args.full:
        payload["rows"] = rows
    return payload, 0 if not violations else 1


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, exit code), and `main` emits


def _exponent_json(value: int | float):
    return None if value == -inf else value


@lru_cache(maxsize=16)
def _encoder(indent: str):
    """The C encoder, with sorted keys and ',' + `indent` between items."""
    return json.JSONEncoder(sort_keys=True, separators=("," + indent, ": ")).encode


# the encoder's text of a str (ASCII escapes), an int (its repr), a bool and
# None, written without an encoder call; a float still goes through the encoder
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_chunks(value, pad: str = "\n"):
    """`json.dumps(value, sort_keys=True, indent=2)` in pieces, keys str,
    `pad` a newline and the indent of `value`.  The C encoder writes each
    container of scalars, and each list of dicts of scalars (rows), whole:
    no encoded string holds a newline, so rows meet only at '}' + sep + '{'.
    Any other container is written item by item, each key and each str, int,
    bool or None item by `_SCALAR_TEXT`."""
    inner, cell = pad + "  ", pad + "    "
    is_dict, scalars = isinstance(value, dict), {str, int, float, bool, type(None)}
    items = value.values() if is_dict else value if isinstance(value, (list, tuple)) else ()
    if set(map(type, items)) <= scalars:  # a scalar, or a container of scalars
        text = _encoder(inner)(value)
        yield from (text[0] + inner, text[1:-1], pad + text[-1]) if items else (text,)
    elif set(map(type, value)) == {dict} and all(value) and set(map(type, chain(*map(dict.values, value)))) <= scalars:
        text = _encoder(cell)(value).replace("}," + cell + "{", inner + "}," + inner + "{" + cell)
        yield from ("[" + inner + "{" + cell, text[2:-2], inner + "}" + pad + "]")
    else:
        yield "{" if is_dict else "["
        for index, (key, item) in enumerate(sorted(value.items()) if is_dict else enumerate(value)):
            head = ("," if index else "") + inner + (encode_basestring_ascii(key) + ": " if is_dict else "")
            text = _SCALAR_TEXT.get(type(item))
            if text:
                yield head + text(item)
            else:
                yield head
                yield from _json_chunks(item, inner)
        yield pad + ("}" if is_dict else "]")


def _emit(payload: dict, out_path: str | None) -> None:
    """Write the payload to `out_path` (if given), then to stdout, so that a
    file that cannot be written leaves stdout empty."""
    text = "".join(_json_chunks(payload))
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                print(text, file=handle)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from exc
    print(text)


def _cmd_character(args) -> tuple[dict, int]:
    state = parse_state(args.state)
    series = (
        normalized_character(state, args.qmax)
        if args.eta
        else character(state, args.qmax)
    )
    payload = {
        "command": "character",
        "eta_normalized": bool(args.eta),
        "qmax": args.qmax,
        "series": series.to_json(),
        "state": render_heisenberg(state),
    }
    if args.prime is not None:
        exponents = series.norm_exponents(args.prime)
        payload["prime"] = args.prime
        payload["coefficient_norm_exponents"] = [_exponent_json(e) for e in exponents]
        payload["sup_norm_exponent"] = _exponent_json(max(exponents))
    return payload, 0


def _cmd_eisenstein(args) -> tuple[dict, int]:
    if args.star and args.prime is None:
        raise ValueError("--star requires --prime")
    if args.star and args.k is not None:
        raise ValueError("--star takes no --k")
    if not args.star and args.prime is not None:
        raise ValueError("--prime requires --star")
    if not args.star and args.k is None:
        raise ValueError("provide --k or --star")
    payload = {"command": "eisenstein", "qmax": args.qmax}
    if args.star:
        series = eisenstein_G2_star(args.prime, args.qmax)
        payload.update(kind="G2_star", prime=args.prime)
    else:
        series = eisenstein_G(args.k, args.qmax)
        payload.update(kind="G", k=args.k)
    payload["series"] = series.to_json()
    return payload, 0


def _cmd_kummer(args) -> tuple[dict, int]:
    """Lay out the state and character rows with their `kummer` verdicts;
    a row on the exceptional branch also reports its branch exponents.  The
    deepest index is checked first, and the q-order by the first character
    row, so either limit exits 2 before any member is built; the rows read
    each member u_r from `kummer`'s memo."""
    p = args.prime
    kummer_index(p, args.amax)
    char_rows = []
    for a in range(args.amax + 1):
        series, exponents = character_row(p, a, args.qmax)
        branch, ok = character_verdict(p, a, series, exponents)
        row = {
            "a": a,
            "r": kummer_index(p, a),
            "distance_exponent": _exponent_json(max(exponents)),
            "bound": -(a + 1),
            "coefficient_exponents": [_exponent_json(e) for e in exponents],
            "ok": ok,
        }
        row.update((key, _exponent_json(e)) for key, e in branch.items())
        char_rows.append(row)
    state_rows = []
    for a in range(args.amax + 1):
        for b in range(a, args.amax + 1):
            report = kummer_check(p, a, b)
            branch, ok = state_verdict(report)
            row = {key: value for key, value in report.parameters.items() if key != "p"}
            row.update(norm_exponent=_exponent_json(report.norm_exponent), ok=ok)
            row.update((key, _exponent_json(e)) for key, e in branch.items())
            state_rows.append(row)
    ok = all(row["ok"] for row in state_rows + char_rows)
    payload = {
        "command": "kummer",
        "prime": p,
        "amax": args.amax,
        "qmax": args.qmax,
        "state_congruences": state_rows,
        "character_distances": char_rows,
        "all_ok": ok,
    }
    return payload, 0 if ok else 1


# (grade, window, prime) of each suite when not given
_SUITE_DEFAULTS = {
    "jacobi": (3, 2, 2),
    "commutator": (4, 3, 2),
    "locality": (3, 8, 2),
    "isometry": (3, 5, 3),
}


# the largest sweep of each axioms suite and of `virasoro`, in basis
# triples x window points per triple (isometry: probe states x basis states
# x window points; virasoro: PBW words x window points), and the largest
# grade and window of each command's sweeps, keyed on the sweep's name in
# the refusal; timings in the README
_SWEEP_LIMITS = {"jacobi": 300_000, "commutator": 200_000, "locality": 15_000, "isometry": 250_000, "virasoro": 200_000}
_MAX_GRADE_WINDOW = {"an axioms sweep": (6, 16), "a virasoro sweep": (20, 40)}


def _sweep_size(suite: str, grade: int, window: int, count: int) -> int:
    """The size that `_SWEEP_LIMITS` bounds.  A triple has (2w+1)^3 Jacobi
    points (r, s, t), (2w+1)^2 commutator points (r, s) and at most
    max(w, 2 grade + 1) + 1 locality rows t; an isometry probe state is
    read at 2w+1 modes on every basis state; a virasoro sweep has (2w+1)^2
    bracket points (m, n) on each of its p(grade) PBW words (the words of
    grade k <= g, parts >= 2, number p(k) - p(k-1))."""
    counts = _partition_counts(grade)
    states, points = sum(counts), 2 * window + 1
    if suite == "isometry":
        return count * states * points
    if suite == "virasoro":
        return counts[-1] * points**2
    per_triple = {"jacobi": points**3, "commutator": points**2, "locality": max(window, 2 * grade + 1) + 1}
    return states**3 * per_triple[suite]


def _check_sweep(sweep: str, suite: str, grade: int, window: int, count: int) -> None:
    """Refuse a grade or window above the limits of `sweep` (a key of
    `_MAX_GRADE_WINDOW`), or a sweep size above the suite's, before any work."""
    # the grade first: `_sweep_size` lists the partition counts up to it
    for name, value, limit in zip(("grade", "window"), (grade, window), _MAX_GRADE_WINDOW[sweep]):
        if value > limit:
            raise ValueError(f"{name} {value} is too large for {sweep} (limit {limit})")
    size, limit = _sweep_size(suite, grade, window, count), _SWEEP_LIMITS[suite]
    if size > limit:
        raise ValueError(f"sweep size {size} is too large for the {suite} suite (limit {limit})")


def _cmd_axioms(args) -> tuple[dict, int]:
    """Resolve the suite's defaults, and refuse a grade, window or sweep
    size above its limit before any work."""
    default_grade, default_window, default_prime = _SUITE_DEFAULTS[args.suite]
    grade = default_grade if args.grade is None else args.grade
    window = default_window if args.window is None else args.window
    prime = default_prime if args.prime is None else args.prime
    _check_sweep("an axioms sweep", args.suite, grade, window, args.count)
    payload = {
        "command": "axioms",
        "suite": args.suite,
        "grade": grade,
        "window": window,
        "prime": prime,
    }
    return _tally(args, payload, _axiom_checks(args, grade, window, prime))


def _cmd_virasoro(args) -> tuple[dict, int]:
    """Refuse a grade, window or sweep size above its limit before any work."""
    _check_sweep("a virasoro sweep", "virasoro", args.grade, args.window, 0)
    charge = args.cprime
    payload = {
        "command": "virasoro",
        "cprime": str(charge),
        "grade": args.grade,
        "window": args.window,
        "integral_charge": charge.denominator == 1,
        "integrality_ok": True,
    }
    return _tally(args, payload, _virasoro_checks(args, charge, payload))


def _prime(text: str) -> int:
    """argparse type: a prime number within the range of `is_prime`."""
    try:
        value = int(text)
    except ValueError:
        value = 0  # not an integer, so not a prime
    try:
        if is_prime(value):
            return value
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"{text} is not a prime")


def _rational(text: str) -> Fraction:
    """argparse type: an exact rational such as 12, 1/2 or 0.5 of at most 4,300
    digits, an exponent e counting as e digits before `Fraction` takes 10^e."""
    limit = sys.get_int_max_str_digits()
    mantissa, _, exponent = text.lower().partition("e")
    try:
        if sum(map(str.isdigit, mantissa)) + abs(int(exponent or 0)) <= limit:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):  # no rational, or an exponent of too many digits
        if sum(map(str.isdigit, text)) <= limit:
            raise argparse.ArgumentTypeError(f"{text} is not a rational number") from None
    raise argparse.ArgumentTypeError(f"too many digits for a rational number (limit {limit}; an exponent e counts as e)")


def _at_least(low: int):
    """argparse type: an integer >= low, so that no sweep range is empty."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every subcommand and option; `main` reads one built
    by `_parser`."""
    parser = argparse.ArgumentParser(
        prog="padic-voa",
        description="Exact computations in the p-adic Heisenberg and Virasoro vertex algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser("character", help="graded trace Z(v, q) of a state")
    p_char.add_argument("--state", required=True, help="state expression, e.g. 'h(-1)^2 vac'")
    p_char.add_argument("--qmax", type=_at_least(0), default=20)
    p_char.add_argument("--eta", action="store_true", help="emit eta * Z instead of Z")
    p_char.add_argument("--prime", type=_prime, default=None)
    p_char.set_defaults(func=_cmd_character)

    p_eis = sub.add_parser("eisenstein", help="Eisenstein series G_k or G_2*")
    p_eis.add_argument("--k", type=int, default=None)
    p_eis.add_argument("--star", action="store_true", help="p-stabilized weight-2 series")
    p_eis.add_argument("--prime", type=_prime, default=None)
    p_eis.add_argument("--qmax", type=_at_least(0), default=20)
    p_eis.set_defaults(func=_cmd_eisenstein)

    p_kum = sub.add_parser("kummer", help="Kummer congruence report")
    p_kum.add_argument("--prime", type=_prime, required=True)
    p_kum.add_argument("--amax", type=_at_least(0), default=2)
    p_kum.add_argument("--qmax", type=_at_least(0), default=10)
    p_kum.set_defaults(func=_cmd_kummer)

    p_ax = sub.add_parser("axioms", help="axiom defect sweeps")
    p_ax.add_argument("--suite", required=True, choices=sorted(_SUITE_DEFAULTS))
    p_ax.add_argument("--grade", type=_at_least(0), default=None)
    p_ax.add_argument("--window", type=_at_least(0), default=None)
    p_ax.add_argument("--prime", type=_prime, default=None)
    p_ax.add_argument("--count", type=_at_least(1), default=50, help="isometry probe count")
    p_ax.add_argument("--seed", type=int, default=20240229)
    p_ax.add_argument("--full", action="store_true", help="emit every row, not only violations")
    p_ax.set_defaults(func=_cmd_axioms)

    p_vir = sub.add_parser("virasoro", help="Virasoro bracket defect table")
    p_vir.add_argument("--cprime", type=_rational, default="1", help="quasicentral charge (rational)")
    p_vir.add_argument("--grade", type=_at_least(0), default=6)
    p_vir.add_argument("--window", type=_at_least(0), default=4)
    p_vir.add_argument("--prime", type=_prime, default=2)
    p_vir.add_argument("--full", action="store_true")
    p_vir.set_defaults(func=_cmd_virasoro)

    for subparser in sub.choices.values():
        subparser.add_argument("--out", default=None)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process (its 5 subcommands and
    about 25 options take about 1 ms to build, a parse 0.04 ms);
    `_parser.cache_clear()` drops it.  A parse changes nothing in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.func(args)
        _emit(payload, args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
