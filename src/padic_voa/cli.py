"""Command-line front end: a state-expression parser and subcommands that
orchestrate characters, Eisenstein series, Kummer congruence reports, axiom
defect sweeps, and Virasoro bracket sweeps, with deterministic JSON output.

State-expression grammar (whitespace between tokens is ignored):

    expr   := '-'? term (('+'|'-') term)*
    term   := coeff? factor* 'vac'
    factor := gen '(' '-'? int ')' ('^' int)?
    gen    := 'h' | 'L'
    coeff  := int ('/' int)?

The leading '-' extension lets canonical renderings of states with a negative
leading coefficient round-trip.  h-indices must be nonzero; building a basis
monomial additionally requires them negative (creation).  L-factors are
applied right-to-left to the Virasoro vacuum at the requested quasicentral
charge, so any integer index is meaningful.

Exit codes: 0 on success with all contracts met, 1 on a contract violation
(nonzero defect where an exact zero is required, or a congruence bound
missed), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .axioms import (
    DefectReport,
    commutator_defect,
    isometry_probe,
    jacobi_defect,
    locality_profile,
)
from .fock import HeisenbergState, grade_basis
from .kummer import kummer_check, kummer_index, u_state
from .qchar import (
    character,
    eisenstein_G,
    eisenstein_G2_star,
    normalized_character,
    qseries_padic_distance,
)
from .scalars import is_prime, valuation
from .virasoro import VirasoroState, L_action, vir_bracket_defect, vir_grade_basis

__all__ = [
    "Factor",
    "ParseError",
    "StateExpr",
    "Term",
    "evaluate_heisenberg",
    "evaluate_state",
    "evaluate_virasoro",
    "main",
    "parse_state",
    "render_heisenberg",
]


class ParseError(ValueError):
    """Syntax or validation error with the offending input offset."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.reason = message


@dataclass(frozen=True)
class Factor:
    generator: str
    index: int
    exponent: int = 1


@dataclass(frozen=True)
class Term:
    coefficient: Fraction
    factors: tuple[Factor, ...]


@dataclass(frozen=True)
class StateExpr:
    terms: tuple[Term, ...]

    def generators(self) -> set[str]:
        return {f.generator for t in self.terms for f in t.factors}


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def expect(self, char: str) -> None:
        if not self.take(char):
            raise ParseError(f"expected '{char}'", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def keyword(self, word: str) -> bool:
        self.skip_ws()
        if self.text.startswith(word, self.pos):
            self.pos += len(word)
            return True
        return False

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_state(text: str) -> StateExpr:
    """Parse a state expression; raises ParseError with the input offset."""
    scanner = _Scanner(text)
    terms: list[Term] = []
    sign = -1 if scanner.take("-") else 1
    terms.append(_parse_term(scanner, sign))
    while not scanner.at_end():
        if scanner.take("+"):
            terms.append(_parse_term(scanner, 1))
        elif scanner.take("-"):
            terms.append(_parse_term(scanner, -1))
        else:
            raise ParseError("expected '+', '-', or end of input", scanner.pos)
    return StateExpr(tuple(terms))


def _parse_term(scanner: _Scanner, sign: int) -> Term:
    coeff = Fraction(sign)
    if scanner.peek().isdigit():
        numerator = scanner.integer()
        denominator = 1
        if scanner.take("/"):
            denominator = scanner.integer()
            if denominator == 0:
                raise ParseError("zero denominator", scanner.pos)
        coeff *= Fraction(numerator, denominator)
    factors: list[Factor] = []
    while scanner.peek() in ("h", "L"):
        factors.append(_parse_factor(scanner))
    if not scanner.keyword("vac"):
        raise ParseError("expected generator factor or 'vac'", scanner.pos)
    return Term(coeff, tuple(factors))


def _parse_factor(scanner: _Scanner) -> Factor:
    generator = scanner.peek()
    scanner.pos += 1
    scanner.expect("(")
    index_sign = -1 if scanner.take("-") else 1
    index_pos = scanner.pos
    index = index_sign * scanner.integer()
    scanner.expect(")")
    exponent = 1
    if scanner.take("^"):
        exponent_pos = scanner.pos
        exponent = scanner.integer()
        if exponent < 1:
            raise ParseError("exponent must be >= 1", exponent_pos)
    if generator == "h" and index == 0:
        raise ParseError("h(0) is not a generator", index_pos)
    return Factor(generator, index, exponent)


def evaluate_heisenberg(expr: StateExpr) -> HeisenbergState:
    """Evaluate an expression over h-factors to a Fock state.  Every index
    must be a creation index (negative)."""
    total = HeisenbergState.zero()
    for term in expr.terms:
        parts: list[int] = []
        for factor in term.factors:
            if factor.generator != "h":
                raise ValueError("h-generators required in a Heisenberg expression")
            if factor.index >= 0:
                raise ValueError(
                    f"positive creation index h({factor.index}) where a basis"
                    " monomial is required"
                )
            parts.extend([-factor.index] * factor.exponent)
        total = total + HeisenbergState.monomial(parts, term.coefficient)
    return total


def evaluate_virasoro(expr: StateExpr, charge: Fraction | int) -> VirasoroState:
    """Evaluate an expression over L-factors by applying the modes
    right-to-left to the highest-weight vector."""
    total = VirasoroState.zero(charge)
    for term in expr.terms:
        state = VirasoroState.vacuum(charge, term.coefficient)
        for factor in reversed(term.factors):
            if factor.generator != "L":
                raise ValueError("L-generators required in a Virasoro expression")
            for _ in range(factor.exponent):
                state = L_action(factor.index, state)
        total = total + state
    return total


def evaluate_state(expr: StateExpr, charge: Fraction | int = 0):
    generators = expr.generators()
    if generators == {"h", "L"}:
        raise ValueError("cannot mix h and L generators in one expression")
    if generators == {"L"}:
        return evaluate_virasoro(expr, charge)
    return evaluate_heisenberg(expr)


def render_heisenberg(state: HeisenbergState) -> str:
    """Grammar-compatible canonical rendering (vacuum spelled 'vac')."""
    return state.render(vacuum="vac")


# ---------------------------------------------------------------------------
# sweep drivers


@dataclass
class SweepConfig:
    grade: int
    window: int
    prime: int = 2


def _basis_states(grade: int) -> list[HeisenbergState]:
    return [
        HeisenbergState.monomial(parts)
        for g in range(grade + 1)
        for parts in grade_basis(g)
    ]


def run_jacobi_sweep(config: SweepConfig):
    """All basis triples of grade <= config.grade against
    (r, s, t) in [-window, window]^3; yields DefectReports."""
    basis = _basis_states(config.grade)
    w = config.window
    for u in basis:
        for v in basis:
            for target in basis:
                for r in range(-w, w + 1):
                    for s in range(-w, w + 1):
                        for t in range(-w, w + 1):
                            report = jacobi_defect(u, v, target, r, s, t, config.prime)
                            yield (u, v, target), report


def run_commutator_sweep(config: SweepConfig):
    basis = _basis_states(config.grade)
    w = config.window
    for u in basis:
        for v in basis:
            for target in basis:
                for r in range(-w, w + 1):
                    for s in range(-w, w + 1):
                        report = commutator_defect(u, v, target, r, s, config.prime)
                        yield (u, v, target), report


def run_locality_sweep(config: SweepConfig):
    """Locality decay profiles for basis triples; a row is flagged as a
    violation when a coefficient survives at t >= wt(u) + wt(v)."""
    basis = _basis_states(config.grade)
    for u in basis:
        for v in basis:
            threshold = u.max_weight() + v.max_weight()
            t_max = max(config.window, threshold + 1)
            for target in basis:
                profile = locality_profile(u, v, target, t_max, config.prime)
                yield (u, v, target), threshold, profile


def random_probe_states(
    grade: int, prime: int, count: int, seed: int = 20240229
) -> list[HeisenbergState]:
    """Pseudo-random integral states plus p-power rescalings, for isometry
    probes.  Deterministic for a fixed seed."""
    rng = random.Random(seed)
    pool = [parts for g in range(grade + 1) for parts in grade_basis(g)]
    states: list[HeisenbergState] = []
    while len(states) < count:
        support = rng.sample(pool, k=min(len(pool), rng.randint(1, 4)))
        state = HeisenbergState.zero()
        for parts in support:
            coeff = rng.choice([c for c in range(-9, 10) if c])
            state = state + HeisenbergState.monomial(parts, coeff)
        if state.is_zero:
            continue
        if rng.random() < 0.5:
            state = state.scale(Fraction(prime) ** rng.randint(-2, 2))
        states.append(state)
    return states


def run_isometry_sweep(config: SweepConfig, count: int = 50, seed: int = 20240229):
    window = range(-config.window, config.window + 1)
    for state in random_probe_states(config.grade, config.prime, count, seed):
        lhs, rhs = isometry_probe(state, config.prime, config.grade, window)
        yield state, lhs, rhs


# ---------------------------------------------------------------------------
# subcommand handlers


def _exponent_json(value: int | float):
    return None if value == -inf else value


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _cmd_character(args) -> int:
    expr = parse_state(args.state)
    state = evaluate_heisenberg(expr)
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
        exponents = [
            None if c == 0 else -valuation(c, args.prime) for c in series.coeffs
        ]
        payload["prime"] = args.prime
        payload["coefficient_norm_exponents"] = exponents
        finite = [e for e in exponents if e is not None]
        payload["sup_norm_exponent"] = max(finite) if finite else None
    _emit(payload, args.out)
    return 0


def _cmd_eisenstein(args) -> int:
    if args.star:
        if args.prime is None:
            print("error: --star requires --prime", file=sys.stderr)
            return 2
        series = eisenstein_G2_star(args.prime, args.qmax)
        payload = {
            "command": "eisenstein",
            "kind": "G2_star",
            "prime": args.prime,
            "qmax": args.qmax,
            "series": series.to_json(),
        }
    else:
        if args.k is None:
            print("error: provide --k or --star", file=sys.stderr)
            return 2
        series = eisenstein_G(args.k, args.qmax)
        payload = {
            "command": "eisenstein",
            "k": args.k,
            "kind": "G",
            "qmax": args.qmax,
            "series": series.to_json(),
        }
    _emit(payload, args.out)
    return 0


def _cmd_kummer(args) -> int:
    p = args.prime
    state_rows = []
    ok = True
    for a in range(args.amax + 1):
        for b in range(a, args.amax + 1):
            report = kummer_check(p, a, b)
            bound = -(a + 1)
            row_ok = report.norm_exponent <= bound
            ok = ok and row_ok
            state_rows.append(
                {
                    "a": a,
                    "b": b,
                    "r": kummer_index(p, a),
                    "s": kummer_index(p, b),
                    "norm_exponent": _exponent_json(report.norm_exponent),
                    "bound": bound,
                    "ok": row_ok,
                }
            )
    target = eisenstein_G2_star(p, args.qmax).scale(2)
    char_rows = []
    for a in range(args.amax + 1):
        u = u_state(kummer_index(p, a), p)
        series = normalized_character(u, args.qmax)
        per_coeff = [
            None if series.coeffs[n] == target.coeffs[n] else -valuation(series.coeffs[n] - target.coeffs[n], p)
            for n in range(args.qmax + 1)
        ]
        distance = qseries_padic_distance(series, target, p)
        bound = -(a + 1)
        row_ok = distance <= bound
        ok = ok and row_ok
        char_rows.append(
            {
                "a": a,
                "r": kummer_index(p, a),
                "distance_exponent": _exponent_json(distance),
                "bound": bound,
                "coefficient_exponents": per_coeff,
                "ok": row_ok,
            }
        )
    payload = {
        "command": "kummer",
        "prime": p,
        "amax": args.amax,
        "qmax": args.qmax,
        "state_congruences": state_rows,
        "character_distances": char_rows,
        "all_ok": ok,
    }
    _emit(payload, args.out)
    return 0 if ok else 1


_SUITE_DEFAULTS = {
    "jacobi": (3, 2),
    "commutator": (4, 3),
    "locality": (3, 8),
    "isometry": (3, 5),
}


def _cmd_axioms(args) -> int:
    grade, window = _SUITE_DEFAULTS[args.suite]
    if args.grade is not None:
        grade = args.grade
    if args.window is not None:
        window = args.window
    prime = args.prime if args.prime is not None else (3 if args.suite == "isometry" else 2)
    config = SweepConfig(grade=grade, window=window, prime=prime)

    checks = 0
    violations = []
    rows = []
    if args.suite == "jacobi":
        for (u, v, w), report in run_jacobi_sweep(config):
            checks += 1
            row = _axiom_row(u, v, w, report)
            if args.full:
                rows.append(row)
            if not report.is_zero:
                violations.append(row)
    elif args.suite == "commutator":
        for (u, v, w), report in run_commutator_sweep(config):
            checks += 1
            row = _axiom_row(u, v, w, report)
            if args.full:
                rows.append(row)
            if not report.is_zero:
                violations.append(row)
    elif args.suite == "locality":
        for (u, v, w), threshold, profile in run_locality_sweep(config):
            for t, exponent in profile:
                checks += 1
                row = {
                    "u": render_heisenberg(u),
                    "v": render_heisenberg(v),
                    "w": render_heisenberg(w),
                    "t": t,
                    "threshold": threshold,
                    "norm_exponent": _exponent_json(exponent),
                }
                if args.full:
                    rows.append(row)
                if t >= threshold and exponent != -inf:
                    violations.append(row)
    else:  # isometry
        for state, lhs, rhs in run_isometry_sweep(config, count=args.count, seed=args.seed):
            checks += 1
            row = {
                "state": render_heisenberg(state),
                "lhs": _exponent_json(lhs),
                "rhs": _exponent_json(rhs),
                "ok": lhs == rhs,
            }
            if args.full:
                rows.append(row)
            if lhs != rhs:
                violations.append(row)

    payload = {
        "command": "axioms",
        "suite": args.suite,
        "grade": grade,
        "window": window,
        "prime": prime,
        "checks": checks,
        "violations": violations,
        "all_ok": not violations,
    }
    if args.full:
        payload["rows"] = rows
    _emit(payload, args.out)
    return 0 if not violations else 1


def _axiom_row(u, v, w, report: DefectReport) -> dict:
    row = {
        "u": render_heisenberg(u),
        "v": render_heisenberg(v),
        "w": render_heisenberg(w),
        "norm_exponent": _exponent_json(report.norm_exponent),
    }
    row.update(report.parameters)
    return row


def _cmd_virasoro(args) -> int:
    charge = Fraction(args.cprime)
    window = args.window
    checks = 0
    violations = []
    rows = []
    integral_charge = charge.denominator == 1
    integrality_ok = True
    for g in range(args.grade + 1):
        for word in vir_grade_basis(g):
            state = VirasoroState.word(word, charge)
            for m in range(-window, window + 1):
                for n in range(-window, window + 1):
                    report = vir_bracket_defect(m, n, state, args.prime)
                    checks += 1
                    row = {
                        "word": state.render(),
                        "norm_exponent": _exponent_json(report.norm_exponent),
                    }
                    row.update(report.parameters)
                    if args.full:
                        rows.append(row)
                    if not report.is_zero:
                        violations.append(row)
            if integral_charge:
                for n in range(-window, window + 1):
                    if not L_action(n, state).is_integral():
                        integrality_ok = False
                        violations.append({"word": state.render(), "n": n, "non_integral": True})
    payload = {
        "command": "virasoro",
        "cprime": str(charge),
        "grade": args.grade,
        "window": window,
        "checks": checks,
        "integral_charge": integral_charge,
        "integrality_ok": integrality_ok,
        "violations": violations,
        "all_ok": not violations,
    }
    if args.full:
        payload["rows"] = rows
    _emit(payload, args.out)
    return 0 if not violations else 1


def _prime(text: str) -> int:
    """argparse type: a prime number."""
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{text} is not a prime")
    return value


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
    p_char.add_argument("--out", default=None)
    p_char.set_defaults(func=_cmd_character)

    p_eis = sub.add_parser("eisenstein", help="Eisenstein series G_k or G_2*")
    p_eis.add_argument("--k", type=int, default=None)
    p_eis.add_argument("--star", action="store_true", help="p-stabilized weight-2 series")
    p_eis.add_argument("--prime", type=_prime, default=None)
    p_eis.add_argument("--qmax", type=_at_least(0), default=20)
    p_eis.add_argument("--out", default=None)
    p_eis.set_defaults(func=_cmd_eisenstein)

    p_kum = sub.add_parser("kummer", help="Kummer congruence report")
    p_kum.add_argument("--prime", type=_prime, required=True)
    p_kum.add_argument("--amax", type=_at_least(0), default=2)
    p_kum.add_argument("--qmax", type=_at_least(0), default=10)
    p_kum.add_argument("--out", default=None)
    p_kum.set_defaults(func=_cmd_kummer)

    p_ax = sub.add_parser("axioms", help="axiom defect sweeps")
    p_ax.add_argument("--suite", required=True, choices=sorted(_SUITE_DEFAULTS))
    p_ax.add_argument("--grade", type=_at_least(0), default=None)
    p_ax.add_argument("--window", type=_at_least(0), default=None)
    p_ax.add_argument("--prime", type=_prime, default=None)
    p_ax.add_argument("--count", type=_at_least(1), default=50, help="isometry probe count")
    p_ax.add_argument("--seed", type=int, default=20240229)
    p_ax.add_argument("--full", action="store_true", help="emit every row, not only violations")
    p_ax.add_argument("--out", default=None)
    p_ax.set_defaults(func=_cmd_axioms)

    p_vir = sub.add_parser("virasoro", help="Virasoro bracket defect table")
    p_vir.add_argument("--cprime", default="1", help="quasicentral charge (rational)")
    p_vir.add_argument("--grade", type=_at_least(0), default=6)
    p_vir.add_argument("--window", type=_at_least(0), default=4)
    p_vir.add_argument("--prime", type=_prime, default=2)
    p_vir.add_argument("--full", action="store_true")
    p_vir.add_argument("--out", default=None)
    p_vir.set_defaults(func=_cmd_virasoro)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
