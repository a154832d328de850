"""The benchmark's workloads: the operations each one runs, and the checks
that judge every result.

An operation is one call into a public function of `padic_voa` or into
`padic_voa.cli.main`.  It fails when it raises, when `cli.main` returns a
non-zero exit code, or when its result fails the operation's check.  The
checks compare against computations made apart from the program (the
oracles in `tests/oracles.py`: Akiyama-Tanigawa Bernoulli numbers,
brute-force divisor sums, generating-function partition counts and the
brute-force normal-ordered mode expansion) or against properties the
method must have (exact zero defects, grading, the vacuum axiom,
skew-symmetry).

The seed picks only which results get the sampled oracle cross-checks; the
timed operations are the same for every seed, so every call count the
traced run reports repeats exactly from seed to seed.

Importing this module imports `padic_voa`, so the caller puts the
checkout's `src/` on `sys.path` first; `tests/` must be there too before
a check runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import factorial, inf
from typing import Any, Callable

from padic_voa import cli
from padic_voa.axioms import commutator_defect, jacobi_defect, locality_profile
from padic_voa.fock import HeisenbergState, grade_basis
from padic_voa.kummer import kummer_check, kummer_index, limit_character_check, v_state
from padic_voa.modes import mode_action
from padic_voa.qchar import normalized_character
from padic_voa.virasoro import L_action, VirasoroState, vir_grade_basis, vir_mode_action

Check = Callable[[Any], "str | None"]


@dataclass
class Op:
    """One operation: `func(*args)`, named for its span as
    `<module>.<function>`, with the check its result must pass."""

    name: str
    func: Callable
    args: tuple
    check: Check
    key: str = ""


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Whole-sweep properties (counts, non-vacuity); each returns a list of
    # problems given the pass's results.
    sweep_checks: list[Callable[[list], list[str]]] = field(default_factory=list)
    # Keys of operations that fail on every run because of a known fault in
    # the program; their failure is counted but does not make a run
    # incorrect.
    known_faults: frozenset[str] = frozenset()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`cli.main(argv)` with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _oracles():
    import oracles  # tests/oracles.py

    return oracles


# ---------------------------------------------------------------------------
# checks, one per kind of result


def check_zero_defect(report) -> str | None:
    if report.norm_exponent != -inf or not report.defect.is_zero:
        return f"nonzero defect, norm exponent {report.norm_exponent}"
    return None


def check_locality(profile, threshold: int, t_max: int) -> str | None:
    if [t for t, _ in profile] != list(range(t_max + 1)):
        return f"profile rows {[t for t, _ in profile]} are not t = 0..{t_max}"
    survivors = [(t, e) for t, e in profile if t >= threshold and e != -inf]
    if survivors:
        return f"coefficients survive at t >= {threshold}: {survivors}"
    return None


def check_heisenberg_mode(u: HeisenbergState, n: int, w: HeisenbergState, result, expected=None) -> str | None:
    """u(n)w for homogeneous basis states: zero or homogeneous of weight
    wt u + wt w - n - 1, zero once n >= wt u + wt w, the vacuum axiom
    (|0>(n)w = delta_{n,-1} w; u(-1)|0> = u and u(n)|0> = 0 for n >= 0), and
    (when given) equality with an independent expansion."""
    total = u.weight() + w.weight()
    if not result.is_zero and result.weight() != total - n - 1:
        return f"weight {result.weight()}, expected {total - n - 1}"
    if n >= total and not result.is_zero:
        return f"u({n})w is nonzero although n >= wt u + wt w = {total}"
    if u == HeisenbergState.vacuum() and result != (w if n == -1 else HeisenbergState.zero()):
        return "vacuum field is not the identity"
    if w == HeisenbergState.vacuum() and n >= -1 and result != (u if n == -1 else HeisenbergState.zero()):
        return "creation axiom fails"
    if expected is not None and result != expected:
        return "differs from the normal-ordered expansion"
    return None


def check_series(series, expected: list[Fraction]) -> str | None:
    if series.offset != 0 or series.order != len(expected) - 1:
        return f"offset {series.offset}, order {series.order}"
    bad = [n for n, (c, e) in enumerate(zip(series.coeffs, expected)) if c != e]
    return f"coefficients differ at q^{bad}" if bad else None


def check_kummer(report, a: int, vacuum_difference: Fraction) -> str | None:
    if report.norm_exponent > -(a + 1):
        return f"norm exponent {report.norm_exponent} above the bound {-(a + 1)}"
    if report.defect.coefficient(()) != vacuum_difference:
        return "vacuum coefficient differs from z(r+1) - z(s+1)"
    return None


def check_bound(distance, a: int) -> str | None:
    return None if distance <= -(a + 1) else f"distance exponent {distance} above {-(a + 1)}"


def check_cli_kummer(outcome: tuple[int, str], amax: int) -> str | None:
    code, text = outcome
    if code != 0:
        return f"exit code {code}"
    payload = json.loads(text)
    states, chars = payload["state_congruences"], payload["character_distances"]
    if len(states) != (amax + 1) * (amax + 2) // 2 or len(chars) != amax + 1:
        return f"{len(states)} state rows and {len(chars)} character rows"
    if not payload["all_ok"] or not all(row["ok"] for row in states + chars):
        return "a row misses its bound"
    return None


def check_cli_virasoro(outcome: tuple[int, str], expected_checks: int) -> str | None:
    code, text = outcome
    if code != 0:
        return f"exit code {code}"
    payload = json.loads(text)
    if payload["checks"] != expected_checks or len(payload["rows"]) != expected_checks:
        return f"{payload['checks']} checks and {len(payload['rows'])} rows, expected {expected_checks}"
    if payload["violations"] or not payload["all_ok"] or not payload["integrality_ok"]:
        return "bracket violations or a non-integral image"
    if any(row["norm_exponent"] is not None for row in payload["rows"]):
        return "a row reports a nonzero bracket defect"
    return None


def check_virasoro_mode(a: VirasoroState, n: int, b: VirasoroState, result, skew=None) -> str | None:
    """a(n)b for PBW words: integral at integer c', zero or homogeneous of
    weight wt a + wt b - n - 1, the vacuum axiom (v0(n)b = delta_{n,-1} b;
    a(-1)v0 = a and a(n)v0 = 0 for n >= 0), and (when given) equality
    with the skew-symmetry expansion."""
    total = a.weight() + b.weight()
    if a.charge.denominator == 1 and not result.is_integral():
        return "non-integral coefficient at integer c'"
    if not result.is_zero and result.weight() != total - n - 1:
        return f"weight {result.weight()}, expected {total - n - 1}"
    vacuum = VirasoroState.vacuum(a.charge)
    zero = VirasoroState.zero(a.charge)
    if a == vacuum and result != (b if n == -1 else zero):
        return "vacuum field is not the identity"
    if b == vacuum and n >= -1 and result != (a if n == -1 else zero):
        return "creation axiom fails"
    if skew is not None and result != skew:
        return "skew-symmetry fails"
    return None


def skew_symmetry_rhs(a: VirasoroState, n: int, b: VirasoroState) -> VirasoroState:
    """sum_{j>=0} (-1)^(n+j+1) L(-1)^j / j! b(n+j)a, with L(-1) applied by
    `L_action`; b(m)a vanishes once m >= wt a + wt b."""
    total = VirasoroState.zero(a.charge)
    for j in range(max(0, a.weight() + b.weight() - n)):
        term = vir_mode_action(b, n + j, a)
        for _ in range(j):
            term = L_action(-1, term)
        sign = -1 if (n + j + 1) % 2 else 1
        total = total + term.scale(Fraction(sign, factorial(j)))
    return total


def _count_check(label: str, actual: int, expected: int) -> list[str]:
    return [] if actual == expected else [f"{label}: {actual} operations, expected {expected}"]


# ---------------------------------------------------------------------------
# workloads


def _heisenberg_basis(grade: int) -> list[HeisenbergState]:
    return [HeisenbergState.monomial(parts) for g in range(grade + 1) for parts in grade_basis(g)]


def heisenberg_axioms(
    seed: int,
    mode_grade: int = 3,
    mode_ns: range = range(-2, 7),
    jacobi: tuple[int, int] = (3, 1),
    commutator: tuple[int, int] = (3, 1),
    locality: tuple[int, int] = (2, 1),
    samples: int = 24,
) -> Workload:
    """Jacobi and commutator defects over basis triples (grade, window),
    locality profiles for u, v of grade <= locality[0] against w of grade
    <= locality[1] through t = wt u + wt v + 1, and mode_action over basis
    pairs; `samples` of the mode_action results, chosen by the seed, are
    compared with the brute-force normal-ordered expansion."""
    rng = random.Random(seed)
    ops: list[Op] = []

    mode_basis = _heisenberg_basis(mode_grade)
    mode_keys = [(u, n, w) for u in mode_basis for w in mode_basis for n in mode_ns]
    sampled = set(rng.sample(range(len(mode_keys)), min(samples, len(mode_keys))))
    for index, (u, n, w) in enumerate(mode_keys):
        expected = None
        if index in sampled:
            parts = u.items()[0][0]
            expected = cache(lambda parts=parts, n=n, w=w: _oracles().normal_ordered_mode(parts, n, w))
        ops.append(
            Op(
                "modes.mode_action",
                mode_action,
                (u, n, w),
                lambda res, u=u, n=n, w=w, exp=expected: check_heisenberg_mode(
                    u, n, w, res, exp() if exp else None
                ),
            )
        )

    grade, window = jacobi
    basis = _heisenberg_basis(grade)
    idx = range(-window, window + 1)
    for u in basis:
        for v in basis:
            for w in basis:
                for r in idx:
                    for s in idx:
                        for t in idx:
                            args = (u, v, w, r, s, t)
                            ops.append(Op("axioms.jacobi_defect", jacobi_defect, args, check_zero_defect))

    grade, window = commutator
    basis = _heisenberg_basis(grade)
    idx = range(-window, window + 1)
    for u in basis:
        for v in basis:
            for w in basis:
                for r in idx:
                    for s in idx:
                        args = (u, v, w, r, s)
                        ops.append(Op("axioms.commutator_defect", commutator_defect, args, check_zero_defect))

    uv_grade, w_grade = locality
    locality_rows = 0
    for u in _heisenberg_basis(uv_grade):
        for v in _heisenberg_basis(uv_grade):
            threshold = u.weight() + v.weight()
            for w in _heisenberg_basis(w_grade):
                ops.append(
                    Op(
                        "axioms.locality_profile",
                        locality_profile,
                        (u, v, w, threshold + 1),
                        lambda res, th=threshold: check_locality(res, th, th + 1),
                    )
                )
                locality_rows += threshold + 2

    def counts(results: list) -> list[str]:
        # Basis sizes from the generating function prod (1 - q^k)^(-1).
        sizes = _oracles().partition_counts(max(mode_grade, jacobi[0], commutator[0], uv_grade, w_grade))
        n = lambda g: sum(sizes[: g + 1])  # noqa: E731
        by_name = Counter(op.name for op in ops)
        return (
            _count_check("mode_action", by_name["modes.mode_action"], n(mode_grade) ** 2 * len(mode_ns))
            + _count_check("jacobi", by_name["axioms.jacobi_defect"], n(jacobi[0]) ** 3 * (2 * jacobi[1] + 1) ** 3)
            + _count_check(
                "commutator", by_name["axioms.commutator_defect"], n(commutator[0]) ** 3 * (2 * commutator[1] + 1) ** 2
            )
            + _count_check("locality", by_name["axioms.locality_profile"], n(uv_grade) ** 2 * n(w_grade))
            + _count_check(
                "locality rows",
                sum(len(res) for op, res in zip(ops, results) if op.name == "axioms.locality_profile" and res),
                locality_rows,
            )
        )

    def not_vacuous(results: list) -> list[str]:
        for op, res in zip(ops, results):
            if op.name == "axioms.locality_profile" and res:
                threshold = op.args[3] - 1
                if any(e != -inf for t, e in res if t < threshold):
                    return []
        return ["no locality coefficient below the threshold is nonzero: the sweep is vacuous"]

    return Workload("heisenberg-axioms", ops, [counts, not_vacuous])


def characters_kummer(
    seed: int,
    rs: tuple[int, ...] = (1, 3, 5, 7, 9),
    qmax: int = 16,
    primes: tuple[int, ...] = (5, 7),
    amax: int = 2,
    limit: tuple[int, int, int] = (5, 2, 10),
    cli_primes: tuple[int, ...] = (3, 5),
    cli_amax: int = 2,
) -> Workload:
    """eta * Z(v_r) through q^qmax against G_{r+1}; kummer_check for
    0 <= a <= b <= amax at each prime; limit_character_check (p, a <= amax,
    qmax); and `padic-voa kummer --prime p --amax cli_amax` in-process.
    Every result is checked; the seed is not used."""
    del seed
    ops: list[Op] = []

    top = max([r + 1 for r in rs] + [kummer_index(p, amax) + 1 for p in primes])
    bernoulli_numbers = cache(lambda: _oracles().akiyama_tanigawa_bernoulli(top))

    def eisenstein(k: int) -> list[Fraction]:
        o = _oracles()
        constant = -bernoulli_numbers()[k] / (2 * k)
        return [constant] + [Fraction(o.divisor_sum_brute(n, k - 1)) for n in range(1, qmax + 1)]

    def z(k: int, p: int) -> Fraction:
        """-(1 - p^(k-1)) B_k / k, the vacuum coefficient of u_{k-1}."""
        return -(1 - Fraction(p) ** (k - 1)) * bernoulli_numbers()[k] / k

    for r in rs:
        expected = cache(lambda r=r: eisenstein(r + 1))
        check = lambda res, e=expected: check_series(res, e())  # noqa: E731
        ops.append(Op("qchar.normalized_character", normalized_character, (v_state(r), qmax), check))
    for p in primes:
        for a in range(amax + 1):
            for b in range(a, amax + 1):
                r, s = kummer_index(p, a), kummer_index(p, b)
                ops.append(
                    Op(
                        "kummer.kummer_check",
                        kummer_check,
                        (p, a, b),
                        lambda res, a=a, p=p, r=r, s=s: check_kummer(res, a, z(r + 1, p) - z(s + 1, p)),
                    )
                )
    p, limit_amax, limit_qmax = limit
    for a in range(limit_amax + 1):
        check = lambda res, a=a: check_bound(res, a)  # noqa: E731
        ops.append(Op("kummer.limit_character_check", limit_character_check, (p, a, limit_qmax), check))
    for p in cli_primes:
        argv = ["kummer", "--prime", str(p), "--amax", str(cli_amax)]
        check = lambda res: check_cli_kummer(res, cli_amax)  # noqa: E731
        ops.append(Op("cli.main", run_cli, (argv,), check, key="cli.main " + " ".join(argv)))
    # cli._cmd_kummer judges p = 3 against the generic bound -(a+1), though
    # there the whole difference has exponent exactly 1 - a (the exceptional
    # (p-1) | k branch), so it exits 1 on every run.
    known = frozenset(op.key for op in ops if op.key.startswith("cli.main kummer --prime 3 "))
    return Workload("characters-kummer", ops, known_faults=known)


def virasoro_modes(
    seed: int,
    grade: int = 6,
    ns: range = range(-2, 3),
    charges: tuple[int, ...] = (1, 12),
    cli_sweep: tuple[int, int] = (7, 7),
    samples: int = 12,
) -> Workload:
    """vir_mode_action over all pairs of PBW words of grade <= `grade`, n in
    `ns`, at each quasicentral charge; one `padic-voa virasoro --full`
    bracket sweep at (grade, window) = cli_sweep.  `samples` results, chosen
    by the seed, are compared with the skew-symmetry expansion."""
    rng = random.Random(seed)
    words = [w for g in range(grade + 1) for w in vir_grade_basis(g)]
    keys = [
        (VirasoroState.word(a, c), n, VirasoroState.word(b, c))
        for c in charges
        for a in words
        for b in words
        for n in ns
    ]
    sampled = set(rng.sample(range(len(keys)), min(samples, len(keys))))
    ops: list[Op] = []
    for index, (a, n, b) in enumerate(keys):
        skew = cache(lambda a=a, n=n, b=b: skew_symmetry_rhs(a, n, b)) if index in sampled else None
        ops.append(
            Op(
                "virasoro.vir_mode_action",
                vir_mode_action,
                (a, n, b),
                lambda res, a=a, n=n, b=b, skew=skew: check_virasoro_mode(a, n, b, res, skew() if skew else None),
            )
        )
    cli_grade, cli_window = cli_sweep
    argv = ["virasoro", "--cprime", "1", "--grade", str(cli_grade), "--window", str(cli_window), "--full"]

    def expected_checks() -> int:
        # PBW words of grade g: partitions of g into parts >= 2.
        words_up_to = sum(_oracles().partition_counts(cli_grade, min_part=2))
        return words_up_to * (2 * cli_window + 1) ** 2

    check = lambda res: check_cli_virasoro(res, expected_checks())  # noqa: E731
    ops.append(Op("cli.main", run_cli, (argv,), check, key="cli.main " + " ".join(argv)))

    def counts(results: list) -> list[str]:
        sizes = _oracles().partition_counts(grade, min_part=2)
        actual = Counter(op.name for op in ops)["virasoro.vir_mode_action"]
        return _count_check("vir_mode_action", actual, sum(sizes) ** 2 * len(ns) * len(charges))

    return Workload("virasoro-modes", ops, [counts])


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "heisenberg-axioms": heisenberg_axioms,
    "characters-kummer": characters_kummer,
    "virasoro-modes": virasoro_modes,
}


# ---------------------------------------------------------------------------
# judging a pass


@dataclass
class Verdict:
    attempted: int
    failed: int
    # Failures outside the workload's known faults, and broken whole-sweep
    # properties; either makes the run incorrect.
    unexpected: list[str]


def judge(workload: Workload, results: list, errors: dict[int, BaseException]) -> Verdict:
    """Apply every operation's check to a pass's results.  `errors` maps the
    index of each operation that raised to its exception."""
    failed = 0
    unexpected: list[str] = []
    for index, (op, res) in enumerate(zip(workload.ops, results)):
        if index in errors:
            reason = f"raised {type(errors[index]).__name__}: {errors[index]}"
        else:
            try:
                reason = op.check(res)
            except Exception as exc:  # a malformed result must not abort the run
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None:
            continue
        failed += 1
        if op.key not in workload.known_faults:
            unexpected.append(f"{op.key or op.name + repr(op.args)}: {reason}")
    for sweep_check in workload.sweep_checks:
        unexpected.extend(sweep_check(results))
    return Verdict(len(workload.ops), failed, unexpected)
