"""Self-test of the benchmark's checks, at tiny sizes.

    python3 -m pytest perfbench/tests -q

Each workload, built small, must pass its own checks; then one result is
corrupted and its checker must reject it.  A check that cannot fail
protects nothing.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import speed  # noqa: E402
import workloads  # noqa: E402
from padic_voa.axioms import DefectReport  # noqa: E402
from padic_voa.fock import HeisenbergState  # noqa: E402
from padic_voa.qchar import QSeries  # noqa: E402
from padic_voa.virasoro import VirasoroState  # noqa: E402
from worker import ProgramCaches, run_pass  # noqa: E402

SEED = 7


def _tiny_heisenberg():
    return workloads.heisenberg_axioms(
        SEED, mode_grade=2, mode_ns=range(-2, 4), jacobi=(1, 1), commutator=(1, 1), locality=(1, 1), samples=6
    )


def _tiny_characters():
    return workloads.characters_kummer(
        SEED, rs=(1, 3), qmax=6, primes=(5,), amax=1, limit=(5, 1, 4), cli_primes=(3, 5), cli_amax=1
    )


def _tiny_virasoro():
    return workloads.virasoro_modes(SEED, grade=4, ns=range(-2, 3), charges=(1,), cli_sweep=(3, 1), samples=8)


def _judge_with(workload, results, index, corrupted):
    patched = list(results)
    patched[index] = corrupted
    return workloads.judge(workload, patched, {})


def _index(workload, name, predicate=lambda op: True):
    return next(i for i, op in enumerate(workload.ops) if op.name == name and predicate(op))


def test_tiny_workloads_pass_their_checks():
    for build, expected_failures in ((_tiny_heisenberg, 0), (_tiny_characters, 1), (_tiny_virasoro, 0)):
        workload = build()
        _, results, errors = run_pass(workload.ops)
        verdict = workloads.judge(workload, results, errors)
        assert verdict.unexpected == [], verdict.unexpected
        assert verdict.failed == expected_failures


def test_heisenberg_checker_rejects_a_perturbed_defect():
    workload = _tiny_heisenberg()
    _, results, _ = run_pass(workload.ops)
    for name in ("axioms.jacobi_defect", "axioms.commutator_defect"):
        index = _index(workload, name)
        clean = results[index]
        perturbed = clean.defect + HeisenbergState.monomial([2, 1], Fraction(1, 3))
        corrupted = DefectReport.from_defect(perturbed, clean.prime, clean.parameters)
        verdict = _judge_with(workload, results, index, corrupted)
        assert verdict.failed == 1 and "nonzero defect" in verdict.unexpected[0]


def test_heisenberg_checker_rejects_a_surviving_locality_coefficient():
    workload = _tiny_heisenberg()
    _, results, _ = run_pass(workload.ops)
    index = _index(workload, "axioms.locality_profile")
    corrupted = results[index][:-1] + [(results[index][-1][0], -3)]
    assert _judge_with(workload, results, index, corrupted).failed == 1


def test_heisenberg_checker_rejects_a_wrong_mode_coefficient():
    workload = _tiny_heisenberg()
    _, results, _ = run_pass(workload.ops)
    nonzero = [i for i, op in enumerate(workload.ops) if op.name == "modes.mode_action" and not results[i].is_zero]
    caught = 0
    for index in nonzero:
        parts, coeff = results[index].items()[0]
        # A term of the wrong weight is caught on every result ...
        wrong_weight = results[index] + HeisenbergState.monomial(list(parts) + [1], coeff)
        assert _judge_with(workload, results, index, wrong_weight).failed == 1
        # ... a wrong coefficient where the seed sampled the result for the
        # normal-ordered oracle.
        wrong = results[index] + HeisenbergState.monomial(parts, 1)
        caught += _judge_with(workload, results, index, wrong).failed
    assert caught >= 1, "no sampled mode_action result is compared with the oracle"


def test_heisenberg_count_check_rejects_a_truncated_sweep():
    workload = _tiny_heisenberg()
    _, results, _ = run_pass(workload.ops)
    index = _index(workload, "axioms.jacobi_defect")
    del workload.ops[index], results[index]
    verdict = workloads.judge(workload, results, {})
    assert any("jacobi" in problem for problem in verdict.unexpected)


def test_character_checker_rejects_a_coefficient_off_by_one_over_p():
    workload = _tiny_characters()
    _, results, _ = run_pass(workload.ops)
    index = _index(workload, "qchar.normalized_character")
    clean = results[index]
    coeffs = list(clean.coeffs)
    coeffs[3] += Fraction(1, 5)
    verdict = _judge_with(workload, results, index, QSeries(coeffs, clean.offset))
    assert verdict.failed == 2  # the corrupted character and the known p = 3 fault
    assert "q^[3]" in verdict.unexpected[0]


def test_kummer_checker_rejects_a_wrong_vacuum_coefficient():
    workload = _tiny_characters()
    _, results, _ = run_pass(workload.ops)
    index = _index(workload, "kummer.kummer_check", lambda op: op.args[1] < op.args[2])
    clean = results[index]
    p = clean.parameters["p"]
    shifted = clean.defect + HeisenbergState.vacuum(Fraction(p) ** 5)  # keeps the norm bound
    verdict = _judge_with(workload, results, index, DefectReport.from_defect(shifted, p, clean.parameters))
    assert any("vacuum coefficient" in problem for problem in verdict.unexpected)


def test_only_the_known_fault_may_fail():
    workload = _tiny_characters()
    _, results, _ = run_pass(workload.ops)
    index = _index(workload, "cli.main", lambda op: "--prime 5" in op.key)
    verdict = _judge_with(workload, results, index, (1, results[index][1]))
    assert verdict.failed == 2 and len(verdict.unexpected) == 1


def test_virasoro_checker_rejects_a_word_with_a_wrong_coefficient():
    workload = _tiny_virasoro()
    _, results, _ = run_pass(workload.ops)
    caught = 0
    for index, op in enumerate(workload.ops):
        if op.name != "virasoro.vir_mode_action" or results[index].is_zero:
            continue
        word, coeff = results[index].items()[0]
        wrong = results[index] + VirasoroState.word(word, results[index].charge, 1)
        caught += _judge_with(workload, results, index, wrong).failed
        non_integral = results[index] + VirasoroState.word(word, results[index].charge, Fraction(1, 2))
        assert _judge_with(workload, results, index, non_integral).failed == 1
    assert caught >= 1, "no sampled vir_mode_action result is compared with skew-symmetry"


def test_virasoro_cli_checker_rejects_a_missing_row():
    workload = _tiny_virasoro()
    _, results, _ = run_pass(workload.ops)
    index = _index(workload, "cli.main")
    code, text = results[index]
    payload = json.loads(text)
    payload["rows"].pop()
    verdict = _judge_with(workload, results, index, (code, json.dumps(payload)))
    assert verdict.failed == 1 and "rows" in verdict.unexpected[0]


def test_reset_empties_the_program_caches():
    import padic_voa.modes as modes
    import padic_voa.scalars as scalars

    modes.clear_mode_cache()
    del scalars._BERNOULLI[1:]
    caches = ProgramCaches()
    run_pass(_tiny_characters().ops)
    assert modes._MODE_CACHE and len(scalars._BERNOULLI) > 1
    caches.reset()
    assert not modes._MODE_CACHE and scalars._BERNOULLI == [1]


def test_reference_speed_divides_each_gap_by_its_probes():
    # probes of 2 ms, then (after 10 ms of program) 4 ms, then (after 6 ms) 4 ms
    samples = [(0.0, 0.002), (0.012, 0.004), (0.022, 0.004)]
    program, scaled = speed.at_reference_speed(samples)
    assert abs(program - 0.016) < 1e-12
    expected = (0.010 / 0.003 + 0.006 / 0.004) * speed.REFERENCE_PROBE_S
    assert abs(scaled - expected) < 1e-12


def test_sampler_probes_during_a_pass_and_leaves_its_results_alone():
    workload = _tiny_characters()
    expected = [result for result in run_pass(workload.ops)[1]]

    def long_pass():
        results = []
        while len(results) < 3 or time.perf_counter() - began < 4 * speed.SAMPLE_INTERVAL_S:
            results = run_pass(workload.ops)[1]
        return results

    began = time.perf_counter()
    sampler = speed.SpeedSampler()
    results, program, scaled = sampler.measure(long_pass)
    assert results == expected
    assert len(sampler.samples) >= 4  # the two around the pass, and the alarms within it
    assert program > 0 and scaled > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
