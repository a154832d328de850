"""One measured run of one workload, in this interpreter alone.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 NS [--setup-only]

`--t0` is the parent's `time.monotonic_ns()` just before it started this
interpreter, so set-up time counts interpreter start, the `padic_voa`
import and input generation.  After set-up the worker runs whole cycles
until the passes have taken `--seconds`: every program cache is reset to
its import-time state, a cold pass runs every operation, then an identical
warm pass runs them again.  Each pass is checked after it ends.  With
`--trace 0` every pass runs beside the speed probe of speed.py, and its time
is reported at the reference speed.  With `--trace 1` every pass runs under
`cProfile` instead, every operation is timed on its own, the spans of the
first cycle go to perfbench/out/, and the profile's self times and call
counts are attributed to the modules of `padic_voa`.

The last line of standard output is one JSON object for `run.py`.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"

LAYERS = ("scalars", "fock", "modes", "axioms", "qchar", "kummer", "virasoro", "cli", "fractions", "builtins", "other")

# per-layer metric -> (module, function) entries whose call counts add up
CALL_COUNTS = {
    "fractions.new.calls": [("fractions", "__new__")],
    "fractions.arith.calls": [("fractions", f) for f in ("_add", "_sub", "_mul", "_div")],
    "fock.accumulate.calls": [("fock", "_accumulate_terms")],
    "modes.mode_action.calls": [("modes", "mode_action")],
    "modes.monomial_mode.calls": [("modes", "_monomial_mode")],
    "scalars.bernoulli.calls": [("scalars", "bernoulli")],
    "scalars.valuation.calls": [("scalars", "valuation")],
    "virasoro.apply.calls": [("virasoro", "_apply")],
    "virasoro.word_mode.calls": [("virasoro", "_word_mode")],
}
# per-layer metric -> (module, function) whose cumulative time is reported
CUMULATIVE = {
    "modes.mode_action.s": ("modes", "mode_action"),
    "axioms.jacobi_defect.s": ("axioms", "jacobi_defect"),
    "axioms.commutator_defect.s": ("axioms", "commutator_defect"),
    "axioms.locality_profile.s": ("axioms", "locality_profile"),
    "qchar.normalized_character.s": ("qchar", "normalized_character"),
    "kummer.kummer_check.s": ("kummer", "kummer_check"),
    "kummer.limit_character_check.s": ("kummer", "limit_character_check"),
    "virasoro.vir_mode_action.s": ("virasoro", "vir_mode_action"),
    "cli.main.s": ("cli", "main"),
}
COUNT_SUFFIXES = (".calls", "_entries", "_bytes")


def _import_program():
    """Import `padic_voa` from this checkout's `src/`, never from elsewhere."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import padic_voa

    if Path(padic_voa.__file__).resolve().parent != ROOT / "src" / "padic_voa":
        raise ImportError(f"padic_voa imported from {padic_voa.__file__}, not from {ROOT / 'src'}")
    return padic_voa


class ProgramCaches:
    """Every cache the program keeps: `functools` caches, and module-level
    dicts, lists and sets (`_MODE_CACHE`, the Bernoulli list, ...), with
    the contents they had right after import.  `reset` restores them, so
    that a pass starts as cold as a fresh interpreter."""

    def __init__(self) -> None:
        self.cached_functions: list = []
        self.containers: list[tuple[object, object]] = []
        for name, module in sorted(sys.modules.items()):
            if name != "padic_voa" and not name.startswith("padic_voa."):
                continue
            for attr, value in vars(module).items():
                if attr.startswith("__"):
                    continue
                if callable(value) and hasattr(value, "cache_clear"):
                    self.cached_functions.append(value)
                elif type(value) in (dict, list, set):
                    self.containers.append((value, value.copy()))

    def reset(self) -> None:
        for function in self.cached_functions:
            function.cache_clear()
        for live, initial in self.containers:
            live.clear()
            if isinstance(live, list):
                live.extend(initial)
            else:
                live.update(initial)


def run_pass(ops):
    """Run every operation once; returns (stamps, results, errors), where
    stamps[i] is the (start, end) `perf_counter` pair of operation i and
    errors maps the index of each operation that raised to its exception."""
    results = [None] * len(ops)
    stamps = [None] * len(ops)
    errors: dict[int, BaseException] = {}
    clock = time.perf_counter
    for index, op in enumerate(ops):
        began = clock()
        try:
            results[index] = op.func(*op.args)
        except Exception as exc:  # counted as a failed operation
            errors[index] = exc
        stamps[index] = (began, clock())
    return stamps, results, errors


def _layer_of(filename: str) -> str:
    path = Path(filename)
    if filename == "~":
        return "builtins"
    if path.parent.name == "padic_voa" and path.stem in LAYERS:
        return path.stem
    if path.name == "fractions.py":
        return "fractions"
    return "other"


def profile_metrics(profile: cProfile.Profile, prefix: str = "") -> dict[str, float]:
    """Self time per layer; call counts and cumulative times of the named
    functions."""
    profile.create_stats()
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[tuple[str, str], int] = {}
    cumulative: dict[tuple[str, str], float] = {}
    for (filename, _, func), (_, ncalls, tottime, cumtime, _) in profile.stats.items():
        layer = _layer_of(filename)
        self_s[layer] += tottime
        calls[(layer, func)] = calls.get((layer, func), 0) + ncalls
        cumulative[(layer, func)] = cumulative.get((layer, func), 0.0) + cumtime
    metrics = {f"{layer}.{prefix}self_s": seconds for layer, seconds in self_s.items()}
    if prefix:
        return metrics
    for name, entries in CALL_COUNTS.items():
        metrics[name] = sum(calls.get(entry, 0) for entry in entries)
    for name, entry in CUMULATIVE.items():
        metrics[name] = cumulative.get(entry, 0.0)
    return metrics


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(workload, caches: ProgramCaches, seconds: float, trace: bool) -> dict:
    """Whole cycles (reset, cold pass, warm pass) until the passes have
    taken `seconds`.  An untraced pass runs beside the speed probe
    (speed.py), and its reported time is its program time at the reference
    speed; `cold_s` and `warm_s` are the medians over the run's passes of
    each kind.  The machine's speed swings by up to half within seconds and
    between minutes, and a raw time carries all of it; the scaled time moves
    by a few percent (README, "Steadiness").  A traced pass runs without the
    probe, so that the profile holds only the program."""
    import speed
    import workloads

    modes = sys.modules["padic_voa.modes"]
    sampler = None if trace else speed.SpeedSampler()
    passes: dict[str, list[float]] = {"cold": [], "warm": []}
    scaled: dict[str, list[float]] = {"cold": [], "warm": []}
    probes: list[int] = []
    layer_rows: list[dict] = []
    attempted = failed = 0
    unexpected: list[str] = []
    first_spans: list = []
    measured = 0.0
    while measured < seconds:
        caches.reset()
        row: dict[str, float] = {}
        for phase in ("cold", "warm"):
            began = time.perf_counter()
            if sampler:
                (stamps, results, errors), elapsed, at_reference = sampler.measure(lambda: run_pass(workload.ops))
                scaled[phase].append(at_reference)
                probes.append(len(sampler.samples))
            else:
                profile = cProfile.Profile()
                profile.enable()
                stamps, results, errors = run_pass(workload.ops)
                profile.disable()
                elapsed = stamps[-1][1] - stamps[0][0]
            measured += time.perf_counter() - began
            passes[phase].append(elapsed)
            if not sampler:
                if phase == "cold":
                    row.update(profile_metrics(profile))
                    entries = len(getattr(modes, "_MODE_CACHE", ()))
                    row["modes.cache_entries"] = entries
                    calls = row["modes.monomial_mode.calls"]
                    row["modes.cache_hit_ratio"] = 1 - entries / calls if calls else 0.0
                    row["cli.stdout_bytes"] = sum(
                        len(res[1].encode()) for op, res in zip(workload.ops, results) if op.name == "cli.main" and res
                    )
                else:
                    row.update(profile_metrics(profile, prefix="warm_"))
                row[f"traced.{phase}_s"] = elapsed
                if not layer_rows:  # the spans of the first cycle go to the trace file
                    origin = stamps[0][0]
                    spans = [(op.name, b - origin, e - origin) for op, (b, e) in zip(workload.ops, stamps)]
                    first_spans.append({"pass": phase, "seconds": elapsed, "ops": spans})
            verdict = workloads.judge(workload, results, errors)
            attempted += verdict.attempted
            failed += verdict.failed
            unexpected.extend(verdict.unexpected)
        layer_rows.append(row)

    out = {
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected[:20],
        "cycles": len(passes["cold"]),
        "cold_pass_s": passes["cold"],
        "warm_pass_s": passes["warm"],
        "peak_rss_mb": _peak_rss_mb(),
    }
    if sampler:
        out.update(cold_s=statistics.median(scaled["cold"]), warm_s=statistics.median(scaled["warm"]))
        out.update(cold_scaled_s=scaled["cold"], warm_scaled_s=scaled["warm"], probes=probes)
    if trace:
        out["per_layer"] = {
            name: layer_rows[0][name]
            if name.endswith(COUNT_SUFFIXES)
            else statistics.median(r[name] for r in layer_rows)
            for name in layer_rows[0]
        }
        out["counts_repeat"] = all(
            r[name] == layer_rows[0][name] for r in layer_rows for name in r if name.endswith(COUNT_SUFFIXES)
        )
        out["spans"] = first_spans
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=int, required=True, help="parent's monotonic_ns before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    caches = ProgramCaches()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(workload, caches, args.seconds, bool(args.trace)))
        spans = result.pop("spans", None)
        if spans is not None:
            OUT.mkdir(parents=True, exist_ok=True)
            trace_file = OUT / f"{args.workload}-seed{args.seed}.trace.json"
            trace_file.write_text(
                json.dumps({"workload": args.workload, "seed": args.seed, "spans_of_first_cycle": spans, **result})
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
