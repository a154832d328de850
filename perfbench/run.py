"""Benchmark of padic-voa: exact mode computations timed cold and warm.

One run of one workload (run from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as its last line, {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer
metrics with `--trace 1`.  Set-up is timed in 20 fresh interpreters that
only set up, ten before and ten after the one that runs the passes (see
worker.py); each is scaled to the reference speed of speed.py by probes run
here around it, and `setup_s` is the median.  The result is also written to
perfbench/out/.

Every workload, several times, with medians and quartiles:

    python3 perfbench/run.py --repeat 10 [--workload NAME ...] [--seconds S]
        [--first-seed N] [--save FILE]

runs each workload once per seed (untraced) and once more traced, and saves
a summary (default perfbench/out/repeat-<time>.json).  Two summaries are
compared against the bounds of BENCHMARK.json with

    python3 perfbench/run.py --compare FIRST.json SECOND.json

which exits 0 when they agree: every end-to-end spread (but set-up's)
within its bound, no second median worse than the first by more than its
bound, the same share of failed operations, and equal counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up is timed in this many interpreters before the measuring one and
# as many after it, each between SETUP_PROBES_EACH_SIDE speed probes.
SETUP_SPAWNS_EACH_SIDE = 10
SETUP_PROBES_EACH_SIDE = 5
RUN_DEADLINE_S = 175  # a run, with all its interpreters, ends within this


class RunError(RuntimeError):
    pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    t0 = time.monotonic_ns()
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"run exceeded {RUN_DEADLINE_S} s")
    try:
        done = subprocess.run(
            command + ["--t0", str(t0)], cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise RunError(f"run exceeded {RUN_DEADLINE_S} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise RunError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _timed_setup(workload: str, seed: int, deadline: float) -> tuple[float, float]:
    """Set-up time of one interpreter that only sets up, and that time at
    the reference speed of speed.py, from probes run in this process just
    before and just after it."""
    before = statistics.median(speed.time_probe() for _ in range(SETUP_PROBES_EACH_SIDE))
    setup = _worker(workload, seed, 0, 0, True, deadline)["setup_s"]
    after = statistics.median(speed.time_probe() for _ in range(SETUP_PROBES_EACH_SIDE))
    return setup, setup / ((before + after) / 2) * speed.REFERENCE_PROBE_S


def single_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run; returns the result line and the run's samples."""
    spec = _spec()
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise RunError(f"unknown workload {workload!r}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    spawns = 0 if trace else SETUP_SPAWNS_EACH_SIDE
    setups = [_timed_setup(workload, seed, deadline) for _ in range(spawns)]
    measured = _worker(workload, seed, seconds, trace, False, deadline)
    setups += [_timed_setup(workload, seed, deadline) for _ in range(spawns)]
    if trace:
        listed, values = spec["per_layer"], measured["per_layer"]
    else:
        listed = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "cold_s": measured["cold_s"],
            "warm_s": measured["warm_s"],
            "peak_rss_mb": measured["peak_rss_mb"],
        }
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RunError(f"metrics not measured: {missing}")
    result = {
        "correct": not measured["unexpected"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    for problem in measured["unexpected"]:
        print(f"incorrect: {problem}", file=sys.stderr)
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "cycles": measured["cycles"]}
    detail.update(setup_samples=setups, measuring_setup_s=measured["setup_s"])
    detail.update(cold_pass_s=measured["cold_pass_s"], warm_pass_s=measured["warm_pass_s"])
    if trace:
        detail["counts_repeat"] = measured["counts_repeat"]
    else:
        detail.update({key: measured[key] for key in ("cold_scaled_s", "warm_scaled_s", "probes")})
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps({**detail, "result": result}, indent=1))
    return result, detail


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def repeat(count: int, names: list[str], seconds: float, first_seed: int, save: Path | None) -> dict:
    spec = _spec()
    runs: dict[str, list[dict]] = {name: [] for name in names}
    pass_medians: dict[str, dict[str, list[float]]] = {name: {"cold": [], "warm": []} for name in names}
    for seed in range(first_seed, first_seed + count):
        for name in names:
            result, detail = single_run(name, seed, seconds, 0)
            runs[name].append(result)
            for phase in ("cold", "warm"):
                pass_medians[name][phase].append(statistics.median(detail[f"{phase}_pass_s"]))
            print(f"{name} seed {seed}: {json.dumps(result['metrics'])}", file=sys.stderr)
    summary: dict = {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0], "seconds": seconds}
    summary["workloads"] = {}
    for name in names:
        traced, _ = single_run(name, first_seed, seconds, 1)
        end_to_end = {
            m["name"]: _stats([r["metrics"][m["name"]]["value"] for r in runs[name]]) for m in spec["end_to_end"]
        }
        per_layer = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name] = {
            "runs": count,
            "correct": all(r["correct"] for r in runs[name]) and traced["correct"],
            "failed_share": [sum(r["failed"] for r in runs[name]), sum(r["attempted"] for r in runs[name])],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            # whole traced pass against the median whole untraced pass
            "tracing_overhead": {
                phase: per_layer[f"traced.{phase}_s"] / statistics.median(pass_medians[name][phase]) - 1
                for phase in ("cold", "warm")
            },
            "pass_s": {phase: _stats(pass_medians[name][phase]) for phase in ("cold", "warm")},
        }
    if save is None:
        save = OUT / f"repeat-{time.strftime('%Y%m%dT%H%M%S')}.json"
    save.parent.mkdir(parents=True, exist_ok=True)
    save.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {save}", file=sys.stderr)
    _print_table(summary, spec)
    return summary


def _print_table(summary: dict, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, wl in summary["workloads"].items():
        failed, attempted = wl["failed_share"]
        print(f"\n{name}: {wl['runs']} runs, correct={wl['correct']}, failed {failed}/{attempted}", file=sys.stderr)
        for metric, s in wl["end_to_end"].items():
            flag = "" if metric == "setup_s" or s["spread"] <= bounds[metric] else "  SPREAD ABOVE BOUND"
            print(
                f"  {metric:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
                f"  spread {s['spread']:.3f} (bound {bounds[metric]}){flag}",
                file=sys.stderr,
            )
        overhead = wl["tracing_overhead"]
        print(f"  tracing overhead: cold {overhead['cold']:+.2f}, warm {overhead['warm']:+.2f}", file=sys.stderr)


def compare(first: dict, second: dict) -> list[str]:
    """Every way in which two repeat summaries disagree."""
    spec = _spec()
    problems = []
    for name, a in first["workloads"].items():
        b = second["workloads"].get(name)
        if b is None:
            problems.append(f"{name}: missing from the second set")
            continue
        if not (a["correct"] and b["correct"]):
            problems.append(f"{name}: incorrect results")
        fa, na = a["failed_share"]
        fb, nb = b["failed_share"]
        if fa * nb != fb * na:
            problems.append(f"{name}: failed share {fa}/{na} vs {fb}/{nb}")
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            for label, s in (("first", a["end_to_end"][metric]), ("second", b["end_to_end"][metric])):
                if metric != "setup_s" and s["spread"] > bound:
                    problems.append(f"{name} {metric}: {label} spread {s['spread']:.3f} above bound {bound}")
            ma, mb = a["end_to_end"][metric]["median"], b["end_to_end"][metric]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if worse > bound:
                problems.append(f"{name} {metric}: second median {mb:.4f} worse than {ma:.4f} by {worse:.3f}")
        for metric, value in a["per_layer"].items():
            if metric.endswith((".calls", "_entries", "_bytes")) and b["per_layer"].get(metric) != value:
                problems.append(f"{name} {metric}: {value} vs {b['per_layer'].get(metric)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="padic-voa benchmark")
    parser.add_argument("--workload", action="append", help="workload name (repeatable with --repeat)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=None, metavar="N", help="run every workload N times")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)

    try:
        if args.compare:
            first, second = (json.loads(path.read_text()) for path in args.compare)
            problems = compare(first, second)
            for problem in problems:
                print(problem)
            print("the two sets agree" if not problems else f"{len(problems)} disagreements")
            return 1 if problems else 0
        seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
        if args.repeat:
            names = args.workload or [w["name"] for w in _spec()["workloads"]]
            summary = repeat(args.repeat, names, seconds, args.first_seed, args.save)
            return 0 if all(wl["correct"] for wl in summary["workloads"].values()) else 1
        if not args.workload or len(args.workload) != 1:
            parser.error("a single run takes exactly one --workload")
        result, _ = single_run(args.workload[0], args.seed, seconds, args.trace)
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
