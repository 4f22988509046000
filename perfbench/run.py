"""Run one workload of the nystream benchmark and print its metrics.

    python3 perfbench/run.py --workload estimate-q200 --seed 1 --seconds 24 --trace 0

``--trace 0`` times the public entry points with nothing wrapped.  A warm-up
replays the first quarter of a stream; then at least ``MIN_REPLAYS`` streams,
each drawn from its own seed derived from ``--seed``, are replayed until
``--seconds`` have passed, and the first stream's checkpoints are verified.  ``--trace 1`` makes the same warm-up,
one replay without tracing and one traced replay and verify, and reports
the per-layer metrics.  Human-readable lines come first; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, and the spans of a traced run, are written under
``perfbench/out/``.
"""

import os

# One BLAS thread per process, pinned before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import nystream as ns  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.speed import SpeedProbe  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    EPSILON,
    ERRORS,
    WORKLOADS,
    Checks,
    StepClock,
    make_oracle,
    make_problem,
    replay,
    tail_percentile,
)

METRICS = json.loads((HERE / "metrics.json").read_text())
OUT_DIR = HERE / "out"
# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_REPEATS = 3
# Each timed replay streams its own draw of data and chains, so a run's
# timings average over several random dictionaries instead of resting on one.
MIN_REPLAYS = 3


def draw_seed(seed: int, replay_index: int) -> int:
    """Data and chain seed of the ``replay_index``-th replay of a run."""
    return seed * 64 + replay_index % 64


def environment(seed: int) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    blas = {
        name: mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        for name, mod in (("numpy", np), ("scipy", scipy))
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas["numpy"],
        "openblas_scipy": blas["scipy"],
        "seed": seed,
    }


def setup_seconds(workload, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import nystream, generate the
    workload's data and build its oracle."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - start)
    return times


def verify(workload, problem, kernel, result, checks: Checks, tracer=None):
    """Verify the chosen checkpoints one call each; returns the records and
    the total verify seconds."""
    by_step = {cp.step: cp for cp in result.checkpoints}
    records, seconds = [], 0.0
    for t in workload.verify_at:
        if tracer is not None:
            tracer.group = f"verify:{t}"
        start = time.perf_counter()
        try:
            record = ns.verify_checkpoints(
                problem.dataset, kernel, workload.gamma, EPSILON, [by_step[t]],
                workload.algorithm, problem=problem,
            )[0]
        except ERRORS as exc:
            checks.add(1, [f"verify t={t}: {type(exc).__name__}: {exc}"])
            continue
        seconds += time.perf_counter() - start
        records.append(record)
        checks.record(record)
    return records, seconds


def replays(workload, seed, checks: Checks, seconds: float, count: int = MIN_REPLAYS,
            probe=None) -> list:
    """A warm-up replay of the first quarter of the first draw, then at least
    ``count`` timed replays, one draw each, until ``seconds`` have passed."""
    problem, kernel = make_problem(workload, draw_seed(seed, 0))
    warm = workload.n // 4
    checks.replay(replay(dataclasses.replace(workload, n=warm), problem.prefix(warm), kernel,
                         draw_seed(seed, 0)))
    done, started = [], time.perf_counter()
    while len(done) < count or time.perf_counter() - started < seconds:
        rng = draw_seed(seed, len(done))
        problem, kernel = make_problem(workload, rng)
        done.append(replay(workload, problem, kernel, rng, probe=probe))
        checks.replay(done[-1])
        if done[-1].result is None:
            break
    return done


def per_replay_median(reps, statistic) -> float:
    return statistics.median(statistic(r) for r in reps)


def measure(workload, seed: int, seconds: float, report) -> tuple[dict, Checks, dict]:
    """Untraced run: the end-to-end metrics."""
    setup = setup_seconds(workload, seed)
    checks = Checks(workload)
    reps = replays(workload, seed, checks, seconds, probe=SpeedProbe(workload.bound_by))
    reps = [r for r in reps if r.result is not None]
    if not reps:
        raise SystemExit("no replay finished: " + "; ".join(checks.faults[:3]))
    records, verify_s = verify(workload, reps[0].problem, reps[0].kernel, reps[0].result, checks)
    if not records:
        raise SystemExit("no checkpoint verified: " + "; ".join(checks.faults[:3]))
    rates = [1e3 * r.scaled_ms.size / r.scaled_ms.sum() for r in reps]
    last = records[-1]
    # Timings are medians over the replays of each replay's own figure.
    metrics = {
        "setup_s": statistics.median(setup),
        "steps_per_s": statistics.median(rates),
        "step_ms_p50": per_replay_median(reps, lambda r: tail_percentile(r.scaled_ms, 50)),
        "verify_s_per_checkpoint": verify_s / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "deff_ratio": last.deff_tilde / last.deff_exact,
        # Averaged over the verified checkpoints: any single one swings
        # with the seed far more than the average does.
        "risk_ratio": statistics.fmean(r.risk_approx / r.risk_exact for r in records),
    }
    # The p99 is reported, not gated: see bench.step_ms_p99 in metrics.json.
    p99 = per_replay_median(reps, lambda r: tail_percentile(r.scaled_ms, 99))
    unscaled = {
        "steps_per_s": per_replay_median(reps, lambda r: workload.n / r.seconds),
        "step_ms_p50": per_replay_median(reps, lambda r: tail_percentile(r.latencies_ms, 50)),
        "step_ms_p99": per_replay_median(reps, lambda r: tail_percentile(r.latencies_ms, 99)),
    }
    speed = np.concatenate([r.scales for r in reps])
    samples = sum(r.latencies_ms.size for r in reps)
    report(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setup)}")
    report(f"{len(reps)} timed replays after a warm-up, {samples} step latency samples; "
           f"steps_per_s by replay: {', '.join(f'{r:.1f}' for r in rates)}")
    report(f"speed scale ({workload.bound_by} probe): median {np.median(speed):.3f}, "
           f"range {speed.min():.3f}-{speed.max():.3f}")
    report(f"step_ms_p99 = {p99:.6g} ms (median over replays of each replay's p99, "
           f"{reps[0].latencies_ms.size} samples per replay)")
    report("unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in unscaled.items()))
    detail = {"step_ms_p99": p99, "unscaled": unscaled, "setup_s": setup, "steps_per_s_by_replay": rates,
              "latency_samples": samples, "records": [r.as_dict() for r in records]}
    return metrics, checks, detail


def hook_seconds_per_step(calls: int = 20000) -> float:
    """What the step-timing hook costs per step: one record_point and the two
    record_pairs calls the run loop makes."""
    clock = StepClock()
    partners = tuple(range(30))
    start = time.perf_counter()
    for i in range(calls):
        clock.record_point(i)
        clock.record_pairs(i, partners)
        clock.record_pairs(i, (i,))
    return (time.perf_counter() - start) / calls


class StepStats:
    """Dictionary movement per step, read from ink_step's input and output."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.q_after: list[int] = []
        self.admitted = 0
        self.evicted = 0

    def after_step(self, args, result) -> None:
        before, new_index = args[0].dictionary, args[1]
        after = result[0].dictionary
        admitted = new_index in after.weights
        self.admitted += admitted
        self.evicted += before.size - (after.size - admitted)
        self.q_after.append(after.size)
        self.tracer.group = None


def measure_traced(workload, seed: int, report) -> tuple[dict, Checks, dict]:
    """Traced run: the per-layer metrics and the cost of the hooks."""
    checks = Checks(workload)
    untraced = replays(workload, seed, checks, seconds=0, count=1)[0]
    problem, kernel = untraced.problem, untraced.kernel
    tracer = tracing.Tracer()
    stats = StepStats(tracer)

    def on_step(index):
        tracer.group = index

    with tracing.installed(tracer, after={"pipeline.ink_step": stats.after_step}):
        traced = replay(workload, problem, kernel, untraced.rng, on_step=on_step)
        checks.replay(traced)
        if traced.result is None:
            raise SystemExit("traced replay failed: " + traced.error)
        n_stream = len(tracer.spans)
        records, _ = verify(workload, problem, kernel, traced.result, checks, tracer)
    if not records:
        raise SystemExit("no checkpoint verified: " + "; ".join(checks.faults[:3]))
    n = workload.n
    diag = traced.result.diagnostics
    metrics = {
        **tracing.stream_metrics(tracer.spans[:n_stream], n),
        **tracing.verify_metrics(tracer.spans[n_stream:], len(records)),
        "leverage.rls_clamped": diag["rls_clamped_low"] + diag["rls_clamped_high"],
        "leverage.increment_clamped": diag["increment_clamped"],
        "leverage.deff_tilde_over_t": traced.result.deff_tilde / n,
        "sampling.admitted_frac": stats.admitted / n,
        "sampling.evicted_per_step": stats.evicted / n,
        "sampling.Q_mean": float(np.mean(stats.q_after)),
        "sampling.Q_max": max(stats.q_after),
        "sampling.Q_over_q_bar": max(stats.q_after) / workload.q_bar,
        "evaluation.psi_gap_max": max(r.psi_gap for r in records),
        "evaluation.psd_fail_frac": sum(not (r.lower_ok and r.upper_ok) for r in records) / len(records),
        "bench.step_ms_p99": tail_percentile(untraced.latencies_ms, 99),
        "bench.tracing.steps_per_s_ratio": untraced.seconds / traced.seconds,
        "bench.audit_hook.share_of_run": hook_seconds_per_step() * n / untraced.seconds,
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    report(f"steps_per_s: untraced {n / untraced.seconds:.1f}, traced {n / traced.seconds:.1f}")
    report(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    detail = {"spans": str(spans_path.relative_to(ROOT)), "records": [r.as_dict() for r in records]}
    return metrics, checks, detail


def setup_probe(workload, seed: int) -> None:
    problem, kernel = make_problem(workload, draw_seed(seed, 0))
    make_oracle(workload, problem, kernel)


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = workloads[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0

    def report(line):
        print(f"[{workload.name} seed={args.seed}] {line}", flush=True)

    env = environment(args.seed)
    report("environment: " + json.dumps(env, sort_keys=True))
    report(f"config: {workload}")
    if args.trace:
        values, checks, detail = measure_traced(workload, args.seed, report)
        kind = "per_layer"
    else:
        values, checks, detail = measure(workload, args.seed, args.seconds, report)
        kind = "end_to_end"
    metrics = {
        name: {"value": float(values[name]), "unit": spec["unit"]}
        for name, spec in METRICS[kind].items()
    }
    for record in detail["records"]:
        report("checkpoint " + json.dumps(record))
    for name, m in metrics.items():
        report(f"{name} = {m['value']:.6g} {m['unit']}")
    for fault in checks.faults:
        report("FAILED " + fault)
    report(f"operations: {checks.attempted} attempted, {checks.failed} failed")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "workload": workload.name, "environment": env, "metrics": metrics,
        "attempted": checks.attempted, "failed": checks.failed, "faults": checks.faults,
        **detail,
    }, indent=2) + "\n")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
