"""Benchmark of the softsets package, one workload per run.

    python3 perfbench/run.py --workload laws-exhaustive|laws-random|cli-eval \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics;
with ``--trace 1`` it measures the per-layer metrics from spans.  The
line before the last gives the environment and run details; the last
line is the result, ``{"correct", "attempted", "failed", "metrics"}``.
``perfbench/README.md`` explains the workloads and metrics.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before softsets is imported

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import calibration

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".bench_out"

CALIBRATE_EVERY_S = 0.2
CALIBRATION_WINDOW_S = 0.5
SETUP_PROBES = 6  # extra set-ups in fresh interpreters; setup_s is the median
SETUP_CALIBRATIONS = 5
MIN_OPS = 5
# Traced ops per traced run: a fixed count, so counts repeat exactly per seed.
TRACED_OPS = {"laws-exhaustive": 2, "laws-random": 60, "cli-eval": 300}


def environment() -> dict:
    import numpy
    import softsets

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "backend": softsets.backend_name(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_ops(wl, first: int, stop, tracer=None) -> tuple[list[float], list[float]]:
    """Run ops ``first, first + 1, ...`` until ``stop(count, elapsed)``
    holds.  Return each op's duration in seconds, as measured and as
    rescaled to the reference speed by the mean of the calibration
    samples taken within ``CALIBRATION_WINDOW_S`` of the op.

    Samples are taken about every ``CALIBRATE_EVERY_S``: between ops,
    and inside an op at the pauses its workload offers (between law
    checks).  Time spent in a pause is not the op's."""
    spans, samples = [], []
    paused = 0.0

    def calibrate():
        samples.append((time.perf_counter(), calibration.sample()))

    def pause():
        nonlocal paused
        t = time.perf_counter()
        if t - samples[-1][0] >= CALIBRATE_EVERY_S:
            calibrate()
            paused += time.perf_counter() - t

    calibrate()
    start = time.perf_counter()
    k = first
    while not stop(len(spans), time.perf_counter() - start):
        pause()
        job = wl.prepare(k)
        if tracer:
            tracer.begin_op(k)
        paused = 0.0
        t0 = time.perf_counter()
        result = wl.run(job, pause)
        t1 = time.perf_counter()
        spans.append((t0, t1, t1 - t0 - paused))
        if tracer:
            tracer.end_op()
        wl.record(k, result)
        k += 1
    calibrate()
    measured, scaled = [], []
    for t0, t1, duration in spans:
        near = [s for t, s in samples if t0 - CALIBRATION_WINDOW_S <= t <= t1 + CALIBRATION_WINDOW_S]
        near = near or [min(samples, key=lambda ts: abs(ts[0] - t0))[1]]
        measured.append(duration)
        scaled.append(duration * calibration.REFERENCE_S / statistics.fmean(near))
    return measured, scaled


def rescaled(seconds: float) -> float:
    """``seconds`` just measured, rescaled to the reference speed."""
    speed = statistics.median(calibration.sample() for _ in range(SETUP_CALIBRATIONS))
    return seconds * calibration.REFERENCE_S / speed


def probe_setup(args) -> list[float]:
    """Set-up times of fresh interpreters building the same inputs."""
    command = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def end_to_end(wl, args, setup_s: float) -> tuple[dict, dict]:
    measured, scaled = run_ops(wl, 0, lambda n, t: t >= args.seconds and n >= MIN_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cases = sum(wl.cases(k) for k in range(len(scaled)))
    setups = [setup_s] + probe_setup(args)
    ms = [d * 1000 for d in scaled]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (cases / sum(scaled), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "ops": len(ms),
        "ops_beyond_p90": sum(m > p90 for m in ms),
        "measured_throughput_per_s": cases / sum(measured),
        "measured_latency_p50_ms": statistics.median(measured) * 1000,
        "scaled_setup_s": setups,
        "mean_calibration_s": calibration.REFERENCE_S * sum(measured) / sum(scaled),
    }
    return metrics, details


@contextlib.contextmanager
def traced(tracer, wl):
    """Install ``tracer`` on the package and the workload for a block."""
    tracer.install()
    try:
        wl.trace_with(tracer)
        yield
    finally:
        tracer.uninstall()
        wl.trace_with(None)


def per_layer(wl, args) -> tuple[dict, dict]:
    import tracing

    tracer = tracing.Tracer()
    n_traced = TRACED_OPS[args.workload]
    traced_s, plain_s = [], []
    start = time.perf_counter()
    # Traced and untraced ops alternate, so both see the same machine
    # speed; traced ops keep ids 0..n-1, so counts repeat per seed.
    for k in range(n_traced):
        if k >= MIN_OPS and time.perf_counter() - start >= args.seconds:
            break
        with traced(tracer, wl):
            traced_s += run_ops(wl, k, lambda n, t: n == 1, tracer)[0]
        plain_s += run_ops(wl, n_traced + k, lambda n, t: n == 1)[0]
    ops = len(traced_s)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}.npz")

    spans = tracing.totals(tracer)
    zero = {"calls": 0, "ns": 0.0, "self_ns": 0.0}

    def span(name):
        return spans.get(name, zero)

    def self_ms(name):
        return span(name)["self_ns"] / 1e6 / ops

    def rate(amount, name):
        return amount / (span(name)["ns"] / 1e9) if span(name)["ns"] else 0.0

    algebra = [v for k, v in spans.items() if k.startswith("algebra.")]
    algebra_calls = sum(v["calls"] for v in algebra)
    algebra_self_ns = sum(v["self_ns"] for v in algebra)
    work = wl.work(range(ops))
    met, tried = work.get("hypothesis_met", 0), work.get("hypothesis_tried", 0)
    loaded_mb = work.get("workspace_bytes", 0) / 1e6 * span("workspace.load")["calls"]

    metrics = {
        "algebra.calls": (algebra_calls / ops, "count"),
        "algebra.self_ms": (algebra_self_ns / 1e6 / ops, "ms"),
        "algebra.ns_per_call": (algebra_self_ns / algebra_calls if algebra_calls else 0.0, "ns"),
        "laws.check.self_ms": (self_ms(tracing.CHECK), "ms"),
        "laws.enumerate.self_ms": (self_ms("laws.enumerate"), "ms"),
        "laws.generate.self_ms": (self_ms("laws.generate"), "ms"),
        "laws.cases": (work.get("cases", 0) / ops, "count"),
        "laws.missed_refutations": (work.get("missed_refutations", 0) / ops, "count"),
        "laws.hypothesis_met_ratio": (met / tried if tried else 0.0, "ratio"),
        "laws.shrink.self_ms": (self_ms(tracing.SHRINK), "ms"),
        "laws.shrink.accept_ratio": (
            tracer.shrink_accepted / tracer.shrink_candidates if tracer.shrink_candidates else 0.0, "ratio"),
        "expr.tokenize.self_ms": (self_ms("expr.tokenize"), "ms"),
        "expr.parse.self_ms": (self_ms("expr.parse"), "ms"),
        "expr.evaluate.self_ms": (self_ms("expr.evaluate"), "ms"),
        "expr.tokens_per_s": (rate(work.get("tokens", 0), "expr.tokenize"), "1/s"),
        "expr.nodes_per_s": (rate(work.get("nodes", 0), "expr.evaluate"), "1/s"),
        "workspace.load.self_ms": (self_ms("workspace.load"), "ms"),
        "workspace.load_mb_per_s": (rate(loaded_mb, "workspace.load"), "MB/s"),
        "workspace.render.self_ms": (self_ms("workspace.render"), "ms"),
        "model.soft_set.self_ms": (self_ms("model.soft_set"), "ms"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
        **{f"{layer}.errors": (tracer.errors[layer] / ops, "count") for layer in tracing.LAYERS},
        "trace.overhead_ratio": (statistics.median(traced_s) / statistics.median(plain_s), "ratio"),
    }
    details = {"traced_ops": ops, "untraced_ops": len(plain_s), "spans": len(tracer.start),
               "shrink_candidates": tracer.shrink_candidates, **work}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "softsets" / "__init__.py").is_file():
        print(f"error: no softsets package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.make(args.workload, args.seed, Path(workdir))
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": rescaled(setup_s)}))
            return 0
        if args.trace:
            metrics, details = per_layer(wl, args)
        else:
            metrics, details = end_to_end(wl, args, rescaled(setup_s))
        outcome = wl.verify()

    details.update(problems=outcome.problems)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": environment(), "details": details}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
