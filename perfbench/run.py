"""Benchmark of slsid: one workload per process, closed loop, one caller.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Workloads are ``fit``, ``select``, ``oracle`` and ``certify`` (see
perfbench/README.md for why each exists).  With ``--trace 0`` the run times
the workload with tracing off and reports the end-to-end metrics; with
``--trace 1`` it runs the workload untraced for half the time and traced
for the other half, and reports the per-layer metrics plus the tracing
overhead.  Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with the environment and load
shape, is written to ``.perfbench/`` together with the traced spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
# workloads.py imports numpy, which must wait until the BLAS threads are
# pinned, so the names are repeated here for argument parsing
WORKLOAD_NAMES = ("fit", "select", "oracle", "certify")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test problem sizes")
    return p.parse_args(argv)


def run_phase(wl, pools, seconds, probe, tracer=None) -> dict:
    """Whole rounds of the workload's mix until ``seconds`` have passed.

    The speed probe runs between operations, never inside one, whenever
    ``speed.PROBE_EVERY_S`` has passed since the last probe, and once more
    at the end; each operation is scaled by the probes around it.
    """
    plan = wl.round_plan()
    cursor = [0] * len(pools)
    latencies, spans, failures, scores = [], [], [], []
    rounds = 0
    probe.probe()
    began = time.perf_counter()
    while True:
        for k in plan:
            inst = pools[k][cursor[k] % len(pools[k])]
            cursor[k] += 1
            if probe.due():
                probe.probe()
            if tracer is not None:
                tracer.op_id = len(latencies)
                tracer.active = True
                span = tracer.open(wl.span)
            start = time.perf_counter()
            try:
                out = wl.call(inst)
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            latencies.append(end - start)
            spans.append((start, end))
            if tracer is not None:
                tracer.close(span, failed=error is not None)
                tracer.active = False
            if error is None:
                error = wl.check(inst, out)
            if error is not None:
                failures.append(f"{wl.kinds[k].label}: {error}")
                continue
            if tracer is not None:
                tracer.add(wl.counts(inst, out))
                tracer.active = True
                with tracer.span("metrics.score"):
                    scores.append(wl.score(inst, out))
                tracer.active = False
            else:
                scores.append(wl.score(inst, out))
        rounds += 1
        if time.perf_counter() - began >= seconds:
            break
    wall_s = time.perf_counter() - began
    probe.probe()
    return {
        "latencies": latencies,
        "factors": [probe.factor(start, end) for start, end in spans],
        "failures": failures,
        "scores": scores,
        "rounds": rounds,
        "wall_s": wall_s,
    }


def nearest_rank(sorted_values, pct):
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def rate(phase, scaled: bool = True) -> float:
    lat = phase["latencies"]
    if scaled:
        lat = [t / f for t, f in zip(lat, phase["factors"])]
    return len(lat) / sum(lat)


def end_to_end(wl, phase, setup_s, setup_wall_s) -> tuple[dict, dict]:
    """The BENCHMARK.json metrics, in reference time, and the rest of the report."""
    wall = sorted(phase["latencies"])
    ref = sorted(t / f for t, f in zip(phase["latencies"], phase["factors"]))
    attempted = len(ref)
    tail, beyond = nearest_rank(ref, wl.tail_pct)
    tail_wall, _ = nearest_rank(wall, wl.tail_pct)
    failed = len(phase["failures"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (rate(phase), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(ref), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "fail_ratio": (failed / attempted, "ratio"),
        "op_tail_pct": (wl.tail_pct, "%"),
        "op_tail_beyond": (beyond, "count"),
        "op_samples": (attempted, "count"),
        "rounds": (phase["rounds"], "count"),
        "wall_s": (phase["wall_s"], "s"),
        "machine_slowdown": (statistics.median(phase["factors"]), "ratio"),
        "setup_wall_s": (setup_wall_s, "s"),
        "ops_per_wall_s": (rate(phase, scaled=False), "1/s"),
        "op_p50_wall_ms": (1e3 * statistics.median(wall), "ms"),
        "op_tail_wall_ms": (1e3 * tail_wall, "ms"),
    }
    return metrics, extra


def per_layer(tracer, generate_s: float, untraced, traced) -> tuple[dict, dict]:
    ops = len(traced["latencies"])
    # every span belongs to an operation; put its time on the reference scale
    totals = tracer.totals(scale=traced["factors"])
    counters = tracer.counters

    def span(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    restarts = counters.get("bcd.restarts", 0)
    iterations = span("bcd.assign_step", "count")
    verdicts = {v: counters.get(f"pe.{v}", 0) for v in ("certified", "refuted", "undecided")}
    untraced_rate, traced_rate = rate(untraced), rate(traced)
    metrics = {
        "bcd.solve_s": (per_op(span("bcd.solve", "total_s")), "s/op"),
        "bcd.calls": (per_op(span("bcd.solve", "count")), "1/op"),
        "bcd.restarts": (per_op(restarts), "1/op"),
        "bcd.iterations": (per_op(iterations), "1/op"),
        "bcd.relabel_s": (per_op(span("bcd.assign_step", "total_s")), "s/op"),
        "bcd.objective_s": (per_op(span("bcd.objective", "total_s")), "s/op"),
        "bcd.fit_self_s": (per_op(span("bcd.solve", "self_s")), "s/op"),
        "bcd.lstsq_calls": (per_op(span("bcd.solve", "lstsq")), "1/op"),
        "bcd.useful_restart_ratio": (
            ratio(restarts - counters.get("bcd.degenerate", 0), restarts),
            "ratio",
        ),
        "model.residual_calls": (per_op(span("model.residual", "count")), "1/op"),
        "model.residual_s": (per_op(span("model.residual", "total_s")), "s/op"),
        "model.residual_calls_per_iter": (
            ratio(span("model.residual", "count"), iterations),
            "ratio",
        ),
        "model.generate_s": (generate_s, "s"),
        "order.select_s": (per_op(span("order.select", "total_s")), "s/op"),
        "order.candidates": (per_op(counters.get("order.candidates", 0)), "1/op"),
        "order.bcd_calls": (per_op(counters.get("order.bcd_calls", 0)), "1/op"),
        "order.self_s": (per_op(span("order.select", "self_s")), "s/op"),
        "order.solver_failures": (per_op(counters.get("order.solver_failures", 0)), "1/op"),
        "oracle.global_s": (per_op(span("oracle.global", "total_s")), "s/op"),
        "oracle.calls": (per_op(span("oracle.global", "count")), "1/op"),
        "oracle.assignments": (per_op(counters.get("oracle.assignments", 0)), "1/op"),
        "oracle.assignments_per_s": (
            ratio(counters.get("oracle.assignments", 0), span("oracle.global", "total_s")),
            "1/s",
        ),
        "oracle.classes": (per_op(counters.get("oracle.classes", 0)), "1/op"),
        "oracle.lstsq_calls": (per_op(span("oracle.global", "lstsq")), "1/op"),
        "oracle.svd_calls": (per_op(span("oracle.global", "svd")), "1/op"),
        "pe.report_s": (per_op(span("pe.report", "total_s")), "s/op"),
        "pe.cond2_s": (per_op(span("pe.cond2", "total_s")), "s/op"),
        "pe.partition_s": (per_op(span("pe.partition", "total_s")), "s/op"),
        "pe.genericity_s": (per_op(span("pe.genericity", "total_s")), "s/op"),
        "pe.certified": (per_op(verdicts["certified"]), "1/op"),
        "pe.refuted": (per_op(verdicts["refuted"]), "1/op"),
        "pe.undecided": (per_op(verdicts["undecided"]), "1/op"),
        "pe.decided_ratio": (
            ratio(verdicts["certified"] + verdicts["refuted"], sum(verdicts.values())),
            "ratio",
        ),
        "partitions.search_s": (per_op(span("partitions.search", "total_s")), "s/op"),
        "partitions.search_calls": (per_op(span("partitions.search", "count")), "1/op"),
        "partitions.gram_checks": (per_op(span("partitions.gram", "count")), "1/op"),
        "partitions.gram_s": (per_op(span("partitions.gram", "total_s")), "s/op"),
        "partitions.svd_calls": (per_op(span("partitions.gram", "svd")), "1/op"),
        "metrics.score_s": (per_op(span("metrics.score", "total_s")), "s/op"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.overhead_ratio": (1.0 - traced_rate / untraced_rate, "ratio"),
    }
    # bcd_solve's time splits into its two traced children and its own time
    parts = span("bcd.assign_step", "total_s") + span("bcd.objective", "total_s")
    check = span("bcd.solve", "total_s") - parts - span("bcd.solve", "self_s")
    return metrics, {"bcd_split_residual_s": (check, "s")}


def environment(np_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np_version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "load": "one process per workload; closed loop, one caller, next operation "
        "starts when the previous one returns",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "slsid" / "__init__.py").is_file():
        print(f"error: slsid sources not found under {src}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))

    began = time.perf_counter()
    import numpy
    import slsid  # noqa: F401

    import_s = time.perf_counter() - began

    import speed
    import tracing
    import workloads

    probe = speed.SpeedProbe()
    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    setup_wall, generate_times, windows = [], [], []
    probe.probe()
    for _ in range(SETUP_REPEATS):
        pools = None  # drop the previous pool before drawing the next
        start = time.perf_counter()
        clock = workloads.Clock()
        pools = wl.generate(args.seed, clock)
        wl.warm_up()
        end = time.perf_counter()
        probe.probe()
        setup_wall.append(end - start)
        generate_times.append(clock.seconds)
        windows.append((start, end))
    factors = [probe.factor(start, end) for start, end in windows]
    setup_ref = [t / f for t, f in zip(setup_wall, factors)]
    # the import ran before the first probe; scale it by that probe
    setup_s = import_s * speed.REFERENCE_KERNEL_S / probe.times[0]
    setup_s += statistics.median(setup_ref)
    setup_wall_s = import_s + statistics.median(setup_wall)
    generate_s = statistics.median(t / f for t, f in zip(generate_times, factors))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        untraced = run_phase(wl, pools, args.seconds / 2, probe)
        tracer = tracing.Tracer()
        with tracer.patched(after=wl.trace_hooks()):
            traced = run_phase(wl, pools, args.seconds / 2, probe, tracer)
        tracer.save(OUT_DIR / f"spans-{stem}.npz")
        phases = [untraced, traced]
        metrics, extra = per_layer(tracer, generate_s, untraced, traced)
    else:
        phases = [run_phase(wl, pools, args.seconds, probe)]
        metrics, extra = end_to_end(wl, phases[0], setup_s, setup_wall_s)
        if phases[0]["scores"]:
            extra.update(wl.accuracy(phases[0]["scores"]))

    attempted = sum(len(p["latencies"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "kinds": [{"label": k.label, "per_round": k.weight} for k in wl.kinds],
        "environment": environment(numpy.__version__),
        "import_s": import_s,
        "setup_runs_wall_s": setup_wall,
        "probe_kernel_s": probe.times,
        "failures": failures[:20],
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "result": result,
    }
    (OUT_DIR / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n"
    )

    env = detail["environment"]
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
        f"blas_threads=1; {env['load']}"
    )
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
