"""protofield benchmark: runs one workload and prints its metrics as one JSON line.

    python3 perfbench/run.py --workload desk|march|scale --seed N --seconds S --trace 0|1

Run from the root of a protofield checkout; the package is imported from
its ``src/`` directory.  A run:

  1. imports the package and sets up: three smoke-size passes of the
     workload, so libraries load and lazy set-up finishes, each followed by
     freeing one 31 MB block (see ``settle_allocator``); ``setup_s`` is the
     import time plus the median of the three;
  2. runs full passes until the next one would end after ``--seconds``
     (at least one), each followed by the correctness gate and a garbage
     collection outside the timed region;
  3. with ``--trace 1``, runs one more pass with span-recording wrappers
     installed on the package's public functions and reports per-layer
     metrics, writing the spans to ``.perfbench/`` under the checkout.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  ``--smoke`` runs every pass at smoke size, for the
benchmark's own tests.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import machine  # noqa: E402
import tracer as tr  # noqa: E402

# gate and workloads import numpy, so main imports them after pinning BLAS threads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
ALLOCATOR_BLOCK = 31 * 2**20 // 8  # float64s, just under glibc's 32 MB threshold cap

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "first_step_s": "s",
    "march_s": "s",
}

CHECK_NAMES = (
    "adjointness", "skewness", "compatibility_theorem", "relative_construction",
    "curl_identification", "annihilation", "dirac_equivalence", "schur_equivalence",
    "dimension_reduction", "even_odd_transport", "second_order_forms",
    "polar_decomposition", "energy_conservation", "causality", "wellposedness_gate",
)
SOLVE_LABELS = ("dirac", "timoshenko", "extended_maxwell", "extended_maxwell_reduced",
                "heat", "maxwell")
SCENARIOS = ("acoustics_standing_wave", "beam_forced", "heat_rod", "maxwell_cavity",
             "plate_ringdown", "transport_pulse")
PER_PROBLEM = ("catalog.build_entry_s", "flatgrid.stencil_s", "subspaces.projection_s",
               "matlaw.check_wellposed_s", "evolve.prepare_s", "evolve.step_ms", "first_step_s")


def _unit(name):
    """Unit from the metric part of ``[layer.]metric[.problem]``."""
    metric = next(part for part in name.split(".") if part not in tr.LAYERS + ("trace",))
    if metric.endswith("_s"):
        return "s"
    if "_ms" in metric:
        return "ms"
    return "B" if "bytes" in metric else "count"


def per_layer_names():
    names = [
        "catalog.build_entry_s", "catalog.entries_built",
        "flatgrid.stencil_s",
        "subspaces.projection_s", "subspaces.range_kernel_split_s", "subspaces.kernel_dim",
        "linops.matmul_s", "linops.matmul_count", "linops.to_dense_s",
        "linops.apply_s", "linops.apply_count",
        "linops.dense_ops", "linops.sparse_ops", "linops.dense_bytes_computed",
        "matlaw.check_wellposed_s", "matlaw.check_wellposed_calls", "matlaw.schur_reduce_s",
        "evolve.problem_s", "evolve.prepare_s", "evolve.step_ms", "evolve.step_ms_p90",
        "evolve.step_samples", "evolve.steps", "evolve.energy_s",
        "cli.run_scenario_s", "cli.self_s", "cli.csv_bytes",
        "corpus_s", "verify_s",
    ]
    names += [f"verify.{check}_s" for check in CHECK_NAMES]
    names += [f"{layer}.self_s" for layer in tr.LAYERS]
    names += [f"{layer}.blocking_self_s" for layer in tr.LAYERS]
    names += ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans",
              "trace.first_step_s", "trace.blocking_self_s", "trace.blocking_gap_s"]
    names += [f"{metric}.{label}" for label in SOLVE_LABELS for metric in PER_PROBLEM]
    names += [f"cli.run_scenario_s.{scenario}" for scenario in SCENARIOS]
    return names


PER_LAYER = {name: _unit(name) for name in per_layer_names()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("desk", "march", "scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every pass at smoke size (the benchmark's own tests)")
    return parser.parse_args(argv)


def pin_blas_threads():
    """One process; BLAS threads fixed at the CPUs this process may run on."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def import_package(root=ROOT):
    """Import protofield from the checkout's src/, and nowhere else."""
    src = root / "src"
    package = src / "protofield"
    if not (package / "__init__.py").is_file() or not (root / "scenarios").is_dir():
        raise SystemExit(f"perfbench: no protofield sources and scenarios under {root}")
    sys.path.insert(0, str(src))
    import protofield

    if Path(protofield.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported protofield from {protofield.__file__}, not {package}")
    return protofield


# ---------------------------------------------------------------------------


def settle_allocator():
    """Leave the C allocator as a first full-size pass would leave it.

    glibc serves large blocks from fresh memory mappings, which fault in
    page by page, until a freed mapping raises its threshold (to at most
    32 MB).  Per-step temporaries of a few MB, such as the finiteness check
    scipy makes on an LU factor, otherwise make a process's first full pass
    up to 1.5x slower, by an amount that varies run to run.
    """
    import numpy

    block = numpy.empty(ALLOCATOR_BLOCK)
    del block


def measure(pf, workload, ctx, seconds, is_smoke):
    """Full passes, each gated, until the next would end after ``seconds``."""
    import gate
    from workloads import run_pass

    passes, begin, longest = [], time.perf_counter(), 0.0
    while True:
        started = time.perf_counter()
        result = run_pass(pf, workload, ctx, is_smoke)
        result.failed, result.messages = gate.check_pass(pf, workload, result, ctx.seed)
        release(result)
        passes.append(result)
        now = time.perf_counter()
        longest = max(longest, now - started)
        if now - begin + longest > seconds:
            return passes


def release(result):
    """Drop the large arrays a gated pass holds, keeping its timestamps.

    Operators and their memoized adjoints form reference cycles, so a
    collection here keeps one pass's garbage out of the next pass's memory
    and time.
    """
    for run in result.runs:
        run.entry = run.trajectory = None
    gc.collect()


def traced_pass(pf, workload, ctx, is_smoke):
    import gate
    from workloads import run_pass

    ctx.tracer = tracer = tr.Tracer().install(pf)
    try:
        result = run_pass(pf, workload, ctx, is_smoke)
    finally:
        tracer.uninstall()
        ctx.tracer = None
    result.failed, result.messages = gate.check_pass(pf, workload, result, ctx.seed)
    release(result)
    return result, tracer


def layer_metrics(tracer, result, untraced_wall):
    spans = tracer.spans
    totals, calls = tr.outermost_totals(spans)
    selfs = tr.self_times(spans)
    m = dict.fromkeys(PER_LAYER, 0.0)
    for group in ("catalog.build_entry", "flatgrid.stencil", "subspaces.projection",
                  "subspaces.range_kernel_split", "linops.matmul", "linops.to_dense",
                  "linops.apply", "matlaw.check_wellposed", "matlaw.schur_reduce",
                  "evolve.problem", "evolve.energy", "cli.run_scenario"):
        m[f"{group}_s"] = totals[group]
    m["catalog.entries_built"] = calls["catalog.build_entry"]
    m["linops.matmul_count"] = calls["linops.matmul"]
    m["linops.apply_count"] = calls["linops.apply"]
    m["matlaw.check_wellposed_calls"] = calls["matlaw.check_wellposed"]
    m.update({name: tracer.counters[name] for name in
              ("subspaces.kernel_dim", "linops.dense_ops", "linops.sparse_ops",
               "linops.dense_bytes_computed")})
    m["cli.csv_bytes"] = result.csv_bytes
    m.update(result.phases)
    for check in CHECK_NAMES:
        m[f"verify.{check}_s"] = totals[f"verify.{check}"]
    for group, seconds in selfs.items():
        m[f"{tr.layer_of(group)}.self_s"] += seconds

    # per problem, and the blocking path from build_entry to the first step
    blocking = dict.fromkeys(tr.LAYERS, 0.0)
    intervals = []
    for run in result.runs:
        if not run.stamps:
            continue
        first = run.stamps[0]
        tr.window_self_times(spans, run.start, first, blocking)
        steps = [b - a for a, b in zip(run.stamps, run.stamps[1:])]
        intervals += steps
        prepare = tr.prepare_time(spans, tr.first_span(spans, "evolve.solve", run.start, first), first)
        m["evolve.prepare_s"] += prepare
        if run.label in SOLVE_LABELS:
            own_totals, _ = tr.outermost_totals(spans, run.label)
            for metric in PER_PROBLEM[:4]:
                m[f"{metric}.{run.label}"] = own_totals[metric[:-2]]
            m[f"evolve.prepare_s.{run.label}"] = prepare
            m[f"evolve.step_ms.{run.label}"] = 1e3 * tr.quantile(steps, 0.5)
            m[f"first_step_s.{run.label}"] = run.first_step_s
        elif run.label in SCENARIOS:
            own_totals, _ = tr.outermost_totals(spans, run.label)
            m[f"cli.run_scenario_s.{run.label}"] = own_totals["cli.run_scenario"]
    for layer in tr.LAYERS:
        m[f"{layer}.blocking_self_s"] = blocking[layer]
    m["evolve.step_ms"] = 1e3 * tr.quantile(intervals, 0.5)
    m["evolve.step_ms_p90"] = 1e3 * tr.quantile(intervals, 0.9)
    m["evolve.step_samples"] = len(intervals)
    m["evolve.steps"] = sum(len(run.stamps) for run in result.runs)
    m["trace.wall_s"] = result.wall_s
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = result.wall_s - untraced_wall
    m["trace.spans"] = len(spans)
    m["trace.first_step_s"] = result.first_step_s
    m["trace.blocking_self_s"] = sum(blocking.values())
    m["trace.blocking_gap_s"] = result.first_step_s - sum(blocking.values())
    return m


def write_spans(tracer, path, machine):
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[s[0], s[1] - t0, s[2] - t0, s[3], s[4]] for s in tracer.spans]
    path.write_text(json.dumps({"machine": machine,
                                "columns": ["group", "start_s", "end_s", "parent", "problem"],
                                "spans": spans}))


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    pf = import_package()
    import workloads

    import_s = time.perf_counter() - _STARTED
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ctx = workloads.Context(ROOT, args.seed, Path(tmp))
        setup = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            started = time.perf_counter()
            workloads.run_pass(pf, args.workload, ctx, is_smoke=True)
            settle_allocator()
            setup.append(time.perf_counter() - started)
        gc.collect()
        passes = measure(pf, args.workload, ctx, args.seconds, args.smoke)
        traced = traced_pass(pf, args.workload, ctx, args.smoke) if args.trace else None

    info = machine.describe(ROOT)
    print(json.dumps({"machine": info}))
    print(f"set-up: import {import_s:.4f} s, warm-up passes " + ", ".join(f"{s:.4f}" for s in setup))
    done = passes + ([traced[0]] if traced else [])
    for i, result in enumerate(done):
        print(f"pass {i}: wall {result.wall_s:.4f} s, first step {result.first_step_s:.4f} s, "
              f"march {result.march_s:.4f} s, failed {result.failed}/{result.attempted}")
        for message in result.messages:
            print(f"  FAILED {message}")
    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    wall = statistics.median(p.wall_s for p in passes)
    if traced:
        result, tracer = traced
        values = layer_metrics(tracer, result, wall)
        write_spans(tracer, OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json", info)
        units = PER_LAYER
    else:
        values = {
            "wall_s": wall,
            "setup_s": import_s + statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": 1.0 - failed / attempted,
            "first_step_s": statistics.median(p.first_step_s for p in passes),
            "march_s": statistics.median(p.march_s for p in passes),
        }
        units = END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
