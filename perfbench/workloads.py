"""What one pass of each workload runs, at full size and at smoke size.

desk   the six shipped scenarios through ``cli.run_scenario``, writing CSVs,
       then the whole ``verify.run_checks()`` suite
march  long horizons on mid-size grids that take the dense step path
scale  a few steps on the largest grids the package solves in useful time

Every timed call goes through a package module attribute (``pf.catalog.build_entry``,
``pf.evolve.solve``, ...), so the tracer's wrappers are the ones called when
it is installed.  Step times come from the forcing callback, which the
solvers call once per step.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

CN = "crank_nicolson"
IE = "implicit_euler"


@dataclass(frozen=True)
class Problem:
    """One solve: a catalog entry on a fixed grid, stepped ``steps`` times."""

    label: str
    entry: str
    grid: tuple  # ((bc, n), ...) per axis
    steps: int
    tau: float = 0.01
    scheme: str = CN
    reduced: bool = False
    forcing: str = ""  # "" none, "pulse" switches on mid-run, "source" on from t = 0
    block: str = ""  # state block the forcing acts on


def _torus(n):
    return (("periodic", n),) * 3


MARCH = (
    Problem("dirac", "dirac", _torus(6), 1200),
    Problem("timoshenko", "timoshenko", (("dirichlet", 500),), 1200,
            forcing="pulse", block="eta"),
    Problem("extended_maxwell", "extended_maxwell", _torus(6), 1200),
    Problem("extended_maxwell_reduced", "extended_maxwell", _torus(6), 1200, reduced=True),
)

SCALE = (
    Problem("heat", "heat", (("dirichlet", 2048),), 30, tau=0.002, scheme=IE,
            forcing="source", block="p"),
    Problem("maxwell", "maxwell", _torus(8), 30),
)

SMOKE_POINTS = {"periodic": 3, "dirichlet": 24}
SMOKE_STEPS = 12
SMOKE_VERIFY_GRID = "2"  # PROTOFIELD_MAX_GRID for the smoke verify suite


def smoke(problem):
    grid = tuple((bc, min(n, SMOKE_POINTS[bc])) for bc, n in problem.grid)
    return replace(problem, grid=grid, steps=min(problem.steps, SMOKE_STEPS))


@dataclass
class Inputs:
    """Initial state and forcing of one problem, drawn from the workload seed."""

    initial: np.ndarray
    pulse: np.ndarray = None
    onset: float = 0.0

    def __post_init__(self):
        self.zero = np.zeros_like(self.initial)  # preallocated: force() must not allocate

    def force(self, t):
        return self.zero if self.pulse is None or t < self.onset else self.pulse


def draw_inputs(problem, entry, seed, index):
    rng = np.random.default_rng([seed, index])
    inputs = Inputs(initial=rng.standard_normal(entry.dim))
    if problem.forcing:
        block = entry.block_slices()[problem.block]
        inputs.pulse = np.zeros(entry.dim)
        inputs.pulse[block] = rng.standard_normal(block.stop - block.start)
        if problem.forcing == "pulse":
            inputs.onset = rng.uniform(0.4, 0.6) * problem.steps * problem.tau
    return inputs


@dataclass
class SolveRun:
    """Timestamps of one solve, and what the correctness gate needs of it."""

    label: str
    start: float  # the call into build_entry, or into run_scenario on desk
    stamps: list  # one perf_counter reading per step, from the forcing callback
    problem: Problem = None
    entry: object = None
    inputs: Inputs = None
    trajectory: object = None

    @property
    def first_step_s(self):
        return self.stamps[0] - self.start

    @property
    def march_s(self):
        """First step to last, as (steps - 1) x the median step interval.

        On a shared machine a few steps take the hit of a scheduler stall
        or a neighbour's memory traffic; the median keeps those out, while
        ``wall_s`` and the traced ``evolve.step_ms_p90`` still show them.
        """
        intervals = np.diff(self.stamps)
        return float(len(intervals) * np.median(intervals)) if len(intervals) else 0.0


@dataclass
class PassResult:
    wall_s: float
    runs: list
    attempted: int
    errors: list = field(default_factory=list)  # problems or checks that raised
    phases: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # verify.CheckResult, desk only
    csv_files: list = field(default_factory=list)  # CSVs written, desk only
    failed_scenarios: list = field(default_factory=list)  # scenarios that raised, desk only
    csv_bytes: int = 0

    @property
    def first_step_s(self):
        return sum(run.first_step_s for run in self.runs if run.stamps)

    @property
    def march_s(self):
        return sum(run.march_s for run in self.runs if run.stamps)


@dataclass
class Context:
    """What a pass needs besides the package: seed, paths and the tracer, if any."""

    root: Path
    seed: int
    outdir: Path
    tracer: object = None

    def label(self, name):
        if self.tracer is not None:
            self.tracer.problem = name


# ---------------------------------------------------------------------------
# march and scale


def _axes(pf, grid):
    Axis = pf.flatgrid.Axis
    return tuple(Axis.torus(n) if bc == "periodic" else Axis.interval(n) for bc, n in grid)


def _stamped_forcing(inputs, stamps):
    clock, record, force = perf_counter, stamps.append, inputs.force

    def forcing(t):
        record(clock())
        return force(t)

    return forcing


def run_problem(pf, problem, ctx, index):
    config = pf.evolve.SolverConfig(tau=problem.tau, t_end=problem.tau * problem.steps,
                                    scheme=problem.scheme)
    axes = _axes(pf, problem.grid)
    run = SolveRun(problem.label, perf_counter(), [], problem)
    run.entry = pf.catalog.build_entry(problem.entry, axes)
    run.inputs = draw_inputs(problem, run.entry, ctx.seed, index)
    state = run.entry.problem(initial=run.inputs.initial,
                              forcing=_stamped_forcing(run.inputs, run.stamps))
    runner = pf.evolve.solve_reduced if problem.reduced else pf.evolve.solve
    run.trajectory = runner(state, config)
    return run


def solve_pass(pf, problems, ctx):
    runs, errors = [], []
    begin = perf_counter()
    for index, problem in enumerate(problems):
        ctx.label(problem.label)
        try:
            runs.append(run_problem(pf, problem, ctx, index))
        except Exception as exc:  # counted as a failure; the run goes on
            errors.append(f"{problem.label}: {type(exc).__name__}: {exc}")
    wall = perf_counter() - begin
    ctx.label("")
    return PassResult(wall_s=wall, runs=runs, attempted=len(problems), errors=errors)


# ---------------------------------------------------------------------------
# desk


def corpus(root, seed):
    """The shipped scenarios, in an order drawn from the seed."""
    paths = sorted((root / "scenarios").glob("*.json"))
    order = np.random.default_rng(seed).permutation(len(paths))
    return [paths[i] for i in order]


def _stamping(runner, sink):
    """Wrap a solver so the solve records one timestamp per step."""
    @functools.wraps(runner)
    def run(problem, config, *args, **kwargs):
        stamps = []
        sink.append(stamps)
        inner, zero = problem.forcing, np.zeros(problem.space.dim)

        def forcing(t):
            stamps.append(perf_counter())
            return zero if inner is None else inner(t)

        # the problem is local to run_scenario: swap its forcing in place
        # rather than copy it, which would run the skew check a second time
        object.__setattr__(problem, "forcing", forcing)
        return runner(problem, config, *args, **kwargs)

    return run


@contextlib.contextmanager
def _verify_grid_cap(value):
    """Set PROTOFIELD_MAX_GRID (None: unset) for the verify suite, then restore it."""
    saved = os.environ.pop("PROTOFIELD_MAX_GRID", None)
    if value is not None:
        os.environ["PROTOFIELD_MAX_GRID"] = value
    try:
        yield
    finally:
        os.environ.pop("PROTOFIELD_MAX_GRID", None)
        if saved is not None:
            os.environ["PROTOFIELD_MAX_GRID"] = saved


def desk_pass(pf, ctx, is_smoke=False):
    cli, scenarios = pf.cli, corpus(ctx.root, ctx.seed)
    runs, errors, files, sink, failed = [], [], [], [], []
    saved = cli.solve, cli.solve_reduced
    cli.solve, cli.solve_reduced = _stamping(cli.solve, sink), _stamping(cli.solve_reduced, sink)
    try:
        begin = perf_counter()
        for path in scenarios:
            ctx.label(path.stem)
            try:
                cfg = cli.load_scenario(path)
                run = SolveRun(path.stem, perf_counter(), [])
                cli.run_scenario(cfg, outdir=ctx.outdir)
                run.stamps = sink[-1]
                runs.append(run)
                files += [ctx.outdir / f"{cfg['name']}_{kind}.csv" for kind in ("energy", "snapshots")]
            except Exception as exc:  # counted as a failure; the run goes on
                failed.append(path.stem)
                errors.append(f"{path.name}: {type(exc).__name__}: {exc}")
        mid = perf_counter()
        ctx.label("verify")
        checks = []
        try:
            with _verify_grid_cap(SMOKE_VERIFY_GRID if is_smoke else None):
                checks = pf.verify.run_checks()
        except Exception as exc:  # counted as failed checks; the run goes on
            errors.append(f"run_checks: {type(exc).__name__}: {exc}")
        end = perf_counter()
    finally:
        cli.solve, cli.solve_reduced = saved
        ctx.label("")
    return PassResult(
        wall_s=end - begin, runs=runs, errors=errors,
        attempted=len(scenarios) + len(pf.verify.CHECKS),
        phases={"corpus_s": mid - begin, "verify_s": end - mid},
        checks=checks, csv_files=files, failed_scenarios=failed,
        csv_bytes=sum(path.stat().st_size for path in files),
    )


# ---------------------------------------------------------------------------


def run_pass(pf, workload, ctx, is_smoke=False):
    if workload == "desk":
        return desk_pass(pf, ctx, is_smoke)
    problems = {"march": MARCH, "scale": SCALE}[workload]
    if is_smoke:
        problems = tuple(smoke(p) for p in problems)
    return solve_pass(pf, problems, ctx)


WORKLOADS = ("desk", "march", "scale")
