"""Batch front door: run scenarios from JSON files, verify identities, list systems.

Commands:
    protofield verify [--filter PAT]     structural-identity suite, PASS/FAIL table
    protofield solve FILE [--reduced]    run a scenario, write CSV results
    protofield catalog                   list systems with their derivation chains

Exit codes: 0 success, 1 verification failure, 2 scenario error (the
message names the key), 3 unknown catalog name, 4 well-posedness
failure, 5 step failure (a singular step matrix, or a state, energy or
partial norm that is not finite, refused in evolve; no CSV is written).
Scenario arithmetic that overflows, divides by zero or is invalid is a
scenario error naming the key; underflow is allowed.  A run whose states
would not fit in the machine's physical memory is a scenario error
naming "solver", and an entry too large to build one naming "grid/params".

Scenario files are JSON objects:

    {
      "name": "acoustics_standing_wave",
      "catalog": "acoustics",
      "grid": [{"n": 31, "bc": "dirichlet", "length": 1.0}],
      "params": {"rho": 1.0, "kappa": 1.0, "sigma": 0.0},
      "solver": {"tau": 0.005, "t_end": 1.0, "scheme": "crank_nicolson", "nu": 0.0},
      "initial": [{"block": "p", "profile": "sine", "mode": 1, "amplitude": 1.0}],
      "forcing": {"onset": 0.5, "block": "p", "profile": "gauss", "amplitude": 1.0},
      "output": {"snapshots": [0.0, 0.5, 1.0]}
    }

The name is the stem of both output files and must be a plain file stem
(letters, digits, '_', '-', '.'; starting with a letter or digit).  The
keys above, and "center" and "width" of a gauss profile, are the only ones
allowed; "params" must be an object; no key takes true, false, NaN or
+-Infinity, nor a key read as a number (every params value) a string or null.
The run takes round(t_end / tau) >= 1 steps; snapshots must lie in
[0, last step time].

Grid axes: {"n": int, "bc": "dirichlet"|"periodic", "length": float} --
dirichlet axes place n interior points on (0, length); periodic axes
always have total measure 1 (h = 1/n), so a length, if given, is 1.
Initial profiles are evaluated on the grid points of the block's leading
scalar factor and replicated over components.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import operator
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import catalog
from .flatgrid import DIRICHLET, PERIODIC, Axis, point_count
from .evolve import SolverConfig, solve, solve_reduced, weighted_partial_norms
from .matlaw import MaterialLawError, StepFailureError
from .verify import run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_UNKNOWN_CATALOG = 3
EXIT_WELLPOSEDNESS = 4
EXIT_STEP_FAILURE = 5

FLOAT_FMT = "%.17g"

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

PROFILE_KEYS = {"block", "profile", "mode", "amplitude", "center", "width"}
SCENARIO_KEYS = {  # per object; "" is the top level, grid and initial are lists
    "": {"name", "catalog", "grid", "params", "solver", "initial", "forcing", "output"},
    "grid": {"n", "bc", "length"},
    "solver": {"tau", "t_end", "scheme", "nu"},
    "initial": PROFILE_KEYS,
    "forcing": PROFILE_KEYS | {"onset"},
    "output": {"snapshots"},
}
NUMBER_KEYS = {"length", "tau", "t_end", "nu", "amplitude", "width", "center", "onset", "snapshots"}


class ScenarioError(ValueError):
    """A scenario that cannot be run as written; the message names the key."""


@contextlib.contextmanager
def _reading(key):
    """Report a missing or malformed value, or numpy arithmetic on it that overflows,
    divides by zero or is invalid (underflow is allowed), as a ScenarioError naming its key."""
    try:
        with np.errstate(all="raise", under="ignore"):
            yield
    except MaterialLawError:
        raise
    except KeyError as exc:
        raise ScenarioError(f"scenario key {key!r} is missing the key {exc}") from exc
    except (TypeError, ValueError, ArithmeticError, MemoryError) as exc:
        raise ScenarioError(f"scenario key {key!r}: {exc}") from exc


def _check_keys(obj, path, allowed):
    """obj, at key path ("" for the top level), must be an object of allowed keys."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"scenario key {path or 'top level'!r} must be an object")
    unknown = sorted(obj.keys() - allowed)
    if unknown:
        key = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ScenarioError(f"unknown scenario key {key!r}")


def _check_values(value, path, number=False):
    """No scenario key takes true, false or a non-finite number, and a key read as a number
    (NUMBER_KEYS, every params value) only numbers or lists of them: a ScenarioError names
    one that does not."""
    if (isinstance(value, bool) or number and not isinstance(value, (int, float, list))
            or isinstance(value, float) and not math.isfinite(value)):
        raise ScenarioError(f"scenario key {path!r} must not be {json.dumps(value)}")
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _check_values(item, f"{path}[{key}]" if isinstance(value, list) else f"{path}.{key}",
                          number or key in NUMBER_KEYS or path == "params")


def _refuse_unstorable(config, values):
    """A run keeps every state of `values` numbers, its energy and its partial
    norm: a ValueError refuses one that cannot fit in memory."""
    need = (config.steps + 1) * (values + 2) * 8
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"{config.steps} steps of {values} values, with their energies "
                         f"and partial norms, need {need:.3g} bytes, more than the "
                         f"machine's {have:.3g}")


def _axes_from_config(grid_cfg):
    axes = []
    for i, item in enumerate(grid_cfg):
        n = operator.index(item["n"])
        bc = item.get("bc", DIRICHLET)
        length = float(item.get("length", 1.0))
        if bc == PERIODIC:
            if length != 1.0:
                raise ValueError(f"grid[{i}].length must be 1 on a periodic axis, got {length}")
            axes.append(Axis.torus(n))
        elif bc == DIRICHLET:
            axes.append(Axis.interval(n, length))
        else:
            raise ValueError(f"unknown boundary condition {bc!r}")
    return tuple(axes)


def _profile_values(axes, spec):
    """Scalar profile sampled on the grid points (C order)."""
    mesh = np.meshgrid(*(a.points() for a in axes), indexing="ij")
    kind = spec.get("profile", "sine")
    amp = float(spec.get("amplitude", 1.0))
    out = np.ones_like(mesh[0])
    if kind == "sine":
        mode = operator.index(spec.get("mode", 1))
        for m, a in zip(mesh, axes):
            span = (a.n + 1) * a.h if a.bc == DIRICHLET else 1.0
            out = out * np.sin(mode * np.pi * m / span)
    elif kind == "gauss":
        width = float(spec.get("width", 0.15))
        if not width > 0:
            raise ValueError(f"gauss width must be positive, got {width}")
        centers = spec.get("center", [0.5] * len(axes))
        if len(centers) != len(axes):
            raise ValueError(f"center needs {len(axes)} coordinates, got {centers!r}")
        for m, c in zip(mesh, centers):
            out = out * np.exp(-((m - c) ** 2) / (2 * width ** 2))
    elif kind != "constant":
        raise ValueError(f"unknown profile {kind!r}")
    return amp * out.reshape(-1)


def _block_vector(entry, items, axes):
    vec = np.zeros(entry.dim)
    slices = entry.block_slices()
    for item in items:
        label = item["block"]
        if label not in slices:
            raise ValueError(f"unknown block {label!r}; have {sorted(slices)}")
        sl = slices[label]
        vals = _profile_values(axes, item)
        size = sl.stop - sl.start
        if size % vals.size:
            raise ValueError(f"profile does not tile block {label!r}")
        vec[sl] = np.tile(vals, size // vals.size)
    return vec


def load_scenario(path):
    """Parse a scenario file and check its keys; ScenarioError names a bad key."""
    text = Path(path).read_text()
    cfg = json.loads(text)
    _check_keys(cfg, "", SCENARIO_KEYS[""])
    for key in ("name", "catalog", "grid", "solver"):
        if key not in cfg:
            raise ScenarioError(f"scenario is missing the {key!r} key")
    # the name becomes the stem of the output files: keep them inside --outdir
    name = cfg["name"]
    if not (isinstance(name, str) and NAME_PATTERN.fullmatch(name)):
        raise ScenarioError(
            f"scenario key 'name' must be a plain file stem (letters, digits, "
            f"'_', '-', '.'; starting with a letter or digit), got {name!r}"
        )
    for key in ("grid", "initial"):
        if not isinstance(cfg.get(key, []), list):
            raise ScenarioError(f"scenario key {key!r} must be a list")
        for i, item in enumerate(cfg.get(key, [])):
            _check_keys(item, f"{key}[{i}]", SCENARIO_KEYS[key])
    for key in ("solver", "forcing", "output"):
        if key in cfg:
            _check_keys(cfg[key], key, SCENARIO_KEYS[key])
    if not isinstance(cfg.get("params", {}), dict):
        raise ScenarioError("scenario key 'params' must be an object")
    for key in ("grid", "params", "solver", "initial", "forcing", "output"):
        _check_values(cfg.get(key), key)
    return cfg


def run_scenario(cfg, reduced=False, outdir="."):
    """Solve a loaded scenario and write its CSVs; a bad value raises
    ScenarioError before anything is solved, an unknown catalog KeyError."""
    if not (isinstance(cfg["catalog"], str) and cfg["catalog"] in catalog.REGISTRY):
        raise KeyError(cfg["catalog"])
    with _reading("grid"):
        axes = _axes_from_config(cfg["grid"])
    with _reading("solver"):
        solver_cfg = cfg["solver"]
        config = SolverConfig(
            tau=float(solver_cfg["tau"]),
            t_end=float(solver_cfg["t_end"]),
            scheme=solver_cfg.get("scheme", "crank_nicolson"),
            nu=float(solver_cfg.get("nu", 0.0)),
        )
        _refuse_unstorable(config, point_count(axes))  # every entry has a value per point
    with _reading("grid/params"):
        entry = catalog.build_entry(cfg["catalog"], axes, cfg.get("params"))
    with _reading("solver"):
        _refuse_unstorable(config, entry.dim)
    with _reading("initial"):
        initial = _block_vector(entry, cfg.get("initial", []), axes)
    forcing = None
    if "forcing" in cfg:
        with _reading("forcing"):
            fcfg = cfg["forcing"]
            onset = float(fcfg.get("onset", 0.0))
            pulse = _block_vector(entry, [fcfg], axes)

        def forcing(t, pulse=pulse, onset=onset):
            return pulse if t >= onset else np.zeros_like(pulse)

    last = config.steps * config.tau  # the last step time, as the solver computes it
    with _reading("output.snapshots"):
        for t in cfg.get("output", {}).get("snapshots", []):
            # the slack covers the roundoff of steps * tau against a written t_end
            if not 0.0 <= float(t) <= last + 1e-9 * config.tau:
                raise ValueError(f"snapshot time {t} is outside the run [0, {last}]")

    problem = entry.problem(initial=initial, forcing=forcing)
    runner = solve_reduced if reduced else solve
    traj = runner(problem, config)
    partial = weighted_partial_norms(traj, config.nu)  # before any file is opened
    _write_energy_csv(cfg, traj, partial, outdir)
    _write_snapshot_csv(cfg, entry, traj, outdir)
    return traj


def _write_energy_csv(cfg, traj, partial, outdir):
    with open(Path(outdir) / f"{cfg['name']}_energy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "energy", "weighted_partial_norm"])
        for row in zip(traj.times, traj.energies, partial):
            writer.writerow([FLOAT_FMT % x for x in row])


def _write_snapshot_csv(cfg, entry, traj, outdir):
    times = cfg.get("output", {}).get("snapshots", [])
    slices = entry.block_slices()
    with open(Path(outdir) / f"{cfg['name']}_snapshots.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "block", "index", "value"])
        for t in times:
            k = int(np.argmin(np.abs(traj.times - float(t))))  # the nearest step
            for label, sl in slices.items():
                for i, val in enumerate(traj.states[k][sl]):
                    writer.writerow([FLOAT_FMT % traj.times[k], label, i, FLOAT_FMT % val])


def cmd_verify(args):
    results = run_checks(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}")
        return EXIT_VERIFY_FAILED
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  residual {r.residual:.3e}  "
              f"tol {r.tol:.1e}  {r.detail}")
        all_ok &= r.passed
    print(f"{'all checks passed' if all_ok else 'SOME CHECKS FAILED'}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_solve(args):
    try:
        cfg = load_scenario(args.file)
        run_scenario(cfg, reduced=args.reduced, outdir=args.outdir)
    except json.JSONDecodeError as exc:
        print(f"scenario parse error at line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (OSError, UnicodeDecodeError, ScenarioError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except KeyError as exc:
        print(f"unknown catalog entry: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_CATALOG
    except MaterialLawError as exc:
        print(f"well-posedness failure: {exc}", file=sys.stderr)
        return EXIT_WELLPOSEDNESS
    except StepFailureError as exc:
        print(f"step failure: {exc}", file=sys.stderr)
        return EXIT_STEP_FAILURE
    print(f"wrote {cfg['name']}_energy.csv and {cfg['name']}_snapshots.csv")
    return EXIT_OK


def cmd_catalog(args):
    for name in catalog.REGISTRY:
        entry = catalog.build_entry(name)
        blocks = ", ".join(f"{lab}[{size}]" for lab, size in entry.blocks)
        print(f"{name}")
        print(f"    state blocks: {blocks}")
        for step in entry.provenance:
            print(f"    <- {step}")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="protofield",
        description="derive, verify and integrate the classical linear field systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the structural-identity suite")
    p_verify.add_argument("--filter", default=None,
                          help="only run checks whose name contains this substring")
    p_verify.set_defaults(func=cmd_verify)

    p_solve = sub.add_parser("solve", help="run a scenario file")
    p_solve.add_argument("file", help="path to a JSON scenario")
    p_solve.add_argument("--reduced", action="store_true",
                         help="on a periodic grid with a law constant in space, step on "
                              "the range of A, reconstructing the kernel part; elsewhere "
                              "step as without it")
    p_solve.add_argument("--outdir", default=".", help="directory for CSV output")
    p_solve.set_defaults(func=cmd_solve)

    p_catalog = sub.add_parser("catalog", help="list the registered systems")
    p_catalog.set_defaults(func=cmd_catalog)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
