"""Correctness gate: decides, outside the timed region, which outputs of a pass are wrong.

For a solve (march and scale):
  * every state and energy is finite;
  * on force-free Crank-Nicolson problems, ``evolve.dissipation_check`` holds;
  * at a few steps drawn from the seed, the step residual
    ||L u_{n+1} - rhs|| / ||rhs|| is at most 1e-10, with L and the right-hand
    side assembled here from the law and A by MatrixOperator arithmetic.
    A reduced solve returns full states, so the same residual covers it.
For desk: each scenario's CSVs match the references stored with the
benchmark to 1e-12 relative, and every ``run_checks`` result passes.

Each function returns a list of failure messages; a problem or check with
any message counts once in ``failed``.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-10
CSV_RTOL = 1e-12
RESIDUAL_SAMPLES = 4
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def step_operators(run):
    """The scheme's step matrix L and right-hand operator R, assembled independently."""
    law, a, tau = run.entry.law, run.entry.a, run.problem.tau
    if run.problem.scheme == "implicit_euler":
        return (1.0 / tau) * law.m0 + law.m1 + a, (1.0 / tau) * law.m0, tau
    half = 0.5 * (law.m1 + a)
    return (1.0 / tau) * law.m0 + half, (1.0 / tau) * law.m0 - half, 0.5 * tau


def check_solve(pf, run, seed, index):
    traj, failures = run.trajectory, []
    if not (np.isfinite(traj.states).all() and np.isfinite(traj.energies).all()):
        return [f"{run.label}: non-finite state or energy"]
    if run.problem.scheme == "crank_nicolson" and run.inputs.pulse is None:
        report = pf.evolve.dissipation_check(traj, run.entry.law)
        if not report.holds:
            failures.append(f"{run.label}: dissipation identity residual {report.max_residual:.3e}")
    left, right, offset = step_operators(run)
    rng = np.random.default_rng([seed, index, 1])
    nsteps = len(traj.times) - 1
    for k in rng.choice(nsteps, size=min(RESIDUAL_SAMPLES, nsteps), replace=False):
        rhs = right.apply(traj.states[k]) + run.inputs.force(traj.times[k] + offset)
        res = np.linalg.norm(left.apply(traj.states[k + 1]) - rhs) / np.linalg.norm(rhs)
        if not res <= RESIDUAL_TOL:
            failures.append(f"{run.label}: step {k} residual {res:.3e}")
            break
    return failures


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def csv_mismatch(path, reference, rtol=CSV_RTOL):
    """None when the CSV matches its reference, else why not.

    Text cells must be equal.  A numeric column matches when every value is
    within rtol of the reference, relative to the largest magnitude in that
    reference column.
    """
    try:
        got, ref = _read(path), _read(reference)
    except OSError as exc:
        return f"{path.name}: {exc}"
    if len(got) != len(ref) or got[:1] != ref[:1]:
        return f"{path.name}: {len(got)} rows or header differ from the reference"
    for col in range(len(ref[0])):
        want = [row[col] for row in ref[1:]]
        have = [row[col] if col < len(row) else "" for row in got[1:]]
        try:
            want_num = np.array(want, dtype=float)
        except ValueError:
            if have != want:
                return f"{path.name}: column {ref[0][col]!r} differs"
            continue
        try:
            have_num = np.array(have, dtype=float)
        except ValueError:
            return f"{path.name}: column {ref[0][col]!r} is not numeric"
        scale = float(np.abs(want_num).max()) if want_num.size else 0.0
        err = float(np.abs(have_num - want_num).max()) if want_num.size else 0.0
        if not err <= rtol * scale:
            return f"{path.name}: column {ref[0][col]!r} off by {err:.3e} (scale {scale:.3e})"
    return None


def check_desk(result, expected_checks):
    """Failures per scenario and per check; returns (failed count, messages)."""
    bad_scenarios, messages = set(result.failed_scenarios), list(result.errors)
    for path in result.csv_files:
        why = csv_mismatch(path, REFERENCE_DIR / f"{path.name}.ref")
        if why:
            bad_scenarios.add(path.name.rsplit("_", 1)[0])
            messages.append(why)
    failed_checks = [c for c in result.checks if not c.passed]
    messages += [f"verify {c.name}: residual {c.residual:.3e} > tol {c.tol:.1e}" for c in failed_checks]
    missing = expected_checks - len(result.checks)
    return len(bad_scenarios) + len(failed_checks) + missing, messages


def check_pass(pf, workload, result, seed):
    """Run the gate on one pass; returns (failed count, messages)."""
    if workload == "desk":
        return check_desk(result, len(pf.verify.CHECKS))
    messages, failed = list(result.errors), len(result.errors)
    for index, run in enumerate(result.runs):
        found = check_solve(pf, run, seed, index)
        failed += bool(found)
        messages += found
    return failed, messages
