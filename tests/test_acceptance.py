"""Acceptance suite: every criterion at its stated tolerance.

Each criterion runs the `protofield.verify` check that owns its identity
and prints one PASS/FAIL line with the measured residual; the tests compute
no residual of their own except the convergence order of criterion 10.
Criteria with runtime budgets assert them.  PROTOFIELD_MAX_GRID is removed
from the environment, so the criteria run uncapped.  Run with
`pytest tests/test_acceptance.py -v -s` or simply `pytest`.
"""

import time

import numpy as np
import pytest

from protofield import catalog, verify
from protofield.flatgrid import Axis
from protofield.evolve import SolverConfig, solve

CRITERIA = {}  # check name -> criterion number, filled by `criterion`


@pytest.fixture(autouse=True)
def uncapped(monkeypatch):
    monkeypatch.delenv("PROTOFIELD_MAX_GRID", raising=False)


def report(criterion, residual, tol, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: residual {residual:.3e} "
          f"(tol {tol:.1e})")
    assert ok


def criterion(number, name, budget=None):
    """A test method running verify.check_<name> as criterion `number`."""
    CRITERIA[name] = number

    def test(self):
        t0 = time.monotonic()
        result = getattr(verify, f"check_{name}")()
        elapsed = time.monotonic() - t0
        ok = result.passed and (budget is None or elapsed < budget)
        report(f"{number} {name} ({result.detail}; {elapsed:.2f}s)",
               result.residual, result.tol, ok)

    return test


class TestCriterion01ExactAdjointness:
    check = criterion(1, "adjointness", budget=5.0)

    def test_adjointness(self):
        self.check()
        # and on 8-point grids in every direction, through the same residual
        t0 = time.monotonic()
        grids = [
            (Axis.interval(8),),
            (Axis.interval(8), Axis.torus(8)),
            (Axis.torus(8), Axis.interval(8), Axis.torus(8)),
        ]
        worst, pairs = verify.adjointness_residual(grids, np.random.default_rng(100))
        elapsed = time.monotonic() - t0
        report(f"1 exact adjointness on 8-point grids ({pairs} pairs, {elapsed:.2f}s)",
               worst, 1e-12, worst <= 1e-12 and elapsed < 5.0)


class TestCriterion02Skewness:
    test_stack_and_catalog_skew = criterion(2, "skewness", budget=10.0)


class TestCriterion03AdjointTheorem:
    test_fifty_pairs = criterion(3, "compatibility_theorem")


class TestCriterion04RelativeConstruction:
    test_fifty_isometry_pairs = criterion(4, "relative_construction")


class TestCriterion05SchurNullSpaceRemoval:
    test_full_vs_reduced_trajectories = criterion(5, "schur_equivalence", budget=10.0)


class TestCriterion06DiracEquivalence:
    test_conjugation_and_spectra = criterion(6, "dirac_equivalence")


class TestCriterion07Annihilation:
    test_parts_annihilate = criterion(7, "annihilation")


class TestCriterion08CurlIdentification:
    test_entrywise_equality = criterion(8, "curl_identification")


class TestCriterion09Energy:
    test_conservative_and_dissipative = criterion(9, "energy_conservation")


class TestCriterion10Convergence:
    def test_standing_wave_order(self):
        t0 = time.monotonic()
        errs = []
        for n in (15, 31, 63):
            h = 1.0 / (2 * n + 1)
            entry = catalog.acoustics((Axis.dirichlet(n, h),))
            y = (n - np.arange(n)) * h
            u0 = np.concatenate([np.sin(np.pi * y), np.zeros(n)])
            steps = int(round(1.3 / h))
            traj = solve(entry.problem(initial=u0),
                         SolverConfig(tau=h, t_end=steps * h))
            exact = np.sin(np.pi * y) * np.cos(np.pi * steps * h)
            err = traj.states[-1, :n] - exact
            errs.append(np.sqrt(np.sum(h * err * err)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        elapsed = time.monotonic() - t0
        ok = min(orders) >= 1.8 and elapsed < 30.0
        report(f"10 convergence, observed CN orders {orders[0]:.2f}, {orders[1]:.2f} "
               f"({elapsed:.2f}s)", 2.0 - min(orders), 0.2, ok)


class TestCriterion11DimensionReduction:
    test_plate_to_beam = criterion(11, "dimension_reduction")


class TestCriterion12EvenOddTransport:
    test_combined_vs_descendant = criterion(12, "even_odd_transport")


class TestCriterion13SecondOrderForms:
    test_plate_and_beam_residuals = criterion(13, "second_order_forms")


class TestCriterion14WellposednessGate:
    test_gate = criterion(14, "wellposedness_gate")


class TestCriterion15PolarIdentities:
    test_polar_and_wave_translation = criterion(15, "polar_decomposition")


class TestCriterion16Causality:
    test_every_entry = criterion(16, "causality")


def test_every_check_is_a_criterion():
    # a check added to verify.CHECKS needs a criterion above
    assert set(CRITERIA) == {fn.__name__.removeprefix("check_") for fn in verify.CHECKS}
