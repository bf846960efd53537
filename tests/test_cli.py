"""Tests for the batch CLI: verify, solve, catalog, exit codes, determinism."""

import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from protofield import cli

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def read_energy(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def write_scenario(tmp_path, cfg, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


BASIC = {
    "name": "toy_heat",
    "catalog": "heat",
    "grid": [{"n": 12, "bc": "dirichlet", "length": 1.0}],
    "params": {"rho": 1.0, "sigma": 1.0},
    "solver": {"tau": 0.01, "t_end": 0.3, "scheme": "implicit_euler"},
    "initial": [{"block": "p", "profile": "sine", "mode": 1}],
    "output": {"snapshots": [0.0, 0.3]},
}


# scenario edits that must end with exit 2 and a message naming the key
BAD_INPUTS = {
    "n_1": (lambda c: c["grid"][0].update(n=1), "grid"),
    "grid_item_without_n": (lambda c: c["grid"][0].pop("n"), "'n'"),
    "n_not_an_integer": (lambda c: c["grid"][0].update(n=12.5), "integer"),
    "n_negative": (lambda c: c["grid"][0].update(n=-1), "grid"),
    "periodic_n_0": (lambda c: c["grid"][0].update(n=0, bc="periodic"), "grid"),
    "unknown_bc": (lambda c: c["grid"][0].update(bc="periodc"), "periodc"),
    "infinite_length": (lambda c: c["grid"][0].update(length=float("inf")), "grid[0].length"),
    "periodic_length_2": (lambda c: c["grid"][0].update(bc="periodic", length=2.0),
                          "grid[0].length"),
    "negative_tau": (lambda c: c["solver"].update(tau=-0.1), "tau"),
    "t_end_nan": (lambda c: c["solver"].update(t_end="nan"), "t_end"),
    "zero_steps": (lambda c: c["solver"].update(tau=5), "tau"),
    "unknown_param": (lambda c: c["params"].update(rhoo=1.0), "rhoo"),
    "unknown_block": (lambda c: c["initial"][0].update(block="zz"), "zz"),
    "mode_not_an_integer": (lambda c: c["initial"][0].update(mode=1.5), "integer"),
    "overflowing_width": (lambda c: c["initial"][0].update(profile="gauss", width=1e308),
                          "initial"),
    "zero_width": (lambda c: c["initial"][0].update(profile="gauss", width=0), "initial"),
    "negative_width": (lambda c: c["initial"][0].update(profile="gauss", width=-0.1),
                       "initial"),
    "underflowing_width": (lambda c: c["initial"][0].update(profile="gauss", width=1e-200),
                           "initial"),
    # scenario arithmetic that overflows is refused (1e-160 squared is subnormal, not 0)
    "subnormal_square_width": (lambda c: c["initial"][0].update(profile="gauss", width=1e-160),
                               "initial"),
    "overflowing_center": (lambda c: c["initial"][0].update(profile="gauss", center=[1e154]),
                           "initial"),
    "overflowing_sine_length": (lambda c: c["grid"][0].update(length=1e308), "initial"),
    "overflowing_sigma": (lambda c: c["params"].update(sigma=1e308), "grid/params"),
    "center_of_wrong_length": (lambda c: c["initial"][0].update(profile="gauss",
                                                                center=[0.5, 0.5]), "center"),
    "unknown_key": (lambda c: c.update(intial=c.pop("initial")), "intial"),
    "unknown_nested_key": (lambda c: c["solver"].update(sheme="x"), "solver.sheme"),
    "snapshot_after_the_run": (lambda c: c["output"].update(snapshots=[7.0]), "snapshots"),
    "snapshot_before_the_run": (lambda c: c["output"].update(snapshots=[-0.1]), "snapshots"),
    "params_null": (lambda c: c.update(params=None), "params"),
    "params_a_list": (lambda c: c.update(params=[]), "params"),
    "params_zero": (lambda c: c.update(params=0), "params"),
    "tau_true": (lambda c: c["solver"].update(tau=True), "solver.tau"),
    "length_true": (lambda c: c["grid"][0].update(length=True), "grid[0].length"),
    "mode_true": (lambda c: c["initial"][0].update(mode=True), "initial[0].mode"),
    "amplitude_true": (lambda c: c["initial"][0].update(amplitude=True),
                       "initial[0].amplitude"),
    "param_true": (lambda c: c["params"].update(rho=True), "params.rho"),
    "snapshot_false": (lambda c: c["output"].update(snapshots=[False]), "output.snapshots[0]"),
    # a number key takes no string, not even one that float() reads, and no null
    "length_string": (lambda c: c["grid"][0].update(length="1.0"), "grid[0].length"),
    "rho_string": (lambda c: c["params"].update(rho="1.0"), "params.rho"),
    "tau_string": (lambda c: c["solver"].update(tau="0.01"), "solver.tau"),
    "amplitude_string": (lambda c: c["initial"][0].update(amplitude="1.0"),
                         "initial[0].amplitude"),
    "snapshot_string": (lambda c: c["output"].update(snapshots=["0.3"]), "output.snapshots[0]"),
    "nu_null": (lambda c: c["solver"].update(nu=None), "solver.nu"),
    "width_null": (lambda c: c["initial"][0].update(profile="gauss", width=None),
                   "initial[0].width"),
    # json reads NaN and +-Infinity; no key takes them
    "amplitude_nan": (lambda c: c["initial"][0].update(amplitude=float("nan")),
                      "initial[0].amplitude"),
    "amplitude_infinite": (lambda c: c["initial"][0].update(amplitude=float("inf")),
                           "initial[0].amplitude"),
    "center_nan": (lambda c: c["initial"][0].update(profile="gauss", center=[float("nan")]),
                   "initial[0].center[0]"),
    "rho_nan": (lambda c: c["params"].update(rho=float("nan")), "params.rho"),
    "onset_nan": (lambda c: c.update(forcing={"onset": float("nan"), "block": "p"}),
                  "forcing.onset"),
}


class TestSolveCommand:
    def test_heat_energy_decreases(self, tmp_path):
        p = write_scenario(tmp_path, BASIC)
        code = cli.main(["solve", str(p), "--outdir", str(tmp_path)])
        assert code == cli.EXIT_OK
        rows = read_energy(tmp_path / "toy_heat_energy.csv")
        energies = [float(r["energy"]) for r in rows]
        assert all(b < a for a, b in zip(energies, energies[1:]))
        with open(tmp_path / "toy_heat_snapshots.csv") as fh:
            snaps = list(csv.DictReader(fh))
        assert {r["block"] for r in snaps} == {"p", "v"}

    def test_constant_profile_fills_its_block(self, tmp_path):
        cfg = copy.deepcopy(BASIC)
        cfg["initial"] = [{"block": "p", "profile": "constant", "amplitude": 0.7}]
        p = write_scenario(tmp_path, cfg)
        assert cli.main(["solve", str(p), "--outdir", str(tmp_path)]) == cli.EXIT_OK
        rows = read_energy(tmp_path / "toy_heat_snapshots.csv")
        first = {block: [float(r["value"]) for r in rows if r["t"] == "0" and r["block"] == block]
                 for block in ("p", "v")}
        assert first == {"p": [0.7] * 12, "v": [0.0] * 12}

    def test_acoustics_energy_constant(self, tmp_path):
        p = SCENARIO_DIR / "acoustics_standing_wave.json"
        code = cli.main(["solve", str(p), "--outdir", str(tmp_path)])
        assert code == cli.EXIT_OK
        rows = read_energy(tmp_path / "acoustics_standing_wave_energy.csv")
        energies = [float(r["energy"]) for r in rows]
        drift = max(abs(e - energies[0]) for e in energies) / energies[0]
        assert drift <= 1e-10

    def test_partial_norm_column_matches_diagnostic(self, tmp_path):
        from protofield.evolve import weighted_partial_norms
        from protofield import cli as _cli

        cfg = _cli.load_scenario(SCENARIO_DIR / "transport_pulse.json")
        traj = _cli.run_scenario(cfg, outdir=str(tmp_path))
        rows = read_energy(tmp_path / "transport_pulse_energy.csv")
        final = float(rows[-1]["weighted_partial_norm"])
        nu = cfg["solver"]["nu"]
        assert final == pytest.approx(weighted_partial_norms(traj, nu)[-1], rel=1e-12)

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_DIR.glob("*.json")),
                             ids=lambda path: path.stem)
    def test_reduced_flag_matches_plain(self, tmp_path, scenario):
        # energy and snapshot CSVs agree within 1e-12 of each column's largest value
        tables = {}
        for flags in ([], ["--reduced"]):
            outdir = tmp_path / ("reduced" if flags else "plain")
            outdir.mkdir()
            assert cli.main(["solve", str(scenario), "--outdir", str(outdir), *flags]) == cli.EXIT_OK
            tables[bool(flags)] = [read_energy(outdir / f"{scenario.stem}_{kind}.csv")
                                   for kind in ("energy", "snapshots")]
        for plain, red in zip(tables[False], tables[True]):
            assert len(plain) == len(red) and plain[0].keys() == red[0].keys()
            for key in plain[0]:
                x, y = [a[key] for a in plain], [b[key] for b in red]
                if key == "block":
                    assert x == y
                    continue
                x, y = np.array(x, dtype=float), np.array(y, dtype=float)
                assert np.abs(x - y).max() <= 1e-12 * np.abs(x).max(), key

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"name": "x", "catalog": }')
        assert cli.main(["solve", str(p)]) == cli.EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_binary_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe{")
        assert cli.main(["solve", str(p)]) == cli.EXIT_PARSE_ERROR
        assert "scenario error" in capsys.readouterr().err

    def test_unknown_catalog_exit_3(self, tmp_path):
        cfg = dict(BASIC)
        cfg["catalog"] = "spintronics"
        p = write_scenario(tmp_path, cfg)
        assert cli.main(["solve", str(p)]) == cli.EXIT_UNKNOWN_CATALOG

    def test_wellposedness_failure_exit_4(self, tmp_path):
        cfg = dict(BASIC)
        cfg["name"] = "degenerate"
        cfg["params"] = {"rho": 1.0, "sigma": 0.0}
        p = write_scenario(tmp_path, cfg)
        assert cli.main(["solve", str(p)]) == cli.EXIT_WELLPOSEDNESS

    def test_exactly_diagonal_law_exit_0(self, tmp_path):
        # M0 - M0* rounds to 1.8e-12 through the weighted adjoint for this
        # rho; W M0 is symmetric bitwise, so the law passes the gate
        cfg = copy.deepcopy(BASIC)
        cfg.update(name="diagonal_law", catalog="acoustics",
                   grid=[{"n": 6, "bc": "periodic"}],
                   params={"rho": 13687.617154257521, "kappa": 1.0, "sigma": 0.0})
        p = write_scenario(tmp_path, cfg)
        assert cli.main(["solve", str(p), "--outdir", str(tmp_path)]) == cli.EXIT_OK

    def test_negative_conductivity_exit_2(self, tmp_path, capsys):
        # an anti-damping law is refused as a bad value before anything is solved
        cfg = json.loads((SCENARIO_DIR / "maxwell_cavity.json").read_text())
        cfg["params"]["conductivity"] = -1.0
        p = write_scenario(tmp_path, cfg)
        assert cli.main(["solve", str(p), "--outdir", str(tmp_path)]) == cli.EXIT_PARSE_ERROR
        assert "conductivity must be symmetric positive semidefinite" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("reduced", [[], ["--reduced"]], ids=["full", "reduced"])
    def test_overflowing_state_exit_5(self, tmp_path, capsys, reduced):
        cfg = json.loads((SCENARIO_DIR / "heat_rod.json").read_text())
        cfg["initial"][0]["amplitude"] = 1e308
        p = write_scenario(tmp_path, cfg)
        code = cli.main(["solve", str(p), "--outdir", str(tmp_path), *reduced])
        assert code == cli.EXIT_STEP_FAILURE
        err = capsys.readouterr().err
        assert "not finite at step" in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("reduced", [[], ["--reduced"]], ids=["full", "reduced"])
    @pytest.mark.parametrize("solver", [{}, {"nu": 1e308, "t_end": 1.5}], ids=["nu_0", "huge_nu"])
    def test_overflowing_partial_norm_exit_5(self, tmp_path, capsys, reduced, solver):
        # states and energies stay finite; the partial norm's trapezoid sum
        # overflows, and past t = 1 a huge nu weights it by exp(-inf) = 0
        cfg = json.loads((SCENARIO_DIR / "heat_rod.json").read_text())
        cfg["initial"][0]["amplitude"] = 1e154
        cfg["solver"].update(solver)
        p = write_scenario(tmp_path, cfg)
        code = cli.main(["solve", str(p), "--outdir", str(tmp_path), *reduced])
        assert code == cli.EXIT_STEP_FAILURE
        err = capsys.readouterr().err
        assert "weighted partial norm not finite" in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_near_singular_periodic_step_exit_5(self, tmp_path, capsys):
        # the gate passes (sigma > 1e-12); the CN symbol at wavenumber 0,
        # diag(1/tau, sigma/2), has condition kappa_1 1.3e15.  The reduced
        # solve meets it as its kernel block there, and refuses it alike
        cfg = copy.deepcopy(BASIC)
        cfg["grid"] = [{"n": 8, "bc": "periodic", "length": 1.0}]
        cfg["params"]["sigma"] = 1.5e-12
        cfg["solver"] = {"tau": 1e-3, "t_end": 1e-2, "scheme": "crank_nicolson"}
        cfg["output"]["snapshots"] = [0.0, 0.01]
        p = write_scenario(tmp_path, cfg)
        for flags in ([], ["--reduced"]):
            code = cli.main(["solve", str(p), "--outdir", str(tmp_path), *flags])
            assert code == cli.EXIT_STEP_FAILURE, flags
            err = capsys.readouterr().err
            assert "condition estimate" in err and "Traceback" not in err
            assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("tau", [1e-9, 1e-12])
    def test_run_too_long_to_store_exit_2(self, tmp_path, capsys, monkeypatch, tau):
        # 1e9 (1e12) steps of 32 values would need 256 GB (256 TB) of states
        def unreachable(*args):
            raise AssertionError("the run was not refused before it was solved")

        monkeypatch.setattr(cli, "solve", unreachable)
        monkeypatch.setattr(cli, "solve_reduced", unreachable)
        cfg = copy.deepcopy(BASIC)
        cfg["grid"] = [{"n": 16, "bc": "dirichlet", "length": 1.0}]
        cfg["solver"] = {"tau": tau, "t_end": 1.0, "scheme": "implicit_euler"}
        p = write_scenario(tmp_path, cfg)
        assert cli.main(["solve", str(p), "--outdir", str(tmp_path)]) == cli.EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert "'solver'" in err and "bytes" in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_grid_too_large_to_build_exit_2(self, tmp_path, capsys, monkeypatch):
        # 1e11 points, each with at least one value, refused before the entry
        # is built: building it would allocate 745 GiB
        def unreachable(*args):
            raise AssertionError("the entry was built before the run was refused")

        monkeypatch.setattr(cli.catalog, "build_entry", unreachable)
        cfg = copy.deepcopy(BASIC)
        cfg["grid"][0]["n"] = 100_000_000_000
        p = write_scenario(tmp_path, cfg)
        tracemalloc.start()
        try:
            code = cli.main(["solve", str(p), "--outdir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert "'solver'" in err and "bytes" in err and "Traceback" not in err
        assert peak < 2**20, peak
        assert not list(tmp_path.glob("*.csv"))

    def test_memory_error_while_building_exit_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(cli.catalog, "build_entry", exhausted)
        p = write_scenario(tmp_path, BASIC)
        assert cli.main(["solve", str(p), "--outdir", str(tmp_path)]) == cli.EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert "'grid/params'" in err and "745" in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("memory, code", [(31 * 26 * 8 - 1, cli.EXIT_PARSE_ERROR),
                                              (31 * 26 * 8, cli.EXIT_OK)])
    def test_refusal_counts_energies_and_partial_norms(self, tmp_path, monkeypatch, memory, code):
        # BASIC keeps 31 states of 24 values (5952 bytes), and 31 energies
        # and 31 partial norms besides: 6448 bytes in all
        sysconf = os.sysconf
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
        monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))
        p = write_scenario(tmp_path, BASIC)
        assert cli.main(["solve", str(p), "--outdir", str(tmp_path)]) == code

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_nu_gives_finite_partial_norms(self, tmp_path):
        # past t = 1, nu * t overflows to inf: exp(-inf) is 0, with no warning
        cfg = copy.deepcopy(BASIC)
        cfg["solver"].update(nu=1e308, t_end=1.5)
        p = write_scenario(tmp_path, cfg)
        assert cli.main(["solve", str(p), "--outdir", str(tmp_path)]) == cli.EXIT_OK
        rows = read_energy(tmp_path / "toy_heat_energy.csv")
        assert all(math.isfinite(float(row["weighted_partial_norm"])) for row in rows)

    @pytest.mark.parametrize("edit, key", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_bad_input_exit_2(self, tmp_path, capsys, edit, key):
        cfg = copy.deepcopy(BASIC)
        edit(cfg)
        p = write_scenario(tmp_path, cfg)
        assert cli.main(["solve", str(p), "--outdir", str(tmp_path)]) == cli.EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_non_integer_step_count_runs(self, tmp_path):
        # t_end / tau = 29.75 rounds to 30 steps: the run, and its last
        # snapshot, end at 30 tau, past t_end
        cfg = copy.deepcopy(BASIC)
        cfg["solver"]["t_end"] = 0.2975
        p = write_scenario(tmp_path, cfg)
        assert cli.main(["solve", str(p), "--outdir", str(tmp_path)]) == cli.EXIT_OK
        rows = read_energy(tmp_path / "toy_heat_energy.csv")
        assert len(rows) == 31

    def test_missing_key_exit_2(self, tmp_path):
        p = write_scenario(tmp_path, {"name": "x"})
        assert cli.main(["solve", str(p)]) == cli.EXIT_PARSE_ERROR

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "..", "", 7])
    def test_name_not_a_file_stem_exit_2(self, tmp_path, capsys, name):
        cfg = dict(BASIC)
        cfg["name"] = name
        outdir = tmp_path / "out"
        outdir.mkdir()
        p = write_scenario(tmp_path, cfg)
        assert cli.main(["solve", str(p), "--outdir", str(outdir)]) == cli.EXIT_PARSE_ERROR
        assert "'name'" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_deterministic_output(self, tmp_path):
        p = write_scenario(tmp_path, BASIC)
        cli.main(["solve", str(p), "--outdir", str(tmp_path)])
        first = (tmp_path / "toy_heat_energy.csv").read_bytes()
        snap1 = (tmp_path / "toy_heat_snapshots.csv").read_bytes()
        cli.main(["solve", str(p), "--outdir", str(tmp_path)])
        assert (tmp_path / "toy_heat_energy.csv").read_bytes() == first
        assert (tmp_path / "toy_heat_snapshots.csv").read_bytes() == snap1


def key_paths(value, path=()):
    """Every key path inside a JSON value: object keys and list positions."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from key_paths(item, path + (key,))


# the huge and tiny numbers make scenario arithmetic overflow; a run they make
# too long to store is refused before it starts
JUNK = [None, True, -1, 0, 0.5, 3, 1e308, float("nan"), float("inf"), "", "x", "nan", [], [1],
        {}, {"a": 1}, 1e-160, 1e-200, 5e-324, 1e154, 1e200, -1e-300, 1e-15]
FUZZ_CASES = [(f, path) for f in sorted(SCENARIO_DIR.glob("*.json"))
              for path in key_paths(json.loads(f.read_text()))]


@settings(max_examples=150)
@given(case=st.sampled_from(FUZZ_CASES), junk=st.sampled_from(JUNK))
def test_fuzzed_scenario_never_gives_a_traceback(case, junk):
    """A shipped scenario with one value replaced by junk ends with a known exit code,
    warns of nothing, and writes only finite CSVs."""
    scenario, path = case
    cfg = json.loads(scenario.read_text())
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(junk)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings(record=True) as rec:
        # recorded, not raised: a warning must fail the test, not end the run
        warnings.simplefilter("always")
        p = Path(outdir) / "scenario.json"
        p.write_text(json.dumps(cfg))
        code = cli.main(["solve", str(p), "--outdir", outdir])
        rows = [row for csv_path in Path(outdir).glob("*.csv") for row in read_energy(csv_path)]
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE_ERROR, cli.EXIT_UNKNOWN_CATALOG,
                    cli.EXIT_WELLPOSEDNESS, cli.EXIT_STEP_FAILURE)
    assert "Traceback" not in err.getvalue()
    runtime = [str(w.message) for w in rec if issubclass(w.category, RuntimeWarning)]
    assert not runtime, runtime
    assert all(math.isfinite(float(value)) for row in rows
               for key, value in row.items() if key != "block")


class TestScenarioCorpus:
    def test_corpus_round_trips(self):
        files = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(files) >= 5
        for f in files:
            assert cli.load_scenario(f) == json.loads(f.read_text())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_corpus_runs(self, tmp_path):
        for f in sorted(SCENARIO_DIR.glob("*.json")):
            assert cli.main(["solve", str(f), "--outdir", str(tmp_path)]) == cli.EXIT_OK


class TestCatalogCommand:
    def test_lists_required_entries(self, capsys):
        assert cli.main(["catalog"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        for name in ("acoustics", "dirac", "timoshenko"):
            assert name in out
        assert sum(1 for line in out.splitlines() if line and not line.startswith(" ")) >= 13

    def test_maxwell_provenance_names_antisymmetrization(self, capsys):
        cli.main(["catalog"])
        out = capsys.readouterr().out
        block = out.split("maxwell")[1]
        assert "antisym" in block


def flip_curl_pairing(perm):
    perm = perm.copy()
    perm[0, 2] = -perm[0, 2]
    return perm


def flip_dirac_relabeling(perms):
    u1, u2 = perms
    u2 = u2.copy()
    u2[1, 2] = -u2[1, 2]
    return u1, u2


def scale_operator(op):
    return 1.001 * op


class TestVerifyCommand:
    def test_module_run_has_no_warning(self):
        # `python -m protofield.cli` runs a module the package must not have imported
        import protofield

        env = dict(os.environ, PYTHONPATH=str(Path(protofield.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "protofield.cli", "verify",
             "--filter", "skewness"], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == cli.EXIT_OK, done.stderr
        assert "Warning" not in done.stderr

    def test_filter_runs_subset(self, capsys, monkeypatch):
        monkeypatch.setenv("PROTOFIELD_MAX_GRID", "3")
        assert cli.main(["verify", "--filter", "curl"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "curl_identification" in out and "PASS" in out

    @pytest.mark.parametrize("check, home, helper, flip", [
        ("curl", "verify", "_asym_perm", flip_curl_pairing),
        ("dirac", "verify", "_dirac_permutations", flip_dirac_relabeling),
        ("skewness", "catalog", "_elastic_block", scale_operator),
        ("relative", "verify", "descend", scale_operator),
    ], ids=["curl", "dirac", "provenance", "relative"])
    def test_injected_sign_error_fails(self, capsys, monkeypatch, check, home, helper, flip):
        # mutation test: corrupt the verify helper the identity is stated
        # in, or a builder's chain, and the verify command must report failure
        import protofield

        module = getattr(protofield, home)
        good = getattr(module, helper)
        monkeypatch.setattr(module, helper, lambda *args, **kwargs: flip(good(*args, **kwargs)))
        code = cli.main(["verify", "--filter", check])
        monkeypatch.setattr(module, helper, good)
        assert code == cli.EXIT_VERIFY_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_no_matching_filter(self, capsys):
        assert cli.main(["verify", "--filter", "zzz"]) == cli.EXIT_VERIFY_FAILED


class TestGridCap:
    def test_full_suite_under_cap_3(self, capsys, monkeypatch):
        monkeypatch.setenv("PROTOFIELD_MAX_GRID", "3")
        assert cli.main(["verify"]) == cli.EXIT_OK
        assert capsys.readouterr().out.count("PASS") == 15

    @pytest.mark.parametrize("value", ["abc", "0", "1", "-3", "2.5"])
    def test_invalid_cap_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PROTOFIELD_MAX_GRID", value)
        assert cli.main(["verify", "--filter", "curl"]) == cli.EXIT_PARSE_ERROR
        assert "PROTOFIELD_MAX_GRID" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", range(2, 9))
    def test_every_cap_runs(self, capsys, monkeypatch, cap):
        # every cap builds valid grids: the symmetric transport line needs an even
        # count, and weights such as 1/5 must pass the M0 symmetry check
        monkeypatch.setenv("PROTOFIELD_MAX_GRID", str(cap))
        for check in ("skewness", "even_odd"):
            assert cli.main(["verify", "--filter", check]) == cli.EXIT_OK, check
        assert "FAIL" not in capsys.readouterr().out

    def test_env_var_caps_grids(self, monkeypatch):
        from protofield.verify import _cap

        monkeypatch.setenv("PROTOFIELD_MAX_GRID", "4")
        assert _cap(16) == 4
        monkeypatch.delenv("PROTOFIELD_MAX_GRID")
        assert _cap(16) == 16
