"""Tests for the batch CLI: verify, solve, catalog, exit codes, determinism."""

import csv
import json
from pathlib import Path

import pytest

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

    def test_acoustics_energy_constant(self, tmp_path):
        p = SCENARIO_DIR / "acoustics_standing_wave.json"
        code = cli.main(["solve", str(p), "--outdir", str(tmp_path)])
        assert code == cli.EXIT_OK
        rows = read_energy(tmp_path / "acoustics_standing_wave_energy.csv")
        energies = [float(r["energy"]) for r in rows]
        drift = max(abs(e - energies[0]) for e in energies) / energies[0]
        assert drift <= 1e-10

    def test_partial_norm_column_matches_diagnostic(self, tmp_path):
        from protofield.evolve import weighted_norm
        from protofield import cli as _cli

        cfg = _cli.load_scenario(SCENARIO_DIR / "transport_pulse.json")
        traj = _cli.run_scenario(cfg, outdir=str(tmp_path))
        rows = read_energy(tmp_path / "transport_pulse_energy.csv")
        final = float(rows[-1]["weighted_partial_norm"])
        nu = cfg["solver"]["nu"]
        assert final == pytest.approx(weighted_norm(traj, nu), rel=1e-12)

    def test_reduced_flag_matches_plain(self, tmp_path):
        cfg = dict(BASIC)
        cfg["name"] = "toy_heat_red"
        cfg["grid"] = [{"n": 12, "bc": "periodic"}]
        p = write_scenario(tmp_path, cfg)
        assert cli.main(["solve", str(p), "--outdir", str(tmp_path)]) == cli.EXIT_OK
        plain = read_energy(tmp_path / "toy_heat_red_energy.csv")
        (tmp_path / "toy_heat_red_energy.csv").rename(tmp_path / "plain.csv")
        assert cli.main(["solve", str(p), "--reduced", "--outdir", str(tmp_path)]) == cli.EXIT_OK
        red = read_energy(tmp_path / "toy_heat_red_energy.csv")
        for a, b in zip(plain, red):
            assert float(a["energy"]) == pytest.approx(float(b["energy"]), abs=1e-12)

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"name": "x", "catalog": }')
        assert cli.main(["solve", str(p)]) == cli.EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

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


class TestScenarioCorpus:
    def test_corpus_round_trips(self):
        files = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(files) >= 5
        for f in files:
            cfg = cli.load_scenario(f)
            text = cli.serialize_scenario(cfg)
            assert json.loads(text) == cfg

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


class TestVerifyCommand:
    def test_filter_runs_subset(self, capsys, monkeypatch):
        monkeypatch.setenv("PROTOFIELD_MAX_GRID", "3")
        assert cli.main(["verify", "--filter", "curl"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "curl_identification" in out and "PASS" in out

    @pytest.mark.parametrize("check, helper, flip", [
        ("curl", "_asym_perm", flip_curl_pairing),
        ("dirac", "_dirac_permutations", flip_dirac_relabeling),
    ], ids=["curl", "dirac"])
    def test_injected_sign_error_fails(self, capsys, monkeypatch, check, helper, flip):
        # mutation test: flip one sign in the catalog helper the identity is
        # stated in, and the verify command must report failure
        import protofield.catalog as cat

        good = getattr(cat, helper)
        monkeypatch.setattr(cat, helper, lambda: flip(good()))
        code = cli.main(["verify", "--filter", check])
        monkeypatch.setattr(cat, helper, good)
        assert code == cli.EXIT_VERIFY_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_no_matching_filter(self, capsys):
        assert cli.main(["verify", "--filter", "zzz"]) == cli.EXIT_VERIFY_FAILED


class TestGridCap:
    @pytest.mark.parametrize("value", ["abc", "0", "1", "-3", "2.5"])
    def test_invalid_cap_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PROTOFIELD_MAX_GRID", value)
        assert cli.main(["verify", "--filter", "curl"]) == cli.EXIT_PARSE_ERROR
        assert "PROTOFIELD_MAX_GRID" in capsys.readouterr().err

    def test_env_var_caps_grids(self, monkeypatch):
        from protofield.verify import _cap

        monkeypatch.setenv("PROTOFIELD_MAX_GRID", "4")
        assert _cap(16) == 4
        monkeypatch.delenv("PROTOFIELD_MAX_GRID")
        assert _cap(16) == 16
