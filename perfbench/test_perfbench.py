"""The benchmark's own tests, at smoke size.

    python3 -m pytest perfbench

They check that every workload's code path runs and passes its gate, that
a corrupted trajectory or CSV comes out in ``failed`` and ``pass_ratio``,
that the tracer leaves the package as it found it, and that the command
keeps its output contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import run
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@pytest.fixture(scope="module")
def pf():
    return run.import_package()


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(ROOT, seed=7, outdir=tmp_path)


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def smoke_main(capsys, workload, trace=0):
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--smoke"]) == 0
    return last_json(capsys.readouterr().out)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_is_correct(pf, ctx, workload):
    result = workloads.run_pass(pf, workload, ctx, is_smoke=True)
    failed, messages = gate.check_pass(pf, workload, result, ctx.seed)
    assert failed == 0, messages
    assert result.runs and all(r.stamps for r in result.runs)
    assert result.first_step_s > 0 and result.march_s > 0


def test_inputs_follow_the_seed(pf, ctx):
    problem = workloads.smoke(workloads.MARCH[1])
    first = workloads.run_problem(pf, problem, ctx, 1).inputs
    again = workloads.run_problem(pf, problem, ctx, 1).inputs
    ctx.seed += 1
    other = workloads.run_problem(pf, problem, ctx, 1).inputs
    assert np.array_equal(first.initial, again.initial) and first.onset == again.onset
    assert not np.array_equal(first.initial, other.initial)


@pytest.mark.parametrize("corrupt", ["nan", "drift"])
def test_corrupted_trajectory_counts_as_failed(pf, capsys, monkeypatch, corrupt):
    solve = pf.evolve.solve

    def corrupted(problem, config):
        traj = solve(problem, config)
        traj.states[-1, 0] = np.nan if corrupt == "nan" else traj.states[-1, 0] + 1e-3
        return traj

    monkeypatch.setattr(pf.evolve, "solve", corrupted)
    out = smoke_main(capsys, "march")
    assert out["failed"] > 0 and not out["correct"]
    assert out["metrics"]["pass_ratio"]["value"] < 1.0


def test_corrupted_csv_counts_as_failed(pf, capsys, monkeypatch):
    run_scenario = pf.cli.run_scenario

    def corrupted(cfg, reduced=False, outdir="."):
        traj = run_scenario(cfg, reduced=reduced, outdir=outdir)
        if cfg["name"] == "heat_rod":
            path = Path(outdir) / "heat_rod_energy.csv"
            rows = path.read_text().splitlines()
            t, energy, norm = rows[5].split(",")
            rows[5] = ",".join([t, repr(float(energy) * (1 + 1e-9)), norm])
            path.write_text("\n".join(rows) + "\n")
        return traj

    monkeypatch.setattr(pf.cli, "run_scenario", corrupted)
    out = smoke_main(capsys, "desk")
    assert out["failed"] > 0
    assert out["metrics"]["pass_ratio"]["value"] < 1.0


def test_csv_comparison_is_relative_to_the_column(tmp_path):
    ref = tmp_path / "a.csv.ref"
    ref.write_text("t,value\n0,1000\n1,1e-20\n")
    close = tmp_path / "a.csv"
    close.write_text("t,value\n0,1000\n1,2e-20\n")
    assert gate.csv_mismatch(close, ref) is None
    far = tmp_path / "b.csv"
    far.write_text("t,value\n0,1000.000001\n1,1e-20\n")
    assert "value" in gate.csv_mismatch(far, ref)


def test_tracer_restores_every_name(pf, ctx):
    names = {(mod, attr): value for mod in (pf.catalog, pf.cli, pf.evolve, pf.verify, pf.matlaw)
             for attr, value in vars(mod).items() if callable(value)}
    op_attrs = {a: pf.linops.MatrixOperator.__dict__[a]
                for a in ("apply", "to_dense", "__matmul__", "__init__")}
    checks = list(pf.verify.CHECKS)
    tr = tracer.Tracer().install(pf)
    assert pf.evolve.solve is not names[(pf.evolve, "solve")]
    tr.uninstall()
    assert all(getattr(mod, attr) is value for (mod, attr), value in names.items())
    assert all(pf.linops.MatrixOperator.__dict__[a] is v for a, v in op_attrs.items())
    assert pf.verify.CHECKS == checks


def test_self_time_and_windows():
    # a solve [0, 10] holding a gate [1, 4] with an apply [2, 3] inside it, first step at 6
    spans = [["evolve.solve", 0.0, 10.0, -1, "p", 3.0],
             ["matlaw.check_wellposed", 1.0, 4.0, 0, "p", 1.0],
             ["linops.apply", 2.0, 3.0, 1, "p", 0.0]]
    assert tracer.self_times(spans)["evolve.solve"] == 7.0
    assert tracer.self_times(spans)["matlaw.check_wellposed"] == 2.0
    window = tracer.window_self_times(spans, 0.0, 6.0, dict.fromkeys(tracer.LAYERS, 0.0))
    assert window["evolve"] == 3.0 and window["matlaw"] == 2.0 and window["linops"] == 1.0
    assert tracer.prepare_time(spans, 0, 6.0) == 3.0


def test_command_prints_the_contract_line():
    for workload, trace, names in (("scale", 1, run.PER_LAYER), ("march", 0, run.END_TO_END)):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "0", "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        out = last_json(proc.stdout)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
        assert {k: v["unit"] for k, v in out["metrics"].items()} == names


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
