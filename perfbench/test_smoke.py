"""Checks of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import rep
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        if trace == "0":
            assert printed["value"] > 0, m["name"]


def _solve():
    L = rep.import_lapden()
    clean = L.sample_f_sine(20)
    noisy = L.add_noise(clean, L.NoiseSpec(seed=3, delta_rel=0.09))
    delta = float(((noisy.values - clean.values) ** 2).sum() ** 0.5)
    params = L.FilterParams(solver=L.Solver.SEMI_IMPLICIT, target_delta=delta)
    u, trace = L.denoise_1d(noisy, params)
    solve = {"method": "nlap", "args": (noisy,), "kwargs": {"params": params},
             "result": (u, trace),
             "error": None, "seconds": 0.0}
    return L, solve, clean


def test_gate_passes_a_real_solve():
    L, solve, clean = _solve()
    rec = rep.certify(L, solve, clean)
    assert rec["ok"], rec["reason"]
    assert rec["cert_ratio"] <= 1.0 and rec["discrepancy"] <= rep.DISCREPANCY_RTOL


def test_gate_fails_a_tampered_result():
    L, solve, clean = _solve()
    u, trace = solve["result"]
    values = u.values.copy()
    values[5] += 1e-3
    tampered = rep.certify(L, dict(solve, result=(u.with_values(values), trace)), clean)
    assert not tampered["ok"] and "certificate" in tampered["reason"]

    unconverged = rep.certify(L, dict(solve, result=(u, replace(trace, converged=False))),
                              clean)
    assert not unconverged["ok"] and "not converged" in unconverged["reason"]

    raised = rep.certify(L, dict(solve, result=None, error=ArithmeticError("x")), clean)
    assert not raised["ok"] and "raised" in raised["reason"]


def test_consistency_flags_a_changed_artifact():
    rep_a = {"hashes": {"a.csv": "00"}, "solves": [{"method": "nlap", "iters": 3}]}
    rep_b = {"hashes": {"a.csv": "01"}, "solves": [{"method": "nlap", "iters": 3}]}
    assert run.consistency_problems([rep_a, rep_a]) == []
    assert "artifacts differ" in run.consistency_problems([rep_a, rep_b])[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "cli_1d", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_missing_cli_output_is_a_problem_not_a_crash(tmp_path):
    outputs = {name: tmp_path / f"x.{name}" for name in ("output", "report")}
    call = rep.Call("sine-16-1", None, None, expected_solves=1, outputs=outputs, result=0,
                    stdout="denoise1d: converged after 3 iterations")
    problems = rep.check_outputs(call, [{"method": "nlap", "iters": 3, "rel_err": 0.1,
                                         "u": [0.0]}])
    assert len(problems) == 1 and "missing or malformed" in problems[0]


def test_a_crashing_repetition_is_counted_as_failed(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src" / "lapden").mkdir(parents=True)
    (tmp_path / "src" / "lapden" / "__init__.py").write_text("raise ImportError('broken')\n")
    proc = _run("--workload", "exp_1d", "--seed", "1", "--seconds", "1",
                "--trace", "0", "--smoke", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    planned = rep.planned_solves("exp_1d", smoke=True)
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == planned
    assert "lost" in proc.stderr and "broken" in proc.stderr


def test_tracer_reports_a_missing_name_as_absent():
    from tracer import Tracer

    rep.import_lapden()
    tracer = Tracer()
    tracer.install("lapden.nl_filter", "no_such_function", "nl_filter.gone")
    tracer.install("lapden.no_such_module", "flux", "nl_filter.flux")
    assert tracer.absent == ["lapden.nl_filter.no_such_function",
                             "lapden.no_such_module.flux"]
    tracer.uninstall()
