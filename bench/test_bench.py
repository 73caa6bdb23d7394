"""Tests of the benchmark itself, not of the program:

    python3 -m pytest bench -q

They take about half a minute, most of it one swell request.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads
from orenaka import linalg

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run_bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_the_metrics_printed():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOADS
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_corrupted_mu_B_counts_as_failure(monkeypatch):
    wl = workloads.OreDense(seed=3)
    wl.requests = wl.requests[:2]
    real_run = wl.run

    def corrupt(req):
        sigma, delta, rep = real_run(req)
        rows = [list(r) for r in rep.mu_B.rows]
        rows[-1][-1] += 1
        rep.mu_B = linalg.Matrix(rows)
        return sigma, delta, rep

    monkeypatch.setattr(wl, "run", corrupt)
    res = worker.measure(wl, passes=2)
    assert res["attempted"] == 4
    assert res["failed"] == 4
    assert res["samples"] == []


def test_corrupted_ranks_count_as_failure(monkeypatch):
    wl = workloads.Certify(seed=5)
    wl.requests = wl.requests[:2]
    real_run = wl.run

    def corrupt(req):
        alg, d, mu = real_run(req)
        alg.certificate.ranks[min(alg.certificate.ranks)] += 1
        return alg, d, mu

    monkeypatch.setattr(wl, "run", corrupt)
    res = worker.measure(wl, passes=1)
    assert res["failed"] == res["attempted"] == 2
    assert res["samples"] == []


def test_result_that_changes_between_passes_counts_as_failure(monkeypatch):
    wl = workloads.CatalogCli(seed=1)
    wl.requests = wl.requests[:3]
    real_run = wl.run
    calls = []

    def drift(req):
        code, out, err = real_run(req)
        calls.append(req)
        return code, out + ("x" if len(calls) > 3 else ""), err

    monkeypatch.setattr(wl, "run", drift)
    res = worker.measure(wl, passes=2)
    assert res["attempted"] == 6
    assert res["failed"] == 3
    assert len(res["samples"]) == 3


def test_default_seed_results_match_the_reference_digests():
    wl = workloads.CatalogCli(seed=workloads.DEFAULT_SEED)
    res = worker.measure(wl, passes=1)
    assert res["failed"] == 0
    assert wl.references() is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_inputs(name):
    cls = workloads.WORKLOADS[name]
    a, b, a2 = (cls(s).fingerprint() for s in (1, 2, 1))
    assert a == a2
    assert a != b


def test_seed_does_not_change_the_metric_set():
    printed = []
    for seed in ("1", "2"):
        proc = _run_bench("--workload", "catalog-cli", "--seed", seed, "--seconds", "1", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed.append(set(result["metrics"]))
    assert printed[0] == printed[1] == set(run.END_TO_END)


def test_traced_run_prints_every_per_layer_metric():
    proc = _run_bench("--workload", "catalog-cli", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(run.per_layer_units())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# Per-layer metrics that must be nonzero where the layer runs.
RUNS_IN = {
    "certify": (
        "quadratic.certify_koszul.self_s", "quadratic.dim_A.self_s",
        "quadratic.koszul_space.self_s", "quadratic.certify_koszul.rank_sum",
        "quadratic.A.dim_max", "quadratic.W.dim_max", "quadratic.nf.max_bits",
        "linalg.Subspace.self_s", "linalg.Subspace.calls", "linalg.Subspace.rows_in",
        "linalg.Subspace.rank_per_row", "linalg.solve_columns.self_s",
        "linalg.solve_columns.calls", "linalg.solve_columns.unknowns_max",
        "linalg.subspace_intersect.self_s", "morphisms.nakayama_of_A.self_s",
        "morphisms.twist_solve.self_s", "morphisms.check_automorphism.self_s",
    ),
    "swell": (
        "quadratic.certify_koszul.self_s", "quadratic.dim_A.self_s",
        "quadratic.koszul_space.self_s", "quadratic.certify_koszul.rank_sum",
        "quadratic.A.dim_max", "quadratic.W.dim_max", "quadratic.nf.max_bits",
        "linalg.Subspace.self_s", "linalg.Subspace.rows_in", "linalg.subspace_intersect.self_s",
        "morphisms.extend_derivation.self_s",
    ),
    "ore-dense": (
        "morphisms.admissible_lift_space.self_s", "morphisms.check_automorphism.self_s",
        "morphisms.extend_derivation.self_s", "morphisms.nakayama_of_A.self_s",
        "ore.build_sequence_pair.self_s", "ore.sequence_pair.nnz", "ore.nakayama_of_B.self_s",
        "ore.twisted_superpotential_hat.self_s", "ore.omega_hat.nnz", "ore.omega_hat.max_bits",
        "linalg.solve_columns.self_s", "linalg.solve_columns.unknowns_max",
        "linalg.Tensor.add.calls", "linalg.Tensor.add.entries_copied",
    ),
    "catalog-cli": (
        "cli.main.self_s", "cli.render_report.self_s", "catalog.enumerate_solution.self_s",
        "catalog.cy_classifier_dim2.self_s", "catalog.dim2_nakayama_oracle.self_s",
        "morphisms.check_automorphism.self_s", "morphisms.extend_derivation.self_s",
        "ore.build_sequence_pair.self_s", "ore.nakayama_of_B.self_s",
        "ore.twisted_superpotential_hat.self_s", "linalg.solve_columns.self_s",
        "linalg.Tensor.add.calls", "linalg.Tensor.add.entries_copied",
    ),
}

# The requests of one pass that the traced test runs: enough to reach
# every layer above, small enough to keep the test short.
SMALL = {
    "certify": [0, 1, 4],
    "swell": [0],
    "ore-dense": [0],
    "catalog-cli": list(range(25)),
}


@pytest.mark.parametrize("name", sorted(RUNS_IN))
def test_traced_run_measures_each_layer_where_it_runs(name):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            wl = workloads.WORKLOADS[name](7)
        wl.requests = [wl.requests[k] for k in SMALL[name]]
        res = worker.measure(wl, passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert res["failed"] == 0, res["problems"]
    metrics = run.layer_metrics(tracer.summary(), 1)
    assert set(metrics) == set(run.per_layer_units())
    assert [m for m in RUNS_IN[name] if not metrics[m] > 0] == []
    assert [m for m in metrics if m.endswith(".errors") and metrics[m]] == []
    names = {rec[0] for rec in tracer.spans}
    assert "request" in names and "setup" in names
