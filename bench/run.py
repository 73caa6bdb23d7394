"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn

Workloads: certify, swell, ore-dense, catalog-cli (see bench/README.md).
Every process this script starts runs ``bench/worker.py`` in a fresh
interpreter, one at a time.

``--trace 0`` measures with tracing off.  It starts the workload's
set-up alone in ``SETUP_SAMPLES`` processes, then once more followed by
the timed loop, and reports the end-to-end metrics:

    setup_s      median over those processes of the time from process
                 start to inputs ready
    wall_s       median wall time of one pass of the workload's requests
    req_p50_s    median request time
    req_p95_s    95th percentile of the request times
    peak_rss_mb  peak resident set size of the measuring process

``--trace 1`` runs the timed loop untraced for half of ``--seconds``,
then traced for the same number of passes, and reports the per-layer
metrics (per pass, plus the set-up's share once) and the tracing
overhead.  The spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "swell", "ore-dense", "catalog-cli")
SETUP_SAMPLES = 4
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_s": "s",
    "req_p95_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics with their units; see bench/README.md for what each
# should move and on which workload
SELF_TIMES = (
    "quadratic.certify_koszul",
    "quadratic.dim_A",
    "quadratic.koszul_space",
    "linalg.Subspace",
    "linalg.solve_columns",
    "linalg.subspace_intersect",
    "morphisms.admissible_lift_space",
    "morphisms.check_automorphism",
    "morphisms.extend_derivation",
    "morphisms.nakayama_of_A",
    "morphisms.twist_solve",
    "ore.build_sequence_pair",
    "ore.nakayama_of_B",
    "ore.twisted_superpotential_hat",
    "catalog.enumerate_solution",
    "catalog.cy_classifier_dim2",
    "catalog.dim2_nakayama_oracle",
    "cli.main",
    "cli.render_report",
)
COUNTS = {
    "quadratic.certify_koszul.rank_sum": "count",
    "quadratic.A.dim_max": "count",
    "quadratic.W.dim_max": "count",
    "quadratic.nf.max_bits": "bits",
    "linalg.Subspace.calls": "count",
    "linalg.Subspace.rows_in": "count",
    "linalg.solve_columns.calls": "count",
    "linalg.solve_columns.unknowns_max": "count",
    "linalg.Tensor.add.calls": "count",
    "linalg.Tensor.add.entries_copied": "count",
    "ore.sequence_pair.nnz": "count",
    "ore.omega_hat.nnz": "count",
    "ore.omega_hat.max_bits": "bits",
}
MODULES = ("linalg", "quadratic", "morphisms", "ore", "catalog", "cli")
MAXIMA = {
    "quadratic.A.dim_max",
    "quadratic.W.dim_max",
    "quadratic.nf.max_bits",
    "linalg.solve_columns.unknowns_max",
    "ore.omega_hat.max_bits",
}


def per_layer_units() -> dict[str, str]:
    units = {name + ".self_s": "s" for name in SELF_TIMES}
    units.update(COUNTS)
    units["linalg.Subspace.rank_per_row"] = "ratio"
    units.update({m + ".errors": "count" for m in MODULES})
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(layers: dict, passes: int) -> dict:
    """Per-layer values from a traced worker's summary: the set-up's
    share once plus the mean over the passes; maxima over both."""
    setup, timed = layers.get("setup", {}), layers.get("passes", {})
    metrics = {}
    for name in per_layer_units():
        if name in MAXIMA:
            metrics[name] = max(setup.get(name, 0), timed.get(name, 0))
        else:
            metrics[name] = setup.get(name, 0) + timed.get(name, 0) / passes
    rows = setup.get("linalg.Subspace.rows_in", 0) + timed.get("linalg.Subspace.rows_in", 0)
    dims = setup.get("linalg.Subspace.dim_out", 0) + timed.get("linalg.Subspace.dim_out", 0)
    metrics["linalg.Subspace.rank_per_row"] = dims / rows if rows else 0.0
    return metrics


class WorkerFailed(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return its start time and result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("time budget exhausted before " + " ".join(args))
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise WorkerFailed("timed out: " + " ".join(args)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return start, json.loads(lines[-1])


def _p95(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=20, method="inclusive")[18]


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_SAMPLES):
        start, res = _worker(base + ["--mode", "setup"], deadline)
        setups.append(res["ready"] - start)
    start, res = _worker(base + ["--mode", "measure", "--seconds", str(seconds)], deadline)
    setups.append(res["ready"] - start)
    samples = res["samples"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["pass_walls"]),
        "req_p50_s": statistics.median(samples) if samples else 0.0,
        "req_p95_s": _p95(samples),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"inputs {res['inputs']}",
        f"setup_s over {len(setups)} processes",
        f"wall_s over {len(res['pass_walls'])} passes of {res['requests_per_pass']} requests",
        f"req_p50_s, req_p95_s over {len(samples)} requests",
    ]
    return {"res": res, "metrics": metrics, "units": END_TO_END, "notes": notes}


def run_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--mode", "measure"]
    _, plain = _worker(base + ["--seconds", str(seconds / 2)], deadline)
    passes = len(plain["pass_walls"])
    _, traced = _worker(base + ["--passes", str(passes), "--trace"], deadline)
    metrics = layer_metrics(traced["layers"], passes)
    metrics["trace.overhead_s"] = statistics.median(traced["pass_walls"]) - statistics.median(
        plain["pass_walls"]
    )
    res = {
        key: plain[key] + traced[key] for key in ("attempted", "failed", "problems")
    }
    notes = [
        f"inputs {traced['inputs']}",
        f"{passes} passes untraced, then {passes} traced; values per pass plus set-up",
        f"spans in {traced['spans']}",
    ]
    return {"res": res, "metrics": metrics, "units": per_layer_units(), "notes": notes}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    fn = run_traced if trace else run_untraced
    try:
        out = fn(workload, seed, seconds, deadline)
    except WorkerFailed as e:
        units = per_layer_units() if trace else END_TO_END
        out = {
            "res": {"attempted": 1, "failed": 1, "problems": [str(e)]},
            "metrics": {name: 0.0 for name in units},
            "units": units,
            "notes": [],
        }
    return out


def report(workload: str, seed: int, trace: bool, out: dict) -> None:
    res, metrics, units = out["res"], out["metrics"], out["units"]
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for note in out["notes"]:
        print(f"  # {note}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {units[name]}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"  attempted {attempted}  failed {failed}  fail_frac {failed / attempted:.4g}")
    for problem in res["problems"]:
        print(f"  ! {problem}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        ),
        flush=True,
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "orenaka" / "__init__.py").is_file():
        print(f"error: no orenaka sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, args.seed, bool(args.trace), out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
