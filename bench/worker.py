"""One benchmark process: set up one workload, then run its timed loop.

    python3 bench/worker.py --workload NAME --seed N --mode setup
    python3 bench/worker.py --workload NAME --seed N --mode measure --seconds S [--passes P] [--trace]

With ``--trace`` the spans are written to
``.bench_out/spans-<workload>-seed<n>.jsonl.gz``.

``run.py`` starts this script once per set-up sample and once per
measurement, each time in a fresh interpreter, and reads the JSON
object printed as the last line of standard output.  ``ready`` is the
``time.monotonic()`` reading at the moment the inputs are ready, which
``run.py`` turns into the set-up time from process start.

The timed loop runs closed, one request after another.  A pass is the
workload's fixed request list; passes repeat until the next one would
run past ``--seconds`` of timed work (at least one pass), or exactly
``--passes`` times.  Checks and digests run outside the timed region:
the first pass checks every result independently and against the
reference digests, later passes must reproduce the first pass's
digests.  A request that raises or fails a check is counted as failed
and its time is left out of the samples.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import workloads


def _verify(wl, idx, req, out, first, refs) -> str | None:
    if idx not in first:
        problem = wl.check(req, out)
        digest = wl.digest(req, out)
        if problem is None and refs is not None and refs[idx] is not None and refs[idx] != digest:
            problem = f"digest {digest} differs from the reference {refs[idx]}"
        first[idx] = (digest, problem)
        return problem
    digest, problem = first[idx]
    if wl.digest(req, out) != digest:
        return "result differs from the first pass"
    return problem


def measure(wl, seconds: float | None = None, passes: int | None = None, tracer=None) -> dict:
    """Run passes of ``wl.requests``; see the module docstring."""
    refs = wl.references()
    first: dict[int, tuple] = {}
    pass_walls: list[float] = []
    samples: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    while True:
        wall = 0.0
        for idx, req in enumerate(wl.requests):
            attempted += 1
            err = out = None
            if tracer is not None:
                tracer.request = f"{len(pass_walls)}:{idx}"
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = wl.run(req)
                else:
                    with tracer.span("request"):
                        out = wl.run(req)
            except Exception:  # a failed request is counted, not fatal
                err = traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            wall += dt
            if tracer is None:
                problem = err or _verify(wl, idx, req, out, first, refs)
            else:
                with tracer.pause():
                    problem = err or _verify(wl, idx, req, out, first, refs)
                    if problem is None and not pass_walls:
                        wl.probe(req, out, tracer)
            if problem is None:
                samples.append(dt)
            else:
                failed += 1
                problems.append(f"request {idx}: {problem}")
        pass_walls.append(wall)
        if passes is not None:
            if len(pass_walls) >= passes:
                break
        elif sum(pass_walls) + statistics.median(pass_walls) > seconds:
            break
    return {
        "pass_walls": pass_walls,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "requests_per_pass": len(wl.requests),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--passes", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    cls = workloads.WORKLOADS[args.workload]
    if tracer is None:
        wl = cls(args.seed)
    else:
        with tracer.span("setup"):
            wl = cls(args.seed)
    ready = time.monotonic()
    result = {"ready": ready, "inputs": wl.fingerprint()}
    if args.mode == "measure":
        result.update(measure(wl, args.seconds, args.passes, tracer))
        if tracer is not None:
            result["layers"] = tracer.summary()
            spans_out = workloads.ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.dump(spans_out)
            result["spans"] = str(spans_out.relative_to(workloads.ROOT))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
