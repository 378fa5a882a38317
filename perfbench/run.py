"""Benchmark of the varprec toolkit: eBFP kernel, graph executor, planners
and the zero-forcing sweep.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 40 --trace 0

Workloads are ``desk-sweep``, ``precoder-8x8`` and ``scalar-kernel`` (see
README.md). The run sets up its inputs three times, then repeats whole
rounds of the workload while the next round is expected to end within
``--seconds`` of the start. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` every call into the traced varprec functions records a
span, the spans are written to ``perfbench/out/trace-<workload>.npz``, and
the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
from collections import defaultdict
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import speed

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPS = 3
WORKLOADS = ("desk-sweep", "precoder-8x8", "scalar-kernel")
IMPORT_PROBE = ("import speed; speed.start(); w = speed.Window(); import varprec.cli; "
                "print(w.seconds())")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import varprec and numpy, at
    the reference speed."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH)))),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


UNITS = {"setup_s": "s", "sweep_s": "s", "sweep_2proc_s": "s", "precoders_per_s": "1/s",
         "exec_nodes_per_s": "nodes/s", "online_nodes_per_s": "nodes/s",
         "offline_plans_per_s": "1/s", "arith_ops_per_s": "ops/s",
         "mc_samples_per_s": "samples/s", "peak_rss_mb": "MB"}


def end_to_end(samples, rss_mb: float) -> dict:
    """Medians of the run's samples."""
    values = {k: float(np.median(v)) for k, v in samples.items()}
    values["peak_rss_mb"] = rss_mb
    return {k: {"value": values[k], "unit": u} for k, u in UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = perf_counter()
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "varprec" / "__init__.py").is_file():
        print(f"error: no varprec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import slices
    import tracing

    OUT.mkdir(exist_ok=True)
    spec = slices.SPECS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install({"cli.pareto": (slices, "fanout")})
    else:
        speed.start()
    out = defaultdict(list)
    for _ in range(SETUP_REPS):
        t_import = import_seconds()
        window = speed.Window()
        inputs = slices.setup(spec, args.seed, OUT / f"fanout-{args.workload}", not args.trace)
        out["setup_s"].append(t_import + window.seconds())

    tally = slices.Tally()
    since = tracer.mark() if tracer else 0
    rounds = 0
    t0 = perf_counter()
    # start a round only while it is expected to end within --seconds of the start
    while not rounds or perf_counter() - started + (perf_counter() - t0) / rounds <= args.seconds:
        gc.collect()
        slices.run_round(spec, inputs, tally, out)
        rounds += 1
    wall = perf_counter() - t0
    speed.stop()

    if tracer:
        tracer.uninstall()
        layer = tracer.layer_metrics(since, rounds)
        cost = tracing.span_cost_us()
        layer["trace.span_cost_us"] = cost
        layer["trace.overhead_share"] = layer["trace.spans"] * cost * 1e-6 / (wall / rounds)
        cfg = inputs.sweep
        cells = len(cfg.schemes) * len(cfg.sweep)
        layer["cli.pareto.reference_recomputes"] = (cells - 1) * cfg.trials
        tracer.save(OUT / f"trace-{args.workload}.npz")
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in layer.items()}
    else:
        metrics = end_to_end(out, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        (OUT / f"samples-{args.workload}.json").write_text(
            json.dumps({"seed": args.seed, "samples": out}))

    for msg in sorted(tally.known):
        print(f"known fault: {msg}", file=sys.stderr)
    for msg in tally.problems[:20]:
        print(f"PROBLEM: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
