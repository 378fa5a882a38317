"""Experiment runner: every validation and case-study workflow as a
reproducible command emitting CSV plus a JSON run manifest."""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import __version__
from .ebfp import EbfpParams, spec_table
from .errormodel import (
    REFERENCE_OPS_PER_BIT,
    REFERENCE_W_MEAN,
    REFERENCE_W_VAR,
    montecarlo_arith_variance,
    ops_per_bit,
    propagate_full_precision,
    w_moments,
)
from .graph import StoredInputs
from .mimo import (
    CM,
    SimConfig,
    SweepInputs,
    SweepPoint,
    build_zf_graph,
    gen_channel,
    online_alpha,
    precision_histogram,
    sweep_cell,
    sweep_inputs,
)
from .optimizer import plan_metrics, plan_to_csv

#: printed storage-format reference rows: (label, n_blocks, total, exponent,
#: fraction, log10_max, relative_error)
REFERENCE_SPEC_ROWS = [
    ("N3", 3, 24, 7, 16, 154.13, 9.72e-4),
    ("N5", 5, 40, 7, 32, 154.13, 1.48e-8),
    ("N9", 9, 72, 7, 64, 154.13, 3.46e-18),
]

TABLE2_CASES = [
    ("add", 3.0, 2.0), ("sub", 3.0, 2.0), ("mul", 3.0, 2.0),
    ("div", 3.0, 2.0), ("sqrt", 3.0, None),
]


def write_manifest(out_dir: Path, command: str, params: dict, outputs: list) -> Path:
    import hashlib  # only manifests hash, so no other command loads it

    manifest = {
        "command": command,
        "params": params,
        "version": __version__,
        "outputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs},
    }
    path = out_dir / f"{command}.manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def cmd_validate_error_model(args) -> int:
    if args.samples <= 0:
        print("error: --samples must be positive", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "validate_error_model.csv"
    worst = 0.0
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["arithmetic", "formula_variance", "empirical_variance",
                    "rel_dev", "samples", "seed"])
        for op, a, b in TABLE2_CASES:
            form = propagate_full_precision(op, a, b, 1e-6,
                                            1e-6 if b is not None else None)
            emp = montecarlo_arith_variance(op, a, b, 1e-3, args.samples, args.seed)
            dev = abs(emp - form) / form
            worst = max(worst, dev)
            w.writerow([op, f"{form:.10e}", f"{emp:.10e}", f"{dev:.6f}",
                        args.samples, args.seed])
    write_manifest(out_dir, "validate-error-model",
                   {"samples": args.samples, "seed": args.seed}, [out])
    print(f"wrote {out} (worst deviation {worst:.4f})")
    return 0 if worst <= args.tolerance else 1


def cmd_tables(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"table_{args.which}.csv"
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        if args.which == "spec":
            w.writerow(["config", "total_bits", "exponent_bits", "fraction_bits",
                        "log10_max", "rel_error", "reference_rel_error", "rel_dev"])
            params = EbfpParams(8, 8, 16)
            for label, n, total, expo, frac, lmax, ref_err in REFERENCE_SPEC_ROWS:
                row = spec_table(params, n)
                assert (row.total_bits, row.exponent_bits, row.fraction_bits) == (total, expo, frac)
                w.writerow([label, row.total_bits, row.exponent_bits,
                            row.fraction_bits, f"{row.log10_max:.2f}",
                            f"{row.worst_rel_error:.3e}", f"{ref_err:.3e}",
                            f"{abs(row.worst_rel_error - ref_err) / ref_err:.4f}"])
        elif args.which == "w_moments":
            w.writerow(["x", "w_var", "w_mean", "reference_w_var",
                        "reference_w_mean", "samples", "seed"])
            for x in sorted(REFERENCE_W_VAR):
                st = w_moments(x, samples=args.samples, seed=args.seed)
                w.writerow([x, f"{st.variance:.6f}", f"{st.mean:.3e}",
                            REFERENCE_W_VAR[x], REFERENCE_W_MEAN[x],
                            args.samples, args.seed])
        else:  # ops_per_bit; argparse rejects any other name
            w.writerow(["arithmetic", "e_b", "count", "reference", "abs_dev"])
            for op in ("add", "sub"):
                for e_b, ref in REFERENCE_OPS_PER_BIT[op].items():
                    got = ops_per_bit(op, e_b)
                    w.writerow([op, e_b, got, ref, abs(got - ref)])
    write_manifest(out_dir, f"tables-{args.which}",
                   {"which": args.which, "samples": args.samples, "seed": args.seed},
                   [out])
    print(f"wrote {out}")
    return 0


def parse_config(path: Path) -> dict:
    """Flat key = value text; '#' starts a comment; lists are comma separated."""
    out = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key] = val
    return out


#: config key -> (SimConfig field, parser of its text); a pareto flag sets
#: the key of its name (``--scheme`` sets ``schemes``)
CONFIG_KEYS = {
    "nt": ("n_t", int), "k": ("k_users", int), "snr_db": ("snr_db", float),
    "trials": ("trials", int), "seed": ("seed", int),
    "x_min": ("x_min", int), "x_max": ("x_max", int),
    "e_b": ("e_b", int), "storage_bits": ("storage_bits", int),
    "ber_symbols": ("ber_symbols", int),
    "sweep": ("sweep", lambda v: tuple(float(t) for t in v.split(","))),
    "schemes": ("schemes", lambda v: tuple(s.strip() for s in v.split(","))),
}


def sim_config_from_args(args) -> SimConfig:
    pairs = list(parse_config(Path(args.config)).items()) if args.config else []
    flags = {"nt": args.nt, "k": args.k, "snr_db": args.snr_db, "trials": args.trials,
             "seed": args.seed, "sweep": args.sweep, "schemes": args.scheme}
    pairs += [(key, val) for key, val in flags.items() if val is not None]
    updates = {}
    for key, val in pairs:  # flags come last, so they override the file
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        field_name, parse = CONFIG_KEYS[key]
        try:
            updates[field_name] = parse(val)
        except ValueError as e:
            raise ValueError(f"config key {key!r}: {e}")
    return SimConfig(**updates)


#: (config, its sweep inputs) of the cells this process ran last: a pool
#: worker runs many cells of one config, and they all share the graph, the
#: stored channels and the reference precoders.  The pool sends ``_run_cell`` one
#: picklable cell, so the inputs are kept here, not passed in.
_cell_inputs: Optional[Tuple[SimConfig, SweepInputs]] = None


def _run_cell(cell: tuple) -> SweepPoint:
    """One (config, scheme, target index) cell of the sweep, in this process
    or in a pool worker: the same point :func:`pareto_sweep` computes for it."""
    global _cell_inputs
    cfg_dict, scheme, ti = cell
    cfg = SimConfig(**cfg_dict)
    if _cell_inputs is None or _cell_inputs[0] != cfg:
        _cell_inputs = (cfg, sweep_inputs(cfg))
    return sweep_cell(cfg, _cell_inputs[1], scheme, ti)


def cmd_pareto(args) -> int:
    raw_threads = os.environ.get("VARPREC_THREADS", "1")
    try:
        threads = int(raw_threads)
    except ValueError:
        print(f"error: VARPREC_THREADS must be an integer, got {raw_threads!r}",
              file=sys.stderr)
        return 2
    try:
        cfg = sim_config_from_args(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = [(asdict(cfg), s, ti) for s in cfg.schemes for ti in range(len(cfg.sweep))]
    points, threads = [], min(threads, len(cells))  # a pool starts all its workers at once
    with contextlib.ExitStack() as stack:
        if threads > 1:
            import concurrent.futures  # only the worker pool needs it

            mapper = stack.enter_context(concurrent.futures.ProcessPoolExecutor(threads)).map
        else:
            mapper = map
        for p in mapper(_run_cell, cells):
            print(f"  {p.scheme} @ {p.target_avg_bits:g} bits", flush=True)
            points.append(p)
    out = out_dir / "pareto.csv"
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scheme", "target_avg_bits", "realized_avg_bits",
                    "total_complexity", "sum_rate_mean", "sum_rate_stderr",
                    "ber", "trials", "seed", "failures"])
        for p in points:
            w.writerow([p.scheme, f"{p.target_avg_bits:g}",
                        f"{p.realized_avg_bits:.4f}", f"{p.total_complexity:.1f}",
                        f"{p.sum_rate_mean:.6f}", f"{p.sum_rate_stderr:.6f}",
                        "" if p.ber != p.ber else f"{p.ber:.6e}",
                        p.trials, p.seed, p.failures])
    write_manifest(out_dir, "pareto",
                   {k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in asdict(cfg).items()}, [out])
    print(f"wrote {out} ({len(points)} points)")
    return 0


def cmd_histogram(args) -> int:
    if args.nt is None or args.k is None:
        print("error: --nt and --k are required", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else 1
    try:  # x_min = 4: the floor the histogram has always planned with
        cfg = SimConfig(n_t=args.nt, k_users=args.k, seed=seed, x_min=4,
                        sweep=(args.target_avg,))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    zfg = build_zf_graph(cfg.k_users, cfg.n_t)
    h = gen_channel(np.random.default_rng(seed), cfg.k_users, cfg.n_t)
    lane = StoredInputs(zfg.graph, zfg.input_values(h), zfg.input_precisions(cfg.storage_bits))
    _, (run,) = online_alpha(zfg, cfg, [lane], args.target_avg)
    if run is None:
        print("error: the online plan cannot be computed on this channel", file=sys.stderr)
        return 1
    res, plan = run
    degenerate = set(res.degenerate_zero)
    live = {nid: x for nid, x in plan.assignment.items() if nid not in degenerate}
    bins = precision_histogram(zfg, live)
    out = out_dir / "histogram.csv"
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x_bits", "op_kind", "count"])
        for (x, op), count in sorted(bins.items()):
            w.writerow([x, op, count])
    plan_out = out_dir / "histogram_plan.csv"
    with plan_out.open("w", newline="") as fh:
        plan_to_csv(zfg.graph, plan, fh)
    graph_out = out_dir / "histogram_graph.jsonl"
    with graph_out.open("w") as fh:
        zfg.graph.dump_jsonl(fh, plan)
    write_manifest(out_dir, "histogram",
                   {"nt": args.nt, "k": args.k, "seed": seed,
                    "target_avg": args.target_avg},
                   [out, plan_out, graph_out])
    avg, _ = plan_metrics(zfg.graph, plan, CM)
    print(f"wrote {out} (avg {avg:.2f} bits over {len(live)} ops, "
          f"{len(degenerate)} degenerate zeros excluded)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="varprec",
        description="variable-precision computing toolkit: validation tables "
                    "and the zero-forcing precoding case study")
    ap.add_argument("--out-dir", default="out", help="output directory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-error-model",
                       help="Monte Carlo check of the arithmetic error formulas")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tolerance", type=float, default=0.03)
    p.set_defaults(func=cmd_validate_error_model)

    p = sub.add_parser("tables", help="reproduce the published summary tables")
    p.add_argument("which", choices=["spec", "w_moments", "ops_per_bit"])
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("pareto", help="precision/complexity sweep of the "
                                      "zero-forcing case study")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--nt", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--snr-db", type=float, dest="snr_db")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sweep", help="comma-separated target average precisions")
    p.add_argument("--scheme", help="comma-separated scheme subset")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("histogram", help="per-operation precision histogram of "
                                         "one online-planned precoding")
    p.add_argument("--nt", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--target-avg", type=float, default=12.0)
    p.set_defaults(func=cmd_histogram)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
