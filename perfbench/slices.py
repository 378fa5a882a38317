"""Workload make-up, set-up and one measured round.

Every workload runs the same six slices per round, cut into short steps
that are spread over the round; the workload sets their sizes, so each
metric is measured everywhere and each workload is dominated by the layers
it is meant to stress:

- precoder: a zero-forcing precoder on seeded channels at the 64-bit
  reference plan, a ladder of fixed plans, offline plans over a ladder of
  alpha, and the online planner at two alphas;
- wide-range (precoder-8x8 only): the 4x4 precoder on a channel scaled by
  2**600 under wide exponents, against the unscaled channel;
- sweep: one serial ``mimo.pareto_sweep``;
- fan-out: the same sweep through ``varprec pareto`` with 2 workers;
- arith: a stream of ``ebfp.arith`` ops over several eBFP geometries;
- Monte Carlo: the ``errormodel`` validators.

Outputs are checked against :mod:`oracle` or against a property the method
must have. Known faults are counted as failed operations; anything else
that goes wrong is a problem that makes the run incorrect.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
import os
import random
import signal
import subprocess
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import oracle
import speed
from varprec import ebfp, errormodel, graph, mimo, optimizer

REFERENCE_X = 64
FIXED_X = (16, 40)
#: offline plans span this alpha range; the first and the last one run
ALPHA_RANGE = (1e-16, 1e-8)
ONLINE_ALPHAS = (1e-13, 1e-11)
MC_SIGMA = 1e-3
MC_TOL = 0.03
MC_SAMPLES = 1_000_000
W_XS = (16, 24)
#: arith ops per timed chunk: 10 cycles of every op kind and geometry
ARITH_CHUNK = 300
#: eBFP geometries of the arith stream: (F, E), all with 80 blocks at most
GEOMETRIES = ((1, 10), (1, 13), (4, 10), (4, 13), (8, 10), (8, 13))
OPS = ("add", "sub", "mul", "div", "sqrt")
WIDE_SHIFT = 600
WIDE_PARAMS = ebfp.EbfpParams(1, 13, 80)
WIDE_CHANNEL_SEED = 600
#: the desk fixture's channel seed; the desk sweep does not follow --seed so
#: that its fan-out fault shows on the same cells in every run
DESK_SEED = 2


@dataclass(frozen=True)
class Spec:
    size: int                  # precoder slice: size x size
    channels: int              # precoder slice channels
    alphas: int                # offline plans per round, over ALPHA_RANGE
    sweep: mimo.SimConfig      # seed None: the run's --seed
    sweeps: int                # serial sweeps and fan-outs per round
    arith_ops: int             # distinct ops in the arith stream
    arith_passes: int          # passes over the stream per round
    mc_passes: int             # passes over the Monte Carlo validators per round
    wide_range: bool = False


# Slices that a workload does not stress are still sized to take a few
# tenths of a second per round, so that every metric has samples spread
# over the run. precoder-8x8 sweeps the 4x4 graph: an 8x8 sweep would leave
# room for only two sweep samples per run.
SPECS: Dict[str, Spec] = {
    "desk-sweep": Spec(
        size=4, channels=6, alphas=64,
        sweep=mimo.SimConfig(n_t=4, k_users=4, trials=1, seed=DESK_SEED,
                             sweep=(4.0, 32.0), ber_symbols=256),
        sweeps=1, arith_ops=2100, arith_passes=3, mc_passes=12),
    "precoder-8x8": Spec(
        size=8, channels=2, alphas=12,
        sweep=mimo.SimConfig(n_t=4, k_users=4, trials=1, seed=None,
                             sweep=(16.0, 32.0), schemes=("fixed",)),
        sweeps=3, arith_ops=2100, arith_passes=5, mc_passes=12, wide_range=True),
    "scalar-kernel": Spec(
        size=2, channels=4, alphas=400,
        sweep=mimo.SimConfig(n_t=2, k_users=2, trials=2, seed=None,
                             sweep=(8.0, 32.0), schemes=("fixed",)),
        sweeps=3, arith_ops=8100, arith_passes=3, mc_passes=3),
}


class Tally:
    """Operations attempted, known-fault failures, and problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known: set = set()    # distinct reasons behind ``failed``
        self.problems: List[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


@dataclass
class Precoder:
    zfg: mimo.ZfGraph
    nodes: int
    values: List[Dict[int, Fraction]]
    w_numpy: List[np.ndarray]
    cond: List[float]


@dataclass
class Inputs:
    precoder: Precoder
    sweep: mimo.SimConfig
    sweep_rate32: float        # numpy sum rate over the sweep's channels
    sweep_cond: float
    arith: List[Tuple[str, ebfp.EbfpNumber, Optional[ebfp.EbfpNumber], int, oracle.Layout]]
    mc: List[Tuple[str, float, Optional[float], int]]   # (op, a, b, seed)
    fanout_dir: Path
    timed: bool                # fan-out logs its cells' times (off when traced)
    wide: Optional[Tuple[mimo.ZfGraph, Dict[int, Fraction], Dict[int, Fraction]]] = None


def to_complex(h: mimo.ChannelMatrix) -> np.ndarray:
    return np.array([[float(r) + 1j * float(i) for r, i in zip(rr, ii)]
                     for rr, ii in zip(h.re, h.im)])


def gram_cond(h: np.ndarray) -> float:
    return float(np.linalg.cond(h @ h.conj().T))


def _operand(rnd: random.Random, f: int, e_bits: int, e: int, positive: bool):
    """A stored eBFP operand of 5 to 61 significant bits with exponent e."""
    s = rnd.randint(5, 61)
    m = rnd.getrandbits(s - 1) | 1 << (s - 1)
    sign = 1 if positive or rnd.random() < 0.5 else -1
    sign, block_exp, fld, n_blocks, _ = oracle.layout(sign, m, e, s, f, e_bits)
    params = ebfp.EbfpParams(f, e_bits, 80)
    return (ebfp.EbfpNumber(sign, block_exp, fld, n_blocks, params),
            sign * Fraction(m) * Fraction(2) ** (e - s))


def arith_stream(seed: int, n: int):
    """n ops cycling over op kinds and geometries, at precisions 4..60.

    Operand exponents spread over +-70% of each geometry's range; every
    25th mul overflows and every 25th div underflows by construction.
    """
    rnd = random.Random(f"arith-{seed}")
    out = []
    for i in range(n):
        op = OPS[i % len(OPS)]
        f, e_bits = GEOMETRIES[(i // len(OPS)) % len(GEOMETRIES)]
        span = int(0.7 * (1 << (e_bits - 2)) * f)
        ea, eb = rnd.randint(-span, span), rnd.randint(-span, span)
        if i % 125 in (2, 3):  # the 25th mul and div of each 125 ops
            ea, eb = (span, span) if op == "mul" else (-span, span)
        a, va = _operand(rnd, f, e_bits, ea, op == "sqrt")
        b, vb = (None, None) if op == "sqrt" else _operand(rnd, f, e_bits, eb, False)
        x = rnd.randint(4, 60)
        out.append((op, a, b, x, oracle.arith_layout(op, va, vb, x, f, e_bits, 80)))
    return out


def setup(spec: Spec, seed: int, out_dir: Path, timed: bool) -> Inputs:
    """Graphs, channels, numpy references and the oracle's expected results."""
    k = spec.size
    zfg = mimo.build_zf_graph(k, k)
    rng = np.random.default_rng((seed, 1))
    channels = [mimo.gen_channel(rng, k, k) for _ in range(spec.channels)]
    hs = [to_complex(h) for h in channels]
    precoder = Precoder(zfg, len(zfg.graph.non_input_ids()),
                        [zfg.input_values(h) for h in channels],
                        [oracle.zero_forcing(h) for h in hs], [gram_cond(h) for h in hs])

    cfg = spec.sweep if spec.sweep.seed is not None else replace(spec.sweep, seed=seed)
    srng = np.random.default_rng(cfg.seed)
    sweep_hs = [to_complex(mimo.gen_channel(srng, cfg.k_users, cfg.n_t))
                for _ in range(cfg.trials)]
    rate32 = float(np.mean([oracle.sum_rate(h, oracle.zero_forcing(h), cfg.snr_db)
                            for h in sweep_hs]))

    mrng = np.random.default_rng((seed, 2))
    mc = [(op, float(mrng.uniform(2.0, 4.0)),
           None if op == "sqrt" else float(mrng.uniform(0.5, 1.5)), seed * 8 + i)
          for i, op in enumerate(OPS)]
    mc += [("w_moments", x, None, seed * 8 + len(OPS) + j) for j, x in enumerate(W_XS)]

    wide = None
    if spec.wide_range:
        zfg4 = mimo.build_zf_graph(4, 4)
        h = mimo.gen_channel(np.random.default_rng(WIDE_CHANNEL_SEED), 4, 4)
        c = Fraction(2) ** WIDE_SHIFT
        scaled = mimo.ChannelMatrix(tuple(tuple(v * c for v in row) for row in h.re),
                                    tuple(tuple(v * c for v in row) for row in h.im))
        wide = (zfg4, zfg4.input_values(h), zfg4.input_values(scaled))

    return Inputs(precoder, cfg, rate32, max(gram_cond(h) for h in sweep_hs),
                  arith_stream(seed, spec.arith_ops), mc, out_dir, timed, wide)


def rel_err(w: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(w - ref) / np.linalg.norm(ref))


Samples = Dict[str, List[float]]


def offline_plan(p: Precoder, alpha: float, out: Samples):
    """One offline plan and its complexity-weighted average precision."""
    window = speed.Window()
    plan = optimizer.offline_vpc(p.zfg.graph, optimizer.UtilityConfig(alpha=alpha, x_min=2),
                                 optimizer.ComplexityModel())
    out["offline_plans_per_s"].append(1.0 / window.seconds())
    return plan, optimizer.plan_metrics(p.zfg.graph, plan, optimizer.ComplexityModel())[0]


def precoder_channel(p: Precoder, ci: int, offline_plans: list, tally: Tally,
                     out: Samples) -> None:
    """One channel at the reference, fixed, offline and online plans. The
    plans differ in cost, so each rate is one sample over all of them."""
    g = p.zfg.graph
    ip = p.zfg.input_precisions()
    vals = p.values[ci]
    exec_s = online_s = 0.0

    def run(plan):
        nonlocal exec_s
        window = speed.Window()
        res = graph.execute(g, plan, vals, ip)
        exec_s += window.seconds()
        return p.zfg.w_matrix(res)

    runs = 1 + len(FIXED_X) + len(offline_plans)
    tally.attempted += runs + len(ONLINE_ALPHAS)
    w64 = run(optimizer.fixed_plan(g, REFERENCE_X))
    err, cond = rel_err(w64, p.w_numpy[ci]), p.cond[ci]
    tally.require(err <= 1e-12 * max(cond, 1.0),
                  f"channel {ci}: 64-bit precoder off numpy ZF by {err:.3g} (cond {cond:.3g})")
    errs = [min(1.0, rel_err(run(optimizer.fixed_plan(g, x)), w64)) for x in FIXED_X]
    tally.require(all(a >= b for a, b in zip(errs, errs[1:])) and errs[-1] < errs[0],
                  f"channel {ci}: error does not shrink with precision: {errs}")
    for plan in offline_plans:
        tally.require(np.isfinite(run(plan)).all(), f"channel {ci}: offline precoder not finite")
    for alpha in ONLINE_ALPHAS:
        window = speed.Window()
        res, _ = optimizer.online_vpc(g, optimizer.UtilityConfig(alpha=alpha, x_min=2),
                                      optimizer.ComplexityModel(), vals, 10, ip)
        online_s += window.seconds()
        tally.require(np.isfinite(p.zfg.w_matrix(res)).all(),
                      f"channel {ci}: online precoder at alpha {alpha} not finite")
    out["exec_nodes_per_s"].append(runs * p.nodes / exec_s)
    out["online_nodes_per_s"].append(len(ONLINE_ALPHAS) * p.nodes / online_s)
    out["precoders_per_s"].append((runs + len(ONLINE_ALPHAS)) / (exec_s + online_s))


def wide_range_slice(wide, tally: Tally) -> None:
    """Value-free plans on the 2**600-scaled channel must give the unscaled
    result scaled by 2**-600, bit for bit. Each scaled execution that does
    not is a failed operation (graph._as_float overflows today)."""
    zfg, plain_vals, scaled_vals = wide
    g = zfg.graph
    ip = zfg.input_precisions()
    plans = [optimizer.fixed_plan(g, 24), optimizer.fixed_plan(g, 48),
             optimizer.offline_vpc(g, optimizer.UtilityConfig(alpha=1e-9, x_min=2),
                                   optimizer.ComplexityModel())]
    c = Fraction(2) ** WIDE_SHIFT
    for plan in plans:
        tally.attempted += 2
        want = graph.execute(g, plan, plain_vals, ip, WIDE_PARAMS).output_fractions()
        try:
            got = graph.execute(g, plan, scaled_vals, ip, WIDE_PARAMS).output_fractions()
        except Exception as e:  # every way of missing the property counts alike
            tally.failed += 1
            tally.known.add(f"wide-range: {type(e).__name__}")
            continue
        if [v * c for v in got] != want:
            tally.failed += 1
            tally.known.add("wide-range: scaled result differs")


def csv_row(p: mimo.SweepPoint) -> List[str]:
    """A sweep point as ``varprec pareto`` writes it to pareto.csv."""
    return [p.scheme, f"{p.target_avg_bits:g}", f"{p.realized_avg_bits:.4f}",
            f"{p.total_complexity:.1f}", f"{p.sum_rate_mean:.6f}",
            f"{p.sum_rate_stderr:.6f}", "" if p.ber != p.ber else f"{p.ber:.6e}",
            str(p.trials), str(p.seed), str(p.failures)]


def sweep_slice(inp: Inputs, tally: Tally, out: Samples) -> List[List[str]]:
    cfg = inp.sweep
    window = speed.Window()
    points = mimo.pareto_sweep(cfg)
    out["sweep_s"].append(window.seconds())
    tally.attempted += len(points)
    for p in points:
        cell = f"sweep {p.scheme}@{p.target_avg_bits:g}"
        tally.require(p.failures == 0 and all(np.isfinite(r) and r > 0 for r in p.rates),
                      f"{cell}: rates not finite and positive: {p.rates}")
        if p.scheme == "fixed":
            tally.require(p.realized_avg_bits == round(p.target_avg_bits),
                          f"{cell}: realized {p.realized_avg_bits}")
            if p.target_avg_bits == 32:
                tol = 1e-6 + 1e-8 * inp.sweep_cond
                tally.require(abs(p.sum_rate_mean - inp.sweep_rate32) <= tol * inp.sweep_rate32,
                              f"{cell}: rate {p.sum_rate_mean} against numpy {inp.sweep_rate32}")
        if cfg.ber_symbols:
            tally.require(0.0 <= p.ber <= 1.0, f"{cell}: ber {p.ber}")
    return [csv_row(p) for p in points]


def config_text(cfg: mimo.SimConfig) -> str:
    keys = {"n_t": "nt", "k_users": "k", "snr_db": "snr_db", "trials": "trials",
            "seed": "seed", "sweep": "sweep", "schemes": "schemes", "x_min": "x_min",
            "x_max": "x_max", "e_b": "e_b", "storage_bits": "storage_bits",
            "ber_symbols": "ber_symbols"}
    lines = []
    for name, value in asdict(cfg).items():
        if name in keys:
            if isinstance(value, (list, tuple)):
                value = ",".join(f"{v:g}" if isinstance(v, float) else v for v in value)
            lines.append(f"{keys[name]} = {value}")
    return "\n".join(lines) + "\n"


def critical_path(log: Path) -> Tuple[float, int]:
    """(seconds, cells) of a fan-out from its speed log: the CLI process's
    own time plus the time of the worker whose cells took longest."""
    main_s, per_worker, cells = 0.0, defaultdict(float), 0
    for line in log.read_text().splitlines():
        rec = json.loads(line)
        if "main_s" in rec:
            main_s = rec["main_s"]
        else:
            per_worker[rec["pid"]] += rec["cell_s"]
            cells += 1
    return main_s + max(per_worker.values(), default=0.0), cells


def fanout(cfg: mimo.SimConfig, out_dir: Path, timed: bool) -> Tuple[int, List[List[str]], str]:
    """``varprec pareto`` with VARPREC_THREADS=2: (exit code, rows, stderr).
    Run through ``fanout_cli.py``, which logs the cells' times to
    ``out_dir/speed.jsonl`` when ``timed``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "sweep.cfg"
    cfg_path.write_text(config_text(cfg))
    log = out_dir / "speed.jsonl"
    log.unlink(missing_ok=True)
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(here.parent / "src"), VARPREC_THREADS="2")
    env.pop("PERFBENCH_SPEED_LOG", None)
    if timed:
        env["PERFBENCH_SPEED_LOG"] = str(log)
    # own session, so that a hung run can be killed with its pool workers
    proc = subprocess.Popen(
        [sys.executable, str(here / "fanout_cli.py"), "--out-dir", str(out_dir), "pareto",
         "--config", str(cfg_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        _, err = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    rows = []
    if proc.returncode == 0:
        with open(out_dir / "pareto.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
    return proc.returncode, rows, err


def fanout_slice(inp: Inputs, serial_rows: List[List[str]], tally: Tally, out: Samples) -> None:
    """Each fan-out cell that differs from the serial run's is a failed
    operation: cells re-seed random-blockwise draws (cli.cmd_pareto).

    The sample is the fan-out's critical path in CPU seconds at the
    reference speed (see speed.py); the wall time is kept beside it."""
    t0 = perf_counter()
    code, rows, err = fanout(inp.sweep, inp.fanout_dir, inp.timed)
    out["fanout_wall_s"].append(perf_counter() - t0)
    tally.require(code == 0, f"varprec pareto exited {code}: {err[-500:]}")
    if code == 0 and inp.timed:
        seconds, cells = critical_path(inp.fanout_dir / "speed.jsonl")
        tally.require(cells == len(serial_rows), f"fan-out logged {cells} cells")
        out["sweep_2proc_s"].append(seconds)
    got = {(r[0], r[1]): r for r in rows}
    tally.attempted += len(serial_rows)
    for row in serial_rows:
        if got.get((row[0], row[1])) != row:
            tally.failed += 1
            tally.known.add(f"fan-out cell differs from serial: {row[0]}")


def arith_chunk(part, tally: Tally, out: Samples) -> None:
    """A timed run of arith ops, each then checked against the oracle."""
    arith = ebfp.arith
    tally.attempted += len(part)
    window = speed.Window()
    results = [arith(op, a, b, x) for op, a, b, x, _ in part]
    out["arith_ops_per_s"].append(len(part) / window.seconds())
    for (op, a, b, x, want), r in zip(part, results):
        if want[4].startswith("saturated"):
            got = (r.sign, None, None, None, r.flags.value)
        else:
            got = (r.sign, r.block_exp, r.field, r.n_blocks, r.flags.value)
        if got != want:
            tally.require(False, f"arith {op} x={x} F={a.params.block_bits} "
                                 f"E={a.params.exponent_bits}: {got} != {want}")


def mc_pass(cases, tally: Tally, out: Samples) -> None:
    """Each Monte Carlo validator once against its closed form. The
    validators differ in cost, so the pass is one rate sample."""
    tally.attempted += len(cases)
    busy = 0.0
    for op, a, b, seed in cases:
        window = speed.Window()
        if op == "w_moments":
            st = errormodel.w_moments(a, samples=MC_SAMPLES, seed=seed)
            busy += window.seconds()
            tally.require(abs(st.variance - oracle.W_LIMIT_VAR) <= MC_TOL * oracle.W_LIMIT_VAR
                          and abs(st.mean) <= 0.02,
                          f"w_moments({a}): mean {st.mean:.4g}, variance {st.variance:.6g}")
            continue
        got = errormodel.montecarlo_arith_variance(op, a, b, MC_SIGMA, MC_SAMPLES, seed)
        busy += window.seconds()
        want = oracle.op_variance(op, a, b, MC_SIGMA ** 2)
        tally.require(abs(got - want) <= MC_TOL * want,
                      f"montecarlo {op}({a:.3f}, {b}): {got:.6g} against {want:.6g}")
    out["mc_samples_per_s"].append(len(cases) * MC_SAMPLES / busy)


def sweep_and_fanout(inp: Inputs, tally: Tally, out: Samples) -> None:
    fanout_slice(inp, sweep_slice(inp, tally, out), tally, out)


def spread_out(queues) -> list:
    """Merge step lists so that each is spread evenly over the round."""
    placed = [((j + 0.5) / len(q), qi, step) for qi, q in enumerate(queues)
              for j, step in enumerate(q)]
    return [step for _, _, step in sorted(placed, key=lambda t: t[:2])]


def run_round(spec: Spec, inp: Inputs, tally: Tally, out: Samples) -> None:
    """One round. Its short steps are spread over the whole round, around
    the sweep and the fan-out, so that each metric samples all of it."""
    p = inp.precoder
    alphas = np.geomspace(*ALPHA_RANGE, spec.alphas)
    avgs = [None] * len(alphas)

    def plan(i, o):
        planned, avgs[i] = offline_plan(p, float(alphas[i]), o)
        return planned

    ends = [plan(0, out), plan(len(alphas) - 1, out)]
    middle = list(range(1, len(alphas) - 1))
    chunks = [middle[k::8] for k in range(8) if middle[k::8]]
    arith = [inp.arith[lo:lo + ARITH_CHUNK] for lo in range(0, len(inp.arith), ARITH_CHUNK)]
    steps = spread_out([
        [lambda o, ci=ci: precoder_channel(p, ci, ends, tally, o) for ci in range(spec.channels)],
        [lambda o, c=c: [plan(i, o) for i in c] for c in chunks],
        [lambda o: [arith_chunk(part, tally, o) for part in arith]] * spec.arith_passes,
        [lambda o: mc_pass(inp.mc, tally, o)] * spec.mc_passes,
        [lambda o: sweep_and_fanout(inp, tally, o)] * spec.sweeps,
    ])
    for step in steps:
        step(out)
    tally.attempted += len(alphas)
    tally.require(all(a >= b for a, b in zip(avgs, avgs[1:])),
                  f"offline average precision rises with alpha: {avgs}")
    if inp.wide is not None:
        wide_range_slice(inp.wide, tally)
