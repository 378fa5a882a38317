"""Zero-forcing precoding case study.

Builds W = H^H (H H^H)^(-1) as a recorded expression graph over complex
matrices (complex and matrix arithmetic decomposed into the five basic real
operations), runs it under the different computing schemes, and measures
sum rate and bit error rate against a reference-precision run.

Complex bookkeeping: the op set has no negation, so the builder carries a
symbolic sign per scalar sub-expression and folds it into add/sub operand
order.  Conjugation is therefore free and the Gram matrix is built with
Hermitian sharing (G[j][i] reuses G[i][j]'s nodes).  Entries that are real
by algebra (the diagonals of the Gram matrix, of each Schur complement and
of the inverse) get no imaginary node, so the graph has no node that
reaches no output, repeats an earlier node or is zero by algebra.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .ebfp import DEFAULT_PARAMS, blocks_for_precision
from .graph import ExecutionResult, ExprGraph, GraphExecutionError, StoredInputs, execute, execute_lanes
from .optimizer import (
    GSIGMA_UNIT,
    ComplexityModel,
    UtilityConfig,
    XoptLut,
    fixed_plan,
    offline_vpc,
    online_lanes,
    plan_metrics,
    random_blockwise_plan,
)

REFERENCE_PRECISION = 64
CONST_PRECISION = 60


# ---------------------------------------------------------------------------
# signed references and complex emission


@dataclass(frozen=True)
class Ref:
    """Signed reference to a graph node; node=None encodes a literal zero."""

    node: Optional[int]
    sign: int = 1

    @property
    def is_zero(self) -> bool:
        return self.node is None

    def flip(self) -> "Ref":
        if self.is_zero:
            return self
        return Ref(self.node, -self.sign)


ZERO = Ref(None)


@dataclass(frozen=True)
class CRef:
    re: Ref
    im: Ref

    def conj(self) -> "CRef":
        return CRef(self.re, self.im.flip())


class ComplexEmitter:
    """Records real ops for complex arithmetic with sign/zero folding."""

    def __init__(self, graph: ExprGraph):
        self.graph = graph
        self.part: Optional[str] = None

    def _rec(self, op, operands) -> int:
        return self.graph.record(op, operands, part=self.part)

    def radd(self, a: Ref, b: Ref) -> Ref:
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        if a.sign == b.sign:
            return Ref(self._rec("add", [a.node, b.node]), a.sign)
        if a.sign > 0:
            return Ref(self._rec("sub", [a.node, b.node]), 1)
        return Ref(self._rec("sub", [b.node, a.node]), 1)

    def rsub(self, a: Ref, b: Ref) -> Ref:
        return self.radd(a, b.flip())

    def rmul(self, a: Ref, b: Ref) -> Ref:
        if a.is_zero or b.is_zero:
            return ZERO
        return Ref(self._rec("mul", [a.node, b.node]), a.sign * b.sign)

    def rdiv(self, a: Ref, b: Ref) -> Ref:
        """a / b for a pivot b, which is always a recorded node."""
        if a.is_zero:
            return ZERO
        return Ref(self._rec("div", [a.node, b.node]), a.sign * b.sign)

    def cadd(self, a: CRef, b: CRef) -> CRef:
        return CRef(self.radd(a.re, b.re), self.radd(a.im, b.im))

    def csub(self, a: CRef, b: CRef) -> CRef:
        return CRef(self.rsub(a.re, b.re), self.rsub(a.im, b.im))

    def cmul_re(self, a: CRef, b: CRef) -> Ref:
        """Re(a * b), for a product known to be real."""
        return self.rsub(self.rmul(a.re, b.re), self.rmul(a.im, b.im))

    def cmul(self, a: CRef, b: CRef) -> CRef:
        # a * conj(a) collapses to |a|^2: exactly real by construction
        if a.re == b.re and a.im == b.im.flip():
            mag = self.radd(self.rmul(a.re, a.re), self.rmul(a.im, a.im))
            return CRef(mag, ZERO)
        im = self.radd(self.rmul(a.re, b.im), self.rmul(a.im, b.re))
        return CRef(self.cmul_re(a, b), im)


# ---------------------------------------------------------------------------
# channel and recorded precoder


@dataclass(frozen=True)
class ChannelMatrix:
    """k_users x n_t complex entries as exact dyadic rationals."""

    re: Tuple[Tuple[Fraction, ...], ...]
    im: Tuple[Tuple[Fraction, ...], ...]

    @property
    def k_users(self) -> int:
        return len(self.re)

    @property
    def n_t(self) -> int:
        return len(self.re[0])

    def as_complex(self) -> np.ndarray:
        return np.array([[float(r) + 1j * float(i) for r, i in zip(rr, ii)]
                         for rr, ii in zip(self.re, self.im)])


def gen_channel(rng: np.random.Generator, k_users: int, n_t: int) -> ChannelMatrix:
    """i.i.d. circularly symmetric complex Gaussian entries of unit variance,
    materialized exactly as 53-bit dyadic rationals."""
    scale = math.sqrt(0.5)
    re = rng.normal(0.0, scale, (k_users, n_t))
    im = rng.normal(0.0, scale, (k_users, n_t))
    return ChannelMatrix(tuple(tuple(Fraction(v) for v in row) for row in re),
                         tuple(tuple(Fraction(v) for v in row) for row in im))


@dataclass
class ZfGraph:
    """Recorded precoder with handles into its inputs and outputs."""

    graph: ExprGraph
    k_users: int
    n_t: int
    h_refs: List[List[CRef]]          # k x n_t channel entries
    gram_refs: List[List[CRef]]       # k x k Gram product
    ginv_refs: List[List[CRef]]       # k x k inverse
    w_refs: List[List[CRef]]          # n_t x k precoder
    one_node: int                     # the constant 1, dividend of each 1/pivot

    def input_values(self, h: ChannelMatrix) -> Dict[int, Fraction]:
        vals: Dict[int, Fraction] = {}
        for i in range(self.k_users):
            for j in range(self.n_t):
                r = self.h_refs[i][j]
                vals[r.re.node] = h.re[i][j]
                vals[r.im.node] = h.im[i][j]
        vals[self.one_node] = Fraction(1)
        return vals

    def input_precisions(self, storage_bits: int = 53) -> Dict[int, int]:
        prec = {nid: storage_bits for nid in self.graph.inputs}
        prec[self.one_node] = CONST_PRECISION
        return prec

    def _entry(self, result: ExecutionResult, ref: CRef) -> complex:
        f = result.float_array  # W's entries alone, without the dict of every node
        return complex(*(0.0 if r.is_zero else r.sign * f[r.node] for r in (ref.re, ref.im)))

    def matrix(self, result: ExecutionResult, refs: List[List[CRef]]) -> np.ndarray:
        return np.array([[self._entry(result, r) for r in row] for row in refs])

    def w_matrix(self, result: ExecutionResult) -> np.ndarray:
        return self.matrix(result, self.w_refs)


def build_zf_graph(k_users: int, n_t: int) -> ZfGraph:
    """Record W = H^H (H H^H)^(-1) in three tagged parts: the Gram product,
    its inverse by unrolled Gauss-Jordan elimination, and the final product.

    The recorded graph is value-free, so pivots are the diagonal entries
    (sound for the Hermitian positive definite Gram of a generic channel);
    a vanishing pivot surfaces at execution as a division-by-zero error for
    the offending node.  After step i the rows below i hold the Schur
    complement of G's leading (i+1)x(i+1) block, and the right-hand block of
    rows 0..i holds that block's inverse.  Both are Hermitian, so their
    diagonals are real: only those real parts are recorded, every pivot is
    real, and a row is normalized by two real divisions per entry.
    """
    if not 1 <= k_users <= n_t:
        raise ValueError("need 1 <= k_users <= n_t")
    g = ExprGraph()
    em = ComplexEmitter(g)
    h: List[List[CRef]] = []
    for _i in range(k_users):
        row = []
        for _j in range(n_t):
            row.append(CRef(Ref(g.add_input()), Ref(g.add_input())))
        h.append(row)

    # part 1: Gram product with Hermitian sharing
    em.part = "gram"
    gram: List[List[Optional[CRef]]] = [[None] * k_users for _ in range(k_users)]
    for i in range(k_users):
        for j in range(i, k_users):
            acc: Optional[CRef] = None
            for l in range(n_t):
                term = em.cmul(h[i][l], h[j][l].conj())
                acc = term if acc is None else em.cadd(acc, term)
            gram[i][j] = acc
            if j != i:
                gram[j][i] = acc.conj()

    # part 2: inverse by Gauss-Jordan on [G | I], diagonal pivots
    em.part = "inverse"
    one_node = g.add_input()
    one = Ref(one_node)
    k = k_users
    A: List[List[CRef]] = [list(gram[i]) + [CRef(one, ZERO) if j == i else CRef(ZERO, ZERO)
                                            for j in range(k)]
                           for i in range(k)]
    for i in range(k):
        pivot = A[i][i].re
        A[i] = [CRef(em.rdiv(e.re, pivot), em.rdiv(e.im, pivot)) if m != i else CRef(one, ZERO)
                for m, e in enumerate(A[i])]
        for j in range(k):
            if j == i:
                continue
            factor = A[j][i]
            # the diagonals of [Schur complement | running inverse] are real
            A[j] = [CRef(ZERO, ZERO) if m == i else
                    CRef(em.rsub(e.re, em.cmul_re(factor, A[i][m])), ZERO) if m in (j, k + j)
                    else em.csub(e, em.cmul(factor, A[i][m]))
                    for m, e in enumerate(A[j])]
    ginv = [row[k:] for row in A]

    # part 3: W = H^H Ginv
    em.part = "precode"
    w: List[List[CRef]] = []
    for l in range(n_t):
        row = []
        for j in range(k):
            acc: Optional[CRef] = None
            for i in range(k):
                term = em.cmul(h[i][l].conj(), ginv[i][j])
                acc = term if acc is None else em.cadd(acc, term)
            row.append(acc)
        w.append(row)

    for row in w:
        for ref in row:
            g.mark_output(ref.re.node)
            g.mark_output(ref.im.node)
    return ZfGraph(g, k_users, n_t, h, [list(r) for r in gram], ginv, w, one_node)


def zf_reference(h: ChannelMatrix, zfg: ZfGraph) -> Tuple[np.ndarray, ExecutionResult]:
    """Precoder at reference precision (fixed 64-bit plan); warns on badly
    conditioned channels."""
    hc = h.as_complex()
    cond = np.linalg.cond(hc @ hc.conj().T)
    if cond > 1e9:
        warnings.warn(f"Gram condition number {cond:.3e}; reference precoder may be inaccurate")
    plan = fixed_plan(zfg.graph, REFERENCE_PRECISION)
    res = execute(zfg.graph, plan, zfg.input_values(h), zfg.input_precisions())
    return zfg.w_matrix(res), res


# ---------------------------------------------------------------------------
# link-level metrics


def _normalize_columns(w: np.ndarray) -> np.ndarray:
    out = w.astype(complex).copy()
    for k in range(out.shape[1]):
        n = np.linalg.norm(out[:, k])
        if n > 0:
            out[:, k] = out[:, k] / n
    return out


def sum_rate(h: np.ndarray, w: np.ndarray, snr_db: float) -> float:
    """Sum rate with unit-norm precoder columns and an equal split of unit
    total transmit power P.

    SINR_k = (P/K)|h_k w_k|^2 / (sum_{j!=k} (P/K)|h_k w_j|^2 + noise), with
    the noise power set by the signal-to-noise ratio P/noise.
    """
    k_users = h.shape[0]
    wn = _normalize_columns(w)
    if not np.isfinite(wn).all():
        return 0.0
    noise = 10.0 ** (-snr_db / 10.0)
    p_user = 1.0 / k_users
    gains = np.abs(h @ wn) ** 2  # [k_user, k_stream]
    rate = 0.0
    for k in range(k_users):
        sig = p_user * gains[k, k]
        interf = p_user * (gains[k, :].sum() - gains[k, k])
        rate += math.log2(1.0 + sig / (interf + noise))
    return rate


def ber_sim(h: np.ndarray, w: np.ndarray, snr_db: float, n_symbols: int,
            rng: np.random.Generator, w_ref: np.ndarray) -> float:
    """QPSK bit error rate of precoding with ``w`` at unit total transmit
    power.

    Precoded transmission uses the computed (variable-precision) precoder;
    the channel and detection run at reference precision, with each user
    equalized by the reference effective gain.
    """
    k_users = h.shape[0]
    wn = _normalize_columns(w) * math.sqrt(1.0 / k_users)
    wr = _normalize_columns(w_ref) * math.sqrt(1.0 / k_users)
    noise_var = 10.0 ** (-snr_db / 10.0)

    bits = rng.integers(0, 2, (2 * k_users, n_symbols))
    sym = ((1 - 2 * bits[0::2]) + 1j * (1 - 2 * bits[1::2])) / math.sqrt(2.0)
    x = wn @ sym
    y = h @ x
    if noise_var > 0:
        y = y + math.sqrt(noise_var / 2.0) * (rng.standard_normal(y.shape)
                                              + 1j * rng.standard_normal(y.shape))
    g_ref = np.diag(h @ wr)
    errors = 0
    for k in range(k_users):
        gk = g_ref[k]
        if gk == 0:
            errors += 2 * n_symbols  # undetectable user: all bits lost
            continue
        z = y[k] / gk
        errors += int(np.count_nonzero((z.real < 0) != (sym.real[k] < 0)))
        errors += int(np.count_nonzero((z.imag < 0) != (sym.imag[k] < 0)))
    return errors / (2.0 * k_users * n_symbols)


# ---------------------------------------------------------------------------
# sweep harness


SCHEMES = ("fixed", "offline", "online", "random-blockwise")
#: the per-bit op costs every sweep cell plans and scores with
CM = ComplexityModel()


@dataclass
class SimConfig:
    n_t: int = 4
    k_users: int = 4
    snr_db: float = 10.0
    trials: int = 20
    seed: int = 1
    schemes: Sequence[str] = SCHEMES
    sweep: Sequence[float] = (3, 5, 6, 8, 12, 32)
    x_min: int = 2
    x_max: int = 64
    e_b: int = 10
    storage_bits: int = 53
    ber_symbols: int = 0

    def __post_init__(self):
        if not 1 <= self.k_users <= self.n_t:
            raise ValueError("need 1 <= k_users <= n_t")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not math.isfinite(self.snr_db) or self.ber_symbols < 0:
            raise ValueError("need a finite snr_db and ber_symbols >= 0")
        if not 1 <= self.x_min <= self.x_max or self.e_b < 4 or self.storage_bits < 1:
            raise ValueError("need 1 <= x_min <= x_max, e_b >= 4 and storage_bits >= 1")
        for key in ("storage_bits", "x_max"):  # wider, every trial fails
            if blocks_for_precision(getattr(self, key), DEFAULT_PARAMS) > DEFAULT_PARAMS.max_blocks:
                raise ValueError(f"{key} needs more blocks than the default geometry has")
        bad = [t for t in self.sweep if not self.x_min <= t <= self.x_max]
        if bad:
            raise ValueError(f"target {bad[0]:g} outside [x_min, x_max] = "
                             f"[{self.x_min}, {self.x_max}]")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")


@dataclass
class SweepPoint:
    scheme: str
    target_avg_bits: float
    realized_avg_bits: float
    total_complexity: float
    sum_rate_mean: float
    sum_rate_stderr: float
    ber: float
    trials: int
    failures: int
    seed: int
    #: per-trial sum rates, in channel order (for paired comparisons)
    rates: List[float] = field(default_factory=list)


def calibrate_alpha(avg_of_alpha: Callable[[float], float], target: float,
                    tol: float = 0.25) -> float:
    """The offline cell's alpha: bisection on log(alpha) over [1e-20, 1e4],
    at most 60 steps (the average precision falls as alpha grows).  Matches
    from above: accepts a realized average in [target, target+tol], so an
    adaptive plan is never cheaper than the fixed plan it is paired with."""
    lo, hi = 1e-20, 1e4
    f_lo, f_hi = avg_of_alpha(lo), avg_of_alpha(hi)
    if target >= f_lo:
        return lo
    if target <= f_hi:
        return hi
    best = None
    for _ in range(60):
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        f_mid = avg_of_alpha(mid)
        if target <= f_mid <= target + tol:
            return mid
        if f_mid > target:
            lo = mid
            best = mid  # realized above target: acceptable fallback side
        else:
            hi = mid
    return best if best is not None else mid


def _plan_cfg(cfg: SimConfig, alpha: float) -> UtilityConfig:
    return UtilityConfig(alpha=alpha, x_min=cfg.x_min, x_max=cfg.x_max)


@dataclass
class SweepInputs:
    """What every cell of a sweep shares: the recorded precoder, the paired
    channels, their inputs stored once, and their reference precoders,
    computed when first read (by the BER and :func:`reference_rate`)."""

    zfg: ZfGraph
    channels: List[ChannelMatrix]
    lanes: List[StoredInputs]

    @functools.cached_property
    def refs(self) -> List[np.ndarray]:
        return [zf_reference(h, self.zfg)[0] for h in self.channels]


def sweep_inputs(cfg: SimConfig) -> SweepInputs:
    """A sweep's inputs, with the channels generated from the seed."""
    zfg, rng = build_zf_graph(cfg.k_users, cfg.n_t), np.random.default_rng(cfg.seed)
    channels = [gen_channel(rng, cfg.k_users, cfg.n_t) for _ in range(cfg.trials)]
    return SweepInputs(zfg, channels, _stored(zfg, channels, cfg.storage_bits))


def _stored(zfg: ZfGraph, channels: Sequence[ChannelMatrix], storage_bits: int) -> list:
    ip = zfg.input_precisions(storage_bits)
    return [StoredInputs(zfg.graph, zfg.input_values(h), ip) for h in channels]


def _online_runs(zfg: ZfGraph, cfg: SimConfig, alpha: float,
                 lanes: Sequence[StoredInputs]) -> Iterator[Optional[tuple]]:
    """online_vpc's (result, plan) on each lane of one :func:`online_lanes`
    call, or None where it fails."""
    runs = online_lanes(zfg.graph, _plan_cfg(cfg, alpha), CM, lanes, cfg.e_b,
                        zfg.input_precisions(cfg.storage_bits))
    return (None if isinstance(r, GraphExecutionError) else r for r in runs)


def online_alpha(zfg: ZfGraph, cfg: SimConfig, probe: Sequence[ChannelMatrix],
                 target: float) -> Tuple[float, list]:
    """Calibrated alpha of the online planner, and each probe channel's
    (result, plan) at it (None where the plan fails).  A plan depends on
    alpha only through its output anchor x, so the walk runs on x in
    [x_min, x_max]: up from round(target) while the plans' mean average over
    ``probe`` is below ``target``, then down while the one at x - 1 still
    reaches it; the alpha is the middle of x's ladder bin.  A channel whose
    plan fails is left out; if every one fails, the average reads
    ``cfg.x_min``."""
    ucfg = _plan_cfg(cfg, 1.0)
    mids = XoptLut(CM, ucfg).mid_rho[zfg.graph.nodes[zfg.graph.outputs[0]].op]
    alpha_at = {x: GSIGMA_UNIT / m for x, m in enumerate(mids, cfg.x_min)}
    lanes = _stored(zfg, probe, cfg.storage_bits)  # once for every anchor

    @functools.cache
    def runs_at(x):
        return list(_online_runs(zfg, cfg, alpha_at[x], lanes))

    def avg_at(x):
        vals = [plan_metrics(zfg.graph, r[1], CM)[0] for r in runs_at(x) if r]
        return float(np.mean(vals)) if vals else cfg.x_min

    x = min(max(round(target), cfg.x_min), cfg.x_max)
    while x < cfg.x_max and avg_at(x) < target:
        x += 1
    while x > cfg.x_min and avg_at(x - 1) >= target:
        x -= 1
    return alpha_at[x], runs_at(x)


def sweep_cell(cfg: SimConfig, inputs: SweepInputs, scheme: str, ti: int) -> SweepPoint:
    """The cell of scheme ``scheme`` at target ``cfg.sweep[ti]``, over all
    of the sweep's channels.  It depends on nothing but its arguments, so a
    cell run on its own equals the same cell of :func:`pareto_sweep`.

    A trial that fails to execute scores zero rate and every BER bit wrong;
    its plan still counts in the realized average, but a failed online run
    has no plan."""
    zfg, channels = inputs.zfg, inputs.channels
    target = cfg.sweep[ti]
    ip = zfg.input_precisions(cfg.storage_bits)
    if scheme == "fixed":
        plan = fixed_plan(zfg.graph, round(target))
    elif scheme == "offline":
        def off(alpha):
            return offline_vpc(zfg.graph, _plan_cfg(cfg, alpha), CM, cfg.e_b)
        plan = off(calibrate_alpha(lambda a: plan_metrics(zfg.graph, off(a), CM)[0], target))
    elif scheme == "online":
        alpha, probed = online_alpha(zfg, cfg, channels[:4], target)
    else:  # random-blockwise: parts draw around round(target), clipped at x_max
        draw_rng = np.random.default_rng((cfg.seed, 31, ti))
        hi = min(cfg.x_max, 2 * round(target) - cfg.x_min)

    cell_metrics = plan_metrics(zfg.graph, plan, CM) if scheme in ("fixed", "offline") else None
    if scheme == "online":  # the walk has run the probe channels at alpha
        runs = (r or (None, None) for r in itertools.chain(  # a failed run has no plan
            probed, _online_runs(zfg, cfg, alpha, inputs.lanes[len(probed):])))
    else:  # the channels are the lanes of one batch, whose passes draw their plans
        plans, scored = itertools.tee(
            (random_blockwise_plan(zfg.graph, draw_rng, cfg.x_min, hi) for _ in channels)
            if scheme == "random-blockwise" else itertools.repeat(plan, len(channels)))
        lanes = execute_lanes(zfg.graph, plans, inputs.lanes, ip)
        runs = ((None if isinstance(r, GraphExecutionError) else r, p) for r, p in zip(lanes, scored))
    n_bits = 2 * cfg.k_users * cfg.ber_symbols
    rates, avgs, totals = [], [], []
    errors = failures = 0
    for t, (h, (result, plan)) in enumerate(zip(channels, runs)):
        if plan is not None:
            a, tot = cell_metrics or plan_metrics(zfg.graph, plan, CM)
            avgs.append(a)
            totals.append(tot)
        if result is None:
            failures += 1
            rates.append(0.0)
            errors += n_bits
            continue
        h_cx = h.as_complex()
        w = zfg.w_matrix(result)
        rates.append(sum_rate(h_cx, w, cfg.snr_db))
        if cfg.ber_symbols:
            ber_rng = np.random.default_rng((cfg.seed, 77, t))
            b = ber_sim(h_cx, w, cfg.snr_db, cfg.ber_symbols, ber_rng, inputs.refs[t])
            errors += int(round(b * n_bits))

    n = len(rates)
    stderr = float(np.std(rates, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SweepPoint(
        scheme=scheme,
        target_avg_bits=float(target),
        realized_avg_bits=float(np.mean(avgs)) if avgs else float("nan"),
        total_complexity=float(np.mean(totals)) if totals else float("nan"),
        sum_rate_mean=float(np.mean(rates)),
        sum_rate_stderr=stderr,
        ber=errors / (cfg.trials * n_bits) if n_bits else float("nan"),
        trials=cfg.trials,
        failures=failures,
        seed=cfg.seed,
        rates=[float(r) for r in rates],
    )


def pareto_sweep(cfg: SimConfig, inputs: Optional[SweepInputs] = None) -> List[SweepPoint]:
    """Run every (scheme, target average precision) cell over paired channels.

    Channel matrices are generated once from the seed and reused across all
    schemes and targets.  Offline/online trade-off weights are calibrated to
    reach each target average precision; fixed-length uses the
    matching integer precision directly.  :func:`sweep_cell` says how a
    trial that fails to compute is scored.
    """
    inputs = inputs or sweep_inputs(cfg)
    return [sweep_cell(cfg, inputs, scheme, ti)
            for scheme in cfg.schemes for ti in range(len(cfg.sweep))]


def reference_rate(cfg: SimConfig, inputs: SweepInputs) -> float:
    """Mean reference-precision sum rate over a sweep's inputs' channels."""
    return float(np.mean([sum_rate(h.as_complex(), w, cfg.snr_db)
                          for h, w in zip(inputs.channels, inputs.refs)]))


def precision_histogram(zfg: ZfGraph, plan) -> Dict[Tuple[int, str], int]:
    """Counts of (precision, op kind) over the plan's nodes."""
    assignment = getattr(plan, "assignment", plan)
    out: Dict[Tuple[int, str], int] = {}
    for nid, x in assignment.items():
        key = (x, zfg.graph.nodes[nid].op.value)
        out[key] = out.get(key, 0) + 1
    return out
