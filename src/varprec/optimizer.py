"""Precision assignment: complexity model, utility, x^opt lookup table, and
the offline/online planners.

The planning currency is the sensitivity coefficient G_sigma carried by each
node: the derivative of the global utility with respect to that node's
post-rounding error variance, folded together with the rounding-law
constants.  The stationarity condition of the per-node utility reduces to a
threshold comparison of rho = -G_sigma/G_o against a geometric ladder, one
rung per integer precision, which is the lookup table.  The offline planner
walks the graph backwards multiplying expectation factors; the online
planner walks forwards during execution using the actual operand values.
"""

from __future__ import annotations

import csv
import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from .ebfp import EbfpParams, DEFAULT_PARAMS
from .errormodel import EPS, W_LIMIT_VAR, ops_per_bit, speculation_factor
from .graph import (_ADD, _DIV, _INPUT, _MUL, _SQRT, _SUB, ExecutionResult, ExprGraph,
                    GraphExecutionError, OpKind, run, run_lanes)


DEFAULT_WEIGHTS = {OpKind.ADD: 1.0, OpKind.SUB: 1.0, OpKind.MUL: 30.0,
                   OpKind.DIV: 30.0, OpKind.SQRT: 80.0}

#: folded rounding-law constant appearing in every G_sigma seed
GSIGMA_UNIT = 2.0 * math.log(EPS) * EPS ** -2 * W_LIMIT_VAR


@dataclass(frozen=True)
class ComplexityModel:
    """Linear per-bit cost o_u(x) = w_u * x with the weights of
    ``DEFAULT_WEIGHTS``."""

    def weight(self, op: OpKind) -> float:
        return DEFAULT_WEIGHTS[op]


@dataclass(frozen=True)
class UtilityConfig:
    """Trade-off weight and precision bounds."""

    alpha: float = 1e-9
    x_min: int = 4
    x_max: int = 64

    def __post_init__(self):
        if not (1 <= self.x_min <= self.x_max):
            raise ValueError("need 1 <= x_min <= x_max")
        if self.x_max > 508:  # up to 508 every rung of every op kind's ladder is a float
            raise ValueError("x_max must be at most 508")
        if not self.alpha > 0:  # nan too
            raise ValueError("alpha must be positive")


@dataclass(init=False)
class PrecisionPlan:
    """Each operation's precision, and its G_sigma where the planner gives
    one, as dicts by node id built when first read (in ``reverse`` id order
    if so made); ``==`` and ``repr`` read them.  A planner keeps int64
    ``xs`` in the order of ``ids``, its graph's ``op_ids``, and G_sigma as
    an array in that order or as a dict it shares, copied when first read.
    Once read, ``assignment`` is the plan: ``xs`` goes."""

    assignment: Dict[int, int]
    gsigma: Optional[Dict[int, float]]

    def __init__(self, assignment: Optional[Dict[int, int]] = None, gsigma=None, ids=None, xs=None,
                 reverse=False):
        if assignment is not None:
            self.assignment = assignment
        self._gsigma, self.ids, self.xs, self.reverse = gsigma, ids, xs, reverse

    def __getattr__(self, name: str):  # assignment or gsigma, not read yet
        if name == "assignment":  # ids may have grown with the graph since
            ids, step = self.ids[:len(self.xs)], -1 if self.reverse else 1
            got, self.xs = dict(zip(ids[::step], self.xs[::step].tolist())), None
        elif name == "gsigma":
            g = self._gsigma
            got = g if g is None else dict(g if isinstance(g, dict) else zip(self.ids, g.tolist()))
        else:
            raise AttributeError(name)
        self.__dict__[name] = got
        return got

    def row(self, op_ids: List[int]) -> Optional[np.ndarray]:
        """``xs``, if the plan was made for the graph of ``op_ids`` as it is now."""
        ok = "assignment" not in self.__dict__ and self.ids is op_ids and len(self.xs) == len(op_ids)
        return self.xs if ok else None


class XoptLut:
    """Monotone map from rho = -G_sigma/G_o to the optimal integer precision.

    Thresholds are where the discrete utility's forward difference changes
    sign; they form a geometric ladder with ratio EPS**2, so multiplying rho
    by EPS**2 moves the answer up exactly one bit inside the open range.
    ``mid_rho[op][x - x_min]`` is the representative rho of precision x: the
    geometric midpoint of the bin that maps to x (bins have ratio EPS**2, so
    midpoint = top/EPS).  The open bin of x_max is taken one rung wide, so a
    one-rung ladder (x_min == x_max) has a midpoint too.
    """

    def __init__(self, cm: ComplexityModel, cfg: UtilityConfig):
        self.cfg = cfg
        self.thresholds, self.arrays, self.mid_rho, self.mid_arrays = _ladder(
            cfg.x_min, cfg.x_max, tuple(map(cm.weight, DEFAULT_WEIGHTS)))

    def lookup(self, rho: float, op) -> int:
        """Smallest x whose threshold is >= rho, clamped to the bounds."""
        return self.cfg.x_min + bisect_left(self.thresholds[op], rho)


@functools.lru_cache(maxsize=256)
def _ladder(x_min: int, x_max: int, weights: Tuple[float, ...]):
    """XoptLut's thresholds and rung midpoints, each as lists and as arrays,
    shared by every lut: read only."""
    scale = 2.0 * math.log(EPS) / (1.0 - EPS ** -2)
    base = {op: scale * w for op, w in zip(DEFAULT_WEIGHTS, weights)}
    th = {op: [b * EPS ** (2 * x) for x in range(x_min, x_max)] for op, b in base.items()}
    mids = {op: [t / EPS for t in th[op] + [b * EPS ** (2 * x_max)]] for op, b in base.items()}
    return (th, {op: np.array(t, dtype=float) for op, t in th.items()}, mids,
            {op: np.array(m) for op, m in mids.items()})


def _ids(graph: ExprGraph) -> tuple:
    """(``graph.op_ids``, their part tags, {op: its positions among them},
    the ids as an index array), a table of the graph."""
    ids, by_op = graph.op_ids, {}
    for k, nid in enumerate(ids):
        by_op.setdefault(graph.nodes[nid].op, []).append(k)
    return (ids, [graph.nodes[i].part for i in ids], {op: np.array(k) for op, k in by_op.items()},
            np.array(ids, dtype=np.intp))


def _reverse_sweep(graph: ExprGraph, e_b: int):
    """What both planners know before alpha and values: G_sigma of every
    node, by id in reverse order; per op kind the positions of its nodes
    in ``graph.op_ids`` and their G_sigma; (id, op, sink, EPS ** (2 * bit
    offset)) of each node with an input operand, the offset of its longest
    path (length, add, sub and sqrt crossings, sink id); and per input
    operand, as arrays, its cell in the rows of seeds of
    :func:`online_lanes` (its operand place * the node count + its node's
    id), and its seed's rung slot (see there) and factor."""
    entries, consumers = graph.entries, graph.consumers
    out_set = set(graph.outputs)
    back = {op: speculation_factor(op.value, "backward", e_b) for op in DEFAULT_WEIGHTS}
    add_rate, sub_rate = ops_per_bit("add", e_b), ops_per_bit("sub", e_b)
    gsig: Dict[int, float] = {}
    longest: Dict[int, Tuple[int, int, int, int, int]] = {}
    ops, seeds, cells = list(DEFAULT_WEIGHTS), [], []
    for node, op, i, j in reversed(entries):
        terms = [-GSIGMA_UNIT] if node.id in out_set else []
        best = None if consumers[node.id] else (0, 0, 0, 0, node.id)
        for cid in consumers[node.id]:
            c = entries[cid][1]
            terms.append(gsig[cid] * back[c])
            n, n_add, n_sub, n_sqrt, sink = longest[cid]
            if best is None or n + 1 > best[0]:
                best = (n + 1, n_add + (c is _ADD), n_sub + (c is _SUB),
                        n_sqrt + (c is _SQRT), sink)
        g = min(terms, default=0.0)  # sensitivities are negative: min = most demanding
        gsig[node.id], longest[node.id] = g, best
        ins = [p * len(entries) + node.id for p, o in enumerate((i, j))
               if o is not None and entries[o][1] is _INPUT]
        if ins:
            off = seed_bit_offset(*best[1:4], add_rate, sub_rate)
            try:
                factor = EPS ** (2.0 * off)
            except OverflowError:  # the seeds of a shorter chain overflow to inf too
                factor = math.inf
            sink = best[4]
            seeds.append((node.id, op, sink, factor))
            slot = 6 * ops.index(op) + (ops.index(entries[sink][1]) if sink in out_set else 5)
            cells += [(c, slot, factor) for c in ins]
    ids, _, by_op, _ = graph.table(_ids)
    by_id = np.array([gsig[nid] for nid in ids])
    groups = [(op, pos, by_id[pos]) for op, pos in by_op.items()]
    by_cell = list(zip(*cells)) or [(), (), ()]  # cells, slots, factors
    arrays = [np.array(a, dtype=t) for a, t in zip(by_cell, (np.intp, np.intp, float))]
    return gsig, groups, seeds, arrays


def offline_vpc(graph: ExprGraph, cfg: UtilityConfig, cm: ComplexityModel,
                e_b: int = 10) -> PrecisionPlan:
    """Value-free precision assignment by a reverse sweep of expectation
    factors; runs entirely before any execution.

    A node shared by several consumers takes the most demanding consumer's
    sensitivity (the precision the worst path requires): on a tree this is
    the plain one-consumer recursion, and on a DAG it avoids double-counting
    reuse whose error contributions are strongly correlated downstream.

    The sweep never reads alpha, so it runs once per graph and ``e_b``; a
    plan looks rho = -G_sigma/alpha up in the ladder, as :meth:`XoptLut.lookup`,
    one ``searchsorted`` per op kind.
    """
    arrays = XoptLut(cm, cfg).arrays
    gsig, groups, *_ = graph.table(_reverse_sweep, e_b)
    xs = np.empty(len(graph.op_ids), dtype=np.int64)
    for op, pos, g in groups:
        xs[pos] = np.searchsorted(arrays[op], -g / cfg.alpha, "left")
    xs += cfg.x_min  # the dicts list the ids in reverse, as the sweep meets them
    return PrecisionPlan(None, gsig, graph.op_ids, xs, reverse=True)


def seed_bit_offset(n_add: int, n_sub: int, n_sqrt: int, add_rate: int,
                    sub_rate: int) -> float:
    """Precision offset between a first-step node and its anchoring output,
    from the per-op change rates ``ops_per_bit("add"/"sub", e_b)`` (sqrt
    moves exactly one bit per crossing).

    The value is not rounded: it carries the sub-bit sensitivity gradient
    that the seeding applies in G-space before quantization.
    """
    return -n_add / add_rate + n_sub / sub_rate - n_sqrt


def online_vpc(graph: ExprGraph, cfg: UtilityConfig, cm: ComplexityModel,
               input_values: Mapping[int, Fraction], e_b: int = 10,
               input_precision=53, params: EbfpParams = DEFAULT_PARAMS
               ) -> Tuple[ExecutionResult, PrecisionPlan]:
    """Plan-while-executing assignment using actual operand values: one
    lane of :func:`online_lanes`, whose :class:`GraphExecutionError` it raises.

    The policy runs in rho = -G_sigma/alpha: alpha enters only through the
    output nodes' final-step precision (the anchors), so the plan is a
    function of the anchors and the operand values.  Each node's rho is
    :func:`_rho` of its operands' values and rho, or of its seed where an
    operand is an input; its decision is one bisection in the ladder, and
    its rho is then the midpoint of its rung.  Midpoints are tables per
    ladder, seed offsets and input operands per graph and ``e_b``, and the
    seeds two rows by node id per call, one per operand place.  Each node
    executes at its decided precision before any consumer is decided.  The
    plan holds the precisions as an int64 row in ``graph.op_ids`` order,
    and the reported G_sigma is ``-alpha * rho`` (0.0 at exact-zero results).
    """
    out, = online_lanes(graph, cfg, cm, [input_values], e_b, input_precision, params)
    if isinstance(out, GraphExecutionError):
        raise out
    return out


def _rho(op, a, b, y, ra, rb, sa, sb, forward, clip):
    """The online policy's rho of a node before its rung is looked up, the
    same float operations on Python floats or on numpy columns: from its
    operands ``a`` and ``b``, its result rounded to nearest ``y``, its
    operands' rho ``ra`` and ``rb`` (0 at an input), and the seeds ``sa``
    and ``sb`` that input operands add to their routes (0 where an operand
    is not an input, or None where no operand in that place is).  An input
    operand's route is its seed: its anchor's rung moved by a path-length
    bit offset.  An interior operand's route moves by a forward factor:
    ``forward[op]`` for mul, div and sqrt, and operand^2/result^2 for add
    and sub, where ``clip`` is the caller's ``min``, :func:`_clip` or
    ``np.minimum``.  ``b``, ``rb`` and ``sb`` are not read for sqrt, nor
    ``y`` for mul, div and sqrt."""
    if op is _ADD or op is _SUB:
        # a route moves by operand^2/result^2 (squared by one correctly
        # rounded product), clipped at 1 so the recursion stays bounded
        # where the frame shrinks
        qa, qb = a / y, b / y
        ra, rb = ra * clip(qa * qa, 1.0), rb * clip(qb * qb, 1.0)
    else:
        f = forward[op]
        ra, rb = ra * f, None if op is _SQRT else rb * f
    if sa is not None:
        ra += sa
    if sb is not None and rb is not None:  # rb is None for sqrt
        rb += sb
    if op is _ADD or op is _SUB:
        # weighted by operand magnitude, so the dominant operand's route
        # wins when the exponents differ greatly
        wa, wb = abs(a), abs(b)
        return (ra * wa + rb * wb) / (wa + wb)
    return ra if rb is None else (ra + rb) / 2.0


def _clip(q: float, top: float) -> float:
    return q if q < top else top


def online_lanes(graph: ExprGraph, cfg: UtilityConfig, cm: ComplexityModel,
                 lanes: Iterable[Mapping[int, Fraction]], e_b: int = 10,
                 input_precision=53, params: EbfpParams = DEFAULT_PARAMS
                 ) -> Iterator[Union[Tuple[ExecutionResult, PrecisionPlan], GraphExecutionError]]:
    """Each lane's ``(result, plan)`` of :func:`online_vpc`, or the
    :class:`GraphExecutionError` of its run, taken a pass of
    :data:`graph.KERNEL_MAX_LANES` lanes at a time by :func:`graph.run_lanes`.

    Two drivers of :func:`_rho` decide alike, bit for bit.  A pass whose
    lanes give each (level, op kind) group :data:`graph.KERNEL_MIN_WIDTH`
    elements on average is decided group by group over numpy columns, each
    group just before the float64 kernel rounds it.  A lane goes whole
    through the scalar driver, a precision policy of :func:`graph.run`,
    where the kernel cannot run it (see :func:`graph.execute_lanes`; a seed
    that is not finite keeps the call off the kernel), or where it decides
    a precision above the kernel's widest before any of its nodes fails.
    """
    lut, x_min = XoptLut(cm, cfg), cfg.x_min
    # an output's rung is its final-step precision, where its G_sigma seed is
    # -GSIGMA_UNIT; a sink that is not an output takes the middle rung.  A
    # seed's slot is 6 * its op kind's place in DEFAULT_WEIGHTS + its sink's, or + 5
    at = [bisect_left(t, GSIGMA_UNIT / cfg.alpha) for t in lut.thresholds.values()]
    at.append((cfg.x_max - x_min) // 2)
    *_, (cells, slots, factors) = graph.table(_reverse_sweep, e_b)
    with np.errstate(over="ignore"):  # a seed beyond float range is inf, as a float product is
        seeds = np.array([m[k] for m in lut.mid_rho.values() for k in at])[slots] * factors
    rows = np.zeros((2, len(graph.nodes)))  # by id, per operand place: 0 where not an input
    rows.put(cells, seeds)  # at a cell of the rows read flat
    forward = {op: speculation_factor(op.value, "forward", e_b) for op in (_MUL, _DIV, _SQRT)}

    def scalar(_, vals):  # a lane whole, one node at a time
        seed_a, seed_b = rows.tolist()  # Python floats, as run's values
        rho = [0.0] * len(graph.nodes)  # an input's reads 0, as in a kernel column
        th, mids, entries = lut.thresholds, lut.mid_rho, graph.entries

        def choose(node, a: float, b: Optional[float]) -> int:
            op, nid = node.op, node.id
            y = a if op is _SQRT else a + b if op is _ADD else a - b if op is _SUB else \
                a * b if op is _MUL else a / b  # sqrt(a) is 0 where a is
            if not y:  # an exact-zero result has no relative-error frame: rho 0
                return x_min
            _, _, i, j = entries[nid]
            k = bisect_left(th[op], _rho(op, a, b, y, rho[i], rho[i if j is None else j],
                                         seed_a[nid], seed_b[nid], forward, _clip))
            rho[nid] = mids[op][k]
            return x_min + k

        result, ids = run(graph, choose, vals, input_precision, params), graph.table(_ids)[3]
        return planned(result, np.array(result.precision_array, dtype=np.int64)[ids],
                       np.array(rho)[ids])

    def decide(op, a, b, y, ra, rb, sa, sb):  # a group of a kernel pass, over numpy columns
        k = np.searchsorted(lut.arrays[op], _rho(op, a, b, y, ra, rb, sa, sb, forward, np.minimum))
        zero = y == 0.0  # sqrt(a) is 0 where a is
        k[zero] = 0
        return k + x_min, np.where(zero, 0.0, lut.mid_arrays[op][k])

    def planned(res, xs, rho):  # a lane's plan, from its precisions and own rho in id order
        # G_sigma is -alpha * rho, in place, and 0.0 where rho is (alpha may be inf)
        np.multiply(-cfg.alpha, rho, out=rho, where=rho != 0.0)
        return res, PrecisionPlan(gsigma=rho, ids=graph.op_ids, xs=xs)

    yield from run_lanes(graph, ((None, vals) for vals in lanes), scalar, input_precision,
                         params, (decide, rows, planned))


def fixed_plan(graph: ExprGraph, x: int) -> PrecisionPlan:
    return PrecisionPlan(ids=graph.op_ids, xs=np.full(len(graph.op_ids), x))


def random_blockwise_plan(graph: ExprGraph, rng: np.random.Generator,
                          x_min: int, x_max: int) -> PrecisionPlan:
    """One uniformly drawn precision per part tag (all nodes must be tagged)."""
    ids, parts, *_ = graph.table(_ids)
    if None in parts:
        raise ValueError(f"node {ids[parts.index(None)]} has no part tag")
    draw = {p: int(rng.integers(x_min, x_max + 1)) for p in sorted(set(parts))}
    return PrecisionPlan(ids=ids, xs=np.array(list(map(draw.__getitem__, parts)), dtype=np.int64))


def plan_metrics(graph: ExprGraph, plan, cm: ComplexityModel) -> Tuple[float, float]:
    """(complexity-weighted average precision, total complexity), summed per
    op kind (over a planner's array as it is): exact while every term is an
    integer-valued float below 2**53."""
    ids, _, by_op, _ = graph.table(_ids)
    xs = plan.row(ids) if isinstance(plan, PrecisionPlan) else None
    got = list(map(getattr(plan, "assignment", plan).__getitem__, ids)) if xs is None else None
    total = wsum = 0.0
    for op, pos in by_op.items():
        w = cm.weight(op)
        total += w * (sum(map(got.__getitem__, pos.tolist()), 0.0) if got else float(xs[pos].sum()))
        wsum += w * len(pos)
    return (total / wsum if wsum else 0.0), total


_CSV_HEADER = ["node_id", "op", "step_n", "step_k", "x", "g_sigma"]


def plan_to_csv(graph: ExprGraph, plan: PrecisionPlan, fh) -> None:
    w = csv.writer(fh)
    w.writerow(_CSV_HEADER)
    gs = plan.gsigma or {}
    for nid in graph.non_input_ids():
        node = graph.nodes[nid]
        w.writerow([nid, node.op.value, node.step[0], node.step[1],
                    plan.assignment[nid], repr(gs.get(nid, ""))])


def plan_from_csv(fh) -> PrecisionPlan:
    """The plan :func:`plan_to_csv` wrote; a row it cannot read raises a
    ValueError naming the row's line."""
    rd = csv.reader(fh)
    if next(rd, None) != _CSV_HEADER:
        raise ValueError(f"row 1: the header is not {','.join(_CSV_HEADER)}")
    assignment: Dict[int, int] = {}
    gs: Dict[int, float] = {}
    for row in rd:
        if len(row) < 6:
            raise ValueError(f"row {rd.line_num}: {len(row)} cells, want 6")
        try:
            nid, x = int(row[0]), int(row[4])
        except ValueError:
            raise ValueError(f"row {rd.line_num}: node id {row[0]!r} or precision "
                             f"{row[4]!r} is not an integer") from None
        assignment[nid] = x
        if row[5] not in ("", "''"):
            try:
                gs[nid] = float(row[5].strip("'"))
            except ValueError:
                raise ValueError(f"node {nid}: g_sigma {row[5]!r} is not a number")
    return PrecisionPlan(assignment, gs or None)
