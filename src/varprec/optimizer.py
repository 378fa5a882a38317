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
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple, Union

import numpy as np

from .ebfp import EbfpParams, DEFAULT_PARAMS
from .errormodel import EPS, W_LIMIT_VAR, ops_per_bit, speculation_factor
from .graph import (_ADD, _DIV, _INPUT, _MUL, _SQRT, _SUB, ExecutionResult, ExprGraph,
                    GraphExecutionError, OpKind, _kernel_inputs, _kernel_layout, _lane_result,
                    _passes, _run_groups, run)


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
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass
class PrecisionPlan:
    assignment: Dict[int, int]
    gsigma: Optional[Dict[int, float]] = None


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
        self.thresholds, self.arrays, self.mid_rho = _ladder(
            cfg.x_min, cfg.x_max, tuple(map(cm.weight, DEFAULT_WEIGHTS)))

    def lookup(self, rho: float, op) -> int:
        """Smallest x whose threshold is >= rho, clamped to the bounds."""
        return self.cfg.x_min + bisect_left(self.thresholds[op], rho)


@functools.lru_cache(maxsize=256)
def _ladder(x_min: int, x_max: int, weights: Tuple[float, ...]):
    """XoptLut's thresholds (as lists and arrays) and rung midpoints,
    shared by every lut: read only."""
    scale = 2.0 * math.log(EPS) / (1.0 - EPS ** -2)
    base = {op: scale * w for op, w in zip(DEFAULT_WEIGHTS, weights)}
    th = {op: [b * EPS ** (2 * x) for x in range(x_min, x_max)] for op, b in base.items()}
    mids = {op: [t / EPS for t in th[op] + [b * EPS ** (2 * x_max)]] for op, b in base.items()}
    return th, {op: np.array(t, dtype=float) for op, t in th.items()}, mids


def final_step_precision(graph: ExprGraph, cfg: UtilityConfig,
                         cm: ComplexityModel) -> Dict[int, int]:
    """Optimal precision of every output node, whose G_sigma seed is
    ``-GSIGMA_UNIT``: the anchors of the online plan."""
    lut = XoptLut(cm, cfg)
    rho = GSIGMA_UNIT / cfg.alpha
    x = {op: lut.lookup(rho, op) for op in DEFAULT_WEIGHTS}
    return {oid: x[graph.nodes[oid].op] for oid in graph.outputs}


# graph -> ((len(nodes), marked outputs), id tables, {e_b: _reverse_sweep}); a new shape replaces it
_SWEEPS: "weakref.WeakKeyDictionary[ExprGraph, tuple]" = weakref.WeakKeyDictionary()


def _held(graph: ExprGraph) -> tuple:
    """(shape, (non-input ids, their part tags, {op: ids}), sweeps by e_b) of the graph."""
    shape = (len(graph.nodes), tuple(graph._explicit_outputs))  # these fix the outputs
    held = _SWEEPS.get(graph)
    if held is None or held[0] != shape:
        ids, by_op = graph.non_input_ids(), {}
        for nid in ids:
            by_op.setdefault(graph.nodes[nid].op, []).append(nid)
        held = _SWEEPS[graph] = (shape, (ids, [graph.nodes[i].part for i in ids], by_op), {})
    return held


def _alpha_free(graph: ExprGraph, e_b: int):
    """:func:`_reverse_sweep`, run once per graph shape and ``e_b``."""
    sweeps = _held(graph)[2]
    if e_b not in sweeps:
        sweeps[e_b] = _reverse_sweep(graph, e_b)
    return sweeps[e_b]


def _reverse_sweep(graph: ExprGraph, e_b: int):
    """What both planners know before alpha and values: G_sigma of every
    node in reverse id order; the non-input ids in that order, with per op
    kind their positions among them and their G_sigma; (id, op, sink,
    EPS ** (2 * bit offset)) of each node with an input operand, the offset
    of its longest path (length, add, sub and sqrt crossings, sink id); and
    per node id its operand ids, None where the operand is an input."""
    entries, consumers = graph.entries, graph.consumers
    out_set = set(graph.outputs)
    back = {op: speculation_factor(op.value, "backward", e_b) for op in DEFAULT_WEIGHTS}
    add_rate, sub_rate = ops_per_bit("add", e_b), ops_per_bit("sub", e_b)
    gsig: Dict[int, float] = {}
    longest: Dict[int, Tuple[int, int, int, int, int]] = {}
    ids, by_op, seeds = [], {}, []
    routes = [tuple(None if o is None or entries[o][1] is _INPUT else o for o in e[2:])
              for e in entries]
    for node in reversed(graph.nodes):
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
        if node.op is not _INPUT:
            by_op.setdefault(node.op, []).append((len(ids), g))
            ids.append(node.id)
        if any(entries[o][1] is _INPUT for o in node.operands):
            off = seed_bit_offset(*best[1:4], add_rate, sub_rate)
            seeds.append((node.id, node.op, best[4], EPS ** (2.0 * off)))
    groups = [(op, *map(np.array, zip(*pos_g))) for op, pos_g in by_op.items()]
    return gsig, ids, groups, seeds, routes


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
    gsig, ids, groups, _, _ = _alpha_free(graph, e_b)
    xs = np.empty(len(ids), dtype=np.int64)
    for op, pos, g in groups:
        xs[pos] = np.searchsorted(arrays[op], -g / cfg.alpha, "left")
    return PrecisionPlan(dict(zip(ids, (xs + cfg.x_min).tolist())), dict(gsig))


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
    function of the anchors and the operand values.  An input operand's
    route is seeded from its anchor plus a path-length bit offset; an
    interior one advances its operand's rho by a forward factor, constant
    for mul/div/sqrt and operand^2/result^2 for add/sub.  Each node's
    decision is one bisection in the ladder, and its rho is then the
    midpoint of its rung: midpoints are tables per ladder, seeds per call,
    seed offsets and input operands per graph and ``e_b``.  Each node
    executes at its decided precision before any consumer is decided.  The
    reported G_sigma is ``-alpha * rho`` (0.0 at exact-zero results).
    """
    out, = online_lanes(graph, cfg, cm, [input_values], e_b, input_precision, params)
    if isinstance(out, GraphExecutionError):
        raise out
    return out


def online_lanes(graph: ExprGraph, cfg: UtilityConfig, cm: ComplexityModel,
                 lanes: Iterable[Mapping[int, Fraction]], e_b: int = 10,
                 input_precision=53, params: EbfpParams = DEFAULT_PARAMS
                 ) -> Iterator[Union[Tuple[ExecutionResult, PrecisionPlan], GraphExecutionError]]:
    """Each lane's ``(result, plan)`` of :func:`online_vpc`, or the
    :class:`GraphExecutionError` of its run, taken a pass of
    :data:`graph.KERNEL_MAX_LANES` lanes at a time.

    The policy has two copies that decide alike, bit for bit.  A pass whose
    lanes give each (level, op kind) group :data:`graph.KERNEL_MIN_WIDTH`
    elements on average is decided group by group over numpy columns, each
    group just before the float64 kernel of :func:`graph.execute_lanes`
    rounds it.  A lane goes whole through the other copy, a precision policy of
    :func:`graph.run`, where the kernel cannot run it (see
    :func:`graph.execute_lanes`), where it decides a precision above the
    kernel's widest, or where one of its nodes fails.
    """
    lut = XoptLut(cm, cfg)
    final_x = final_step_precision(graph, cfg, cm)
    mid = (cfg.x_min + cfg.x_max) // 2  # anchor of a sink that is not an output
    _, _, _, seeds, routes = _alpha_free(graph, e_b)
    seed = {nid: lut.mid_rho[op][final_x.get(sink, mid) - cfg.x_min] * factor
            for nid, op, sink, factor in seeds}
    # mul/div/sqrt move rho by a constant; add/sub by the operand values
    forward = {op: speculation_factor(op.value, "forward", e_b) for op in (_MUL, _DIV, _SQRT)}
    policy = (lut, seed, routes, forward)
    for part in _passes(lanes):
        decided = _online_pass(graph, cfg, policy, part, input_precision, params)
        for vals, got in zip(part, decided or [None] * len(part)):
            if got is None:
                try:
                    got = _online_run(graph, cfg, policy, vals, input_precision, params)
                except GraphExecutionError as err:
                    got = err
            yield got


def _online_run(graph: ExprGraph, cfg: UtilityConfig, policy: tuple,
                input_values: Mapping[int, Fraction], input_precision, params
                ) -> Tuple[ExecutionResult, PrecisionPlan]:
    """One lane of :func:`online_lanes` by the policy as a ``choose`` of
    :func:`graph.run`, one node at a time."""
    lut, seed, routes, forward = policy
    x_min, th, mid_rho = cfg.x_min, lut.thresholds, lut.mid_rho
    f_mul, f_div, f_sqrt = forward[_MUL], forward[_DIV], forward[_SQRT]
    rho: Dict[int, float] = {}

    def choose(node, va: float, vb: Optional[float]) -> int:
        op, nid = node.op, node.id
        i, j = routes[nid]  # None for an input operand, whose route is the seed
        if op is _ADD or op is _SUB:
            vc = va + vb if op is _ADD else va - vb
            if vc:
                # weighted by operand magnitude, so the dominant operand's
                # route wins when the exponents differ greatly; a route moves
                # by operand^2/result^2 (squared by one correctly rounded
                # product), clipped at 1 so the recursion stays bounded where
                # the frame shrinks
                wa, wb, qa, qb = abs(va), abs(vb), va / vc, vb / vc
                qa, qb = qa * qa, qb * qb
                r = ((seed[nid] if i is None else rho[i] * (qa if qa < 1.0 else 1.0)) * wa
                     + (seed[nid] if j is None else rho[j] * (qb if qb < 1.0 else 1.0)) * wb
                     ) / (wa + wb)
        elif op is _SQRT:
            vc = va  # sqrt(va) is 0 where va is
            if vc:
                r = seed[nid] if i is None else rho[i] * f_sqrt
        else:
            vc = va * vb if op is _MUL else va / vb
            if vc:
                f = f_mul if op is _MUL else f_div
                r = ((seed[nid] if i is None else rho[i] * f)
                     + (seed[nid] if j is None else rho[j] * f)) / 2.0
        if not vc:  # an exact-zero result has no relative-error frame
            rho[nid] = 0.0
            return x_min
        k = bisect_left(th[op], r)
        rho[nid] = mid_rho[op][k]
        return x_min + k

    result = run(graph, choose, input_values, input_precision, params)
    gsigma = {nid: -cfg.alpha * r if r else 0.0 for nid, r in rho.items()}
    return result, PrecisionPlan({nid: result.precisions[nid] for nid in rho}, gsigma)


def _online_pass(graph: ExprGraph, cfg: UtilityConfig, policy: tuple, lanes: list,
                 input_precision, params) -> Optional[Iterator[Optional[tuple]]]:
    """Each lane's ``(result, plan)`` decided and computed by the float64
    kernel, or None where the lane takes :func:`_online_run` (None for the
    pass where the kernel takes none of its lanes): the policy of
    :func:`_online_run` over numpy columns, one (level, op kind) group at a
    time, with the same float operations in the same order.  The ladder is
    cut one rung above the kernel's widest precision, so a lane that would
    decide more lands there and is sent back."""
    lut, seed, _, forward = policy
    layout = _kernel_layout(graph, params, len(lanes))
    kernel = None
    # an infinite seed times a zero weight is a nan, which bisect_left puts
    # at the ladder's foot and searchsorted at its top
    if layout is not None and cfg.x_min <= layout[1] and all(map(math.isfinite, seed.values())):
        kernel = _kernel_inputs(graph, dict(enumerate(lanes)), input_precision, params)
    if kernel is None:
        return None
    (groups, _, pos, _, _), max_x = layout
    v, x, col = kernel
    x_min, n_in = cfg.x_min, len(graph.inputs)
    th = {op: t[:max_x - x_min + 1] for op, t in lut.arrays.items()}
    mids = {op: np.array(m) for op, m in lut.mid_rho.items()}
    # rho by column (0 at the inputs), and each operation column's seed where
    # its first, or its second, operand is an input (0 elsewhere)
    rho = np.zeros(v.shape)
    by_col = np.zeros(len(graph.nodes))
    by_col[pos[list(seed)]] = list(seed.values())
    by_col = by_col[n_in:]
    first = np.concatenate([i for _, _, _, i, _ in groups]) < n_in
    second = np.concatenate([i if j is None else j for _, _, _, i, j in groups]) < n_in
    starts = [begin - n_in for _, begin, _, _, _ in groups]
    seed_a, seed_b = np.where(first, by_col, 0.0), np.where(second, by_col, 0.0)
    has_a = np.logical_or.reduceat(first, starts).tolist()
    has_b = np.logical_or.reduceat(second, starts).tolist()

    def decide(g, a, b, y):
        op, start, stop, i, j = groups[g]
        if op is _ADD or op is _SUB:
            wa, wb, qa, qb = np.abs(a), np.abs(b), a / y, b / y
            ra, rb = rho[i] * np.minimum(qa * qa, 1.0), rho[j] * np.minimum(qb * qb, 1.0)
        else:
            f = forward[op]
            ra, rb = rho[i] * f, None if op is _SQRT else rho[j] * f
        if has_a[g]:  # an input operand's rho reads 0, and its route is the seed
            ra += seed_a[start - n_in:stop - n_in, None]
        if rb is not None and has_b[g]:
            rb += seed_b[start - n_in:stop - n_in, None]
        if op is _ADD or op is _SUB:
            r = (ra * wa + rb * wb) / (wa + wb)
        else:
            r = ra if rb is None else (ra + rb) / 2.0
        k = np.searchsorted(th[op], r)
        zero = y == 0.0  # sqrt(a) is 0 where a is
        k[zero] = 0
        rho[start:stop] = np.where(zero, 0.0, mids[op][k])
        return k + x_min

    with np.errstate(all="ignore"):  # a failing lane's garbage stays in its column
        _run_groups(groups, v, x, decide)
    over = (x[n_in:] > max_x).any(axis=0)
    ids, cols = _held(graph)[1][0], np.delete(pos, graph.inputs)  # non-input ids, their columns

    def lane(l):  # taken one lane at a time, as it is asked for
        c = col.get(l)
        if c is None or over[c]:
            return None
        with np.errstate(all="ignore"):
            res = _lane_result(graph, layout[0], v[:, c], x[:, c], params)
        if res is None:
            return None
        r = rho[cols, c]
        gsigma = np.where(r != 0.0, -cfg.alpha * r, 0.0)
        return res, PrecisionPlan(dict(zip(ids, x[cols, c].tolist())),
                                  dict(zip(ids, gsigma.tolist())))

    return map(lane, range(len(lanes)))


def fixed_plan(graph: ExprGraph, x: int) -> PrecisionPlan:
    return PrecisionPlan(dict.fromkeys(_held(graph)[1][0], x))


def random_blockwise_plan(graph: ExprGraph, rng: np.random.Generator,
                          x_min: int, x_max: int) -> PrecisionPlan:
    """One uniformly drawn precision per part tag (all nodes must be tagged)."""
    ids, parts, _ = _held(graph)[1]
    if None in parts:
        raise ValueError(f"node {ids[parts.index(None)]} has no part tag")
    draw = {p: int(rng.integers(x_min, x_max + 1)) for p in sorted(set(parts))}
    return PrecisionPlan(dict(zip(ids, map(draw.__getitem__, parts))))


def plan_metrics(graph: ExprGraph, plan, cm: ComplexityModel) -> Tuple[float, float]:
    """(complexity-weighted average precision, total complexity), summed per
    op kind: exact while every term is an integer-valued float below 2**53."""
    assignment = getattr(plan, "assignment", plan)
    total = wsum = 0.0
    for op, ids in _held(graph)[1][2].items():
        w = cm.weight(op)
        total += w * sum(map(assignment.__getitem__, ids), 0.0)
        wsum += w * len(ids)
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
