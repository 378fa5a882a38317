"""Recorded expression graphs.

An algorithm is recorded once as a DAG of basic arithmetic operations
(inputs at level 0, each operation one node), then executed any number of
times under different precision plans.  Execution computes values only,
through the exact-then-round scalar arithmetic.  One loop, :func:`run`,
does this for every precision policy: the online planner decides while it
runs, and a plan's lookup makes it execute a plan.  :func:`execute_lanes`
runs plans on several lanes (input sets) at once, in float64 where that
gives run's results bit for bit (a result keeps the kernel's columns,
which name run's failing node too; :mod:`ebfp` stores values when they
are read), and through :func:`run` elsewhere.  Both it and the online
planner go through :func:`run_lanes`, whose rule decides each group of
nodes just before the kernel rounds it.  The error model is a separate
pass: :func:`predicted_errors` gives each node's relative-error
variance over what a run computed.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .ebfp import EbfpNumber, EbfpParams, DEFAULT_PARAMS, Flag, apply, decode, round_to_precision
from .errormodel import (
    addsub_variance,
    input_error_variance,
    propagate_full_precision,
    rounding_variance,
)


class OpKind(str, Enum):
    INPUT = "input"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    SQRT = "sqrt"


ARITY = {OpKind.INPUT: 0, OpKind.SQRT: 1, OpKind.ADD: 2, OpKind.SUB: 2,
         OpKind.MUL: 2, OpKind.DIV: 2}
# read once for the per-node tests of run and the planners (see ebfp._NORMAL)
_INPUT, _ADD, _SUB, _MUL, _DIV, _SQRT = OpKind
_NORMAL, _ZERO = Flag.NORMAL, Flag.ZERO


class GraphExecutionError(RuntimeError):
    """Execution failure localized to one node."""

    def __init__(self, node_id: int, reason: str):
        super().__init__(f"node {node_id}: {reason}")
        self.node_id = node_id
        self.reason = reason


@dataclass(frozen=True)
class ExprNode:
    id: int
    op: OpKind
    operands: Tuple[int, ...]
    step: Tuple[int, int]
    part: Optional[str] = None


class ExprGraph:
    """Append-only recorder of a straight-line computation.  :meth:`record`
    keeps its views, all in id order: ``entries`` (one ``(node, op, first
    operand, second operand or None)`` per node), ``consumers``, ``inputs``
    and ``op_ids``, the ids of the operations.  Tables built from the graph
    are kept by :meth:`table`."""

    def __init__(self):
        self.nodes: List[ExprNode] = []
        self.entries: List[tuple] = []
        self.consumers: List[List[int]] = []
        self.inputs: List[int] = []
        self.op_ids: List[int] = []
        self._level_width: Dict[int, int] = {}
        self._explicit_outputs: List[int] = []
        self._derived: Dict[tuple, object] = {}

    def table(self, build: Callable, *args):
        """``build(self, *args)``, built once: :meth:`record` and
        :meth:`mark_output` drop every table, so none is stale, and the
        tables go with the graph."""
        key = (build, *args)
        try:
            return self._derived[key]
        except KeyError:
            got = self._derived[key] = build(self, *args)
            return got

    def record(self, op, operands: Sequence[int] = (), part: str = None) -> int:
        """Append a node; returns its id.  Operand ids are ``int``s that exist."""
        op = OpKind(op)
        operands = tuple(operands)
        if len(operands) != ARITY[op]:
            raise ValueError(f"{op.value} takes {ARITY[op]} operands, got {len(operands)}")
        for o in operands:
            if type(o) is not int or not 0 <= o < len(self.nodes):  # true is no 1
                raise ValueError(f"unknown operand id {o!r}")
        n = 0 if op is _INPUT else 1 + max(self.nodes[o].step[0] for o in operands)
        k = self._level_width.get(n, 0) + 1
        self._level_width[n] = k
        node = ExprNode(len(self.nodes), op, operands, (n, k), part)
        self.nodes.append(node)
        self.entries.append((node, op, *(operands + (None, None))[:2]))
        self.consumers.append([])
        for o in operands:
            self.consumers[o].append(node.id)
        (self.inputs if op is _INPUT else self.op_ids).append(node.id)
        self._derived.clear()
        return node.id

    def add_input(self) -> int:
        return self.record(_INPUT)

    def mark_output(self, node_id: int) -> None:
        if not 0 <= node_id < len(self.nodes):
            raise ValueError(f"unknown node id {node_id}")
        if node_id in self._explicit_outputs:
            raise ValueError(f"node {node_id} is already an output")
        self._explicit_outputs.append(node_id)
        self._derived.clear()

    @property
    def outputs(self) -> List[int]:
        """The marked outputs, or else every operation without a consumer."""
        if self._explicit_outputs:
            return list(self._explicit_outputs)
        return [n.id for n, c in zip(self.nodes, self.consumers) if not c and n.op is not _INPUT]

    def non_input_ids(self) -> List[int]:
        return list(self.op_ids)

    def dump_jsonl(self, fh, plan: Mapping[int, int] = None) -> None:
        """One node per line: ``precision`` under a plan, ``output: i`` for ``outputs[i]``."""
        assignment = getattr(plan, "assignment", plan) or {}
        out_at = {oid: i for i, oid in enumerate(self.outputs)}
        for n in self.nodes:
            rec = {"id": n.id, "op": n.op.value, "operands": list(n.operands),
                   "step": list(n.step)}
            if n.part is not None:
                rec["part"] = n.part
            if n.id in assignment:
                rec["precision"] = assignment[n.id]
            if n.id in out_at:
                rec["output"] = out_at[n.id]
            fh.write(json.dumps(rec) + "\n")

    @classmethod
    def load_jsonl(cls, fh) -> "ExprGraph":
        g, outs = cls(), []
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            got = g.record(rec["op"], rec["operands"], rec.get("part"))
            if got != rec["id"] or type(rec["id"]) is not int:
                raise ValueError("node ids must be dense and in topological order")
            if "output" in rec:
                outs.append((rec["output"], got))
        last = len(outs) - 1
        for i, _ in outs:
            if type(i) is not int:  # true, 1.0 and "1" are no index
                raise ValueError(f"output index {i!r} repeats or is not in 0..{last}")
        for k, (i, nid) in enumerate(sorted(outs)):
            if i != k:
                raise ValueError(f"output index {i} repeats or is not in 0..{last}")
            g.mark_output(nid)
        return g


@dataclass
class TopoStats:
    op_counts: Dict[OpKind, int]
    depth: int
    level_widths: Dict[int, int]

    @property
    def total_arith(self) -> int:
        return sum(c for op, c in self.op_counts.items() if op is not _INPUT)


def topo_stats(graph: ExprGraph) -> TopoStats:
    counts: Dict[OpKind, int] = {}
    for n in graph.nodes:
        counts[n.op] = counts.get(n.op, 0) + 1
    widths = dict(graph._level_width)
    return TopoStats(counts, max(widths, default=0), widths)


@dataclass
class ExecutionResult:
    """What a run computed, in id order (a graph's ids are 0..n-1): lists
    from :func:`run`, arrays from a lane.  The dicts by node id are built
    when first read, and ``==`` and ``repr`` read them."""

    #: each node's value as a float, equal to ``float(decode(values[i]))``,
    #: and its precision in bits, inputs included: dicts of the arrays below
    floats: Dict[int, float] = field(init=False)
    precisions: Dict[int, int] = field(init=False)
    float_array: Sequence[float] = field(repr=False, compare=False)
    precision_array: Sequence[int] = field(repr=False, compare=False)
    output_ids: List[int]
    #: operations whose value is exactly zero, where the relative-error
    #: frame is degenerate (see :func:`predicted_errors`)
    degenerate_zero: List[int] = field(default_factory=list)
    #: the geometry the values are stored in, and the stored values once read
    _params: EbfpParams = field(default=DEFAULT_PARAMS, repr=False)
    _values: Optional[Dict[int, EbfpNumber]] = field(default=None, repr=False, compare=False)

    def __getattr__(self, name: str):  # floats or precisions, not read yet
        if name not in ("floats", "precisions"):
            raise AttributeError(name)
        array = self.float_array if name == "floats" else self.precision_array
        got = self.__dict__[name] = dict(enumerate(np.asarray(array).tolist()))
        return got

    @property
    def values(self) -> Dict[int, EbfpNumber]:
        """Each node's stored value.  A lane's float is its stored value
        exactly, and the value and its precision decide how it is stored."""
        if self._values is None:
            xs, p = self.precisions, self._params
            self._values = {i: round_to_precision(v, xs[i], p) for i, v in self.floats.items()}
        return self._values

    def output_fractions(self) -> List[Fraction]:
        return [decode(self.values[i]) for i in self.output_ids]


def _shadow(n: EbfpNumber) -> float:
    """``float(decode(n))`` by one ldexp on the stored field.  A saturated
    value, or one outside float's normal range, has none: its float would
    be infinite or would lose bits as a subnormal."""
    if n.flags is _ZERO:
        return 0.0
    if n.flags is not _NORMAL:
        raise ValueError(n.flags.value)
    e2 = (n.block_exp - n.n_blocks) * n.params.block_bits
    if n.field.bit_length() + e2 >= sys.float_info.min_exp:
        try:
            return math.ldexp(n.sign * n.field, e2)
        except OverflowError:
            if e2 < 0:  # a field too wide for a float: true division rounds once
                try:
                    return n.sign * n.field / (1 << -e2)
                except OverflowError:
                    pass
    raise ValueError("value left float range")


def _precision(nid: int, x) -> int:
    """x as an ``int`` (from a numpy integer, say), or the node fails."""
    try:
        return operator.index(x)
    except TypeError:
        raise GraphExecutionError(nid, f"precision {x!r} is not an integer") from None


def run(graph: ExprGraph, choose: Callable[[ExprNode, float, Optional[float]], int],
        input_values: Mapping[int, Fraction], input_precision=53,
        params: EbfpParams = DEFAULT_PARAMS) -> ExecutionResult:
    """Run the graph, asking ``choose(node, a, b)`` for each operation's
    precision, where ``a`` and ``b`` are the float values of its stored
    operands (``b`` is None for sqrt).

    Input values are stored at ``input_precision`` bits (an int, or a
    mapping from input id to bits); every interior node is computed by
    exact-then-round arithmetic at its chosen precision.  Values only: the
    error model is :func:`predicted_errors`.  A node that cannot be
    computed raises a :class:`GraphExecutionError` naming it: a non-finite
    input, an input precision the geometry cannot hold, division by an eBFP
    zero, the square root of a negative value, a precision that is not an
    integer, a chosen precision below 1 or beyond the block budget,
    saturation, or a value outside float's normal range.  An exception
    raised by ``choose`` propagates.
    """
    values: Dict[int, EbfpNumber] = {}
    floats, xs, degenerate = [], [], []
    per_input = hasattr(input_precision, "keys")  # dict.update's test for a mapping
    for node, op, i, j in graph.entries:
        nid = node.id
        if op is not _INPUT:
            a = values[i]
            b = values.get(j)  # j and b are None for sqrt
            if op is _DIV and b.field == 0:
                raise GraphExecutionError(nid, "division by zero")
            if op is _SQRT and a.sign < 0:
                raise GraphExecutionError(nid, "sqrt of a negative value")
            x = choose(node, floats[i], None if j is None else floats[j])
            if type(x) is not int:
                x = _precision(nid, x)
            if x < 1:
                raise GraphExecutionError(nid, "precision x must be >= 1")
        try:
            if op is _INPUT:
                x = input_precision[nid] if per_input else input_precision
                if type(x) is not int:
                    x = _precision(nid, x)
                out = round_to_precision(input_values[nid], x, params)
            else:
                # operands are never saturated: a saturated result fails its node
                out = apply(op, a, b, x)
            values[nid] = out
            floats.append(_shadow(out))
            xs.append(x)
        except (ValueError, ArithmeticError) as e:
            raise GraphExecutionError(nid, str(e))
        except KeyError:  # only an input looks anything up here
            raise GraphExecutionError(nid, "no input value or input precision")
        if out.flags is _ZERO and op is not _INPUT:
            degenerate.append(nid)
    return ExecutionResult(floats, xs, graph.outputs, degenerate, params, values)


def predicted_errors(graph: ExprGraph, result: ExecutionResult) -> Dict[int, float]:
    """Each node's predicted relative-error variance (the mean is zero) by
    the two-stage model, over a run of ``graph``.  An exact-zero operation
    has no relative-error frame: its variance is 0, and it contributes
    nothing downstream.  A variance that is not finite fails its node, and
    so does the first node the run did not compute (recorded after it)."""
    floats, xs, errors = result.floats, result.precisions, {}
    if len(floats) < len(graph.entries):  # a run computes a prefix of the ids
        raise GraphExecutionError(len(floats), "the run did not compute this node")
    for node, op, i, j in graph.entries:
        nid, fc, x = node.id, floats[node.id], xs[node.id]
        if op is _INPUT:
            v = input_error_variance(x)
        elif fc == 0.0:
            v = 0.0
        elif op is _ADD or op is _SUB:
            # the frame is the stored result, not a ± b: operands wider
            # than 53 bits can collide in float while their exact sum is not 0
            v = rounding_variance(addsub_variance(floats[i], floats[j], fc, errors[i], errors[j]), x)
        else:
            v = rounding_variance(propagate_full_precision(
                op, floats[i], floats.get(j), errors[i], errors.get(j)), x)
        if not math.isfinite(v):
            raise GraphExecutionError(nid, "error variance left float range")
        errors[nid] = v
    return errors


def _planned(plan) -> Callable[[ExprNode, float, Optional[float]], int]:
    """The precision policy of :func:`run` that looks each node up in a plan."""
    assignment = getattr(plan, "assignment", plan)

    def planned(node: ExprNode, a: float, b: Optional[float]) -> int:
        try:
            return assignment[node.id]
        except KeyError:
            raise GraphExecutionError(node.id, "plan does not cover this node")

    return planned


def execute(graph: ExprGraph, plan, input_values: Mapping[int, Fraction],
            input_precision=53, params: EbfpParams = DEFAULT_PARAMS) -> ExecutionResult:
    """Run the graph under a precision plan (a :class:`PrecisionPlan` or a
    mapping from node id to bits): one lane of :func:`execute_lanes`."""
    out, = execute_lanes(graph, [plan], [input_values], input_precision, params)
    if isinstance(out, GraphExecutionError):
        raise out
    return out


# ---------------------------------------------------------------------------
# the float64 kernel: lanes of plans, or of a rule that decides as they run,
# one (level, op kind) group at a time
#
# A float64 op rounded to odd at 53 bits and then rounded half to even at
# s <= 51 bits equals the exact result rounded once at s bits (Boldo &
# Melquiond, IEEE TC 2008).  The float op rounds to nearest; the sign of its
# error is exact by TwoSum for add and sub, by Dekker's TwoProduct for mul,
# and by the residuals a - q*b for div and a - r*r for sqrt (Dekker 1971;
# a - p is exact by Sterbenz), which turns the nearest float into the odd one.

#: widest precision the float64 kernel runs: 53 >= (x + 1) + 2
KERNEL_MAX_X = 50
#: a pass runs in float64 when its lanes give each (level, op kind) group
#: this many elements on average.  Below it numpy's fixed cost per call is
#: more than the integer run spends per node: on the 2x2 precoder the run
#: is faster at 18 per group (4 lanes), they break even at 23 (5 lanes),
#: and the 4x4 precoder's 23 per group at one lane run 1.28 times as fast.
#: The online planner, which decides each group with as many numpy calls
#: again, crosses over at the same widths: 0.93 and 1.07 times the run's
#: speed on those 2x2 passes, 1.22 times on one 4x4 lane
KERNEL_MIN_WIDTH = 20
#: lanes per kernel pass: the arrays hold nodes x lanes, so a pass bounds
#: the memory whatever the number of lanes, and 16 lanes give even the
#: 4x4 precoder's groups 370 elements, where a numpy call's fixed cost is
#: small against its elements
KERNEL_MAX_LANES = 16
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a 53-bit significand


def _groups(graph: ExprGraph) -> Dict[tuple, list]:
    """Each (level, op kind) group's (id, first operand, second operand or
    None) rows."""
    by_group: Dict[tuple, list] = {}
    for node, op, i, j in graph.entries:
        if op is not _INPUT:
            by_group.setdefault((node.step[0], op), []).append((node.id, i, j))
    return by_group


def _tables(graph: ExprGraph) -> tuple:
    """The kernel's layout of the graph.  Columns hold the inputs in id
    order, then each group in level order, so a group writes one slice:
    (groups as (op, start, stop, first operand columns, second operand
    columns or None, whether some first operand is an input, whether some
    second one is), each id's column, the operations' columns in id order
    and their ids, and per column whether its first, or second, operand is
    an input)."""
    by_group = graph.table(_groups)
    keys = sorted(by_group)  # by level, then by the op kind's name
    order = graph.inputs + [nid for key in keys for nid, _, _ in by_group[key]]
    n_in = len(graph.inputs)
    pos = np.empty(len(order), dtype=np.intp)
    pos[order] = np.arange(len(order))
    first, second = np.zeros(len(order), dtype=bool), np.zeros(len(order), dtype=bool)
    groups, start = [], n_in
    for (_, op), rows in zip(keys, map(by_group.get, keys)):
        stop = start + len(rows)
        i = pos[[r[1] for r in rows]]
        j = None if op is _SQRT else pos[[r[2] for r in rows]]
        first[start:stop] = i < n_in
        if j is not None:
            second[start:stop] = j < n_in
        groups.append((op, start, stop, i, j, first[start:stop].any(), second[start:stop].any()))
        start = stop
    return groups, pos, pos[graph.op_ids], np.array(graph.op_ids, dtype=np.intp), first, second


def _plan_row(graph: ExprGraph, plan, max_x: int) -> Optional[np.ndarray]:
    """The plan's precisions of ``graph.op_ids`` (a planner's array as it
    is), or None unless every one is an ``int`` in [1, max_x]."""
    xs = plan.row(graph.op_ids) if hasattr(plan, "row") else None
    if xs is None:
        try:
            xs = list(map(getattr(plan, "assignment", plan).__getitem__, graph.op_ids))
            xs = np.array(xs, dtype=np.int64) if set(map(type, xs)) == {int} else None
        except Exception:  # run names the node, or raises what it raises
            return None
    ok = xs is not None and xs.dtype == np.int64 and 1 <= xs.min() and xs.max() <= max_x
    return xs if ok else None


def _lane_inputs(graph: ExprGraph, input_values, input_precision, params) -> Optional[tuple]:
    """(floats, precisions) of one lane's stored inputs, or None where an
    input fails or is not exact in float64; a :class:`StoredInputs`' own."""
    per_input = hasattr(input_precision, "keys")
    floats, xs = [], []
    try:
        key, got = getattr(input_values, "stored", (None, None))
        if key == (graph.inputs, input_precision, params):
            return got
        for nid in graph.inputs:
            x = input_precision[nid] if per_input else input_precision
            if type(x) is not int:
                return None
            v = round_to_precision(input_values[nid], x, params)
            if (m := v.field) and (m >> (m & -m).bit_length() - 1).bit_length() > 53:
                return None
            floats.append(_shadow(v))
            xs.append(x)
    except Exception:  # run names the input, or raises what it raises
        return None
    return floats, xs


class StoredInputs(dict):
    """One lane's input values by input id, stored once for the float64
    kernel at the graph, input precision and geometry given (a pass at
    others stores them again): a sweep runs each channel many times."""

    def __init__(self, graph: ExprGraph, input_values, input_precision=53, params=DEFAULT_PARAMS):
        super().__init__(input_values)
        key = list(graph.inputs), input_precision, params
        self.stored = key, _lane_inputs(graph, self, input_precision, params)


def _product_error(a, b, p):
    """a*b - p exactly, for p = a*b rounded (Dekker's TwoProduct)."""
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    c = b * _SPLIT
    bh = c - (c - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _rounding(x) -> tuple:
    """The shift and masks that round a 53-bit significand half to even at
    x + 1 bits, on the int view: (bits dropped, half an ulp less one, mask)."""
    k = 52 - x  # the bits a 53-bit significand drops to keep x + 1
    return k, (1 << (k - 1)) - 1, -(1 << k)


def _nearest(op, a, b) -> tuple:
    """(y, r): y is a op b rounded to nearest, and r has the sign of the
    exact result - y (b is None for sqrt)."""
    if op is _SQRT:
        y = np.sqrt(a)
        p = y * y
        return y, (a - p) - _product_error(y, y, p)
    if op is _ADD:
        y = a + b
        t = y - a
        return y, (a - (y - t)) + (b - t)
    if op is _SUB:
        y = a - b
        t = y - a
        return y, (a - (y - t)) - (b + t)
    if op is _MUL:
        y = a * b
        return y, _product_error(a, b, y)
    y = a / b
    p = y * b
    return y, ((a - p) - _product_error(y, b, p)) * np.sign(b)


def _lane_result(graph: ExprGraph, tables, v, x, max_x: int,
                 params) -> Union[ExecutionResult, GraphExecutionError, None]:
    """One lane's result from its columns.  They are run's values up to the
    first node whose value leaves [2**-R, 2**R), R = F * max_block_exp (a
    zero divisor and a negative root leave it too), so that node gives
    run's error.  None where a precision above ``max_x``, which the kernel
    does not round, comes first."""
    _, pos, _, op_ids, _, _ = tables
    v, x = v[pos] + 0.0, x[pos]  # in id order, and -0.0 is 0.0
    r, a = params.block_bits << (params.exponent_bits - 2), np.abs(v)
    bad = np.flatnonzero(~(a < 2.0 ** r) | ((0 < a) & (a < 2.0 ** -r)))  # a nan too
    nid = min(bad[:1].tolist() + op_ids[x[op_ids] > max_x][:1].tolist(), default=-1)
    if nid < 0:
        zeros = [i for i in np.flatnonzero(v == 0).tolist() if graph.nodes[i].op is not _INPUT]
        return ExecutionResult(v, x, graph.outputs, zeros, params)
    _, op, i, j = graph.entries[nid]  # run's checks at a node, in run's order
    if op is _DIV and v[j] == 0:
        return GraphExecutionError(nid, "division by zero")
    if op is _SQRT and v[i] < 0:
        return GraphExecutionError(nid, "sqrt of a negative value")
    return None if x[nid] > max_x else \
        GraphExecutionError(nid, (Flag.UNDERFLOW if a[nid] < 1 else Flag.OVERFLOW).value)


def _wide(graph: ExprGraph, n_lanes: int) -> bool:
    """Whether ``n_lanes`` lanes give each (level, op kind) group
    :data:`KERNEL_MIN_WIDTH` elements on average."""
    n_ops = len(graph.nodes) - len(graph.inputs)
    if n_lanes * n_ops < KERNEL_MIN_WIDTH * max(graph._level_width, default=0):
        return False  # too narrow whatever the groups: each level holds one at least
    n_groups = len(graph.table(_groups))
    return n_groups > 0 and n_lanes * n_ops >= KERNEL_MIN_WIDTH * n_groups


def _kernel_pass(graph: ExprGraph, part: list, input_precision, params,
                 rule) -> Optional[Callable[[int], object]]:
    """One pass of (plan, input values) lanes on the float64 kernel:
    ``lane(l)`` gives the l-th lane's output, or None where that lane takes
    its scalar path; None where the kernel takes no lane of the pass.

    Without a rule each lane runs its plan, and its output is its
    :class:`ExecutionResult`.  A rule ``(decide, seed, finish)`` decides
    each group just before the group is rounded: ``decide(op, a, b, y, ra,
    rb, sa, sb)`` gives the group's precisions and one state value per
    node from its operands ``a`` and ``b``, its results rounded to nearest
    ``y``, its operands' state ``ra`` and ``rb`` (0 at an input), and
    ``sa`` and ``sb``, the node's seed ((ids, seeds) in ``seed``) where
    that operand is an input and 0 elsewhere, or None where no operand in
    that place is an input (``b``, ``rb`` and ``sb`` are None for sqrt).  A
    lane's output is then ``finish(result, its precisions, its state)``,
    both in ``graph.op_ids`` order.  A seed that is not finite keeps the
    pass off the kernel; see :func:`_lane_result` for failing lanes.
    """
    f = params.block_bits
    if 2 * f * (1 << (params.exponent_bits - 2)) > 970 or not _wide(graph, len(part)):
        return None
    tables = groups, pos, cols, _, first, second = graph.table(_tables)
    max_x = min(KERNEL_MAX_X, (params.max_blocks - 1) * f)
    lanes = range(len(part))
    if rule is None:
        plans = {id(plan): plan for plan, _ in part}
        xs = {k: _plan_row(graph, plan, max_x) for k, plan in plans.items()}  # by plan object
        lanes = [l for l, (plan, _) in enumerate(part) if xs[id(plan)] is not None]
        if not _wide(graph, len(lanes)):
            return None
    else:
        decide, seed, finish = rule
        by_col = np.zeros(len(pos))
        by_col[pos[seed[0]]] = seed[1]
        if not np.isfinite(by_col).all():  # a nan route, seed times zero weight,
            return None  # sorts last in searchsorted and first in bisect_left
        seed_a, seed_b = np.where(first, by_col, 0.0)[:, None], np.where(second, by_col, 0.0)[:, None]
    ins = {l: _lane_inputs(graph, part[l][1], input_precision, params) for l in lanes}
    col = {l: c for c, l in enumerate(l for l, got in ins.items() if got is not None)}
    if not col:
        return None
    n_in = len(graph.inputs)
    v = np.empty((len(pos), len(col)))
    x = np.empty(v.shape, dtype=np.int64)
    for l, c in col.items():
        v[:n_in, c], x[:n_in, c] = ins[l]
        if rule is None:
            x[cols, c] = xs[id(part[l][0])]
    if rule is None:
        whole = _rounding(x)
    else:
        s = np.zeros(v.shape)
    with np.errstate(all="ignore"):  # a failing lane's garbage stays in its column
        for op, start, stop, i, j, has_a, has_b in groups:
            a, b = v[i], None if j is None else v[j]
            y, r = _nearest(op, a, b)
            if rule is None:
                k, half, keep = whole[0][start:stop], whole[1][start:stop], whole[2][start:stop]
            else:
                x[start:stop], s[start:stop] = decide(
                    op, a, b, y, s[i], None if j is None else s[j],
                    seed_a[start:stop] if has_a else None, seed_b[start:stop] if has_b else None)
                k, half, keep = _rounding(x[start:stop])
            # on the int view, which orders each sign's magnitudes: round to
            # odd at 53 bits (an inexact result is truncated and its last bit
            # set), then half to even at x + 1 bits
            m = (y.view(np.int64) - (r * np.sign(y) < 0)) | (r != 0)
            m = (m + half + ((m >> k) & 1)) & keep
            v[start:stop] = m.view(np.float64)

    def lane(l):  # checked one lane at a time, as it is asked for
        c = col.get(l)
        if c is None:
            return None
        with np.errstate(all="ignore"):
            res = _lane_result(graph, tables, v[:, c], x[:, c], max_x, params)
        return res if rule is None or type(res) is not ExecutionResult else \
            finish(res, x[cols, c], s[cols, c])

    return lane


def run_lanes(graph: ExprGraph, items: Iterable[tuple], scalar: Callable, input_precision,
              params: EbfpParams, rule: Optional[tuple] = None) -> Iterator:
    """Each lane's output, for ``items`` of (plan, input values) pairs taken
    a pass of :data:`KERNEL_MAX_LANES` at a time: the float64 kernel's where
    it takes the lane, or run's :class:`GraphExecutionError` where the lane
    fails there (see :func:`execute_lanes` for plans and :func:`_kernel_pass`
    for a ``rule``), and otherwise, the lane whole, ``scalar(plan, input
    values)``'s or the :class:`GraphExecutionError` that it raises."""
    items = iter(items)
    while part := list(islice(items, KERNEL_MAX_LANES)):
        lane = _kernel_pass(graph, part, input_precision, params, rule)
        for l, (plan, vals) in enumerate(part):
            got = lane(l) if lane else None
            if got is None:
                try:
                    got = scalar(plan, vals)
                except GraphExecutionError as err:
                    got = err
            yield got


def execute_lanes(graph: ExprGraph, plans: Iterable, lanes: Iterable[Mapping[int, Fraction]],
                  input_precision=53, params: EbfpParams = DEFAULT_PARAMS
                  ) -> Iterator[Union[ExecutionResult, GraphExecutionError]]:
    """Each lane's result, or the :class:`GraphExecutionError` of its
    :func:`run`: lane ``l`` runs the l-th plan on the l-th input values.
    Both are taken a pass of :data:`KERNEL_MAX_LANES` at a time, so
    generators keep only one pass's plans and inputs alive.

    A lane runs in float64, with the other such lanes of its pass of
    :data:`KERNEL_MAX_LANES`, one (level, op kind) group at a time, when
    every planned precision is an ``int`` in [1, :data:`KERNEL_MAX_X`] that
    the block budget holds, every stored input is exact in float64, and the
    geometry's range of 2**±R, R = F * max_block_exp, keeps TwoProduct's
    low part exact (2R <= 1022 - 52); and only when those lanes give each
    group :data:`KERNEL_MIN_WIDTH` elements on average.  Any other lane
    runs whole through :func:`run`; a kernel lane that fails gives run's
    error from its columns.
    """
    # a ValueError where plans or lanes run out first
    yield from run_lanes(graph, zip(plans, lanes, strict=True),
                         lambda plan, vals: run(graph, _planned(plan), vals, input_precision, params),
                         input_precision, params)
