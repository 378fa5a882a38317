"""Recorded expression graphs.

An algorithm is recorded once as a DAG of basic arithmetic operations
(inputs at level 0, each operation one node), then executed any number of
times under different precision plans.  Execution computes values only,
through the exact-then-round scalar arithmetic.  One loop, :func:`run`,
does this for every precision policy: :func:`execute` looks each node up
in a plan, and the online planner decides while it runs.  The stochastic
error model is a separate pass over what a run computed:
:func:`predicted_errors` gives each node's relative-error variance.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
    operand, second operand or None)`` per node), ``consumers`` and ``inputs``."""

    def __init__(self):
        self.nodes: List[ExprNode] = []
        self.entries: List[tuple] = []
        self.consumers: List[List[int]] = []
        self.inputs: List[int] = []
        self._level_width: Dict[int, int] = {}
        self._explicit_outputs: List[int] = []

    def record(self, op, operands: Sequence[int] = (), part: str = None) -> int:
        """Append a node; returns its id.  Operand ids must already exist."""
        op = OpKind(op)
        operands = tuple(operands)
        if len(operands) != ARITY[op]:
            raise ValueError(f"{op.value} takes {ARITY[op]} operands, got {len(operands)}")
        for o in operands:
            if not 0 <= o < len(self.nodes):
                raise ValueError(f"unknown operand id {o}")
        n = 0 if op is _INPUT else 1 + max(self.nodes[o].step[0] for o in operands)
        k = self._level_width.get(n, 0) + 1
        self._level_width[n] = k
        node = ExprNode(len(self.nodes), op, operands, (n, k), part)
        self.nodes.append(node)
        self.entries.append((node, op, *(operands + (None, None))[:2]))
        self.consumers.append([])
        for o in operands:
            self.consumers[o].append(node.id)
        if op is _INPUT:
            self.inputs.append(node.id)
        return node.id

    def add_input(self) -> int:
        return self.record(_INPUT)

    def mark_output(self, node_id: int) -> None:
        if not 0 <= node_id < len(self.nodes):
            raise ValueError(f"unknown node id {node_id}")
        if node_id in self._explicit_outputs:
            raise ValueError(f"node {node_id} is already an output")
        self._explicit_outputs.append(node_id)

    @property
    def outputs(self) -> List[int]:
        """The marked outputs, or else every operation without a consumer."""
        if self._explicit_outputs:
            return list(self._explicit_outputs)
        return [n.id for n, c in zip(self.nodes, self.consumers) if not c and n.op is not _INPUT]

    def non_input_ids(self) -> List[int]:
        return [n.id for n in self.nodes if n.op is not _INPUT]

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
        g, outs = cls(), {}
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            got = g.record(rec["op"], rec["operands"], rec.get("part"))
            if got != rec["id"]:
                raise ValueError("node ids must be dense and in topological order")
            if "output" in rec:
                outs[rec["output"]] = got
        g._explicit_outputs = [outs[i] for i in sorted(outs)]
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
    values: Dict[int, EbfpNumber]
    #: each node's value as a float, equal to ``float(decode(values[i]))``
    floats: Dict[int, float]
    #: each node's precision in bits, inputs included
    precisions: Dict[int, int]
    output_ids: List[int]
    #: operations whose value is exactly zero, where the relative-error
    #: frame is degenerate (see :func:`predicted_errors`)
    degenerate_zero: List[int] = field(default_factory=list)

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
    floats, xs, degenerate = {}, {}, []
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
            x = choose(node, floats[i], floats.get(j))
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
            values[nid], xs[nid] = out, x
            floats[nid] = _shadow(out)
        except (ValueError, ArithmeticError) as e:
            raise GraphExecutionError(nid, str(e))
        except KeyError:  # only an input looks anything up here
            raise GraphExecutionError(nid, "no input value or input precision")
        if out.flags is _ZERO and op is not _INPUT:
            degenerate.append(nid)
    return ExecutionResult(values, floats, xs, graph.outputs, degenerate)


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


def execute(graph: ExprGraph, plan, input_values: Mapping[int, Fraction],
            input_precision=53, params: EbfpParams = DEFAULT_PARAMS) -> ExecutionResult:
    """Run the graph under a precision plan (a :class:`PrecisionPlan` or a
    mapping from node id to bits); see :func:`run`."""
    assignment = getattr(plan, "assignment", plan)

    def planned(node: ExprNode, a: float, b: Optional[float]) -> int:
        try:
            return assignment[node.id]
        except KeyError:
            raise GraphExecutionError(node.id, "plan does not cover this node")

    return run(graph, planned, input_values, input_precision, params)
