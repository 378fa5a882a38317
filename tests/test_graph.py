"""Tests for expression-graph recording and execution."""

import hashlib
import io
import json
import math
import random
import re
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from varprec import ebfp, graph as graph_module
from varprec.ebfp import EbfpNumber, EbfpParams, Flag, arith, decode, encode, round_to_precision
from varprec.graph import (
    ExprGraph,
    GraphExecutionError,
    OpKind,
    StoredInputs,
    execute,
    execute_lanes,
    predicted_errors,
    run,
    topo_stats,
)
from varprec.errormodel import (
    addsub_variance,
    input_error_variance,
    propagate_full_precision,
    rounding_variance,
)
from varprec.mimo import build_zf_graph, gen_channel
from varprec.optimizer import ComplexityModel, UtilityConfig, fixed_plan, offline_vpc, online_vpc


def fig3_style_graph():
    """Six-operation graph with a shared node and a sub feeding a mul."""
    g = ExprGraph()
    x = [g.add_input() for _ in range(5)]          # ids 0..4, steps (0,1)..(0,5)
    n11 = g.record("add", [x[0], x[1]])            # (1,1)
    n12 = g.record("sub", [x[2], x[3]])            # (1,2)
    n21 = g.record("mul", [n11, x[0]])             # (2,1)
    n22 = g.record("mul", [n12, x[4]])             # (2,2)
    n31 = g.record("div", [n21, n22])              # (3,1)
    n41 = g.record("add", [n31, n21])              # (4,1): n21 shared
    return g, x, n11, n12, n21, n22, n31, n41


class TestRecord:
    def test_smallest_case_step(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("add", [a, b])
        assert g.nodes[s].step == (1, 1)

    def test_six_op_graph_steps(self):
        g, x, n11, n12, n21, n22, n31, n41 = fig3_style_graph()
        assert g.nodes[n22].step == (2, 2)
        assert g.nodes[n22].operands == (n12, x[4])
        assert g.nodes[n41].step == (4, 1)

    def test_arity_checks(self):
        g = ExprGraph()
        a = g.add_input()
        with pytest.raises(ValueError):
            g.record("add", [a])
        with pytest.raises(ValueError):
            g.record("sqrt", [a, a])
        with pytest.raises(ValueError):
            g.record("mul", [a, 99])

    def test_outputs_default_to_sinks(self):
        g, *_, n41 = fig3_style_graph()
        assert g.outputs == [n41]

    def test_jsonl_roundtrip(self):
        g, *_ = fig3_style_graph()
        buf = io.StringIO()
        g.dump_jsonl(buf, plan={5: 10})
        buf.seek(0)
        g2 = ExprGraph.load_jsonl(buf)
        assert [n.op for n in g2.nodes] == [n.op for n in g.nodes]
        assert [n.operands for n in g2.nodes] == [n.operands for n in g.nodes]
        assert [n.step for n in g2.nodes] == [n.step for n in g.nodes]

    def test_jsonl_skips_blank_lines(self):
        g, *_ = fig3_style_graph()
        buf = io.StringIO()
        g.dump_jsonl(buf)
        lines = buf.getvalue().splitlines(keepends=True)
        g2 = ExprGraph.load_jsonl(["\n", *lines[:3], "  \n", *lines[3:], "\n"])
        assert [(n.op, n.operands, n.step) for n in g2.nodes] == \
            [(n.op, n.operands, n.step) for n in g.nodes]

    @pytest.mark.parametrize("ids", [[0, 2], [1], [0, 0]], ids=["gap", "not-from-0", "repeat"])
    def test_jsonl_rejects_ids_that_are_not_dense(self, ids):
        lines = [json.dumps({"id": i, "op": "input", "operands": [], "step": [0, i + 1]})
                 for i in ids]
        with pytest.raises(ValueError, match="node ids must be dense"):
            ExprGraph.load_jsonl(lines)

    @pytest.mark.parametrize("key, bad", [("operands", True), ("operands", 1.0), ("operands", 0.0),
                                          ("operands", "0"), ("id", True), ("id", 1.0)],
                             ids=["operand-bool", "operand-float", "operand-float-0",
                                  "operand-str", "id-bool", "id-float"])
    def test_jsonl_rejects_ids_that_are_not_integers(self, key, bad):
        # a sqrt of node 1 written as true, 1.0 or "0" is no sqrt of an
        # input, and true or 1.0 is no node id 1
        recs = [{"id": 0, "op": "input", "operands": []}, {"id": 1, "op": "input", "operands": []},
                {"id": 2, "op": "sqrt", "operands": [1]}]
        if key == "operands":
            recs[2]["operands"] = [bad]
            message = f"unknown operand id {bad!r}"
        else:
            recs[1]["id"] = bad
            message = "node ids must be dense"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExprGraph.load_jsonl(map(json.dumps, recs))

    def test_jsonl_roundtrip_keeps_outputs(self):
        # the 4x4 precoder marks its 32 outputs; its unmarked sinks must not
        # become outputs on reload
        g = build_zf_graph(4, 4).graph
        buf = io.StringIO()
        g.dump_jsonl(buf)
        buf.seek(0)
        assert len(g.outputs) == 32
        assert ExprGraph.load_jsonl(buf).outputs == g.outputs

    @pytest.mark.parametrize("indices, bad", [([0, 0], 0), ([5], 5), ([0, 2], 2),
                                              ([0, True], True), ([0, 1.0], 1.0), (["0", 1], "0")],
                             ids=["repeat", "lone", "gap", "bool", "float", "str"])
    def test_jsonl_rejects_output_indices_that_are_not_0_to_k(self, indices, bad):
        # two "output": 0 lines must not load as one output, nor a lone
        # "output": 5 as output 0: the indices are 0..k-1, each once, and
        # each an integer (true is no 1, nor 1.0, nor "0" a 0)
        g, *_ = fig3_style_graph()
        buf = io.StringIO()
        g.dump_jsonl(buf)
        recs = [{k: v for k, v in json.loads(line).items() if k != "output"}
                for line in buf.getvalue().splitlines()]
        for rec, i in zip(recs[-len(indices):], indices):
            rec["output"] = i
        with pytest.raises(ValueError, match=f"output index {bad!r} repeats"):
            ExprGraph.load_jsonl(map(json.dumps, recs))

    def test_node_recorded_after_a_run_executes(self):
        # record keeps the views current; a node recorded after a run must run
        g, x, n11, n12, n21, n22, n31, n41 = fig3_style_graph()
        vals = {i: Fraction(i + 2, 3) for i in x}
        first = execute(g, {n: 20 for n in g.non_input_ids()}, vals)
        assert first.output_ids == [n41]
        g.mark_output(n41)
        sq = g.record("sqrt", [x[4]])
        g.mark_output(sq)
        again = execute(g, {n: 20 for n in g.non_input_ids()}, vals)
        assert again.output_ids == [n41, sq]
        assert again.floats[sq] == pytest.approx(math.sqrt(2), rel=2 ** -20)
        assert g.consumers[x[4]] == [n22, sq]

    def test_pass_over_a_run_from_before_a_node_was_recorded(self):
        # the variance pass names the first node the run did not compute
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("add", [a, b])
        res = execute(g, {s: 20}, {a: Fraction(1), b: Fraction(3)})
        sq = g.record("sqrt", [s])
        g.record("mul", [sq, a])
        with pytest.raises(GraphExecutionError) as err:
            predicted_errors(g, res)
        assert (err.value.node_id, err.value.reason) == (sq, "the run did not compute this node")

    def test_mark_output_rejects_unknown_id(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("add", [a, b])
        for bad in (99, 3, -1):
            with pytest.raises(ValueError, match="unknown node id"):
                g.mark_output(bad)
        assert g.outputs == [s]

    def test_mark_output_rejects_a_repeat(self):
        # a repeated output would be lost by the JSON-lines round trip,
        # which keeps one output index per node
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("add", [a, b])
        p = g.record("mul", [s, a])
        g.mark_output(p)
        g.mark_output(s)
        for again in (p, s):
            with pytest.raises(ValueError, match="already an output"):
                g.mark_output(again)
        buf = io.StringIO()
        g.dump_jsonl(buf)
        buf.seek(0)
        assert g.outputs == ExprGraph.load_jsonl(buf).outputs == [p, s]

    @pytest.mark.parametrize("n", [4, 8])
    def test_views_equal_a_rebuild_from_nodes(self, n):
        # the precoder and a small graph with a dead sink, each as recorded,
        # reloaded from JSON lines, and reloaded without the "output" keys,
        # whose outputs are then the implicit ones
        d = ExprGraph()
        a, b = d.add_input(), d.add_input()
        s = d.record("add", [a, b])
        dead = d.record("mul", [a, b])
        d.mark_output(s)
        zf = build_zf_graph(n, n).graph
        implicit = {}
        for g in (zf, d):
            buf = io.StringIO()
            g.dump_jsonl(buf)
            lines = buf.getvalue().splitlines()
            unmarked = [json.dumps({k: v for k, v in json.loads(line).items() if k != "output"})
                        for line in lines]
            for h in (g, ExprGraph.load_jsonl(lines), ExprGraph.load_jsonl(unmarked)):
                consumers = [[] for _ in h.nodes]
                for node in h.nodes:
                    for o in node.operands:
                        consumers[o].append(node.id)
                assert h.entries == [(node, node.op, *(node.operands + (None, None))[:2])
                                     for node in h.nodes]
                assert h.consumers == consumers
                assert h.inputs == [node.id for node in h.nodes if node.op is OpKind.INPUT]
            used = {o for node in h.nodes for o in node.operands}
            assert h.outputs == [node.id for node in h.nodes
                                 if node.op is not OpKind.INPUT and node.id not in used]
            implicit[g] = h.outputs
        assert implicit[d] == [s, dead] and d.outputs == [s]
        # the precoder has no dead sink: its implicit outputs are the marked ones
        assert sorted(implicit[zf]) == sorted(zf.outputs) and len(zf.outputs) == 2 * n * n


class TestTopoStats:
    def test_six_op_counts(self):
        g, *_ = fig3_style_graph()
        st = topo_stats(g)
        assert st.total_arith == 6
        assert st.depth == 4
        assert st.op_counts[OpKind.ADD] == 2
        assert st.level_widths[2] == 2

    def test_inputs_only(self):
        g = ExprGraph()
        g.add_input(); g.add_input()
        st = topo_stats(g)
        assert st.depth == 0 and st.total_arith == 0

    @pytest.mark.parametrize("graph", ["zf8", "inputs-only"])
    def test_widths_and_depth_follow_the_steps(self, graph):
        if graph == "zf8":
            g = build_zf_graph(8, 8).graph
        else:
            g = ExprGraph()
            g.add_input(); g.add_input()
        widths = {}
        for n in g.nodes:
            widths[n.step[0]] = max(widths.get(n.step[0], 0), n.step[1])
        st = topo_stats(g)
        assert st.level_widths == widths
        assert list(st.level_widths) == list(widths)
        assert st.depth == max(n.step[0] for n in g.nodes)


class TestExecute:
    def test_single_add_value_and_error(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("add", [a, b])
        res = execute(g, {s: 20}, {a: Fraction(1), b: Fraction(1)}, input_precision=20)
        assert decode(res.values[s]) == 2
        iv = input_error_variance(20)
        sc2 = propagate_full_precision("add", 1.0, 1.0, iv, iv)
        assert math.isclose(sc2, iv / 2)
        assert math.isclose(predicted_errors(g, res)[s], rounding_variance(sc2, 20))

    def test_mul_by_one_identity(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        m = g.record("mul", [a, b])
        res = execute(g, {m: 14}, {a: Fraction(355, 113), b: Fraction(1)},
                      input_precision=14)
        assert res.values[m] == res.values[a]

    def test_error_composition_through_sub_and_mul(self):
        # pre-rounding variance of a mul equals the sum of its operands'
        # post-rounding variances (cross term aside), with the sub operand
        # expanded through the value-dependent formula
        g = ExprGraph()
        x3, x4, x5 = g.add_input(), g.add_input(), g.add_input()
        n12 = g.record("sub", [x3, x4])
        n22 = g.record("mul", [n12, x5])
        vals = {x3: Fraction(5), x4: Fraction(3), x5: Fraction(7, 2)}
        xin = 18
        res = execute(g, {n12: 12, n22: 12}, vals, input_precision=xin)
        iv = input_error_variance(xin)
        s12c = propagate_full_precision("sub", 5.0, 3.0, iv, iv)
        s12 = rounding_variance(s12c, 12)
        s22c = s12 + iv + s12 * iv
        assert math.isclose(predicted_errors(g, res)[n22], rounding_variance(s22c, 12),
                            rel_tol=1e-12)

    def test_singular_subtraction_reports_node(self):
        # an exact cancellation has no relative-error frame: the node is
        # reported as degenerate, its value is the exact zero, and its
        # variance is pinned to 0
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("sub", [a, b])
        res = execute(g, {s: 10}, {a: Fraction(2), b: Fraction(2)}, input_precision=30)
        assert res.degenerate_zero == [s]
        assert decode(res.values[s]) == 0
        assert predicted_errors(g, res)[s] == 0.0

    def test_zero_flows_through_consumers(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("sub", [a, b])      # exact zero
        m = g.record("mul", [s, a])      # zero again
        t = g.record("add", [m, b])      # back to b
        res = execute(g, {s: 10, m: 10, t: 10}, {a: Fraction(2), b: Fraction(2)},
                      input_precision=30)
        assert decode(res.values[t]) == 2
        assert set(res.degenerate_zero) == {s, m}
        assert res.floats == {i: float(decode(v)) for i, v in res.values.items()}

    def test_division_by_zero_reports_node(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        d = g.record("div", [a, b])
        with pytest.raises(GraphExecutionError) as ei:
            execute(g, {d: 10}, {a: Fraction(1), b: Fraction(0)})
        assert ei.value.node_id == d

    def test_deterministic(self):
        g, x, *_rest = fig3_style_graph()
        vals = {i: Fraction(v) for i, v in zip(x, [3, 5, 11, 4, 9])}
        plan = {nid: 13 for nid in g.non_input_ids()}
        r1 = execute(g, plan, vals, input_precision=16)
        r2 = execute(g, plan, vals, input_precision=16)
        assert r1.values == r2.values
        assert r1.precisions == r2.precisions
        assert predicted_errors(g, r1) == predicted_errors(g, r2)

    def test_plan_must_cover(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("add", [a, b])
        with pytest.raises(GraphExecutionError):
            execute(g, {}, {a: Fraction(1), b: Fraction(2)})

    @pytest.mark.parametrize("x", [0, -3])
    def test_plan_precision_below_one_reports_node(self, x):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("add", [a, b])
        p = g.record("mul", [s, b])
        with pytest.raises(GraphExecutionError) as ei:
            execute(g, {s: 10, p: x}, {a: Fraction(1), b: Fraction(2)})
        assert (ei.value.node_id, ei.value.reason) == (p, "precision x must be >= 1")

    def test_input_precision_beyond_geometry_reports_input(self):
        # 53 bits need more blocks than EbfpParams(1, 10, 20) holds
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("add", [a, b])
        with pytest.raises(GraphExecutionError) as ei:
            execute(g, {s: 10}, {a: Fraction(1), b: Fraction(2)}, 53, EbfpParams(1, 10, 20))
        assert ei.value.node_id == a

    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_addsub_variance_is_scale_free(self, op):
        # squares of operands beyond 2**512 overflow a float: scaling both
        # operands by 2**600 must leave the variance exactly as it was
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record(op, [a, b])
        params = EbfpParams(1, 13, 80)
        c = Fraction(2) ** 600
        plain = execute(g, {s: 20}, {a: Fraction(3), b: Fraction(1)}, 53, params)
        scaled = execute(g, {s: 20}, {a: 3 * c, b: c}, 53, params)
        assert predicted_errors(g, plain)[s] > 0
        assert predicted_errors(g, scaled)[s] == predicted_errors(g, plain)[s]


def _mul_graph():
    g = ExprGraph()
    a, b = g.add_input(), g.add_input()
    return g, a, b, g.record("mul", [a, b])


def _online(g, vals, xin, params):
    return online_vpc(g, UtilityConfig(alpha=1e-9), ComplexityModel(), vals, 10, xin, params)


class TestFailures:
    """Every node that cannot be computed fails as a GraphExecutionError
    naming the node and the reason."""

    def test_interior_saturation(self):
        # 10 * 10 = 100 lies beyond the exponent range of E = 4
        g, a, b, m = _mul_graph()
        vals, params = {a: Fraction(10), b: Fraction(10)}, EbfpParams(1, 4, 80)
        for run_it in (lambda: execute(g, {m: 20}, vals, 20, params),
                       lambda: _online(g, vals, 20, params)):
            with pytest.raises(GraphExecutionError) as ei:
                run_it()
            assert (ei.value.node_id, ei.value.reason) == (m, "saturated-overflow")

    def test_interior_block_budget(self):
        # 12-bit inputs fit in 20 one-bit blocks; a 30-bit product does not
        g, a, b, m = _mul_graph()
        with pytest.raises(GraphExecutionError) as ei:
            execute(g, {m: 30}, {a: Fraction(10), b: Fraction(10)}, 12, EbfpParams(1, 10, 20))
        assert ei.value.node_id == m
        assert ei.value.reason == "precision exceeds max_blocks for these parameters"

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_input(self, bad):
        g, a, b, m = _mul_graph()
        with pytest.raises(GraphExecutionError) as ei:
            execute(g, {m: 20}, {a: Fraction(1), b: bad})
        assert ei.value.node_id == b
        assert "cannot convert" in ei.value.reason

    def test_deep_cancellation_has_finite_variance(self):
        # (1 + 2**-530) - 1: the exact result lies 2**530 below the operands
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("sub", [a, b])
        vals, params = {a: 1 + Fraction(2) ** -530, b: Fraction(1)}, EbfpParams(8, 10, 80)
        for res in (execute(g, {s: 20}, vals, 560, params), _online(g, vals, 560, params)[0]):
            assert decode(res.values[s]) == Fraction(2) ** -530
            assert math.isfinite(predicted_errors(g, res)[s])

    def test_variance_beyond_float_range(self):
        # 2**500 at 1 bit minus its neighbour 2**-512 below: the result is a
        # float, but its relative-error variance is about 2**2017.  The run
        # computes the value; the error model's pass fails the node
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("sub", [a, b])
        vals = {a: Fraction(2) ** 500, b: Fraction(2) ** 500 - Fraction(2) ** -512}
        xin, params = {a: 1, b: 1016}, EbfpParams(8, 10, 200)
        for res in (execute(g, {s: 20}, vals, xin, params), _online(g, vals, xin, params)[0]):
            assert decode(res.values[s]) == Fraction(2) ** -512
            with pytest.raises(GraphExecutionError) as ei:
                predicted_errors(g, res)
            assert (ei.value.node_id, ei.value.reason) == (s, "error variance left float range")

    def test_missing_input_fails_its_node(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("add", [a, b])
        for run_it in (lambda: execute(g, {s: 20}, {a: Fraction(1)}),
                       lambda: execute(g, {s: 20}, {a: Fraction(1), b: Fraction(2)}, {a: 20}),
                       lambda: _online(g, {a: Fraction(1)}, 20, EbfpParams())):
            with pytest.raises(GraphExecutionError) as ei:
                run_it()
            assert (ei.value.node_id, ei.value.reason) == (b, "no input value or input precision")

    def test_precision_that_is_not_an_int(self):
        # a numpy integer runs as the int it holds, from the plan, from
        # one input precision or from a mapping; anything else fails the
        # node that reads it, naming the value
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        m = g.record("mul", [a, b])
        d = g.record("div", [m, b])
        vals = {a: Fraction(355, 113), b: Fraction(-7, 3)}
        want = execute(g, {m: 24, d: 30}, vals, 40)
        for plan, xin in (({m: np.int64(24), d: np.int32(30)}, 40),
                          ({m: 24, d: 30}, np.int64(40)),
                          ({m: 24, d: 30}, {a: np.int64(40), b: np.uint8(40)})):
            got = execute(g, plan, vals, xin)
            assert (got.values, got.floats, got.precisions) == \
                (want.values, want.floats, want.precisions)
            assert predicted_errors(g, got) == predicted_errors(g, want)
        for plan, xin, node, bad in (({m: 24, d: 30.0}, 40, d, "30.0"),
                                     ({m: 24.0, d: 30}, 40, m, "24.0"),
                                     ({m: 24, d: 30}, 40.0, a, "40.0"),
                                     ({m: 24, d: 30}, {a: 40, b: "40"}, b, "'40'")):
            with pytest.raises(GraphExecutionError) as ei:
                execute(g, plan, vals, xin)
            assert (ei.value.node_id, ei.value.reason) == (node, f"precision {bad} is not an integer")

    def test_policy_and_model_exceptions_propagate(self, monkeypatch):
        # a bug in the caller's policy, or in the error model under the
        # variance pass, is not a node failure
        g, a, b, m = _mul_graph()
        vals = {a: Fraction(3), b: Fraction(5)}

        def bad_policy(node, fa, fb):
            raise ValueError("policy bug")

        with pytest.raises(ValueError, match="policy bug"):
            run(g, bad_policy, vals)

        def bad_model(*args):
            raise ValueError("model bug")

        monkeypatch.setattr("varprec.graph.propagate_full_precision", bad_model)
        res = execute(g, {m: 20}, vals)
        with pytest.raises(ValueError, match="model bug"):  # GraphExecutionError is no ValueError
            predicted_errors(g, res)


def _fuzz_case(rng, params, cap):
    """A graph of 3 inputs and 1-12 random ops, and draws of a value and of
    a precision (at most ``cap`` bits, or 130 one time in ten), all from
    ``rng``.  Most precisions fit the block budget and most values sit
    inside the geometry's and float's ranges, so that most cases reach the
    ops."""
    f = params.block_bits
    g = ExprGraph()
    ids = [g.add_input() for _ in range(3)]
    for _ in range(rng.randint(1, 12)):
        op = rng.choice(("add", "sub", "mul", "div", "sqrt"))
        ids.append(g.record(op, rng.sample(ids, 1) if op == "sqrt" else rng.choices(ids, k=2)))
    fits = min(cap, (params.max_blocks - 1) * f)
    lo, hi = params.min_block_exp * f, params.max_block_exp * f

    def value():
        if rng.random() < 0.1:
            return rng.choice((Fraction(0), Fraction(1), Fraction(-1, 3)))
        top = rng.randint(lo - 20, hi + 20) if rng.random() < 0.2 else \
            rng.randint(max(lo // 2, -500), min(hi // 2, 500))
        m = rng.randint(-2 ** 70, 2 ** 70) or 1
        return Fraction(m, rng.choice((1, 3, 7))) * Fraction(2) ** (top - abs(m).bit_length())

    def precision():
        return rng.randint(1, 130 if rng.random() < 0.1 else fits)

    return g, value, precision


class TestFailureContract:
    """Once the constructors accept a geometry and a utility config, the
    executor and the online planner fail only with a GraphExecutionError
    that names a node of the graph."""

    @given(f=st.integers(1, 9), e=st.integers(2, 14), blocks=st.integers(2, 90),
           bounds=st.tuples(st.integers(1, 130), st.integers(1, 130)), e_b=st.integers(4, 14),
           alpha=st.sampled_from([1e-30, 1e-13, 1e-9, 1e-3, 1e3]), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=6000, deadline=None)
    def test_only_graph_execution_errors(self, f, e, blocks, bounds, e_b, alpha, seed):
        # the fuzz domain: 3 inputs, 1-12 ops, F 1-9, E 2-14, up to 90
        # blocks, precisions 1-130 and e_b 4-14.  The graph, its values and
        # its precisions come from the seed, since Hypothesis spends about
        # a millisecond per draw
        params = EbfpParams(f, e, blocks)
        cfg = UtilityConfig(alpha, min(bounds), max(bounds))
        g, value, precision = _fuzz_case(random.Random(seed), params, 130)
        vals = {i: value() for i in g.inputs}
        xin = {i: precision() for i in g.inputs}
        plan = {nid: precision() for nid in g.non_input_ids()}
        for call in (lambda: execute(g, plan, vals, xin, params),
                     lambda: online_vpc(g, cfg, ComplexityModel(), vals, e_b, xin, params)):
            try:
                call()
            except GraphExecutionError as err:
                assert 0 <= err.node_id < len(g.nodes)


def _random_graph(rng, n_ops=10, n_inputs=3):
    g = ExprGraph()
    ids = [g.add_input() for _ in range(n_inputs)]
    for _ in range(n_ops):
        op = ("add", "sub", "mul", "div", "sqrt")[rng.integers(0, 5)]
        if op == "sqrt":
            ids.append(g.record(op, [ids[rng.integers(0, len(ids))]]))
        else:
            a, b = ids[rng.integers(0, len(ids))], ids[rng.integers(0, len(ids))]
            ids.append(g.record(op, [a, b]))
    return g


def _safe_inputs(rng, g):
    # positive, spread-out values keep sub cancellations and sqrt domains benign
    return {i: Fraction(float(rng.uniform(0.5, 4.0))).limit_denominator(10 ** 9) * Fraction(3, 2) ** int(rng.integers(0, 3))
            for i in g.inputs}


class TestProperties:
    def test_refinement_never_hurts(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(60):
            g = _random_graph(rng, n_ops=6)
            vals = _safe_inputs(rng, g)
            base = {nid: 10 for nid in g.non_input_ids()}
            finer = {nid: 11 for nid in g.non_input_ids()}
            try:
                exact = execute(g, {nid: 64 for nid in g.non_input_ids()}, vals,
                                input_precision=64)
                lo = execute(g, base, vals, input_precision=64)
                hi = execute(g, finer, vals, input_precision=64)
            except GraphExecutionError:
                continue
            for oid in g.outputs:
                ref = decode(exact.values[oid])
                if ref == 0:
                    continue
                e_lo = abs(decode(lo.values[oid]) - ref) / abs(ref)
                e_hi = abs(decode(hi.values[oid]) - ref) / abs(ref)
                # one extra bit everywhere cannot make things worse beyond
                # its own rounding grain
                assert e_hi <= e_lo + Fraction(1, 2 ** 11)
                checked += 1
        assert checked > 30

    def test_error_model_envelope(self):
        # each execution's observed relative error, normalized by its own
        # propagated sigma, behaves like a unit-scale variable: the variance
        # of those z-scores stays within a factor of 3 of 1
        rng = np.random.default_rng(17)
        hits = total = 0
        for _ in range(25):
            g = _random_graph(rng, n_ops=10)
            oid = g.outputs[0]
            plan = {nid: 9 for nid in g.non_input_ids()}
            zs = []
            zeros = 0
            for _rep in range(120):
                vals = _safe_inputs(rng, g)
                try:
                    res = execute(g, plan, vals, input_precision=9)
                    ref = execute(g, {n: 64 for n in g.non_input_ids()}, vals,
                                  input_precision=64)
                except GraphExecutionError:
                    continue
                rv = decode(ref.values[oid])
                if rv == 0:
                    continue
                rel = float((decode(res.values[oid]) - rv) / rv)
                zeros += rel == 0
                pred = predicted_errors(g, res)[oid]
                if pred > 0:
                    zs.append(rel / math.sqrt(pred))
            if len(zs) < 60 or zeros > 0.3 * len(zs):
                continue  # exact or degenerate graph: nothing to calibrate
            total += 1
            hits += 1 / 3 <= float(np.var(zs)) <= 3
        assert total >= 10
        # per-instance operands differ from the model's expectations for
        # add/sub, so a statistical envelope: most graphs must fall inside
        assert hits >= 0.6 * total


def _reference_run(g, plan, vals, xin, params):
    """What :func:`run` and then :func:`predicted_errors` compute, from the
    checked scalar operations: per node ``arith`` (an input's rounding),
    then ``float(decode(...))``, then the error-model laws.  Returns the
    stored values, floats, precisions, errors and zero nodes, or the
    failing node's ``(id, reason)``: the first node whose value fails, else
    the first whose variance does."""
    values, floats, xs, errors, zeros, bad_variance = {}, {}, {}, {}, [], None
    for n in g.nodes:
        i, j = (n.operands + (None, None))[:2]
        try:
            if n.op is OpKind.INPUT:
                x = xin[n.id] if isinstance(xin, dict) else xin
                v = round_to_precision(vals[n.id], x, params)
            else:
                a, b = values[i], values.get(j)
                if n.op is OpKind.DIV and decode(b) == 0:
                    return n.id, "division by zero"
                if n.op is OpKind.SQRT and decode(a) < 0:
                    return n.id, "sqrt of a negative value"
                x = plan[n.id]
                v = arith(n.op.value, a, b, x)
            if v.is_saturated:
                return n.id, v.flags.value
            exact = decode(v)
            if 0 < abs(exact) < Fraction(2) ** -1022:
                return n.id, "value left float range"
            fc = float(exact)
        except OverflowError:
            return n.id, "value left float range"
        except ValueError as e:
            return n.id, str(e)
        values[n.id], floats[n.id], xs[n.id] = v, fc, x
        if n.op is OpKind.INPUT:
            e = input_error_variance(x)
        elif v.flags is Flag.ZERO:
            zeros.append(n.id)
            e = 0.0
        elif n.op in (OpKind.ADD, OpKind.SUB):
            e = rounding_variance(addsub_variance(floats[i], floats[j], fc, errors[i], errors[j]), x)
        else:
            e = rounding_variance(propagate_full_precision(
                n.op, floats[i], floats.get(j), errors[i], errors.get(j)), x)
        if not math.isfinite(e) and bad_variance is None:
            bad_variance = n.id, "error variance left float range"
        errors[n.id] = e
    if bad_variance:
        return bad_variance
    return [(v.sign, v.block_exp, v.field, v.n_blocks, v.flags) for v in values.values()], \
        repr(floats), xs, repr(errors), zeros


REFERENCE_FAILURES = {"saturated-overflow", "saturated-underflow", "value left float range",
                      "precision exceeds max_blocks for these parameters", "division by zero",
                      "sqrt of a negative value"}


class TestAgainstReference:
    def test_run_matches_the_checked_operations(self):
        # run calls the unchecked kernel and takes floats by ldexp; node by
        # node it and the variance pass must store, float, propagate and
        # fail as the checked path.  Only the pass fails on a variance
        rng = np.random.default_rng(1)
        reasons, passes, compared = set(), set(), 0

        def check(g, plan, vals, xin, params):
            nonlocal compared
            want = _reference_run(g, plan, vals, xin, params)
            try:
                res = execute(g, plan, vals, xin, params)
            except GraphExecutionError as err:
                got = err.node_id, err.reason
                reasons.add(err.reason)
            else:
                try:
                    got = [(v.sign, v.block_exp, v.field, v.n_blocks, v.flags)
                           for v in res.values.values()], repr(res.floats), \
                        res.precisions, repr(predicted_errors(g, res)), \
                        res.degenerate_zero
                    compared += 1
                except GraphExecutionError as err:
                    got = err.node_id, err.reason
                    passes.add(err.reason)
            assert got == want

        for f in (1, 4, 8):
            for e_bits in (6, 10, 13):
                params = EbfpParams(f, e_bits, 8)
                # inputs over most of the range, so chains of ops leave it
                span = min(params.max_block_exp * f, 1022) * 3 // 5
                for _ in range(30):
                    g = _random_graph(rng, n_ops=10)
                    vals = {i: (-1 if rng.random() < 0.1 else 1)
                            * Fraction(int(rng.integers(1, 2 ** 40)), 2 ** 40)
                            * Fraction(2) ** int(rng.integers(-span, span + 1)) for i in g.inputs}
                    xin = int(rng.integers(1, 7 * f + 1))
                    plan = {nid: int(rng.integers(1, 7 * f + 1)) for nid in g.non_input_ids()}
                    if rng.random() < 0.25:  # one node past the block budget
                        plan[int(rng.choice(list(plan)))] = 8 * f
                    check(g, plan, vals, xin, params)
        # a wide geometry: inputs near 2**500 a few units of 2**-500 apart,
        # stored at 1 or 1,016 bits, so that an add or sub of two of them
        # can leave a result whose operand ratio squares past float range
        wide = EbfpParams(8, 10, 200)
        for _ in range(60):
            g = _random_graph(rng, n_ops=4)
            vals = {i: (-1 if rng.random() < 0.1 else 1) * Fraction(2) ** 500
                    * (1 + Fraction(int(rng.integers(-8, 9)), 2 ** 1000)) for i in g.inputs}
            xin = {i: int(rng.choice([1, 1016])) for i in g.inputs}
            plan = {nid: int(rng.integers(1, 57)) for nid in g.non_input_ids()}
            check(g, plan, vals, xin, wide)
        assert compared >= 100
        assert reasons >= REFERENCE_FAILURES
        assert passes == {"error variance left float range"}  # and it happens

    @pytest.mark.parametrize("then_divide_by_zero", [False, True])
    def test_variance_failure_comes_from_the_pass(self, then_divide_by_zero):
        # the variance of s leaves float range (see test_variance_beyond_float_range):
        # the pass fails s, unless a later node's value fails the run first
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("sub", [a, b])
        want = s, "error variance left float range"
        if then_divide_by_zero:
            want = g.record("div", [s, g.record("sub", [b, b])]), "division by zero"
        vals = {a: Fraction(2) ** 500, b: Fraction(2) ** 500 - Fraction(2) ** -512}
        xin, params = {a: 1, b: 1016}, EbfpParams(8, 10, 200)
        plan = {nid: 20 for nid in g.non_input_ids()}
        with pytest.raises(GraphExecutionError) as err:
            predicted_errors(g, execute(g, plan, vals, xin, params))
        assert (err.value.node_id, err.value.reason) == \
            _reference_run(g, plan, vals, xin, params) == want

    def test_pinned_variances(self):
        # every node's variance on the 4x4 precoder under the reference,
        # fixed, offline and online plans, as the error model has given them
        # since it ran inside the executor
        zfg = build_zf_graph(4, 4)
        g, ip = zfg.graph, zfg.input_precisions()
        cfg, cm = UtilityConfig(alpha=1e-9), ComplexityModel()
        reprs = []
        for seed in range(3):
            vals = zfg.input_values(gen_channel(np.random.default_rng(seed), 4, 4))
            runs = [execute(g, plan, vals, ip) for plan in
                    (fixed_plan(g, 64), fixed_plan(g, 16), offline_vpc(g, cfg, cm, 10))]
            runs.append(online_vpc(g, cfg, cm, vals, 10, ip)[0])
            reprs += [repr(predicted_errors(g, res)) for res in runs]
        assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == \
            "feb7cb72008083c0fb6cd2d64e0f18c92411da1d846a162f2668c6fcedfab1fe"


class _Shadow(Exception):
    """Carries the operand float that run hands to a precision policy."""


def _report_shadow(node, a, b):
    raise _Shadow(a)


class TestRun:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_shadow_is_float_of_stored_value(self, data):
        # the float run hands a policy equals float(decode(v)) on float's
        # normal range; a stored value outside it fails the input node
        f = data.draw(st.sampled_from((1, 4, 8)), "F")
        e = data.draw(st.integers(4, 16), "E")
        x = data.draw(st.integers(1, 64), "x")
        params = EbfpParams(f, e, 80)
        lo, hi = params.min_block_exp * f, params.max_block_exp * f
        # binades on either side of float's smallest normal and its overflow
        edges = [t for t in (-1022, -1021, 1024, 1025) if lo <= t <= hi]
        top = data.draw(st.integers(lo, hi) | st.sampled_from(edges or [0]), "top")
        m = data.draw(st.integers(1, 2 ** 70), "m")
        sign = data.draw(st.sampled_from((1, -1)), "sign")
        v = sign * Fraction(m) * Fraction(2) ** (top - m.bit_length())
        stored = round_to_precision(v, x, params)
        assume(not stored.is_saturated)
        exact = decode(stored)
        try:
            want = float(exact)
        except OverflowError:
            want = None
        g = ExprGraph()
        a = g.add_input()
        g.record("mul", [a, a])
        if want is not None and abs(exact) >= Fraction(2) ** -1022:
            with pytest.raises(_Shadow) as got:
                run(g, _report_shadow, {a: v}, x, params)
            assert got.value.args[0] == want
        else:
            with pytest.raises(GraphExecutionError) as err:
                run(g, _report_shadow, {a: v}, x, params)
            assert err.value.node_id == a
            assert "float range" in err.value.reason

    def test_wide_fields_have_a_shadow(self):
        # a stored field of 1,024 bits or more can overflow a float by itself
        # while its value does not: every node gets its value's float
        params = EbfpParams(8, 10, 200)
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("add", [a, b])
        for x in (1016, 1024, 1590):
            res = execute(g, {s: x}, {a: Fraction(1), b: Fraction(1, 3)}, x, params)
            assert min(v.field.bit_length() for v in res.values.values()) > x
            for nid, v in res.values.items():
                assert res.floats[nid] == float(decode(v))
        # a wide field whose value is outside float's range still fails
        with pytest.raises(GraphExecutionError) as err:
            execute(g, {s: 1590}, {a: Fraction(2) ** 1100, b: Fraction(1)}, 1590, params)
        assert (err.value.node_id, err.value.reason) == (a, "value left float range")


def _digest(graph, result=None, plan=None) -> str:
    """sha256 of a run's stored values, floats, variances and zero nodes,
    and of a plan's precisions and sensitivities."""
    parts = []
    if result is not None:
        parts += [[(v.sign, v.block_exp, v.field, v.n_blocks, v.flags.value)
                   for v in result.values.values()],
                  list(result.floats.values()),
                  list(predicted_errors(graph, result).values()), result.degenerate_zero]
    if plan is not None:
        parts += [plan.assignment, plan.gsigma]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class TestHotPath:
    def test_no_property_or_consumer_rebuild_per_node(self, monkeypatch):
        # the integer run and both planners read flags by identity, take the
        # exponent bounds from the geometry's fields and the consumers from
        # the node table, and their outputs stay the same bit for bit.  The
        # run calls the unchecked kernel, never the checked arith, and every
        # op rounds by a shift: the only integer divisions are one per div
        # node and one per nonzero input's rounding.  One 4x4 lane is wide
        # enough for the online planner's float64 kernel, so the count is
        # taken on its scalar copy, where the run decides node by node
        zfg = build_zf_graph(4, 4)
        h = gen_channel(np.random.default_rng(3), 4, 4)
        vals, ip = zfg.input_values(h), zfg.input_precisions()
        cfg, cm = UtilityConfig(1e-9, 2, 64), ComplexityModel()

        def boom(*args):
            raise AssertionError("called on the hot path")

        for name in ("min_block_exp", "max_block_exp", "exp_offset"):
            monkeypatch.setattr(EbfpParams, name, property(boom))
        monkeypatch.setattr(EbfpNumber, "is_saturated", property(boom))
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "varprec" and getattr(module, "arith", None) is ebfp.arith:
                monkeypatch.setattr(module, "arith", boom)
        divisions = []
        exact_division = ebfp._quotient
        monkeypatch.setattr(ebfp, "_quotient",
                            lambda *args: divisions.append(args) or exact_division(*args))
        per_run = sum(n.op is OpKind.DIV for n in zfg.graph.nodes) + \
            sum(vals[i] != 0 for i in zfg.graph.inputs)
        plan = fixed_plan(zfg.graph, 24).assignment
        assert _digest(zfg.graph, run(zfg.graph, lambda node, a, b: plan[node.id], vals, ip)) == \
            "736c9b8b688fae8354a764f1863477f2f3db919d354bdc0f5b5c0daf2f9c4a62"
        assert len(divisions) == per_run
        with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", math.inf):
            assert _digest(zfg.graph, *online_vpc(zfg.graph, cfg, cm, vals, 10, ip)) == \
                "02c11a99e7ecd77c41aaad15cbd371b38e41d6bdceb05da8052f5a523108ad1a"
        assert len(divisions) == 2 * per_run
        assert _digest(zfg.graph, *online_vpc(zfg.graph, cfg, cm, vals, 10, ip)) == \
            "02c11a99e7ecd77c41aaad15cbd371b38e41d6bdceb05da8052f5a523108ad1a"
        assert _digest(zfg.graph, plan=offline_vpc(zfg.graph, cfg, cm, 10)) == \
            "0ae62963e9fb1c87044944b65b6639a5ae654fe2448628a4578030652820472d"

    def test_the_float_kernel_stores_no_interior_node_by_apply(self, monkeypatch):
        # execute takes the float64 kernel for the 4x4 precoder at fixed 24
        # bits and gives the integer run's digest: ebfp.apply stores the
        # inputs only, the integer run is never entered, and no law of the
        # error model runs before the variance pass
        zfg = build_zf_graph(4, 4)
        vals = zfg.input_values(gen_channel(np.random.default_rng(3), 4, 4))
        calls = []
        stored = ebfp.apply
        monkeypatch.setattr(ebfp, "apply", lambda *args: calls.append(args[0]) or stored(*args))

        def boom(*args, **kwargs):
            raise AssertionError("called by the float kernel")

        monkeypatch.setattr(graph_module, "run", boom)
        monkeypatch.setattr(graph_module, "apply", boom)
        laws = (addsub_variance, input_error_variance, propagate_full_precision,
                rounding_variance)
        for name, module in list(sys.modules.items()):
            for law in laws:
                if name.split(".")[0] == "varprec" and getattr(module, law.__name__, None) is law:
                    monkeypatch.setattr(module, law.__name__, boom)
        res = execute(zfg.graph, fixed_plan(zfg.graph, 24), vals, zfg.input_precisions())
        assert calls == ["div"] * len(zfg.graph.inputs)  # round_to_precision, per input
        monkeypatch.undo()
        assert _digest(zfg.graph, res) == \
            "736c9b8b688fae8354a764f1863477f2f3db919d354bdc0f5b5c0daf2f9c4a62"

    def test_a_lane_stores_no_value_until_values_are_read(self, monkeypatch):
        # executing the 4x4 precoder at fixed 24 bits and reading its floats
        # and W builds no EbfpNumber beyond those that store its inputs;
        # values, read afterwards, are the integer run's, by field equality
        # and by repr
        zfg = build_zf_graph(4, 4)
        vals = zfg.input_values(gen_channel(np.random.default_rng(3), 4, 4))
        ip, plan = zfg.input_precisions(), fixed_plan(zfg.graph, 24).assignment
        built, init = [], EbfpNumber.__init__
        monkeypatch.setattr(EbfpNumber, "__init__",
                            lambda self, *args: built.append(1) or init(self, *args))
        for i in zfg.graph.inputs:
            round_to_precision(vals[i], ip[i])
        storing_inputs, built[:] = len(built), []
        res = execute(zfg.graph, plan, vals, ip)
        assert res.floats and zfg.w_matrix(res).shape == (4, 4)
        assert len(built) == storing_inputs
        monkeypatch.undo()
        want = run(zfg.graph, _lookup(plan), vals, ip)
        assert res.values == want.values and repr(res.values) == repr(want.values)
        assert res.values is res.values

    def test_the_run_never_calls_the_error_model(self, monkeypatch):
        # execute and online_vpc compute values only: the four variance laws
        # fail wherever a varprec module holds them, and both still run the
        # 4x4 precoder as they do without the laws; the variance pass, and
        # only it, calls them
        zfg = build_zf_graph(4, 4)
        vals = zfg.input_values(gen_channel(np.random.default_rng(3), 4, 4))
        ip, cfg, cm = zfg.input_precisions(), UtilityConfig(1e-9, 2, 64), ComplexityModel()
        want = [execute(zfg.graph, fixed_plan(zfg.graph, 24), vals, ip),
                online_vpc(zfg.graph, cfg, cm, vals, 10, ip)[0]]
        laws = (addsub_variance, input_error_variance, propagate_full_precision,
                rounding_variance)

        def boom(*args):
            raise AssertionError("the error model ran")

        for name, module in list(sys.modules.items()):
            for law in laws:
                if name.split(".")[0] == "varprec" and \
                        getattr(module, law.__name__, None) is law:
                    monkeypatch.setattr(module, law.__name__, boom)
        got = [execute(zfg.graph, fixed_plan(zfg.graph, 24), vals, ip),
               online_vpc(zfg.graph, cfg, cm, vals, 10, ip)[0]]
        for res, ref in zip(got, want):
            assert (res.values, res.floats, res.precisions, res.degenerate_zero) == \
                (ref.values, ref.floats, ref.precisions, ref.degenerate_zero)
            with pytest.raises(AssertionError, match="the error model ran"):
                predicted_errors(zfg.graph, res)


#: geometries the float64 kernel takes, F = 1, 4 and 8 (each ±256 bits)
KERNEL_GEOMETRIES = (EbfpParams(1, 10, 80), EbfpParams(4, 8, 80), EbfpParams(8, 7, 80))


def _outcome(res):
    """A lane's result by repr (and its values by field equality), or its
    failure as (node id, reason)."""
    if isinstance(res, GraphExecutionError):
        return res.node_id, res.reason
    return (res.values, repr(res.values), repr(res.floats), repr(res.precisions),
            res.degenerate_zero, res.output_ids)


def _lookup(plan):
    return lambda node, a, b: plan[node.id]


@st.composite
def _significand(draw):
    """A signed significand of 1-53 bits, few bits one time in two."""
    bits = draw(st.one_of(st.integers(1, 6), st.integers(1, 53)))
    return draw(st.sampled_from((1, -1))) * draw(st.integers(1 << (bits - 1), (1 << bits) - 1))


@st.composite
def _kernel_op(draw):
    """(op, a, b, x): operands exact in float64 and inside the kernel
    geometries' range, drawn to hit exact ties, results within an ulp of a
    tie (where only the sign of the float op's error decides), full and
    partial cancellation, and exponent gaps wider than 53 bits."""
    op = draw(st.sampled_from(("add", "sub", "mul", "div", "sqrt")))
    x = draw(st.one_of(st.integers(1, 8), st.integers(1, 50), st.integers(44, 50)))
    ma, ea = draw(_significand()), draw(st.integers(-120, 120))
    a = Fraction(ma) * Fraction(2) ** ea
    b = Fraction(draw(_significand())) * Fraction(2) ** (ea - draw(st.integers(-60, 60)))
    mode = draw(st.sampled_from(("free", "tie", "near", "cancel", "gap")))
    if mode == "tie":  # b is half an ulp of a at x + 1 bits
        b = Fraction(draw(st.sampled_from((1, -1))), 2) * \
            Fraction(2) ** (ea + abs(ma).bit_length() - (x + 1))
    elif mode == "near":  # the exact result is a tie t at x + 1 bits moved by less than an ulp
        m = draw(st.integers(1 << x, (1 << (x + 1)) - 1))
        t, ulp = Fraction(2 * m + 1) * Fraction(2) ** ea, Fraction(2) ** ea
        if op in ("add", "sub"):
            a = t - ulp
            b = ulp + draw(st.sampled_from((1, -1))) * ulp / 2 ** draw(st.integers(1, 52))
            b = -b if op == "sub" else b
        elif op == "mul":
            a = Fraction(float(t / b))
        elif op == "div":
            a = Fraction(float(t * b))
        else:
            a = Fraction(float(t * t))
    elif mode == "cancel":  # b equals a, or a with its last few bits changed
        b = a + Fraction(draw(st.integers(-7, 7))) * Fraction(2) ** ea
    elif mode == "gap":
        b = Fraction(draw(_significand())) * Fraction(2) ** (ea - draw(st.integers(54, 120)))
    if mode != "near" and draw(st.booleans()):
        a, b = b, a
    if op == "sqrt" and draw(st.integers(0, 9)):
        a = abs(a)
    return op, a, b, x


class TestFloatKernel:
    """The float64 kernel gives the integer run's results bit for bit, and
    leaves every lane it cannot compute to that run."""

    @given(case=_kernel_op(), params=st.sampled_from(KERNEL_GEOMETRIES))
    @settings(max_examples=2500, deadline=None)
    def test_each_op_matches_arith(self, case, params):
        op, a, b, x = case
        g = ExprGraph()
        ins = [g.add_input() for _ in range(1 if op == "sqrt" else 2)]
        nid = g.record(op, ins)
        vals = dict(zip(ins, (a, b)))
        stored = [round_to_precision(vals[i], 60, params) for i in ins]
        assume(not any(v.is_saturated for v in stored))
        assert [decode(v) for v in stored] == [vals[i] for i in ins]  # exact operands
        try:
            want = arith(op, *stored, x_target=x)
        except (ValueError, ZeroDivisionError):
            want = None
        runs = []
        integer_run = graph_module.run
        with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", 0), \
                mock.patch.object(graph_module, "run",
                                  lambda *args: runs.append(1) or integer_run(*args)):
            res, = execute_lanes(g, [{nid: x}], [vals], 60, params)
        assert runs == []  # the kernel computed the lane, or found where it fails
        if want is None or want.is_saturated:  # the lane fails as run does
            with pytest.raises(GraphExecutionError) as err:
                run(g, _lookup({nid: x}), vals, 60, params)
            assert _outcome(res) == _outcome(err.value)
            return
        assert res.values[nid] == want and res.floats[nid] == float(decode(want))
        assert res.precisions == {**dict.fromkeys(ins, 60), nid: x}
        assert res.degenerate_zero == ([nid] if want.flags is Flag.ZERO else [])

    @given(f=st.integers(1, 9), e=st.integers(2, 10), blocks=st.integers(2, 90),
           n_lanes=st.integers(1, 4), per_pass=st.integers(1, 4), shared=st.booleans(),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=2000, deadline=None)
    def test_lanes_match_the_integer_run(self, f, e, blocks, n_lanes, per_pass, shared, seed):
        # TestFailureContract's graphs and values, precisions of at most 50
        # bits nine times in ten, so most lanes of most geometries take the
        # kernel, some lanes of a pass fail while others do not, and the
        # lanes may span several passes
        params = EbfpParams(f, e, blocks)
        g, value, precision = _fuzz_case(random.Random(seed), params, 50)
        xin = {i: precision() for i in g.inputs}
        lanes = [{i: value() for i in g.inputs} for _ in range(n_lanes)]
        plans = [{nid: precision() for nid in g.non_input_ids()}
                 for _ in range(1 if shared else n_lanes)] * (n_lanes if shared else 1)
        with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", 0), \
                mock.patch.object(graph_module, "KERNEL_MAX_LANES", per_pass):
            got = list(execute_lanes(g, iter(plans), iter(lanes), xin, params))
        for res, plan, vals in zip(got, plans, lanes):
            try:
                want = run(g, _lookup(plan), vals, xin, params)
            except GraphExecutionError as err:
                want = err
            assert _outcome(res) == _outcome(want)

    @given(f=st.integers(1, 9), e=st.integers(2, 14), blocks=st.integers(2, 90),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=1500, deadline=None)
    def test_a_failing_lane_fails_as_run_does(self, f, e, blocks, seed):
        # TestFailureContract's draws (zeros, negative values, values beyond
        # the range and legal geometries), kept to the kernel's geometries,
        # with precisions of at most 50 bits nine times in ten, and kept to
        # the lanes that run fails: the lane gives run's node and reason, and
        # one the kernel can take fails from its columns, without run
        assume(2 * f * (1 << (e - 2)) <= 970)
        params = EbfpParams(f, e, blocks)
        g, value, precision = _fuzz_case(random.Random(seed), params, 50)
        xin = {i: precision() for i in g.inputs}
        vals = {i: value() for i in g.inputs}
        plan = {nid: precision() for nid in g.non_input_ids()}
        want = None
        try:
            run(g, _lookup(plan), vals, xin, params)
        except GraphExecutionError as err:
            want = err
        assume(want is not None)
        runs, integer_run = [], graph_module.run
        with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", 0), \
                mock.patch.object(graph_module, "run",
                                  lambda *args: runs.append(1) or integer_run(*args)):
            got, = execute_lanes(g, [plan], [vals], xin, params)
        assert (got.node_id, got.reason) == (want.node_id, want.reason)
        widest = min(graph_module.KERNEL_MAX_X, (blocks - 1) * f)
        kernel = max(plan.values()) <= widest and \
            graph_module._lane_inputs(g, vals, xin, params) is not None
        assert runs == ([] if kernel else [1])

    def test_plans_and_lanes_must_pair_up(self):
        g = ExprGraph()
        a = g.add_input()
        g.record("sqrt", [a])
        with pytest.raises(ValueError):
            list(execute_lanes(g, [{1: 8}] * 2, [{a: Fraction(2)}]))

    def test_precision_50_takes_the_kernel_and_51_the_run(self):
        zfg = build_zf_graph(4, 4)
        g = zfg.graph
        vals = zfg.input_values(gen_channel(np.random.default_rng(1), 4, 4))
        ip = zfg.input_precisions()
        for x, kernel in ((50, True), (51, False)):
            runs = []
            integer_run = graph_module.run
            with mock.patch.object(graph_module, "run",
                                   lambda *args: runs.append(1) or integer_run(*args)):
                res = execute(g, fixed_plan(g, x), vals, ip)
            assert runs == ([] if kernel else [1])
            # each node is arith of its stored operands
            for nid in g.non_input_ids():
                node = g.nodes[nid]
                operands = [res.values[o] for o in node.operands]
                assert res.values[nid] == arith(node.op.value, *operands, x_target=x)

    @pytest.mark.parametrize("x", [1, 24, 50])
    @pytest.mark.parametrize("params", KERNEL_GEOMETRIES, ids=["F1", "F4", "F8"])
    def test_range_edges(self, params, x):
        # a mul at the edges of the range [2**-R, 2**R), all on the kernel:
        # the largest result below 2**R and the smallest at 2**-R equal
        # arith; a result that rounds up to 2**R, and the largest below
        # 2**-R, fail as run does, from the kernel's columns
        r = params.block_bits * params.max_block_exp
        two = Fraction(2)
        # the largest value of x + 1 bits below 2, and the tie above it, which rounds to 2
        below_2 = (2 - two ** -x, 2 - two ** (-x - 1))
        cases = [((below_2[0], two ** (r - 1)), True), ((two ** -1, two ** (1 - r)), True),
                 ((below_2[1], two ** (r - 1)), False), ((below_2[0] / 2, two ** -r), False)]
        for (a, b), stored in cases:
            g = ExprGraph()
            ins = [g.add_input(), g.add_input()]
            nid = g.record("mul", ins)
            vals = dict(zip(ins, (a, b)))
            runs, integer_run = [], graph_module.run
            with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", 0), \
                    mock.patch.object(graph_module, "run",
                                      lambda *args: runs.append(1) or integer_run(*args)):
                res, = execute_lanes(g, [{nid: x}], [vals], 60, params)
            assert runs == []
            if stored:
                want = arith("mul", *(round_to_precision(v, 60, params) for v in (a, b)),
                             x_target=x)
                assert res.values[nid] == want and decode(want) == a * b == res.floats[nid]
                continue
            with pytest.raises(GraphExecutionError) as err:
                run(g, _lookup({nid: x}), vals, 60, params)
            assert _outcome(res) == _outcome(err.value) == \
                (nid, "saturated-overflow" if a * b > 1 else "saturated-underflow")

    @pytest.mark.parametrize("bad", ["float", "missing", "zero"])
    def test_plans_the_kernel_refuses_fail_as_run_does(self, bad):
        zfg = build_zf_graph(4, 4)
        g = zfg.graph
        vals = zfg.input_values(gen_channel(np.random.default_rng(1), 4, 4))
        ip = zfg.input_precisions()
        plan = dict(fixed_plan(g, 24).assignment)
        nid = g.non_input_ids()[100]
        if bad == "float":
            plan[nid] = 24.0
        elif bad == "missing":
            del plan[nid]
        else:
            plan[nid] = 0
        with pytest.raises(GraphExecutionError) as got:
            execute(g, plan, vals, ip)
        with pytest.raises(GraphExecutionError) as want:
            run(g, graph_module._planned(plan), vals, ip)
        assert (got.value.node_id, got.value.reason) == (want.value.node_id, want.value.reason) \
            == (nid, {"float": "precision 24.0 is not an integer",
                      "missing": "plan does not cover this node",
                      "zero": "precision x must be >= 1"}[bad])

    def test_wide_geometry_fails_as_run_does(self):
        # the 4x4 precoder on a channel scaled by 2**600 under E = 13: the
        # geometry is outside the kernel's, and every plan fails on the node
        # and for the reason the integer run gives
        zfg = build_zf_graph(4, 4)
        g = zfg.graph
        h = gen_channel(np.random.default_rng(600), 4, 4)
        c = Fraction(2) ** 600
        vals = {i: v * c for i, v in zfg.input_values(h).items() if i != zfg.one_node}
        vals[zfg.one_node] = Fraction(1)
        wide, ip = EbfpParams(1, 13, 80), zfg.input_precisions()
        for plan in (fixed_plan(g, 24), fixed_plan(g, 48),
                     offline_vpc(g, UtilityConfig(1e-9, 2, 64), ComplexityModel())):
            with pytest.raises(GraphExecutionError) as got:
                execute(g, plan, vals, ip, wide)
            with pytest.raises(GraphExecutionError) as want:
                run(g, _lookup(plan.assignment), vals, ip, wide)
            assert (got.value.node_id, got.value.reason) == \
                (want.value.node_id, want.value.reason) == (32, "value left float range")

    def test_graph_below_the_crossover_runs_integer(self):
        # the 2x2 precoder's groups hold 4.5 nodes: one and two lanes stay
        # on the integer run, and the 4x4 precoder's 23 take the kernel
        for k, lanes, kernel in ((2, 1, False), (2, 2, False), (4, 1, True)):
            zfg = build_zf_graph(k, k)
            vals = zfg.input_values(gen_channel(np.random.default_rng(1), k, k))
            runs = []
            integer_run = graph_module.run
            with mock.patch.object(graph_module, "run",
                                   lambda *args: runs.append(1) or integer_run(*args)):
                list(execute_lanes(zfg.graph, [fixed_plan(zfg.graph, 16)] * lanes,
                                   [vals] * lanes, zfg.input_precisions()))
            assert len(runs) == (0 if kernel else lanes)

    def test_stored_inputs_refuse_mutation(self):
        # a lane's floats are stored once, so its values cannot change after:
        # an input set on it would run on the kernel at its old value
        zfg = build_zf_graph(4, 4)
        g, ip = zfg.graph, zfg.input_precisions()
        vals = zfg.input_values(gen_channel(np.random.default_rng(1), 4, 4))
        lane = StoredInputs(g, vals, ip)
        with pytest.raises(TypeError):
            lane[g.inputs[0]] = Fraction(3)
        assert not hasattr(lane, "update") and dict(lane) == vals
        plan = fixed_plan(g, 24)
        assert execute(g, plan, lane, ip) == execute(g, plan, dict(lane), ip) == execute(g, plan, vals, ip)

    def test_a_node_recorded_after_a_pass_takes_the_kernel(self):
        # the kernel's layout of the graph follows its growth: after a pass,
        # a node recorded runs on the kernel in the next pass, as a new sink
        # and then as the one marked output, and each lane equals the run
        g, x, *_, n41 = fig3_style_graph()
        vals = {i: Fraction(i + 2, 3) for i in x}
        runs, integer_run, got = [], graph_module.run, []
        with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", 0), \
                mock.patch.object(graph_module, "run",
                                  lambda *args: runs.append(1) or integer_run(*args)):
            for step in ("pass", "record", "mark"):
                if step == "record":
                    sq = g.record("sqrt", [x[4]])
                elif step == "mark":
                    g.mark_output(sq)
                plan = dict.fromkeys(g.non_input_ids(), 20)
                res, = execute_lanes(g, [plan], [vals], 40)
                assert res == integer_run(g, _lookup(plan), vals, 40)
                got.append(res.output_ids)
        assert runs == [] and got == [[n41], [n41, sq], [sq]]
        assert res.floats[sq] == pytest.approx(math.sqrt(2), rel=2 ** -20)
