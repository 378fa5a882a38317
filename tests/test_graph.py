"""Tests for expression-graph recording and execution."""

import hashlib
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from varprec import ebfp
from varprec.ebfp import EbfpNumber, EbfpParams, Flag, arith, decode, encode, round_to_precision
from varprec.graph import (
    ExprGraph,
    GraphExecutionError,
    OpKind,
    execute,
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

    def test_jsonl_roundtrip_keeps_outputs(self):
        # the 4x4 precoder marks its 32 outputs; its unmarked sinks must not
        # become outputs on reload
        g = build_zf_graph(4, 4).graph
        buf = io.StringIO()
        g.dump_jsonl(buf)
        buf.seek(0)
        assert len(g.outputs) == 32
        assert ExprGraph.load_jsonl(buf).outputs == g.outputs

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
        assert math.isclose(res.errors[s], rounding_variance(sc2, 20))

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
        assert math.isclose(res.errors[n22], rounding_variance(s22c, 12),
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
        assert res.errors[s] == 0.0

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
        assert r1.errors == r2.errors

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
        assert plain.errors[s] > 0
        assert scaled.errors[s] == plain.errors[s]


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
            assert math.isfinite(res.errors[s])

    def test_variance_beyond_float_range(self):
        # 2**500 at 1 bit minus its neighbour 2**-512 below: the result is a
        # float, but its relative-error variance is about 2**2017
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        s = g.record("sub", [a, b])
        vals = {a: Fraction(2) ** 500, b: Fraction(2) ** 500 - Fraction(2) ** -512}
        xin, params = {a: 1, b: 1016}, EbfpParams(8, 10, 200)
        for run_it in (lambda: execute(g, {s: 20}, vals, xin, params),
                       lambda: _online(g, vals, xin, params)):
            with pytest.raises(GraphExecutionError) as ei:
                run_it()
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
            assert (got.values, got.floats, got.errors) == (want.values, want.floats, want.errors)
        for plan, xin, node, bad in (({m: 24, d: 30.0}, 40, d, "30.0"),
                                     ({m: 24.0, d: 30}, 40, m, "24.0"),
                                     ({m: 24, d: 30}, 40.0, a, "40.0"),
                                     ({m: 24, d: 30}, {a: 40, b: "40"}, b, "'40'")):
            with pytest.raises(GraphExecutionError) as ei:
                execute(g, plan, vals, xin)
            assert (ei.value.node_id, ei.value.reason) == (node, f"precision {bad} is not an integer")

    def test_policy_and_model_exceptions_propagate(self, monkeypatch):
        # a bug in the caller's policy or in the error model is not a node failure
        g, a, b, m = _mul_graph()
        vals = {a: Fraction(3), b: Fraction(5)}

        def bad_policy(node, fa, fb):
            raise ValueError("policy bug")

        with pytest.raises(ValueError, match="policy bug"):
            run(g, bad_policy, vals)

        def bad_model(*args):
            raise ValueError("model bug")

        monkeypatch.setattr("varprec.graph.propagate_full_precision", bad_model)
        with pytest.raises(ValueError, match="model bug"):  # GraphExecutionError is no ValueError
            execute(g, {m: 20}, vals)


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
                pred = res.errors[oid]
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
    """What :func:`run` computes, from the checked scalar operations: per
    node ``arith`` (an input's rounding), then ``float(decode(...))``, then
    the error-model laws.  Returns the run's stored values, floats, errors
    and zero nodes, or the failing node's ``(id, reason)``."""
    values, floats, errors, zeros = {}, {}, {}, []
    for n in g.nodes:
        i, j = (n.operands + (None, None))[:2]
        try:
            if n.op is OpKind.INPUT:
                x = xin
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
        values[n.id], floats[n.id] = v, fc
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
        if not math.isfinite(e):
            return n.id, "error variance left float range"
        errors[n.id] = e
    return [(v.sign, v.block_exp, v.field, v.n_blocks, v.flags) for v in values.values()], \
        repr(floats), repr(errors), zeros


REFERENCE_FAILURES = {"saturated-overflow", "saturated-underflow", "value left float range",
                      "precision exceeds max_blocks for these parameters", "division by zero",
                      "sqrt of a negative value"}


class TestAgainstReference:
    def test_run_matches_the_checked_operations(self):
        # run calls the unchecked kernel and takes floats by ldexp; node by
        # node it must store, float, propagate and fail as the checked path
        rng = np.random.default_rng(1)
        reasons, compared = set(), 0
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
                    want = _reference_run(g, plan, vals, xin, params)
                    try:
                        res = execute(g, plan, vals, xin, params)
                    except GraphExecutionError as err:
                        got = err.node_id, err.reason
                        reasons.add(err.reason)
                    else:
                        got = [(v.sign, v.block_exp, v.field, v.n_blocks, v.flags)
                               for v in res.values.values()], \
                            repr(res.floats), repr(res.errors), res.degenerate_zero
                        compared += 1
                    assert got == want
        assert compared >= 100
        assert reasons >= REFERENCE_FAILURES


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


def _digest(result=None, plan=None) -> str:
    """sha256 of a run's stored values, floats, variances and zero nodes,
    and of a plan's precisions and sensitivities."""
    parts = []
    if result is not None:
        parts += [[(v.sign, v.block_exp, v.field, v.n_blocks, v.flags.value)
                   for v in result.values.values()],
                  list(result.floats.values()), list(result.errors.values()),
                  result.degenerate_zero]
    if plan is not None:
        parts += [plan.assignment, plan.gsigma]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class TestHotPath:
    def test_no_property_or_consumer_rebuild_per_node(self, monkeypatch):
        # the executor and both planners read flags by identity, take the
        # exponent bounds from the geometry's fields and the consumers from
        # the node table, and their outputs stay the same bit for bit.  The
        # executor calls the unchecked kernel, never the checked arith, and
        # every op rounds by a shift: the only integer divisions are one per
        # div node and one per nonzero input's rounding
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
        assert _digest(execute(zfg.graph, fixed_plan(zfg.graph, 24), vals, ip)) == \
            "736c9b8b688fae8354a764f1863477f2f3db919d354bdc0f5b5c0daf2f9c4a62"
        assert len(divisions) == per_run
        assert _digest(*online_vpc(zfg.graph, cfg, cm, vals, 10, ip)) == \
            "02c11a99e7ecd77c41aaad15cbd371b38e41d6bdceb05da8052f5a523108ad1a"
        assert len(divisions) == 2 * per_run
        assert _digest(plan=offline_vpc(zfg.graph, cfg, cm, 10)) == \
            "0ae62963e9fb1c87044944b65b6639a5ae654fe2448628a4578030652820472d"
