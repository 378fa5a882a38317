"""Tests for the precision-assignment machinery."""

import bisect
import gc
import io
import itertools
import math
import pickle
import random
import warnings
import weakref
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varprec import graph as graph_module, optimizer
from varprec.ebfp import EbfpParams
from varprec.errormodel import EPS, ops_per_bit, speculation_factor
from varprec.graph import ExprGraph, GraphExecutionError, OpKind, execute, predicted_errors, run
from varprec.mimo import ChannelMatrix, build_zf_graph, gen_channel, precision_histogram
from varprec.optimizer import (
    DEFAULT_WEIGHTS,
    GSIGMA_UNIT,
    ComplexityModel,
    PrecisionPlan,
    UtilityConfig,
    XoptLut,
    fixed_plan,
    offline_vpc,
    online_lanes,
    online_vpc,
    plan_from_csv,
    plan_metrics,
    plan_to_csv,
    random_blockwise_plan,
    seed_bit_offset,
)

from oracles import final_step_precision, modeled_utility_batch

CM = ComplexityModel()
CFG = UtilityConfig(alpha=1e-9)


def chain(*ops):
    g = ExprGraph()
    prev = g.add_input()
    aux = g.add_input()
    for op in ops:
        prev = g.record(op, [prev] if op == "sqrt" else [prev, aux])
    return g, prev


def random_tree_graph(rng, n_ops):
    """Random expression tree: interior nodes consumed at most once (inputs
    may repeat, as a reused leaf variable would)."""
    ops = ["add", "sub", "mul", "div", "sqrt"]
    g = ExprGraph()
    inputs = [g.add_input() for _ in range(int(rng.integers(2, 4)))]
    avail = list(inputs)

    def take():
        i = int(rng.integers(0, len(avail) + len(inputs)))
        if i < len(avail):
            return avail.pop(i)
        return inputs[i - len(avail)]

    for _ in range(n_ops):
        op = ops[rng.integers(0, 5)]
        node = g.record(op, [take()] if op == "sqrt" else [take(), take()])
        avail.append(node)
    return g


@pytest.mark.parametrize("kwargs, message", [
    (dict(x_min=10, x_max=4), "need 1 <= x_min <= x_max"),
    (dict(x_min=0), "need 1 <= x_min <= x_max"),
    (dict(alpha=0.0), "alpha must be positive"),
    (dict(alpha=-1e-9), "alpha must be positive"),
    (dict(alpha=math.nan), "alpha must be positive"),
    (dict(x_max=509), "x_max must be at most 508"),
    (dict(x_max=512), "x_max must be at most 508"),
], ids=["x-min-above-x-max", "x-min-0", "alpha-0", "alpha-negative", "alpha-nan",
        "x-max-509", "x-max-512"])
def test_utility_config_rejects(kwargs, message):
    # a nan alpha would plan offline at x_max and online at x_min; from
    # x_max 509 the top rung leaves float range, and from 512 so does EPS ** (2 * x_max)
    with pytest.raises(ValueError, match=f"^{message}$"):
        UtilityConfig(**kwargs)


def test_utility_config_bounds_keep_the_ladder_finite():
    # the widest x_max has finite thresholds and midpoints for every op
    # kind, and an infinite alpha is the limit of large ones: both planners
    # anchor at x_min, offline every node there
    lut = XoptLut(CM, UtilityConfig(x_max=508))
    for op in DEFAULT_WEIGHTS:
        assert np.isfinite(lut.arrays[op]).all() and np.isfinite(lut.mid_arrays[op]).all()
    zfg = build_zf_graph(2, 2)
    g, ip = zfg.graph, zfg.input_precisions()
    vals = zfg.input_values(gen_channel(np.random.default_rng(0), 2, 2))
    inf, big = UtilityConfig(math.inf, 2, 64), UtilityConfig(1e300, 2, 64)
    assert set(offline_vpc(g, inf, CM).assignment.values()) == {2}
    on = online_vpc(g, inf, CM, vals, 10, ip)[1]
    assert on.assignment == online_vpc(g, big, CM, vals, 10, ip)[1].assignment


class TestLut:
    def test_clamps(self):
        lut = XoptLut(CM, CFG)
        assert lut.lookup(0.0, "mul") == CFG.x_min
        assert lut.lookup(1e300, "mul") == CFG.x_max

    def test_monotone_and_unit_step(self):
        lut = XoptLut(CM, CFG)
        for op in ("add", "mul", "sqrt"):
            rhos = np.geomspace(1e-2, 1e30, 200)
            xs = [lut.lookup(r, op) for r in rhos]
            assert all(b >= a for a, b in zip(xs, xs[1:]))
            base = lut.thresholds[OpKind(op)][12] * 0.9
            x0 = lut.lookup(base, op)
            assert lut.lookup(base * EPS ** 2, op) == x0 + 1

    def test_reverse_is_consistent(self):
        lut = XoptLut(CM, CFG)
        for op in ("add", "sub", "mul", "div", "sqrt"):
            for x in (CFG.x_min, 11, 37, CFG.x_max):
                assert lut.lookup(lut.mid_rho[op][x - CFG.x_min], op) == x

    def test_reverse_is_the_bin_midpoint(self):
        # a bin's top threshold over EPS; the open bin of x_max is one rung
        # wide, so its midpoint lies EPS above the last threshold
        lut = XoptLut(CM, CFG)
        for op in OpKind:
            if op is OpKind.INPUT:
                continue
            t, mids = lut.thresholds[op], lut.mid_rho[op]
            assert mids[:-1] == [top / EPS for top in t]
            assert len(mids) == CFG.x_max - CFG.x_min + 1
            assert mids[-1] == t[-1] * EPS

    def test_one_rung_ladder(self):
        # x_min == x_max: no threshold, every rho maps to the one precision,
        # and that precision's bin still has a midpoint
        cfg = UtilityConfig(alpha=1e-9, x_min=8, x_max=8)
        lut = XoptLut(CM, cfg)
        wide = XoptLut(CM, UtilityConfig(alpha=1e-9, x_min=2, x_max=8))
        for op in ("add", "sub", "mul", "div", "sqrt"):
            assert lut.thresholds[OpKind(op)] == []
            assert {lut.lookup(r, op) for r in (0.0, 1.0, 1e300)} == {8}
            assert lut.mid_rho[op] == [wide.mid_rho[op][8 - 2]]

    def test_threshold_tracks_continuous_stationary_point(self):
        # scanning the discrete per-node utility confirms the tabulated
        # transition: U(x) = rho * eps^(-2x) / (2 ln eps) + w * x
        lut = XoptLut(CM, CFG)
        e = EPS
        for op, w in ((OpKind.ADD, 1.0), (OpKind.MUL, 30.0)):
            for xt in (9, 20):
                rho = lut.thresholds[op][xt - CFG.x_min] * 0.999
                xs = np.arange(CFG.x_min, CFG.x_max + 1)
                u = rho * e ** (-2.0 * xs) / (2 * math.log(e)) + w * xs
                assert xs[int(np.argmin(u))] == lut.lookup(rho, op) == xt


class TestFinalStep:
    def test_large_alpha_floors_everything(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        m = g.record("mul", [a, b])
        xs = final_step_precision(g, UtilityConfig(alpha=1e6), CM)
        assert xs[m] == 4

    def test_integer_scan_picks_stationary_bit(self):
        # choose alpha so the continuous optimum sits near 12; the discrete
        # scan of the modeled utility agrees with the lookup
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        m = g.record("mul", [a, b])
        lut = XoptLut(CM, CFG)
        rho12 = lut.mid_rho[OpKind.MUL][12 - CFG.x_min]
        cfg = UtilityConfig(alpha=GSIGMA_UNIT / rho12)
        xs = final_step_precision(g, cfg, CM)
        assert xs[m] == 12
        scan = np.arange(4, 65)
        best = scan[int(np.argmin(modeled_utility_batch(g, scan[:, None], [m], cfg, CM)))]
        assert abs(best - 12) <= 1


class TestOffline:
    def test_single_op_equals_final_step(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        m = g.record("div", [a, b])
        assert offline_vpc(g, CFG, CM).assignment[m] == \
            final_step_precision(g, CFG, CM)[m]

    def test_sqrt_chain_steps_down(self):
        g, _ = ExprGraph(), None
        a = g.add_input()
        s1 = g.record("sqrt", [a])
        s2 = g.record("sqrt", [s1])
        s3 = g.record("sqrt", [s2])
        plan = offline_vpc(g, CFG, CM)
        xf = plan.assignment[s3]
        assert plan.assignment[s2] == xf - 1
        assert plan.assignment[s1] == xf - 2

    def test_muldiv_chain_keeps_precision(self):
        g, last = chain("mul", "div", "mul", "div")
        plan = offline_vpc(g, CFG, CM)
        xs = set(plan.assignment.values())
        assert len(xs) == 1

    def test_addsub_moves_less_than_one_bit_per_hop(self):
        g, last = chain("add", "add", "add")
        plan = offline_vpc(g, CFG, CM)
        xs = sorted(plan.assignment.values())
        assert xs[-1] - xs[0] <= 1

    def test_bounds_respected(self):
        g, _ = chain("sqrt", "sqrt", "sqrt", "sqrt", "sqrt", "sqrt")
        cfg = UtilityConfig(alpha=1e-6, x_min=4, x_max=10)
        plan = offline_vpc(g, cfg, CM)
        assert set(plan.assignment) == set(g.non_input_ids())
        assert min(plan.assignment.values()) >= 4
        assert max(plan.assignment.values()) <= 10

    def test_shared_node_takes_most_demanding_consumer(self):
        # fan-out does not inflate a shared node's sensitivity: it plans for
        # its most demanding consumer, which for identical consumers is the
        # single-consumer value
        def build(n_consumers):
            g = ExprGraph()
            a = g.add_input()
            h = g.record("sqrt", [a])
            for _ in range(n_consumers):
                g.record("sqrt", [h])
            return g, h
        g1, h1 = build(1)
        g4, h4 = build(4)
        p1 = offline_vpc(g1, CFG, CM)
        p4 = offline_vpc(g4, CFG, CM)
        assert p4.gsigma[h4] == pytest.approx(p1.gsigma[h1])
        assert p4.assignment[h4] == p1.assignment[h1]

    def test_mixed_consumers_take_worst(self):
        # one sqrt consumer (quarter factor) and one mul consumer (unit
        # factor): the shared operand plans for the mul path
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        h = g.record("mul", [a, b])
        g.record("sqrt", [h])
        m = g.record("mul", [h, b])
        plan = offline_vpc(g, CFG, CM)
        g2 = ExprGraph()
        a2, b2 = g2.add_input(), g2.add_input()
        h2 = g2.record("mul", [a2, b2])
        m2 = g2.record("mul", [h2, b2])
        plan2 = offline_vpc(g2, CFG, CM)
        assert plan.assignment[h] == plan2.assignment[h2]

    def test_small_graph_optimality(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            g = random_tree_graph(rng, int(rng.integers(2, 7)))
            cfg = UtilityConfig(alpha=10.0 ** rng.uniform(-9, -4), x_min=4, x_max=12)
            off = offline_vpc(g, cfg, CM)
            nids = g.non_input_ids()
            x_off = np.array([off.assignment[nid] for nid in nids])
            u_off = modeled_utility_batch(g, x_off[None, :], nids, cfg, CM)[0]
            grid = np.array(list(itertools.product(range(4, 13), repeat=len(nids))))
            u_best = modeled_utility_batch(g, grid, nids, cfg, CM).min()
            steps = np.array([np.clip(x_off + d * (np.arange(len(nids)) == j), 4, 12)
                              for j in range(len(nids)) for d in (-1, 1)])
            dq = np.abs(modeled_utility_batch(g, steps, nids, cfg, CM) - u_off).max()
            assert u_off - u_best <= dq + 1e-18


def reference_offline(graph, cfg, e_b=10):
    """offline_vpc as one reverse sweep per call with a bisect lookup per
    node: (assignment, gsigma)."""
    lut = XoptLut(CM, cfg)
    back = {op: speculation_factor(op.value, "backward", e_b)
            for op in OpKind if op is not OpKind.INPUT}
    out_set = set(graph.outputs)
    gsig, assignment = {}, {}
    for node in reversed(graph.nodes):
        terms = [-GSIGMA_UNIT] if node.id in out_set else []
        terms += [gsig[c] * back[graph.nodes[c].op] for c in graph.consumers[node.id]]
        gsig[node.id] = g = min(terms, default=0.0)
        if node.op is not OpKind.INPUT:
            assignment[node.id] = lut.lookup(-g / cfg.alpha, node.op)
    return assignment, gsig


def implicit_output_graph():
    """Two unmarked sinks fed by a shared product, beside an isolated chain."""
    g = ExprGraph()
    a, b = g.add_input(), g.add_input()
    m = g.record("mul", [a, b])
    g.record("add", [g.record("sqrt", [m]), a])
    g.record("div", [m, b])
    g.record("sub", [g.record("mul", [a, a]), b])
    return g


def assert_reference_plan(graph, cfg, e_b=10):
    plan = offline_vpc(graph, cfg, CM, e_b)
    assignment, gsig = reference_offline(graph, cfg, e_b)
    # list equality also compares the key order
    assert list(plan.assignment.items()) == list(assignment.items())
    assert list(plan.gsigma.items()) == list(gsig.items())
    assert all(type(x) is int for x in plan.assignment.values())
    return plan


class TestOfflineSweep:
    """offline_vpc keeps its alpha-free sweep per graph and e_b; each plan
    equals a fresh sweep with a per-node bisect, bit for bit."""

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_equals_reference_over_alphas_and_bounds(self, n):
        g = build_zf_graph(n, n).graph
        alphas = np.geomspace(1e-22, 1e5, 28 if n < 8 else 7)
        for x_min, x_max in ((2, 64), (4, 64), (1, 30)):
            for alpha in alphas:
                assert_reference_plan(g, UtilityConfig(float(alpha), x_min, x_max))

    def test_implicit_outputs_equal_reference(self):
        g = implicit_output_graph()
        assert len(g.outputs) == 3
        for alpha in np.geomspace(1e-22, 1e5, 28):
            for e_b in (8, 10):
                assert_reference_plan(g, UtilityConfig(float(alpha)), e_b)

    def test_growth_after_a_plan_is_planned(self):
        g, fresh = implicit_output_graph(), implicit_output_graph()
        vals = {0: Fraction(5, 3), 1: Fraction(7, 4)}
        offline_vpc(g, CFG, CM)
        online_vpc(g, CFG, CM, vals)
        for h in (g, fresh):
            h.mark_output(2)
        assert offline_vpc(g, CFG, CM) == offline_vpc(fresh, CFG, CM)
        for h in (g, fresh):
            h.record("mul", [2, h.record("sqrt", [0])])
        assert offline_vpc(g, CFG, CM) == assert_reference_plan(fresh, CFG)
        assert online_vpc(g, CFG, CM, vals)[1] == online_vpc(fresh, CFG, CM, vals)[1]

    def test_each_e_b_has_its_own_sweep(self):
        g = build_zf_graph(2, 2).graph
        plans = {e_b: assert_reference_plan(g, CFG, e_b) for e_b in (10, 8, 12)}
        assert plans[10].gsigma != plans[8].gsigma != plans[12].gsigma
        for e_b in (8, 10, 12):
            assert offline_vpc(g, CFG, CM, e_b) == plans[e_b]

    def test_returned_gsigma_is_the_callers(self):
        g = build_zf_graph(2, 2).graph
        first = offline_vpc(g, CFG, CM)
        want = reference_offline(g, CFG)
        first.gsigma.clear()
        first.assignment.clear()
        again = offline_vpc(g, CFG, CM)
        assert (again.assignment, again.gsigma) == want

    def test_a_plans_gsigma_is_its_own(self):
        # plans share the sweep's G_sigma dict until one is read: a change
        # to one plan's reaches neither another plan's nor the sweep's
        g = build_zf_graph(2, 2).graph
        first, second = offline_vpc(g, CFG, CM), offline_vpc(g, CFG, CM)
        sweep = g.table(optimizer._reverse_sweep, 10)[0]
        want = list(sweep.items())
        first.gsigma[g.op_ids[0]] = 1.0
        del first.gsigma[g.op_ids[1]]
        assert list(first.gsigma.items()) != want
        assert list(second.gsigma.items()) == want == list(sweep.items())
        assert g.table(optimizer._reverse_sweep, 10)[0] is sweep

    def test_sweep_is_freed_with_its_graph(self):
        g = implicit_output_graph()
        offline_vpc(g, CFG, CM)
        online_vpc(g, CFG, CM, {0: Fraction(5, 3), 1: Fraction(7, 4)})
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

    def test_one_sweep_per_graph_and_e_b(self, monkeypatch):
        sweeps = []
        sweep = optimizer._reverse_sweep

        def counted(graph, e_b):
            sweeps.append(e_b)
            return sweep(graph, e_b)

        monkeypatch.setattr(optimizer, "_reverse_sweep", counted)
        zfg = build_zf_graph(2, 2)
        g = zfg.graph
        for e_b in (10, 8):
            for alpha in np.geomspace(1e-20, 1e4, 64):
                offline_vpc(g, UtilityConfig(float(alpha), 2, 64), CM, e_b)
        # the online planner takes its seed factors from the same sweep
        vals = zfg.input_values(gen_channel(np.random.default_rng(0), 2, 2))
        for alpha in (1e-13, 1e-9):
            online_vpc(g, UtilityConfig(alpha), CM, vals, 8, zfg.input_precisions())
        assert sweeps == [10, 8]


class TestOnline:
    def test_matches_offline_on_operand_free_ops(self):
        g, _ = chain("mul", "div")
        g2 = ExprGraph()
        a = g2.add_input()
        s1 = g2.record("sqrt", [a])
        s2 = g2.record("sqrt", [s1])
        for gr, vals in ((g, {0: Fraction(5, 3), 1: Fraction(7, 4)}),
                         (g2, {0: Fraction(7, 3)})):
            off = offline_vpc(gr, CFG, CM)
            _, on = online_vpc(gr, CFG, CM, vals)
            assert on.assignment == off.assignment

    def test_single_op_consistency(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        m = g.record("mul", [a, b])
        off = offline_vpc(g, CFG, CM)
        _, on = online_vpc(g, CFG, CM, {a: Fraction(3), b: Fraction(2)})
        assert on.assignment[m] == off.assignment[m]

    def test_forward_sqrt_one_bit_up(self):
        g = ExprGraph()
        a = g.add_input()
        s1 = g.record("sqrt", [a])
        s2 = g.record("sqrt", [s1])
        _, on = online_vpc(g, CFG, CM, {a: Fraction(2)})
        assert on.assignment[s2] == on.assignment[s1] + 1

    def test_dominant_operand_wins_merge(self):
        # addition with wildly different exponents: the merged sensitivity is
        # the dominant operand's route (within one quantization bin), not the
        # non-dominant route's amplified proposal
        g = ExprGraph()
        big, small = g.add_input(), g.add_input()
        m1 = g.record("mul", [big, big])
        m2 = g.record("mul", [small, small])
        s = g.record("add", [m1, m2])
        _, on = online_vpc(g, CFG, CM, {big: Fraction(2 ** 12), small: Fraction(1, 2 ** 12)})
        lut = XoptLut(CM, CFG)
        dominant_route_x = lut.lookup(-on.gsigma[m1] / CFG.alpha, "add")
        assert abs(on.assignment[s] - dominant_route_x) <= 1

    def test_values_computed_during_planning(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        m = g.record("mul", [a, b])
        res, plan = online_vpc(g, CFG, CM, {a: Fraction(3, 2), b: Fraction(5, 2)})
        assert res.output_fractions()[0] == Fraction(15, 4)
        assert predicted_errors(g, res)[m] > 0

    def test_balanced_addition_raises_consumer_precision(self):
        # equal exponents take the exact-path factor (c/a)^2 = 4 for a
        # balanced sum: consumers of additions sit above their operands
        g = ExprGraph()
        xs = [g.add_input() for _ in range(2)]
        m1 = g.record("mul", [xs[0], xs[0]])
        m2 = g.record("mul", [xs[1], xs[1]])
        s = g.record("add", [m1, m2])
        d = g.record("mul", [s, s])
        _, on = online_vpc(g, CFG, CM, {xs[0]: Fraction(3, 2), xs[1]: Fraction(5, 4)})
        assert on.assignment[s] >= on.assignment[m1]

    def test_alpha_acts_only_through_the_anchor(self):
        # five alphas that give every output the same final-step precision
        # give one plan: alpha moves no interior decision, not even where a
        # merged rho lands exactly on a threshold
        zfg = build_zf_graph(4, 4)
        ip = zfg.input_precisions()
        vals = zfg.input_values(gen_channel(np.random.default_rng(0), 4, 4))
        anchors, plans = set(), set()
        for a in np.geomspace(1e-20, 1e-3, 150)[10:15]:
            cfg = UtilityConfig(alpha=float(a), x_min=2)
            anchors.add(tuple(final_step_precision(zfg.graph, cfg, CM).values()))
            _, plan = online_vpc(zfg.graph, cfg, CM, vals, 10, ip)
            plans.add(tuple(sorted(plan.assignment.items())))
        assert len(anchors) == 1 and set(next(iter(anchors))) == {29}
        assert len(plans) == 1


class TestOneExecutor:
    """The offline and online policies share one executor: replaying an
    online plan through execute reproduces the online run exactly."""

    def test_online_plan_replays_bit_for_bit(self):
        zfg = build_zf_graph(4, 4)
        ip = zfg.input_precisions()
        for seed in range(3):
            vals = zfg.input_values(gen_channel(np.random.default_rng(seed), 4, 4))
            for alpha in (1e-13, 1e-9, 1e-5):
                res, plan = online_vpc(zfg.graph, UtilityConfig(alpha=alpha), CM,
                                       vals, 10, ip)
                again = execute(zfg.graph, plan, vals, ip)
                assert again.values == res.values
                assert again.precisions == res.precisions
                assert predicted_errors(zfg.graph, again) == predicted_errors(zfg.graph, res)
                assert again.degenerate_zero == res.degenerate_zero

    def test_replay_with_input_rounded_at_storage(self):
        # 1/3 is not representable at 20 bits: both policies see the
        # stored value, not the exact input
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        g.record("add", [a, b])
        vals = {a: Fraction(1, 3), b: Fraction(3, 4)}
        res, plan = online_vpc(g, CFG, CM, vals, 10, 20)
        again = execute(g, plan, vals, 20)
        assert again.values == res.values
        assert again.precisions == res.precisions
        assert predicted_errors(g, again) == predicted_errors(g, res)

    @pytest.mark.parametrize("shift", [600, -600])
    def test_float_range_failure_names_node(self, shift):
        # the 4x4 Gram entries of a channel scaled by 2**shift sit at
        # 2**(2*shift): inside the eBFP range of E=13, outside float's
        zfg = build_zf_graph(4, 4)
        h = gen_channel(np.random.default_rng(600), 4, 4)
        c = Fraction(2) ** shift
        scaled = ChannelMatrix(tuple(tuple(v * c for v in row) for row in h.re),
                               tuple(tuple(v * c for v in row) for row in h.im))
        vals, ip, wide = zfg.input_values(scaled), zfg.input_precisions(), EbfpParams(1, 13, 80)
        with pytest.raises(GraphExecutionError) as ex:
            execute(zfg.graph, fixed_plan(zfg.graph, 24), vals, ip, wide)
        with pytest.raises(GraphExecutionError) as on:
            online_vpc(zfg.graph, CFG, CM, vals, 10, ip, wide)
        assert ex.value.node_id == on.value.node_id
        assert zfg.graph.nodes[ex.value.node_id].op is not OpKind.INPUT
        assert "float range" in ex.value.reason
        assert "float range" in on.value.reason


def reference_online_vpc(graph, cfg, input_values, e_b=10, input_precision=53):
    """online_vpc written out as one generic operand loop: per operand a
    weight, a forward factor and a test for an input, then a ladder lookup
    per node through XoptLut, with each rung's midpoint in closed form."""
    lut = XoptLut(CM, cfg)
    base = fresh_ladder(CM, cfg.x_min, cfg.x_max)[0]

    def midpoint(x, op):
        return base[op] * EPS ** (2 * min(x, cfg.x_max)) / EPS

    final_x = final_step_precision(graph, cfg, CM)
    mid = (cfg.x_min + cfg.x_max) // 2
    seed = {nid: midpoint(final_x.get(sink, mid), op) * factor
            for nid, op, sink, factor in graph.table(optimizer._reverse_sweep, e_b)[2]}
    fixed_forward = {op: speculation_factor(op.value, "forward", e_b)
                     for op in (OpKind.MUL, OpKind.DIV, OpKind.SQRT)}
    rho = {}

    def choose(node, va, vb):
        op = node.op
        vc = {OpKind.ADD: lambda: va + vb, OpKind.SUB: lambda: va - vb,
              OpKind.MUL: lambda: va * vb, OpKind.DIV: lambda: va / vb,
              OpKind.SQRT: lambda: math.sqrt(va)}[op]()
        if vc == 0:
            rho[node.id] = 0.0
            return cfg.x_min
        total = wsum = 0.0
        for oid, v_op in zip(node.operands, (va, vb)):
            if op in (OpKind.ADD, OpKind.SUB):
                q = v_op / vc  # squared by one product: float ** 2 calls libm pow
                weight, factor = abs(v_op), min(1.0, q * q)
            else:
                weight, factor = 1.0, fixed_forward[op]
            if graph.nodes[oid].op is OpKind.INPUT:
                total += seed[node.id] * weight
            else:
                total += rho[oid] * factor * weight
            wsum += weight
        x = lut.lookup(total / wsum, op)
        rho[node.id] = midpoint(x, op)
        return x

    result = run(graph, choose, input_values, input_precision)
    gsigma = {nid: -cfg.alpha * r if r else 0.0 for nid, r in rho.items()}
    return result, PrecisionPlan({nid: result.precisions[nid] for nid in rho}, gsigma)


def online_outcome(plan_fn, *args):
    """Everything a planner returns, in key order and with floats by repr,
    or the node and reason it failed with."""
    try:
        res, plan = plan_fn(*args)
    except GraphExecutionError as err:
        return err.node_id, err.reason
    return (list(plan.assignment.items()), repr(list(plan.gsigma.items())),
            list(res.values.items()), repr(list(res.floats.items())), res.degenerate_zero)


# small dyadic and non-dyadic values, repeated often enough that add/sub
# cancel exactly; zero, so that some div fails and some add keeps one side
_VALUES = st.sampled_from([Fraction(v) for v in (1, -1, 2, 3, 0)] + [Fraction(1, 3), Fraction(-5, 7)]) \
    | st.builds(lambda m, e: Fraction(m) * Fraction(2) ** e,
                st.integers(-2 ** 60, 2 ** 60), st.integers(-300, 300))


@st.composite
def online_cases(draw):
    """A random graph over 1-3 inputs with 1-12 ops and a few marked outputs
    (so some sink is no output and takes the mid anchor), its input values
    and precisions, a utility config and an e_b."""
    g = ExprGraph()
    ids = [g.add_input() for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(["add", "sub", "mul", "div", "sqrt"]))
        pick = st.sampled_from(ids)
        ids.append(g.record(op, [draw(pick)] if op == "sqrt" else [draw(pick), draw(pick)]))
    for oid in draw(st.lists(st.sampled_from(g.non_input_ids()), unique=True, max_size=2)):
        g.mark_output(oid)
    vals = {i: draw(_VALUES) for i in g.inputs}
    xin = draw(st.integers(1, 64) | st.just(53))
    x_min = draw(st.integers(1, 12))
    cfg = UtilityConfig(draw(st.sampled_from([1e-20, 1e-13, 1e-11, 1e-9, 1e-5, 1.0])),
                        x_min, draw(st.integers(x_min, 64)))
    return g, cfg, vals, draw(st.integers(4, 14)), xin


class TestOnlineAgainstReference:
    """online_vpc's per-kind branches and ladder tables decide as the
    generic operand loop does, bit for bit: the same precisions, G_sigma,
    values and failures."""

    @given(online_cases())
    @settings(max_examples=600, deadline=None)
    def test_random_graphs(self, case):
        g, cfg, vals, e_b, xin = case
        assert online_outcome(online_vpc, g, cfg, CM, vals, e_b, xin) == \
            online_outcome(reference_online_vpc, g, cfg, vals, e_b, xin)

    @pytest.mark.parametrize("alpha", [1e-13, 1e-11, 1e-9])
    def test_precoder_4x4(self, alpha):
        zfg = build_zf_graph(4, 4)
        ip, cfg = zfg.input_precisions(), UtilityConfig(alpha)
        for seed in range(2):
            vals = zfg.input_values(gen_channel(np.random.default_rng(seed), 4, 4))
            got = online_outcome(online_vpc, zfg.graph, cfg, CM, vals, 10, ip)
            assert len(got) == 5  # the precoder runs
            assert got == online_outcome(reference_online_vpc, zfg.graph, cfg, vals, 10, ip)


def _yielded(got):
    """online_outcome of one lane that online_lanes yielded."""
    def again():
        if isinstance(got, GraphExecutionError):
            raise got
        return got
    return online_outcome(again)


def _scalar_outcome(graph, cfg, vals, e_b, xin, params=EbfpParams()):
    """online_outcome of online_vpc's scalar copy, on graph.run."""
    with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", math.inf):
        return online_outcome(online_vpc, graph, cfg, CM, vals, e_b, xin, params)


def _counted_runs(monkeypatch) -> list:
    """One entry per graph.run the online planner makes from now on."""
    runs = []
    monkeypatch.setattr(optimizer, "run", lambda *args: runs.append(1) or run(*args))
    return runs


class TestOnlineLanes:
    """online_lanes decides and computes each lane as online_vpc's scalar
    copy does, bit for bit: in float64 where the kernel takes the lane (a
    lane that fails there names run's node and reason), and through
    graph.run where the lane decides a precision above 50 bits before any
    node fails, or is outside the kernel's domain."""

    @given(case=online_cases(), data=st.data(), n_lanes=st.integers(1, 4),
           per_pass=st.integers(1, 4), f=st.integers(1, 9), e=st.integers(2, 10),
           blocks=st.integers(2, 90))
    @settings(max_examples=400, deadline=None)
    def test_random_graphs(self, case, data, n_lanes, per_pass, f, e, blocks):
        # the case's values and up to 3 more lanes drawn alike: the values
        # hold zeros, so some lanes divide by zero; at alpha 1e-33 the
        # anchors lie above 50 bits, so most lanes decide wider than the
        # kernel.  The geometries of TestFloatKernel's lanes: a block budget
        # below 50 bits lowers the kernel's widest precision, below x_min too
        g, cfg, vals, e_b, xin = case
        params = EbfpParams(f, e, blocks)
        if data.draw(st.booleans()):
            cfg = UtilityConfig(1e-33, cfg.x_min, 64)
        lanes = [vals] + [{i: data.draw(_VALUES) for i in g.inputs} for _ in range(n_lanes - 1)]
        want = [_scalar_outcome(g, cfg, v, e_b, xin, params) for v in lanes]
        with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", 0), \
                mock.patch.object(graph_module, "KERNEL_MAX_LANES", per_pass):
            got = list(online_lanes(g, cfg, CM, iter(lanes), e_b, xin, params))
        assert list(map(_yielded, got)) == want

    @pytest.mark.parametrize("alpha", [1e-13, 1e-9, 1e-5])
    @pytest.mark.parametrize("k", [4, 8])
    def test_precoders(self, k, alpha, monkeypatch):
        # three channels, the lanes of one pass, all decided in float64
        zfg = build_zf_graph(k, k)
        ip, cfg = zfg.input_precisions(), UtilityConfig(alpha, 2, 64)
        lanes = [zfg.input_values(gen_channel(np.random.default_rng(s), k, k)) for s in range(3)]
        want = [_scalar_outcome(zfg.graph, cfg, v, 10, ip) for v in lanes]
        assert all(len(w) == 5 for w in want)  # every lane runs
        runs = _counted_runs(monkeypatch)
        assert list(map(_yielded, online_lanes(zfg.graph, cfg, CM, lanes, 10, ip))) == want
        assert runs == []

    def test_lanes_that_fail_or_decide_wide_fall_back(self, monkeypatch):
        # on the 4x4 precoder, a channel of zeros divides by zero, and the
        # kernel fails it as the run does, without the run; at alpha 1e-33
        # every other lane decides more than 50 bits somewhere and goes back
        # whole, while the zero lane divides by zero before that
        zfg = build_zf_graph(4, 4)
        ip = zfg.input_precisions()
        lanes = [zfg.input_values(gen_channel(np.random.default_rng(s), 4, 4)) for s in range(3)]
        zeros = ((Fraction(0),) * 4,) * 4
        lanes.insert(1, zfg.input_values(ChannelMatrix(zeros, zeros)))
        for alpha, back in ((1e-9, 0), (1e-33, 3)):
            cfg = UtilityConfig(alpha, 2, 64)
            want = [_scalar_outcome(zfg.graph, cfg, v, 10, ip) for v in lanes]
            assert len(want[1]) == 2 and [len(w) for w in want[::2]] == [5, 5]
            runs = _counted_runs(monkeypatch)
            got = list(online_lanes(zfg.graph, cfg, CM, lanes, 10, ip))
            assert list(map(_yielded, got)) == want and len(runs) == back
            if back == 3:
                assert max(max(w[0])[1] for w in want[::2]) > graph_module.KERNEL_MAX_X

    def test_a_rho_on_a_threshold_takes_the_lower_rung(self, monkeypatch):
        # at e_b 5 four adds on the path to the sink give the mul's seed the
        # offset -1/2, so its rho = seed = midpoint / 2 = threshold / 4, the
        # threshold one rung down, exactly: searchsorted must take the
        # left side there, as bisect_left does
        g = ExprGraph()
        x = g.add_input()
        t = g.record("mul", [x, x])
        for _ in range(4):
            t = g.record("add", [t, t])
        g.mark_output(t)
        cfg, vals = UtilityConfig(1e-9, 2, 64), {x: Fraction(3)}
        (nid, op, sink, factor), = g.table(optimizer._reverse_sweep, 5)[2]
        lut, k = XoptLut(CM, cfg), final_step_precision(g, cfg, CM)[sink] - cfg.x_min
        assert factor == 0.5 and lut.mid_rho[op][k] * factor == lut.thresholds[op][k - 1]
        want = _scalar_outcome(g, cfg, vals, 5, 53)
        runs = _counted_runs(monkeypatch)
        with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", 0):
            got, = online_lanes(g, cfg, CM, [vals], 5, 53)
        assert _yielded(got) == want and runs == []
        assert got[1].assignment[nid] == cfg.x_min + k - 1

    def test_a_seed_beyond_float_range_goes_back_to_the_run(self, monkeypatch):
        # at e_b 4 each sub on the path to the sink costs a bit, so the first
        # nodes of a chain of 508 subs take seeds beyond float range; times
        # the zero weight of y = 0 that is a nan, which bisect_left puts at
        # the ladder's foot and searchsorted at its top (x_max 40 is inside
        # the kernel's ladder, so that lane would not be caught as too wide)
        g = ExprGraph()
        x, y = g.add_input(), g.add_input()
        t = x
        for _ in range(508):
            t = g.record("sub", [t, y])
        g.mark_output(t)
        cfg = UtilityConfig(1e-9, 2, 40)
        lanes = [{x: Fraction(3), y: Fraction(0)}, {x: Fraction(3), y: Fraction(1, 3)}]
        want = [_scalar_outcome(g, cfg, v, 4, 53) for v in lanes]
        runs = _counted_runs(monkeypatch)
        with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", 0), warnings.catch_warnings():
            warnings.simplefilter("error")  # an infinite seed warns nothing
            got = list(online_lanes(g, cfg, CM, lanes, 4, 53))
        assert list(map(_yielded, got)) == want and len(runs) == 2

    def test_a_seed_factor_beyond_float_range_is_infinite(self, monkeypatch):
        # 513 subs take the first nodes' bit offsets past 512, where the
        # factor EPS ** (2 * offset) overflows a float: it is infinite, as
        # the seeds of the shorter chain above are, so offline plans and
        # online sends the lanes back to the run
        g = ExprGraph()
        x, y = g.add_input(), g.add_input()
        t = x
        for _ in range(513):
            t = g.record("sub", [t, y])
        g.mark_output(t)
        cfg = UtilityConfig(1e-9, 2, 40)
        assert math.inf in [factor for _, _, _, factor in g.table(optimizer._reverse_sweep, 4)[2]]
        assert sorted(offline_vpc(g, cfg, CM, 4).assignment) == g.non_input_ids()
        lanes = [{x: Fraction(3), y: Fraction(0)}, {x: Fraction(3), y: Fraction(1, 3)}]
        want = [_scalar_outcome(g, cfg, v, 4, 53) for v in lanes]
        runs = _counted_runs(monkeypatch)
        with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", 0), warnings.catch_warnings():
            warnings.simplefilter("error")  # an infinite seed warns nothing
            got = list(online_lanes(g, cfg, CM, lanes, 4, 53))
        assert list(map(_yielded, got)) == want and len(runs) == 2

    def test_one_8x8_lane_never_enters_the_run(self, monkeypatch):
        # one lane of the 8x8 precoder is wide enough to decide in float64
        zfg = build_zf_graph(8, 8)
        ip, cfg = zfg.input_precisions(), UtilityConfig(1e-9, 2, 64)
        vals = zfg.input_values(gen_channel(np.random.default_rng(3), 8, 8))
        want = _scalar_outcome(zfg.graph, cfg, vals, 10, ip)

        def boom(*args):
            raise AssertionError("graph.run called")

        monkeypatch.setattr(optimizer, "run", boom)
        monkeypatch.setattr(graph_module, "run", boom)
        assert online_outcome(online_vpc, zfg.graph, cfg, CM, vals, 10, ip) == want

    def test_alpha_inf_warns_nothing(self, monkeypatch):
        # at alpha = inf, G_sigma = -alpha * rho is -inf, and 0.0 at the 4x4
        # precoder's five exact-zero results: the kernel lane multiplies
        # no zero rho by inf, and its G_sigma is the scalar copy's by repr
        zfg = build_zf_graph(4, 4)
        vals, ip = zfg.input_values(gen_channel(np.random.default_rng(3), 4, 4)), zfg.input_precisions()
        cfg = UtilityConfig(math.inf, 2, 64)
        runs = _counted_runs(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, plan = online_vpc(zfg.graph, cfg, CM, vals, 10, ip)
        assert runs == []
        with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", math.inf):
            _, want = online_vpc(zfg.graph, cfg, CM, vals, 10, ip)
        assert len(runs) == 1 and repr(plan.gsigma) == repr(want.gsigma)
        assert sorted(set(plan.gsigma.values())) == [-math.inf, 0.0]

    def test_one_edit_of_the_update_reaches_both_drivers(self, monkeypatch):
        # the rho update is written once: scaled by EPS**2, one bit up, it
        # moves a 4x4 kernel lane's plan and a scalar lane's plan alike
        zfg = build_zf_graph(4, 4)
        vals, ip = zfg.input_values(gen_channel(np.random.default_rng(3), 4, 4)), zfg.input_precisions()
        cfg = UtilityConfig(1e-9, 2, 64)

        def plans():
            runs = _counted_runs(monkeypatch)
            kernel = online_vpc(zfg.graph, cfg, CM, vals, 10, ip)[1]
            with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", math.inf):
                scalar = online_vpc(zfg.graph, cfg, CM, vals, 10, ip)[1]
            assert len(runs) == 1
            return repr(kernel), repr(scalar)

        (kernel, scalar), rho = plans(), optimizer._rho
        monkeypatch.setattr(optimizer, "_rho", lambda *args: rho(*args) * EPS ** 2)
        moved_kernel, moved_scalar = plans()
        assert kernel == scalar and moved_kernel == moved_scalar
        assert moved_kernel != kernel and moved_scalar != scalar


class TestArrays:
    """Results and plans keep id-ordered arrays; the dicts built from them
    when first read compare, print and pickle as dicts built at once do."""

    @staticmethod
    def precoder():
        zfg = build_zf_graph(4, 4)
        vals = zfg.input_values(gen_channel(np.random.default_rng(3), 4, 4))
        return zfg, vals, zfg.input_precisions(), UtilityConfig(1e-9, 2, 64)

    def test_kernel_lanes_agree_with_run_and_with_dicts(self, monkeypatch):
        # each planner's plan and its result on the kernel, and the online
        # planner's, pickled before any dict is read and after, against
        # run's; and each plan against the plan built from its dicts
        zfg, vals, ip, cfg = self.precoder()
        g = zfg.graph

        def lanes():
            plans = [fixed_plan(g, 24), offline_vpc(g, cfg, CM),
                     random_blockwise_plan(g, np.random.default_rng(1), 4, 30)]
            return [(execute(g, p, vals, ip), p) for p in plans] + [online_vpc(g, cfg, CM, vals, 10, ip)]

        runs = _counted_runs(monkeypatch)
        monkeypatch.setattr(graph_module, "run", lambda *args: runs.append(1) or run(*args))
        kernel, fresh = lanes(), lanes()
        assert runs == []
        with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", math.inf):
            scalar = lanes()
        assert len(runs) == 4
        unread = pickle.loads(pickle.dumps(kernel))
        for got in (unread, kernel, pickle.loads(pickle.dumps(kernel))):
            assert got == scalar and repr(got) == repr(scalar)
        for _, plan in fresh:  # no dict read yet
            copy = pickle.loads(pickle.dumps(plan))
            built = PrecisionPlan(dict(plan.assignment), plan.gsigma and dict(plan.gsigma))
            assert built == plan == copy and repr(built) == repr(plan) == repr(copy)

    def test_a_plan_read_from_csv_runs_as_the_planners(self, monkeypatch):
        # plan_from_csv builds its plan from dicts: it runs on the kernel,
        # and scores, writes and bins as the online planner's arrays do
        zfg, vals, ip, cfg = self.precoder()
        g = zfg.graph
        res, plan = online_vpc(g, cfg, CM, vals, 10, ip)
        metrics, out = plan_metrics(g, plan, CM), execute(g, plan, vals, ip)  # on the arrays
        written = io.StringIO()
        plan_to_csv(g, plan, written)
        back = plan_from_csv(io.StringIO(written.getvalue()))
        runs = _counted_runs(monkeypatch)
        monkeypatch.setattr(graph_module, "run", lambda *args: runs.append(1) or run(*args))
        assert back.xs is None and execute(g, back, vals, ip) == out == res and runs == []
        assert back == plan and repr(plan_metrics(g, back, CM)) == repr(metrics)
        again, lines = io.StringIO(), [io.StringIO(), io.StringIO()]
        plan_to_csv(g, back, again)
        for fh, p in zip(lines, (plan, back)):
            g.dump_jsonl(fh, p)
        assert again.getvalue() == written.getvalue() and lines[0].getvalue() == lines[1].getvalue()
        assert precision_histogram(zfg, back) == precision_histogram(zfg, plan)

    def test_a_plan_keeps_its_nodes_as_its_graph_grows(self):
        # a plan's ids are its graph's op_ids, which grow with the graph:
        # a plan made before the growth reads only the nodes it planned, in
        # its order (offline's in reverse), and runs them; on the grown
        # graph the kernel does not read it as a row of the new node count
        g, vals = implicit_output_graph(), {0: Fraction(5, 3), 1: Fraction(7, 4)}

        def plans():
            with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", 0):
                return [offline_vpc(g, CFG, CM), fixed_plan(g, 9), online_vpc(g, CFG, CM, vals)[1]]

        made, want = plans(), [(list(p.assignment.items()), p.gsigma) for p in plans()]
        n = len(g.op_ids)
        g.record("mul", [2, g.record("sqrt", [0])])
        assert all(p.row(g.op_ids) is None for p in made) and len(g.op_ids) == n + 2
        assert [(list(p.assignment.items()), p.gsigma) for p in made] == want

    def test_every_planner_gives_a_row_on_its_graph(self, monkeypatch):
        # each planner keeps its precisions as an int64 row in op_ids order,
        # the online planner on the kernel and through its scalar driver
        zfg, vals, ip, cfg = self.precoder()
        g = zfg.graph
        runs = _counted_runs(monkeypatch)
        plans = [fixed_plan(g, 24), offline_vpc(g, cfg, CM),
                 random_blockwise_plan(g, np.random.default_rng(1), 4, 30),
                 online_vpc(g, cfg, CM, vals, 10, ip)[1]]
        with mock.patch.object(graph_module, "KERNEL_MIN_WIDTH", math.inf):
            plans.append(online_vpc(g, cfg, CM, vals, 10, ip)[1])
        assert len(runs) == 1  # the last plan's, on the scalar driver
        rows = [plan.row(g.op_ids) for plan in plans]
        assert all(row is not None and row.dtype == np.int64 for row in rows)
        for plan, row in zip(plans, rows):
            assert plan.assignment == dict(zip(g.op_ids, row.tolist()))
        assert plans[3] == plans[4] and repr(plans[3]) == repr(plans[4])

    def test_a_plan_read_is_its_dict(self):
        # once read, the dict is the plan: a change to it is what runs and
        # what is scored, not the array it was built from
        zfg, vals, ip, _ = self.precoder()
        g = zfg.graph
        plan = fixed_plan(g, 24)
        plan.assignment[g.op_ids[0]] = 30
        assert plan.xs is None and plan.row(g.op_ids) is None
        assert execute(g, plan, vals, ip) == run(g, graph_module._planned(plan), vals, ip)
        assert plan_metrics(g, plan, CM) == plan_metrics(g, dict(plan.assignment), CM) != \
            plan_metrics(g, fixed_plan(g, 24), CM)


class TestPlans:
    def test_fixed(self):
        g, _ = chain("add", "mul")
        p = fixed_plan(g, 12)
        assert all(v == 12 for v in p.assignment.values())
        assert plan_metrics(g, p, CM)[0] == 12.0

    def test_blockwise_requires_tags(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        g.record("add", [a, b])
        with pytest.raises(ValueError):
            random_blockwise_plan(g, np.random.default_rng(0), 4, 20)

    def test_blockwise_draw_coverage(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        n1 = g.record("add", [a, b], part="p1")
        n2 = g.record("mul", [n1, a], part="p2")
        seen = set()
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_blockwise_plan(g, rng, 4, 24)
            seen.update(p.assignment.values())
            assert set(p.assignment) == {n1, n2}
        assert min(seen) <= 6 and max(seen) >= 22

    def test_metrics_example(self):
        g = ExprGraph()
        a, b = g.add_input(), g.add_input()
        n1 = g.record("add", [a, b])
        n2 = g.record("sqrt", [n1])
        avg, total = plan_metrics(g, {n1: 10, n2: 20}, CM)
        assert avg == pytest.approx((1 * 10 + 80 * 20) / 81)
        assert total == pytest.approx(1 * 10 + 80 * 20)

    def test_csv_roundtrip(self):
        g, _ = chain("add", "mul", "sqrt")
        plan = offline_vpc(g, CFG, CM)
        buf = io.StringIO()
        plan_to_csv(g, plan, buf)
        buf.seek(0)
        back = plan_from_csv(buf)
        assert back.assignment == plan.assignment

    def test_csv_rejects_bad_g_sigma(self):
        # empty cells, written for nodes without G_sigma, read as absent
        header = "node_id,op,step_n,step_k,x,g_sigma\n"
        back = plan_from_csv(io.StringIO(header + "2,add,1,1,12,''\n3,mul,2,1,9,\n"))
        assert back.assignment == {2: 12, 3: 9} and back.gsigma is None
        with pytest.raises(ValueError, match="node 2"):
            plan_from_csv(io.StringIO(header + "2,add,1,1,12,not-a-number\n"))

    @pytest.mark.parametrize("text, row", [
        ("", 1),
        ("2,add,1,1,12,\n", 1),  # no header
        ("node_id,op,step_n,step_k,precision,g_sigma\n", 1),
        ("node_id,op,step_n,step_k,x,g_sigma\n2,add,1,1,12,\n3,mul,2,1,9\n", 3),
        ("node_id,op,step_n,step_k,x,g_sigma\n2,add,1,1,12,\n\n", 3),
        ("node_id,op,step_n,step_k,x,g_sigma\nn2,add,1,1,12,\n", 2),
        ("node_id,op,step_n,step_k,x,g_sigma\n2,add,1,1,12.0,\n", 2),
    ])
    def test_csv_rejects_what_it_cannot_read(self, text, row):
        with pytest.raises(ValueError, match=f"^row {row}: "):
            plan_from_csv(io.StringIO(text))


def rates(e_b):
    return ops_per_bit("add", e_b), ops_per_bit("sub", e_b)


class TestSeedOffset:
    def test_sqrt_counts_one_bit(self):
        assert seed_bit_offset(0, 0, 3, *rates(10)) == -3

    def test_addsub_rates(self):
        # many additions lower the seed, subtractions raise it
        assert seed_bit_offset(200, 0, 0, *rates(8)) < 0
        assert seed_bit_offset(0, 200, 0, *rates(8)) > 0
        assert round(seed_bit_offset(1, 1, 0, *rates(8))) == 0


@dataclass(frozen=True)
class OtherWeights(ComplexityModel):
    """Integer weights other than ``DEFAULT_WEIGHTS``: dearer adds, a cheap sqrt."""

    def weight(self, op):
        return {"add": 3.0, "sub": 4.0, "mul": 30.0, "div": 40.0, "sqrt": 20.0}[OpKind(op).value]


def reference_plan_metrics(graph, plan, cm):
    """plan_metrics as one weighted sum over the nodes in id order."""
    assignment = getattr(plan, "assignment", plan)
    weight = {op: cm.weight(op) for op in DEFAULT_WEIGHTS}
    total = wsum = 0.0
    for node in graph.nodes:
        if node.op is not OpKind.INPUT:
            total += weight[node.op] * assignment[node.id]
            wsum += weight[node.op]
    return (total / wsum if wsum else 0.0), total


def reference_blockwise(graph, rng, x_min, x_max):
    """random_blockwise_plan as a walk over the nodes: (assignment items) or
    the ValueError's message."""
    parts = []
    for nid in graph.non_input_ids():
        part = graph.nodes[nid].part
        if part is None:
            return f"node {nid} has no part tag"
        if part not in parts:
            parts.append(part)
    draw = {p: int(rng.integers(x_min, x_max + 1)) for p in sorted(parts)}
    return [(nid, draw[graph.nodes[nid].part]) for nid in graph.non_input_ids()]


def fresh_ladder(cm, x_min, x_max):
    """The ladder in closed form, computed on the spot: (base, thresholds,
    midpoints), a rung's midpoint being base * EPS**(2x) / EPS."""
    scale = 2.0 * math.log(EPS) / (1.0 - EPS ** -2)
    base = {op: scale * cm.weight(op) for op in DEFAULT_WEIGHTS}
    th = {op: [b * EPS ** (2 * x) for x in range(x_min, x_max)] for op, b in base.items()}
    mids = {op: [b * EPS ** (2 * x) / EPS for x in range(x_min, x_max + 1)]
            for op, b in base.items()}
    return base, th, mids


#: the precision types a plan may hold: plain ints and numpy integers
INT_TYPES = (int, np.int64, np.int32, np.uint8)


def grow_tagged(g, rnd, n_ops, parts=("gram", "inverse", "precode")):
    """Record n_ops random operations on g, each with a random part tag
    (None in about one graph of ten)."""
    untagged = rnd.random() < 0.1
    for _ in range(n_ops):
        op = rnd.choice(["add", "sub", "mul", "div", "sqrt"])
        operands = [rnd.randrange(len(g.nodes)) for _ in range(1 if op == "sqrt" else 2)]
        g.record(op, operands, None if untagged and rnd.random() < 0.2 else rnd.choice(parts))


class TestTables:
    """The ladder per bounds and weights and the id tables per graph are
    caches: every plan and metric equals a fresh computation."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n_ops=st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_plans_and_metrics_equal_the_node_loops(self, seed, n_ops):
        rnd = random.Random(seed)
        g = ExprGraph()
        for _ in range(rnd.randint(1, 3)):
            g.add_input()
        grow_tagged(g, rnd, n_ops)
        for _ in range(2):  # the second time round the graph has grown
            ids = g.non_input_ids()
            plan = {nid: rnd.choice(INT_TYPES)(rnd.randint(1, 200)) for nid in ids}
            for cm in (CM, OtherWeights()):
                want = reference_plan_metrics(g, plan, cm)
                assert repr(plan_metrics(g, plan, cm)) == repr(want)
                assert repr(plan_metrics(g, PrecisionPlan(plan), cm)) == repr(want)
            x = rnd.randint(1, 200)
            assert list(fixed_plan(g, x).assignment.items()) == [(nid, x) for nid in ids]
            got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
            try:
                got = list(random_blockwise_plan(g, got_rng, 2, 20).assignment.items())
            except ValueError as e:
                got = str(e)
            assert got == reference_blockwise(g, want_rng, 2, 20)
            assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)
            grow_tagged(g, rnd, rnd.randint(1, 5))

    @given(x_min=st.integers(1, 100), width=st.integers(0, 120), other=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_ladder_equals_a_fresh_computation(self, x_min, width, other):
        # width 0 is the one-rung ladder
        cm, cfg = (OtherWeights() if other else CM), UtilityConfig(1e-9, x_min, x_min + width)
        lut = XoptLut(cm, cfg)
        _, th, mids = fresh_ladder(cm, cfg.x_min, cfg.x_max)
        assert (lut.thresholds, lut.mid_rho) == (th, mids)
        for op in th:
            assert lut.arrays[op].dtype == np.float64 and lut.arrays[op].tolist() == th[op]
            for rho in (0.0, th[op][0] if th[op] else 1.0, mids[op][-1], 1e300):
                assert lut.lookup(rho, op) == x_min + bisect.bisect_left(th[op], rho)

    def test_other_weights_get_their_own_ladder(self):
        default, other = XoptLut(CM, CFG), XoptLut(OtherWeights(), CFG)
        assert other.thresholds[OpKind.ADD] != default.thresholds[OpKind.ADD]
        assert other.thresholds[OpKind.MUL] == default.thresholds[OpKind.MUL]
        assert (other.thresholds, other.mid_rho) == \
            fresh_ladder(OtherWeights(), CFG.x_min, CFG.x_max)[1:]
        # a lut with the same bounds and weights shares the tables
        assert XoptLut(CM, UtilityConfig(1e-3)).thresholds is default.thresholds
        g = build_zf_graph(2, 2).graph
        cheap, dear = (offline_vpc(g, CFG, cm).assignment for cm in (CM, OtherWeights()))
        assert cheap != dear
        assert cheap == offline_vpc(g, CFG, CM).assignment

    def test_tables_are_freed_with_their_graph(self):
        g, _ = chain("add", "mul", "sqrt")
        plan_metrics(g, offline_vpc(g, CFG, CM), CM)
        # the graph's own store holds the sweep and the id lists, each built once
        assert set(g._derived) == {(optimizer._reverse_sweep, 10), (optimizer._ids,)}
        assert g.table(optimizer._ids) is g.table(optimizer._ids)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None
