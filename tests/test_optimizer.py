"""Tests for the precision-assignment machinery."""

import gc
import io
import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from varprec import optimizer
from varprec.ebfp import EbfpParams
from varprec.errormodel import EPS, ops_per_bit, speculation_factor
from varprec.graph import ExprGraph, GraphExecutionError, OpKind, execute
from varprec.mimo import ChannelMatrix, build_zf_graph, gen_channel
from varprec.optimizer import (
    ComplexityModel,
    PrecisionPlan,
    UtilityConfig,
    XoptLut,
    final_step_precision,
    fixed_plan,
    modeled_utility_batch,
    offline_vpc,
    online_vpc,
    plan_from_csv,
    plan_metrics,
    plan_to_csv,
    random_blockwise_plan,
    seed_bit_offset,
)

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
], ids=["x-min-above-x-max", "x-min-0", "alpha-0", "alpha-negative"])
def test_utility_config_rejects(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        UtilityConfig(**kwargs)


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
                assert lut.lookup(lut.reverse(x, op), op) == x

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
        rho12 = lut.reverse(12, "mul")
        cfg = UtilityConfig(alpha=CFG.gsigma_unit / rho12)
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
        terms = [-cfg.gsigma_unit] if node.id in out_set else []
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
        assert res.errors[m] > 0

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
                assert again.errors == res.errors
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
        assert again.errors == res.errors

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
