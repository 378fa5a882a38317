"""Tests for the zero-forcing case study."""

import math
from fractions import Fraction

import numpy as np
import pytest

from varprec import graph as graph_module, mimo
from varprec.ebfp import decode
from varprec.graph import GraphExecutionError, execute, topo_stats, OpKind
from varprec.mimo import (
    ChannelMatrix,
    SimConfig,
    build_zf_graph,
    ber_sim,
    calibrate_alpha,
    gen_channel,
    online_alpha,
    pareto_sweep,
    precision_histogram,
    sum_rate,
    sweep_cell,
    sweep_inputs,
    zf_reference,
)
from varprec.optimizer import (
    ComplexityModel,
    UtilityConfig,
    fixed_plan,
    online_vpc,
    plan_metrics,
    random_blockwise_plan,
)

from oracles import final_step_precision, gram_inverse_residual


class TestChannel:
    def test_deterministic(self):
        a = gen_channel(np.random.default_rng(5), 2, 3)
        b = gen_channel(np.random.default_rng(5), 2, 3)
        assert a == b

    def test_unit_variance(self):
        h = gen_channel(np.random.default_rng(0), 50, 100)
        z = h.as_complex()
        v = float(np.mean(np.abs(z) ** 2))
        assert abs(v - 1.0) < 0.05

    def test_scalar_case(self):
        h = gen_channel(np.random.default_rng(1), 1, 1)
        assert h.k_users == h.n_t == 1

    def test_entries_are_exact_dyadics(self):
        h = gen_channel(np.random.default_rng(2), 2, 2)
        for row in h.re:
            for q in row:
                assert bin(q.denominator).count("1") == 1  # power of two


class TestBuildGraph:
    def test_scalar_identity(self):
        zfg = build_zf_graph(1, 1)
        h = ChannelMatrix(((Fraction(1),),), ((Fraction(0),),))
        w, res = zf_reference(h, zfg)
        assert abs(w[0, 0] - 1) < 1e-15

    def test_parts_tagged(self):
        zfg = build_zf_graph(2, 2)
        parts = {n.part for n in zfg.graph.nodes if n.op is not OpKind.INPUT}
        assert parts == {"gram", "inverse", "precode"}

    def test_dims_validated(self):
        with pytest.raises(ValueError):
            build_zf_graph(3, 2)

    def test_op_count_order_of_magnitude(self):
        st = topo_stats(build_zf_graph(8, 8).graph)
        assert 20168 / 3 <= st.total_arith <= 20168 * 3

    def test_orthogonal_rows_give_conjugate_transpose(self):
        # unit orthogonal rows: Gram = I, so W = H^H
        h = ChannelMatrix(
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))
        w, _ = zf_reference(h, build_zf_graph(2, 2))
        assert np.abs(w - np.eye(2)).max() < 1e-15

    def test_blockwise_plan_supported(self):
        zfg = build_zf_graph(2, 2)
        plan = random_blockwise_plan(zfg.graph, np.random.default_rng(0), 4, 20)
        xs = set(plan.assignment.values())
        assert len(xs) <= 3


class TestGraphStructure:
    """The recorded precoder does no work its algebra rules out: every node
    reaches an output, none repeats an earlier one, and the real diagonals
    of the Gram matrix and of its inverse have no imaginary nodes."""

    SHAPES = [(1, 1), (2, 3), (3, 5), (4, 4), (8, 8)]

    @pytest.mark.parametrize("k,n_t", SHAPES)
    def test_no_dead_or_duplicate_node(self, k, n_t):
        g = build_zf_graph(k, n_t).graph
        live = set(g.outputs)
        for node in reversed(g.nodes):
            if node.id in live:
                live.update(node.operands)
        assert [n.id for n in g.nodes if n.op is not OpKind.INPUT and n.id not in live] == []
        # value numbering: add and mul take their operands unordered
        rep, seen = {}, {}
        for n in g.nodes:
            ops = tuple(rep[o] for o in n.operands)
            if n.op in (OpKind.ADD, OpKind.MUL):
                ops = tuple(sorted(ops))
            key = (n.op, ops) if n.op is not OpKind.INPUT else n.id
            rep[n.id] = seen.setdefault(key, n.id)
        assert [i for i, r in rep.items() if r != i] == []

    @pytest.mark.parametrize("k,n_t", SHAPES)
    def test_outputs_and_the_constant_one(self, k, n_t):
        # the recorder marks every W part without a zero or repeat check,
        # and records the constant 1 only as the dividend of each 1/pivot
        zfg = build_zf_graph(k, n_t)
        g = zfg.graph
        w_nodes = [r.node for row in zfg.w_refs for ref in row for r in (ref.re, ref.im)]
        assert len(g.outputs) == 2 * n_t * k
        assert g.outputs == w_nodes
        assert all(0 <= nid < len(g.nodes) for nid in w_nodes)
        assert len(set(w_nodes)) == len(w_nodes)
        one = zfg.one_node
        assert one in g.inputs
        users = [n for n in g.nodes if one in n.operands]
        assert len(users) == k
        assert all(n.op is OpKind.DIV and n.part == "inverse" and n.operands[0] == one
                   and n.operands[1] != one for n in users)

    @pytest.mark.parametrize("k,n_t", SHAPES)
    def test_real_diagonals_and_no_exact_zero(self, k, n_t):
        zfg = build_zf_graph(k, n_t)
        for i in range(k):
            assert zfg.gram_refs[i][i].im == mimo.ZERO
            assert zfg.ginv_refs[i][i].im == mimo.ZERO
        rng = np.random.default_rng(11)
        for h in (gen_channel(rng, k, n_t) for _ in range(2)):
            for x in (16, 40, 64):
                res = execute(zfg.graph, fixed_plan(zfg.graph, x), zfg.input_values(h),
                              zfg.input_precisions())
                assert res.degenerate_zero == []


class TestReference:
    def test_matches_numpy(self):
        zfg = build_zf_graph(4, 4)
        h = gen_channel(np.random.default_rng(3), 4, 4)
        w, res = zf_reference(h, zfg)
        hc = h.as_complex()
        w_np = hc.conj().T @ np.linalg.inv(hc @ hc.conj().T)
        assert np.abs(w - w_np).max() < 1e-9

    def test_a_channels_lane_is_stored_once(self, monkeypatch):
        # input_values stores the channel's inputs for the kernel: a second
        # execute on the same lane, at the same storage, stores none again
        zfg = build_zf_graph(4, 4)
        lane = zfg.input_values(gen_channel(np.random.default_rng(3), 4, 4))
        ip, plan, calls = zfg.input_precisions(), fixed_plan(zfg.graph, 24), []
        first = execute(zfg.graph, plan, lane, ip)
        stored = graph_module.round_to_precision
        monkeypatch.setattr(graph_module, "round_to_precision",
                            lambda *args: calls.append(1) or stored(*args))
        assert execute(zfg.graph, plan, lane, ip) == first and calls == []
        assert execute(zfg.graph, plan, dict(lane), ip) == first
        assert len(calls) == len(zfg.graph.inputs)  # a plain dict is stored per call

    def test_residual_small(self):
        zfg = build_zf_graph(3, 4)
        h = gen_channel(np.random.default_rng(4), 3, 4)
        _, res = zf_reference(h, zfg)
        assert gram_inverse_residual(zfg, res) <= 1e-12

    def test_zero_forcing_property(self):
        zfg = build_zf_graph(4, 4)
        h = gen_channel(np.random.default_rng(5), 4, 4)
        w, _ = zf_reference(h, zfg)
        d = h.as_complex() @ w
        off = d - np.diag(np.diag(d))
        assert np.abs(off).max() < 1e-9

    def test_condition_warning(self):
        # nearly dependent rows blow up the Gram condition number
        eps = Fraction(1, 10 ** 6)
        h = ChannelMatrix(
            ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1) + eps)),
            ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))
        with pytest.warns(UserWarning, match="condition"):
            zf_reference(h, build_zf_graph(2, 2))

    def test_residual_decreases_with_precision(self):
        zfg = build_zf_graph(3, 3)
        h = gen_channel(np.random.default_rng(6), 3, 3)
        hc = h.as_complex()
        w_ref = hc.conj().T @ np.linalg.inv(hc @ hc.conj().T)
        errs = []
        for x in (6, 10, 16, 24, 32):
            r = execute(zfg.graph, fixed_plan(zfg.graph, x), zfg.input_values(h),
                        zfg.input_precisions())
            errs.append(np.abs(zfg.w_matrix(r) - w_ref).max())
        assert all(a > b for a, b in zip(errs, errs[1:]))


class TestLinkMetrics:
    def setup_method(self):
        self.zfg = build_zf_graph(4, 4)
        self.h = gen_channel(np.random.default_rng(7), 4, 4)
        self.hc = self.h.as_complex()
        self.w, _ = zf_reference(self.h, self.zfg)

    def test_rate_positive_and_zero_cases(self):
        assert sum_rate(self.hc, self.w, 10.0) > 0
        assert sum_rate(self.hc, np.zeros_like(self.w), 10.0) == 0.0
        assert sum_rate(self.hc, self.w, -300.0) < 1e-8

    def test_high_snr_interference_free(self):
        # exact ZF at high SNR: rate is set by the effective channel gains
        r = sum_rate(self.hc, self.w, 60.0)
        wn = self.w / np.linalg.norm(self.w, axis=0, keepdims=True)
        g = np.abs(np.diag(self.hc @ wn)) ** 2
        expect = sum(math.log2(1 + 0.25 * gi / 1e-6) for gi in g)
        assert r == pytest.approx(expect, rel=1e-6)

    def test_ber_noiseless_exact(self):
        assert ber_sim(self.hc, self.w, 300.0, 2000,
                       np.random.default_rng(0), self.w) == 0.0

    def test_ber_noise_dominated(self):
        b = ber_sim(self.hc, self.w, -20.0, 5000, np.random.default_rng(1), self.w)
        assert abs(b - 0.5) < 3 * 0.5 / math.sqrt(5000 * 8)+ 0.01

    def test_ber_deterministic(self):
        b1 = ber_sim(self.hc, self.w, 10.0, 1000, np.random.default_rng(3), self.w)
        b2 = ber_sim(self.hc, self.w, 10.0, 1000, np.random.default_rng(3), self.w)
        assert b1 == b2

    def test_low_precision_worsens_ber(self):
        r = execute(self.zfg.graph, fixed_plan(self.zfg.graph, 4),
                    self.zfg.input_values(self.h), self.zfg.input_precisions())
        w4 = self.zfg.w_matrix(r)
        b_ref = ber_sim(self.hc, self.w, 25.0, 20000, np.random.default_rng(4), self.w)
        b4 = ber_sim(self.hc, w4, 25.0, 20000, np.random.default_rng(4), self.w)
        assert b4 > b_ref


class TestSweep:
    def test_smoke_single_point(self):
        cfg = SimConfig(n_t=2, k_users=2, trials=1, seed=3, sweep=(8,),
                        schemes=("fixed",))
        pts = pareto_sweep(cfg)
        assert len(pts) == 1
        p = pts[0]
        assert p.scheme == "fixed" and p.trials == 1
        assert p.realized_avg_bits == pytest.approx(8.0)
        assert p.sum_rate_mean > 0

    def test_deterministic(self):
        cfg = SimConfig(n_t=2, k_users=2, trials=2, seed=4, sweep=(6, 12),
                        schemes=("fixed", "online"))
        a = pareto_sweep(cfg)
        b = pareto_sweep(cfg)
        assert [p.rates for p in a] == [p.rates for p in b]

    def test_all_schemes_run(self):
        cfg = SimConfig(n_t=2, k_users=2, trials=2, seed=5, sweep=(10,))
        pts = pareto_sweep(cfg)
        assert {p.scheme for p in pts} == {"fixed", "offline", "online",
                                           "random-blockwise"}

    def test_random_blockwise_cell_ignores_other_targets(self):
        # a cell's draws depend on its own target, not on the sweep's largest
        cells = []
        for sweep in ((4, 8), (4, 32)):
            cfg = SimConfig(n_t=2, k_users=2, trials=3, seed=7, sweep=sweep)
            cells.append(sweep_cell(cfg, sweep_inputs(cfg), "random-blockwise", 0))
        assert repr(cells[0]) == repr(cells[1])  # ber is NaN

    def test_one_reference_per_channel(self, monkeypatch):
        # the sweep and its reference rate share one set of inputs: each
        # channel's 64-bit reference precoder is computed once
        cfg = SimConfig(n_t=2, k_users=2, trials=3, seed=4, sweep=(6,), schemes=("fixed",))
        refs = []

        def counted(*args):
            refs.append(args[0])
            return zf_reference(*args)
        monkeypatch.setattr(mimo, "zf_reference", counted)
        inputs = sweep_inputs(cfg)
        pareto_sweep(cfg, inputs)
        assert refs == []  # without BER, no cell reads a reference
        rate = mimo.reference_rate(cfg, inputs)
        assert refs == inputs.channels
        assert rate == np.mean([sum_rate(h.as_complex(), w, cfg.snr_db)
                                for h, w in zip(inputs.channels, inputs.refs)])

    def test_cells_store_no_input_again(self, monkeypatch):
        # the sweep's inputs hold each channel's lane stored once: no cell
        # stores an input again, the online cell's walk over its 4 probe
        # channels included
        cfg = SimConfig(n_t=4, k_users=4, trials=6, seed=2, sweep=(6, 12))
        inputs, calls = sweep_inputs(cfg), []
        stored = graph_module.round_to_precision
        monkeypatch.setattr(graph_module, "round_to_precision",
                            lambda *args: calls.append(1) or stored(*args))
        for scheme in ("fixed", "offline", "random-blockwise"):
            assert sweep_cell(cfg, inputs, scheme, 1).failures == 0
        assert sweep_cell(cfg, inputs, "online", 0).failures == 0
        assert calls == []

    def test_each_channel_is_converted_once(self, monkeypatch):
        # every cell and the reference rate read the sweep's complex
        # matrices: one as_complex per channel, and one more per reference
        cfg = SimConfig(n_t=2, k_users=2, trials=3, seed=4, sweep=(6, 12))
        inputs, calls = sweep_inputs(cfg), []
        convert = ChannelMatrix.as_complex
        monkeypatch.setattr(ChannelMatrix, "as_complex",
                            lambda self: calls.append(self) or convert(self))
        pareto_sweep(cfg, inputs)
        assert calls == inputs.channels
        mimo.reference_rate(cfg, inputs)
        assert calls == inputs.channels * 2  # zf_reference's condition number

    def test_fixed_cell_scores_its_plan_once(self, monkeypatch):
        # a fixed plan is the same in every trial: one plan_metrics call,
        # and every trial counts its average
        calls = []

        def counted(*args):
            calls.append(args[1])
            return plan_metrics(*args)
        monkeypatch.setattr(mimo, "plan_metrics", counted)
        cfg = SimConfig(n_t=2, k_users=2, trials=3, seed=4, sweep=(6,), schemes=("fixed",))
        point = pareto_sweep(cfg)[0]
        assert len(calls) == 1 and point.realized_avg_bits == 6.0

    def test_online_matches_target(self):
        cfg = SimConfig(n_t=3, k_users=3, trials=3, seed=6, sweep=(10,),
                        schemes=("online",))
        p = pareto_sweep(cfg)[0]
        # matched from above; plan quantization can overshoot the tolerance
        assert 10.0 - 0.3 <= p.realized_avg_bits <= 11.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_t=2, k_users=3)
        with pytest.raises(ValueError):
            SimConfig(trials=0)
        with pytest.raises(ValueError):
            SimConfig(schemes=("nonsense",))


class TestCalibrateAlpha:
    """After 60 bisection steps with no average in [target, target + tol],
    calibrate_alpha returns the last alpha that read above the target, or
    the last probe where none did."""

    @pytest.mark.parametrize("step_at, above", [(1e-3, True), (1e-20, False)])
    def test_fallback_after_60_steps(self, step_at, above):
        # averages step from 10 bits to 2 at step_at: none lands in [5, 5.25]
        probes = []

        def avg(alpha):
            probes.append(alpha)
            return 10.0 if alpha <= step_at else 2.0
        alpha = calibrate_alpha(avg, 5.0)
        mids = probes[2:]  # after the two ends
        assert len(mids) == 60
        assert alpha == (max(m for m in mids if m <= step_at) if above else mids[-1])
        assert (avg(alpha) > 5.0) == above and alpha == pytest.approx(step_at, rel=1e-12)


class TestOnlineAlpha:
    """online_alpha walks the integer output anchor and returns the alpha of
    an anchor where the probe average crosses the target."""

    @staticmethod
    def avg_on(zfg, cfg, cm, probe, alpha):
        ip = zfg.input_precisions(cfg.storage_bits)
        vals = []
        for h in probe:
            try:
                _, p = online_vpc(zfg.graph, UtilityConfig(alpha, cfg.x_min, cfg.x_max),
                                  cm, zfg.input_values(h), cfg.e_b, ip)
                vals.append(plan_metrics(zfg.graph, p, cm)[0])
            except GraphExecutionError:
                continue
        return float(np.mean(vals)) if vals else cfg.x_min

    @staticmethod
    def anchor(zfg, cfg, alpha):
        anchors = set(final_step_precision(
            zfg.graph, UtilityConfig(alpha, cfg.x_min, cfg.x_max), ComplexityModel()).values())
        assert len(anchors) == 1
        return anchors.pop()

    def assert_crossing(self, zfg, cfg, probe, target):
        # the returned alpha's anchor reaches the target, and the anchor one
        # down (alpha times EPS**2 = 4) does not, unless it is x_min
        cm = ComplexityModel()
        alpha = online_alpha(zfg, cfg, [zfg.input_values(h) for h in probe], target)[0]
        x = self.anchor(zfg, cfg, alpha)
        assert self.avg_on(zfg, cfg, cm, probe, alpha) >= target
        if x > cfg.x_min:
            assert self.anchor(zfg, cfg, 4 * alpha) == x - 1
            assert self.avg_on(zfg, cfg, cm, probe, 4 * alpha) < target

    def test_one_probe_run_per_anchor(self, monkeypatch):
        cfg = SimConfig(n_t=4, k_users=4, trials=1, seed=2, sweep=(4.0,))
        zfg = build_zf_graph(4, 4)
        h = gen_channel(np.random.default_rng(cfg.seed), 4, 4)
        calls = []  # one per lane, each a run on a probe channel
        online_lanes = mimo.online_lanes

        def counted(graph, ucfg, cm, lanes, *args):
            return online_lanes(graph, ucfg, cm, (calls.append(ucfg.alpha) or v for v in lanes),
                                *args)
        monkeypatch.setattr(mimo, "online_lanes", counted)
        online_alpha(zfg, cfg, [zfg.input_values(h)], 4.0)
        assert 0 < len(calls) <= 3

    def test_returns_a_crossing(self):
        cfg = SimConfig(n_t=3, k_users=3, seed=5)
        zfg = build_zf_graph(3, 3)
        rng = np.random.default_rng(cfg.seed)
        probe = [gen_channel(rng, 3, 3) for _ in range(2)]
        for target in (3, 4, 6, 12, 32):
            self.assert_crossing(zfg, cfg, probe, target)

    def test_single_user_outputs_are_muls(self):
        cfg = SimConfig(n_t=2, k_users=1, seed=3)
        zfg = build_zf_graph(1, 2)
        assert {zfg.graph.nodes[o].op for o in zfg.graph.outputs} == {OpKind.MUL}
        probe = [gen_channel(np.random.default_rng(cfg.seed), 1, 2)]
        for target in (4, 12):
            self.assert_crossing(zfg, cfg, probe, target)

    def test_walks_down_while_the_anchor_below_reaches_the_target(self, monkeypatch):
        # the 2x2 probe's plans average 0.0012 bits above their anchor; read
        # 8 bits above it, the walk steps down from 12 to the lowest anchor
        # whose average reaches 12, which is 4
        cfg = SimConfig(n_t=2, k_users=2, seed=4)
        zfg = build_zf_graph(2, 2)
        probe = [gen_channel(np.random.default_rng(cfg.seed), 2, 2)]
        anchors = []

        def above(graph, plan, cm):
            anchors.append(plan_metrics(graph, plan, cm)[0])
            return anchors[-1] + 8.0, 0.0
        monkeypatch.setattr(mimo, "plan_metrics", above)
        alpha, runs = online_alpha(zfg, cfg, [zfg.input_values(probe[0])], 12.0)
        assert self.anchor(zfg, cfg, alpha) == 4 and alpha == 2.0 ** -12
        assert [round(a) for a in anchors] == list(range(12, 2, -1))
        _, plan = online_vpc(zfg.graph, UtilityConfig(alpha, cfg.x_min, cfg.x_max),
                             ComplexityModel(), zfg.input_values(probe[0]), cfg.e_b,
                             zfg.input_precisions(cfg.storage_bits))
        assert runs[0][1].assignment == plan.assignment

    def test_unreachable_target_gives_x_max(self):
        cfg = SimConfig(n_t=4, k_users=4, seed=2)
        zfg = build_zf_graph(4, 4)
        cm = ComplexityModel()
        probe = [gen_channel(np.random.default_rng(cfg.seed), 4, 4)]
        # the probe's plans average at most 63.36 bits, at anchor x_max
        alpha = online_alpha(zfg, cfg, [zfg.input_values(probe[0])], 63.5)[0]
        assert self.anchor(zfg, cfg, alpha) == cfg.x_max
        assert self.avg_on(zfg, cfg, cm, probe, alpha) < 63.5


class TestHistogram:
    def test_bins_partition_nodes(self):
        zfg = build_zf_graph(2, 2)
        plan = fixed_plan(zfg.graph, 9)
        bins = precision_histogram(zfg, plan)
        assert sum(bins.values()) == len(plan.assignment)
        assert all(x == 9 for (x, _op) in bins)
