"""Tests for the stochastic error-propagation model."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from varprec.errormodel import (
    REFERENCE_OPS_PER_BIT,
    SingularOperationError,
    W_LIMIT_VAR,
    addsub_variance,
    input_error_variance,
    montecarlo_arith_variance,
    ops_per_bit,
    propagate_full_precision,
    rounding_variance,
    speculation_factor,
    w_moments,
    w_pdf,
    w_pdf_second_moment,
)


class TestFullPrecisionVariance:
    def test_mul_example(self):
        got = propagate_full_precision("mul", 2.0, 3.0, 1e-6, 1e-6)
        assert got == pytest.approx(2e-6 + 1e-12, rel=1e-12)

    def test_add_symmetric(self):
        s = 3e-4
        assert propagate_full_precision("add", 7.0, 7.0, s, s) == pytest.approx(s / 2)

    def test_sqrt_quarter(self):
        assert propagate_full_precision("sqrt", 5.0, None, 4e-8) == 1e-8

    def test_div(self):
        assert propagate_full_precision("div", 2.0, 5.0, 3e-6, 4e-6) == pytest.approx(7e-6)

    @pytest.mark.parametrize("op", ["add", "sub"])
    @pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600, 2.0 ** -565],
                             ids=["2**600", "2**-600", "2**-565"])
    def test_addsub_is_scale_free(self, op, scale):
        # the operands' squares over- or underflow a float (2**-565 is about
        # 1.7e-170); scaling both operands must leave the variance as it was
        plain = propagate_full_precision(op, 3.0, 1.0, 2e-6, 5e-6)
        assert plain > 0
        assert propagate_full_precision(op, 3.0 * scale, scale, 2e-6, 5e-6) == plain

    def test_addsub_deep_cancellation(self):
        # a result 2**520 below its operands: the ratio's square would
        # overflow a float, its product with the operand variance does not
        assert addsub_variance(1.0, -1.0, 2.0 ** -520, 2.0 ** -1000, 2.0 ** -1000) == 2.0 ** 41

    def test_singular_add_sub(self):
        with pytest.raises(SingularOperationError):
            propagate_full_precision("add", 1.0, -1.0, 1e-6, 1e-6)
        with pytest.raises(SingularOperationError):
            propagate_full_precision("sub", 2.0, 2.0, 1e-6, 1e-6)

    @pytest.mark.parametrize("op,a,b", [
        ("add", 3.0, 2.0), ("add", 5.0, 5.0), ("add", 1.0, 100.0),
        ("add", -3.0, 1.0), ("add", 0.25, 0.26),
        ("sub", 3.0, 2.0), ("sub", 5.0, 4.5), ("sub", 1.0, 100.0),
        ("sub", -3.0, 1.0), ("sub", 0.25, 0.5),
        ("mul", 3.0, 2.0), ("div", 3.0, 2.0), ("sqrt", 3.0, None),
    ])
    def test_montecarlo_agreement(self, op, a, b):
        form = propagate_full_precision(op, a, b, 1e-6, 1e-6 if b is not None else None)
        for shape in ("uniform", "gaussian"):
            emp = montecarlo_arith_variance(op, a, b, 1e-3, 300_000, seed=11, shape=shape)
            assert emp == pytest.approx(form, rel=0.03)


class TestRoundingVariance:
    def test_pure_rounding(self):
        r = 2.0 ** -11
        assert rounding_variance(0.0, 10) == pytest.approx(r * r / 6)

    def test_worked_value(self):
        assert rounding_variance(1e-6, 10) == pytest.approx(1.0397e-6, rel=1e-4)

    def test_high_precision_limit(self):
        assert rounding_variance(3e-7, 200) == pytest.approx(3e-7)

    def test_strictly_decreasing_in_x(self):
        vs = [rounding_variance(1e-5, x) for x in range(1, 29)]
        assert all(a > b for a, b in zip(vs, vs[1:]))
        # past the point where r^2 falls under sc2's float64 ulp the values
        # may tie, but never increase
        tail = [rounding_variance(1e-5, x) for x in range(28, 50)]
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_input_error_variance(self):
        assert input_error_variance(10) == pytest.approx((2 ** -11) ** 2 / 6)
        assert input_error_variance(400) == pytest.approx(0.0, abs=1e-200)


class TestWPdf:
    def test_plateau_and_edge(self):
        assert w_pdf(0.0) == 0.75
        assert w_pdf(0.49) == 0.75
        assert w_pdf(1.0) == 0.0
        assert w_pdf(-1.0) == 0.0

    def test_symmetry(self):
        for w in (0.55, 0.7, 0.93):
            assert w_pdf(w) == w_pdf(-w)

    def test_out_of_support(self):
        with pytest.raises(ValueError):
            w_pdf(1.5)

    def test_mass_closed_form_and_quadrature(self):
        mass, _ = quad(w_pdf, -1, 1, points=[-0.5, 0.5])
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_second_moment_closed_form_and_quadrature(self):
        assert w_pdf_second_moment() == pytest.approx(1 / 6, abs=1e-12)
        m2, _ = quad(lambda t: t * t * w_pdf(t), -1, 1, points=[-0.5, 0.5])
        assert m2 == pytest.approx(1 / 6, abs=1e-9)


class TestWMoments:
    def test_limit_convergence(self):
        for x in (9, 11, 13):
            st = w_moments(x, samples=300_000)
            assert st.variance == pytest.approx(W_LIMIT_VAR, abs=5e-3)
            assert abs(st.mean) < 5e-3

    def test_deviation_from_limit_shrinks(self):
        devs = [abs(w_moments(x, samples=300_000).variance - W_LIMIT_VAR)
                for x in (1, 4, 8, 12)]
        assert devs[0] > devs[-1]
        assert devs[-1] < 1e-3

    def test_deterministic_per_seed(self):
        a = w_moments(5, samples=50_000, seed=3)
        b = w_moments(5, samples=50_000, seed=3)
        assert a == b

    def test_support(self):
        # W never leaves [-1, 1]: spot check through the raw recipe
        rng = np.random.default_rng(0)
        X = rng.uniform(1, 2, 100_000)
        for x in (1, 6):
            R = np.round(X * 2 ** x) / 2 ** x
            W = (X - R) / X / 2 ** -(x + 1)
            assert np.abs(W).max() <= 1.0 + 1e-12


class TestSpeculation:
    def test_forward_addition_example(self):
        assert speculation_factor("add", "forward", 8) == pytest.approx(1.02255, abs=1e-5)

    def test_backward_fixed_ops(self):
        for e_b in (2, 5, 8, 11):
            assert speculation_factor("mul", "backward", e_b) == 1.0
            assert speculation_factor("div", "backward", e_b) == 1.0
            assert speculation_factor("sqrt", "backward", e_b) == 0.25

    def test_forward_backward_straddle(self):
        for e_b in (5, 8, 11):
            assert speculation_factor("add", "forward", e_b) > 1 > \
                speculation_factor("add", "backward", e_b)
            assert speculation_factor("sub", "forward", e_b) < 1 < \
                speculation_factor("sub", "backward", e_b)

    def test_sqrt_forward_inverse(self):
        assert speculation_factor("sqrt", "forward", 10) == 4.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            speculation_factor("add", "sideways", 8)
        with pytest.raises(ValueError):
            speculation_factor("add", "forward", 1)


class TestOpsPerBit:
    @pytest.mark.parametrize("e_b", [5, 8, 11])
    def test_within_one_of_reference(self, e_b):
        assert abs(ops_per_bit("add", e_b) - REFERENCE_OPS_PER_BIT["add"][e_b]) <= 1
        assert abs(ops_per_bit("sub", e_b) - REFERENCE_OPS_PER_BIT["sub"][e_b]) <= 1

    def test_cross_check_addition_11(self):
        # ln4 / ln(1.002818) ~ 492.6 rounds to 493
        f = speculation_factor("add", "forward", 11)
        assert f == pytest.approx(1.002818, abs=1e-6)
        assert ops_per_bit("add", 11) == 493

    def test_only_add_sub(self):
        with pytest.raises(ValueError):
            ops_per_bit("mul", 8)
