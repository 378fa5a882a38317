"""Stochastic model of arithmetic error propagation.

Two stages make up the error of one finite-precision operation: the
full-precision stage transforms the operands' relative-error variances into
the result's pre-rounding variance, and the rounding stage adds the error of
storing at x fraction bits.  The rounding error is written E = r(x)·W with
r(x) = EPS**(-x-1), so everything about rounding reduces to the moments of
the normalized variable W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: storage base of the rounding law: eBFP is binary, and every rounding
#: variance and planner threshold is derived from this one constant
EPS = 2.0

#: limiting variance of the normalized rounding error W (binary storage)
W_LIMIT_VAR = 1.0 / 6.0

#: published reference values for the moments of W at small precisions,
#: shown beside our Monte Carlo estimates by the `tables` command
REFERENCE_W_VAR = {1: 0.353, 3: 0.213, 5: 0.179, 7: 0.170,
                   9: 0.167, 11: 0.167, 13: 0.167}
REFERENCE_W_MEAN = {1: -0.09, 3: -6e-3, 5: -4e-4, 7: -3e-5,
                    9: -2e-6, 11: -1e-7, 13: -6e-9}

#: published reference counts of add/sub operations per one-bit precision
#: change, keyed by exponent width
REFERENCE_OPS_PER_BIT = {"add": {5: 9, 8: 63, 11: 493},
                         "sub": {5: 3, 8: 30, 11: 245}}


class SingularOperationError(ValueError):
    """Raised when a relative-error frame is singular (a+b or a-b is 0)."""


@dataclass(frozen=True)
class RelErrorStats:
    """Moments of a value's relative error."""

    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")


def addsub_variance(a: float, b: float, c: float, sa2: float, sb2: float) -> float:
    """Pre-rounding variance of the relative error of c = a + b or a - b.

    Each operand is divided by c, and the ratio is applied one factor at a
    time, so only a/c and b/c matter and no intermediate leaves float range
    unless the variance itself does (it is then inf).
    """
    ta, tb = a / c, b / c
    return ta * (ta * sa2) + tb * (tb * sb2)


def propagate_full_precision(op: str, a: float, b: float = None,
                             sa2: float = 0.0, sb2: float = None) -> float:
    """Variance of the relative error after the exact (pre-rounding) stage.

    add/sub depend on the operand values; mul/div/sqrt do not.  The means
    stay at zero for zero-mean operand errors.
    """
    if op in ("add", "sub"):
        c = a + b if op == "add" else a - b
        if c == 0:
            raise SingularOperationError(f"{op} result is 0: relative error undefined")
        return addsub_variance(a, b, c, sa2, sb2)
    if op == "mul":
        return sa2 + sb2 + sa2 * sb2
    if op == "div":
        return sa2 + sb2
    if op == "sqrt":
        return sa2 / 4.0
    raise ValueError(f"unknown op {op!r}")


def rounding_variance(sc2, x):
    """Post-rounding relative-error variance at precision x.

    The E[W] cross terms are dropped, which is tight once the precision is
    more than a few bits.  Works elementwise on numpy arrays.
    """
    r = EPS ** (-(x + 1))
    return (1.0 + r * r * W_LIMIT_VAR) * sc2 + r * r * W_LIMIT_VAR


def input_error_variance(x_in: int) -> float:
    """Pure-storage error variance of an initial operand held at x_in bits."""
    if x_in < 1:
        raise ValueError("x_in must be >= 1")
    return rounding_variance(0.0, x_in)


def w_pdf(w) -> float:
    """Density of the normalized rounding error W.

    Closed form is the high-precision limit, the same at every precision:
    a plateau of 3/4 on |w| <= 1/2 and algebraic tails on 1/2 < |w| <= 1,
    symmetric in w.  For finite x use :func:`w_moments` (Monte Carlo) instead.
    """
    a = abs(w)
    if a > 1.0:
        raise ValueError("W is supported on [-1, 1]")
    if a <= 0.5:
        return 0.75
    t = 1.0 / a - 1.0
    return 0.5 * t + 0.25 * t * t


def w_pdf_second_moment() -> float:
    """Closed-form second moment of w_pdf: exactly 1/6."""
    plateau = 0.75 * (2.0 / 3.0) * 0.125          # 3/4 * int_{-1/2}^{1/2} w^2
    tails = 2.0 * (1.0 / 24.0 + 1.0 / 96.0)       # worked antiderivatives
    return plateau + tails


def w_moments(x: int, samples: int = 1_000_000, seed: int = 2024) -> RelErrorStats:
    """Monte Carlo moments of W at finite precision x.

    Significands are drawn uniformly over one binade and rounded to the
    x-fraction-bit grid (ties to even); W = ((X - round(X)) / X) / r(x).
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    rng = np.random.default_rng(seed)
    step = EPS ** (-x)
    X = rng.uniform(1.0, EPS, samples)
    R = np.round(X / step) * step
    W = (X - R) / X / (EPS ** (-(x + 1)))
    return RelErrorStats(float(W.mean()), float(W.var()))


def speculation_factor(op: str, direction: str, e_b: int) -> float:
    """Expected precision-recursion factor for one arithmetic hop.

    ``forward`` factors are the expectations used when walking from an
    operand to its consumer; ``backward`` factors apply on the reverse sweep
    from a result to its operands.  Addition and subtraction straddle 1 in
    opposite directions; mul/div are neutral and sqrt is exactly one
    EPS**2-step.
    """
    if e_b < 2:
        raise ValueError("e_b must be >= 2")
    ln2 = math.log(2.0)
    if direction == "forward":
        if op == "add":
            return 1.0 + 2.0 ** (2 - e_b) / ln2
        if op == "sub":
            return 1.0 - 1.0 / (2.0 ** (e_b - 2) * ln2 - ln2 / 2.0 - 0.25)
        if op in ("mul", "div"):
            return 1.0
        if op == "sqrt":
            return 4.0
    elif direction == "backward":
        if op == "add":
            return 1.0 - 2.0 ** (2 - e_b) / ln2
        if op == "sub":
            return 1.0 + 8.0 / (2.0 ** e_b * ln2 - 2.0 * ln2 - 5.0)
        if op in ("mul", "div"):
            return 1.0
        if op == "sqrt":
            return 0.25
    else:
        raise ValueError("direction must be 'forward' or 'backward'")
    raise ValueError(f"unknown op {op!r}")


def ops_per_bit(op: str, e_b: int) -> int:
    """Expected number of add/sub hops per one-bit change of the optimal
    precision: ln(EPS^2) / |ln(factor)|, rounded to nearest.

    Addition uses its forward expectation and subtraction its backward one;
    that pairing is the one consistent with the published counts.
    """
    if op == "add":
        f = speculation_factor("add", "forward", e_b)
    elif op == "sub":
        f = speculation_factor("sub", "backward", e_b)
    else:
        raise ValueError("ops_per_bit is defined for add and sub")
    if f <= 0:  # the backward sub factor below e_b = 4
        raise ValueError(f"no {op} ops per bit at e_b = {e_b}: factor {f:.3g} is not positive")
    return round(math.log(EPS * EPS) / abs(math.log(f)))


def montecarlo_arith_variance(op: str, a: float, b: float = None,
                              sigma: float = 1e-3, samples: int = 1_000_000,
                              seed: int = 7, shape: str = "uniform") -> float:
    """Empirical output relative-error variance for perturbed operands.

    Injects zero-mean relative perturbations of standard deviation sigma
    (uniform over +-sqrt(3)*sigma by default, or Gaussian) into exact
    operands and measures the result's relative error against the clean
    value.  Serves as the independent check of the full-precision formulas.
    """
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        half = math.sqrt(3.0) * sigma
        A = rng.uniform(-half, half, samples)
        B = rng.uniform(-half, half, samples) if op != "sqrt" else None
    elif shape == "gaussian":
        A = rng.normal(0.0, sigma, samples)
        B = rng.normal(0.0, sigma, samples) if op != "sqrt" else None
    else:
        raise ValueError("shape must be 'uniform' or 'gaussian'")
    if op == "add":
        clean, noisy = a + b, a * (1 + A) + b * (1 + B)
    elif op == "sub":
        clean, noisy = a - b, a * (1 + A) - b * (1 + B)
    elif op == "mul":
        clean, noisy = a * b, a * (1 + A) * b * (1 + B)
    elif op == "div":
        clean, noisy = a / b, a * (1 + A) / (b * (1 + B))
    elif op == "sqrt":
        clean, noisy = math.sqrt(a), np.sqrt(a * (1 + A))
    else:
        raise ValueError(f"unknown op {op!r}")
    if clean == 0:
        raise SingularOperationError("clean result is zero")
    rel = (noisy - clean) / clean
    return float(rel.var())
