"""Reference results computed apart from varprec.

Nothing here imports varprec. Rounding, square roots and eBFP bit layouts
are written from their definitions in exact integer and rational
arithmetic; zero-forcing and sum rate use numpy complex128; the operation
variances and the limit of W are the closed forms of the stochastic error
model.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional, Tuple

import numpy as np

#: limiting variance of the normalized rounding error W
W_LIMIT_VAR = 1.0 / 6.0

#: (sign, block_exp, field, n_blocks, flag) with the flag spelled as varprec
#: spells ``Flag.value``; block_exp, field and n_blocks are None when saturated
Layout = Tuple[int, Optional[int], Optional[int], Optional[int], str]


def sci_exponent(num: int, den: int) -> int:
    """e with 2**(e-1) <= num/den < 2**e, for positive integers."""
    e = num.bit_length() - den.bit_length()
    if (num >= den << e) if e >= 0 else (num << -e >= den):
        e += 1
    return e


def round_sig(v: Fraction, s: int) -> Tuple[int, int, int]:
    """Round v != 0 to s significant bits, ties to even.

    Returns (sign, m, e) with 2**(s-1) <= m < 2**s and the rounded value
    sign * m * 2**(e - s).
    """
    sign = 1 if v > 0 else -1
    num, den = abs(v.numerator), v.denominator
    e = sci_exponent(num, den)
    if s >= e:
        num <<= s - e
    else:
        den <<= e - s
    m, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and m & 1):
        m += 1
    if m == 1 << s:
        m >>= 1
        e += 1
    return sign, m, e


def sqrt_round(m: int, k: int, s: int) -> Tuple[int, int]:
    """Round sqrt(m * 2**k) (m > 0) to s significant bits, ties to even.

    Brackets the root with ``isqrt`` and settles the last bit by comparing
    the radicand with the exact square of the midpoint. Returns (root, e)
    with the rounded value root * 2**(e - s).
    """
    # e with 4**(e-1) <= m*2**k < 4**e
    e = -(-sci_exponent(m << max(k, 0), 1 << max(-k, 0)) // 2)
    # radicand scaled into [4**(s-1), 4**s) as the fraction num/den
    t = k + 2 * (s - e)
    num, den = (m << t, 1) if t >= 0 else (m, 1 << -t)
    root = isqrt(num // den)
    # compare num/den with (root + 1/2)**2 = (2*root + 1)**2 / 4
    lhs, mid = 4 * num, (2 * root + 1) ** 2 * den
    if lhs > mid or (lhs == mid and root & 1):
        root += 1
    if root == 1 << s:
        root >>= 1
        e += 1
    return root, e


def layout(sign: int, m: int, e: int, s: int, block_bits: int,
           exponent_bits: int) -> Layout:
    """eBFP bit layout of sign * m * 2**(e - s), m having s significant bits.

    The block exponent is ceil(e / F); the leading block then holds
    z = ceil(e/F)*F - e alignment zeros, and the fraction field is as many
    F-bit blocks as hold z + s bits. Block exponents outside
    [-(2**(E-2) - 1), 2**(E-2)] saturate.
    """
    f = block_bits
    block_exp = -(-e // f)
    if block_exp > 1 << (exponent_bits - 2):
        return sign, None, None, None, "saturated-overflow"
    if block_exp < -((1 << (exponent_bits - 2)) - 1):
        return sign, None, None, None, "saturated-underflow"
    z = block_exp * f - e
    n_blocks = -(-(z + s) // f)
    return sign, block_exp, m << (n_blocks * f - z - s), n_blocks, "normal"


def zero_layout(x: int, block_bits: int, max_blocks: int) -> Layout:
    """Exact zero at precision x: the blocks that hold x+1 bits after the
    worst-case F-1 alignment zeros."""
    return 1, 0, 0, min(max_blocks, -(-(x + block_bits) // block_bits)), "zero"


def arith_layout(op: str, a: Fraction, b: Optional[Fraction], x: int,
                 block_bits: int, exponent_bits: int, max_blocks: int) -> Layout:
    """Expected eBFP result of one exact-then-round op at precision x."""
    s = x + 1
    if op == "sqrt":
        root, e = sqrt_round(a.numerator, -(a.denominator.bit_length() - 1), s)
        return layout(1, root, e, s, block_bits, exponent_bits)
    exact = {"add": lambda: a + b, "sub": lambda: a - b,
             "mul": lambda: a * b, "div": lambda: a / b}[op]()
    if exact == 0:
        return zero_layout(x, block_bits, max_blocks)
    sign, m, e = round_sig(exact, s)
    return layout(sign, m, e, s, block_bits, exponent_bits)


def op_variance(op: str, a: float, b: Optional[float], s2: float) -> float:
    """Relative-error variance of an exact operation whose operands carry
    independent zero-mean relative errors of variance s2 each."""
    if op == "add":
        return (a * a + b * b) * s2 / (a + b) ** 2
    if op == "sub":
        return (a * a + b * b) * s2 / (a - b) ** 2
    if op == "mul":
        return 2.0 * s2 + s2 * s2
    if op == "div":
        return 2.0 * s2
    if op == "sqrt":
        return s2 / 4.0
    raise ValueError(f"unknown op {op!r}")


def zero_forcing(h: np.ndarray) -> np.ndarray:
    """W = H^H (H H^H)^-1 in complex128."""
    hh = h.conj().T
    return hh @ np.linalg.inv(h @ hh)


def sum_rate(h: np.ndarray, w: np.ndarray, snr_db: float) -> float:
    """Sum rate of unit-norm precoder columns with the unit transmit power
    split equally over the users."""
    k = h.shape[0]
    gains = np.abs(h @ (w / np.linalg.norm(w, axis=0))) ** 2 / k
    signal = np.diag(gains)
    interference = gains.sum(axis=1) - signal
    noise = 10.0 ** (-snr_db / 10.0)
    return float(np.log2(1.0 + signal / (interference + noise)).sum())
