"""Extended block floating-point (eBFP) scalars.

A value is stored as a sign, a block-index exponent, and a run of F-bit
fraction blocks.  The block exponent is encoded with an offset so the
representable range is fixed by the exponent width E alone; precision is
chosen per value through the number of fraction blocks.  All arithmetic is
performed exact-then-round: a stored value is an integer field times a
power of two, so the exact result of an operation is formed in integer
arithmetic, and a single round-to-nearest-even brings it back to the
target precision; the only error of an operation is that final rounding
step.  There is one rounding rule, a shift with a half-to-even test on
the bits shifted out; a quotient or a square root is first rounded to odd
(truncated to two bits more or longer, its last bit set if inexact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple


class Flag(Enum):
    NORMAL = "normal"
    ZERO = "zero"
    OVERFLOW = "saturated-overflow"
    UNDERFLOW = "saturated-underflow"


@dataclass(frozen=True)
class EbfpParams:
    """Storage geometry: F bits per fraction block, E exponent bits
    (including the sign bit), and an upper bound on the block count."""

    block_bits: int = 1
    exponent_bits: int = 10
    max_blocks: int = 80

    def __post_init__(self):
        if self.block_bits < 1:
            raise ValueError("block_bits must be >= 1")
        if self.exponent_bits < 2:
            raise ValueError("exponent_bits must be >= 2")
        if self.max_blocks < 2:
            raise ValueError("max_blocks must be >= 2")

    @property
    def exp_offset(self) -> int:
        # encoded exponent = block exponent + offset, held in E-1 bits
        return (1 << (self.exponent_bits - 2)) - 1

    @property
    def max_block_exp(self) -> int:
        return 1 << (self.exponent_bits - 2)

    @property
    def min_block_exp(self) -> int:
        return -self.exp_offset


DEFAULT_PARAMS = EbfpParams()
# read once: on CPython 3.11 every read of an Enum class attribute goes
# through the metaclass's attribute hook, as slow as a function call
_NORMAL, _ZERO, _SATURATED = Flag.NORMAL, Flag.ZERO, (Flag.OVERFLOW, Flag.UNDERFLOW)


@dataclass(slots=True, unsafe_hash=True)
class EbfpNumber:
    """One stored scalar, never modified after construction.

    ``field`` is the concatenation of all fraction blocks as a single
    unsigned integer of width ``n_blocks * F`` (leading zeros of the first
    block included), so equality of the dataclass is bit-exact equality of
    the stored representation.
    """

    sign: int
    block_exp: int
    field: int
    n_blocks: int
    params: EbfpParams = dc_field(repr=False, default=DEFAULT_PARAMS)
    flags: Flag = Flag.NORMAL

    @property
    def exp_code(self) -> int:
        if self.flags is Flag.ZERO:
            return 0
        return self.block_exp + self.params.exp_offset

    @property
    def blocks(self) -> Tuple[int, ...]:
        f = self.params.block_bits
        mask = (1 << f) - 1
        n = self.n_blocks
        return tuple((self.field >> (f * (n - 1 - i))) & mask for i in range(n))

    @property
    def is_saturated(self) -> bool:
        return self.flags in _SATURATED

    def __repr__(self):
        if self.flags is Flag.ZERO:
            return "EbfpNumber(0)"
        if self.is_saturated:
            return f"EbfpNumber({self.flags.value})"
        v = decode(self)
        return f"EbfpNumber({'+' if self.sign > 0 else '-'}|e={self.block_exp}|{float(v):.6g})"


def _quotient(num: int, den: int, s: int) -> Tuple[int, int]:
    """num/den (num >= 0, den > 0) rounded to odd as n * 2**e2: truncated to
    at least s + 2 bits, the last bit set if inexact (Boldo & Melquiond,
    IEEE TC 2008), so rounding n to s bits rounds num/den correctly."""
    sh = s + 1 + den.bit_length() - num.bit_length()
    if sh >= 0:
        q, r = divmod(num << sh, den)
    else:
        q, r = divmod(num, den << -sh)
    return (q << 1) + (r != 0), ~sh  # ~sh == -sh - 1


def encode(value, params: EbfpParams = DEFAULT_PARAMS, n_blocks: int = None) -> EbfpNumber:
    """Convert an exact rational to eBFP with the given fraction block count.

    The value is rounded to nearest, ties to even, on the grid of its
    n_blocks*F field bits below the block exponent of its leading bit, so
    the significand keeps ``n_blocks*F - z`` bits after the z alignment
    zeros.  Out-of-range exponents saturate via flags.
    """
    if n_blocks is None:
        n_blocks = params.max_blocks
    if not 1 <= n_blocks <= params.max_blocks:
        raise ValueError(f"n_blocks must be in [1, {params.max_blocks}]")
    v = Fraction(value)
    if v == 0:
        return EbfpNumber(1, 0, 0, n_blocks, params, _ZERO)
    sign = 1 if v > 0 else -1
    f = params.block_bits
    w = n_blocks * f
    n, e2 = _quotient(abs(v.numerator), v.denominator, w)
    e = -(-(n.bit_length() + e2) // f)
    # n has at least w + 2 bits, so k >= 2: apply's shift test on the grid
    k = (e - n_blocks) * f - e2
    t = n >> (k - 1)
    m = t >> 1
    if t & 1 and (m & 1 or n & ((1 << (k - 1)) - 1)):
        m += 1
        if m >> w:  # carried to 2**w: the leading 1 opens the next block
            e, m = e + 1, 1 << (w - f)
    top = 1 << (params.exponent_bits - 2)  # max_block_exp; min_block_exp is 1 - top
    if e > top:
        return EbfpNumber(sign, 0, 0, n_blocks, params, Flag.OVERFLOW)
    if e < 1 - top:
        return EbfpNumber(sign, 0, 0, n_blocks, params, Flag.UNDERFLOW)
    return EbfpNumber(sign, e, m, n_blocks, params, _NORMAL)


def decode(n: EbfpNumber) -> Fraction:
    """Exact rational value of a normal or zero eBFP number."""
    if n.flags is _ZERO:
        return Fraction(0)
    if n.is_saturated:
        raise ValueError(f"cannot decode a {n.flags.value} value")
    e2 = (n.block_exp - n.n_blocks) * n.params.block_bits
    v = n.sign * n.field
    return Fraction(v << e2) if e2 >= 0 else Fraction(v, 1 << -e2)


def blocks_for_precision(x: int, params: EbfpParams) -> int:
    """Fraction blocks that guarantee x+1 significant bits at any alignment.

    With F=1 this is x+1; wider blocks may need one extra block to absorb
    leading alignment zeros (worst case F-1 of them).
    """
    f = params.block_bits
    return -(-(x + f) // f)


def round_to_precision(value, x: int, params: EbfpParams = DEFAULT_PARAMS) -> EbfpNumber:
    """Round an exact rational to precision x (relative error <= 2**(-x-1)).

    Allocates the minimal block count holding x+1 significant bits; with F=1
    that is x+1 blocks.
    """
    if x < 1:
        raise ValueError("precision x must be >= 1")
    v = Fraction(value)
    # num/den is a quotient of two integers, each an unnormalized operand
    # with its field at exponent 0: apply reads only sign, field and
    # (block_exp - n_blocks) * F
    return apply("div", EbfpNumber(1 if v > 0 else -1, 0, abs(v.numerator), 0, params),
                 EbfpNumber(1, 0, v.denominator, 0, params), x)


def apply(op: str, a: EbfpNumber, b: Optional[EbfpNumber], x: int) -> EbfpNumber:
    """``a op b`` (``b`` unused by sqrt) formed exactly, rounded half to
    even to x+1 significant bits and stored in the fewest blocks that hold
    them after the alignment zeros of its exponent.

    This is :func:`arith` without its checks: ``op`` must name an
    operation, x be at least 1, no operand be saturated, a divisor be
    nonzero and the operand of sqrt not negative.  Every op rounds by one
    shift and a half-to-even test on the bits shifted out: the exact
    integer results of add, sub and mul, and the quotient of div and the
    root of sqrt rounded to odd at x+3 bits or more.
    """
    params = a.params
    f = params.block_bits
    s = x + 1
    ea = (a.block_exp - a.n_blocks) * f
    if op == "sqrt":
        sign, n, e2 = 1, a.field, ea
        if n:
            # make the exponent even and give the root at least s + 1 bits,
            # then round it to odd: truncated, its last bit set if inexact
            n, e2 = n << (e2 & 1), e2 & ~1
            d = s + 1 - (n.bit_length() + 1 >> 1)
            if d > 0:
                n, e2 = n << 2 * d, e2 - 2 * d
            r = math.isqrt(n)
            n, e2 = (r << 1) + (r * r != n), (e2 >> 1) - 1
    else:
        eb = (b.block_exp - b.n_blocks) * f
        if op == "div":
            sign, n = a.sign * b.sign, a.field
            if n:
                n, e2 = _quotient(n, b.field, s)
                e2 += ea - eb
        elif op == "mul":
            sign, n, e2 = a.sign * b.sign, a.field * b.field, ea + eb
        else:
            va = a.sign * a.field
            vb = b.sign * b.field if op == "add" else -b.sign * b.field
            if ea >= eb:
                n, e2 = (va << (ea - eb)) + vb, eb
            else:
                n, e2 = va + (vb << (eb - ea)), ea
            sign = 1 if n > 0 else -1
            n = abs(n)
    # the exact result, or for div and sqrt its round to odd, is n * 2**e2
    if not n:
        return EbfpNumber(1, 0, 0, min(params.max_blocks, blocks_for_precision(x, params)),
                          params, _ZERO)
    # keep the top s bits of n; t's last bit is the first one shifted out,
    # and any bit below it breaks a tie upwards
    k = n.bit_length() - s
    if k > 0:
        t = n >> (k - 1)
        m = t >> 1
        if t & 1 and (m & 1 or n & ((1 << (k - 1)) - 1)):
            m += 1
            if m >> s:  # carried to 2**s
                m >>= 1
                k += 1
    else:
        m = n << -k
    # the stored value is sign * m * 2**(e_sci - s), with m of exactly s bits
    e_sci = e2 + k + s
    e = -(-e_sci // f)
    z = e * f - e_sci
    n_blocks = -(-(s + z) // f)
    if n_blocks > params.max_blocks:
        raise ValueError("precision exceeds max_blocks for these parameters")
    top = 1 << (params.exponent_bits - 2)
    if e > top:
        return EbfpNumber(sign, 0, 0, n_blocks, params, Flag.OVERFLOW)
    if e < 1 - top:
        return EbfpNumber(sign, 0, 0, n_blocks, params, Flag.UNDERFLOW)
    return EbfpNumber(sign, e, m << (n_blocks * f - z - s), n_blocks, params, _NORMAL)


_OPS = {"add", "sub", "mul", "div", "sqrt"}


def arith(op: str, a: EbfpNumber, b: Optional[EbfpNumber] = None,
          x_target: int = 24) -> EbfpNumber:
    """One exact-then-round arithmetic operation at precision ``x_target``.

    Each operand is the integer ``sign * field`` times ``2**e`` with
    ``e = (block_exp - n_blocks) * F`` (an eBFP zero has field 0), so the
    exact result is formed in integers: mul multiplies the fields at
    ``e_a + e_b``; add and sub shift the operand of larger exponent left by
    the exponent difference and add the signed fields at the smaller one;
    div divides the fields at ``e_a - e_b`` and sqrt takes an integer
    square root, each truncated to at least x_target+3 bits with a last bit
    set when inexact (round to odd).  One round-to-nearest-even to
    x_target+1 significant bits then stores it (:func:`apply`, after this
    function's checks).  Saturation in any operand poisons the result.
    """
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    if x_target < 1:
        raise ValueError("precision x must be >= 1")
    if op == "sqrt":
        if a.flags in _SATURATED:
            return EbfpNumber(a.sign, 0, 0, a.n_blocks, a.params, a.flags)
        if a.sign < 0 and a.field:
            raise ValueError("sqrt of a negative value")
    else:
        if b is None:
            raise ValueError(f"{op} needs two operands")
        if a.flags in _SATURATED or b.flags in _SATURATED:
            o = a if a.flags in _SATURATED else b
            flag = Flag.OVERFLOW if Flag.OVERFLOW in (a.flags, b.flags) else Flag.UNDERFLOW
            return EbfpNumber(o.sign, 0, 0, o.n_blocks, a.params, flag)
        if op == "div" and b.field == 0:
            raise ZeroDivisionError("division by an eBFP zero")
    return apply(op, a, b, x_target)


@dataclass(frozen=True)
class SpecRow:
    total_bits: int
    exponent_bits: int
    fraction_bits: int
    log10_max: float
    worst_rel_error: float


def spec_table(params: EbfpParams, n_blocks: int) -> SpecRow:
    """Storage-format summary for a configuration of ``n_blocks`` blocks
    (exponent block included, so fraction blocks = n_blocks - 1).

    Worst-case relative error assumes the maximal F-1 leading alignment
    zeros plus the halving from round-to-nearest.
    """
    f, e = params.block_bits, params.exponent_bits
    frac_bits = (n_blocks - 1) * f
    total = e + frac_bits
    log10_max = math.log10(2.0) * f * params.max_block_exp
    worst = 2.0 ** -(frac_bits - (f - 1) + 1)
    return SpecRow(total, e - 1, frac_bits, log10_max, worst)


def format_vector(n: EbfpNumber) -> str:
    """Canonical text form ``sign|exp_code|b0.b1...bk`` with hex blocks."""
    if n.is_saturated:
        raise ValueError("saturated values have no canonical text form")
    width = -(-n.params.block_bits // 4)
    blocks = ".".join(f"{b:0{width}x}" for b in n.blocks)
    return f"{'+' if n.sign > 0 else '-'}|{n.exp_code}|{blocks}"


def parse_vector(text: str, params: EbfpParams = DEFAULT_PARAMS) -> EbfpNumber:
    """Inverse of :func:`format_vector` (bit-exact)."""
    sign_s, code_s, blocks_s = text.strip().split("|")
    sign = 1 if sign_s == "+" else -1
    blocks = [int(b, 16) for b in blocks_s.split(".")]
    f = params.block_bits
    field = 0
    for b in blocks:
        if b >= 1 << f:
            raise ValueError("block wider than F bits")
        field = (field << f) | b
    exp_code = int(code_s)
    if field == 0 and exp_code == 0:
        return EbfpNumber(1, 0, 0, len(blocks), params, _ZERO)
    return EbfpNumber(sign, exp_code - params.exp_offset, field, len(blocks), params)
