"""Tests for the eBFP format and exact-then-round arithmetic."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from varprec import ebfp
from varprec.ebfp import (
    DEFAULT_PARAMS,
    EbfpNumber,
    EbfpParams,
    Flag,
    arith,
    blocks_for_precision,
    decode,
    encode,
    format_vector,
    parse_vector,
    round_to_precision,
    spec_table,
)

P1 = EbfpParams(1, 10, 80)
P8 = EbfpParams(8, 8, 16)


def oracle_round(q: Fraction, s: int) -> Fraction:
    """Independent round-to-nearest-even of q to s significant bits.

    Compares q with the two grid points around it in exact rationals, at
    any exponent, instead of reusing any library rounding path.
    """
    if q == 0:
        return Fraction(0)
    sign = 1 if q > 0 else -1
    q = abs(q)
    e = q.numerator.bit_length() - q.denominator.bit_length()
    while Fraction(2) ** e > q:
        e -= 1
    while Fraction(2) ** (e + 1) <= q:
        e += 1
    ulp = Fraction(2) ** (e + 1 - s)  # 2**e <= q < 2**(e+1)
    lo = (q / ulp).__floor__()
    # the nearer of lo and lo + 1 units (2**s units is 2**(e+1), whose
    # significand is even too); a tie goes to the even one
    m = min((lo, lo + 1), key=lambda k: (abs(k * ulp - q), k & 1))
    return sign * m * ulp


def on_the_aligned_grid(sign: int, q: Fraction, params: EbfpParams, n_blocks: int) -> EbfpNumber:
    """sign * q (q > 0) rounded half to even on the grid n_blocks*F bits
    below the block exponent of q's leading bit; a carry to the next power
    of two stores it at the next block exponent."""
    f = params.block_bits
    e_sci = 0
    while Fraction(2) ** e_sci <= q:
        e_sci += 1
    while Fraction(2) ** (e_sci - 1) > q:
        e_sci -= 1
    e = -(-e_sci // f)
    field = round(q / Fraction(2) ** ((e - n_blocks) * f))  # half to even
    if field == 1 << (n_blocks * f):
        e, field = e + 1, field >> f
    if e > params.max_block_exp:
        return EbfpNumber(sign, 0, 0, n_blocks, params, Flag.OVERFLOW)
    if e < params.min_block_exp:
        return EbfpNumber(sign, 0, 0, n_blocks, params, Flag.UNDERFLOW)
    return EbfpNumber(sign, e, field, n_blocks, params)


class TestEncodeDecode:
    def test_one_f1(self):
        n = encode(1, P1, 4)
        assert n.exp_code == 256
        assert n.block_exp == 1
        assert n.blocks == (1, 0, 0, 0)
        assert decode(n) == 1

    def test_zero(self):
        z = encode(0, P1, 4)
        assert z.flags is Flag.ZERO
        assert z.blocks == (0, 0, 0, 0)
        assert z.exp_code == 0
        assert decode(z) == 0

    def test_block_alignment_f8(self):
        # highest set bit 57 positions left of the binary point, two data
        # blocks: seven alignment zeros land in front of the leading 1
        v = (1 << 56) + (1 << 54) + 12345
        n = encode(v, P8, 2)
        assert n.block_exp == 8
        assert n.exp_code == 8 + 63
        assert n.blocks[0] == 0b1  # 7 leading zeros then the MSB
        assert decode(n) == (1 << 56) + (1 << 54)  # rounded tail

    def test_roundtrip_exact(self):
        for q in [Fraction(3, 4), Fraction(5, 16), 7, Fraction(-11, 8)]:
            assert decode(encode(q, P1, 8)) == q

    def test_one_third_five_blocks(self):
        n = encode(Fraction(1, 3), P1, 5)
        best = min((abs(Fraction(m, 64) - Fraction(1, 3)), Fraction(m, 64))
                   for m in range(16, 32))
        assert decode(n) == best[1] == Fraction(21, 64)

    def test_carry_renormalizes(self):
        # 0.111111... rounds up across the binade edge
        q = Fraction((1 << 12) - 1, 1 << 12)
        n = encode(q, P1, 6)
        assert decode(n) == 1

    def test_saturation(self):
        assert encode(Fraction(2) ** 300, P1, 5).flags is Flag.OVERFLOW
        assert encode(Fraction(2) ** -300, P1, 5).flags is Flag.UNDERFLOW
        with pytest.raises(ValueError):
            decode(encode(Fraction(2) ** 300, P1, 5))

    @given(num=st.integers(1, 2 ** 40), shift=st.integers(-60, 60),
           sign=st.sampled_from([1, -1]), f=st.sampled_from([1, 4, 8]),
           e_bits=st.sampled_from([4, 10]), n_blocks=st.integers(1, 3))
    @example(num=25, shift=0, sign=1, f=4, e_bits=10, n_blocks=1)
    # ties on the grid: down to an even field (F = 1 and 4), up to one, and
    # down behind an alignment zero
    @example(num=0b1001, shift=0, sign=1, f=1, e_bits=10, n_blocks=3)
    @example(num=0b10001000, shift=0, sign=1, f=4, e_bits=10, n_blocks=1)
    @example(num=0b10011000, shift=0, sign=1, f=4, e_bits=10, n_blocks=1)
    @example(num=0b1001000, shift=-4, sign=-1, f=4, e_bits=10, n_blocks=1)
    @settings(max_examples=300, deadline=None)
    def test_nearest_on_the_aligned_grid(self, num, shift, sign, f, e_bits, n_blocks):
        params = EbfpParams(f, e_bits, 80)
        q = num * Fraction(2) ** shift
        assert encode(sign * q, params, n_blocks) == on_the_aligned_grid(sign, q, params, n_blocks)

    @pytest.mark.parametrize("f, z", [(1, 0), (4, 0), (4, 1), (4, 3), (8, 0), (8, 5)])
    @pytest.mark.parametrize("n_blocks", [1, 3])
    def test_carry_on_the_grid(self, f, z, n_blocks):
        # an odd field of all ones behind z alignment zeros, half a unit
        # (a tie) or a third of one (no tie) short of a power of two, rounds
        # up to it: with z > 0 it fits the field, with z = 0 its leading 1
        # opens the next block, and past the top block exponent it overflows
        p = EbfpParams(f, 6, 80)
        w = n_blocks * f
        for e in (-3, p.max_block_exp):
            for tail in (Fraction(1, 2), Fraction(1, 3)):
                q = (2 ** (w - z) - tail) * Fraction(2) ** ((e - n_blocks) * f)
                got = encode(-q, p, n_blocks)
                assert got == on_the_aligned_grid(-1, q, p, n_blocks)
                if z:
                    assert got == EbfpNumber(-1, e, 1 << (w - z), n_blocks, p)
                elif e < p.max_block_exp:
                    assert got == EbfpNumber(-1, e + 1, 1 << (w - f), n_blocks, p)
                else:
                    assert got == EbfpNumber(-1, 0, 0, n_blocks, p, Flag.OVERFLOW)

    @given(num=st.integers(1, 10 ** 12), den=st.integers(1, 10 ** 12),
           sign=st.sampled_from([1, -1]))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_after_rounding(self, num, den, sign):
        q = Fraction(sign * num, den)
        n = encode(q, P1, 12)
        if n.flags is Flag.NORMAL:
            # re-encoding the decoded value is exact
            assert decode(encode(decode(n), P1, 12)) == decode(n)


class TestRoundToPrecision:
    def test_exact_is_error_free(self):
        q = Fraction(13, 16)
        assert decode(round_to_precision(q, 6, P1)) == q

    def test_tie_to_even(self):
        x = 6
        q = 1 + Fraction(1, 2 ** (x + 1))
        assert decode(round_to_precision(q, x, P1)) == 1

    def test_blocks_allocated(self):
        n = round_to_precision(Fraction(1, 3), 10, P1)
        assert n.n_blocks == 11 == blocks_for_precision(10, P1)

    @given(num=st.integers(1, 10 ** 15), den=st.integers(1, 10 ** 15),
           x=st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_error_bound(self, num, den, x):
        q = Fraction(num, den)
        r = round_to_precision(q, x, P1)
        assert abs(decode(r) - q) / q <= Fraction(1, 2 ** (x + 1))

    @given(num=st.integers(1, 10 ** 9), den=st.integers(1, 10 ** 9),
           x=st.integers(1, 20))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, num, den, x):
        q = Fraction(num, den)
        assert decode(round_to_precision(q, x, P1)) == oracle_round(q, x + 1)


class TestArith:
    def test_add_exact(self):
        a = encode(1, P1, 5)
        assert decode(arith("add", a, a, 12)) == 2

    def test_mul_exact_product(self):
        a = round_to_precision(Fraction(3, 4), 10, P1)
        b = round_to_precision(Fraction(5, 2), 10, P1)
        assert decode(arith("mul", a, b, 8)) == Fraction(15, 8)

    def test_mul_by_one_is_identity(self):
        v = round_to_precision(Fraction(355, 113), 14, P1)
        one = encode(1, P1, 15)
        assert arith("mul", v, one, 14) == v

    def test_div_matches_rational_oracle(self):
        d = arith("div", encode(1, P1, 11), encode(3, P1, 11), 10)
        assert decode(d) == oracle_round(Fraction(1, 3), 11)

    def test_div_by_zero(self):
        # zero divisors are decided by value: a parsed vector can be a
        # normal number with an all-zero field
        parsed = parse_vector("+|300|0.0.0", P1)
        assert parsed.flags is Flag.NORMAL
        for divisor in (encode(0, P1, 5), parsed):
            with pytest.raises(ZeroDivisionError, match="division by an eBFP zero"):
                arith("div", encode(1, P1, 5), divisor, 10)

    def test_sqrt_negative(self):
        with pytest.raises(ValueError):
            arith("sqrt", encode(-4, P1, 5), None, 10)

    def test_sqrt_exact_square(self):
        s = arith("sqrt", encode(Fraction(9, 16), P1, 10), None, 8)
        assert decode(s) == Fraction(3, 4)

    def test_sqrt_tie_to_even(self):
        # sqrt(361) = 19 sits exactly between 18 and 20 at 4 significant bits
        s = arith("sqrt", encode(361, P1, 40), None, 3)
        assert decode(s) == 20

    @given(m=st.integers(2, 10 ** 8), x=st.integers(2, 24))
    @settings(max_examples=200, deadline=None)
    def test_sqrt_within_half_ulp(self, m, x):
        s = decode(arith("sqrt", encode(m, P1, 60), None, x))
        # |s - sqrt(m)| <= ulp/2  <=>  (2s -/+ ulp)^2 brackets 4m
        e = math.floor(math.log2(math.sqrt(m))) + 1
        ulp = Fraction(2) ** (e - x - 1)
        assert (2 * s - ulp) ** 2 <= 4 * m
        assert (2 * s + ulp) ** 2 >= 4 * m

    def test_saturation_closure(self):
        big = encode(Fraction(2) ** 300, P1, 5)
        out = arith("add", big, encode(1, P1, 5), 10)
        assert out.flags is Flag.OVERFLOW
        out2 = arith("mul", encode(Fraction(2) ** -300, P1, 5), encode(1, P1, 5), 10)
        assert out2.flags is Flag.UNDERFLOW

    @given(a_num=st.integers(-10 ** 9, 10 ** 9), b_num=st.integers(-10 ** 9, 10 ** 9),
           den=st.integers(1, 10 ** 6), x=st.integers(4, 30),
           op=st.sampled_from(["add", "sub", "mul"]))
    @settings(max_examples=300, deadline=None)
    def test_exact_then_round_matches_oracle(self, a_num, b_num, den, x, op):
        qa, qb = Fraction(a_num, den), Fraction(b_num, den + 1)
        a = round_to_precision(qa, 40, P1) if qa else encode(0, P1, 4)
        b = round_to_precision(qb, 40, P1) if qb else encode(0, P1, 4)
        va, vb = decode(a), decode(b)
        exact = va + vb if op == "add" else va - vb if op == "sub" else va * vb
        got = decode(arith(op, a, b, x))
        if exact == 0:
            assert got == 0
        else:
            assert got == decode(round_to_precision(exact, x, P1))

    @given(a_num=st.integers(1, 10 ** 9), b_num=st.integers(1, 10 ** 9),
           x=st.integers(2, 24))
    @settings(max_examples=200, deadline=None)
    def test_monotone_refinement(self, a_num, b_num, x):
        a = round_to_precision(Fraction(a_num, 7), 40, P1)
        b = round_to_precision(Fraction(b_num, 13), 40, P1)
        for op in ("add", "mul", "div", "sqrt"):
            args = (a,) if op == "sqrt" else (a, b)
            exact = {"add": decode(a) + decode(b), "mul": decode(a) * decode(b),
                     "div": decode(a) / decode(b)}.get(op)
            lo = decode(arith(op, *args, x_target=x))
            hi = decode(arith(op, *args, x_target=x + 1))
            if op == "sqrt":
                # |hi - sqrt(m)| <= |lo - sqrt(m)| decided exactly via the
                # midpoint: the nearer of two points is the one on sqrt(m)'s
                # side of their average
                m = decode(a)
                if hi > lo:
                    assert (hi + lo) ** 2 <= 4 * m
                elif hi < lo:
                    assert (hi + lo) ** 2 >= 4 * m
            else:
                assert abs(hi - exact) <= abs(lo - exact)


def stored(n: EbfpNumber):
    return (n.sign, n.block_exp, n.field, n.n_blocks, n.flags)


def sqrt_rounded(q: Fraction, s: int) -> Fraction:
    """sqrt(q) rounded to s significant bits, ties to even, from its
    definition: m = sqrt(q) * 2**(s-e) with 2**(e-1) <= sqrt(q) < 2**e."""
    if q == 0:
        return Fraction(0)
    e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    while Fraction(4) ** e <= q:
        e += 1
    while Fraction(4) ** (e - 1) > q:
        e -= 1
    t = q * Fraction(4) ** (s - e)
    m = math.isqrt(t.numerator // t.denominator)  # floor(sqrt(t))
    mid = (m + Fraction(1, 2)) ** 2
    if t > mid or (t == mid and m & 1):
        m += 1
    return m * Fraction(2) ** (e - s)


def reference_arith(op, a, b, x):
    """The stored tuple of ``round_to_precision(decode(a) op decode(b), x)``:
    the exact result formed in rationals, then one rounding."""
    operands = (a,) if op == "sqrt" else (a, b)
    saturated = [o for o in operands if o.is_saturated]
    if saturated:
        flag = Flag.OVERFLOW if any(o.flags is Flag.OVERFLOW for o in saturated) \
            else Flag.UNDERFLOW
        return (saturated[0].sign, 0, 0, saturated[0].n_blocks, flag)
    va = decode(a)
    if op == "sqrt":
        if va < 0:
            raise ValueError("sqrt of a negative value")
        exact = sqrt_rounded(va, x + 1)
    elif op == "add":
        exact = va + decode(b)
    elif op == "sub":
        exact = va - decode(b)
    elif op == "mul":
        exact = va * decode(b)
    else:
        exact = va / decode(b)
    # rounded here, so the kernel only stores a value of x+1 bits exactly
    return stored(round_to_precision(oracle_round(exact, x + 1), x, a.params))


def outcome(f, *args):
    try:
        return f(*args)
    except ZeroDivisionError:
        return ZeroDivisionError
    except ValueError as e:
        return ValueError, str(e)


GEOMETRIES = st.builds(EbfpParams, st.sampled_from([1, 4, 8]), st.integers(4, 16),
                       st.integers(2, 256))


@st.composite
def operands(draw, params: EbfpParams):
    """Stored values over the whole exponent range and a little past it:
    rounded rationals (saturating past the ends), zeros, saturated values,
    and parsed bit vectors, which may have leading zero blocks or an
    all-zero field under a nonzero exponent code."""
    f = params.block_bits
    sign = draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["rounded", "rounded", "zero", "saturated", "parsed"]))
    if kind == "zero":
        return encode(0, params, draw(st.integers(1, params.max_blocks)))
    if kind == "saturated":
        flag = draw(st.sampled_from([Flag.OVERFLOW, Flag.UNDERFLOW]))
        return EbfpNumber(sign, 0, 0, draw(st.integers(1, params.max_blocks)), params, flag)
    if kind == "parsed":
        n = draw(st.integers(1, min(params.max_blocks, 12)))
        blocks = draw(st.one_of(st.just([0] * n),
                                st.lists(st.integers(0, (1 << f) - 1), min_size=n, max_size=n)))
        code = draw(st.integers(0, (1 << (params.exponent_bits - 1)) - 1))
        text = f"{'+' if sign > 0 else '-'}|{code}|" + ".".join(f"{b:x}" for b in blocks)
        return parse_vector(text, params)
    span = params.max_block_exp * f
    e = draw(st.integers(-span - 2 * f, span + 2 * f))
    bits = draw(st.integers(1, 64))  # down to a power of two
    m = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    x_in = draw(st.integers(1, params.max_blocks * f - f))
    return round_to_precision(sign * m * Fraction(2) ** e, x_in, params)


def integer(v: int, params: EbfpParams) -> EbfpNumber:
    """The nonzero integer v stored exactly: its field holds the bits of |v|
    at exponent 0, so a kernel result's shift is the bits it drops of the
    exact integer."""
    nb = -(-abs(v).bit_length() // params.block_bits)
    return EbfpNumber(1 if v > 0 else -1, nb, abs(v), nb, params)


class TestIntegerKernel:
    """arith forms the exact result from integer fields and exponents; it
    must store exactly what rounding the rational result once would."""

    @given(data=st.data(), params=GEOMETRIES,
           op=st.sampled_from(["add", "sub", "mul", "div", "sqrt"]),
           x=st.integers(1, 200), twin=st.sampled_from(["none", "same", "negated"]))
    @settings(max_examples=400, deadline=None)
    def test_matches_rational_reference(self, data, params, op, x, twin):
        a = data.draw(operands(params))
        b = None
        if op != "sqrt":
            # a twin operand gives exact cancellation (a - a, a + -a)
            b = {"none": lambda: data.draw(operands(params)), "same": lambda: a,
                 "negated": lambda: EbfpNumber(-a.sign, a.block_exp, a.field,
                                               a.n_blocks, params, a.flags)}[twin]()
        want = outcome(reference_arith, op, a, b, x)
        got = outcome(lambda: stored(arith(op, a, b, x)))
        assert got == want

    @pytest.mark.parametrize("f", [1, 4, 8])
    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_tie_broken_across_a_wide_gap(self, f, op):
        # a sits exactly halfway between two values of x+1 bits; an operand
        # tens of thousands of bits smaller decides which way it rounds
        p, x = EbfpParams(f, 16, 80), 20
        a = round_to_precision(1 + Fraction(1, 2 ** (x + 1)), x + 1, p)
        for sign in (1, -1):
            tiny = round_to_precision(sign * Fraction(2) ** -(2000 * f), 8, p)
            got = arith(op, a, tiny, x)
            assert stored(got) == reference_arith(op, a, tiny, x)
            up = (sign > 0) == (op == "add")
            assert decode(got) == (1 + Fraction(1, 2 ** x) if up else 1)

    @pytest.mark.parametrize("f", [1, 4, 8])
    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_exact_fit(self, f, op):
        # an integer result of exactly x+1 bits is stored as it is
        p, x = EbfpParams(f, 10, 80), 37
        want = (1 << x) + 0b1011
        a, b = {"add": (want - 5, 5), "sub": (want + 5, 5), "mul": (want, 1)}[op]
        a, b = integer(a, p), integer(b, p)
        got = arith(op, a, b, x)
        assert stored(got) == reference_arith(op, a, b, x)
        assert decode(got) == want

    @pytest.mark.parametrize("f", [1, 4, 8])
    @pytest.mark.parametrize("shift", [1, 65])
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "sqrt"])
    def test_ties_go_to_even(self, f, shift, op):
        # mid = (m + 1/2) * 2**shift with m of x+1 bits: the even neighbour
        # wins, below for an even m and above for an odd one.  Nudged by d
        # in the lowest bit of an operand (d/6 for div, by a divisor that is
        # not a power of two) there is no tie, whatever m's parity
        p, x = EbfpParams(f, 10, 256), 30
        half = 1 << (shift - 1)
        for m in ((1 << x) + 6, (1 << x) + 7):
            mid = (2 * m + 1) * half
            args = {"add": lambda d: (m << shift, half + d),
                    "sub": lambda d: ((m + 1) << shift, half - d),
                    "mul": lambda d: (2 * m + 1, half),
                    "div": lambda d: (6 * mid + d, 6),
                    "sqrt": lambda d: (mid * mid + d, None)}[op]
            nudges = (0,) if op == "mul" or (op in ("add", "sub") and shift == 1) else (0, 1, -1)
            for d in nudges:
                a, b = args(d)
                a, b = integer(a, p), b and integer(b, p)
                got = arith(op, a, b, x)
                assert stored(got) == reference_arith(op, a, b, x)
                assert decode(got) == (m + (m & 1 if d == 0 else d > 0)) << shift

    @pytest.mark.parametrize("f", [1, 4, 8])
    def test_carry_crosses_a_block_boundary(self, f):
        # x+2 one-bits round up to 2**(x+2); with x+2 a multiple of F the
        # leading bit moves into a new block, behind F-1 alignment zeros
        p = EbfpParams(f, 10, 80)
        x = 6 * f - 2
        n = (1 << (x + 2)) - 1
        below = arith("mul", integer(n - 1, p), integer(1, p), x)
        assert decode(below) == n - 1  # x+1 one-bits, stored as they are
        for op, a, b in (("add", n - 1, 1), ("sub", n + 1, 1), ("mul", n, 1),
                         ("div", 3 * n, 3), ("sqrt", n * n, None)):
            a, b = integer(a, p), b and integer(b, p)
            got = arith(op, a, b, x)
            assert stored(got) == reference_arith(op, a, b, x)
            assert decode(got) == n + 1
            assert got.block_exp == below.block_exp + 1
            assert got.n_blocks == below.n_blocks + (f > 1)

    @pytest.mark.parametrize("f", [1, 4, 8])
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "sqrt"])
    def test_block_budget_edge(self, f, op):
        # the highest precision that fits takes exactly max_blocks blocks;
        # one bit more exceeds the budget
        p = EbfpParams(f, 10, 6)
        a, b = integer((1 << 6 * f) - 3, p), integer((1 << 6 * f - 1) + 5, p)
        got = {x: outcome(lambda: stored(arith(op, a, b, x))) for x in range(1, 6 * f + 1)}
        over = min(x for x, r in got.items() if r[0] is ValueError)
        assert over > 1 and all(got[x][0] is not ValueError for x in range(1, over))
        assert got[over - 1] == reference_arith(op, a, b, over - 1)
        assert got[over - 1][3] == 6
        assert got[over] == outcome(reference_arith, op, a, b, over) == \
            (ValueError, "precision exceeds max_blocks for these parameters")

    def test_zero_results_share_block_count(self):
        # every exact-zero result at x=40 needs 41 blocks and gets max_blocks
        p = EbfpParams(1, 10, 20)
        zero, one = round_to_precision(0, 4, p), round_to_precision(1, 4, p)
        results = [arith("sqrt", zero, x_target=40), arith("mul", zero, one, 40),
                   arith("div", zero, one, 40), arith("sub", one, one, 40),
                   arith("add", zero, zero, 40), round_to_precision(0, 40, p)]
        assert [(r.flags, r.n_blocks) for r in results] == [(Flag.ZERO, 20)] * 6

    def test_no_fraction_on_the_hot_path(self, monkeypatch):
        a = round_to_precision(Fraction(355, 113), 30, P8)
        b = round_to_precision(Fraction(-7, 3), 20, P8)

        class NoFraction:
            def __init__(self, *args):
                raise AssertionError("Fraction used")

        monkeypatch.setattr(ebfp, "Fraction", NoFraction)
        for op in ("add", "sub", "mul", "div"):
            arith(op, a, b, 24)
        arith("sqrt", a, None, 24)


class TestScalar:
    def test_equality_and_hash_follow_the_fields(self):
        a = round_to_precision(Fraction(355, 113), 30, P8)
        same = EbfpNumber(a.sign, a.block_exp, a.field, a.n_blocks, P8)
        assert same == a and hash(same) == hash(a) and len({a, same}) == 1
        assert EbfpNumber(a.sign, a.block_exp, a.field, a.n_blocks, EbfpParams(8, 8, 16)) == a
        for other in (EbfpNumber(a.sign, a.block_exp, a.field, a.n_blocks, P1),
                      EbfpNumber(a.sign, a.block_exp, a.field, a.n_blocks, P8, Flag.OVERFLOW),
                      EbfpNumber(a.sign, a.block_exp, a.field << 8, a.n_blocks + 1, P8)):
            assert other != a
        assert [f.name for f in dataclasses.fields(EbfpNumber)] == \
            ["sign", "block_exp", "field", "n_blocks", "params", "flags"]
        assert EbfpNumber(1, 0, 0, 3) == EbfpNumber(1, 0, 0, 3, DEFAULT_PARAMS, Flag.NORMAL)


class TestSpecTable:
    @pytest.mark.parametrize("n,total,frac", [(3, 24, 16), (5, 40, 32), (9, 72, 64)])
    def test_bit_columns(self, n, total, frac):
        row = spec_table(P8, n)
        assert row.total_bits == total
        assert row.exponent_bits == 7
        assert row.fraction_bits == frac

    def test_log10_max(self):
        assert abs(spec_table(P8, 3).log10_max - 154.13) < 0.01

    @pytest.mark.parametrize("n,ref", [(3, 9.72e-4), (5, 1.48e-8), (9, 3.46e-18)])
    def test_worst_error(self, n, ref):
        got = spec_table(P8, n).worst_rel_error
        assert abs(got - ref) / ref < 0.05


ONE_F1 = encode(Fraction(1), P1, 4)


class TestInputChecks:
    @pytest.mark.parametrize("call, message", [
        (lambda: EbfpParams(block_bits=0), "block_bits must be >= 1"),
        (lambda: EbfpParams(exponent_bits=1), "exponent_bits must be >= 2"),
        (lambda: EbfpParams(max_blocks=1), "max_blocks must be >= 2"),
        (lambda: arith("pow", ONE_F1, ONE_F1, 8), "unknown op 'pow'"),
        (lambda: arith("add", ONE_F1, ONE_F1, 0), "precision x must be >= 1"),
        (lambda: arith("mul", ONE_F1, None, 8), "mul needs two operands"),
        (lambda: round_to_precision(Fraction(1, 3), 0, P1), "precision x must be >= 1"),
        (lambda: encode(Fraction(1), P1, 0), r"n_blocks must be in \[1, 80\]"),
        (lambda: encode(Fraction(1), P1, 81), r"n_blocks must be in \[1, 80\]"),
        (lambda: parse_vector("+|256|1.2.0", P1), "block wider than F bits"),
        (lambda: parse_vector("+|71|1ff.00", P8), "block wider than F bits"),
    ], ids=["block-bits-0", "exponent-bits-1", "max-blocks-1", "unknown-op", "arith-x-0",
            "binary-without-b", "round-x-0", "encode-0-blocks", "encode-too-many-blocks",
            "parse-block-2-at-f1", "parse-block-9-bits-at-f8"])
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestSerialization:
    GOLDEN = [
        (Fraction(1), 4, "+|256|1.0.0.0"),
        (Fraction(3, 4), 4, "+|255|1.1.0.0"),
        (Fraction(-21, 64), 5, "-|254|1.0.1.0.1"),
        (Fraction(0), 3, "+|0|0.0.0"),
    ]

    @pytest.mark.parametrize("q,nb,text", GOLDEN)
    def test_golden_vectors(self, q, nb, text):
        n = encode(q, P1, nb)
        assert format_vector(n) == text
        assert parse_vector(text, P1) == n

    def test_hex_blocks_f8(self):
        n = encode((1 << 56) + (1 << 54), P8, 2)
        t = format_vector(n)
        sign, code, blocks = t.split("|")
        assert sign == "+" and code == "71"
        assert all(len(b) == 2 for b in blocks.split("."))
        assert parse_vector(t, P8) == n

    def test_saturated_not_serializable(self):
        with pytest.raises(ValueError):
            format_vector(encode(Fraction(2) ** 300, P1, 5))
