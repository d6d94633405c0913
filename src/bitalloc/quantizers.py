"""Round-to-nearest fixed-point and floating-point quantizers.

Both quantizers are pure elementwise functions of an array (or scalar)
and a broadcastable per-element bit count, and return numpy values of
the broadcast shape.

Fixed point with b fractional bits (wordlength b + 1 counting the
sign): the grid is {k * 2**-b} clamped to [-1, 1 - 2**-b], and ties
round away from zero.

Floating point with e exponent bits and m significand bits, where m
counts the whole significand (there is no hidden bit): the value set is
sign * k * 2**(E - m + 1) with integer significand 0 <= k <= 2**m - 1
and exponent E in [e_min, e_max] = [-(2**(e-1) - 1), 2**(e-1)]. Ties
round to even significand. There are no reserved infinity/NaN codes:
overflow, an infinite input included, saturates to the largest value
of the format that float64 holds, (2**m' - 1) * 2**(top - m' + 1) with
m' = min(m, 53) and top = min(e_max, 1023), and is flagged; inputs
below the smallest positive output 2**e_min flush to zero. At
MAX_EXP_BITS, e_max = 1024 and the format's top binade lies past
float64, so a result in it overflows too.

Bit counts that name no grid raise ContractViolation: counts that are
not whole numbers, fractional bits below 0, exponent or significand bits
below 1, exponent widths above MAX_EXP_BITS, the float64 exponent the
arithmetic works in, and fractional or significand widths above
MAX_WIDTH, past which exp2 or ldexp overflow float64.
"""

from __future__ import annotations

import numpy as np

from .problem import ContractViolation

MAX_EXP_BITS = 11
# The widest fractional or significand bit count both quantizers value:
# 2.0 ** 1024 overflows float64.
MAX_WIDTH = 1023
# The widest budget_bits an application takes: its widths run up to
# 2 * budget_bits + 1, which must stay within MAX_WIDTH.
MAX_BUDGET_BITS = (MAX_WIDTH - 1) // 2


def _checked_bits(bits, what: str, least: int, most: int = MAX_WIDTH, cap: str = "MAX_WIDTH"):
    """bits as an array, refused unless each count is a whole number in
    least..most; an integer dtype, the applications' own, costs a min and a max."""
    bits = np.asarray(bits)
    if bits.dtype.kind not in "iu":
        odd = np.trunc(bits) != bits
        if odd.any():
            raise ContractViolation(f"{what} must be whole numbers, got {bits[odd][0]}")
    low, high = bits.min(initial=least), bits.max(initial=least)
    if low < least or high > most:
        raise ContractViolation(
            f"{what} must be >= {least} and <= {most} ({cap}), got {low if low < least else high}"
        )
    return bits


def round_half_away(x):
    """Round to nearest integer, ties away from zero (as floats)."""
    x = np.asarray(x, dtype=float)
    return np.trunc(x + np.copysign(0.5, x))


def quantize_fixed_bits(x, frac_bits):
    """Fixed-point rounding with a (broadcastable) per-element bit count.

    Rounds x * 2**b to the nearest integer, half away from zero, and
    clamps the result into [-1, 1 - 2**-b]. Returns an array.
    """
    x = np.asarray(x, dtype=float)
    scale = np.exp2(_checked_bits(frac_bits, "fractional bits", 0), dtype=float)
    q = round_half_away(x * scale) / scale
    return np.clip(q, -1.0, 1.0 - 1.0 / scale)


def quantize_float_bits(x, exp_bits, mantissa_bits):
    """Float rounding with (broadcastable) per-element significand bits.

    Ties round to even significand. Returns (values, overflow_mask);
    overflowed entries, infinities included, saturate (module docstring).
    """
    x = np.asarray(x, dtype=float)
    _checked_bits(exp_bits, "exponent bits", 1, MAX_EXP_BITS, "MAX_EXP_BITS")
    m = _checked_bits(mantissa_bits, "significand bits", 1)
    bias = 2 ** (exp_bits - 1) - 1
    e_min, e_max = -bias, 2 ** (exp_bits - 1)

    ax = np.abs(x)
    frac, ex = np.frexp(ax)  # ax = frac * 2**ex, frac in [0.5, 1)
    m = np.asarray(m, dtype=np.int64)
    k = np.rint(np.ldexp(frac, m))  # the integer significand, computed exactly
    e = ex - 1 + (k == np.exp2(m))  # k = 2**m: rounding carried into the next binade
    with np.errstate(over="ignore"):  # a carry to 2**1024 reads inf, saturated below
        q = np.sign(x) * np.ldexp(k, ex - m)
    q = np.where(e < e_min, 0.0, q)  # flush to zero below the bottom exponent
    q = np.where(ax == 0.0, 0.0, q)

    top = np.minimum(e_max, 1023)  # float64 holds no value of the binade 2**1024
    over = (e > top) | np.isinf(ax)
    if over.any():
        max_fin = np.ldexp(1.0 - np.exp2(-np.minimum(m, 53)), top + 1)
        q = np.where(over, np.sign(x) * max_fin, q)
    return q, np.asarray(over)
