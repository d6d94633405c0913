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
overflow saturates to the largest finite value
(2**m - 1) * 2**(e_max - m + 1) and is flagged, and inputs below the
smallest positive output 2**e_min flush to zero.

Bit counts that name no grid (fractional bits below 0, exponent or
significand bits below 1) raise ContractViolation, and so do exponent
widths above MAX_EXP_BITS, the float64 exponent the arithmetic works in.
"""

from __future__ import annotations

import numpy as np

from .problem import ContractViolation

MAX_EXP_BITS = 11


def round_half_away(x):
    """Round to nearest integer, ties away from zero (as floats)."""
    x = np.asarray(x, dtype=float)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quantize_fixed_bits(x, frac_bits):
    """Fixed-point rounding with a (broadcastable) per-element bit count.

    Rounds x * 2**b to the nearest integer, half away from zero, and
    clamps the result into [-1, 1 - 2**-b]. Returns an array.
    """
    x = np.asarray(x, dtype=float)
    scale = np.exp2(np.asarray(frac_bits, dtype=float))
    if (scale < 1.0).any():  # exactly where frac_bits < 0
        raise ContractViolation(f"fractional bits must be >= 0, got {np.min(frac_bits)}")
    q = round_half_away(x * scale) / scale
    return np.clip(q, -1.0, 1.0 - 1.0 / scale)


def quantize_float_bits(x, exp_bits, mantissa_bits):
    """Float rounding with (broadcastable) per-element significand bits.

    Ties round to even significand. Returns (values, overflow_mask);
    overflowed entries saturate to the largest finite value.
    """
    x = np.asarray(x, dtype=float)
    m = np.asarray(mantissa_bits)
    if not 1 <= exp_bits <= MAX_EXP_BITS:
        raise ContractViolation(f"exponent bits must be >= 1 and <= {MAX_EXP_BITS}, got {exp_bits}")
    if (m < 1).any():
        raise ContractViolation(f"significand bits must be >= 1, got {m.min()}")
    bias = 2 ** (exp_bits - 1) - 1
    e_min, e_max = -bias, 2 ** (exp_bits - 1)

    ax = np.abs(x)
    frac, ex = np.frexp(ax)  # ax = frac * 2**ex, frac in [0.5, 1)
    e = ex - 1
    # integer significand k = rint(ax / 2**(e - m + 1)), computed exactly
    k = np.rint(np.ldexp(ax, np.asarray(m - 1 - e, dtype=np.int64)))
    carry = k >= np.exp2(m)  # rounding crossed a binade boundary
    k = np.where(carry, np.ldexp(1.0, np.asarray(m, dtype=np.int64) - 1), k)
    e = np.where(carry, e + 1, e)

    q = np.sign(x) * np.ldexp(k, np.asarray(e - m + 1, dtype=np.int64))

    over = e > e_max
    if over.any():  # never at MAX_EXP_BITS, where max_fin overflows float64
        max_fin = (np.exp2(m) - 1.0) * np.exp2(float(e_max) + 1 - m)
        q = np.where(over, np.sign(x) * max_fin, q)
    q = np.where(e < e_min, 0.0, q)  # flush to zero below the bottom exponent
    q = np.where(ax == 0.0, 0.0, q)
    return q, np.asarray(over & (ax > 0.0))
