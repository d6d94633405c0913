"""Fixed- and floating-point quantizer behavior and error models."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitalloc.problem import ContractViolation
from bitalloc.quantizers import quantize_fixed_bits, quantize_float_bits, round_half_away


def quantize_float_in_range(x, exp_bits, mantissa_bits):
    """The quantized value alone, checked to be in range."""
    q, over = quantize_float_bits(x, exp_bits, mantissa_bits)
    assert not over.any()
    return q


def floor_round_half_away(x):
    """round_half_away as it was, with floor; the reference for its rewrite."""
    x = np.asarray(x, dtype=float)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _around(x):
    return st.sampled_from([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


# Ties k + 0.5 (exact below 2**52) and their neighbours, signed zeros,
# infinities, NaN, subnormals, magnitudes 2**52..2**53 where the ulp
# reaches 1, and arbitrary bit patterns.
_ROUNDING_INPUTS = st.one_of(
    st.integers(-(2**52) + 1, 2**52 - 1).map(lambda k: k + 0.5).flatmap(_around),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]),
    st.floats(-2.3e-308, 2.3e-308).flatmap(_around),
    st.floats(2.0**52, 2.0**53).flatmap(_around).flatmap(lambda x: st.sampled_from([x, -x])),
    st.integers(0, 2**64 - 1).map(lambda bits: np.array(bits, dtype=np.uint64).view(np.float64)),
)


class TestRoundHalfAway:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ROUNDING_INPUTS, min_size=1, max_size=40))
    @example([0.5, -0.5, 2.5, -2.5, 0.49999999999999994, 2.0**52 + 1, -(2.0**53) + 1])
    def test_equals_the_floor_formula_bit_for_bit(self, xs):
        x = np.array(xs, dtype=float)
        with np.errstate(invalid="ignore"):  # signalling NaN bit patterns
            assert round_half_away(x).tobytes() == floor_round_half_away(x).tobytes()
            # Scalars too: both return a float64 scalar.
            new, old = round_half_away(x[0]), floor_round_half_away(x[0])
        assert type(new) is type(old) and new.tobytes() == old.tobytes()

    def test_ties_go_away_from_zero(self):
        assert round_half_away(2.5) == 3.0
        assert round_half_away(-2.5) == -3.0
        assert round_half_away(0.5) == 1.0
        assert round_half_away(-0.5) == -1.0

    def test_non_ties_round_to_nearest(self):
        np.testing.assert_array_equal(
            round_half_away([2.4, 2.6, -2.4, -2.6, 0.0]),
            [2.0, 3.0, -2.0, -3.0, 0.0],
        )


class TestFixedSpec:
    """The grid of a format with b fractional bits, as literal values."""

    def test_grid_properties(self):
        # b = 3: step 1/8, largest value 1 - 1/8.
        assert quantize_fixed_bits(0.125, 3) == 0.125
        assert quantize_fixed_bits(0.2, 3) == 0.25
        assert quantize_fixed_bits(0.9, 3) == 0.875


class TestQuantizeFixed:
    def test_zero_is_fixed_point(self):
        for b in (0, 1, 5, 12):
            assert quantize_fixed_bits(0.0, b) == 0.0

    def test_hand_rounding(self):
        # 0.3 * 8 = 2.4 rounds down to 2, so the output is 2/8.
        assert quantize_fixed_bits(0.3, 3) == 0.25

    def test_saturation_at_both_ends(self):
        # b = 4: the largest value is 1 - 1/16.
        assert quantize_fixed_bits(1.0, 4) == 0.9375
        assert quantize_fixed_bits(7.5, 4) == 0.9375
        assert quantize_fixed_bits(-3.0, 4) == -1.0

    def test_error_bound_in_range(self):
        rng = np.random.default_rng(5)
        for b in (2, 5, 9):
            # The half-step bound holds up to the last grid point; the
            # clamp above it widens the error to a full step.
            x = rng.uniform(-1.0, 1.0 - 2.0**-b, size=4000)
            q = quantize_fixed_bits(x, b)
            assert np.abs(x - q).max() <= 2.0 ** -(b + 1) + 1e-15

    def test_per_element_bit_counts_broadcast(self):
        x = np.array([0.3, 0.3, 0.3])
        q = quantize_fixed_bits(x, np.array([1, 3, 10]))
        np.testing.assert_allclose(q, [0.5, 0.25, 0.2998046875])

    @given(
        x=st.floats(-1.0, 1.0, allow_nan=False),
        b=st.integers(0, 20),
    )
    def test_idempotent(self, x, b):
        once = quantize_fixed_bits(x, b)
        assert quantize_fixed_bits(once, b) == once

    @given(
        x=st.floats(-2.0, 2.0),
        y=st.floats(-2.0, 2.0),
        b=st.integers(0, 16),
    )
    def test_monotone(self, x, y, b):
        if x > y:
            x, y = y, x
        assert quantize_fixed_bits(x, b) <= quantize_fixed_bits(y, b)

    @given(
        x=st.floats(0.0, 1.0),
        b=st.integers(0, 16),
    )
    def test_odd_symmetry_away_from_saturation(self, x, b):
        # The positive clamp breaks symmetry only for inputs that round
        # to the missing +1 grid point.
        if x >= 1.0 - 2.0 ** -(b + 1):
            x = 0.5 * (1.0 - 2.0**-b)
        assert quantize_fixed_bits(-x, b) == -quantize_fixed_bits(x, b)

    @pytest.mark.parametrize("frac_bits", [-1, np.array([3, -1, 2])])
    def test_negative_bit_count_rejected(self, frac_bits):
        with pytest.raises(ContractViolation, match="fractional bits must be >= 0"):
            quantize_fixed_bits([0.3, -0.2, 0.9], frac_bits)

    @pytest.mark.parametrize(
        "frac_bits, message",
        [
            # 1024 returned NaN after an overflow in exp2.
            (1024, r"fractional bits must be >= 0 and <= 1023 \(MAX_WIDTH\), got 1024"),
            (np.array([3, 2000, 2]), r"<= 1023 \(MAX_WIDTH\), got 2000"),
            (np.inf, r"<= 1023 \(MAX_WIDTH\), got inf"),
            # 2.5 returned 0.3536, rounding on a grid of 2 ** -2.5.
            (2.5, "fractional bits must be whole numbers, got 2.5"),
            (np.array([3.0, np.nan]), "fractional bits must be whole numbers, got nan"),
        ],
    )
    def test_bit_count_naming_no_grid_rejected(self, frac_bits, message):
        with pytest.raises(ContractViolation, match=message):
            quantize_fixed_bits([0.3, -0.2, 0.9], frac_bits)

    def test_whole_counts_up_to_the_widest_accepted(self):
        assert quantize_fixed_bits(0.3, 1023) == 0.3
        assert quantize_fixed_bits(0.3, 8.0) == quantize_fixed_bits(0.3, 8) == 77 / 256


class TestFloatSpec:
    """The range of a format with e exponent and m significand bits, as literal values."""

    def test_exponent_range(self):
        # e = 5: bias 15, exponents -15 .. 16. The smallest positive
        # value is 2^-15; the largest with m = 4 is 15 * 2^(16-4+1).
        assert quantize_float_in_range(2.0**-15, 5, 4) == 2.0**-15
        assert quantize_float_in_range(0.9 * 2.0**-15, 5, 4) == 0.0
        assert quantize_float_in_range(15 * 2.0**13, 5, 4) == 15 * 2.0**13
        q, over = quantize_float_bits(16 * 2.0**13, 5, 4)
        assert q == 15 * 2.0**13 and over

    def test_max_finite(self):
        # e = m = 3: largest significand 7 at the top exponent 4: 7 * 2^(4-3+1)
        q, over = quantize_float_bits(np.array([28.0, 31.0, -1e6]), 3, 3)
        np.testing.assert_array_equal(q, [28.0, 28.0, -28.0])
        np.testing.assert_array_equal(over, [False, True, True])


class TestQuantizeFloat:
    def test_representable_values_unchanged(self):
        for x in (0.5, 1.0, -2.0, 0.0):
            assert quantize_float_in_range(x, 5, 1) == x

    def test_hand_rounding_total_significand(self):
        # 0.3 sits between 19/64 and 20/64 on the 5-significand-bit
        # grid of the binade [1/4, 1/2); 19.2 rounds to 19.
        assert quantize_float_in_range(0.3, 5, 5) == 0.296875
        # With 4 significand bits the grid is k/32: 9.6 rounds to 10.
        assert quantize_float_in_range(0.3, 5, 4) == 0.3125

    def test_ties_round_to_even_significand(self):
        # e = 5, m = 3: the grid in [1, 2) is {1.0, 1.25, 1.5, 1.75} (k = 4..7).
        assert quantize_float_in_range(1.125, 5, 3) == 1.0  # k 4.5 -> 4
        assert quantize_float_in_range(1.375, 5, 3) == 1.5  # k 5.5 -> 6

    def test_overflow_saturates_and_flags(self):
        # e = m = 3: the largest finite value is 28.
        value, overflowed = quantize_float_bits(1000.0, 3, 3)
        assert value == 28.0
        assert overflowed
        value, overflowed = quantize_float_bits(1.0, 3, 3)
        assert value == 1.0
        assert not overflowed

    @pytest.mark.parametrize("exp_bits, m", [(2, 1), (3, 3), (5, 8), (8, 24), (11, 40)])
    def test_just_below_a_power_of_two_rounds_up_to_it(self, exp_bits, m):
        # The carry into the next binade, at every exponent of the format
        # and one past its top, where the carried value overflows. (At 52
        # bits, a subnormal just below 2**-1022 is already on the grid.)
        e_min, e_max = 1 - 2 ** (exp_bits - 1), 2 ** (exp_bits - 1)
        powers = np.arange(e_min, min(e_max + 1, 1023) + 1)
        below = np.nextafter(np.ldexp(1.0, powers), 0.0)
        q, over = quantize_float_bits(np.concatenate([below, -below]), exp_bits, m)
        past = powers > e_max
        top = (2.0**m - 1) * 2.0 ** (e_max + 1 - m) if past.any() else 0.0
        want = np.where(past, top, np.ldexp(1.0, powers))
        np.testing.assert_array_equal(q, np.concatenate([want, -want]))
        np.testing.assert_array_equal(over, np.tile(past, 2))

    @pytest.mark.parametrize("exp_bits", range(1, 12))
    def test_infinities_and_the_largest_double_saturate_and_flag(self, exp_bits):
        # inf came back as inf, or as 0.0 at one exponent bit, unflagged;
        # the largest double raised an overflow warning in ldexp at every
        # width and, at 11 exponent bits, came back as inf unflagged.
        big = np.finfo(float).max
        q, over = quantize_float_bits([np.inf, big, 1.0, -big, -np.inf], exp_bits, 4)
        binade = min(2 ** (exp_bits - 1), 1023)  # the binade 2**1024 is past float64
        top = 15 * 2.0 ** (binade - 3)
        np.testing.assert_array_equal(q, [top, top, 1.0, -top, -top])
        np.testing.assert_array_equal(over, [True, True, False, True, True])

    @pytest.mark.parametrize(
        "exp_bits, top, fits",
        [(5, 2.0**17 - 2.0**-36, False), (11, np.finfo(float).max, True)],
    )
    def test_past_53_significand_bits_saturation_stays_inside_the_format(self, exp_bits, top, fits):
        # The largest value of e = 5, m = 60 is (2**60 - 1) * 2**-43; it
        # saturated to 2**17, past it, where float64 holds 2**17 - 2**-36.
        q, over = quantize_float_bits([np.inf, -np.inf, 1e300], exp_bits, 60)
        np.testing.assert_array_equal(q, [top, -top, 1e300 if fits else top])
        np.testing.assert_array_equal(over, [True, True, not fits])

    def test_narrow_integer_widths_value_like_int64_widths(self):
        # exp2 of a uint8 width ran in float16, of an int16 or uint16 one
        # in float32: 30 significand bits overflowed float16 (a warning)
        # or saturated at 131072.0, past the largest finite 131071.9998...
        x = np.array([1e30, 0.1, -3.0])
        want, want_over = quantize_float_bits(x, 5, np.full(3, 30))
        assert want[0] == (2.0**30 - 1) * 2.0**-13
        for dtype in (np.uint8, np.int16, np.uint16):
            q, over = quantize_float_bits(x, 5, np.full(3, 30, dtype=dtype))
            np.testing.assert_array_equal(q, want)
            np.testing.assert_array_equal(over, want_over)

    def test_underflow_flushes_to_zero(self):
        # e = 3: the smallest positive value is 2^-3.
        assert quantize_float_in_range(0.125, 3, 4) == 0.125
        assert quantize_float_in_range(0.26 * 0.125, 3, 4) == 0.0

    def test_relative_error_bound(self):
        rng = np.random.default_rng(11)
        x = np.exp2(rng.uniform(-10, 10, size=4000))
        for m in (3, 6, 10):
            q, over = quantize_float_bits(x, 7, m)
            assert not over.any()
            assert (np.abs(q - x) / x).max() <= 2.0**-m + 1e-15

    @given(
        x=st.floats(-100.0, 100.0),
        m=st.integers(1, 12),
    )
    def test_idempotent(self, x, m):
        once = quantize_float_in_range(x, 6, m)
        assert quantize_float_in_range(once, 6, m) == once

    @given(
        x=st.floats(-50.0, 50.0),
        y=st.floats(-50.0, 50.0),
        m=st.integers(1, 10),
    )
    def test_monotone(self, x, y, m):
        if x > y:
            x, y = y, x
        assert quantize_float_in_range(x, 6, m) <= quantize_float_in_range(y, 6, m)

    @given(
        x=st.floats(2.0**-8, 2.0**8),
        m=st.integers(1, 12),
    )
    @settings(max_examples=200)
    def test_doubling_commutes_in_normal_range(self, x, m):
        assert quantize_float_in_range(2.0 * x, 6, m) == 2.0 * quantize_float_in_range(x, 6, m)

    @pytest.mark.parametrize(
        "exp_bits, mantissa_bits, message",
        [
            (5, 0, "significand bits must be >= 1"),
            (5, np.array([3, 0, 2]), "significand bits must be >= 1"),
            (0, 3, "exponent bits must be >= 1"),
            (12, 3, "exponent bits must be >= 1 and <= 11"),
            # 1025 returned inf after an overflow in ldexp; 1024 warned.
            (5, 1025, r"significand bits must be >= 1 and <= 1023 \(MAX_WIDTH\), got 1025"),
            (5, np.array([3, 1024]), r"<= 1023 \(MAX_WIDTH\), got 1024"),
            # 4.5 exponent bits flushed 1e-3 to 9.77e-4, where 4 give 0.0.
            (4.5, 3, "exponent bits must be whole numbers, got 4.5"),
            (5, 2.5, "significand bits must be whole numbers, got 2.5"),
        ],
    )
    def test_impossible_widths_rejected(self, exp_bits, mantissa_bits, message):
        with pytest.raises(ContractViolation, match=message):
            quantize_float_bits([0.3, -0.2, 0.9], exp_bits, mantissa_bits)


class TestErrorModels:
    """Monte-Carlo agreement with the additive error statistics."""

    def test_fixed_error_variance(self):
        rng = np.random.default_rng(2024)
        x = rng.uniform(-1.0, 1.0, size=1_000_000)
        for b in (6, 8):
            err = x - quantize_fixed_bits(x, b)
            model = 2.0 ** (-2 * b) / 12.0
            assert abs(err.var() / model - 1.0) < 0.05

    def test_float_relative_error_variance(self):
        rng = np.random.default_rng(2025)
        x = np.exp2(rng.uniform(-16.0, 16.0, size=1_000_000))
        for m in (5, 7):
            q, over = quantize_float_bits(x, 7, m)
            assert not over.any()
            rel = (q - x) / x
            model = 2.0 ** (-2 * m) / 6.0
            assert abs(rel.var() / model - 1.0) < 0.10
