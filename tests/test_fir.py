"""Filter design target, minimax objective and closed-form allocators."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bitalloc.fir import (
    CoefficientSet,
    FilterSpec,
    band_grid,
    benchmark_spec,
    fir_problem,
    full_precision_error,
    lc_fixed_alloc,
    lc_float_alloc,
    lc_float_map,
    load_coefficients,
)
from bitalloc.problem import ContractViolation, InfeasibleBudgetError
from bitalloc.quantizers import quantize_fixed_bits, quantize_float_bits

from conftest import FIXTURE_DIR, assert_batch_composition_agrees

H7 = load_coefficients(FIXTURE_DIR / "toy7.txt")
A35 = load_coefficients(FIXTURE_DIR / "a35.txt")
SPEC7 = FilterSpec.of_pi([(0.0, 0.4), (0.6, 1.0)], [1.0, 0.0], [1.0, 1.0], 7)


def direct_error(spec, h):
    """Weighted minimax error of the full-length filter h on band_grid,
    its response summed as complex exponentials: an independent
    reference for the module's cosine-matrix kernel."""
    omegas, desired, weights = band_grid(spec)
    n = np.arange(h.size)
    center = (h.size - 1) // 2
    response = np.real(np.exp(1j * np.outer(omegas, center - n)) @ h)
    return float(np.abs((response - desired) * weights).max())


def quantized_filter(coeffs, bits, kind, exp_bits=5):
    """The full-length filter with each unique coefficient quantized."""
    if kind == "fixed":
        half = quantize_fixed_bits(coeffs.half, np.asarray(bits) - 1)
    else:
        half, _ = quantize_float_bits(coeffs.half, exp_bits, np.asarray(bits))
    return np.concatenate([half, half[-2::-1]])


class TestFilterSpec:
    def test_of_pi_scales_edges(self):
        spec = FilterSpec.of_pi([(0.0, 0.4), (0.6, 1.0)], [1.0, 0.0], [1.0, 1.0], 7)
        assert spec.bands[0] == (0.0, pytest.approx(0.4 * math.pi))
        assert spec.bands[1][1] == pytest.approx(math.pi)

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ContractViolation):
            FilterSpec.of_pi([(0.0, 0.5), (0.4, 1.0)], [1.0, 0.0], [1.0, 1.0], 7)

    def test_band_outside_range_rejected(self):
        with pytest.raises(ContractViolation):
            FilterSpec(bands=((0.0, 4.0),), desired=(1.0,), weights=(1.0,), n_taps=7)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ContractViolation):
            FilterSpec.of_pi([(0.0, 0.4)], [1.0], [0.0], 7)

    @pytest.mark.parametrize(
        "desired, weights, message",
        [
            ([1.0, 0.0], [1.0, math.inf], "weights must be positive and finite"),
            ([1.0, 0.0], [math.nan, 1.0], "weights must be positive and finite"),
            ([1.0, math.nan], [1.0, 1.0], "desired must be finite"),
            ([-math.inf, 0.0], [1.0, 1.0], "desired must be finite"),
        ],
    )
    def test_non_finite_desired_or_weight_rejected(self, desired, weights, message):
        # An infinite weight made every error inf, so every strategy tied;
        # a NaN desired value failed later, blaming the objective.
        with pytest.raises(ContractViolation, match=message):
            FilterSpec.of_pi([(0.0, 0.4), (0.6, 1.0)], desired, weights, 7)

    def test_even_tap_count_rejected(self):
        with pytest.raises(ContractViolation):
            FilterSpec.of_pi([(0.0, 0.4)], [1.0], [1.0], 8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            FilterSpec.of_pi([(0.0, 0.4), (0.6, 1.0)], [1.0], [1.0, 1.0], 7)


class TestBenchmarkSpec:
    def test_known_letters(self):
        assert len(benchmark_spec("a", 35).bands) == 2
        assert len(benchmark_spec("c", 35).bands) == 3
        assert benchmark_spec("b", 35).weights == (1.0, 10.0)
        assert benchmark_spec("d", 45).bands[0][0] > 0.0

    def test_case_insensitive(self):
        assert benchmark_spec("A", 35) == benchmark_spec("a", 35)

    def test_unknown_letter_rejected(self):
        with pytest.raises(ContractViolation, match="unknown benchmark"):
            benchmark_spec("q", 35)

    def test_fixture_script_rebuilds_the_fixtures(self, tmp_path):
        # The script designs the fixtures from BENCHMARKS; byte equality
        # holds for the scipy release the fixtures were made with.
        pytest.importorskip("scipy")
        root = FIXTURE_DIR.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        script = root / "scripts" / "make_fir_fixtures.py"
        subprocess.run([sys.executable, str(script), str(tmp_path)], env=env, check=True,
                       capture_output=True)
        expected = {p.name: p.read_bytes() for p in FIXTURE_DIR.iterdir()}
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == expected


class TestCoefficientSet:
    def test_properties(self):
        assert H7.n_taps == 7
        assert H7.center == 3
        assert H7.half.size == 4
        np.testing.assert_array_equal(H7.half, H7.h[:4])

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractViolation, match="symmetric"):
            CoefficientSet(h=np.array([0.1, 0.5, 0.2]))

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolation):
            CoefficientSet(h=np.array([0.1, np.nan, 0.1]))

    def test_even_length_rejected(self):
        with pytest.raises(ContractViolation):
            CoefficientSet(h=np.array([0.1, 0.2, 0.2, 0.1]))

    def test_magnitudes_must_stay_inside_unit_interval(self):
        with pytest.raises(ContractViolation, match="rescale"):
            CoefficientSet(h=np.array([0.1, 1.0, 0.1]))

    def test_array_is_read_only(self):
        with pytest.raises(ValueError):
            H7.h[0] = 0.0


class TestLoadCoefficients:
    def test_fixture_roundtrip(self):
        assert A35.n_taps == 35

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# header\n0.25\n\n0.5  # center\n0.25\n")
        cs = load_coefficients(path)
        np.testing.assert_allclose(cs.h, [0.25, 0.5, 0.25])

    def test_bad_line_reported_with_number(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.25\nbogus\n0.25\n")
        with pytest.raises(ContractViolation, match=r"(?s):2:.*bogus"):
            load_coefficients(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ContractViolation, match="no coefficients"):
            load_coefficients(path)


class TestMagnitude:
    def test_dc_gain_is_coefficient_sum(self):
        # A band squeezed onto omega = 0 with target 0 reads |H(0)|.
        spec = FilterSpec(bands=((0.0, 1e-12),), desired=(0.0,), weights=(1.0,), n_taps=7)
        assert full_precision_error(spec, H7) == pytest.approx(abs(H7.h.sum()), rel=1e-14)

    def test_center_impulse_is_flat(self):
        coeffs = CoefficientSet(h=np.array([0.0, 0.0, 0.5, 0.0, 0.0]))
        zero = FilterSpec.of_pi([(0.0, 1.0)], [0.0], [1.0], 5)
        half = FilterSpec.of_pi([(0.0, 1.0)], [0.5], [1.0], 5)
        assert full_precision_error(zero, coeffs) == pytest.approx(0.5, rel=1e-14)
        assert full_precision_error(half, coeffs) == pytest.approx(0.0, abs=1e-14)

    def test_matches_complex_frequency_response(self):
        rng = np.random.default_rng(0xF1)
        for letter in "abcd":
            spec = benchmark_spec(letter, 35)
            coeffs = load_coefficients(FIXTURE_DIR / f"{letter}35.txt")
            assert full_precision_error(spec, coeffs) == pytest.approx(
                direct_error(spec, coeffs.h), rel=1e-10
            )
            for kind, budget_bits in (("fixed", 8), ("float", 4)):
                p = fir_problem(spec, coeffs, kind, budget_bits, exp_bits=5)
                for bits in rng.integers(1, 2 * budget_bits + 2, size=(3, 18)):
                    assert p.evaluate_objective(bits) == pytest.approx(
                        direct_error(spec, quantized_filter(coeffs, bits, kind)), rel=1e-10
                    )


class TestBandGrid:
    def test_density_and_endpoints(self):
        spec = benchmark_spec("a", 35)
        omegas, desired, weights = band_grid(spec)
        per_band = 16 * 35
        assert omegas.size == desired.size == weights.size == 2 * per_band
        assert omegas[0] == spec.bands[0][0]
        assert omegas[per_band - 1] == pytest.approx(spec.bands[0][1])
        assert omegas[per_band] == pytest.approx(spec.bands[1][0])
        assert omegas[-1] == pytest.approx(spec.bands[1][1])

    def test_piecewise_targets(self):
        spec = benchmark_spec("b", 35)
        _, desired, weights = band_grid(spec)
        per_band = 16 * 35
        assert set(desired[:per_band]) == {1.0}
        assert set(desired[per_band:]) == {0.0}
        assert set(weights[per_band:]) == {10.0}


class TestMinimaxError:
    """The objective of fir_problem, valued one allocation at a time."""

    def test_generous_bits_reach_full_precision(self):
        generous = np.full(4, 45)
        for kind in ("fixed", "float"):
            err = fir_problem(SPEC7, H7, kind, 22, exp_bits=9).evaluate_objective(generous)
            assert err == pytest.approx(full_precision_error(SPEC7, H7), abs=1e-9)

    def test_frozen_benchmark_values(self):
        spec = benchmark_spec("a", 35)
        uniform = np.full(18, 8)
        assert fir_problem(spec, A35, "fixed", 8).evaluate_objective(uniform) == pytest.approx(
            0.0326714545525526, abs=1e-12
        )
        p_float = fir_problem(spec, A35, "float", 4, exp_bits=5)
        assert p_float.evaluate_objective(np.full(18, 4)) == pytest.approx(
            0.03737837667614019, abs=1e-12
        )
        assert full_precision_error(spec, A35) == pytest.approx(
            0.01595937044144402, abs=1e-12
        )

    def test_frozen_bandstop_values(self):
        spec = benchmark_spec("c", 35)
        coeffs = load_coefficients(FIXTURE_DIR / "c35.txt")
        assert fir_problem(spec, coeffs, "fixed", 8).evaluate_objective(
            np.full(18, 8)
        ) == pytest.approx(0.046875, abs=1e-12)
        assert full_precision_error(spec, coeffs) == pytest.approx(
            0.0026338381239250364, abs=1e-12
        )

    def test_weight_scaling_is_linear(self):
        light = FilterSpec.of_pi([(0.0, 0.4), (0.6, 1.0)], [1.0, 0.0], [1.0, 2.0], 7)
        heavy = FilterSpec.of_pi([(0.0, 0.4), (0.6, 1.0)], [1.0, 0.0], [2.0, 4.0], 7)
        bits = np.array([3, 4, 5, 6])
        # Doubling every band weight doubles the weighted deviation.
        assert fir_problem(heavy, H7).evaluate_objective(bits) == pytest.approx(
            2.0 * fir_problem(light, H7).evaluate_objective(bits), rel=1e-12
        )

    def test_allocation_shape_checked(self):
        with pytest.raises(ContractViolation, match=r"shape \(7,\), expected \(4,\)"):
            fir_problem(SPEC7, H7).evaluate_objective(np.full(7, 8))

    def test_spec_and_coefficients_must_agree(self):
        with pytest.raises(ContractViolation, match="spec is for 35 taps"):
            fir_problem(benchmark_spec("a", 35), H7)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolation, match="unknown quantization kind"):
            fir_problem(SPEC7, H7, "posit")


class TestFirProblem:
    def test_dimensions_and_allowed_set(self):
        p = fir_problem(SPEC7, H7, "fixed", budget_bits=3)
        assert p.dimension == 4
        assert p.allowed_values == tuple(range(1, 8))
        assert p.budget == 21.0

    def test_uniform_allocation_meets_budget_exactly(self):
        p = fir_problem(SPEC7, H7, "fixed", budget_bits=3)
        assert p.evaluate_consumption(np.full(4, 3)) == p.budget

    def test_edges_cost_double_center_costs_single(self):
        p = fir_problem(SPEC7, H7, "fixed", budget_bits=3)
        base = p.evaluate_consumption([3, 3, 3, 3])
        assert p.evaluate_consumption([4, 3, 3, 3]) == base + 2
        assert p.evaluate_consumption([3, 3, 3, 4]) == base + 1

    def test_objective_is_minimax_error(self):
        p = fir_problem(SPEC7, H7, "float", budget_bits=3, exp_bits=5)
        bits = np.array([2, 4, 3, 5])
        assert p.evaluate_objective(bits) == pytest.approx(
            direct_error(SPEC7, quantized_filter(H7, bits, "float", exp_bits=5)), rel=1e-12
        )

    def test_batch_agrees_with_scalar(self):
        p = fir_problem(SPEC7, H7, "fixed", budget_bits=3)
        mat = np.array([[3, 3, 3, 3], [1, 2, 3, 4], [7, 7, 7, 7]])
        np.testing.assert_allclose(
            p.evaluate_objective_batch(mat),
            [p.evaluate_objective(row) for row in mat],
        )

    @pytest.mark.parametrize("kind, budget_bits", [("fixed", 8), ("float", 4)])
    def test_values_agree_across_batch_compositions(self, kind, budget_bits):
        p = fir_problem(benchmark_spec("a", 35), A35, kind, budget_bits=budget_bits)
        assert_batch_composition_agrees(p)

    def test_bad_budget_rejected(self):
        with pytest.raises(ContractViolation):
            fir_problem(SPEC7, H7, "fixed", budget_bits=0)

    @pytest.mark.parametrize("kind", ["fixed", "float"])
    def test_budget_whose_widths_overflow_the_quantizers_rejected(self, kind):
        # At 512 the top width is 1025, which valued as NaN (fixed) or
        # +-inf (float) after overflow warnings.
        with pytest.raises(ContractViolation, match="budget_bits must be >= 1 and <= 511, got 512"):
            fir_problem(SPEC7, H7, kind, budget_bits=512)
        p = fir_problem(SPEC7, H7, kind, budget_bits=511)
        assert p.allowed_values[-1] == 1023
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = p.evaluate_objective_batch([[1023] * 4, [511] * 4, [1, 1023, 1, 1023]])
        assert np.isfinite(values).all()

    def test_bad_exponent_width_rejected(self):
        # Wider than float64's 11-bit exponent overflows the quantizer.
        # 4.5 built a problem whose every value used 4.5 exponent bits.
        for width, message in (
            (0, "exp_bits must be >= 1 and <= 11"),
            (12, "exp_bits must be >= 1 and <= 11"),
            (4.5, "exp_bits must be an integer, got 4.5"),
        ):
            with pytest.raises(ContractViolation, match=message):
                fir_problem(SPEC7, H7, "float", budget_bits=3, exp_bits=width)

    def test_widest_exponent_quantizes_without_warnings(self):
        # At 11 exponent bits the saturation value overflows float64; it
        # was computed on every call, so each one warned about overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, over = quantize_float_bits([0.3], 11, 53)
            assert q.tolist() == [0.3] and not over.any()
            p = fir_problem(SPEC7, H7, "float", budget_bits=3, exp_bits=11)
            bits = np.array([2, 4, 3, 5])
            assert p.evaluate_objective(bits) == pytest.approx(
                direct_error(SPEC7, quantized_filter(H7, bits, "float", exp_bits=11)), rel=1e-12
            )


class TestLcFixedAlloc:
    def test_uniform_half_length(self):
        alloc = lc_fixed_alloc(35, 8)
        assert alloc.shape == (18,)
        assert (alloc == 8).all()

    def test_matches_naive_error_bit_for_bit(self):
        spec = benchmark_spec("a", 35)
        alloc = lc_fixed_alloc(35, 8)
        naive = np.full(18, 8)
        np.testing.assert_array_equal(alloc, naive)
        p = fir_problem(spec, A35, "fixed", 8)
        assert p.evaluate_objective(alloc) == p.evaluate_objective(naive)

    def test_even_tap_count_rejected(self):
        with pytest.raises(ContractViolation):
            lc_fixed_alloc(34, 8)


class TestLcFloatAlloc:
    def test_equal_magnitudes_get_the_average(self):
        m = lc_float_alloc(np.array([0.3, 0.3, 0.3]), 5)
        np.testing.assert_allclose(m, 5.0)

    def test_log_magnitude_offsets(self):
        m = lc_float_alloc(np.array([0.5, 0.25]), 6)
        np.testing.assert_allclose(m, [6.5, 5.5])

    def test_full_length_sum_is_exact(self):
        m = lc_float_alloc(A35.h, 4)
        assert m.sum() == pytest.approx(35 * 4, rel=1e-12)

    def test_stationarity_equalizes_weighted_terms(self):
        rng = np.random.default_rng(5)
        h = rng.uniform(0.05, 0.9, size=9)
        m = lc_float_alloc(h, 8)
        products = h**2 * np.exp2(-2.0 * m)
        np.testing.assert_allclose(products, products[0], rtol=1e-9)

    def test_budget_below_bound_keeps_the_relaxed_form(self):
        # The bound 1 + ceil(log2(GM / min|h|)) is 2 here; lc_float_map clamps.
        m = lc_float_alloc(np.array([0.5, 0.25]), 1)
        np.testing.assert_allclose(m, [1.5, 0.5])

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ContractViolation):
            lc_float_alloc(np.array([0.5, 0.0, 0.5]), 4)


class TestLcFloatMap:
    def test_integer_allocation_passes_through(self):
        h = np.array([0.6, 0.3, 0.6])
        np.testing.assert_array_equal(lc_float_map(np.array([3.0, 2.0, 3.0]), h, 3), [3, 2])

    def test_demotion_order_follows_error_per_bit(self):
        # Ceilings (4, 3) cost 11 against the budget 9. The center's
        # K is about 0.0029 versus 0.0059 at the edge, so the center
        # drops first (reaching 10) and the edge second (reaching 8).
        h = np.array([0.6, 0.3, 0.6])
        m_tilde = np.array([3.5, 2.5, 3.5])
        np.testing.assert_array_equal(lc_float_map(m_tilde, h, 3), [3, 2])

    def test_mapped_total_respects_budget(self):
        m_tilde = lc_float_alloc(A35.h, 4)
        bits = lc_float_map(m_tilde, A35.h, 4)
        cons = 2.0 * bits[:-1].sum() + bits[-1]
        assert cons <= 35 * 4
        assert (bits >= 1).all()

    def test_floor_pinned_coordinates_cannot_rescue_budget(self):
        h = np.array([0.4, 0.5, 0.4])
        m_tilde = np.array([0.3, 2.2, 0.3])
        with pytest.raises(InfeasibleBudgetError, match="demotions exhausted"):
            lc_float_map(m_tilde, h, 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            lc_float_map(np.array([3.0, 2.0]), np.array([0.6, 0.3, 0.6]), 3)
