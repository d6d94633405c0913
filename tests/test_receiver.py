"""Mixed-resolution ADC receiver: distortion model, rates, problem."""

import math

import numpy as np
import pytest

from bitalloc.problem import ContractViolation
from bitalloc.receiver import (
    CELL_RADIUS,
    R_MIN,
    ChannelRealization,
    SystemConfig,
    _sample_cell_positions,
    adc_consumption,
    beta_of_bits,
    draw_realizations,
    generate_channel,
    large_scale_gains,
    receiver_problem,
    sum_rate,
    unquantized_reference,
)

from conftest import assert_batch_composition_agrees


class TestDistortionModel:
    def test_tabulated_values_exact(self):
        assert beta_of_bits(1) == 0.3634
        assert beta_of_bits(2) == 0.1175
        assert beta_of_bits(3) == 0.03454
        assert beta_of_bits(4) == 0.009497
        assert beta_of_bits(5) == 0.002499

    def test_zero_bits_pass_nothing(self):
        assert beta_of_bits(0) == 1.0

    def test_asymptotic_tail(self):
        expected = (math.pi * math.sqrt(3.0) / 2.0) * 2.0**-12
        assert beta_of_bits(6) == pytest.approx(expected, rel=1e-15)
        assert beta_of_bits(6) == pytest.approx(6.642e-4, rel=1e-3)

    def test_strictly_decreasing(self):
        betas = beta_of_bits(np.arange(0, 12))
        assert (np.diff(betas) < 0).all()

    def test_negative_bits_rejected(self):
        with pytest.raises(ContractViolation):
            beta_of_bits([-1, 2])

    def test_consumption_doubles_per_bit(self):
        np.testing.assert_array_equal(adc_consumption([0, 1, 2, 3]), [0.0, 2.0, 4.0, 8.0])


class TestSystemConfig:
    def test_allowed_values_span_double_the_average(self):
        assert SystemConfig(budget_bits=1).allowed_values == (0, 1, 2, 3)
        assert SystemConfig(budget_bits=2).allowed_values == (0, 1, 2, 3, 4, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m_antennas": 4, "k_users": 5},
            {"k_users": 0},
            {"p_u": 0.0},
            {"p_u": -1.0},
            {"p_u": float("nan")},
            {"budget_bits": 0},
            {"mc_channels": 0},
            {"p_u": float("inf")},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ContractViolation):
            SystemConfig(**kwargs)

    def test_budget_that_overflows_a_float_rejected(self):
        # receiver_problem raised OverflowError turning m_antennas * 2^budget_bits into a float.
        for m, budget_bits in ((64, 1100), (2, 1023)):
            with pytest.raises(ContractViolation, match="overflows a float"):
                SystemConfig(m_antennas=m, k_users=1, budget_bits=budget_bits)
        assert SystemConfig(m_antennas=1, k_users=1, budget_bits=1023).budget_bits == 1023


class TestGeometry:
    def test_positions_stay_inside_hexagon_outside_exclusion(self):
        rng = np.random.default_rng(31)
        pos = _sample_cell_positions(rng, 500)
        x, y = pos[:, 0], pos[:, 1]
        root3 = math.sqrt(3.0)
        tol = 1e-9
        assert (np.abs(y) <= root3 / 2.0 * CELL_RADIUS + tol).all()
        assert (root3 * np.abs(x) + np.abs(y) <= root3 * CELL_RADIUS + tol).all()
        assert (np.hypot(x, y) >= R_MIN - tol).all()

    def test_large_scale_gains_positive(self):
        cfg = SystemConfig(m_antennas=8, k_users=6)
        gains = large_scale_gains(cfg, np.random.default_rng(2))
        assert gains.shape == (6,)
        assert (gains > 0).all()

    def test_small_scale_fading_is_unit_power(self):
        cfg = SystemConfig(m_antennas=200, k_users=100)
        rng = np.random.default_rng(12)
        channel = generate_channel(cfg, rng)
        fading = channel.G / np.sqrt(channel.gamma)[None, :]
        mean_power = (np.abs(fading) ** 2).mean()
        assert mean_power == pytest.approx(1.0, rel=0.02)


class TestSumRate:
    CFG = SystemConfig(m_antennas=6, k_users=3, p_u=2.0, mc_channels=4, seed=4)

    def hand_channel(self):
        g = np.array([[0.9 + 0.3j], [-0.4 + 0.7j]])
        return ChannelRealization(G=g, gamma=np.array([1.0]))

    def test_two_antenna_single_user_by_hand(self):
        channel = self.hand_channel()
        p_u = 1.7
        bits = [2, 3]
        beta = [0.1175, 0.03454]
        alpha = [1.0 - b for b in beta]
        mags = [abs(0.9 + 0.3j) ** 2, abs(-0.4 + 0.7j) ** 2]
        signal = p_u * sum(a * m for a, m in zip(alpha, mags)) ** 2
        noise = sum(
            m * (a * a + a * b * (p_u * m + 1.0))
            for a, b, m in zip(alpha, beta, mags)
        )
        expected = math.log2(1.0 + signal / noise)
        assert sum_rate(channel, bits, p_u) == pytest.approx(expected, abs=1e-12)

    def test_all_antennas_off_gives_zero(self):
        assert sum_rate(self.hand_channel(), [0, 0], 1.0) == 0.0

    def test_allocation_shape_checked(self):
        with pytest.raises(ContractViolation):
            sum_rate(self.hand_channel(), [2, 3, 1], 1.0)

    def test_antenna_permutation_invariance(self):
        cfg = SystemConfig(m_antennas=6, k_users=3)
        channel = generate_channel(cfg, np.random.default_rng(4))
        bits = np.array([0, 1, 3, 2, 1, 2])
        perm = np.array([4, 0, 5, 2, 1, 3])
        permuted = ChannelRealization(G=channel.G[perm], gamma=channel.gamma)
        assert sum_rate(permuted, bits[perm], 2.0) == pytest.approx(
            sum_rate(channel, bits, 2.0), rel=1e-12
        )

    def test_many_bits_approach_unquantized_rate(self):
        near = -receiver_problem(self.CFG).evaluate_objective(np.full(6, 20))
        assert near == pytest.approx(unquantized_reference(self.CFG), rel=1e-6)

    def test_quantization_strictly_hurts(self):
        rate = -receiver_problem(self.CFG).evaluate_objective(np.full(6, 2))
        assert rate < unquantized_reference(self.CFG)


class TestErgodicProblem:
    CFG = SystemConfig(
        m_antennas=4,
        k_users=2,
        budget_bits=1,
        mc_channels=8,
        seed=3,
    )

    def test_channel_set_is_seed_deterministic(self):
        a = draw_realizations(self.CFG)
        b = draw_realizations(self.CFG)
        assert len(a) == self.CFG.mc_channels
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.G, cb.G)
        other = draw_realizations(
            SystemConfig(m_antennas=4, k_users=2, budget_bits=1, mc_channels=8, seed=4)
        )
        assert not np.array_equal(a[0].G, other[0].G)

    def test_users_are_redrawn_per_channel(self):
        cs = draw_realizations(SystemConfig(m_antennas=4, k_users=2, mc_channels=3))
        assert not np.array_equal(cs[0].gamma, cs[1].gamma)
        assert not np.array_equal(cs[1].gamma, cs[2].gamma)

    def test_problem_dimensions_and_budget(self):
        p = receiver_problem(self.CFG)
        assert p.dimension == 4
        assert p.allowed_values == (0, 1, 2, 3)
        assert p.budget == 4 * 2.0
        uniform = np.full(4, 1)
        assert p.evaluate_consumption(uniform) == p.budget

    def test_objective_is_negative_mean_of_single_rates(self):
        p = receiver_problem(self.CFG)
        realizations = draw_realizations(self.CFG)
        bits = np.array([2, 0, 1, 3])
        expected = -np.mean([sum_rate(c, bits, self.CFG.p_u) for c in realizations])
        assert p.evaluate_objective(bits) == pytest.approx(expected, abs=1e-10)

    def test_batch_agrees_with_scalar(self):
        p = receiver_problem(self.CFG)
        mat = np.array([[1, 1, 1, 1], [2, 0, 1, 3], [3, 3, 0, 0]])
        np.testing.assert_allclose(
            p.evaluate_objective_batch(mat),
            [p.evaluate_objective(row) for row in mat],
            atol=1e-12,
        )

    def test_values_agree_across_batch_compositions(self):
        cfg = SystemConfig(m_antennas=16, k_users=4, budget_bits=2, mc_channels=20, seed=5)
        assert_batch_composition_agrees(receiver_problem(cfg))

    def test_rate_never_drops_when_any_antenna_gains_a_bit(self):
        p = receiver_problem(self.CFG)
        rng = np.random.default_rng(0)
        for _ in range(40):
            b = rng.integers(0, 3, size=4)
            j = int(rng.integers(0, 4))
            bumped = b.copy()
            bumped[j] += 1
            assert p.evaluate_objective(bumped) <= p.evaluate_objective(b) + 1e-12

    def test_unquantized_reference_dominates(self):
        reference = unquantized_reference(self.CFG)
        p = receiver_problem(self.CFG)
        uniform = -p.evaluate_objective(np.full(4, 1))
        maxed = -p.evaluate_objective(np.full(4, 3))
        assert uniform < maxed < reference
