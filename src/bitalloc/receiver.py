"""Mixed-ADC uplink receiver application.

Single hexagonal cell, M base-station antennas with per-antenna ADC
resolutions, K single-antenna users, maximum-ratio combining. Each
antenna's quantizer is modeled by the additive quantization noise
model: the quantized signal is alpha(b) times the input plus a noise
term whose per-antenna variance is alpha(b) * beta(b) times the input
power, with beta(b) the normalized distortion of a b-bit scalar
quantizer. Zero bits deactivates the antenna entirely.

The allocation problem maximizes the Monte-Carlo estimate of the sum
achievable rate subject to an ADC consumption budget. Sampling rate and
the converter figure-of-merit multiply both the per-antenna cost 2^b
and the budget, so they cancel; consumption is implemented as the sum
of 2^(b_i) with deactivated antennas contributing zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import AllocationProblem, ContractViolation

# Normalized distortion of an optimal scalar quantizer for a unit-power
# Gaussian input, per bit width; beyond five bits the asymptotic
# uniform-quantizer formula (pi * sqrt(3) / 2) * 2^(-2b) applies.
_BETA_TABLE = {1: 0.3634, 2: 0.1175, 3: 0.03454, 4: 0.009497, 5: 0.002499}

_CHANNEL_DOMAIN = 0xC4A2
_CHUNK_ROWS = 256


def beta_of_bits(bits) -> np.ndarray:
    """Distortion factor beta per entry; beta(0) = 1 (nothing passes)."""
    bits = np.asarray(bits, dtype=np.int64)
    if (bits < 0).any():
        raise ContractViolation("bit widths must be nonnegative")
    out = (math.pi * math.sqrt(3.0) / 2.0) * np.exp2(-2.0 * bits.astype(float))
    out = np.where(bits == 0, 1.0, out)
    for b, beta in _BETA_TABLE.items():
        out = np.where(bits == b, beta, out)
    return out if out.ndim else float(out)


def alpha_of_bits(bits) -> np.ndarray:
    """Quantization gain alpha = 1 - beta; alpha(0) = 0 (antenna off)."""
    return 1.0 - beta_of_bits(bits)


def adc_consumption(bits) -> np.ndarray:
    """Per-antenna consumption 2^b, with deactivated antennas free."""
    bits = np.asarray(bits, dtype=np.int64)
    return np.where(bits == 0, 0.0, np.exp2(bits.astype(float)))


@dataclass(frozen=True)
class SystemConfig:
    """Cell geometry, link parameters and Monte-Carlo controls."""

    m_antennas: int = 64
    k_users: int = 10
    p_u: float = 1.0
    cell_radius: float = 1000.0
    r_min: float = 100.0
    path_loss_exponent: float = 3.8
    shadowing_db: float = 8.0
    budget_bits: int = 1
    mc_channels: int = 100
    seed: int = 0
    redraw_large_scale: bool = True

    def __post_init__(self):
        if not self.m_antennas >= self.k_users >= 1:
            raise ContractViolation(
                f"need m_antennas >= k_users >= 1, got M={self.m_antennas}, K={self.k_users}"
            )
        if not self.p_u > 0:
            raise ContractViolation(f"p_u must be positive, got {self.p_u}")
        if not 0 < self.r_min < self.cell_radius:
            raise ContractViolation(
                f"need 0 < r_min < cell_radius, got {self.r_min}, {self.cell_radius}"
            )
        if self.budget_bits < 1:
            raise ContractViolation(f"budget_bits must be >= 1, got {self.budget_bits}")
        if self.mc_channels < 1:
            raise ContractViolation(f"mc_channels must be >= 1, got {self.mc_channels}")

    @property
    def allowed_values(self) -> tuple[int, ...]:
        return tuple(range(0, 2 * self.budget_bits + 2))


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of the uplink channel G = H diag(gamma)^(1/2)."""

    G: np.ndarray
    gamma: np.ndarray


def _sample_cell_positions(cfg: SystemConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform points in the hexagonal cell, at least r_min from the center.

    The hexagon has vertices on the x axis at +-cell_radius; a point is
    inside iff |y| <= sqrt(3)/2 * R and sqrt(3)|x| + |y| <= sqrt(3) R.
    Rejection sampling from the bounding box accepts about 3/4 of draws.
    """
    R = cfg.cell_radius
    root3 = math.sqrt(3.0)
    out = np.empty((count, 2))
    have = 0
    while have < count:
        need = count - have
        x = rng.uniform(-R, R, size=2 * need + 8)
        y = rng.uniform(-root3 / 2.0 * R, root3 / 2.0 * R, size=x.size)
        r = np.hypot(x, y)
        ok = (root3 * np.abs(x) + np.abs(y) <= root3 * R) & (r >= cfg.r_min)
        take = min(int(ok.sum()), need)
        out[have : have + take, 0] = x[ok][:take]
        out[have : have + take, 1] = y[ok][:take]
        have += take
    return out


def large_scale_gains(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Path loss with log-normal shadowing for K freshly placed users."""
    pos = _sample_cell_positions(cfg, rng, cfg.k_users)
    r = np.hypot(pos[:, 0], pos[:, 1])
    shadow = 10.0 ** (cfg.shadowing_db * rng.standard_normal(cfg.k_users) / 10.0)
    return shadow * (r / cfg.r_min) ** (-cfg.path_loss_exponent)


def generate_channel(
    cfg: SystemConfig, rng: np.random.Generator, gamma: np.ndarray | None = None
) -> ChannelRealization:
    """Draw one channel realization; pass gamma to reuse user placements."""
    if gamma is None:
        gamma = large_scale_gains(cfg, rng)
    shape = (cfg.m_antennas, cfg.k_users)
    H = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    return ChannelRealization(G=H * np.sqrt(gamma)[None, :], gamma=np.asarray(gamma))


class _RateEvaluator:
    """Precomputed channel tensors for batched ergodic-rate evaluation."""

    def __init__(self, realizations: list[ChannelRealization], p_u: float):
        G = np.stack([c.G for c in realizations])  # (R, M, K)
        self.p_u = p_u
        self.T = G.conj()[:, :, :, None] * G[:, :, None, :]  # (R, M, K, K)
        self.U = np.abs(G) ** 2  # (R, M, K)
        self.d = p_u * self.U.sum(axis=2) + 1.0  # (R, M)
        self.dU = self.d[:, :, None] * self.U

    def mean_rates(self, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Sum over users of log2(1 + SINR_k), averaged over realizations.

        alpha and beta are (rows, M) per-antenna gains and distortions;
        A[r, k, i] = g_k^H D_alpha g_i for realization r.
        """
        A = np.einsum("bm,rmki->brki", alpha, self.T, optimize=True)
        diag = np.einsum("brkk->brk", A)
        signal = self.p_u * np.abs(diag) ** 2
        interference = self.p_u * (np.abs(A) ** 2).sum(axis=3) - signal
        noise = np.einsum("bm,rmk->brk", alpha**2, self.U) + np.einsum(
            "bm,rmk->brk", alpha * beta, self.dU
        )
        den = interference + noise
        sinr = np.divide(signal, den, out=np.zeros_like(signal), where=den > 0)
        return np.log2(1.0 + sinr).sum(axis=2).mean(axis=1)

    def ergodic_rates(self, bits: np.ndarray) -> np.ndarray:
        """Mean sum rate per allocation row, averaged over realizations."""
        out = np.empty(bits.shape[0])
        for start in range(0, bits.shape[0], _CHUNK_ROWS):
            chunk = bits[start : start + _CHUNK_ROWS]
            out[start : start + _CHUNK_ROWS] = self.mean_rates(
                alpha_of_bits(chunk), beta_of_bits(chunk)
            )
        return out

    def unquantized_rate(self) -> float:
        """Mean sum rate at infinite resolution (alpha = 1, beta = 0)."""
        m = self.U.shape[1]
        return float(self.mean_rates(np.ones((1, m)), np.zeros((1, m)))[0])


def sum_rate(channel: ChannelRealization, bits, p_u: float) -> float:
    """Sum achievable rate of one realization under one bit allocation."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.shape != (channel.G.shape[0],):
        raise ContractViolation(
            f"allocation has shape {bits.shape}, expected ({channel.G.shape[0]},)"
        )
    return float(_RateEvaluator([channel], p_u).ergodic_rates(bits[None, :])[0])


def unquantized_sum_rate(channel: ChannelRealization, p_u: float) -> float:
    """Infinite-resolution reference (alpha = 1, no quantization noise)."""
    return _RateEvaluator([channel], p_u).unquantized_rate()


def draw_realizations(cfg: SystemConfig) -> list[ChannelRealization]:
    """The pinned Monte-Carlo channel set for cfg (seed-deterministic)."""
    rng = np.random.default_rng([_CHANNEL_DOMAIN, cfg.seed])
    gamma = None if cfg.redraw_large_scale else large_scale_gains(cfg, rng)
    return [generate_channel(cfg, rng, gamma=gamma) for _ in range(cfg.mc_channels)]


def receiver_problem(cfg: SystemConfig) -> AllocationProblem:
    """Ergodic-sum-rate maximization as a minimization problem.

    The objective is the negative Monte-Carlo mean of the sum rate over
    mc_channels realizations drawn once at construction (common random
    numbers across all candidate allocations). Consumption is
    sum(2^(b_i)) with zero for deactivated antennas; the budget is
    m_antennas * 2^budget_bits.
    """
    realizations = draw_realizations(cfg)
    ev = _RateEvaluator(realizations, cfg.p_u)

    def objective_batch(mat: np.ndarray) -> np.ndarray:
        return -ev.ergodic_rates(np.asarray(mat, dtype=np.int64))

    def consumption_batch(mat: np.ndarray) -> np.ndarray:
        return adc_consumption(np.asarray(mat, dtype=np.int64)).sum(axis=1)

    return AllocationProblem(
        dimension=cfg.m_antennas,
        allowed_values=cfg.allowed_values,
        budget_bits=cfg.budget_bits,
        budget=float(cfg.m_antennas * 2**cfg.budget_bits),
        objective_batch=objective_batch,
        consumption_batch=consumption_batch,
        name=f"receiver-{cfg.m_antennas}x{cfg.k_users}",
    )


def ergodic_sum_rate(cfg: SystemConfig, bits) -> float:
    """Convenience: ergodic sum rate of one allocation under cfg's channel set."""
    problem = receiver_problem(cfg)
    return -problem.evaluate_objective(np.asarray(bits, dtype=np.int64))


def unquantized_reference(cfg: SystemConfig) -> float:
    """Ergodic unquantized sum rate over the same pinned channel set."""
    return _RateEvaluator(draw_realizations(cfg), cfg.p_u).unquantized_rate()
