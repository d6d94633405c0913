"""Linear-phase FIR filter application.

A symmetric odd-length (Type I) filter's magnitude response depends
only on the first (N+1)/2 coefficients, so a bit allocation assigns one
bit count per unique coefficient and the consumption counts edge
coefficients twice and the center tap once. The objective is the
weighted minimax deviation of the quantized magnitude response from the
desired response over a dense frequency grid.

Two quantization regimes are supported. In the fixed-point regime an
allocation of b bits buys a sign bit plus b - 1 fractional bits, i.e.
the allocation counts total wordlength. In the floating-point regime
the allocation is the significand bit count m used directly (no hidden
bit), with a shared exponent width.

Besides the swarm-searchable problem object, this module implements the
closed-form allocators derived from the mean-square error surrogates:
uniform allocation for fixed point, and the log-magnitude rule plus its
integer mapping for floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import (
    AllocationProblem, ContractViolation, InfeasibleBudgetError, by_chunks, read_text, require_int
)
from .quantizers import MAX_BUDGET_BITS, MAX_EXP_BITS, quantize_fixed_bits, quantize_float_bits

POINTS_PER_TAP = 16  # grid points per band per tap
DEFAULT_EXP_BITS = 5
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class FilterSpec:
    """Piecewise-constant design target for a Type I filter.

    bands are (low, high) edges in radians, ascending and disjoint
    within [0, pi]; desired and weights give D and W per band.
    """

    bands: tuple[tuple[float, float], ...]
    desired: tuple[float, ...]
    weights: tuple[float, ...]
    n_taps: int

    def __post_init__(self):
        bands = tuple((float(lo), float(hi)) for lo, hi in self.bands)
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "desired", tuple(float(d) for d in self.desired))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not bands:
            raise ContractViolation("bands must hold at least one band")
        if len(self.desired) != len(bands) or len(self.weights) != len(bands):
            raise ContractViolation("bands, desired and weights must have equal length")
        prev_hi = -1.0
        for lo, hi in bands:
            if not 0.0 <= lo < hi <= math.pi + 1e-12:
                raise ContractViolation(f"band ({lo}, {hi}) is not inside [0, pi]")
            if lo < prev_hi:
                raise ContractViolation("bands must be ascending and disjoint")
            prev_hi = hi
        if not all(math.isfinite(d) for d in self.desired):
            raise ContractViolation(f"desired must be finite, got {self.desired}")
        if not all(0 < w < math.inf for w in self.weights):
            raise ContractViolation(f"weights must be positive and finite, got {self.weights}")
        object.__setattr__(self, "n_taps", require_int(self.n_taps, "n_taps", 3))
        if self.n_taps % 2 == 0:
            raise ContractViolation(f"n_taps must be odd and >= 3, got {self.n_taps}")

    @classmethod
    def of_pi(cls, bands, desired, weights, n_taps) -> "FilterSpec":
        """Construct from band edges given as multiples of pi."""
        scaled = tuple((lo * math.pi, hi * math.pi) for lo, hi in bands)
        return cls(bands=scaled, desired=tuple(desired), weights=tuple(weights), n_taps=n_taps)


# Benchmark band layouts, (band edges in multiples of pi, desired,
# weights): a lowpass pair, the same pair with a 10x stopband weight, a
# bandstop, and a lowpass with offset band edges. The fixtures under
# fixtures/ are designed from these (scripts/make_fir_fixtures.py).
BENCHMARKS = {
    "a": (((0.0, 0.4), (0.5, 1.0)), (1.0, 0.0), (1.0, 1.0)),
    "b": (((0.0, 0.4), (0.5, 1.0)), (1.0, 0.0), (1.0, 10.0)),
    "c": (
        ((0.0, 0.24), (0.4, 0.68), (0.84, 1.0)),
        (1.0, 0.0, 1.0),
        (1.0, 1.0, 1.0),
    ),
    "d": (((0.02, 0.42), (0.52, 0.98)), (1.0, 0.0), (1.0, 1.0)),
}


def benchmark_spec(letter: str, n_taps: int) -> FilterSpec:
    """One of the four benchmark design targets at a given length."""
    key = letter.lower()
    if key not in BENCHMARKS:
        raise ContractViolation(f"unknown benchmark letter {letter!r}; use one of a, b, c, d")
    bands, desired, weights = BENCHMARKS[key]
    return FilterSpec.of_pi(bands=bands, desired=desired, weights=weights, n_taps=n_taps)


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Full-precision impulse response of a Type I filter."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 1 or h.size < 3 or h.size % 2 == 0:
            raise ContractViolation(f"need an odd number >= 3 of coefficients, got shape {h.shape}")
        if not np.isfinite(h).all():
            raise ContractViolation("coefficients must all be finite")
        if np.abs(h - h[::-1]).max() > 1e-12:
            raise ContractViolation("coefficients must be even-symmetric to within 1e-12")
        if np.abs(h).max() >= 1.0:
            raise ContractViolation(
                "coefficient magnitudes must lie inside (-1, 1); rescale the design"
            )
        h = h.copy()
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @property
    def n_taps(self) -> int:
        return self.h.size

    @property
    def center(self) -> int:
        return (self.n_taps - 1) // 2

    @property
    def half(self) -> np.ndarray:
        """The unique coefficients h[0..center]."""
        return self.h[: self.center + 1]


def load_coefficients(path) -> CoefficientSet:
    """Read one coefficient per line; '#' starts a comment."""
    text = read_text(path)
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ContractViolation(f"{path}:{lineno}: not a number: {line!r}") from None
    if not values:
        raise ContractViolation(f"{path}: no coefficients found")
    return CoefficientSet(h=np.array(values))


def _tap_weights(half_size: int) -> np.ndarray:
    """Multiplicity of each unique coefficient: edge taps twice, center once."""
    weights = np.full(half_size, 2.0)
    weights[-1] = 1.0
    return weights


def _cosine_matrix(n_taps: int, omegas: np.ndarray) -> np.ndarray:
    """cos((center - n) * omega) for the unique coefficient indices."""
    center = (n_taps - 1) // 2
    lags = center - np.arange(center + 1)
    return np.cos(lags[:, None] * omegas[None, :])


def band_grid(spec: FilterSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense evaluation grid: (omegas, desired, weights) per point.

    Each band contributes POINTS_PER_TAP * n_taps uniformly spaced
    points with both edges included, which keeps the discretized
    maximum stable against grid placement.
    """
    per_band = POINTS_PER_TAP * spec.n_taps
    omegas, desired, weights = [], [], []
    for (lo, hi), d, w in zip(spec.bands, spec.desired, spec.weights):
        pts = np.linspace(lo, hi, per_band)
        omegas.append(pts)
        desired.append(np.full(per_band, d))
        weights.append(np.full(per_band, w))
    return np.concatenate(omegas), np.concatenate(desired), np.concatenate(weights)


def _quantize_half_batch(
    half: np.ndarray, bits: np.ndarray, kind: str, exp_bits: int
) -> np.ndarray:
    """Quantize the unique coefficients under each row's allocation;
    kind is 'fixed' or 'float', as fir_problem checked."""
    if kind == "fixed":
        # Allocation counts total wordlength: one sign bit, b - 1
        # fractional bits.
        return quantize_fixed_bits(half[None, :], bits - 1)
    values, _ = quantize_float_bits(half[None, :], exp_bits, bits)
    return values


class _MinimaxEvaluator:
    """The band grid and the one magnitude-response kernel of the minimax objective."""

    def __init__(self, spec: FilterSpec, coeffs: CoefficientSet):
        if spec.n_taps != coeffs.n_taps:
            raise ContractViolation(
                f"spec is for {spec.n_taps} taps but coefficients have {coeffs.n_taps}"
            )
        self.half = coeffs.half
        self.tap_weights = _tap_weights(self.half.size)
        omegas, desired, weights = band_grid(spec)
        self.cosmat = _cosine_matrix(spec.n_taps, omegas)
        self.desired = desired
        self.grid_weights = weights

    def error_of_half_rows(self, half_rows: np.ndarray) -> np.ndarray:
        response = (self.tap_weights * half_rows) @ self.cosmat
        return np.abs((response - self.desired) * self.grid_weights).max(axis=1)

    def error_of_bits(self, bits: np.ndarray, kind: str, exp_bits: int) -> np.ndarray:
        def error(chunk):
            return self.error_of_half_rows(_quantize_half_batch(self.half, chunk, kind, exp_bits))

        return by_chunks(error, bits, _CHUNK_ROWS)


def full_precision_error(spec: FilterSpec, coeffs: CoefficientSet) -> float:
    """Minimax error of the unquantized design (the floor any allocation chases)."""
    ev = _MinimaxEvaluator(spec, coeffs)
    return float(ev.error_of_half_rows(ev.half[None, :])[0])


def fir_problem(
    spec: FilterSpec,
    coeffs: CoefficientSet,
    kind: str = "fixed",
    budget_bits: int = 8,
    *,
    exp_bits: int = DEFAULT_EXP_BITS,
) -> AllocationProblem:
    """Expose the quantized-filter design as an allocation problem.

    The dimension is the unique-coefficient count (n_taps + 1) / 2, the
    allowed set is {1, ..., 2 * budget_bits + 1}, consumption counts
    edge coefficients twice and the center once, and the budget is
    n_taps * budget_bits (met with equality by the uniform allocation).
    evaluate_objective gives one allocation's minimax error on band_grid.
    """
    if kind not in ("fixed", "float"):
        raise ContractViolation(f"unknown quantization kind {kind!r}; use 'fixed' or 'float'")
    budget_bits = require_int(budget_bits, "budget_bits", 1, MAX_BUDGET_BITS)
    exp_bits = require_int(exp_bits, "exp_bits", 1, MAX_EXP_BITS)
    ev = _MinimaxEvaluator(spec, coeffs)

    def objective_batch(mat: np.ndarray) -> np.ndarray:
        return ev.error_of_bits(np.asarray(mat, dtype=np.int64), kind, exp_bits)

    def consumption_batch(mat: np.ndarray) -> np.ndarray:
        return np.asarray(mat, dtype=float) @ ev.tap_weights

    return AllocationProblem(
        dimension=ev.half.size,
        allowed_values=tuple(range(1, 2 * budget_bits + 2)),
        budget_bits=budget_bits,
        budget=float(spec.n_taps * budget_bits),
        objective_batch=objective_batch,
        consumption_batch=consumption_batch,
        name=f"fir-{kind}-{spec.n_taps}tap",
    )


# -- closed-form allocators ---------------------------------------------------


def lc_fixed_alloc(n_taps: int, budget_bits: int) -> np.ndarray:
    """Uniform fixed-point allocation, optimal for the relaxed MSQE.

    The fixed-point MSQE surrogate depends on the bits alone (not the
    coefficient values), and its Lagrangian stationarity under the
    budget forces all coordinates equal, so the integer answer is the
    uniform vector and no mapping step is needed.
    """
    if require_int(n_taps, "n_taps", 3) % 2 == 0:
        raise ContractViolation(f"n_taps must be odd and >= 3, got {n_taps}")
    return np.full((n_taps + 1) // 2, require_int(budget_bits, "budget_bits", 1), dtype=np.int64)


def lc_float_alloc(h, m_bar: int) -> np.ndarray:
    """Relaxed (real-valued) mantissa allocation of the full impulse
    response h (an array, such as CoefficientSet.h).

    m[n] = m_bar + log2(|h[n]| / GM(h)), where GM is the geometric mean
    of the coefficient magnitudes; the sum over the full length equals
    n_taps * m_bar exactly, and by symmetry so does the center-weighted
    half-length sum.

    Below m_bar = 1 + ceil(log2(GM(h) / min|h|)), as in benchmark designs
    with very small edge coefficients, some entries fall under one
    mantissa bit; lc_float_map clamps them.
    """
    h = np.asarray(h, dtype=float)
    if (h == 0).any():
        raise ContractViolation(
            "log-magnitude allocation is undefined for zero coefficients"
        )
    log_mag = np.log2(np.abs(h))
    gm_log = log_mag.mean()
    return require_int(m_bar, "m_bar", 1) + log_mag - gm_log


def lc_float_map(m_tilde, h, m_bar: int) -> np.ndarray:
    """Round the relaxed mantissa allocation to integers under the budget.

    Non-integer entries start at their ceiling (clamped to at least one
    mantissa bit); while the center-weighted total exceeds
    n_taps * m_bar, the not-yet-demoted non-integer coordinate with the
    smallest MSQE increase per recovered bit,

        K(i) = (2^(-2 floor(m~_i)) - 2^(-2 m~_i)) * c_i / (m~_i - floor(m~_i)),

    is dropped to its floor. Coordinates whose floor would fall below
    one mantissa bit are never demoted. m_tilde and h are full-length
    arrays (h such as CoefficientSet.h); the result is the allocation
    of the unique-coefficient half of the symmetric filter.
    """
    h = np.asarray(h, dtype=float)
    m_tilde = np.asarray(m_tilde, dtype=float)
    if m_tilde.shape != h.shape:
        raise ContractViolation(
            f"relaxed allocation has shape {m_tilde.shape}, expected {h.shape}"
        )
    n = h.size
    half_n = (n + 1) // 2
    mt = m_tilde[:half_n]
    cons_weights = _tap_weights(half_n)

    floors = np.floor(mt)
    fractional = mt != floors
    bits = np.where(fractional, np.ceil(mt), mt)
    bits = np.maximum(bits, 1.0).astype(np.int64)

    budget = float(n * require_int(m_bar, "m_bar", 1))
    total = float(cons_weights @ bits)
    if total <= budget:
        return bits

    c = (math.pi / 6.0) * h[:half_n] ** 2 * cons_weights  # MSQE weight per unique coefficient
    demotable = fractional & (floors >= 1.0)
    K = np.full(half_n, np.inf)
    idx = np.nonzero(demotable)[0]
    K[idx] = (
        (np.exp2(-2.0 * floors[idx]) - np.exp2(-2.0 * mt[idx]))
        * c[idx]
        / (mt[idx] - floors[idx])
    )
    for i in np.argsort(K, kind="stable"):
        if total <= budget:
            break
        if not demotable[i]:
            continue
        bits[i] = int(floors[i])
        total -= cons_weights[i]
    if total > budget:
        raise InfeasibleBudgetError(
            f"integer mapping cannot reach the budget {budget}: demotions exhausted "
            f"at total {total}; the relaxed allocation violates the feasibility bound"
        )
    return bits
