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
from pathlib import Path

import numpy as np

from .problem import AllocationProblem, ContractViolation, InfeasibleBudgetError
from .quantizers import quantize_fixed_bits, quantize_float_bits

DEFAULT_POINTS_PER_TAP = 16
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
            raise ContractViolation("at least one band is required")
        if len(self.desired) != len(bands) or len(self.weights) != len(bands):
            raise ContractViolation("bands, desired and weights must have equal length")
        prev_hi = -1.0
        for lo, hi in bands:
            if not 0.0 <= lo < hi <= math.pi + 1e-12:
                raise ContractViolation(f"band ({lo}, {hi}) is not inside [0, pi]")
            if lo < prev_hi:
                raise ContractViolation("bands must be ascending and disjoint")
            prev_hi = hi
        if any(w <= 0 for w in self.weights):
            raise ContractViolation("band weights must be positive")
        if self.n_taps < 3 or self.n_taps % 2 == 0:
            raise ContractViolation(f"n_taps must be odd and >= 3, got {self.n_taps}")

    @classmethod
    def of_pi(cls, bands, desired, weights, n_taps) -> "FilterSpec":
        """Construct from band edges given as multiples of pi."""
        scaled = tuple((lo * math.pi, hi * math.pi) for lo, hi in bands)
        return cls(bands=scaled, desired=tuple(desired), weights=tuple(weights), n_taps=n_taps)


# Benchmark band layouts, edges in multiples of pi: a lowpass pair, the
# same pair with a 10x stopband weight, a two-notch bandstop, and a
# lowpass with offset band edges.
_BENCHMARKS = {
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
    if key not in _BENCHMARKS:
        raise ContractViolation(f"unknown benchmark letter {letter!r}; use one of a, b, c, d")
    bands, desired, weights = _BENCHMARKS[key]
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
    text = Path(path).read_text()
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


def _half_and_weights(h) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(h, CoefficientSet):
        half = h.half
    else:
        h = np.asarray(h, dtype=float)
        half = h[: (h.size + 1) // 2]
    return half, _tap_weights(half.size)


def _cosine_matrix(n_taps: int, omegas: np.ndarray) -> np.ndarray:
    """cos((center - n) * omega) for the unique coefficient indices."""
    center = (n_taps - 1) // 2
    lags = center - np.arange(center + 1)
    return np.cos(lags[:, None] * omegas[None, :])


def magnitude(h, omegas) -> np.ndarray:
    """Real-valued magnitude response H(omega) of a Type I filter.

    Accepts a CoefficientSet or a full-length symmetric array; omegas
    may be a scalar or an array.
    """
    half, weights = _half_and_weights(h)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    n_taps = 2 * half.size - 1
    out = (weights * half) @ _cosine_matrix(n_taps, omegas)
    return out if out.size > 1 else float(out[0])


def band_grid(
    spec: FilterSpec, points_per_tap: int = DEFAULT_POINTS_PER_TAP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense evaluation grid: (omegas, desired, weights) per point.

    Each band contributes points_per_tap * n_taps uniformly spaced
    points with both edges included, which keeps the discretized
    maximum stable against grid placement.
    """
    per_band = points_per_tap * spec.n_taps
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
    """Quantize the unique coefficients under each row's allocation."""
    if kind == "fixed":
        # Allocation counts total wordlength: one sign bit, b - 1
        # fractional bits.
        return quantize_fixed_bits(half[None, :], bits - 1)
    if kind == "float":
        values, _ = quantize_float_bits(half[None, :], exp_bits, bits)
        return values
    raise ContractViolation(f"unknown quantization kind {kind!r}; use 'fixed' or 'float'")


class _MinimaxEvaluator:
    """Precomputed grid machinery shared by minimax evaluations."""

    def __init__(self, spec: FilterSpec, coeffs: CoefficientSet, points_per_tap: int):
        if spec.n_taps != coeffs.n_taps:
            raise ContractViolation(
                f"spec is for {spec.n_taps} taps but coefficients have {coeffs.n_taps}"
            )
        self.half, self.tap_weights = _half_and_weights(coeffs)
        omegas, desired, weights = band_grid(spec, points_per_tap)
        self.cosmat = _cosine_matrix(spec.n_taps, omegas)
        self.desired = desired
        self.grid_weights = weights

    def error_of_half_rows(self, half_rows: np.ndarray) -> np.ndarray:
        response = (self.tap_weights * half_rows) @ self.cosmat
        return np.abs((response - self.desired) * self.grid_weights).max(axis=1)

    def error_of_bits(self, bits: np.ndarray, kind: str, exp_bits: int) -> np.ndarray:
        out = np.empty(bits.shape[0])
        for start in range(0, bits.shape[0], _CHUNK_ROWS):
            chunk = bits[start : start + _CHUNK_ROWS]
            rows = _quantize_half_batch(self.half, chunk, kind, exp_bits)
            out[start : start + _CHUNK_ROWS] = self.error_of_half_rows(rows)
        return out


def minimax_error(
    spec: FilterSpec,
    coeffs: CoefficientSet,
    half_bits,
    kind: str = "fixed",
    *,
    exp_bits: int = DEFAULT_EXP_BITS,
    points_per_tap: int = DEFAULT_POINTS_PER_TAP,
) -> float:
    """Weighted minimax error of the quantized filter on the grid."""
    ev = _MinimaxEvaluator(spec, coeffs, points_per_tap)
    bits = np.asarray(half_bits, dtype=np.int64)
    if bits.shape != (ev.half.size,):
        raise ContractViolation(
            f"allocation has shape {bits.shape}, expected ({ev.half.size},)"
        )
    return float(ev.error_of_bits(bits[None, :], kind, exp_bits)[0])


def full_precision_error(
    spec: FilterSpec,
    coeffs: CoefficientSet,
    points_per_tap: int = DEFAULT_POINTS_PER_TAP,
) -> float:
    """Minimax error of the unquantized design (the floor any allocation chases)."""
    ev = _MinimaxEvaluator(spec, coeffs, points_per_tap)
    return float(ev.error_of_half_rows(ev.half[None, :])[0])


def mirror_allocation(half_bits) -> np.ndarray:
    """Expand a half-length allocation to the full symmetric filter."""
    half_bits = np.asarray(half_bits, dtype=np.int64)
    return np.concatenate([half_bits, half_bits[-2::-1]])


def fir_problem(
    spec: FilterSpec,
    coeffs: CoefficientSet,
    kind: str = "fixed",
    budget_bits: int = 8,
    *,
    exp_bits: int = DEFAULT_EXP_BITS,
    points_per_tap: int = DEFAULT_POINTS_PER_TAP,
) -> AllocationProblem:
    """Expose the quantized-filter design as an allocation problem.

    The dimension is the unique-coefficient count (n_taps + 1) / 2, the
    allowed set is {1, ..., 2 * budget_bits + 1}, consumption counts
    edge coefficients twice and the center once, and the budget is
    n_taps * budget_bits (met with equality by the uniform allocation).
    """
    if kind not in ("fixed", "float"):
        raise ContractViolation(f"unknown quantization kind {kind!r}; use 'fixed' or 'float'")
    if budget_bits < 1:
        raise ContractViolation(f"budget_bits must be >= 1, got {budget_bits}")
    ev = _MinimaxEvaluator(spec, coeffs, points_per_tap)

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
    if n_taps < 3 or n_taps % 2 == 0:
        raise ContractViolation(f"n_taps must be odd and >= 3, got {n_taps}")
    return np.full((n_taps + 1) // 2, budget_bits, dtype=np.int64)


def lc_float_alloc(h, m_bar: int, strict: bool = True) -> np.ndarray:
    """Relaxed (real-valued) mantissa allocation, full filter length.

    m[n] = m_bar + log2(|h[n]| / GM(h)), where GM is the geometric mean
    of the coefficient magnitudes; the sum over the full length equals
    n_taps * m_bar exactly, and by symmetry so does the center-weighted
    half-length sum.

    The closed form assumes every rounded-up mantissa stays in range,
    which holds when m_bar >= 1 + ceil(log2(GM(h) / min|h|)). Pass
    strict=False to skip that check and let the integer mapping clamp
    instead; benchmark designs with very small edge coefficients need
    this escape.
    """
    if isinstance(h, CoefficientSet):
        h = h.h
    h = np.asarray(h, dtype=float)
    if (h == 0).any():
        raise ContractViolation(
            "log-magnitude allocation is undefined for zero coefficients"
        )
    log_mag = np.log2(np.abs(h))
    gm_log = log_mag.mean()
    bound = 1 + math.ceil(gm_log - log_mag.min())
    if strict and m_bar < bound:
        raise ContractViolation(
            f"mantissa budget {m_bar} is below the feasibility bound {bound} "
            "= 1 + ceil(log2(GM(h)/min|h|)); pass strict=False to clamp at the floor"
        )
    return m_bar + log_mag - gm_log


def _half_msqe_coeffs(h: np.ndarray) -> np.ndarray:
    """Per-unique-coefficient MSQE weight for the floating-point model."""
    half, weights = _half_and_weights(h)
    return (math.pi / 6.0) * half**2 * weights


def fixed_msqe_surrogate(half_bits) -> float:
    """Mean-square response error model for fixed-point allocations."""
    b = np.asarray(half_bits, dtype=float)
    terms = (math.pi / 6.0) * np.exp2(-2.0 * b)
    return float(terms[:-1].sum() + 0.5 * terms[-1])


def float_msqe_surrogate(h, half_mantissa) -> float:
    """Mean-square response error model for floating-point allocations.

    Accepts real-valued mantissa counts, so it doubles as the relaxed
    objective the log-magnitude allocation minimizes.
    """
    if isinstance(h, CoefficientSet):
        h = h.h
    h = np.asarray(h, dtype=float)
    m = np.asarray(half_mantissa, dtype=float)
    c = _half_msqe_coeffs(h)
    if m.shape != c.shape:
        raise ContractViolation(f"mantissa vector has shape {m.shape}, expected {c.shape}")
    return float((c * np.exp2(-2.0 * m)).sum())


def lc_float_map(m_tilde, h, m_bar: int) -> np.ndarray:
    """Round the relaxed mantissa allocation to integers under the budget.

    Non-integer entries start at their ceiling (clamped to at least one
    mantissa bit); while the center-weighted total exceeds
    n_taps * m_bar, the not-yet-demoted non-integer coordinate with the
    smallest MSQE increase per recovered bit,

        K(i) = (2^(-2 floor(m~_i)) - 2^(-2 m~_i)) * c_i / (m~_i - floor(m~_i)),

    is dropped to its floor. Coordinates whose floor would fall below
    one mantissa bit are never demoted. Operates on (and returns) the
    unique-coefficient half of the symmetric filter.
    """
    if isinstance(h, CoefficientSet):
        h = h.h
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

    budget = float(n * m_bar)
    total = float(cons_weights @ bits)
    if total <= budget:
        return bits

    c = _half_msqe_coeffs(h)
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
