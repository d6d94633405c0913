#!/usr/bin/env python3
"""Regenerate the equiripple filter fixtures under fixtures/.

Each fixture is a Type I (odd-length, even-symmetric) linear-phase FIR
design produced by the Remez exchange algorithm for one of the four
band layouts in bitalloc.fir.BENCHMARKS, at 35 and 45 taps, plus a
7-tap toy lowpass. Coefficients are written one per line at full
double precision, so reruns are byte-identical for a given scipy
version. Needs bitalloc importable (installed, or PYTHONPATH=src).

Usage: python3 scripts/make_fir_fixtures.py [output_dir]
"""

import sys
from pathlib import Path

import numpy as np
from scipy.signal import remez

from bitalloc.fir import BENCHMARKS

LABELS = {
    "a": "lowpass, pass [0, 0.4pi], stop [0.5pi, pi], weights 1/1",
    "b": "lowpass, pass [0, 0.4pi], stop [0.5pi, pi], weights 1/10",
    "c": "bandstop, pass [0, 0.24pi] and [0.84pi, pi], stop [0.4pi, 0.68pi]",
    "d": "lowpass with offset edges, pass [0.02pi, 0.42pi], stop [0.52pi, 0.98pi]",
}

LENGTHS = (35, 45)


def design(n_taps: int, bands, desired, weights) -> np.ndarray:
    """Remez design; band edges in multiples of pi (fractions of Nyquist)."""
    edges = [edge for band in bands for edge in band]
    h = remez(n_taps, edges, desired, weight=weights, fs=2.0, grid_density=64)
    # The exchange algorithm returns a numerically symmetric impulse
    # response; make the symmetry exact so ingestion checks are strict.
    h = 0.5 * (h + h[::-1])
    assert np.abs(h).max() < 1.0, f"{n_taps} taps: coefficients out of (-1, 1)"
    return h


def write_fixture(path: Path, h: np.ndarray, label: str) -> None:
    header = [
        f"# {h.size}-tap equiripple {label}",
        "# generated by scripts/make_fir_fixtures.py (Remez exchange, grid density 64)",
    ]
    lines = header + [f"{c:.17g}" for c in h]
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({h.size} taps)")


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent / "fixtures"
    out_dir.mkdir(parents=True, exist_ok=True)
    for letter, label in LABELS.items():
        for n_taps in LENGTHS:
            h = design(n_taps, *BENCHMARKS[letter])
            write_fixture(out_dir / f"{letter}{n_taps}.txt", h, label)
    # Tiny lowpass used by configs/fir_toy_oracle.ini; dimension 4 keeps
    # the exhaustive search cheap.
    toy = design(7, ((0.0, 0.4), (0.6, 1.0)), (1.0, 0.0), (1.0, 1.0))
    write_fixture(out_dir / "toy7.txt", toy, "lowpass toy, pass [0, 0.4pi], stop [0.6pi, pi]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
