#!/usr/bin/env python3
"""Convergence traces for gradient descent with per-coordinate
gradient quantization.

Runs the same seeded task once per allocation strategy and writes the
error (or loss) trajectory of each so the curves can be overlaid. The
swarm strategies re-optimize the bit split at every descent step under
the running budget; the uniform baseline spends the budget evenly.

Usage:
  python3 scripts/qgd_convergence.py [--task least_squares|logistic]
      [--steps 200] [--budget-bits 4] [--out qgd_convergence.csv]
"""

import argparse
import csv
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bitalloc.qgd import (
    gaussian_least_squares,
    synthetic_classification,
    train,
)

STRATEGIES = ("uniform", "ppso", "gcpso")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--task", choices=("least_squares", "logistic"), default="least_squares")
    ap.add_argument("--rows", type=int, default=200)
    ap.add_argument("--cols", type=int, default=20)
    ap.add_argument("--eta", type=float, default=None)
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--budget-bits", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("qgd_convergence.csv"))
    args = ap.parse_args(argv)

    if args.task == "least_squares":
        eta = 0.001 if args.eta is None else args.eta
        task = gaussian_least_squares(
            n_rows=args.rows,
            n_cols=args.cols,
            eta=eta,
            t_iter=args.steps,
            budget_bits=args.budget_bits,
            seed=args.seed,
        )
        metric_name = "error"
    else:
        eta = 0.5 if args.eta is None else args.eta
        task = synthetic_classification(
            n_samples=args.rows,
            n_features=args.cols,
            eta=eta,
            t_iter=args.steps,
            budget_bits=args.budget_bits,
            seed=args.seed,
        )
        metric_name = "loss"

    results = {}
    for strategy in STRATEGIES:
        t0 = time.perf_counter()
        results[strategy] = train(task, strategy)
        print(
            f"{strategy:>8}: final {metric_name} "
            f"{results[strategy].metric_trace[-1]:.6e}"
            f"   [{time.perf_counter() - t0:.1f}s]"
        )

    with open(args.out, "w", newline="") as fh:
        fh.write(f"# seed={args.seed}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration"] + [f"{metric_name}_{s}" for s in STRATEGIES])
        for t in range(task.t_iter + 1):
            writer.writerow(
                [t] + [repr(float(results[s].metric_trace[t])) for s in STRATEGIES]
            )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
