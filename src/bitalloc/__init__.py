"""Bit-allocation search toolkit.

Integer quantization-bit assignment under consumption budgets: penalized
and repair-based particle swarms over a shared problem contract, exact
brute-force oracle for desk-scale instances, a hyperparameter stability
checker, and three application objectives (FIR minimax error, mixed-ADC
receiver sum rate, quantized gradient descent loss) plus closed-form
low-complexity FIR allocators. The package exports the problem contract
and the engines; everything else is imported from its module.
"""

from .problem import (
    AllocationProblem,
    ContractViolation,
    InfeasibleBudgetError,
    SearchSpaceTooLarge,
    brute_force_optimum,
)
from .swarm import RunResult, SwarmConfig, run_gcpso, run_ppso

__version__ = "0.1.0"
