"""Bit-allocation search toolkit.

Integer quantization-bit assignment under consumption budgets: penalized
and repair-based particle swarms over a shared problem contract, exact
brute-force oracle for desk-scale instances, a hyperparameter stability
checker, and three application objectives (FIR minimax error, mixed-ADC
receiver sum rate, quantized gradient descent loss) plus closed-form
low-complexity FIR allocators.
"""

from .convergence import (
    ConvergenceReport,
    check_convergence_conditions,
    check_schedule,
    lyapunov_solution,
    state_matrix,
)
from .problem import (
    AllocationProblem,
    ContractViolation,
    InfeasibleBudgetError,
    SearchSpaceTooLarge,
    brute_force_optimum,
    penalized_fitness,
    penalized_fitness_batch,
)
from .quantizers import (
    quantize_fixed_bits,
    quantize_float_bits,
    round_half_away,
)
from .swarm import (
    RunResult,
    SwarmConfig,
    greedy_repair,
    greedy_repair_batch,
    init_swarm,
    run_gcpso,
    run_ppso,
    schedule_hyperparams,
    sensitivity,
    sensitivity_vector,
    snap_to_allowed,
    step_swarm,
)

__all__ = [
    "AllocationProblem",
    "ContractViolation",
    "ConvergenceReport",
    "InfeasibleBudgetError",
    "RunResult",
    "SearchSpaceTooLarge",
    "SwarmConfig",
    "brute_force_optimum",
    "check_convergence_conditions",
    "check_schedule",
    "greedy_repair",
    "greedy_repair_batch",
    "init_swarm",
    "lyapunov_solution",
    "penalized_fitness",
    "penalized_fitness_batch",
    "quantize_fixed_bits",
    "quantize_float_bits",
    "round_half_away",
    "run_gcpso",
    "run_ppso",
    "schedule_hyperparams",
    "sensitivity",
    "sensitivity_vector",
    "snap_to_allowed",
    "state_matrix",
    "step_swarm",
]

__version__ = "0.1.0"
