"""Error exponents and photon-counting simulation for displacement-based
PSK discrimination under dark counts.

The library computes the best error exponent achievable by open-loop
displacement policies for PSK coherent-state discrimination with a
photon-counting receiver subject to dark counts, verifies the structural
facts the optimizer relies on, and validates the resulting error bound by
Monte Carlo simulation of the sliced receiver.
"""

from .baselines import helstrom_binary, homodyne_binary, theorem_bound
from .constellation import (
    InfeasibleRatiosError,
    OperatingRatios,
    PskConstellation,
    SignalScale,
    bpsk,
    control_grid,
    normalized_rates,
    uniform_psk,
)
from .divergence import (
    ChernoffOptimum,
    chernoff_values,
    max_chernoff,
    max_chernoff_mixtures,
)
from .exponent import (
    ControlDistribution,
    ExponentSolution,
    convexity_margin,
    exponent_of,
    optimize_binary,
    optimize_general,
    pair_exponent,
    pair_exponents,
    verify_claims,
)
from .receiver import (
    ExactErrorResult,
    MonteCarloReport,
    OpenLoopPolicy,
    exact_error_small,
    monte_carlo,
    realize_policy,
)

__version__ = "0.1.0"

__all__ = [
    "ChernoffOptimum",
    "ControlDistribution",
    "ExactErrorResult",
    "ExponentSolution",
    "InfeasibleRatiosError",
    "MonteCarloReport",
    "OpenLoopPolicy",
    "OperatingRatios",
    "PskConstellation",
    "SignalScale",
    "bpsk",
    "chernoff_values",
    "control_grid",
    "convexity_margin",
    "exact_error_small",
    "exponent_of",
    "helstrom_binary",
    "homodyne_binary",
    "max_chernoff",
    "max_chernoff_mixtures",
    "monte_carlo",
    "normalized_rates",
    "optimize_binary",
    "optimize_general",
    "pair_exponent",
    "pair_exponents",
    "realize_policy",
    "theorem_bound",
    "uniform_psk",
    "verify_claims",
]
