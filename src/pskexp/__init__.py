"""Error exponents and photon-counting simulation for displacement-based
PSK discrimination under dark counts.

The library computes the best error exponent achievable by open-loop
displacement policies for PSK coherent-state discrimination with a
photon-counting receiver subject to dark counts, verifies the structural
facts the optimizer relies on, and validates the resulting error bound by
Monte Carlo simulation of the sliced receiver.
"""

from .baselines import (
    BaselineCurve,
    fixed_displacement_exponent,
    helstrom_binary,
    homodyne_binary,
    theorem_bound,
)
from .constellation import (
    InfeasibleRatiosError,
    OperatingRatios,
    PskConstellation,
    SignalScale,
    bpsk,
    control_grid,
    normalized_rate,
    normalized_rates,
    physical_rate,
    uniform_psk,
)
from .divergence import (
    ChernoffOptimum,
    RatePair,
    chernoff_s,
    chernoff_s_series,
    chernoff_values,
    golden_section_max,
    kl_poisson,
    max_chernoff,
    poisson_log_pmf,
    s_star_ratio,
    tilted_rate,
)
from .exponent import (
    ClaimCheck,
    ClaimReport,
    ControlDistribution,
    ExponentSolution,
    PairValue,
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
    ml_decide,
    monte_carlo,
    realize_policy,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineCurve",
    "ChernoffOptimum",
    "ClaimCheck",
    "ClaimReport",
    "ControlDistribution",
    "ExactErrorResult",
    "ExponentSolution",
    "InfeasibleRatiosError",
    "MonteCarloReport",
    "OpenLoopPolicy",
    "OperatingRatios",
    "PairValue",
    "PskConstellation",
    "RatePair",
    "SignalScale",
    "bpsk",
    "chernoff_s",
    "chernoff_s_series",
    "chernoff_values",
    "control_grid",
    "convexity_margin",
    "exact_error_small",
    "exponent_of",
    "fixed_displacement_exponent",
    "golden_section_max",
    "helstrom_binary",
    "homodyne_binary",
    "kl_poisson",
    "max_chernoff",
    "ml_decide",
    "monte_carlo",
    "normalized_rate",
    "normalized_rates",
    "optimize_binary",
    "optimize_general",
    "pair_exponent",
    "pair_exponents",
    "physical_rate",
    "poisson_log_pmf",
    "realize_policy",
    "s_star_ratio",
    "theorem_bound",
    "tilted_rate",
    "uniform_psk",
    "verify_claims",
]
