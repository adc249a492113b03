"""Analytic reference curves for binary coherent-state discrimination.

Two dark-count-free baselines are adopted in their standard closed forms
(documented here because different conventions circulate):

* ``helstrom_binary``: the quantum-optimal error for |+alpha> vs |-alpha>,
  (1/2)(1 - sqrt(1 - e**(-4 n_s))), from the squared overlap e**(-4 n_s).
* ``homodyne_binary``: shot-noise-limited quadrature detection,
  (1/2) erfc(sqrt(2 n_s)) — Gaussian discrimination of means +-2 sqrt(n_s)
  at unit variance in the measured quadrature convention used here.

``theorem_bound`` converts an exponent into an error-probability bound
prefactor * exp(-n_s * beta), with the exact likelihood-ratio prefactor 1/2
for binary and the union-bound prefactor M-1 otherwise.
"""

from __future__ import annotations

import math


def helstrom_binary(n_s: float) -> float:
    """Minimum error probability for |+alpha> vs |-alpha>, n_s = alpha**2."""
    if n_s < 0.0:
        raise ValueError(f"n_s must be nonnegative, got {n_s!r}")
    return 0.5 * (1.0 - math.sqrt(1.0 - math.exp(-4.0 * n_s)))


def homodyne_binary(n_s: float) -> float:
    """Shot-noise-limited homodyne error for the same binary alphabet."""
    if n_s < 0.0:
        raise ValueError(f"n_s must be nonnegative, got {n_s!r}")
    return 0.5 * math.erfc(math.sqrt(2.0 * n_s))


def theorem_bound(beta: float, n_s: float, num_states: int) -> float:
    """Error bound prefactor * exp(-n_s * beta), capped at 1.

    For two hypotheses the exact likelihood-ratio argument gives prefactor
    1/2; for more, the prefactor is num_states - 1 (union bound over wrong
    hypotheses).
    """
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta!r}")
    if not 0.0 <= n_s < math.inf:
        raise ValueError(f"n_s must be finite and nonnegative, got {n_s!r}")
    if num_states < 2:
        raise ValueError(f"need at least two hypotheses, got {num_states!r}")
    prefactor = 0.5 if num_states == 2 else float(num_states - 1)
    return min(1.0, prefactor * math.exp(-n_s * beta))
