"""Correctness checks on operation outputs, independent of pskexp's code.

Every check recomputes what it compares against from closed forms written
here (Poisson Chernoff divergence, its stationary tilt, the time-sharing
exponent, exact maximum-likelihood error over group totals) or from values
frozen at the benchmark's first commit.  Nothing here imports pskexp.

A check returns a list of problems; an empty list means the output is
correct.  ``canonical_hash`` gives the determinism fingerprint of an output.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math

import numpy as np
from scipy.stats import binom

from workloads import FROZEN_MARY_BETA

#: Fields of the ``exponent`` JSON document that are known to differ between
#: runs of the same code and seed.  They are left out of the determinism hash
#: and reported as ``cli.exponent.nondeterministic_fields``.
NONDETERMINISTIC_FIELDS = ("wall_time_s",)

#: Values frozen at the commit that introduced this benchmark, which the
#: ROADMAP requires to hold to 1e-9 across performance work.  The paper point
#: is (r_sn, r_ca, r_ce) = (0.01, 1, 0.9); ``verify`` and ``exponent`` solve
#: it with the same optimizer.  The M-ary values are in ``workloads``.
FROZEN_PAPER_BETA = 1.9824072224662472
FROZEN_PAPER_TIME_SHARING = 1.9313619284456705
FROZEN_TOL = 1e-9


def canonical_hash(text: str, is_json: bool) -> str:
    """SHA-256 of an output, with known nondeterministic fields removed."""
    if is_json:
        doc = json.loads(text)
        for name in NONDETERMINISTIC_FIELDS:
            doc.pop(name, None)
        text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def nondeterministic_fields(text: str) -> int:
    """How many known nondeterministic fields an ``exponent`` output carries."""
    doc = json.loads(text)
    return sum(1 for name in NONDETERMINISTIC_FIELDS if name in doc)


# ---------------------------------------------------------------- closed forms


def chernoff(l0, l1, s):
    """C_s(l0, l1) = s*l0 + (1-s)*l1 - l0**s * l1**(1-s), elementwise."""
    l0 = np.asarray(l0, dtype=float)
    l1 = np.asarray(l1, dtype=float)
    return s * l0 + (1.0 - s) * l1 - np.exp(s * np.log(l0) + (1.0 - s) * np.log(l1))


def max_chernoff_point(l0: float, l1: float) -> float:
    """max_s C_s(l0, l1) at the stationary tilt log((R-1)/log R)/log R."""
    ratio = l0 / l1
    s = math.log((ratio - 1.0) / math.log(ratio)) / math.log(ratio)
    return float(chernoff(l0, l1, s))


def time_sharing_exponent(r_sn: float, r_ce: float) -> float:
    """Binary exponent of the mixture r_ce * delta_1 + (1 - r_ce) * delta_0.

    At v = 0 both hypotheses have rate 1 + r_sn and contribute nothing, so
    the mixture's exponent is r_ce times the point exponent at v = 1.
    """
    return r_ce * max_chernoff_point(r_sn, 4.0 + r_sn)


def _state_points(phases) -> np.ndarray:
    return np.array([cmath.exp(1j * phi) for phi in phases])


def _rates(points: np.ndarray, phases, r_sn: float) -> np.ndarray:
    """Normalized rates |v + e^{i phi_m}|^2 + r_sn, shape (M, len(points))."""
    return np.abs(points[None, :] + _state_points(phases)[:, None]) ** 2 + r_sn


def _mixture_value(points, weights, pair, phases, r_sn, s) -> float:
    rates = _rates(points, phases, r_sn)
    l, m = pair
    return float(np.dot(weights, chernoff(rates[l], rates[m], s)))


def exact_error(points, counts, phases, r_sn, alpha_sq, slices, tail=1e-12):
    """Exact ML error per hypothesis of a policy, over per-group count totals.

    Group g has ``counts[g]`` slices at displacement ``points[g]``; its total
    count is Poisson with mean counts[g] * (alpha_sq/slices) * Lambda_m.
    The ML statistic depends on the counts only through these totals, so the
    error is a sum over the box of totals.  Each group's range is cut where
    its upper tail falls below ``tail`` under every hypothesis; masses are
    normalized by the in-box mass.  Ties go to the lower index.
    """
    points = np.asarray(points, dtype=complex)
    mu = _rates(points, phases, r_sn) * (
        np.asarray(counts, dtype=float)[None, :] * alpha_sq / slices
    )  # (M, G) group-total means
    num_states, num_groups = mu.shape
    log_mu = np.log(mu)
    axes = []
    for g in range(num_groups):
        top = int(mu[:, g].max() + 12.0 * math.sqrt(mu[:, g].max()) + 12.0)
        k = np.arange(top + 1, dtype=float)
        lgam = np.array([math.lgamma(x + 1.0) for x in k])
        log_pmf = k[None, :] * log_mu[:, g : g + 1] - mu[:, g : g + 1] - lgam
        cdf = np.cumsum(np.exp(log_pmf), axis=1)
        last = int(np.max(np.argmax(1.0 - cdf < tail, axis=1)))
        axes.append((k[: last + 1], log_pmf[:, : last + 1]))
    # Chunk over the first group so memory stays at one slab of the box.
    error = np.zeros(num_states)
    in_box = np.zeros(num_states)
    rest_shape = tuple(len(k) for k, _ in axes[1:])
    rest_score = np.zeros((num_states,) + rest_shape)
    rest_logp = np.zeros((num_states,) + rest_shape)
    for g, (k, log_pmf) in enumerate(axes[1:], start=1):
        shape = [1] * (num_groups - 1)
        shape[g - 1] = len(k)
        for m in range(num_states):
            rest_score[m] += (k * log_mu[m, g] - mu[m, g]).reshape(shape)
            rest_logp[m] += log_pmf[m].reshape(shape)
    k0, log_pmf0 = axes[0]
    for i, k in enumerate(k0):
        score = rest_score + (k * log_mu[:, 0] - mu[:, 0]).reshape(
            (num_states,) + (1,) * (num_groups - 1)
        )
        decision = np.argmax(score, axis=0)
        for m in range(num_states):
            mass = np.exp(rest_logp[m] + log_pmf0[m, i])
            in_box[m] += mass.sum()
            error[m] += mass[decision != m].sum()
    return error / in_box


# ---------------------------------------------------------------- op checks


def _check_q(q_star, r_ca, r_ce, problems):
    points = np.array([complex(a["re"], a["im"]) for a in q_star])
    weights = np.array([a["weight"] for a in q_star])
    if np.any(weights <= 0.0) or abs(weights.sum() - 1.0) > 1e-12:
        problems.append("q_star weights are not a distribution")
    if np.any(np.abs(points) > r_ca + 1e-12):
        problems.append("q_star leaves the control disk")
    if float(np.dot(weights, np.abs(points) ** 2)) > r_ce + 1e-9:
        problems.append("q_star exceeds the energy budget")
    return points, weights


def _check_exponent_doc(doc, problems):
    """Shared checks on an ``exponent`` document; returns its beta."""
    p = doc["parameters"]
    points, weights = _check_q(doc["q_star"], p["r_ca"], p["r_ce"], problems)
    m = len(p["phases"])
    if len(doc["per_pair"]) != m * (m - 1) // 2:
        problems.append("per_pair does not list every hypothesis pair")
    values = []
    for entry in doc["per_pair"]:
        pair, s, value = tuple(entry["pair"]), entry["s_star"], entry["value"]
        values.append(value)
        own = _mixture_value(points, weights, pair, p["phases"], p["r_sn"], s)
        if abs(own - value) > 1e-9:
            problems.append(f"pair {pair} value {value!r} != recomputed {own!r}")
        for step in (-1e-5, 1e-5):
            if 0.0 <= s + step <= 1.0:
                near = _mixture_value(
                    points, weights, pair, p["phases"], p["r_sn"], s + step
                )
                if near > value + 1e-10:
                    problems.append(f"pair {pair} tilt {s!r} is not a maximum")
    beta = doc["beta"]
    if abs(beta - min(values)) > 1e-10:
        problems.append("beta is not the minimum over per_pair")
    if not doc["certified"]:
        problems.append("solution is not certified")
    return beta


def check_exponent(text: str) -> list[str]:
    problems: list[str] = []
    doc = json.loads(text)
    beta = _check_exponent_doc(doc, problems)
    p = doc["parameters"]
    m = len(p["phases"])
    if m == 2:
        floor = time_sharing_exponent(p["r_sn"], min(p["r_ce"], 1.0))
        if beta < floor - 1e-12:
            problems.append(f"beta {beta!r} below time-sharing {floor!r}")
        if (p["r_sn"], p["r_ca"], p["r_ce"]) == (0.01, 1.0, 0.9):
            if abs(beta - FROZEN_PAPER_BETA) > FROZEN_TOL:
                problems.append(f"paper-point beta {beta!r} moved")
    else:
        key = (m, p["r_sn"], p["r_ce"])
        frozen = FROZEN_MARY_BETA.get(key)
        if frozen is None:
            problems.append(f"no frozen beta for {key}")
        elif beta < frozen - FROZEN_TOL:
            problems.append(f"M-ary beta {beta!r} below frozen {frozen!r}")
    return problems


def check_exponent_unfrozen(text: str) -> list[str]:
    """An M-ary exponent with no frozen value: the structural checks only."""
    problems: list[str] = []
    _check_exponent_doc(json.loads(text), problems)
    return problems


def check_verify(text: str) -> list[str]:
    problems: list[str] = []
    doc = json.loads(text)
    if not doc["all_passed"]:
        problems.append("verify reports a failed check")
    details = {c["name"]: c["details"] for c in doc["checks"]}
    claim = details.get("interior-mass-beats-time-sharing")
    if claim is None:
        return problems + ["verify lacks the counterexample check"]
    if abs(claim["beta"] - FROZEN_PAPER_BETA) > FROZEN_TOL:
        problems.append(f"verify beta {claim['beta']!r} moved")
    ts = claim["time_sharing_value"]
    if abs(ts - FROZEN_PAPER_TIME_SHARING) > FROZEN_TOL:
        problems.append(f"time-sharing value {ts!r} moved")
    own = time_sharing_exponent(0.01, 0.9)
    if abs(ts - own) > FROZEN_TOL:
        problems.append(f"time-sharing value {ts!r} != closed form {own!r}")
    return problems


def _bound(beta: float, alpha_sq: float) -> float:
    return min(1.0, 0.5 * math.exp(-alpha_sq * beta))


def check_sweep_energy(text: str, r_sn: float, alpha_sq: float = 2.0) -> list[str]:
    problems: list[str] = []
    lines = text.strip().split("\n")
    if lines[0] != "r_ce,beta,bound_ours,q_star_summary":
        return ["unexpected sweep-energy header"]
    rows = lines[1:]
    if len(rows) != 21:
        problems.append(f"{len(rows)} rows, expected 21")
    for row in rows:
        r_ce_s, beta_s, bound_s, summary = row.split(",")
        r_ce, beta, bound = float(r_ce_s), float(beta_s), float(bound_s)
        floor = time_sharing_exponent(r_sn, r_ce) if r_ce > 0.0 else 0.0
        if beta < floor - 1e-12:
            problems.append(f"r_ce={r_ce}: beta {beta!r} below time-sharing {floor!r}")
        if abs(bound - _bound(beta, alpha_sq)) > 1e-12 * bound:
            problems.append(f"r_ce={r_ce}: bound {bound!r} inconsistent with beta")
        atoms = [a.split("|") for a in summary.split(";")]
        q = [{"re": float(a), "im": float(b), "weight": float(w)} for a, b, w in atoms]
        _check_q(q, 1.0, r_ce, problems)
    return problems


def check_sweep_photon(text: str, r_sn: float) -> list[str]:
    problems: list[str] = []
    lines = text.strip().split("\n")
    if lines[0] != "alpha_sq,bound_ours,helstrom,homodyne":
        return ["unexpected sweep-photon header"]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    grid = np.linspace(0.25, 4.0, 16)
    if len(rows) != len(grid):
        return problems + [f"{len(rows)} rows, expected {len(grid)}"]
    floor = time_sharing_exponent(r_sn, 1.0)
    betas = []
    for (a, ours, helstrom, homodyne), a_ref in zip(rows, grid):
        if a != a_ref:
            problems.append(f"alpha_sq {a!r} off the grid")
        h_ref = 0.5 * (1.0 - math.sqrt(1.0 - math.exp(-4.0 * a)))
        if abs(helstrom - h_ref) > 1e-12 * h_ref:
            problems.append(f"helstrom({a}) = {helstrom!r}, expected {h_ref!r}")
        d_ref = 0.5 * math.erfc(math.sqrt(2.0 * a))
        if abs(homodyne - d_ref) > 1e-12 * d_ref:
            problems.append(f"homodyne({a}) = {homodyne!r}, expected {d_ref!r}")
        betas.append(-math.log(2.0 * ours) / a)
    if max(betas) - min(betas) > 1e-9 * max(betas):
        problems.append("bound_ours rows disagree on the exponent")
    if min(betas) < floor - 1e-9:
        problems.append(f"exponent {min(betas)!r} below time-sharing {floor!r}")
    return problems


def check_simulate(text: str) -> list[str]:
    problems: list[str] = []
    doc = json.loads(text)
    p = doc["parameters"]
    slices = p["slices"]
    points = [complex(a["re"], a["im"]) for a in doc["policy_type"]]
    shares = [a["weight"] * slices for a in doc["policy_type"]]
    counts = [round(x) for x in shares]
    if any(abs(x - c) > 1e-6 for x, c in zip(shares, counts)) or sum(counts) != slices:
        return problems + ["policy_type is not a type of the slice count"]
    energy = sum(c * abs(v) ** 2 for c, v in zip(counts, points)) / slices
    if abs(energy - doc["mean_energy"]) > 1e-12 or energy > p["r_ce"] + 1e-12:
        problems.append("mean_energy wrong or over budget")
    m = len(p["phases"])
    trials = p["trials"]
    if sum(doc["error_counts"]) != round(doc["p_e"] * m * trials):
        problems.append("p_e does not match error_counts")
    exact = float(np.mean(
        exact_error(points, counts, p["phases"], p["r_sn"], p["alpha_sq"], slices)
    ))
    if abs(doc["p_e"] - exact) > 5.0 * doc["stderr"]:
        problems.append(
            f"p_e {doc['p_e']!r} is more than 5 sigma from exact {exact!r}"
        )
    if not doc["bound_satisfied"]:
        problems.append("simulated error exceeds the exponent bound")
    return problems


def _plausible_count(errors: int, trials: int, p: float, alpha: float) -> bool:
    """Whether neither exact binomial tail at ``errors`` is below ``alpha``."""
    return (
        binom.cdf(errors, trials, p) >= alpha
        and binom.sf(errors - 1, trials, p) >= alpha
    )


def check_crosscheck(text: str) -> list[str]:
    """Monte Carlo against the oracle, case by case, at 4 sigma.

    Error counts of a few thousand trials are far from normal (the v = 1
    policies err about 15 times in 5000 trials), and a sigma estimated from
    such a count is itself off, so each hypothesis's count is tested
    against its exact binomial law at the benchmark's own exact error
    probability.  A case passes when no tail falls below the two-sided
    4-sigma Gaussian tail shared over its hypotheses.
    """
    problems: list[str] = []
    doc = json.loads(text)
    for case in doc["cases"]:
        tag = f"N={case['slices']} v={case['v']}"
        if case["v"] == 0.0 and case["exact"] != 0.5:
            problems.append(f"{tag}: oracle gives {case['exact']!r}, not 1/2")
        own = exact_error(
            [complex(case["v"])], [case["slices"]], doc["phases"],
            doc["r_sn"], doc["alpha_sq"], case["slices"],
        )
        if abs(float(np.mean(own)) - case["exact"]) > 1e-9:
            problems.append(f"{tag}: oracle {case['exact']!r} != own {own!r}")
        alpha = math.erfc(4.0 / math.sqrt(2.0)) / (2.0 * len(own))
        for m, errors in enumerate(case["error_counts"]):
            if not _plausible_count(errors, doc["trials"], float(own[m]), alpha):
                problems.append(
                    f"{tag}: {errors} Monte Carlo errors under hypothesis {m} "
                    f"are beyond 4 sigma of the oracle's {own[m]!r}"
                )
    return problems
