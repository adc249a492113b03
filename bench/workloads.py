"""The benchmark's workloads: seeded operation lists with their checks.

A workload is a fixed sequence of operations, each one ``pskexp`` command
line (or the crosscheck script) whose arguments are drawn from the
benchmark seed alone.  Each operation carries the end-to-end metric its
time adds to and the check its output must pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: One line per workload: why it is in the benchmark.
WHY = {
    "binary-design": (
        "binary optimizer only: ~95% of compute is hull passes; "
        "no receiver, Monte Carlo or LP work"
    ),
    "mc-psk": (
        "Monte Carlo with one group (M=2, exact oracle) and six groups (M=4), "
        "and the M-ary LP and tilt search; one small binary solve, no hull sweep"
    ),
}

#: Monte Carlo trials per hypothesis for each crosscheck policy.
CROSSCHECK_TRIALS = 5000

#: Frozen M-ary exponents, keyed by (M, r_sn, r_ce) with r_ca = 1 and
#: grid_k = 40.  The optimizer returns a certified lower bound, so a later
#: commit may only raise these.  The ``mc-psk`` workload draws its M-ary
#: operating points from this table.
FROZEN_MARY_BETA: dict[tuple[int, float, float], float] = {
    (8, 0.005, 0.75): 0.10941164033627573,
    (8, 0.005, 0.85): 0.12399737641843113,
    (8, 0.005, 0.9): 0.13099688310565996,
    (8, 0.005, 0.95): 0.13714927313832856,
    (8, 0.01, 0.75): 0.10698542657821788,
    (8, 0.01, 0.85): 0.12052841621227783,
    (8, 0.01, 0.9): 0.12665442860496506,
    (8, 0.01, 0.95): 0.13197858127756693,
    (8, 0.02, 0.75): 0.10341378091884208,
    (8, 0.02, 0.85): 0.11540311179706542,
    (8, 0.02, 0.9): 0.12070806047466273,
    (8, 0.02, 0.95): 0.12536474131286718,
    (8, 0.05, 0.75): 0.09572328053894004,
    (8, 0.05, 0.85): 0.10564762596910168,
    (8, 0.05, 0.9): 0.11004730440378398,
    (8, 0.05, 0.95): 0.11402004880500573,
    (16, 0.005, 0.75): 0.027745736548680816,
    (16, 0.005, 0.85): 0.03121994964211114,
    (16, 0.005, 0.9): 0.032834337715354454,
    (16, 0.005, 0.95): 0.03425726776822092,
    (16, 0.01, 0.75): 0.027273605856692,
    (16, 0.01, 0.85): 0.0304845530913407,
    (16, 0.01, 0.9): 0.031928978445330713,
    (16, 0.01, 0.95): 0.033193694886425575,
    (16, 0.02, 0.75): 0.026474267598105224,
    (16, 0.02, 0.85): 0.02937140408284556,
    (16, 0.02, 0.9): 0.030652534673369022,
    (16, 0.02, 0.95): 0.031785725571995896,
    (16, 0.05, 0.75): 0.024696430328754643,
    (16, 0.05, 0.85): 0.027167640514865504,
    (16, 0.05, 0.9): 0.028264158023333603,
    (16, 0.05, 0.95): 0.029258527436383963,
}

#: M-ary operating points (r_sn, r_ce) the ``mc-psk`` exponents draw
#: from; each has a frozen exponent for M = 8 and M = 16.
MARY_POINTS = sorted({(r_sn, r_ce) for _, r_sn, r_ce in FROZEN_MARY_BETA})


@dataclass(frozen=True)
class Op:
    """One operation of a workload session.

    ``check`` names the function of ``checks`` that judges the output, called
    with ``check_args``.  It is a name so that the driver imports numpy and
    scipy only after its children have run: a child's peak RSS includes the
    driver's at the moment it was spawned.
    """

    label: str
    metric: str
    argv: tuple[str, ...]
    check: str
    check_args: dict = field(default_factory=dict)
    is_json: bool = True
    crosscheck: bool = False


#: M-ary points where ``optimize_general`` exits with "second moment ...
#: exceeds budget": the LP solution overshoots the energy budget by more
#: than ``ENERGY_TOL``.  They are not workload operations; every traced run
#: probes them and reports how many still fail as
#: ``exponent.optimize_general.known_failures``.
KNOWN_DEFECT_POINTS = ((16, 0.001, 0.5), (16, 0.01, 0.7), (8, 0.001, 0.6))

KNOWN_DEFECT_PROBES = tuple(
    Op(
        f"known-defect-psk{m}-{r_sn!r}-{r_ce!r}",
        "exponent_psk_s",
        ("exponent", "--psk", str(m), "--grid-k", "40",
         "--r-sn", repr(r_sn), "--r-ce", repr(r_ce)),
        "check_exponent_unfrozen",
    )
    for m, r_sn, r_ce in KNOWN_DEFECT_POINTS
)


def _binary_design(rng: random.Random) -> list[Op]:
    r_sn_sweep = 10.0 ** rng.uniform(-6.0, -1.0)
    r_sn_wide = 10.0 ** rng.uniform(-4.0, -1.0)
    r_ce_wide = rng.uniform(0.5, 1.0)
    snr = 10.0 ** rng.uniform(1.0, 4.0)
    return [
        Op("verify", "verify_s", ("verify", "--format", "json"), "check_verify"),
        Op(
            "sweep-energy",
            "sweep_energy_s",
            ("sweep-energy", "--r-sn", repr(r_sn_sweep)),
            "check_sweep_energy",
            {"r_sn": r_sn_sweep},
            is_json=False,
        ),
        Op(
            "exponent-paper",
            "exponent_s",
            ("exponent", "--r-sn", "0.01", "--r-ca", "1", "--r-ce", "0.9"),
            "check_exponent",
        ),
        # r_ca = 1.25 gives the optimizer a 1251-point hull instead of 1001.
        Op(
            "exponent-wide",
            "exponent_s",
            ("exponent", "--r-sn", repr(r_sn_wide), "--r-ca", "1.25",
             "--r-ce", repr(r_ce_wide)),
            "check_exponent",
        ),
        Op(
            "sweep-photon",
            "sweep_photon_s",
            ("sweep-photon", "--snr", repr(snr)),
            "check_sweep_photon",
            {"r_sn": 1.0 / snr},
            is_json=False,
        ),
    ]


def _mc_psk(rng: random.Random) -> list[Op]:
    sim_seed = rng.randrange(2**31)
    cross_seed = rng.randrange(2**20)
    ops = [
        Op(
            "simulate",
            "simulate_s",
            ("simulate", "--r-sn", "0.01", "--r-ca", "1", "--r-ce", "0.9",
             "--alpha-sq", "2", "--slices", "200", "--trials", "100000",
             "--seed", str(sim_seed)),
            "check_simulate",
        ),
        Op(
            "crosscheck",
            "crosscheck_s",
            ("--seed", str(cross_seed), "--trials", str(CROSSCHECK_TRIALS)),
            "check_crosscheck",
            crosscheck=True,
        ),
    ]
    for m in (8, 16):
        r_sn, r_ce = rng.choice(MARY_POINTS)
        ops.append(
            Op(
                f"exponent-psk{m}",
                "exponent_psk_s",
                ("exponent", "--psk", str(m), "--grid-k", "40",
                 "--r-sn", repr(r_sn), "--r-ce", repr(r_ce)),
                "check_exponent",
            )
        )
    ops.append(
        Op(
            "simulate-psk4",
            "simulate_psk_s",
            ("simulate", "--psk", "4", "--r-sn", "0.01", "--r-ce", "0.9",
             "--slices", "50", "--trials", "20000",
             "--seed", str(rng.randrange(2**31))),
            "check_simulate",
        )
    )
    return ops


_BUILDERS = {
    "binary-design": _binary_design,
    "mc-psk": _mc_psk,
}

NAMES = tuple(_BUILDERS)


def make(name: str, seed: int) -> list[Op]:
    """The operations of workload ``name`` for benchmark seed ``seed``."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))
