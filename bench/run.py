"""pskexp benchmark: CLI latency from process start and per-layer costs.

    python3 bench/run.py --workload binary-design --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1

One driver process runs a workload's operations one at a time (a closed
loop with one client).  With ``--trace 0`` each operation is a fresh
``python3 -m pskexp.cli`` process, timed from process start with imports
included, and the operations repeat in order until ``--seconds`` is used
up; the run reports the end-to-end metrics.  With ``--trace 1`` each operation runs
in-process through ``pskexp.cli.main`` untraced, traced with the
module-boundary spans of ``tracing.py``, and untraced again; the run
reports the per-layer metrics.  ``--workload all`` does both for every workload and prints every
metric.  Every output is checked (``checks.py``) and hashed; an operation
fails on an unexpected exit code, a failed check, or a hash that differs
from an earlier run of the same code and seed.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pools are capped at one thread, within the processors this
#: process may use; set before numpy is imported here or in any child.  With
#: two threads an idle pool worker spins beside every child (107% CPU during
#: ``simulate``) and competes with it for the machine's two processors.
NPROC = len(os.sched_getaffinity(0))
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

#: Import probes per run for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: ``-X importtime`` probes per traced run.
IMPORT_PROBES = 3
#: Every run stops starting work this long after it began.
DEADLINE_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-operation times, reported by name in the full report.
OP_METRICS = (
    "verify_s",
    "sweep_energy_s",
    "sweep_photon_s",
    "exponent_s",
    "exponent_psk_s",
    "simulate_s",
    "simulate_psk_s",
    "crosscheck_s",
)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name == "fail_rate":
        return "ratio"
    if name.endswith("tail_bound_max"):
        return "1"
    if name.endswith("trials_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def summarize(values: list[float]) -> dict:
    """Median and sample count, plus the highest of p90/p99 that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


# ---------------------------------------------------------------- provenance


def child_env() -> dict:
    """Environment of every child: this tree's ``src`` and capped pools."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def source_fingerprint() -> str:
    """Hash of the program and benchmark sources: 'the same code'."""
    digest = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(BENCH.glob("*.py"))):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


PROBE = (
    "import json, sys, numpy, scipy, pskexp, pskexp.cli; "
    "print(json.dumps({'pskexp_file': pskexp.__file__, "
    "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
    "'scipy': scipy.__version__}))"
)


def provenance(seed: int) -> dict:
    """Versions and the resolved ``pskexp.__file__`` from a child process.

    The probe also warms the file cache and byte-code before timing.  It
    raises when pskexp does not come from this tree's ``src``.
    """
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import pskexp from {SRC}: {proc.stderr.strip()}")
    info = json.loads(proc.stdout)
    resolved = Path(info["pskexp_file"]).resolve()
    if not resolved.is_relative_to(SRC):
        raise RuntimeError(f"pskexp resolves to {resolved}, not {SRC}")
    info["pskexp_file"] = str(resolved.relative_to(ROOT))
    info.update(
        nproc=NPROC,
        cpu=cpu_model(),
        git_commit=git_commit(),
        source=source_fingerprint(),
        seed=seed,
        thread_caps=THREAD_ENV,
    )
    return info


# ---------------------------------------------------------------- determinism


class HashStore:
    """Output hashes per (workload, seed, operation) for one source version.

    Kept in ``bench/results`` so that runs of the same code and seed in one
    checkout compare against each other, as well as repeats within a run.
    """

    def __init__(self) -> None:
        self.path = RESULTS / f"hashes-{source_fingerprint()}.json"
        self.known: dict[str, str] = {}
        if self.path.exists():
            self.known = json.loads(self.path.read_text())

    def agrees(self, key: str, digest: str) -> bool:
        return self.known.setdefault(key, digest) == digest

    def save(self) -> None:
        RESULTS.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True, indent=1))
        os.replace(tmp, self.path)


# ---------------------------------------------------------------- operations


@dataclass
class Outcome:
    """One attempted operation."""

    label: str
    metric: str
    wall: float
    problems: list[str] = field(default_factory=list)
    output: str = ""


def judge(
    op: workloads.Op, rc: int, output: str, key: str, store: HashStore, stderr: str
) -> list[str]:
    """Problems with one operation's exit code and output."""
    import checks  # numpy and scipy: only once the children have run

    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[-300:]}"]
    try:
        problems = getattr(checks, op.check)(output, **op.check_args)
        digest = checks.canonical_hash(output, op.is_json)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    if not store.agrees(key, digest):
        problems.append("output differs from an earlier run of the same code and seed")
    return problems


def run_process(argv: list[str], timeout: float) -> tuple[int, str, str, float]:
    """Run one child to completion: (exit code, stdout, stderr, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=child_env(), cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return -9, out, f"timed out after {timeout:.0f} s", time.perf_counter() - start
    return proc.returncode, out, err, time.perf_counter() - start


def op_argv(op: workloads.Op) -> list[str]:
    if op.crosscheck:
        return [sys.executable, str(BENCH / "crosscheck.py"), *op.argv]
    return [sys.executable, "-m", "pskexp.cli", *op.argv]


def measure_setup(deadline: float) -> list[Outcome]:
    """Processes that import ``pskexp.cli`` and exit: the cost every command pays."""
    outcomes = []
    for _ in range(SETUP_PROBES):
        rc, _, err, wall = run_process(
            [sys.executable, "-c", "import pskexp.cli"], deadline - time.perf_counter()
        )
        outcomes.append(Outcome("setup", "setup_s", wall, [] if rc == 0 else [err.strip()]))
    return outcomes


def session_median(ops, outcomes: list[Outcome], metric: str | None = None) -> dict:
    """Wall time of a median session: the sum over ``ops`` (those adding to
    ``metric``, or all) of each operation's median time; ``n`` is the fewest
    samples any of them has."""
    chosen = [op for op in ops if metric is None or op.metric == metric]
    samples = [[o.wall for o in outcomes if o.label == op.label] for op in chosen]
    samples = [s for s in samples if s]
    return {
        "median": sum(statistics.median(s) for s in samples),
        "n": min((len(s) for s in samples), default=0),
    }


def measure(workload: str, seed: int, seconds: float, store: HashStore, started: float):
    """Untraced run: setup probes, then the operations in order, over and
    over, while the next one is expected to end within ``seconds``.

    The first pass always runs whole.  Filling the run one operation at a
    time, not one session at a time, uses all of ``seconds`` for samples.
    Outputs are checked after the last operation (see ``workloads.Op``).
    """
    deadline = started + DEADLINE_S
    ops = workloads.make(workload, seed)
    setup = measure_setup(deadline)
    raw, last_wall = [], {}
    begin = time.perf_counter()
    for index in itertools.count():
        op = ops[index % len(ops)]
        now = time.perf_counter()
        if now >= deadline or (
            index >= len(ops) and now - begin + last_wall[op.label] > seconds
        ):
            break
        raw.append((op, run_process(op_argv(op), deadline - now)))
        last_wall[op.label] = raw[-1][1][3]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    outcomes = [
        Outcome(op.label, op.metric, op_wall,
                judge(op, rc, out, f"{workload}|{seed}|{op.label}", store, err), out)
        for op, (rc, out, err, op_wall) in raw
    ]
    attempted = setup + outcomes
    failed = [o for o in attempted if o.problems]
    metrics = {
        "setup_s": summarize([o.wall for o in setup]),
        "wall_s": session_median(ops, outcomes),
        "peak_rss_mb": {"median": peak_rss_mb, "n": len(attempted)},
        "fail_rate": {"median": len(failed) / len(attempted), "n": len(attempted)},
    }
    for name in OP_METRICS:
        if any(op.metric == name for op in ops):
            metrics[name] = session_median(ops, outcomes, name)
    import checks

    exponent_outputs = [
        o.output for o in outcomes if o.label.startswith("exponent") and not o.problems
    ]
    metrics["cli.exponent.nondeterministic_fields"] = {
        "median": float(max((checks.nondeterministic_fields(t) for t in exponent_outputs), default=0)),
        "n": len(exponent_outputs),
    }
    return metrics, attempted, failed


# ---------------------------------------------------------------- tracing

_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s+)(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import costs from ``-X importtime`` output, in seconds."""
    cumulative: dict[str, float] = {}
    pskexp_self = 0.0
    for match in _IMPORT_LINE.finditer(stderr):
        self_us, cum_us, _, name = match.groups()
        cumulative[name] = int(cum_us) / 1e6
        if name == "pskexp" or name.startswith("pskexp."):
            pskexp_self += int(self_us) / 1e6
    return {
        "import.numpy_s": cumulative.get("numpy", 0.0),
        "import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
        "import.scipy_stats_s": cumulative.get("scipy.stats", 0.0),
        "import.pskexp_self_s": pskexp_self,
    }


#: Per-layer metrics of the result line: every metric of the traced run.  A
#: layer that a workload never enters reads 0 on that workload.
PER_LAYER = {
    name: unit_of(name)
    for name in (
        *parse_importtime(""),
        *Tracer().metrics(),
        "trace.overhead_s",
        "trace.untraced_s",
        "cli.exponent.nondeterministic_fields",
        "exponent.optimize_general.known_failures",
    )
}


def measure_imports(deadline: float) -> tuple[dict[str, float], list[Outcome]]:
    samples, outcomes = [], []
    for _ in range(IMPORT_PROBES):
        rc, _, err, wall = run_process(
            [sys.executable, "-X", "importtime", "-c", "import pskexp.cli"],
            deadline - time.perf_counter(),
        )
        outcomes.append(Outcome("importtime", "setup_s", wall, [] if rc == 0 else [err[-300:]]))
        if rc == 0:
            samples.append(parse_importtime(err))
    if not samples:
        return {}, outcomes
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}, outcomes


def _in_process(op: workloads.Op) -> tuple[int, str, str]:
    """Run one operation in this process: (exit code, stdout, stderr)."""
    import crosscheck
    import pskexp.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = (crosscheck.main if op.crosscheck else pskexp.cli.main)(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an operation's crash is its failure, not the run's
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


#: How the known defect of ``optimize_general`` shows on stderr.
KNOWN_DEFECT = re.compile(r"second moment \S+ exceeds budget")


def probe_known_defects(workload: str, seed: int, store: HashStore):
    """Run the M-ary points where ``optimize_general`` is known to fail.

    A probe that fails with the known error adds to the returned count, not
    to the failed operations; one that exits 0 is checked like any M-ary
    exponent, and any other exit is a failure.
    """
    known, outcomes = 0, []
    for op in workloads.KNOWN_DEFECT_PROBES:
        start = time.perf_counter()
        rc, out, err = _in_process(op)
        wall = time.perf_counter() - start
        if rc != 0 and KNOWN_DEFECT.search(err):
            known += 1
            problems = []
        else:
            problems = judge(op, rc, out, f"{workload}|{seed}|{op.label}", store, err)
        outcomes.append(Outcome(op.label, op.metric, wall, problems))
    return known, outcomes


def traced(workload: str, seed: int, store: HashStore, started: float):
    """Traced run, in-process: each operation untraced to warm up, traced,
    untraced; then the known-defect probes.  It does not follow ``--seconds``."""
    import checks

    deadline = started + DEADLINE_S
    imports, attempted = measure_imports(deadline)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pskexp

    if not Path(pskexp.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"pskexp resolves to {pskexp.__file__}, not {SRC}")
    tracer = Tracer()
    untraced_total = traced_total = 0.0
    nondeterministic = 0
    for op in workloads.make(workload, seed):
        if time.perf_counter() > deadline:
            break
        key = f"{workload}|{seed}|{op.label}"
        # The first call of an operation in this process pays one-off costs
        # (1.4 s on the first ``simulate``), so a warm-up pass comes first and
        # the overhead compares the traced pass with the untraced one after it.
        root = ("bench." if op.crosscheck else "cli.") + op.label
        for index, pass_traced in enumerate((False, True, False)):
            with tracer.installed() if pass_traced else contextlib.nullcontext():
                start = time.perf_counter()
                with tracer.operation(root) if pass_traced else contextlib.nullcontext():
                    rc, out, err = _in_process(op)
                wall = time.perf_counter() - start
            problems = judge(op, rc, out, key, store, err)
            attempted.append(Outcome(op.label, op.metric, wall, problems))
            if pass_traced:
                traced_total += wall
            elif index == 2:
                untraced_total += wall
        if op.label.startswith("exponent") and rc == 0:
            nondeterministic = max(nondeterministic, checks.nondeterministic_fields(out))
    known, probes = probe_known_defects(workload, seed, store)
    attempted += probes
    metrics = {**imports, **tracer.metrics()}
    metrics["trace.overhead_s"] = traced_total - untraced_total
    metrics["trace.untraced_s"] = untraced_total
    metrics["cli.exponent.nondeterministic_fields"] = float(nondeterministic)
    metrics["exponent.optimize_general.known_failures"] = float(known)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(str(RESULTS / f"trace-{workload}-{seed}.jsonl.gz"))
    failed = [o for o in attempted if o.problems]
    return metrics, attempted, failed


# ---------------------------------------------------------------- reporting


def print_metrics(workload: str, metrics: dict) -> None:
    for name, value in metrics.items():
        if isinstance(value, dict):
            extra = "".join(f" {k}={v:.6g}" for k, v in value.items() if k.startswith("p"))
            print(f"{workload:14s} {name:44s} {value['median']:.6g} {unit_of(name)}"
                  f" (median of {value['n']}){extra}")
        else:
            print(f"{workload:14s} {name:44s} {value:.6g} {unit_of(name)}")


def print_failures(failed: list[Outcome]) -> None:
    for o in failed:
        print(f"FAILED {o.label}: {'; '.join(p for p in o.problems if p)}")


def result_line(metrics: dict, names: dict, attempted, failed) -> str:
    values = {
        name: {"value": float(metrics[name]["median"] if isinstance(metrics[name], dict)
                              else metrics[name]), "unit": unit}
        for name, unit in names.items()
    }
    return json.dumps(
        {"correct": not failed, "attempted": len(attempted), "failed": len(failed),
         "metrics": values}
    )


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each run in its own process so
    that peak RSS is per run; writes ``bench/results/all-<seed>.json``."""
    report, failed = {}, 0
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=DEADLINE_S + 60,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("# prov")))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            failed += json.loads(lines[-1])["failed"]
            path = RESULTS / f"{name}-{seed}-trace{trace}.json"
            report.setdefault(name, {})[f"trace{trace}"] = json.loads(path.read_text())
    path = RESULTS / f"all-{seed}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"# {failed} failed operations; results in {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "pskexp" / "cli.py").is_file():
        print(f"error: no pskexp sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        info = provenance(args.seed)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("# provenance " + json.dumps(info, sort_keys=True), flush=True)
    print(f"# {args.workload}: {workloads.WHY[args.workload]}", flush=True)
    store = HashStore()
    if args.trace:
        metrics, attempted, failed = traced(args.workload, args.seed, store, started)
        names = PER_LAYER
    else:
        metrics, attempted, failed = measure(
            args.workload, args.seed, args.seconds, store, started
        )
        names = END_TO_END
    store.save()
    print_metrics(args.workload, metrics)
    print_failures(failed)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {"provenance": info, "seconds": args.seconds, "metrics": metrics,
             "attempted": len(attempted),
             "failures": [[o.label, o.problems] for o in failed]},
            indent=1, sort_keys=True,
        )
        + "\n"
    )
    print(result_line(metrics, names, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
