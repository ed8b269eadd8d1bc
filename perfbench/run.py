"""qetsim benchmark runner.

    python3 perfbench/run.py --workload {sample,mitigate,exact} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` a fixed check corpus runs untimed, then the closed loop runs for
S seconds untraced, and the end-to-end metrics are printed. With ``--trace 1``
a fixed list of operations runs twice each, untraced and traced, and the
per-layer metrics and the tracing overhead are printed; the spans are written
to ``perfbench/out/``. Times are scaled to a fixed machine speed by reference
kernels timed between operations (reference.py). The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the line
before it records the environment, the wall-clock figures and how the metrics
were taken. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: the work is single-threaded by design, and on a shared
# machine idle BLAS threads only add noise. Set before numpy is imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import reference  # noqa: E402  (imports numpy)

SETUP_REPEATS = 12
# The import, then the median of five interpreter reference kernels in the
# same fresh process, which sets the machine speed the import ran at.
SETUP_PROBE = (
    "import statistics, time; t = time.perf_counter(); import qetsim.cli; "
    "t = time.perf_counter() - t; import reference; "
    "print(t, statistics.median(reference.timed('interpreter') for _ in range(5)))"
)
# The reference kernel (perfbench/reference.py) whose speed each workload's
# operations follow.
REFERENCE = {"sample": "arrays", "mitigate": "mixed", "exact": "interpreter"}
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10

# Blocks of ten operations per second of --seconds in a traced run: each
# operation runs twice (untraced and traced), so these are about half the
# untraced block rate on a 2-core x86 box at the commit that added them.
TRACE_BLOCKS_PER_S = {"sample": 0.22, "mitigate": 1.4, "exact": 0.7}

# The check corpus: whole blocks of the workload's operation mix, with every
# (h, k) taken in turn from the acceptance grid and every other input drawn
# from a fixed seed, the same in every run whatever --seed is. It runs
# untimed before the loop (which also warms imports and caches). error_rate
# is taken over it, so its denominator and its failures do not change with
# speed or with --seed: a program without failures always reports the same
# value, and any failure raises it. About 7 s per run on a 2-core x86 box at
# the commit that added it.
CHECK_SEED = 0
CHECK_BLOCKS = {"sample": 4, "mitigate": 20, "exact": 12}

NO_WAIT = "none: one client, one thread, nothing queues, so no layer waits"


def setup_times(repeats: int) -> list[tuple[float, float]]:
    """(import time, reference kernel time) pairs, each from importing
    qetsim.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))), **BLAS_ENV)
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, ref = proc.stdout.split()
        times.append((float(seconds), float(ref)))
    return times


def at_nominal_speed(times: list[float], refs: list[float], kernel: str,
                     size: int) -> list[float]:
    """Times scaled to the reference kernel's nominal speed. refs[i] was
    timed right before times[i]; each time is scaled by the median reference
    time of its block of `size`, so one slow kernel call does not set it."""
    nominal = reference.NOMINAL_S[kernel]
    scaled = []
    for start in range(0, len(times), size):
        factor = nominal / statistics.median(refs[start:start + size])
        scaled += [t * factor for t in times[start:start + size]]
    return scaled


def tail_percentile(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples above it): the highest listed percentile
    with at least ten samples above it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def failure_rate_bound(failed: int, attempted: int, confidence: float = 0.95) -> float:
    """One-sided Clopper-Pearson upper bound on the per-operation failure
    probability: the p at which seeing at most `failed` failures has
    probability 1 - confidence. Never zero, so it can be compared as a share."""
    alpha = 1.0 - confidence
    if failed >= attempted:
        return 1.0

    def cdf(p: float) -> float:
        return sum(
            math.exp(math.lgamma(attempted + 1) - math.lgamma(i + 1)
                     - math.lgamma(attempted - i + 1)
                     + i * math.log(p) + (attempted - i) * math.log1p(-p))
            for i in range(failed + 1)
        )

    lo, hi = failed / attempted, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if cdf(mid) > alpha else (lo, mid)
    return hi


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    sources = sorted((SRC / "qetsim").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),  # pinned above
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


class Loop:
    """Runs operations one after another and records whether each passed its
    checks. Only the call into qetsim is timed; checks run between
    operations."""

    def __init__(self, workloads) -> None:
        self.w = workloads
        self.passed: list[bool] = []  # one entry per operation, in run order
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.passed)

    @property
    def failed(self) -> int:
        return self.passed.count(False)

    def run(self, op, before=None, after=None):
        self.passed.append(True)
        if before:
            before()
        t0 = time.perf_counter()
        try:
            output = self.w.execute(op)
        except Exception as exc:  # a raising operation is a failed one
            output, error = None, f"{op.kind} raised {exc!r}"
        else:
            error = None
        elapsed = time.perf_counter() - t0
        if after:
            after()
        problems = [error] if error else self.w.check(op, output)
        self.record(problems)
        return output, elapsed

    def record(self, problems: list[str]) -> None:
        """Marks the latest operation failed if there are problems."""
        if problems:
            self.passed[-1] = False
            self.problems.extend(problems[:3])

    def repeat_matches(self, op, output) -> None:
        """Run an operation again with the same seed; its output must be
        byte-identical."""
        again, _ = self.run(op)
        if output is not None and again is not None and (
            self.w.render(op, again) != self.w.render(op, output)
        ):
            self.record([f"{op.kind} {op.spec} output differs on a repeat with the same seed"])


def run_corpus(loop: Loop, workload: str, blocks: int) -> list[bool]:
    """Runs `blocks` blocks of the check corpus, and its first operation a
    second time, untimed. Returns whether each of them passed."""
    start = loop.attempted
    ops = loop.w.operations(workload, CHECK_SEED, on_grid=True)
    first = next(ops)
    loop.repeat_matches(first, loop.run(first)[0])
    for _ in range(blocks * loop.w.BLOCK - 1):
        loop.run(next(ops))
    return loop.passed[start:]


def block_rates(values: list[float], latencies: list[float], size: int) -> list[float]:
    """Sum of values over operation time, per complete block of `size`
    operations (the whole run if it has no complete block)."""
    starts = range(0, len(latencies) - size + 1, size) if len(latencies) >= size else [0]
    return [
        sum(values[i:i + size]) / sum(latencies[i:i + size]) for i in starts
    ]


def sigma_audit(audit: list[tuple[float, float, float]], sigmas: float) -> tuple[int, float]:
    """(misses, ratio) over mitigated estimates: how many lie more than
    `sigmas` of qetsim's reported standard error from the closed form, and
    the median of reported over the benchmark's standard error (0 if there
    are none). ROADMAP item 3 keeps the ratio below 1 at this commit."""
    misses = int(sum(abs(dev) > sigmas * reported for reported, _, dev in audit))
    ratio = float(statistics.median(r / s for r, s, _ in audit)) if audit else 0.0
    return misses, ratio


def run_untraced(loop: Loop, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # Import probes in three groups, before the corpus, before the loop and
    # after it, never while either runs. The first import fills the bytecode
    # cache and is discarded.
    group = SETUP_REPEATS // 3
    probes = setup_times(group + 1)[1:]
    checked = run_corpus(loop, workload, CHECK_BLOCKS[workload])
    probes += setup_times(group)
    kernel = REFERENCE[workload]
    for _ in range(5):  # warm the reference kernel
        reference.timed(kernel)
    ops = loop.w.operations(workload, seed)
    raw: list[float] = []
    refs: list[float] = []
    items: list[int] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        refs.append(reference.timed(kernel))
        op = next(ops)
        _, elapsed = loop.run(op)
        raw.append(elapsed)
        items.append(op.items)
    probes += setup_times(group)
    # Every time is reported at the reference kernel's nominal speed, so the
    # machine's own changes of speed cancel (see perfbench/reference.py).
    # Throughput is the median over blocks of ten (each has the workload's
    # fixed make-up), so a burst in part of the run moves it less than a
    # whole-run mean would.
    size = loop.w.BLOCK
    latencies = at_nominal_speed(raw, refs, kernel, size)
    setup = [t * reference.NOMINAL_S["interpreter"] / ref for t, ref in probes]
    tail_q, tail_s, beyond = tail_percentile(latencies)
    metrics = {
        "ops_per_s": (statistics.median(block_rates([1.0] * len(items), latencies, size)), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "items_per_s": (statistics.median(block_rates(items, latencies, size)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_rate": (failure_rate_bound(checked.count(False), len(checked)), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }
    details = {
        "operations": len(latencies),
        "op_time_s": sum(latencies),
        "mean_ops_per_s": len(latencies) / sum(latencies),
        "tail_percentile": tail_q,
        "tail_samples_beyond": beyond,
        "reference_kernel": kernel,
        "reference_median_s": statistics.median(refs),
        "wall_op_p50_ms": statistics.median(raw) * 1e3,
        "wall_mean_ops_per_s": len(raw) / sum(raw),
        "wall_setup_s": statistics.median(t for t, _ in probes),
        "corpus_operations": len(checked),
        "corpus_failed": checked.count(False),
        "observed_error_rate": loop.failed / loop.attempted,
        "setup_times_s": setup,
        "mitigated_estimates": len(loop.w.AUDIT),
        "beyond_reported_sigma": sigma_audit(loop.w.AUDIT, loop.w.SIGMAS)[0],
    }
    return metrics, details


# Per-layer metrics: (span name, statistics).
LAYER_STATS = (
    ("simcore.run_shots", ("calls", "shots", "self_s", "calibration_shots")),
    ("simcore.exact_distribution", ("calls", "self_s")),
    ("simcore.evolve", ("calls", "self_s")),
    ("simcore.expectation", ("calls", "self_s")),
    ("protocol.build_circuit", ("calls", "self_s")),
    ("protocol.run_protocol", ("calls", "self_s")),
    ("protocol.estimate_energy", ("calls", "self_s")),
    ("noise.apply_noise", ("calls", "self_s")),
    ("noise.estimate_calibration_matrix", ("calls", "self_s")),
    ("noise.mitigate", ("calls", "self_s")),
    ("model.rho_qet", ("calls", "self_s")),
    ("model.build_hamiltonians", ("calls", "self_s")),
    ("analysis.sampled_calibration_matrix", ("self_s",)),
    ("analysis.mitigated_run", ("self_s",)),
    ("analysis.comparison_report", ("self_s",)),
    ("analysis.heatmap", ("self_s",)),
    ("analysis.phi_scan", ("self_s",)),
    ("analysis.evolution_scan", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("cli.build_parser", ("self_s",)),
    ("cli.render_json", ("self_s",)),
    ("cli.render_csv", ("self_s",)),
)
MODULES = ("simcore", "protocol", "noise", "model", "analysis", "cli")


def layer_metrics(stats: dict[str, dict[str, float]]) -> dict:
    empty = {"calls": 0, "self_s": 0.0, "shots": 0, "calibration_shots": 0}
    metrics = {}
    for span, names in LAYER_STATS:
        entry = stats.get(span, empty)
        for stat in names:
            metrics[f"{span}.{stat}"] = (entry[stat], "s" if stat == "self_s" else "count")
    sampler = stats.get("simcore.run_shots", empty)
    useful = sampler["shots"] - sampler["calibration_shots"]
    metrics["simcore.run_shots.useful_frac"] = (
        useful / sampler["shots"] if sampler["shots"] else 0.0, "ratio"
    )
    for module in MODULES:
        total = sum(e["self_s"] for name, e in stats.items() if name.startswith(module + "."))
        metrics[f"{module}.self_s"] = (total, "s")
    return metrics


def run_traced(loop: Loop, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from tracing import Tracer

    run_corpus(loop, workload, 1)  # warm-up
    loop.w.AUDIT.clear()
    tracer = Tracer()
    blocks = max(1, round(seconds * TRACE_BLOCKS_PER_S[workload]))
    ops = loop.w.operations(workload, seed)
    plain_s = traced_s = 0.0
    for i in range(blocks * loop.w.BLOCK):
        op = next(ops)
        tracer.op = i
        # alternate the order so neither side always runs on warmer caches
        order = (False, True) if i % 2 == 0 else (True, False)
        outputs = {}
        for traced in order:
            if traced:
                output, elapsed = loop.run(op, tracer.enable, tracer.disable)
                traced_s += elapsed
            else:
                output, elapsed = loop.run(op)
                plain_s += elapsed
            outputs[traced] = output
        if None not in outputs.values() and (
            loop.w.render(op, outputs[True]) != loop.w.render(op, outputs[False])
        ):
            loop.record([f"{op.kind} {op.spec} output changes under tracing"])
    metrics = layer_metrics(tracer.summary())
    misses, ratio = sigma_audit(loop.w.AUDIT, loop.w.SIGMAS)
    metrics["analysis.mitigated_run.reported_sigma_misses"] = (misses, "count")
    metrics["analysis.mitigated_run.reported_sigma_ratio"] = (ratio, "ratio")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["trace.spans"] = (len(tracer), "count")
    spans_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_jsonl(spans_file)
    details = {
        "operations": blocks * loop.w.BLOCK,
        "traced_s": traced_s,
        "untraced_s": plain_s,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "wait_s": NO_WAIT,
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sample", "mitigate", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "qetsim" / "__init__.py").is_file():
        print(f"error: qetsim sources not found under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads

    loop = Loop(workloads)
    if args.trace:
        metrics, details = run_traced(loop, args.workload, args.seed, args.seconds)
    else:
        metrics, details = run_untraced(loop, args.workload, args.seed, args.seconds)
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        env=environment(), problems=loop.problems[:20],
    )
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
