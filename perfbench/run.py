"""Seeded, layered benchmark of ultracalc.

Run from the root of a source checkout (nothing needs to be installed)::

    python3 perfbench/run.py --workload project --seed 1 --seconds 30 --trace 0

One process serves one workload as a closed loop with a single caller.  It
sets the workload up, runs one untimed warm-up pass of the fixed op list that
also checks every output, then repeats whole timed passes until ``--seconds``
have elapsed.  Every later output must be bit-identical to the checked one.
Each check runs in a forked child process, so the reference arithmetic's
temporaries never count toward the measured process's peak RSS.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones, per pass, together with the tracing overhead.

Times are reported at a reference machine speed.  The run times a fixed
reference kernel (:func:`reference_kernel`) before and after every op; each
latency is multiplied by the speed around it, ``REFERENCE_S`` over the mean
of those two kernel times, and each set-up by the speed measured right after
it.  The unscaled figures are kept in the run
record.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a record of the run
(environment, op failures, input sizes) goes to ``.perfbench-out/`` and the
spans of a traced run are written there as JSON lines.

``correct`` is false when an op returned a wrong output or raised an
exception that it does not declare in ``Op.expect_error``.  A declared raise
(the even-grid singular projections' ``QuadratureError``) returned no output:
it counts as failed, not as incorrect.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: every BLAS pool is pinned to one thread so all runs use the same count
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60

WORKLOADS = ("project", "pointwise", "cli-session")

#: duration of the reference kernel that defines machine speed 1.0
REFERENCE_S = 1e-3
SPEED_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_ok_ratio", "1"),
    ("peak_rss_mb", "MiB"),
)

CLI_COMMANDS = ("space", "project", "derive", "integrate", "sample", "delta", "basis",
                "embed", "pair", "refine", "export-op", "verify")

# Per-layer metrics, per traced pass: (name, unit, kind, span name or counter).
# kind "self" sums the self time of a span name and its dotted children,
# "calls" counts spans, "count" reads a counter, "ratio" is (a - b) / c of
# three counters.
PER_LAYER = (
    [("projection.s", "s", "self", "projection"),
     ("projection.project.s", "s", "self", "projection.project"),
     ("projection.l2_error.s", "s", "self", "projection.l2_error"),
     ("projection.integral_against_member.s", "s", "self", "projection.integral_against_member"),
     ("projection.project_via_basis.s", "s", "self", "projection.project_via_basis"),
     ("projection.cells", "count", "count", "projection.cells"),
     ("projection.fn_evals", "count", "count", "projection.fn_evals"),
     ("projection.failed_fn_evals", "count", "count", "projection.failed_fn_evals"),
     ("projection.counted_cells", "count", "count", "projection.counted_cells"),
     ("projection.fn_evals_per_cell", "1", "ratio",
      ("projection.fn_evals", "projection.failed_fn_evals", "projection.counted_cells")),
     ("projection.failed", "count", "count", "projection.failed"),
     ("calculus.build.calls", "count", "calls", "calculus.build"),
     ("calculus.build.s", "s", "self", "calculus.build"),
     ("calculus.operator_bytes", "B", "count", "calculus.operator_bytes"),
     ("calculus.apply.calls", "count", "calls", "calculus.apply"),
     ("calculus.apply.s", "s", "self", "calculus.apply"),
     ("calculus.defect.s", "s", "self", "calculus.defect"),
     ("calculus.integrate.s", "s", "self", "calculus.integrate"),
     ("grid.locate.calls", "count", "calls", "grid.locate"),
     ("grid.locate.s", "s", "self", "grid.locate"),
     ("space.eval.points", "count", "count", "space.eval.points"),
     ("space.eval.s", "s", "self", "space.eval"),
     ("space.inner.calls", "count", "calls", "space.inner"),
     ("space.inner.s", "s", "self", "space.inner"),
     ("space.build.s", "s", "setup", "space.build"),
     ("basis.delta.calls", "count", "calls", "basis.delta"),
     ("basis.delta.s", "s", "self", "basis.delta"),
     ("basis.basis_pair.s", "s", "self", "basis.basis_pair"),
     ("basis.interpolate.s", "s", "self", "basis.interpolate"),
     ("distributions.embed.s", "s", "self", "distributions.embed"),
     ("distributions.pair.s", "s", "self", "distributions.pair"),
     ("refinement.observe.s", "s", "self", "refinement.observe"),
     ("refinement.stages", "count", "count", "refinement.stages")]
    + [(f"verify.{suite}.s", "s", "self", f"verify.{suite}")
       for suite in ("delta", "sigma", "projection", "ibp", "ftc", "d2")]
    + [("serialize.s", "s", "self", "serialize"),
       ("serialize.bytes", "B", "count", "serialize.bytes"),
       ("expr.parse.s", "s", "self", "expr.parse")]
    + [(f"cli.{command}.s", "s", "self", f"cli.{command}") for command in CLI_COMMANDS]
    + [("tracing.ops_per_s", "1/s", "tracing", "traced"),
       ("tracing.untraced_ops_per_s", "1/s", "tracing", "untraced"),
       ("tracing.overhead_ratio", "1", "tracing", "overhead")]
)


# ----------------------------------------------------------------------
# environment and set-up
# ----------------------------------------------------------------------


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(load_at_start) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "loadavg_start": list(load_at_start),
        "platform": platform.platform(),
    }


def reference_kernel() -> float:
    """Seconds taken by a fixed kernel, half interpreted Python, half numpy.

    ultracalc's time goes to interpreted loops and to allocating dense numpy
    temporaries, so the kernel does both.  On a shared host the CPU speed
    drifts by a quarter or more within seconds to minutes; every reported time
    is multiplied by the speed this kernel measures next to it.
    """
    import numpy as np

    vec = np.linspace(-1.0, 1.0, 256)
    start = time.perf_counter()
    total = 0.0
    for i in range(5000):
        total += math.sin(i * 1e-3)
    dense = np.outer(vec, vec)
    dense += np.outer(vec, vec)
    return time.perf_counter() - start


def machine_speed(samples) -> float:
    """Speed relative to the reference: 2.0 means the kernel ran in half the time."""
    return REFERENCE_S / statistics.median(samples)


def setup_once(workload: str, seed: int):
    """Import ultracalc and build the workload; returns (seconds, workload, workdir)."""
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    start = time.perf_counter()
    import ultracalc  # noqa: F401  (the import is part of what set-up costs)
    import workloads

    wl = workloads.build(workload, seed, workdir)
    return time.perf_counter() - start, wl, workdir


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of one fresh process and the speed measured right after it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["speed"]


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------


def forked_check(op, out) -> str | None:
    """``op.check(out)``, run in a forked child that reports back through a pipe.

    The child's allocations never count toward this process's peak RSS.  A
    crashing check, or a child that dies, is a failed check.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                reason = op.check(out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(reason, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        verdict = fh.read()
    _, status = os.waitpid(pid, 0)
    if not verdict:
        return f"check process ended with wait status {status}"
    return json.loads(verdict)


class Outcomes:
    """Reference outcome of every op (from the warm-up pass) and the tallies."""

    def __init__(self, ops, fingerprint):
        self.ops = ops
        self.fingerprint = fingerprint
        self.ref: list = [None] * len(ops)
        self.reasons: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def judge(self, i: int, out, err, first: bool) -> bool:
        """Record one outcome; return whether the op succeeded."""
        op = self.ops[i]
        declared = isinstance(err, op.expect_error)
        fp = f"raise:{type(err).__name__}" if err is not None else self.fingerprint(out)
        if first:
            if err is None:
                reason = forked_check(op, out)
            else:
                reason = f"raised {type(err).__name__}: {err}"
            if reason is not None:
                self.reasons[i] = reason
                if not declared:
                    self.wrong += 1
            self.ref[i] = (fp, reason)
            return reason is None
        self.attempted += 1
        ref_fp, ref_reason = self.ref[i]
        if fp == ref_fp and ref_reason is None:
            return True
        self.failed += 1
        if fp != ref_fp:
            if not declared:  # not the checked output, and not a declared raise
                self.wrong += 1
            self.reasons.setdefault(i, f"output differs from the warm-up pass ({fp})")
        return False


def run_pass(wl, ctx, outcomes: Outcomes, first: bool, pass_no: int):
    """Run every op once; return its raw latencies and the machine speed around each."""
    gc.collect()
    latencies = []
    kernel = []
    tracer = ctx.tracer
    for i, op in enumerate(wl.ops):
        kernel.append(reference_kernel())
        if tracer is not None:
            tracer.op_id = f"{pass_no}:{i}"
        start = time.perf_counter()
        try:
            out, err = op.run(ctx), None
        except Exception as exc:
            out, err = None, exc
        latencies.append(time.perf_counter() - start)
        outcomes.judge(i, out, err, first)
        del out
    kernel.append(reference_kernel())
    speeds = [machine_speed(kernel[i:i + 2]) for i in range(len(latencies))]
    return latencies, speeds


def _scaled(passes) -> list[list[float]]:
    """Latencies of each pass, each rescaled by the machine speed measured around it."""
    return [[lat * speed for lat, speed in zip(latencies, speeds)] for latencies, speeds in passes]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end_metrics(passes, setup_samples, outcomes) -> dict:
    """Metrics of the timed passes, given as one list of op latencies per pass.

    ``op_p50_ms`` and ``op_p90_ms`` are medians over passes of each pass's own
    percentile.  In a pass of a few heavy ops the 90th percentile falls in the
    gap between two of them; pooled over passes it would be the fastest sample
    of the heavier one, which moves far more from run to run than its median.
    """
    latencies = [lat for p in passes for lat in p]
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(statistics.median(p) for p in passes),
        "op_p90_ms": 1e3 * statistics.median(statistics.quantiles(p, n=10)[8] for p in passes),
        "ops_ok_ratio": (outcomes.attempted - outcomes.failed) / outcomes.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(tracer, traced_passes, untraced_passes, setup_speed) -> dict:
    """Per-layer values per traced pass; times rescaled to the reference speed."""
    n = len(traced_passes)
    speed = statistics.median(s for _, speeds in traced_passes for s in speeds)
    traced_lat = [lat for p in _scaled(traced_passes) for lat in p]
    untraced_lat = [lat for p in _scaled(untraced_passes) for lat in p]
    traced_rate = len(traced_lat) / sum(traced_lat)
    untraced_rate = len(untraced_lat) / sum(untraced_lat)
    tracing = {"traced": traced_rate, "untraced": untraced_rate,
               "overhead": 1.0 - traced_rate / untraced_rate}

    def count(key):
        return tracer.counts.get(("pass", key), 0) / n

    out = {}
    for name, unit, kind, key in PER_LAYER:
        if kind == "self":
            value = speed * tracer.layer_self_time(key) / n
        elif kind == "setup":
            value = setup_speed * tracer.layer_self_time(key, phase="setup")
        elif kind == "calls":
            value = tracer.calls.get(("pass", key), 0) / n
        elif kind == "count":
            value = count(key)
        elif kind == "ratio":
            total, minus, base = (count(k) for k in key)
            value = (total - minus) / base if base else 0.0
        else:
            value = tracing[key]
        out[name] = {"value": value, "unit": unit}
    return out


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark process body; returns the result record."""
    load_at_start = os.getloadavg()
    probes = [] if trace else [probe_setup(workload, seed) for _ in range(SETUP_REPEATS)]
    tracer = restore = None
    if trace:
        import spans as tracing

        tracer = tracing.Tracer()
        tracer.phase = "setup"
        restore = tracing.install(tracer)
    setup_s, wl, workdir = setup_once(workload, seed)
    setups = probes + [(setup_s, machine_speed([reference_kernel()
                                                for _ in range(SPEED_REPEATS)]))]
    import workloads

    try:
        if restore is not None:
            restore()
        outcomes = Outcomes(wl.ops, workloads.fingerprint)
        run_pass(wl, workloads.Ctx(), outcomes, True, 0)
        untraced: list = []
        traced: list = []
        start = time.perf_counter()
        pass_no = 1
        while True:
            untraced.append(run_pass(wl, workloads.Ctx(), outcomes, False, pass_no))
            pass_no += 1
            if trace:
                tracer.phase = "pass"
                restore = tracing.install(tracer)
                try:
                    traced.append(run_pass(wl, workloads.Ctx(tracer), outcomes, False, pass_no))
                finally:
                    restore()
                pass_no += 1
            if time.perf_counter() - start >= seconds:
                break
        if trace:
            metrics = per_layer_metrics(tracer, traced, untraced, setups[-1][1])
            raw_metrics = None
            tracer.write(str(OUT / f"{workload}-seed{seed}.spans.jsonl"))
        else:
            metrics = end_to_end_metrics(_scaled(untraced), [t * v for t, v in setups], outcomes)
            raw_metrics = end_to_end_metrics([p for p, _ in untraced],
                                             [t for t, _ in setups], outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    by_kind: dict[str, list[float]] = {}
    for latencies, _ in untraced:
        for op, latency in zip(wl.ops, latencies):
            by_kind.setdefault(op.kind, []).append(latency)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(load_at_start),
        "sizes": wl.sizes,
        "ops_per_pass": len(wl.ops),
        "op_kinds": {kind: {"ops_per_pass": len(lat) // len(untraced),
                            "raw_median_ms": 1e3 * statistics.median(lat)}
                     for kind, lat in by_kind.items()},
        "passes": pass_no - 1,
        "setup_samples": [{"seconds": t, "speed": v} for t, v in setups],
        "pass_speeds": [statistics.median(v) for _, v in untraced + traced],
        "failures": {f"{i} {wl.ops[i].kind} {wl.ops[i].label}": reason
                     for i, reason in sorted(outcomes.reasons.items())},
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
        "raw_metrics": raw_metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ultracalc" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ultracalc sources under {SRC}\n")
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        seconds, _, workdir = setup_once(args.workload, args.seed)
        speed = machine_speed([reference_kernel() for _ in range(SPEED_REPEATS)])
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds, "speed": speed}))
        return 0

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print("# env " + json.dumps(record["environment"]))
    print(f"# {record['workload']}: {record['ops_per_pass']} ops/pass x {record['passes']} "
          f"passes; {record['sizes']}")
    for label, reason in list(record["failures"].items())[:5]:
        print(f"# failed op {label}: {reason}")
    raw = record["raw_metrics"] or {}
    for metric, entry in record["metrics"].items():
        unscaled = f", unscaled {raw[metric]['value']!r}" if metric in raw else ""
        print(f"# {metric} = {entry['value']!r} {entry['unit']} "
              f"(n={record['attempted']}{unscaled})")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
