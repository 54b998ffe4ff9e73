"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = {
    "project": ("projection.fn_evals", "projection.cells"),
    "pointwise": ("space.eval.points", "grid.locate.calls"),
    "cli-session": ("refinement.stages", "projection.fn_evals", "calculus.operator_bytes"),
}


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs per workload with the same seed (one timed pass each)."""
    return {w: [run.measure(w, 7, 0.0, True) for _ in range(2)] for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_across_runs(traced_runs, workload):
    first, second = traced_runs[workload]
    for name in EXACT_COUNTS[workload]:
        value = first["metrics"][name]["value"]
        assert value > 0 and value == int(value), name
        assert value == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_identical_with_tracing_on_and_off(traced_runs, workload):
    # every traced and untraced pass is compared, op by op, with the warm-up
    # pass; a differing output would be recorded as a failure reason
    for record in traced_runs[workload]:
        assert record["correct"]
        assert record["passes"] == 2
        reasons = record["failures"].values()
        assert not [r for r in reasons if "differs from the warm-up" in r]


def test_only_singular_projection_ops_fail(traced_runs):
    for workload, records in traced_runs.items():
        for record in records:
            for label in record["failures"]:
                assert workload == "project" and "project_singular" in label, label


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_a_pure_function_of_the_seed(tmp_path, workload):
    def describe(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        return [(op.kind, op.label.replace(str(d), "<dir>"))
                for op in workloads.build(workload, seed, str(d)).ops]

    first = describe(3, "a")
    assert first == describe(3, "b")
    other = describe(4, "c")
    assert [k for k, _ in other] == [k for k, _ in first]  # same ops, other inputs
    assert other != first


def test_failed_check_counts_as_failed_op():
    op = workloads.Op("fake", "", lambda c: 1.0, lambda out: None if out == 1.0 else "wrong")
    outcomes = run.Outcomes([op], workloads.fingerprint)
    assert outcomes.judge(0, 1.0, None, True)
    assert outcomes.judge(0, 1.0, None, False)
    assert not outcomes.judge(0, 2.0, None, False)
    assert (outcomes.attempted, outcomes.failed, outcomes.wrong) == (2, 1, 1)


def test_only_declared_raises_leave_the_run_correct():
    declared = workloads.Op("singular", "", None, lambda out: None,
                            expect_error=(workloads.uc.QuadratureError,))
    smooth = workloads.Op("smooth", "", None, lambda out: None)
    outcomes = run.Outcomes([declared, smooth], workloads.fingerprint)
    failure = workloads.uc.QuadratureError("no convergence", 3)
    assert not outcomes.judge(0, None, failure, True)
    assert outcomes.judge(1, 1.0, None, True)
    assert not outcomes.judge(0, None, failure, False)
    assert (outcomes.failed, outcomes.wrong) == (1, 0)
    # an ultracalc error the op does not declare makes the run incorrect
    assert not outcomes.judge(1, None, failure, False)
    assert (outcomes.failed, outcomes.wrong) == (2, 1)
    late = run.Outcomes([smooth], workloads.fingerprint)
    assert not late.judge(0, None, ValueError("no"), True)
    assert late.wrong == 1


def test_check_verdict_comes_back_from_the_forked_child():
    op = workloads.Op("fake", "", None, lambda out: None if out == 1.0 else f"got {out}")
    assert run.forked_check(op, 1.0) is None
    assert run.forked_check(op, 2.0) == "got 2.0"
    crash = workloads.Op("fake", "", None, lambda out: 1 / 0)
    assert "ZeroDivisionError" in run.forked_check(crash, 1.0)


def test_evals_per_cell_leaves_out_failed_calls(traced_runs):
    # the figure for one smooth projection at p=2, the middle degree of the workload
    tracer = spans.Tracer()
    tracer.active = True
    space = workloads.uc.Space(workloads.uc.Grid.uniform(1.0, 16), 2)
    f = workloads.Smooth(0.5, 0.3, -0.2, 2.0)
    workloads.uc.project(space, tracer.counted(f.scalar()))
    smooth = tracer.evals / space.n_cells
    metrics = traced_runs["project"][0]["metrics"]
    assert metrics["projection.failed_fn_evals"]["value"] > 0
    ratio = metrics["projection.fn_evals_per_cell"]["value"]
    assert 0.5 * smooth < ratio < 2.0 * smooth, (ratio, smooth)


def test_self_time_is_duration_minus_children():
    tracer = spans.Tracer()
    tracer.begin("outer")
    for _ in range(2):
        tracer.begin("inner")
        tracer.end()
    tracer.end()
    covered: dict = {}
    for index, name, start, stop, parent, op in tracer.spans:
        covered[parent] = covered.get(parent, 0.0) + (stop - start)
    derived: dict = {}
    for index, name, start, stop, parent, op in tracer.spans:
        derived[name] = derived.get(name, 0.0) + (stop - start) - covered.get(index, 0.0)
    for name, value in derived.items():
        assert tracer.self_time[("pass", name)] == pytest.approx(value, abs=1e-12)
    assert tracer.calls[("pass", "inner")] == 2


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in run.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "project",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
