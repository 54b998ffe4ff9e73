"""``verify``'s stacked suites against their per-trial form, and their memory.

The ``sigma``, ``projection``, ``ibp``, ``ftc`` and ``d2`` suites draw each
trial's inputs in trial order and check every identity once per stack of
trials.  The oracle below is the per-trial form they replace: one trial at a
time through the public functions, with the same draws.  Reports, and the
error a suite ends in, must match byte for byte, whatever the stack size.
"""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultracalc import (
    FunctionHandle,
    Grid,
    InvalidArgumentError,
    Space,
    Ultrafunction,
    basis_pair,
    integral_against_member,
    l2_error,
    project,
    verify,
)
from ultracalc import calculus as calc
from ultracalc.verify import CheckResult, format_report, random_member, run_suites

from strategies import grids


def per_trial_sigma(space, trials, rng):
    pair = basis_pair(space)
    eye = np.eye(space.block_size)
    duality = float(np.max(np.abs(pair.duality_matrix() - eye)))
    cell_pts = pair.points[pair.cols]
    cardinal = 0.0
    for a in range(space.block_size):
        values = Ultrafunction(space, pair.dual[:, :, a]).sample(cell_pts).reshape(cell_pts.shape)
        cardinal = max(cardinal, float(np.max(np.abs(values - eye[a]))))
    roundtrip = 0.0
    for _ in range(trials):
        u = random_member(space, rng)
        v = pair.interpolate(u.sample(pair.points))
        roundtrip = max(roundtrip, float(np.max(np.abs(u.blocks - v.blocks))))
    return [
        CheckResult("sigma", "duality-identity", 1, duality, 1e-10),
        CheckResult("sigma", "cardinal-values", 1, cardinal, 1e-10),
        CheckResult("sigma", "interpolation-roundtrip", trials, roundtrip, 1e-10),
    ]


def smooth_handle(rng):
    a, b, c = rng.uniform(-1.0, 1.0, size=3)
    k = float(rng.integers(1, 4))

    def fn(x):  # one point or a whole array
        return a * np.sin(k * x + b) + c * x * x

    fn.array = fn
    return FunctionHandle(fn)


def per_trial_projection(space, trials, rng):
    duality = linearity = best = 0.0
    for _ in range(trials):
        f = smooth_handle(rng)
        g = smooth_handle(rng)
        v = random_member(space, rng)
        v = v * (1.0 / (1.0 + v.norm()))
        pf = project(space, f)
        duality = max(duality, abs(pf.inner(v) - integral_against_member(f, v)))
        al, be = rng.uniform(-2.0, 2.0, size=2)

        def combo_fn(x):
            return al * f(x) + be * g(x)

        combo_fn.array = lambda x: al * f.array(x) + be * g.array(x)
        combo = project(space, FunctionHandle(combo_fn))
        direct = al * pf + be * project(space, g)
        linearity = max(linearity, float(np.max(np.abs(combo.blocks - direct.blocks))))
        competitor = pf + random_member(space, rng, scale=0.3)
        best = max(best, l2_error(f, pf) - l2_error(f, competitor))
    return [
        CheckResult("projection", "defining-property", trials, duality, 1e-10),
        CheckResult("projection", "linearity", trials, linearity, 1e-10),
        CheckResult("projection", "best-approximation", trials, max(best, 0.0), 1e-10),
    ]


def per_trial_ibp(space, trials, rng):
    d = calc.derivative_operator(space, "D")
    full = piecewise = c1 = 0.0
    for _ in range(trials):
        u = random_member(space, rng)
        v = random_member(space, rng)
        scale = 1.0 + d(u).norm() * v.norm() + u.norm() * d(v).norm()
        full = max(full, calc.ibp_defect(u, v) / scale)
        n = int(rng.integers(0, space.n_cells))
        m = int(rng.integers(n, space.n_cells + 1))
        piecewise = max(piecewise, calc.ibp_piecewise_defect(u, v, n, m) / scale)
    pairs = max(1, trials // 4) if space.degree >= 1 else 0
    damp = max(1.0, space.grid.beta) ** -np.arange(space.degree + 1)
    for _ in range(pairs):
        cu = space.from_polynomial(damp * rng.uniform(-1, 1, size=space.degree + 1))
        cv = space.from_polynomial(damp * rng.uniform(-1, 1, size=space.degree + 1))
        n = int(rng.integers(0, space.n_cells))
        m = int(rng.integers(n, space.n_cells + 1))
        scale = 1.0 + cu.norm() * cv.norm()
        c1 = max(c1, calc.ibp_c1_defect(cu, cv, n, m) / scale)
    mid = space.n_cells // 2
    step = space.indicator(space.grid.nodes[mid], space.grid.beta)
    naive = abs(calc.naive_ibp_defect(step, step, mid, space.n_cells) - (0.25 if mid else 0.0))
    return [
        CheckResult("ibp", "full-support", trials, full, 1e-10),
        CheckResult("ibp", "piecewise-cellwise", trials, piecewise, 1e-10),
        CheckResult("ibp", "two-point-continuous", pairs, c1, 1e-10),
        CheckResult("ibp", "naive-counterexample", 1, naive, 1e-10),
    ]


def per_trial_ftc(space, trials, rng):
    d = calc.derivative_operator(space, "D")
    grid = space.grid
    ftc = piecewise = 0.0
    for _ in range(trials):
        u = random_member(space, rng)
        n = int(rng.integers(0, grid.n_cells + 1))
        m = int(rng.integers(n, grid.n_cells + 1))
        a, b = float(grid.nodes[n]), float(grid.nodes[m])
        lhs = calc.integrate(d.apply(u), a, b)
        ftc = max(ftc, abs(lhs - (u(b) - u(a))) / (1.0 + u.norm()))
        piecewise = max(piecewise, calc.ftc_piecewise_defect(u, n, m) / (1.0 + u.norm()))
    examples = verify._derivative_examples_defect(space, d)
    return [
        CheckResult("ftc", "fundamental-theorem", trials, ftc, 1e-10),
        CheckResult("ftc", "piecewise-cellwise", trials, piecewise, 1e-10),
        CheckResult("ftc", "derivative-examples", 1, examples, 1e-12),
    ]


def per_trial_d2(space, trials, rng):
    d2 = calc.derivative_operator(space, "D2")
    worst = 0.0
    for _ in range(trials):
        g = space.grid_function(rng.standard_normal(space.n_cells))
        worst = max(worst, float(np.max(np.abs(d2.apply(g).blocks))))
    return [CheckResult("d2", "grid-function-annihilation", trials, worst, 0.0)]


PER_TRIAL = {
    "sigma": per_trial_sigma,
    "projection": per_trial_projection,
    "ibp": per_trial_ibp,
    "ftc": per_trial_ftc,
    "d2": per_trial_d2,
}


def report_or_error(run) -> str:
    """The report, or the error a suite ends in: both are its output."""
    try:
        return format_report(run())
    except Exception as exc:  # noqa: BLE001
        return f"{type(exc).__name__}: {exc}"


def assert_stacks_report_the_per_trial_bytes(space, suite, trials, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the per-trial projection loop warns on overflow
        want = report_or_error(lambda: PER_TRIAL[suite](space, trials, np.random.default_rng(seed)))
    # the module's bound, then stacks of 1 and of 3 trials, which cross chunk boundaries
    for floats in (verify.STACK_FLOATS, space.dim, 3 * space.dim):
        with mock.patch.object(verify, "STACK_FLOATS", floats):
            got = report_or_error(lambda: run_suites(space, suite, trials, seed))
        assert got == want, (suite, floats)
    return want


@settings(deadline=None, max_examples=40)
@given(grid=grids(), narrow=grids(max_beta=10.0), degree=st.integers(0, 12),
       trials=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_stacked_suites_report_the_per_trial_bytes(grid, narrow, degree, trials, seed):
    # the projection suite's work has no bound on wide cells, so it gets beta <= 10
    for suite in PER_TRIAL:
        space = Space(narrow if suite == "projection" else grid, degree)
        assert_stacks_report_the_per_trial_bytes(space, suite, trials, seed)


@pytest.mark.parametrize(
    "beta, seed, message",
    [
        (1e200, 0, "function value -inf at x = -9.978638427802031e+199 in cell 0 is not finite"),
        (1e100, 0, "the integrand overflows on cell 0: its values or their integral are not finite"),
        # trial 0's values are finite but its integrand overflows, while trial
        # 1's c * x * x does; one stack of both meets trial 1's value first
        (1.5e154, 1, "the integrand overflows on cell 0: its values or their integral are not finite"),
    ],
)
def test_a_failing_stack_raises_the_first_failing_trial_s_error(beta, seed, message):
    space = Space(Grid.uniform(beta, 4), 2)
    want = assert_stacks_report_the_per_trial_bytes(space, "projection", 5, seed)
    assert want == f"InvalidArgumentError: {message}"
    # the engine's refusal is the only report: no RuntimeWarning from the overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError) as err:
            run_suites(space, "projection", 5, seed)
    assert str(err.value) == message


def test_the_stack_bound_keeps_the_largest_ci_space_to_one_trial_per_stack():
    assert Space(Grid.uniform(1.0, 16384), 6).dim > verify.STACK_FLOATS
    assert 100 * Space(Grid.uniform(1.0, 16), 2).dim <= verify.STACK_FLOATS


# tracemalloc peaks of run_suites(Space(Grid.uniform(1.0, 4096), 6), suite, 100, 0),
# two trials per stack, read 6.0 / 2.5 / 1.0 / 11.0 MiB for ibp / ftc / d2 / sigma
# (sigma's is mostly the basis pair, 9.1 MiB one trial at a time); with
# 2**18-float stacks they read 22.9 / 11.0 / 4.3 / 27.8 MiB.  The projection
# suite's, on Space(Grid.uniform(1.0, 1024), 2) with 20 trials in one stack,
# reads 5.5 MiB (6.2 in a fresh process; 1.2 one trial at a time): about ten
# (trials, ell, n) arrays and the quadrature engine's arrays per interval
PEAK_MIB = {"ibp": 8.0, "ftc": 4.0, "d2": 2.0, "sigma": 14.0, "projection": 8.0}


@pytest.mark.parametrize("suite", PEAK_MIB)
def test_a_suite_stays_within_its_memory_bound(suite):
    if suite == "projection":
        space, trials = Space(Grid.uniform(1.0, 1024), 2), 20
    else:
        space, trials = Space(Grid.uniform(1.0, 4096), 6), 100
    tracemalloc.start()
    try:
        run_suites(space, suite, trials, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_MIB[suite] * 2**20, f"{suite}: {peak / 2**20:.1f} MiB"
