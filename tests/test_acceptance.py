"""Acceptance suite: one test per contract criterion, at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output on failure) before asserting.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ultracalc import (
    DistributionSpec,
    FunctionHandle,
    Grid,
    Space,
    Ultrafunction,
    basis_pair,
    delta,
    derivative_operator,
    embed,
    ftc_piecewise_defect,
    ibp_defect,
    ibp_piecewise_defect,
    integral_against_member,
    integrate,
    l2_error,
    naive_ibp_defect,
    pair,
    pair_exact_member,
    project,
    refine,
)
from ultracalc.verify import run_suites


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _random_member(space, rng):
    return Ultrafunction(space, rng.standard_normal((space.n_cells, space.block_size)))


def _random_point(space, rng):
    if rng.random() < 0.15:
        return float(rng.choice(space.grid.nodes))
    return float(rng.uniform(-space.grid.beta, space.grid.beta))


def bump(x):
    if abs(x) >= 0.9:
        return 0.0
    return math.exp(-1.0 / (1.0 - (x / 0.9) ** 2))


def test_delta_reproduction():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for p in (0, 1, 3):
        space = Space(Grid.uniform(1.0, 16), p)
        for _ in range(100):
            u = _random_member(space, rng)
            q = _random_point(space, rng)
            defect = abs(u.inner(delta(space, q)) - u(q)) / (1.0 + u.norm())
            worst = max(worst, defect)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(
        "delta reproduction (l=16, p in {0,1,3}, 100 trials each)",
        ok,
        f"max scaled defect {worst:.3e} (tol 1e-10), {elapsed:.2f}s (< 5s)",
    )
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_delta_symmetry_and_norm():
    rng = np.random.default_rng(102)
    space = Space(Grid.uniform(1.0, 16), 2)
    worst_symm = worst_norm = 0.0
    for _ in range(100):
        a, b = _random_point(space, rng), _random_point(space, rng)
        worst_symm = max(worst_symm, abs(delta(space, a)(b) - delta(space, b)(a)))
        q = _random_point(space, rng)
        dq = delta(space, q)
        worst_norm = max(worst_norm, abs(dq.norm() ** 2 - dq(q)))
    ok = worst_symm <= 1e-10 and worst_norm <= 1e-10
    _report(
        "delta symmetry and norm identity (100 pairs)",
        ok,
        f"symmetry {worst_symm:.3e}, norm {worst_norm:.3e} (tol 1e-10)",
    )
    assert worst_symm <= 1e-10
    assert worst_norm <= 1e-10


def test_sigma_duality_and_interpolation():
    rng = np.random.default_rng(103)
    space = Space(Grid.uniform(1.0, 16), 2)
    pair_ = basis_pair(space)
    duality = float(np.max(np.abs(pair_.duality_matrix() - np.eye(space.block_size))))
    roundtrip = 0.0
    for _ in range(50):
        u = _random_member(space, rng)
        v = pair_.interpolate(u.sample(pair_.points))
        roundtrip = max(roundtrip, float(np.max(np.abs(u.blocks - v.blocks))))
    ok = duality <= 1e-10 and roundtrip <= 1e-10
    _report(
        "dual-basis duality and interpolation round trip (50 members)",
        ok,
        f"duality {duality:.3e}, roundtrip {roundtrip:.3e} (tol 1e-10)",
    )
    assert duality <= 1e-10
    assert roundtrip <= 1e-10


def test_support_locality_and_far_orthogonality():
    rng = np.random.default_rng(104)
    space = Space(Grid.uniform(1.0, 16), 2)
    ok = True
    detail = "all interior deltas single-block; far pairs exactly orthogonal"
    for _ in range(100):
        q = float(rng.uniform(-1.0, 1.0))
        loc = space.grid.locate(q)
        if not loc.is_interior:
            continue
        d = delta(space, q)
        off = np.delete(d.blocks, loc.index, axis=0)
        if np.any(off != 0.0) or not np.any(d.blocks[loc.index] != 0.0):
            ok = False
            detail = f"delta at {q} leaks outside its cell"
            break
    if ok:
        for _ in range(200):
            a = float(rng.uniform(-1.0, 1.0))
            b = float(rng.uniform(-1.0, 1.0))
            la, lb = space.grid.locate(a), space.grid.locate(b)
            if not (la.is_interior and lb.is_interior):
                continue
            if abs(la.index - lb.index) > 1:
                if delta(space, a).inner(delta(space, b)) != 0.0:
                    ok = False
                    detail = f"deltas at {a}, {b} not exactly orthogonal"
                    break
    _report("delta support locality and far orthogonality", ok, detail)
    assert ok


def test_integration_by_parts():
    rng = np.random.default_rng(105)
    space = Space(Grid.uniform(1.0, 16), 2)
    worst = 0.0
    for _ in range(200):
        u, v = _random_member(space, rng), _random_member(space, rng)
        worst = max(worst, ibp_defect(u, v) / (1.0 + u.norm() * v.norm()))
    mid = space.n_cells // 2
    step = space.constant(1.0).restrict(float(space.grid.nodes[mid]), 1.0)
    control = naive_ibp_defect(step, step, mid, space.n_cells)
    ok = worst <= 1e-10 and abs(control - 0.25) <= 1e-10
    _report(
        "integration by parts (200 pairs) with naive-form counterexample",
        ok,
        f"max scaled defect {worst:.3e} (tol 1e-10), naive defect {control!r} (1/4 within 1e-10)",
    )
    assert worst <= 1e-10
    assert abs(control - 0.25) <= 1e-10


def test_fundamental_theorem_and_derivative_examples():
    rng = np.random.default_rng(106)
    space = Space(Grid.uniform(1.0, 16), 2)
    d = derivative_operator(space, "D")
    worst = 0.0
    nodes = space.grid.nodes
    for _ in range(100):
        u = _random_member(space, rng)
        n, m = sorted(rng.integers(0, nodes.size, size=2))
        a, b = float(nodes[n]), float(nodes[m])
        defect = abs(integrate(d.apply(u), a, b) - (u(b) - u(a))) / (1.0 + u.norm())
        worst = max(worst, defect)
    examples = 0.0
    one = space.constant(1.0)
    examples = max(examples, float(np.max(np.abs(d.apply(one).blocks))))
    dx = d.apply(space.from_polynomial([0.0, 1.0]))
    examples = max(examples, float(np.max(np.abs(dx.blocks - one.blocks))))
    a, b = float(nodes[3]), float(nodes[11])
    got = d.apply(space.indicator(a, b))
    want = delta(space, a) - delta(space, b)
    examples = max(examples, float(np.max(np.abs(got.blocks - want.blocks))))
    left = d.apply(space.indicator(-1.0, b))
    examples = max(examples, float(np.max(np.abs(left.blocks + delta(space, b).blocks))))
    right = d.apply(space.indicator(a, 1.0))
    examples = max(examples, float(np.max(np.abs(right.blocks - delta(space, a).blocks))))
    ok = worst <= 1e-10 and examples <= 1e-12
    _report(
        "fundamental theorem (100 node pairs) and closed-form derivatives",
        ok,
        f"max scaled defect {worst:.3e} (tol 1e-10), examples {examples:.3e} (tol 1e-12)",
    )
    assert worst <= 1e-10
    assert examples <= 1e-12


def test_piecewise_identities_with_cellwise_derivative():
    rng = np.random.default_rng(107)
    space = Space(Grid.uniform(1.0, 16), 2)
    worst_ibp = worst_ftc = 0.0
    for _ in range(100):
        u, v = _random_member(space, rng), _random_member(space, rng)
        n, m = sorted(rng.integers(0, space.n_cells + 1, size=2))
        worst_ibp = max(
            worst_ibp,
            ibp_piecewise_defect(u, v, int(n), int(m)) / (1.0 + u.norm() * v.norm()),
        )
        worst_ftc = max(
            worst_ftc, ftc_piecewise_defect(u, int(n), int(m)) / (1.0 + u.norm())
        )
    d2 = derivative_operator(space, "D2")
    annihilation = 0.0
    for _ in range(20):
        g = space.grid_function(rng.standard_normal(space.n_cells))
        annihilation = max(annihilation, float(np.max(np.abs(d2.apply(g).blocks))))
    ok = worst_ibp <= 1e-10 and worst_ftc <= 1e-10 and annihilation == 0.0
    _report(
        "piecewise IBP/FTC (100 discontinuous pairs) and grid-function kernel",
        ok,
        f"ibp {worst_ibp:.3e}, ftc {worst_ftc:.3e} (tol 1e-10), "
        f"annihilation {annihilation:.3e} (exact)",
    )
    assert worst_ibp <= 1e-10
    assert worst_ftc <= 1e-10
    assert annihilation == 0.0


def test_projection_duality_and_optimality():
    rng = np.random.default_rng(108)
    space = Space(Grid.uniform(1.0, 16), 2)
    worst_dual = worst_best = 0.0
    for _ in range(50):
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        k = float(rng.integers(1, 4))
        f = lambda x, a=a, b=b, c=c, k=k: a * math.sin(k * x + b) + c * x * x
        v = _random_member(space, rng)
        v = v * (1.0 / (1.0 + v.norm()))
        pf = project(space, f)
        worst_dual = max(
            worst_dual, abs(pf.inner(v) - integral_against_member(f, v))
        )
        base = l2_error(f, pf)
        competitor = pf + 0.25 * _random_member(space, rng)
        worst_best = max(worst_best, base - l2_error(f, competitor))
    ok = worst_dual <= 1e-10 and worst_best <= 1e-10
    _report(
        "projection defining property and best approximation (50 pairs)",
        ok,
        f"duality {worst_dual:.3e}, optimality margin {max(worst_best, 0.0):.3e} (tol 1e-10)",
    )
    assert worst_dual <= 1e-10
    assert worst_best <= 1e-10


def test_l2_convergence_order():
    start = time.perf_counter()
    details = []
    ok = True
    for p in (1, 2):
        errs = []
        for lev in range(4):
            space = Space(Grid.uniform(1.0, 4 * 2**lev), p)
            errs.append(l2_error(math.sin, project(space, math.sin)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        details.append(f"p={p}: orders {['%.3f' % o for o in orders]}")
        ok = ok and all(abs(o - (p + 1)) <= 0.2 for o in orders)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(
        "L2 projection convergence for sin (4 dyadic levels)",
        ok,
        "; ".join(details) + f"; {elapsed:.2f}s (< 10s)",
    )
    assert ok


def test_distribution_embedding():
    rng = np.random.default_rng(109)
    space = Space(Grid.uniform(1.0, 16), 2)
    worst_member = 0.0
    for k in (1, 2):
        spec = DistributionSpec(
            k, FunctionHandle(lambda x: math.sin(2 * x) + 0.3 * x * x)
        )
        for _ in range(10):
            blocks = rng.standard_normal((space.n_cells, space.block_size))
            blocks[:k] = 0.0
            blocks[space.n_cells - k :] = 0.0
            phi = Ultrafunction(space, blocks)
            worst_member = max(
                worst_member,
                pair_exact_member(space, spec, phi) / (1.0 + phi.norm()),
            )

    ref_space = Space(Grid.uniform(1.0, 64), 4)
    ref_right = integral_against_member(bump, ref_space.indicator(0.0, 1.0))
    targets = {
        "heaviside": (
            DistributionSpec(2, FunctionHandle(lambda x: max(x, 0.0) ** 2 / 2.0)),
            ref_right,
        ),
        "point-mass": (
            DistributionSpec(3, FunctionHandle(lambda x: x * abs(x) / 4.0)),
            bump(0.0),
        ),
    }
    orders_ok = True
    order_details = []
    for name, (spec, reference) in targets.items():
        sp = Space(Grid.with_tags(1.0, [0.1], 0.28), 2)
        errs = []
        for _ in range(4):
            t = embed(sp, spec)
            errs.append(abs(pair(sp, t, bump) - reference))
            sp = refine(sp, "dyadic-split")
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        order_details.append(f"{name} orders {['%.2f' % o for o in orders]}")
        orders_ok = orders_ok and all(o > 0.0 for o in orders)
    ok = worst_member <= 1e-10 and orders_ok
    _report(
        "distribution embedding: member transfer (k=1,2) and pairing convergence",
        ok,
        f"member defect {worst_member:.3e} (tol 1e-10); " + "; ".join(order_details),
    )
    assert worst_member <= 1e-10
    assert orders_ok


def test_verify_reports_are_deterministic(tmp_path):
    args = [
        sys.executable,
        "-m",
        "ultracalc",
        "verify",
        "--suite",
        "all",
        "--trials",
        "25",
        "--seed",
        "20260810",
    ]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    identical = first.stdout == second.stdout
    passed = first.returncode == 0
    ok = identical and passed
    _report(
        "verify determinism (fixed seed, repeated runs)",
        ok,
        f"byte-identical={identical}, all-pass={passed}",
    )
    assert identical
    assert passed


_DYADIC = 2.0 ** -np.arange(7)
HIGH_DEGREE_GRIDS = {
    "uniform": Grid.uniform(1.0, 12),
    "tagged": Grid.with_tags(1.0, [-0.61, -0.3, 0.05, 0.2, 0.77], 0.15),
    # cells halving toward 0: widths 1/2 .. 1/64 on both sides
    "graded": Grid(np.concatenate([-_DYADIC, [0.0], _DYADIC[::-1]])),
    "single-cell": Grid.uniform(1.0, 1),
}


def _every_verify_check_passes(name, degree):
    grid = HIGH_DEGREE_GRIDS[name]
    results = run_suites(Space(grid, degree), "all", 5, 20)
    failed = [f"{r.suite} {r.check} {r.max_defect!r} > {r.tolerance!r}" for r in results if not r.passed]
    _report("verify at high degree", not failed, f"{name} ell={grid.n_cells} p={degree}: {failed}")
    assert not failed


@pytest.mark.parametrize("name", HIGH_DEGREE_GRIDS)
@pytest.mark.parametrize("degree", range(15))
def test_every_verify_check_passes_up_to_degree_14(name, degree):
    _every_verify_check_passes(name, degree)


@pytest.mark.parametrize("name", HIGH_DEGREE_GRIDS)
@pytest.mark.parametrize("degree", range(15, 21))
def test_every_verify_check_passes_from_degree_15_to_20(name, degree):
    _every_verify_check_passes(name, degree)


@pytest.mark.parametrize("seed", [5, 19, 20])
def test_delta_suite_passes_on_65536_cells(seed):
    # a delta's squared norm reaches (p + 1)^2 / h, about 1.6e6 here, and
    # norm-squared must still hold to 1e-10
    results = run_suites(Space(Grid.uniform(1.0, 65536), 6), "delta", 20, seed)
    failed = [f"{r.check} {r.max_defect!r} > {r.tolerance!r}" for r in results if not r.passed]
    _report("delta suite on 65536 cells", not failed, f"p=6 seed={seed}: {failed}")
    assert not failed
