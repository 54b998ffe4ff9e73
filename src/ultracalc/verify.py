"""Randomized identity suites behind ``ultracalc verify``.

Every suite draws seeded random members and reports the worst defect of an
algebraic identity together with its tolerance.  All randomness flows from a
single generator, so a fixed seed reproduces the report byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis as bss
from . import calculus as calc
from .errors import InvalidArgumentError
from .grid import is_count, is_index
from .projection import FunctionHandle, integral_against_member, l2_error, project
from .space import Space, Ultrafunction


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check: str
    trials: int
    max_defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_defect <= self.tolerance


def random_member(space: Space, rng: np.random.Generator, scale: float = 1.0) -> Ultrafunction:
    return Ultrafunction(space, scale * rng.standard_normal((space.n_cells, space.block_size)))


def random_grid_function(space: Space, rng: np.random.Generator) -> Ultrafunction:
    return space.grid_function(rng.standard_normal(space.n_cells))


def random_point(space: Space, rng: np.random.Generator) -> float:
    """Random point of the closed support, occasionally an exact node."""
    if rng.random() < 0.2:
        return float(rng.choice(space.grid.nodes))
    beta = space.grid.beta
    return float(rng.uniform(-beta, beta))


def _smooth_handle(rng: np.random.Generator) -> FunctionHandle:
    a, b, c = rng.uniform(-1.0, 1.0, size=3)
    k = float(rng.integers(1, 4))

    def fn(x):  # one point or a whole array
        return a * np.sin(k * x + b) + c * x * x

    return FunctionHandle(fn, array=fn)


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------


def _suite_delta(space, trials, rng):
    repro = symm = norm = supp = ortho = 0.0
    for _ in range(trials):
        u = random_member(space, rng)
        q = random_point(space, rng)
        dq = bss.delta(space, q)
        repro = max(repro, abs(u.inner(dq) - u(q)) / (1.0 + u.norm()))
        a, b = random_point(space, rng), random_point(space, rng)
        da, db = bss.delta(space, a), bss.delta(space, b)
        symm = max(symm, abs(da(b) - db(a)))
        norm = max(norm, abs(dq.inner(dq) - dq(q)))
        loc = space.grid.locate(q)
        if loc.is_interior:
            off = np.delete(dq.blocks, loc.index, axis=0)
            supp = max(supp, float(np.max(np.abs(off))) if off.size else 0.0)
        la, lb = space.grid.locate(a), space.grid.locate(b)
        if la.is_interior and lb.is_interior and abs(la.index - lb.index) > 1:
            ortho = max(ortho, abs(da.inner(db)))
    return [
        CheckResult("delta", "reproduction", trials, repro, 1e-10),
        CheckResult("delta", "symmetry", trials, symm, 1e-10),
        CheckResult("delta", "norm-squared", trials, norm, 1e-10),
        CheckResult("delta", "support-locality", trials, supp, 0.0),
        CheckResult("delta", "far-orthogonality", trials, ortho, 0.0),
    ]


def _suite_sigma(space, trials, rng):
    pair = bss.basis_pair(space)
    eye = np.eye(space.block_size)
    duality = float(np.max(np.abs(pair.duality_matrix() - eye)))
    # member a holds the a-th cardinal block of every cell: at the points
    # of cell j it takes the values of the cardinal member at cols[j, a]
    cell_pts = pair.points[pair.cols]
    cardinal = 0.0
    for a in range(space.block_size):
        values = Ultrafunction(space, pair.dual[:, :, a]).sample(cell_pts).reshape(cell_pts.shape)
        cardinal = max(cardinal, float(np.max(np.abs(values - eye[a]))))
    roundtrip = 0.0
    for _ in range(trials):
        u = random_member(space, rng)
        values = u.sample(pair.points)
        v = pair.interpolate(values)
        roundtrip = max(roundtrip, float(np.max(np.abs(u.blocks - v.blocks))))
    return [
        CheckResult("sigma", "duality-identity", 1, duality, 1e-10),
        CheckResult("sigma", "cardinal-values", 1, cardinal, 1e-10),
        CheckResult("sigma", "interpolation-roundtrip", trials, roundtrip, 1e-10),
    ]


def _suite_projection(space, trials, rng):
    duality = linearity = best = 0.0
    for _ in range(trials):
        f = _smooth_handle(rng)
        g = _smooth_handle(rng)
        v = random_member(space, rng)
        v = v * (1.0 / (1.0 + v.norm()))
        pf = project(space, f)
        duality = max(duality, abs(pf.inner(v) - integral_against_member(f, v)))
        al, be = rng.uniform(-2.0, 2.0, size=2)
        combo = project(space, FunctionHandle(
            lambda x: al * f(x) + be * g(x), array=lambda x: al * f.array(x) + be * g.array(x)
        ))
        direct = al * pf + be * project(space, g)
        linearity = max(linearity, float(np.max(np.abs(combo.blocks - direct.blocks))))
        competitor = pf + random_member(space, rng, scale=0.3)
        best = max(best, l2_error(f, pf) - l2_error(f, competitor))
    return [
        CheckResult("projection", "defining-property", trials, duality, 1e-10),
        CheckResult("projection", "linearity", trials, linearity, 1e-10),
        CheckResult("projection", "best-approximation", trials, max(best, 0.0), 1e-10),
    ]


def _suite_ibp(space, trials, rng):
    d = calc.derivative_operator(space, "D")
    full = piecewise = c1 = 0.0
    for _ in range(trials):
        u = random_member(space, rng)
        v = random_member(space, rng)
        scale = 1.0 + d(u).norm() * v.norm() + u.norm() * d(v).norm()  # Cauchy-Schwarz: |Du| ~ 1/h
        full = max(full, calc.ibp_defect(u, v) / scale)
        n = int(rng.integers(0, space.n_cells))
        m = int(rng.integers(n, space.n_cells + 1))
        piecewise = max(piecewise, calc.ibp_piecewise_defect(u, v, n, m) / scale)
    if space.degree >= 1:
        # each term below 1 on the support, so rounding jumps stay under CONTINUITY_TOL
        damp = max(1.0, space.grid.beta) ** -np.arange(space.degree + 1)
        for _ in range(max(1, trials // 4)):
            cu = space.from_polynomial(damp * rng.uniform(-1, 1, size=space.degree + 1))
            cv = space.from_polynomial(damp * rng.uniform(-1, 1, size=space.degree + 1))
            n = int(rng.integers(0, space.n_cells))
            m = int(rng.integers(n, space.n_cells + 1))
            scale = 1.0 + cu.norm() * cv.norm()
            c1 = max(c1, calc.ibp_c1_defect(cu, cv, n, m) / scale)
    # deterministic counterexample: the step jumps by 1 at the lower limit only, so the
    # naive two-point formula misses by exactly 1/4 (by 0 on one cell: no interior node)
    mid = space.n_cells // 2
    step = space.constant(1.0).restrict(space.grid.nodes[mid], space.grid.beta)
    naive = abs(calc.naive_ibp_defect(step, step, mid, space.n_cells) - (0.25 if mid else 0.0))
    return [
        CheckResult("ibp", "full-support", trials, full, 1e-10),
        CheckResult("ibp", "piecewise-cellwise", trials, piecewise, 1e-10),
        CheckResult("ibp", "two-point-continuous", trials, c1, 1e-10),
        CheckResult("ibp", "naive-counterexample", 1, naive, 1e-10),
    ]


def _suite_ftc(space, trials, rng):
    d = calc.derivative_operator(space, "D")
    grid = space.grid
    ftc = piecewise = 0.0
    for _ in range(trials):
        u = random_member(space, rng)
        n = int(rng.integers(0, grid.n_cells + 1))
        m = int(rng.integers(n, grid.n_cells + 1))
        a, b = float(grid.nodes[n]), float(grid.nodes[m])
        lhs = calc.integrate(d.apply(u), a, b)
        defect = abs(lhs - (u(b) - u(a))) / (1.0 + u.norm())
        ftc = max(ftc, defect)
        piecewise = max(
            piecewise, calc.ftc_piecewise_defect(u, n, m) / (1.0 + u.norm())
        )
    examples = _derivative_examples_defect(space)
    return [
        CheckResult("ftc", "fundamental-theorem", trials, ftc, 1e-10),
        CheckResult("ftc", "piecewise-cellwise", trials, piecewise, 1e-10),
        CheckResult("ftc", "derivative-examples", 1, examples, 1e-12),
    ]


def _derivative_examples_defect(space: Space) -> float:
    """Coefficientwise defects of the closed-form derivative examples."""
    d = calc.derivative_operator(space, "D")
    grid = space.grid
    worst = float(np.max(np.abs(d.apply(space.constant(1.0)).blocks)))
    if space.degree >= 1:
        dx = d.apply(space.from_polynomial([0.0, 1.0]))
        worst = max(
            worst, float(np.max(np.abs(dx.blocks - space.constant(1.0).blocks)))
        )
    if grid.n_cells >= 3:
        a = float(grid.nodes[1])
        b = float(grid.nodes[grid.n_cells - 1])
        expected = bss.delta(space, a) - bss.delta(space, b)
        got = d.apply(space.indicator(a, b))
        worst = max(worst, float(np.max(np.abs(got.blocks - expected.blocks))))
        left = d.apply(space.indicator(-grid.beta, b))
        worst = max(
            worst, float(np.max(np.abs(left.blocks + bss.delta(space, b).blocks)))
        )
        right = d.apply(space.indicator(a, grid.beta))
        worst = max(
            worst, float(np.max(np.abs(right.blocks - bss.delta(space, a).blocks)))
        )
    return worst


def _suite_d2(space, trials, rng):
    d2 = calc.derivative_operator(space, "D2")
    worst = 0.0
    for _ in range(trials):
        g = random_grid_function(space, rng)
        worst = max(worst, float(np.max(np.abs(d2.apply(g).blocks))))
    return [CheckResult("d2", "grid-function-annihilation", trials, worst, 0.0)]


_SUITES = {
    "delta": _suite_delta,
    "sigma": _suite_sigma,
    "projection": _suite_projection,
    "ibp": _suite_ibp,
    "ftc": _suite_ftc,
    "d2": _suite_d2,
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(space: Space, suite: str, trials: int, seed: int) -> list[CheckResult]:
    """Run the requested suite(s); ``suite`` may be a name or ``"all"``."""
    if not is_count(trials, 1):
        raise InvalidArgumentError(f"trials must be a positive integer, got {trials!r}")
    if not (is_index(seed) and seed >= 0):
        raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed!r}")
    if suite == "all":
        names = SUITE_NAMES
    elif suite in _SUITES:
        names = (suite,)
    else:
        raise InvalidArgumentError(f"unknown suite {suite!r}")
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    for name in names:
        results.extend(_SUITES[name](space, int(trials), rng))
    return results


def format_report(results: list[CheckResult]) -> str:
    """Deterministic CSV report, one line per check."""
    lines = ["suite,check,trials,max_defect,tolerance,status"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.suite},{r.check},{r.trials},{r.max_defect!r},{r.tolerance!r},{status}")
    return "\n".join(lines) + "\n"
