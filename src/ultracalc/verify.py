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


#: most floats in one ``(trials, ell, n)`` array of a stack of trials; a space
#: with more coefficients than this checks one trial per stack
STACK_FLOATS = 2**16


def _stacks(space: Space, trials: int, draw):
    """The inputs of ``trials`` trials, one ``draw()`` per trial in trial order, in stacks.

    Yields one array per field of ``draw()``'s tuple, with a leading axis of
    as many trials as keep a ``(trials, ell, n)`` array within ``STACK_FLOATS``.
    """
    per = max(1, STACK_FLOATS // space.dim)
    for start in range(0, trials, per):
        yield [np.array(field) for field in zip(*(draw() for _ in range(min(per, trials - start))))]


def _worst(worst: float, defects) -> float:
    """The largest of ``worst`` and ``defects``; a NaN defect is passed over, as ``max`` does."""
    return float(np.fmax.reduce(defects, axis=None, initial=worst))


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
    shape = (space.n_cells, space.block_size)
    for (u,) in _stacks(space, trials, lambda: (rng.standard_normal(shape),)):
        v = pair._interpolate(space._sample(u, pair.points))
        roundtrip = _worst(roundtrip, np.max(np.abs(u - v), axis=(-2, -1)))
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
    d, d2 = (calc.derivative_operator(space, kind) for kind in ("D", "D2"))
    ell, shape = space.n_cells, (space.n_cells, space.block_size)

    def draw():
        u, v = rng.standard_normal(shape), rng.standard_normal(shape)
        n = int(rng.integers(0, ell))
        return u, v, n, int(rng.integers(n, ell + 1))

    norm = space._norms
    full = piecewise = c1 = 0.0
    for u, v, n, m in _stacks(space, trials, draw):
        du, dv = d._apply_blocks(u), d._apply_blocks(v)
        scale = 1.0 + norm(du) * norm(v) + norm(u) * norm(dv)  # Cauchy-Schwarz: |Du| ~ 1/h
        full = _worst(full, calc._naive_ibp(space, u, v, du, dv, 0, ell) / scale)
        d2u, d2v = d2._apply_blocks(u), d2._apply_blocks(v)
        piecewise = _worst(piecewise, calc._ibp_piecewise(space, u, v, d2u, d2v, n, m) / scale)
    pairs = max(1, trials // 4) if space.degree >= 1 else 0
    # each term below 1 on the support, so rounding jumps stay under CONTINUITY_TOL
    damp = max(1.0, space.grid.beta) ** -np.arange(space.degree + 1)

    def draw_pair():
        cu = damp * rng.uniform(-1, 1, size=space.degree + 1)
        cv = damp * rng.uniform(-1, 1, size=space.degree + 1)
        n = int(rng.integers(0, ell))
        return cu, cv, n, int(rng.integers(n, ell + 1))

    for cu, cv, n, m in _stacks(space, pairs, draw_pair):
        u, v = space._polynomial_blocks(cu), space._polynomial_blocks(cv)
        scale = 1.0 + norm(u) * norm(v)
        c1 = _worst(c1, calc._ibp_c1(space, u, v, d._apply_blocks(u), d._apply_blocks(v), n, m) / scale)
    # deterministic counterexample: the step jumps by 1 at the lower limit only, so the
    # two-point formula misses by exactly 1/4 (by 0 on one cell: no interior node)
    mid = space.n_cells // 2
    step = space.indicator(space.grid.nodes[mid], space.grid.beta)
    naive = abs(calc.naive_ibp_defect(step, step, mid, space.n_cells) - (0.25 if mid else 0.0))
    return [
        CheckResult("ibp", "full-support", trials, full, 1e-10),
        CheckResult("ibp", "piecewise-cellwise", trials, piecewise, 1e-10),
        CheckResult("ibp", "two-point-continuous", pairs, c1, 1e-10),
        CheckResult("ibp", "naive-counterexample", 1, naive, 1e-10),
    ]


def _suite_ftc(space, trials, rng):
    d, d2 = (calc.derivative_operator(space, kind) for kind in ("D", "D2"))
    ell, shape = space.n_cells, (space.n_cells, space.block_size)

    def draw():
        u = rng.standard_normal(shape)
        n = int(rng.integers(0, ell + 1))
        return u, n, int(rng.integers(n, ell + 1))

    ftc = piecewise = 0.0
    for u, n, m in _stacks(space, trials, draw):
        scale = 1.0 + space._norms(u)
        ftc = _worst(ftc, calc._ftc(space, u, d._apply_blocks(u), n, m) / scale)
        piecewise = _worst(piecewise, calc._ftc_piecewise(space, u, d2._apply_blocks(u), n, m) / scale)
    examples = _derivative_examples_defect(space, d)
    return [
        CheckResult("ftc", "fundamental-theorem", trials, ftc, 1e-10),
        CheckResult("ftc", "piecewise-cellwise", trials, piecewise, 1e-10),
        CheckResult("ftc", "derivative-examples", 1, examples, 1e-12),
    ]


def _derivative_examples_defect(space: Space, d: calc.DerivOperator) -> float:
    """Coefficientwise defects of D 1 = 0, D x = 1 and D chi[a, b] = delta_a - delta_b."""
    grid = space.grid
    worst = float(np.max(np.abs(d.apply(space.constant(1.0)).blocks)))
    if space.degree >= 1:
        dx = d.apply(space.from_polynomial([0.0, 1.0]))
        worst = max(
            worst, float(np.max(np.abs(dx.blocks - space.constant(1.0).blocks)))
        )
    ell = grid.n_cells
    if ell >= 3:
        for n, m in ((1, ell - 1), (0, ell - 1), (1, ell)):  # a delta only at an interior node
            a, b = float(grid.nodes[n]), float(grid.nodes[m])
            expected = np.zeros((ell, space.block_size))
            if n > 0:
                expected += bss.delta(space, a).blocks
            if m < ell:
                expected -= bss.delta(space, b).blocks
            got = d.apply(space.indicator(a, b))
            worst = max(worst, float(np.max(np.abs(got.blocks - expected))))
    return worst


def _suite_d2(space, trials, rng):
    d2 = calc.derivative_operator(space, "D2")
    worst = 0.0
    for (g,) in _stacks(space, trials, lambda: (rng.standard_normal(space.n_cells),)):
        worst = _worst(worst, np.max(np.abs(d2._apply_blocks(space._grid_blocks(g))), axis=(-2, -1)))
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
