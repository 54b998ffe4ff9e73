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
from . import projection
from .errors import InvalidArgumentError, QuadratureError
from .grid import is_count, is_index
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


def _smooth_family(params: np.ndarray) -> projection._Family:
    """The functions ``a * sin(k * x + b) + c * x * x``, one per row ``(a, b, c, k)`` of ``params``.

    Each value is computed element by element in that order, under
    ``np.errstate``: where one overflows, the quadrature engine's refusal of
    a value that is not finite is the only report.
    """
    a, b, c, k = (column[:, None] for column in params.T)

    def values(rows, x):
        with np.errstate(over="ignore", invalid="ignore"):
            return a[rows] * np.sin(k[rows] * x + b[rows]) + c[rows] * x * x

    return projection._Family(values, len(params))


def _combination(al, f, be, g) -> projection._Family:
    """The functions ``al * f + be * g``, row by row, computed like :func:`_smooth_family`."""

    def values(rows, x):
        fx, gx = f.values(rows, x), g.values(rows, x)
        with np.errstate(over="ignore", invalid="ignore"):
            return al[rows] * fx + be[rows] * gx

    return projection._Family(values, f.members)


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
    shape = (space.n_cells, space.block_size)

    def draw():
        f = (*rng.uniform(-1.0, 1.0, size=3), float(rng.integers(1, 4)))
        g = (*rng.uniform(-1.0, 1.0, size=3), float(rng.integers(1, 4)))
        v = rng.standard_normal(shape)
        weights = rng.uniform(-2.0, 2.0, size=2)
        return f, g, v, weights, rng.standard_normal(shape)

    duality = linearity = best = 0.0
    for stack in _stacks(space, trials, draw):
        try:
            defects = list(_projection_defects(space, *stack))
        except (InvalidArgumentError, QuadratureError):
            if len(stack[0]) == 1:
                raise
            # again one trial at a time: the first failing trial raises its own error
            defects = []
            for trial in zip(*stack):
                defects.extend(_projection_defects(space, *(field[None] for field in trial)))
        for d, lin, b in defects:
            duality, linearity, best = max(duality, d), max(linearity, lin), max(best, b)
    return [
        CheckResult("projection", "defining-property", trials, duality, 1e-10),
        CheckResult("projection", "linearity", trials, linearity, 1e-10),
        CheckResult("projection", "best-approximation", trials, max(best, 0.0), 1e-10),
    ]


def _projection_defects(space, f, g, v, weights, noise):
    """Each trial's defining-property, linearity and best-approximation defects, as Python floats.

    ``f`` and ``g`` hold the trials' smooth functions, ``v`` the blocks of
    the members paired with ``Pf`` and ``noise`` the competitors' offsets
    from ``Pf`` before their scaling by 0.3.  Each of the six integrals runs
    once for the whole stack.
    """
    tol = projection.DEFAULT_TOL
    f, g = _smooth_family(f), _smooth_family(g)
    al, be = weights[:, 0, None], weights[:, 1, None]
    v = v * (1.0 / (1.0 + space._norms(v)))[:, None, None]
    pf = projection._load_vectors(space, f, tol)
    duality = np.abs(space._product_integral(pf, v) - projection._integrals_against(space, f, v, tol))
    combo = projection._load_vectors(space, _combination(al, f, be, g), tol)
    pg = projection._load_vectors(space, g, tol)
    with np.errstate(over="ignore", invalid="ignore"):
        linearity = np.max(np.abs(combo - (al[:, None] * pf + be[:, None] * pg)), axis=(-2, -1))
        competitor = pf + 0.3 * noise
    best = np.subtract(*(projection._l2_errors(space, f, u, tol) for u in (pf, competitor)))
    return zip(duality.tolist(), linearity.tolist(), best.tolist())


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
