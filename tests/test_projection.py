import contextlib
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultracalc import (
    FunctionHandle,
    Grid,
    InvalidArgumentError,
    QuadratureError,
    Space,
    Ultrafunction,
    basis_pair,
    integral_against_member,
    l2_error,
    parse_expression,
    project,
    project_via_basis,
)
from ultracalc import projection
from ultracalc.projection import _accepted, _family, _gauss_kronrod, _intervals

from strategies import grids


@pytest.fixture
def space():
    return Space(Grid.uniform(1.0, 8), 2)


def random_member(space, rng):
    return Ultrafunction(space, rng.standard_normal((space.n_cells, space.block_size)))


def smooth_fn(rng):
    a, b, c = rng.uniform(-1.0, 1.0, size=3)
    k = float(rng.integers(1, 4))
    return lambda x: a * math.sin(k * x + b) + c * x * x


def test_member_projects_to_itself(space):
    rng = np.random.default_rng(0)
    u = random_member(space, rng)
    pu = project(space, lambda x: u(x))
    assert np.max(np.abs(pu.blocks - u.blocks)) <= 1e-12


def test_projection_of_one_is_the_constant_member(space):
    p1 = project(space, lambda x: 1.0)
    assert np.max(np.abs(p1.blocks - space.constant(1.0).blocks)) <= 1e-12


def test_defining_property(space):
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = smooth_fn(rng)
        v = random_member(space, rng)
        v = v * (1.0 / (1.0 + v.norm()))
        assert abs(project(space, f).inner(v) - integral_against_member(f, v)) <= 1e-10


def test_linearity(space):
    rng = np.random.default_rng(2)
    f, g = smooth_fn(rng), smooth_fn(rng)
    al, be = 1.7, -0.4
    combo = project(space, lambda x: al * f(x) + be * g(x))
    direct = al * project(space, f) + be * project(space, g)
    assert np.max(np.abs(combo.blocks - direct.blocks)) <= 1e-10


def test_best_approximation(space):
    rng = np.random.default_rng(3)
    f = smooth_fn(rng)
    pf = project(space, f)
    base = l2_error(f, pf)
    for _ in range(20):
        competitor = pf + random_member(space, rng) * 0.2
        assert base <= l2_error(f, competitor) + 1e-10


def test_via_basis_agrees_both_ways(space):
    rng = np.random.default_rng(4)
    pair = basis_pair(space)
    for _ in range(20):
        f = smooth_fn(rng)
        direct = project(space, f)
        via_delta = project_via_basis(pair, f)
        via_sigma = project_via_basis(pair, f, weights="sigma")
        assert np.max(np.abs(via_delta.blocks - direct.blocks)) <= 1e-10
        assert np.max(np.abs(via_sigma.blocks - direct.blocks)) <= 1e-10


def test_via_basis_exact_for_members(space):
    rng = np.random.default_rng(5)
    pair = basis_pair(space)
    u = random_member(space, rng)
    got = project_via_basis(pair, lambda x: u(x))
    assert np.max(np.abs(got.blocks - u.blocks)) <= 1e-10


def test_singular_projection_needs_loosened_tolerance():
    # odd cell count keeps the singular point interior to a cell
    sp = Space(Grid.uniform(1.0, 5), 2)
    h = FunctionHandle(lambda x: abs(x) ** -0.5, singular=(0.0,))
    with pytest.raises(QuadratureError) as err:
        project(sp, h)
    assert err.value.cell_index == 2
    u = project(sp, h, tol=1e-9)
    assert math.isfinite(u(0.0)) and u(0.0) > 0.0


def test_singular_peak_grows_as_cell_shrinks():
    h = FunctionHandle(lambda x: abs(x) ** -0.5, singular=(0.0,))
    values = []
    for cells in (5, 15, 45):
        sp = Space(Grid.uniform(1.0, cells), 2)
        values.append(project(sp, h, tol=1e-9)(0.0))
    assert values[0] < values[1] < values[2]


def test_singular_projection_matches_function_away_from_singularity():
    sp = Space(Grid.uniform(1.0, 5), 2)
    h = FunctionHandle(lambda x: abs(x) ** -0.5, singular=(0.0,))
    u = project(sp, h, tol=1e-9)
    assert u(0.7) == pytest.approx(0.7**-0.5, rel=1e-3)


def _array_only(array):
    """A handle whose per-point form must never be called."""

    def per_point(x):
        raise AssertionError("called point by point")

    return FunctionHandle(per_point, array=array)


def test_projection_depends_only_on_local_data(space):
    f = lambda x: math.sin(3 * x)
    g = lambda x: math.sin(3 * x) if x < 0.0 else math.exp(x)
    pf = project(space, f)
    pg = project(space, g)
    # blocks of cells left of zero see identical data
    left = [j for j in range(space.n_cells) if space.grid.cell_bounds(j)[1] <= 0.0]
    for j in left:
        assert np.array_equal(pf.blocks[j], pg.blocks[j])
    # a change on a null set moves no block, and one on (0, 0.25) only cell 4's
    null_set = project(space, lambda x: f(x) + (1.0 if x == 0.123456789 else 0.0))
    assert np.array_equal(null_set.blocks, pf.blocks)
    bump = project(space, lambda x: f(x) + (1.0 if 0.0 < x < 0.25 else 0.0))
    moved = [j for j in range(space.n_cells) if not np.array_equal(bump.blocks[j], pf.blocks[j])]
    assert moved == [4]
    # f zeroed outside cell j projects to the full projection's block j and zeros elsewhere
    h = _array_only(lambda x: np.sin(3.0 * x))
    ph = project(space, h)
    for j in range(space.n_cells):
        a, b = space.grid.cell_bounds(j)
        inside = lambda x: (a < x) & (x < b)
        for full, part in [
            (pf, project(space, lambda x: f(x) if inside(x) else 0.0)),
            (ph, project(space, _array_only(lambda x: np.where(inside(x), h.array(x), 0.0)))),
        ]:
            expected = np.zeros_like(full.blocks)
            expected[j] = full.blocks[j]
            assert np.array_equal(part.blocks, expected)


def test_cellwise_polynomial_reproduced_exactly(space):
    f = lambda x: 0.25 - 0.5 * x + 2.0 * x * x
    pf = project(space, f)
    expected = space.from_polynomial([0.25, -0.5, 2.0])
    assert np.max(np.abs(pf.blocks - expected.blocks)) <= 1e-12


@pytest.mark.parametrize("p", [1, 2])
def test_l2_convergence_order(p):
    errs = []
    for lev in range(4):
        sp = Space(Grid.uniform(1.0, 4 * 2**lev), p)
        errs.append(l2_error(math.sin, project(sp, math.sin)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    for o in orders:
        assert abs(o - (p + 1)) <= 0.2


def test_pointwise_convergence_at_fixed_point():
    # at a fixed non-node point the projection converges to the function
    x0 = 1.0 / 3.0
    errs = []
    for lev in range(4):
        sp = Space(Grid.uniform(1.0, 4 * 2**lev), 2)
        errs.append(abs(project(sp, math.sin)(x0) - math.sin(x0)))
    assert errs[-1] < errs[0]
    order = math.log2(errs[0] / errs[-1]) / 3.0
    assert order >= 3.0 - 0.3


def test_singular_point_is_never_evaluated():
    # on a 4-cell grid -0.5 is a node: the geometric pieces toward it shrink
    # until they round onto it, and the quadrature must stop before that
    s = -0.5

    def fn(x):
        if x == s:
            raise AssertionError("integrand evaluated at the singular point")
        return abs(x - s) ** -0.5

    sp = Space(Grid.uniform(1.0, 4), 0)
    h = FunctionHandle(fn, singular=(s,))
    with pytest.raises(QuadratureError) as err:
        project(sp, h, tol=1e-9)
    assert err.value.cell_index == 0
    u = project(sp, h, tol=1e-6)
    assert math.isfinite(u(-0.75)) and u(-0.75) > 0.0


def test_bisection_evaluates_one_kronrod_panel_per_interval():
    # every interval, the 16 cells and each child of a split, costs 15 points
    args = []

    def kink(x):
        args.append(x)
        return abs(x - 0.3)

    project(Space(Grid.uniform(1.0, 16), 2), kink)
    assert len(args) == 1080
    assert all(type(x) is float for x in args)


def _tagged_grid(ell, seed):
    rng = np.random.default_rng(seed)
    h = 2.0 / ell
    tags = -1.0 + h * (np.arange(1, ell) + rng.uniform(-0.25, 0.25, size=ell - 1))
    return Grid.with_tags(1.0, tags.tolist(), 1.6 * h)


def _exact_kink_loads(space, c):
    """Blocks of the projection of ``|x - c|``, split exactly at the kink."""
    t, w = np.polynomial.legendre.leggauss(8)
    blocks = np.zeros((space.n_cells, space.block_size))
    for j in range(space.n_cells):
        a, b = space.grid.cell_bounds(j)
        for lo, hi in ([(a, c), (c, b)] if a < c < b else [(a, b)]):
            for ti, wi in zip(t, w):
                x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * ti
                blocks[j] += 0.5 * (hi - lo) * wi * abs(x - c) * space.basis_values(j, x)
    return blocks


@pytest.mark.parametrize("p", range(7))
def test_mixed_first_pass_and_bisection_on_tagged_grid(p):
    grid = _tagged_grid(100, p)
    assert grid.n_cells == 100
    kink_cell = 80
    a, b = grid.cell_bounds(kink_cell)
    c = a + 0.37 * (b - a)
    sp = Space(grid, p)
    outside = []

    def kink(x):
        if not a < x < b:
            outside.append(x)
        return abs(x - c)

    u = project(sp, kink)
    # every other cell converged in the first pass: one 15-point Kronrod panel
    assert len(outside) == 15 * (grid.n_cells - 1)
    assert np.max(np.abs(u.blocks - _exact_kink_loads(sp, c))) <= 1e-10
    coeffs = np.linspace(0.5, -0.25, p + 1)
    poly = project(sp, lambda x: float(np.polynomial.polynomial.polyval(x, coeffs)))
    assert np.max(np.abs(poly.blocks - sp.from_polynomial(coeffs).blocks)) <= 1e-12


def _per_point_reference(space, fvec, tol=1e-12, singular=()):
    """Per-cell adaptive G7/K15 bisection with one scalar integrand call per point.

    ``fvec(j, x, e)`` is the integrand at the point ``x`` of cell ``j``,
    where ``e`` holds the cell's basis values there.  On a panel over a whole
    cell, ``e`` is the cell's scale times the basis of the cell ``[-1, 1]`` at
    the rule node; on any other panel it is ``space.basis_values(j, x)``.
    An interval is accepted when its Kronrod and Gauss sums differ by at most
    ``tol``, or by less than 50 eps times its width times the largest
    ``|integrand|`` at its points, or when it is too narrow to split.  Cells
    holding a point of ``singular`` are summed over geometric pieces
    shrinking toward it, after the other cells, as ``project`` does.
    """
    t, (wk, wg) = _gauss_kronrod(max(7, space.degree + 1))
    eps = np.finfo(float).eps
    reference_cell = Space(Grid([-1.0, 1.0]), space.degree)

    def panel(j, lo, hi, whole):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        scale = math.sqrt(2.0 / (hi - lo))
        kron = gauss = peak = 0.0
        for ti, ki, gi in zip(t, wk, wg):
            x = mid + half * ti
            if whole:
                e = scale * reference_cell.basis_values(0, ti)
            else:
                e = space.basis_values(j, x)
            v = np.asarray(fvec(j, x, e))
            kron = kron + ki * v
            if gi:
                gauss = gauss + gi * v
            peak = max(peak, float(np.max(np.abs(v))))
        return half * kron, half * gauss, peak

    def adaptive(j, lo, hi, tol, whole=False):
        kron, gauss, peak = panel(j, lo, hi, whole)
        err = np.max(np.abs(kron - gauss))
        if err <= tol or err < 50 * eps * (hi - lo) * peak:
            return kron
        if hi - lo <= 4 * eps * max(1, abs(lo), abs(hi)):
            return kron
        mid = 0.5 * (lo + hi)
        return adaptive(j, lo, mid, 0.5 * tol) + adaptive(j, mid, hi, 0.5 * tol)

    def toward(j, s, far):
        total = None
        for m in range(60):
            outer, inner = s + (far - s) * 0.5**m, s + (far - s) * 0.5 ** (m + 1)
            if inner == s or inner == outer:
                break
            piece = adaptive(j, min(inner, outer), max(inner, outer), tol)
            total = piece if total is None else total + piece
            if np.max(np.abs(piece)) < tol:
                return total
        raise QuadratureError(f"singular quadrature did not converge on cell {j}", j)

    def cell(j):
        a, b = space.grid.cell_bounds(j)
        sing = sorted(s for s in singular if a <= s <= b)
        if not sing:
            return adaptive(j, a, b, tol, whole=True)
        cuts = [a] + [s for s in sing if a < s < b] + [b]
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if lo in sing and hi in sing:
                mid = 0.5 * (lo + hi)
                total = total + toward(j, lo, mid)
                total = total + toward(j, hi, mid)
            elif lo in sing:
                total = total + toward(j, lo, hi)
            else:
                total = total + toward(j, hi, lo)
        return total

    def holds(j):
        a, b = space.grid.cell_bounds(j)
        return any(a <= s <= b for s in singular)

    order = sorted(range(space.n_cells), key=holds)  # regular cells first
    blocks = {j: cell(j) for j in order}
    return np.array([blocks[j] for j in range(space.n_cells)])


@pytest.mark.parametrize("p", [0, 2, 6])
def test_batched_engine_matches_per_point_reference(p):
    sp = Space(_tagged_grid(70, 10 + p), p)
    rng = np.random.default_rng(p)
    v = random_member(sp, rng)
    for f in (smooth_fn(rng), lambda x: abs(x - 0.61)):
        ref = _per_point_reference(sp, lambda j, x, e: f(x) * e)
        assert np.array_equal(project(sp, f).blocks, ref)
        assert integral_against_member(f, v) == _cell_sum(
            sp, lambda j, x, e: f(x) * (v.blocks[j] @ e)
        )

        def squared_error(j, x, e):
            d = f(x) - v.blocks[j] @ e
            return d * d

        assert l2_error(f, v) == math.sqrt(_cell_sum(sp, squared_error))


def _cell_sum(space, fvec):
    total = 0.0
    for cell in _per_point_reference(space, fvec):
        total += float(cell)
    return total


def _inv_sqrt_kink(x, singular=(0.0,)):
    return sum(abs(x - s) ** -0.5 for s in singular) + abs(x - 0.3)


@pytest.mark.parametrize("ell", [5, 15, 4, 16])
@pytest.mark.parametrize("p", [0, 2, 6])
def test_singular_tail_matches_per_point_reference(ell, p):
    # odd cell counts put 0 inside the middle cell, where 1e-9 converges;
    # even ones make it a node, which converges at 1e-6, as do 0.3 inside a
    # cell and (0.1, 0.25): two points of one cell at ell=4, and a point
    # inside a cell and a node at ell=16
    sp = Space(Grid.uniform(1.0, ell), p)
    cases = [(1e-9, (0.0,))] if ell % 2 else [(1e-6, s) for s in [(0.0,), (0.3,), (0.1, 0.25)]]
    for tol, singular in cases:
        f = functools.partial(_inv_sqrt_kink, singular=singular)
        ref = _per_point_reference(sp, lambda j, x, e: f(x) * e, tol, singular)
        u = project(sp, FunctionHandle(f, singular), tol=tol)
        assert np.array_equal(u.blocks, ref)


@pytest.mark.parametrize(
    "ell, p, singular, calls",
    [
        (4, 2, (0.0, 0.05), 930),
        # the benchmark's failing cases: a node, then a point inside a cell
        (16, 0, (-0.375,), 975),
        (16, 2, (-0.375,), 975),
        (16, 6, (-0.375,), 1095),
        (16, 0, (0.3125,), 1035),
        (16, 2, (0.3125,), 1035),
        (16, 6, (0.3125,), 1155),
    ],
    ids=["two-points", "node-p0", "node-p2", "node-p6", "inside-p0", "inside-p2", "inside-p6"],
)
def test_failing_singular_tail_names_the_reference_cell(ell, p, singular, calls):
    # the call count pins every piece of the failing tail, and no tail after it
    sp = Space(Grid.uniform(1.0, ell), p)
    seen = []

    def f(x):
        seen.append(x)
        return sum(abs(x - s) ** -0.5 for s in singular)

    with pytest.raises(QuadratureError) as ref:
        _per_point_reference(sp, lambda j, x, e: f(x) * e, 1e-9, singular)
    assert len(seen) == calls
    seen.clear()
    with pytest.raises(QuadratureError) as err:
        project(sp, FunctionHandle(f, singular), tol=1e-9)
    assert len(seen) == calls
    assert err.value.cell_index == ref.value.cell_index
    assert str(err.value) == str(ref.value)


def test_singular_tail_call_count():
    calls = []

    def f(x):
        calls.append(x)
        return _inv_sqrt_kink(x)

    project(Space(Grid.uniform(1.0, 5), 2), FunctionHandle(f, (0.0,)), tol=1e-9)
    assert len(calls) == 1950


@pytest.mark.parametrize(
    "ell, tol, singular, engine_calls, fails",
    [
        # the regular cells, then the two tails of the middle cell
        (5, 1e-9, (0.0,), 3, False),
        # the regular cells, then the first tail, which fails
        (16, 1e-9, (-0.375,), 2, True),
        (16, 1e-9, (0.3125,), 2, True),
        # the regular cells, two tails inside cell 8, one in each of cells 9 and 10
        (16, 1e-6, (0.1, 0.25), 5, False),
    ],
)
def test_each_singular_tail_is_one_engine_call(monkeypatch, ell, tol, singular, engine_calls, fails):
    real, seen = projection._intervals, []

    def spying(integrand, family, space, rows, cells, *args, **kwargs):
        seen.append(cells)
        return real(integrand, family, space, rows, cells, *args, **kwargs)

    monkeypatch.setattr(projection, "_intervals", spying)
    h = FunctionHandle(lambda x: sum(abs(x - s) ** -0.5 for s in singular), singular)
    with pytest.raises(QuadratureError) if fails else contextlib.nullcontext():
        project(Space(Grid.uniform(1.0, ell), 2), h, tol=tol)
    assert len(seen) == engine_calls
    # every call after the regular cells holds the pieces of one tail, in one cell
    assert all(len(set(cells.tolist())) == 1 and len(cells) > 1 for cells in seen[1:])


def test_tail_with_no_piece_names_its_cell():
    # a singular point one ulp inside cell 1: the piece between it and the
    # cell's left node rounds onto the point at once, so that tail has no piece
    sp = Space(Grid.uniform(1.0, 5), 2)
    s = math.nextafter(float(sp.grid.nodes[1]), 1.0)
    h = FunctionHandle(lambda x: abs(x - s) ** -0.5, (s,))
    with pytest.raises(QuadratureError) as err:
        project(sp, h, tol=1e-6)
    assert err.value.cell_index == 1
    assert str(err.value) == "singular quadrature did not converge on cell 1"


def test_bisection_cap_names_the_failing_cell():
    # the bisection floor is absolute near 0: a jump there in a cell 5000 wide
    # still splits at depth 60, while one at 5000.3 stops at the floor
    sp = Space(Grid.with_tags(1e4, [-3000.0, 2000.0], 1e5), 1)
    h = FunctionHandle(lambda x: float(x > 0.7) + float(x > 5000.3))
    with pytest.raises(QuadratureError) as err:
        project(sp, h, tol=1e-6)
    assert err.value.cell_index == 1
    assert str(err.value) == "adaptive quadrature did not converge on cell 1"


def test_engine_names_the_lowest_of_several_failing_cells():
    # the jump interval of both copies splits to depth 60; the engine takes
    # them in one level batch and names the lower cell
    h = FunctionHandle(lambda x: float(x > 0.7))
    sp = Space(Grid.uniform(1e4, 4), 1)
    lo, hi = np.array([-3000.0, -3000.0]), np.array([2000.0, 2000.0])
    with pytest.raises(QuadratureError) as err:
        rows, cells = np.zeros(2, int), np.array([1, 3])
        _intervals(lambda *args: args[2][..., None], _family(h), sp, rows, cells, lo, hi, 1e-6)
    assert err.value.cell_index == 1


def _spy_integrands(monkeypatch, check):
    """Run ``check(cells, fx, basis)`` on every integrand call the engine makes."""
    real = projection._integrate

    def spying(space, family, integrand, tol):
        def spy(rows, cells, fx, basis):
            check(cells, fx, basis)
            return integrand(rows, cells, fx, basis)

        return real(space, family, spy, tol)

    monkeypatch.setattr(projection, "_integrate", spying)


@pytest.mark.parametrize("op", ["project", "l2_error"])
def test_integrand_and_basis_arrays_span_at_most_one_chunk(monkeypatch, op):
    sp = Space(Grid.uniform(1.0, 16384), 6)
    sizes, rows = [], []

    def sin(x):
        rows.append(x.shape[0])
        return np.sin(x)

    def check(cells, fx, basis):
        sizes.append(len(cells))
        assert fx.shape == (len(cells), 15) and basis.shape == (len(cells), 15, 7)

    _spy_integrands(monkeypatch, check)
    handle = FunctionHandle(math.sin, array=sin)
    if op == "project":
        project(sp, handle)
    else:
        l2_error(handle, random_member(sp, np.random.default_rng(0)))
    assert max(sizes) == max(rows) == projection._CHUNK
    # every cell is accepted at the first level
    assert sum(sizes) == sum(rows) == sp.n_cells


@pytest.mark.parametrize("p", [2, 6])
def test_first_level_basis_is_the_scaled_reference_table(monkeypatch, p):
    sp = Space(_tagged_grid(16384, p), p)
    t = _gauss_kronrod(7)[0]
    reference_cell = Space(Grid([-1.0, 1.0]), p)
    table = np.array([reference_cell.basis_values(0, ti) for ti in t])
    assert np.array_equal(projection._panel_rule(p)[2], table)
    scales = np.sqrt(2.0 / sp.grid.widths())
    seen = []

    def check(cells, fx, basis):
        assert np.array_equal(basis, scales[cells][:, None, None] * table)
        seen.extend(cells.tolist())

    _spy_integrands(monkeypatch, check)
    project(sp, FunctionHandle(math.sin, array=np.sin))
    assert seen == list(range(sp.n_cells))


@pytest.mark.parametrize("p", range(21))
def test_panel_rule_table_is_the_reference_cell_basis(p):
    # the basis of the space on the one cell [-1, 1] at the panel's abscissae
    t, _, table = projection._panel_rule(p)
    reference_cell = Space(Grid([-1.0, 1.0]), p)
    assert np.array_equal(table, reference_cell.cell_basis_values([0], t[None])[0])
    assert table.shape == (t.size, p + 1) and not table.flags.writeable


def test_l2_error_accepts_every_cell_of_a_fine_grid_at_the_first_level():
    # mapping each point back to its cell as (2x - 2 mid) / h cancels; at this
    # size that rounding made the Kronrod-Gauss test bisect 10 levels deep
    sp = Space(Grid.uniform(1.0, 1024), 6)
    u = random_member(sp, np.random.default_rng(0))
    f = _Bounded()
    got = l2_error(f, u)
    assert f.calls == 1024 * 15
    t, w = np.polynomial.legendre.leggauss(20)
    a, b = sp.grid.nodes[:-1], sp.grid.nodes[1:]
    x = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * t
    d = np.sin(x) - np.vecdot(sp.cell_basis_values(np.arange(1024), x), u.blocks[:, None, :])
    assert abs(got - math.sqrt(np.sum(0.5 * (b - a) * (d * d @ w)))) <= 1e-10


class _Bounded:
    """``fn`` that counts its calls and gives up after 10**5 of them."""

    def __init__(self, fn=math.sin):
        self.fn, self.calls = fn, 0

    def __call__(self, x):
        self.calls += 1
        if self.calls > 100_000:
            raise RuntimeError("quadrature kept evaluating")
        return self.fn(x)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_unreachable_tolerance_rejected_before_evaluation(space, tol):
    f = _Bounded()
    v = space.constant(1.0)
    ops = [
        lambda: project(space, f, tol=tol),
        lambda: project_via_basis(basis_pair(space), f, tol=tol),
        lambda: l2_error(f, v, tol=tol),
        lambda: integral_against_member(f, v, tol=tol),
    ]
    for op in ops:
        with pytest.raises(InvalidArgumentError, match="tolerance"):
            op()
    assert f.calls == 0


def _two_inv_sqrt(x):
    return abs(x - 0.1) ** -0.5 + abs(x - 0.25) ** -0.5


def _inv_sqrt_integral(a, b, s):
    """Integral of ``abs(x - s) ** -0.5`` over ``[a, b]``."""
    if a < s < b:
        return 2.0 * (math.sqrt(s - a) + math.sqrt(b - s))
    return 2.0 * abs(math.sqrt(abs(b - s)) - math.sqrt(abs(a - s)))


@pytest.mark.parametrize("ell", [3, 5])
def test_two_singular_points_closed_form(ell):
    # on 3 cells both points lie in the middle cell, on 5 in neighbouring ones
    sp = Space(Grid.uniform(1.0, ell), 0)
    u = project(sp, FunctionHandle(_two_inv_sqrt, (0.1, 0.25)), tol=1e-6)
    for j in range(ell):
        a, b = sp.grid.cell_bounds(j)
        exact = sum(_inv_sqrt_integral(a, b, s) for s in (0.1, 0.25)) / math.sqrt(b - a)
        assert abs(u.blocks[j, 0] - exact) <= 100 * 1e-6


@pytest.mark.parametrize("ell", [3, 5])
@pytest.mark.parametrize("p", [2, 6])
def test_two_singular_points_match_per_point_reference(ell, p):
    sp = Space(Grid.uniform(1.0, ell), p)
    singular = (0.1, 0.25)
    ref = _per_point_reference(
        sp, lambda j, x, e: _two_inv_sqrt(x) * e, 1e-6, singular
    )
    u = project(sp, FunctionHandle(_two_inv_sqrt, singular), tol=1e-6)
    assert np.array_equal(u.blocks, ref)


@pytest.mark.parametrize("p", [9, 12])
def test_high_degree_panel_rule_reproduces_polynomials(p):
    # from degree 7 on the panels use the Kronrod extension of p + 1 Gauss points
    sp = Space(_tagged_grid(6, p), p)
    coeffs = np.random.default_rng(p).uniform(-1.0, 1.0, size=p + 1)
    u = project(sp, lambda x: float(np.polynomial.polynomial.polyval(x, coeffs)))
    assert np.max(np.abs(u.blocks - sp.from_polynomial(coeffs).blocks)) <= 1e-10


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_non_finite_singular_point_is_refused(s):
    with pytest.raises(InvalidArgumentError, match="singular points must be finite"):
        FunctionHandle(math.sin, (0.0, s))


#: QUADPACK's QK15 abscissae and Kronrod weights from the end point inward,
#: and the weights of its embedded 7-point Gauss rule
_QK15_NODES = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
               0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
               0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
               0.207784955007898467600689403773245, 0.0)
_QK15_WEIGHTS = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_G7_WEIGHTS = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
               0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


def test_kronrod_15_matches_quadpack():
    t, (wk, wg) = _gauss_kronrod(7)
    assert t[-1] == pytest.approx(0.99145537112081, abs=1e-14)
    assert np.max(np.abs(t[7:][::-1] - _QK15_NODES)) <= 4e-16
    assert np.max(np.abs(t + t[::-1])) <= 2e-16
    assert np.max(np.abs(wk[7:][::-1] - _QK15_WEIGHTS)) <= 4e-16
    gauss_t, gauss_w = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(t[1::2] - gauss_t)) <= 1e-15
    assert np.array_equal(wg[1::2], gauss_w) and not wg[0::2].any()
    assert np.max(np.abs(wg[7::2][::-1] - _G7_WEIGHTS)) <= 1e-15
    assert _gauss_kronrod(7) is _gauss_kronrod(7)
    assert not any(a.flags.writeable for a in _gauss_kronrod(7))


@pytest.mark.parametrize("n", range(7, 21))
def test_kronrod_rule_is_exact_to_degree_3n_plus_1(n):
    t, (wk, wg) = _gauss_kronrod(n)
    assert t.size == 2 * n + 1 and np.all(np.diff(t) > 0)
    assert -1.0 < t[0] and t[-1] < 1.0
    assert np.all(wk > 0)
    for k in range(3 * n + 2):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(wk @ t**k - exact) <= 1e-14, k
        if k < 2 * n:
            assert abs(wg @ t**k - exact) <= 1e-14, k


@pytest.mark.parametrize("p", range(11))
def test_polynomial_of_the_degree_is_accepted_at_level_zero(p):
    sp = Space(_tagged_grid(12, 20 + p), p)
    coeffs = np.random.default_rng(p).uniform(-1.0, 1.0, size=p + 1)
    calls = []

    def poly(x):
        calls.append(x)
        return float(np.polynomial.polynomial.polyval(x, coeffs))

    u = project(sp, poly)
    assert len(calls) == (2 * max(7, p + 1) + 1) * sp.n_cells
    assert np.max(np.abs(u.blocks - sp.from_polynomial(coeffs).blocks)) <= 1e-12


@pytest.mark.parametrize("tol", [1e-16, 1e-17, 1e-300])
def test_tolerance_below_rounding_stops_at_the_floor(tol):
    # the Kronrod-Gauss difference of a smooth cell is rounding here, so
    # every cell is accepted at the first level, with the value of tol=1e-12
    sp = Space(Grid.uniform(1.0, 16), 2)
    f = _Bounded()
    u = project(sp, f, tol=tol)
    assert f.calls == 240
    assert np.array_equal(u.blocks, project(sp, math.sin).blocks)


def test_rounding_floor_is_50_eps_times_width_times_peak():
    # below the floor is accepted; at it, or where the floor is inf, is not
    floor = 50 * np.finfo(float).eps * 0.5 * 4.0
    sums = np.array([[[1.0], [1.0 + g]] for g in (0.99 * floor, floor, np.inf)])
    lo, hi, peak = np.zeros(3), np.full(3, 0.5), np.array([4.0, 4.0, np.inf])
    assert _accepted(sums, peak, lo, hi, 1e-300).tolist() == [True, False, False]


def _numpy_scalar_adapter(fn):
    """The earlier array form of a plain callable: one ``np.float64`` at a time."""
    return lambda x: np.fromiter((float(fn(v)) for v in x.ravel()), float, x.size).reshape(x.shape)


@st.composite
def _plain_callables(draw):
    kind = draw(st.sampled_from(["smooth", "polynomial", "kink"]))
    a, b, c = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    if kind == "smooth":
        k = draw(st.integers(1, 3))
        return lambda x: a * math.sin(k * x + b) + c * x**2
    if kind == "polynomial":
        poly = np.polynomial.Polynomial([a, b, c, draw(st.floats(-1.0, 1.0))])
        return lambda x: float(poly(x))
    return lambda x: abs(x - c)


@settings(deadline=None, max_examples=40)
@given(
    f=_plain_callables(),
    p=st.sampled_from([0, 2, 6]),
    ell=st.integers(1, 24),
    tagged=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_python_float_adapter_is_bit_identical_to_numpy_scalars(f, p, ell, tagged, seed):
    grid = _tagged_grid(ell, seed) if tagged and ell > 1 else Grid.uniform(1.0, ell)
    sp = Space(grid, p)
    old = FunctionHandle(f, array=_numpy_scalar_adapter(f))
    v = random_member(sp, np.random.default_rng(seed))
    assert np.array_equal(project(sp, f).blocks, project(sp, old).blocks)
    assert l2_error(f, v) == l2_error(old, v)
    assert integral_against_member(f, v) == integral_against_member(old, v)


def test_array_form_of_fn_is_used_without_building_the_adapter(monkeypatch):
    def refuse(fn):
        raise AssertionError("per-point adapter built for a function with an array form")

    monkeypatch.setattr(projection, "_per_point", refuse)
    expr = parse_expression("sin(x)")
    assert FunctionHandle(expr).array == expr.array


_OPERATIONS = {
    "project": lambda sp, f: project(sp, f),
    "l2_error": lambda sp, f: l2_error(f, Ultrafunction(sp, np.ones((sp.n_cells, sp.block_size)))),
    "integral_against_member": lambda sp, f: integral_against_member(
        f, Ultrafunction(sp, np.ones((sp.n_cells, sp.block_size)))
    ),
}


@pytest.mark.parametrize("operation", sorted(_OPERATIONS))
@pytest.mark.parametrize(
    "value, shown",
    [
        (lambda x: math.nan if x > 0.3 else 1.0, "nan"),
        (lambda x: math.inf if x > 0.3 else 1.0, "inf"),
        (lambda x: None if x > 0.3 else 1.0, "nan"),
        (lambda x: 1e300 * 1e300 * x if x > 0.3 else 1.0, "inf"),  # float overflow
    ],
    ids=["nan", "inf", "none", "overflow"],
)
def test_non_finite_values_are_refused_in_the_first_pass(operation, value, shown):
    # before, such a cell was never accepted and the open intervals doubled at every level
    ell = 4
    f = _Bounded(value)
    with pytest.raises(InvalidArgumentError, match=rf"value {shown} at x = 0\.30\d* in cell 2 "):
        _OPERATIONS[operation](Space(Grid.uniform(1.0, ell), 1), f)
    assert f.calls <= 15 * ell


@pytest.mark.parametrize(
    "operation, value",
    [("project", 1e308), ("l2_error", 1e200), ("integral_against_member", 1e308)],
)
def test_overflowing_integrand_is_refused_in_the_first_pass(operation, value):
    # f is finite but the integrand (f times the basis, f times u, or
    # (f - u)**2) is not; before, no interval was ever accepted
    ell = 4
    f = _Bounded(lambda x: value)
    with pytest.raises(InvalidArgumentError, match=r"integrand overflows on cell 0"):
        _OPERATIONS[operation](Space(Grid.uniform(1.0, ell), 1), f)
    assert f.calls <= 15 * ell


def test_non_finite_array_form_is_refused():
    h = FunctionHandle(math.exp, array=lambda x: np.where(x < -0.9, -np.inf, np.exp(x)))
    with pytest.raises(InvalidArgumentError, match=r"value -inf at x = -0\.9\d* in cell 0 "):
        project(Space(Grid.uniform(1.0, 8), 2), h)


def test_non_finite_value_in_a_singular_cell_is_refused():
    # the regular cells come first and are finite; cell 2 = [-0.2, 0.2] holds 0
    h = FunctionHandle(lambda x: math.nan if 0.0 < x < 0.2 else abs(x) ** -0.5, (0.0,))
    with pytest.raises(InvalidArgumentError, match="in cell 2 is not finite"):
        project(Space(Grid.uniform(1.0, 5), 0), h, tol=1e-6)


@pytest.mark.parametrize(
    "fn, error",
    [
        (lambda x: 1.0 / (x - x), ZeroDivisionError),
        (lambda x: math.exp(1000.0 * x), OverflowError),
        (lambda x: (x - 2.0) ** 0.5, TypeError),  # a complex value
    ],
)
def test_errors_raised_by_the_callable_propagate(fn, error):
    with pytest.raises(error):
        project(Space(Grid.uniform(1.0, 4), 1), fn)


@pytest.mark.parametrize(
    ("ell", "once", "twice"),
    [(4, (0.25,), (0.25, 0.25)), (3, (0.0,), (0.0, -0.0)), (3, (0.1, 0.25), (0.25, 0.1, 0.25, 0.1))],
)
def test_a_repeated_singular_point_is_one_cut(ell, once, twice):
    sp = Space(Grid.uniform(1.0, ell), 2)

    def f(x):
        return sum(abs(x - s) ** -0.5 for s in set(once))

    u = project(sp, FunctionHandle(f, once), tol=1e-6)
    v = project(sp, FunctionHandle(f, twice), tol=1e-6)
    np.testing.assert_array_equal(u.blocks.view(np.int64), v.blocks.view(np.int64))


def _bits(values) -> tuple:
    a = np.asarray(values, dtype=float)
    return a.tobytes(), np.signbit(a).tobytes()


@settings(deadline=None, max_examples=30)
@given(grid=grids(max_beta=10.0), p=st.integers(0, 6), members=st.integers(1, 5),
       kink=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_many_member_engine_calls_are_one_member_calls_bit_for_bit(grid, p, members, kink, seed):
    # each row's integrals are those of its member alone: smooth members, or
    # members with a declared kink, which take the singular tails per member
    sp = Space(grid, p)
    rng = np.random.default_rng(seed)
    # the kink sits on a node or a cell's midpoint: a point a few ulps off a
    # node leaves a piece too narrow to split, which one member refuses too
    j = int(rng.integers(grid.n_cells))
    s = float(grid.nodes[j]) if rng.random() < 0.5 else 0.5 * float(grid.nodes[j] + grid.nodes[j + 1])
    tol = 1e-9

    def member(a, b, c, k):
        def fn(x):
            return a * np.sin(k * x + b) + c * (np.sqrt(np.abs(x - s)) if kink else x * x)

        return FunctionHandle(fn, (s,) if kink else (), array=fn)

    params = rng.uniform(-1.0, 1.0, size=(members, 3))
    handles = [member(a, b, c, float(k)) for (a, b, c), k in zip(params, rng.integers(1, 4, members))]

    def values(rows, x):
        out = np.empty_like(x)
        for r, h in enumerate(handles):
            out[rows == r] = h.array(x[rows == r])
        return out

    family = projection._Family(values, members, handles[0].singular)
    blocks = rng.standard_normal((members, sp.n_cells, sp.block_size))
    us = [Ultrafunction(sp, b) for b in blocks]
    loads = projection._load_vectors(sp, family, tol)
    assert _bits(loads) == _bits([project(sp, h, tol=tol).blocks for h in handles])
    assert _bits(projection._integrals_against(sp, family, blocks, tol)) == _bits(
        [integral_against_member(h, u, tol=tol) for h, u in zip(handles, us)]
    )
    assert _bits(projection._l2_errors(sp, family, blocks, tol)) == _bits(
        [l2_error(h, u, tol=tol) for h, u in zip(handles, us)]
    )
