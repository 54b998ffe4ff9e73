"""Batch point evaluation against the scalar path, bit for bit.

``Grid.classify``, ``Ultrafunction.sample`` and ``basis_pair`` work on whole
arrays; ``Grid.locate``, ``Ultrafunction.__call__`` and the per-cell copy of
``basis_pair`` below work one point or one cell at a time.  Every comparison
here is exact: the batch path must not change a single bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from ultracalc import (
    Grid,
    IndependenceError,
    InvalidArgumentError,
    PointKind,
    Space,
    Ultrafunction,
    basis_pair,
    default_interpolation_points,
    delta,
)
from ultracalc.grid import SNAP_REL

from strategies import grids

def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def off_by_ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def probes(grid: Grid):
    """Nodes, points 1-3 ulps off a node, cell midpoints, support and outside."""
    beta = grid.beta
    nodes = grid.nodes
    node = st.sampled_from(nodes.tolist())
    # equidistant from two nodes
    mid = st.sampled_from((0.5 * (nodes[:-1] + nodes[1:])).tolist())
    near = st.tuples(node, st.sampled_from([-3, -2, -1, 1, 2, 3])).map(
        lambda t: off_by_ulps(*t)
    )
    inside = st.floats(-beta, beta)
    outside = st.floats(-4.0 * beta, 4.0 * beta) | st.sampled_from(
        [-math.inf, math.inf, -beta * (1 + 1e-14), beta * (1 + 1e-14)]
    )
    ends = st.sampled_from([-beta, beta])
    return st.lists(st.one_of(node, near, mid, inside, outside, ends), min_size=1, max_size=120)


@settings(deadline=None)
@given(data=st.data())
def test_classify_equals_locate(data):
    grid = data.draw(grids())
    xs = np.array(data.draw(probes(grid)))
    kind, index = grid.classify(xs)
    for x, k, i in zip(xs, kind, index):
        loc = grid.locate(x)
        assert k == loc.kind, x
        assert i == (-1 if loc.index is None else loc.index), x


@settings(deadline=None)
@given(data=st.data(), degree=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_sample_equals_pointwise_call(data, degree, seed):
    space = Space(data.draw(grids()), degree)
    xs = np.array(data.draw(probes(space.grid)))
    rng = np.random.default_rng(seed)
    u = Ultrafunction(space, rng.standard_normal((space.n_cells, space.block_size)))
    expected = [u(float(x)) for x in xs]
    np.testing.assert_array_equal(bits(u.sample(xs)), bits(expected))


@settings(deadline=None, max_examples=50)
@given(data=st.data(), degree=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
def test_one_recurrence_gives_scalar_and_batched_values_up_to_degree_20(data, degree, seed):
    space = Space(data.draw(grids()), degree)
    xs = np.array(data.draw(probes(space.grid)))
    rng = np.random.default_rng(seed)
    u = Ultrafunction(space, rng.standard_normal((space.n_cells, space.block_size)))
    np.testing.assert_array_equal(bits(u.sample(xs)), bits([u(float(x)) for x in xs]))
    kind, cells = space.grid.classify(xs)
    inside = kind == PointKind.INTERIOR
    batched = space.cell_basis_values(cells[inside], xs[inside, None])[:, 0]
    scalar = [space.basis_values(j, x) for j, x in zip(cells[inside].tolist(), xs[inside].tolist())]
    np.testing.assert_array_equal(bits(batched), bits(np.reshape(scalar, batched.shape)))


def delta_probes(grid: Grid):
    """Nodes, points a few ulps off a node or off its snap window, and +-0.0."""
    nodes = grid.nodes
    node = st.sampled_from(nodes.tolist())
    ulps = st.sampled_from([-3, -2, -1, 1, 2, 3])
    near = st.tuples(node, ulps).map(lambda t: off_by_ulps(*t))
    # just past the window's edge, so interior with a reference coordinate near -1 or 1
    past = st.tuples(node, ulps).map(
        lambda t: off_by_ulps(t[0] + math.copysign(SNAP_REL * max(1.0, abs(t[0])), t[1]), t[1])
    )
    inside = st.floats(grid.beta * -0.999, grid.beta * 0.999)
    return st.one_of(node, near, past, inside, st.sampled_from([0.0, -0.0]))


@settings(deadline=None)
@given(data=st.data(), degree=st.integers(0, 12))
def test_delta_equals_batched_basis_values(data, degree):
    space = Space(data.draw(grids()), degree)
    q = data.draw(delta_probes(space.grid))
    (kind,), (j,) = space.grid.classify([q])
    if kind == PointKind.OUTSIDE:  # past the window of an end node
        with pytest.raises(InvalidArgumentError, match="outside the support"):
            delta(space, q)
        return
    want = np.zeros((space.n_cells, space.block_size))
    if kind == PointKind.INTERIOR:
        want[j] = space.cell_basis_values([j], np.array([[q]]))[0, 0]
    else:  # the node rule on the batched edge rows
        ell = space.n_cells
        if j > 0:
            want[j - 1] = (0.5 if j < ell else 1.0) * space.right_rows[j - 1]
        if j < ell:
            want[j] = (0.5 if j > 0 else 1.0) * space.left_rows[j]
    np.testing.assert_array_equal(bits(delta(space, q).blocks), bits(want))


def test_sample_of_nothing_is_empty():
    u = Space(Grid.uniform(1.0, 4), 2).constant(1.0)
    assert u.sample([]).shape == (0,)


# ----------------------------------------------------------------------
# basis_pair against its per-cell form
# ----------------------------------------------------------------------


def reference_basis_pair(space, pts):
    """Per-point classification and per-cell solves: the batch path's reference."""
    per_cell = {j: [] for j in range(space.n_cells)}
    for i, q in enumerate(pts):
        loc = space.grid.locate(q)
        if loc.kind is not PointKind.INTERIOR:
            raise IndependenceError(
                f"point {q!r} is not interior to a cell; nodes are not allowed"
            )
        per_cell[loc.index].append(i)
    n = space.block_size
    delta_cols = np.zeros((space.dim, space.dim))
    cardinal_cols = np.zeros((space.dim, space.dim))
    for j, idx in per_cell.items():
        if len(idx) != n:
            raise IndependenceError(f"cell {j} holds {len(idx)} points, expected {n}")
        cell_pts = pts[idx]
        if np.unique(cell_pts).size != n:
            raise IndependenceError(f"repeated point in cell {j}")
        evals = np.array([space.basis_values(j, q) for q in cell_pts])
        try:
            dual = np.linalg.solve(evals, np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise IndependenceError(f"points in cell {j} do not determine a basis") from exc
        rows = slice(j * n, (j + 1) * n)
        for a, i in enumerate(idx):
            delta_cols[rows, i] = evals[a]
            cardinal_cols[rows, i] = dual[:, a]
    return delta_cols, cardinal_cols


def random_interior_points(space, rng):
    """``p + 1`` random points per cell, well inside it, in shuffled order."""
    nodes = space.grid.nodes
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    halves = 0.5 * np.diff(nodes)
    t = rng.uniform(-0.9, 0.9, size=(space.n_cells, space.block_size))
    return rng.permutation((mids[:, None] + halves[:, None] * t).ravel())


@settings(deadline=None, max_examples=40)
@given(grid=grids(), degree=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_basis_pair_equals_per_cell_reference(grid, degree, seed):
    space = Space(grid, degree)
    rng = np.random.default_rng(seed)
    for pts in (default_interpolation_points(space), random_interior_points(space, rng)):
        # cells narrower than the snap window hold no interior point: then
        # both forms must reject the set with the same message
        try:
            delta_ref, cardinal_ref = reference_basis_pair(space, pts)
        except IndependenceError as exc:
            with pytest.raises(IndependenceError) as got:
                basis_pair(space, pts)
            assert str(got.value) == str(exc)
            continue
        pair = basis_pair(space, pts)
        np.testing.assert_array_equal(bits(pair.delta_coeffs), bits(delta_ref))
        np.testing.assert_array_equal(bits(pair.cardinal_coeffs), bits(cardinal_ref))


@pytest.mark.parametrize("ell,degree", [(1024, 0), (7, 3), (33, 6)])
def test_basis_pair_equals_reference_on_uniform_grids(ell, degree):
    space = Space(Grid.uniform(1.0, ell), degree)
    pts = default_interpolation_points(space)
    pair = basis_pair(space)
    delta_ref, cardinal_ref = reference_basis_pair(space, pts)
    np.testing.assert_array_equal(bits(pair.delta_coeffs), bits(delta_ref))
    np.testing.assert_array_equal(bits(pair.cardinal_coeffs), bits(cardinal_ref))


def test_default_points_match_per_cell_form():
    space = Space(Grid.with_tags(2.0, [-1.3, 0.4], 0.7), 4)
    t, _ = leggauss(space.block_size)
    expected = []
    for j in range(space.n_cells):
        a, b = space.grid.cell_bounds(j)
        expected.extend(0.5 * (a + b) + 0.5 * (b - a) * t)
    np.testing.assert_array_equal(bits(default_interpolation_points(space)), bits(expected))


def test_cell_condition_numbers_match_per_cell_form():
    space = Space(Grid.with_tags(1.0, [0.3], 0.3), 3)
    pair = basis_pair(space)
    n = space.block_size
    expected = [
        np.linalg.cond(np.array([space.basis_values(j, q) for q in pair.points[j * n : (j + 1) * n]]))
        for j in range(space.n_cells)
    ]
    np.testing.assert_array_equal(bits(pair.cell_condition_numbers()), bits(expected))


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda pts: np.put(pts, 0, -0.5), "not interior"),
        (lambda pts: np.put(pts, 0, 0.9), "cell 0 holds 2 points, expected 3"),
        (lambda pts: np.put(pts, 4, pts[3]), "repeated point in cell 1"),
    ],
)
def test_rejections_match_reference(edit, message):
    space = Space(Grid.uniform(1.0, 4), 2)
    pts = default_interpolation_points(space)
    edit(pts)
    with pytest.raises(IndependenceError) as ref:
        reference_basis_pair(space, pts)
    with pytest.raises(IndependenceError, match=message) as got:
        basis_pair(space, pts)
    assert str(got.value) == str(ref.value)


def test_singular_cell_is_named():
    # Cell 1 is (-2.5, 3): two adjacent floats there map to the same
    # reference coordinate, so the cell's evaluation matrix is exactly singular.
    space = Space(Grid.with_tags(3.0, [-2.5], 6.0), 1)
    x = 1.9000000000000001
    y = math.nextafter(x, math.inf)
    assert x != y
    np.testing.assert_array_equal(space.basis_values(1, x), space.basis_values(1, y))
    pts = default_interpolation_points(space)
    pts[2], pts[3] = x, y
    with pytest.raises(IndependenceError, match="points in cell 1 do not determine a basis"):
        basis_pair(space, pts)
    with pytest.raises(IndependenceError, match="cell 1"):
        reference_basis_pair(space, pts)


def test_nan_rejected_by_batch_and_basis_functions():
    space = Space(Grid.uniform(1.0, 4), 2)
    nan = float("nan")
    u = space.constant(1.0)
    with pytest.raises(InvalidArgumentError, match="NaN"):
        u.sample([0.1, nan])
    with pytest.raises(InvalidArgumentError, match="NaN"):
        delta(space, nan)
    pts = default_interpolation_points(space)
    pts[5] = nan
    with pytest.raises(InvalidArgumentError, match="NaN"):
        basis_pair(space, pts)
