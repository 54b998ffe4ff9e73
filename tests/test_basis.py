import tracemalloc

import numpy as np
import pytest

from ultracalc import (
    DeltaKind,
    Grid,
    IndependenceError,
    InvalidArgumentError,
    Space,
    Ultrafunction,
    basis_pair,
    default_interpolation_points,
    delta,
    delta_kind,
    delta_sided,
    parse_expression,
    project_via_basis,
)
from ultracalc.verify import run_suites


@pytest.fixture
def space():
    return Space(Grid.uniform(1.0, 4), 2)


def random_member(space, rng):
    return Ultrafunction(space, rng.standard_normal((space.n_cells, space.block_size)))


def test_constant_kernel_on_unit_cell():
    # p = 0, cell (0, 1): the reproducing kernel is the constant 1
    sp = Space(Grid.with_tags(1.0, [0.0], 1.0), 0)
    d = delta(sp, 0.5)
    assert d(0.5) == pytest.approx(1.0, abs=1e-13)
    assert d(-0.5) == 0.0
    # it reproduces every constant on that cell
    v = sp.grid_function(np.array([0.0, 3.0]))
    assert v.inner(d) == pytest.approx(3.0, abs=1e-13)


def test_delta_reproduces_point_values(space):
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = random_member(space, rng)
        q = float(rng.uniform(-1.0, 1.0))
        q = space.grid.snap(q)
        assert abs(u.inner(delta(space, q)) - u(q)) <= 1e-10 * (1.0 + u.norm())


def test_delta_reproduces_at_nodes_and_endpoints(space):
    rng = np.random.default_rng(4)
    u = random_member(space, rng)
    for q in space.grid.nodes:
        assert abs(u.inner(delta(space, float(q))) - u(float(q))) <= 1e-11 * (
            1.0 + u.norm()
        )


def test_delta_symmetry(space):
    rng = np.random.default_rng(6)
    for _ in range(50):
        a, b = (space.grid.snap(float(x)) for x in rng.uniform(-1.0, 1.0, size=2))
        assert abs(delta(space, a)(b) - delta(space, b)(a)) <= 1e-10


def test_delta_norm_squared_is_center_value(space):
    for q in (-1.0, -0.62, 0.0, 0.11, 0.5, 1.0):
        d = delta(space, q)
        assert abs(d.norm() ** 2 - d(q)) <= 1e-10


def test_delta_outside_support_rejected(space):
    with pytest.raises(InvalidArgumentError):
        delta(space, 1.7)


def test_delta_kinds(space):
    assert delta_kind(space, 0.3) is DeltaKind.INTERIOR
    assert delta_kind(space, 0.5) is DeltaKind.NODE_AVERAGE
    assert delta_kind(space, -1.0) is DeltaKind.ENDPOINT_LEFT
    assert delta_kind(space, 1.0) is DeltaKind.ENDPOINT_RIGHT
    assert delta_kind(space, 0.5, "plus") is DeltaKind.NODE_PLUS
    assert delta_kind(space, 0.5, "minus") is DeltaKind.NODE_MINUS


def test_sided_deltas_reproduce_one_sided_limits(space):
    step = space.indicator(0.0, 1.0)
    dm = delta_sided(space, 2, "minus")
    dp = delta_sided(space, 2, "plus")
    assert step.inner(dm) == pytest.approx(0.0, abs=1e-13)
    assert step.inner(dp) == pytest.approx(1.0, abs=1e-13)


def test_node_delta_is_half_sum_of_sided(space):
    for j in range(1, space.n_cells):
        q = float(space.grid.nodes[j])
        half_sum = 0.5 * (delta_sided(space, j, "minus") + delta_sided(space, j, "plus"))
        assert np.max(np.abs(delta(space, q).blocks - half_sum.blocks)) <= 1e-14


def test_sided_deltas_agree_on_continuous_members(space):
    u = space.from_polynomial([1.0, 0.5, -0.2])
    for j in range(1, space.n_cells):
        assert u.inner(delta_sided(space, j, "plus")) == pytest.approx(
            u.inner(delta_sided(space, j, "minus")), abs=1e-12
        )


def test_sided_delta_unavailable_at_boundary(space):
    with pytest.raises(InvalidArgumentError):
        delta_sided(space, 0, "minus")
    with pytest.raises(InvalidArgumentError):
        delta_sided(space, space.n_cells, "plus")


def test_interior_delta_support_is_one_block(space):
    d = delta(space, 0.3)
    nz = np.nonzero(np.any(d.blocks != 0.0, axis=1))[0]
    assert list(nz) == [2]


def test_node_delta_support_is_two_adjacent_blocks(space):
    d = delta(space, 0.0)
    nz = np.nonzero(np.any(d.blocks != 0.0, axis=1))[0]
    assert list(nz) == [1, 2]


def test_far_deltas_exactly_orthogonal(space):
    a, b = -0.8, 0.71  # cells 0 and 3: not adjacent
    assert delta(space, a).inner(delta(space, b)) == 0.0


def test_delta_uniquely_determined(space):
    # independent oracle: solve the full reproduction system with the
    # assembled Gram matrix instead of using the kernel construction
    gram = np.kron(np.eye(space.n_cells), space.splitted_basis().gram_matrix())
    for q in (0.3, -0.62):
        evals = np.concatenate(
            [space.basis_values(j, q) if space.grid.locate(q).index == j else np.zeros(space.block_size) for j in range(space.n_cells)]
        )
        solved = np.linalg.solve(gram, evals)
        assert np.max(np.abs(solved - delta(space, q).coefficients)) <= 1e-10


def test_default_points_are_cell_midpoints_for_p0():
    sp = Space(Grid.uniform(1.0, 4), 0)
    np.testing.assert_allclose(
        default_interpolation_points(sp), [-0.75, -0.25, 0.25, 0.75], atol=1e-15
    )


def test_default_points_count_and_interiority(space):
    pts = default_interpolation_points(space)
    assert pts.size == space.dim
    for q in pts:
        assert space.grid.locate(float(q)).is_interior


def test_p0_pair_has_reciprocal_width_delta_and_unit_cardinal():
    sp = Space(Grid.uniform(1.0, 4), 0)  # cells of width 1/2
    pair = basis_pair(sp)
    d0 = pair.delta_at(0)
    c0 = pair.cardinal_at(0)
    assert d0(-0.75) == pytest.approx(2.0, abs=1e-13)  # 1 / h
    assert c0(-0.75) == pytest.approx(1.0, abs=1e-13)
    assert d0.inner(c0) == pytest.approx(1.0, abs=1e-13)


def test_duality_matrix_is_identity(space):
    pair = basis_pair(space)
    assert np.max(np.abs(pair.duality_matrix() - np.eye(space.block_size))) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_duality_matrix_equals_pairwise_inner_products(seed):
    # each cell's block must give the bits of one `inner` call per pair,
    # and members of different cells must pair to exactly zero
    rng = np.random.default_rng(seed)
    ell, p = int(rng.integers(2, 24)), int(rng.integers(0, 6))
    h = 2.0 / ell
    tags = -1.0 + h * (np.arange(1, ell) + rng.uniform(-0.3, 0.3, size=ell - 1))
    pair = basis_pair(Space(Grid.with_tags(1.0, tags.tolist(), 1.6 * h), p))
    deltas = [pair.delta_at(a) for a in range(pair.size)]
    cards = [pair.cardinal_at(b) for b in range(pair.size)]
    loop = np.array([[d.inner(c) for c in cards] for d in deltas])
    duality = pair.duality_matrix()
    same_cell = np.zeros(loop.shape, dtype=bool)
    for j, cols in enumerate(pair.cols):
        assert duality[j].tobytes() == loop[np.ix_(cols, cols)].tobytes()
        same_cell[np.ix_(cols, cols)] = True
    assert np.all(loop[~same_cell] == 0.0)


def test_cardinal_point_values(space):
    pair = basis_pair(space)
    for a in range(pair.size):
        ca = pair.cardinal_at(a)
        for b in range(pair.size):
            expected = 1.0 if a == b else 0.0
            assert abs(ca(float(pair.points[b])) - expected) <= 1e-10


def test_duplicate_point_rejected(space):
    pts = default_interpolation_points(space)
    pts[1] = pts[0]
    with pytest.raises(IndependenceError):
        basis_pair(space, pts)


def test_wrong_per_cell_count_rejected(space):
    pts = default_interpolation_points(space)
    pts[0] = 0.9  # moves a point from cell 0 into cell 3
    with pytest.raises(IndependenceError):
        basis_pair(space, pts)


def test_node_point_rejected(space):
    pts = default_interpolation_points(space)
    pts[0] = -0.5
    with pytest.raises(IndependenceError):
        basis_pair(space, pts)


def test_interpolation_roundtrip(space):
    rng = np.random.default_rng(8)
    pair = basis_pair(space)
    for _ in range(20):
        u = random_member(space, rng)
        v = pair.interpolate(u.sample(pair.points))
        assert np.max(np.abs(u.blocks - v.blocks)) <= 1e-10


def test_members_equal_on_points_are_equal(space):
    rng = np.random.default_rng(9)
    pair = basis_pair(space)
    u = random_member(space, rng)
    v = pair.interpolate(u.sample(pair.points))
    xs = rng.uniform(-1.0, 1.0, size=50)
    for x in xs:
        assert abs(u(float(x)) - v(float(x))) <= 1e-9


def test_zero_values_give_zero_member(space):
    pair = basis_pair(space)
    z = pair.interpolate(np.zeros(pair.size))
    assert np.all(z.blocks == 0.0)


def test_cardinal_well_defined_across_point_sets_for_constant_cells():
    # degree 0: the cardinal member at q is the indicator of q's cell, so it
    # cannot depend on where the other cells place their points
    sp = Space(Grid.uniform(1.0, 4), 0)
    pts1 = default_interpolation_points(sp)
    pts2 = pts1.copy()
    pts2[1:] = pts1[1:] + 0.1  # still interior to their cells
    pair1 = basis_pair(sp, pts1)
    pair2 = basis_pair(sp, pts2)
    assert np.max(np.abs(pair1.cardinal_coeffs[:, 0] - pair2.cardinal_coeffs[:, 0])) <= 1e-10


def test_cardinal_depends_on_point_set_for_higher_degree(space):
    # degree >= 1: the cardinal member at q is the Lagrange cardinal
    # polynomial of the cell's whole point set, so moving the other points
    # of the cell changes it; the shared point pins only its own value
    pts1 = default_interpolation_points(space)
    pts2 = pts1.copy()
    cell0 = slice(0, space.block_size)
    a, b = space.grid.cell_bounds(0)
    pts2[cell0] = np.linspace(a, b, space.block_size + 2)[1:-1]
    pts2[0] = pts1[0]
    pair1 = basis_pair(space, pts1)
    pair2 = basis_pair(space, pts2)
    diff = np.max(np.abs(pair1.cardinal_coeffs[:, 0] - pair2.cardinal_coeffs[:, 0]))
    assert diff > 1e-3
    # both stay cardinal at the shared point
    q = float(pts1[0])
    assert pair1.cardinal_at(0)(q) == pytest.approx(1.0, abs=1e-10)
    assert pair2.cardinal_at(0)(q) == pytest.approx(1.0, abs=1e-10)


def test_cell_condition_numbers_reported(space):
    pair = basis_pair(space)
    cond = pair.cell_condition_numbers()
    assert cond.shape == (space.n_cells,)
    assert np.all(cond >= 1.0)


def per_cell_condition_numbers(space, points):
    """Condition numbers with the points grouped by ``Grid.locate``, cell by cell."""
    per_cell = {j: [] for j in range(space.n_cells)}
    for q in points:
        per_cell[space.grid.locate(float(q)).index].append(float(q))
    return np.array([
        np.linalg.cond(np.array([space.basis_values(j, q) for q in qs]))
        for j, qs in per_cell.items()
    ])


def test_cell_condition_numbers_follow_cells_for_shuffled_points(space):
    # each cell's matrix must be built from that cell's own points, whatever
    # order the points come in
    pts = np.random.default_rng(0).permutation(default_interpolation_points(space))
    cond = basis_pair(space, pts).cell_condition_numbers()
    np.testing.assert_allclose(cond, basis_pair(space).cell_condition_numbers(), rtol=1e-12)
    np.testing.assert_allclose(cond, per_cell_condition_numbers(space, pts), rtol=1e-12)


@pytest.mark.parametrize("member", ["delta_at", "cardinal_at"])
def test_member_index_out_of_range_rejected(space, member):
    pair = basis_pair(space)
    for i in (-1, pair.size, True, np.True_, 1.5, 1.0):
        with pytest.raises(InvalidArgumentError, match="point index"):
            getattr(pair, member)(i)
    assert np.array_equal(getattr(pair, member)(np.int64(1)).blocks, getattr(pair, member)(1).blocks)


def test_members_of_shuffled_points_follow_their_point():
    sp = Space(Grid.uniform(1.0, 4), 0)
    pts = default_interpolation_points(sp)[::-1].copy()
    pair = basis_pair(sp, pts)
    for i, q in enumerate(pts):
        assert pair.cardinal_at(i)(float(q)) == pytest.approx(1.0, abs=1e-13)
        assert pair.delta_at(i)(float(q)) == pytest.approx(2.0, abs=1e-13)  # 1 / h


def test_basis_operations_stay_cell_local_in_memory():
    # every basis operation works on (ell, n, n) stacks: at ell=2048 p=2 a
    # single dense dim x dim matrix would take 302 MB
    space = Space(Grid.uniform(1.0, 2048), 2)
    f = parse_expression("sin(x)")
    tracemalloc.start()
    try:
        pair = basis_pair(space)
        pair.interpolate(np.linspace(-1.0, 1.0, pair.size))
        pair.duality_matrix()
        pair.cell_condition_numbers()
        pair.delta_at(pair.size - 1)
        pair.cardinal_at(0)
        for weights in ("delta", "sigma"):
            project_via_basis(pair, f, weights=weights)
        run_suites(space, "sigma", 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_delta_reproduction_on_non_uniform_grid():
    # unequal cell widths exercise the per-cell kernel scalings, in
    # particular the half-sum at nodes separating cells of different size
    sp = Space(Grid.with_tags(1.0, [-0.3, 0.2, 0.55], 0.4), 2)
    rng = np.random.default_rng(12)
    points = list(sp.grid.nodes) + list(rng.uniform(-1.0, 1.0, size=20))
    for _ in range(10):
        u = random_member(sp, rng)
        for q in points:
            q = sp.grid.snap(float(q))
            assert abs(u.inner(delta(sp, q)) - u(q)) <= 1e-10 * (1.0 + u.norm())


def test_duality_on_non_uniform_grid():
    sp = Space(Grid.with_tags(1.0, [-0.3, 0.2, 0.55], 0.4), 1)
    pair = basis_pair(sp)
    assert np.max(np.abs(pair.duality_matrix() - np.eye(sp.block_size))) <= 1e-10


@pytest.mark.parametrize("k", [2.5, 10.0, 100.0])
@pytest.mark.parametrize("degree", range(7))
def test_default_points_of_a_cell_a_few_snap_windows_wide_stay_interior(k, degree):
    # the cell [0, k * 2**-40] is k snap windows wide; the grid accepts it
    space = Space(Grid([-1.0, 0.0, k * 2.0**-40, 1.0]), degree)
    pair = basis_pair(space)
    assert np.max(np.abs(pair.duality_matrix() - np.eye(degree + 1))) <= 1e-10


@pytest.mark.parametrize(
    "grid",
    [Grid.uniform(1.0, 16), Grid.with_tags(3.0, [-2.9, 0.01, 1e-9, 2.5], 0.4), Grid([-1e6, -1.0, 1e-3, 7.0, 1e6])],
)
@pytest.mark.parametrize("degree", [0, 2, 6, 12])
def test_default_points_are_the_mapped_gauss_abscissae_on_ordinary_grids(grid, degree):
    t, _ = np.polynomial.legendre.leggauss(degree + 1)
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    want = (mids[:, None] + 0.5 * grid.widths()[:, None] * t).ravel()
    got = default_interpolation_points(Space(grid, degree))
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
