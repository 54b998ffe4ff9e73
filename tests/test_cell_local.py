"""Cell-local members (deltas, basis-pair members, splitted-basis elements).

These members store only the blocks of the one or two cells they live on and
build the dense ``blocks`` array on first read.  The ``reference_*``
builders below are the zeros-and-assign constructions they replaced; every
dense view must equal them bit for bit, sign of zero included.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultracalc import (
    Grid,
    IndependenceError,
    InvalidArgumentError,
    Space,
    Ultrafunction,
    basis_pair,
    default_interpolation_points,
    delta,
    delta_sided,
)
from ultracalc.grid import PointKind

from strategies import grids


def reference_delta(space: Space, q: float) -> Ultrafunction:
    kind, j = space.grid._find(q)
    if kind is PointKind.OUTSIDE:
        raise InvalidArgumentError(f"center {q!r} lies outside the support")
    if kind is PointKind.NODE:
        return reference_node_delta(space, *space.node_terms(j))
    blocks = np.zeros((space.n_cells, space.block_size))
    blocks[j] = space.basis_values(j, q)
    return Ultrafunction(space, blocks)


def reference_node_delta(space: Space, weight: float, terms) -> Ultrafunction:
    blocks = np.zeros((space.n_cells, space.block_size))
    for cell, row in terms:
        blocks[cell] = weight * row
    return Ultrafunction(space, blocks)


def reference_pair_member(pair, j: int, block: np.ndarray) -> Ultrafunction:
    blocks = np.zeros(pair.cols.shape)
    blocks[j] = block
    return Ultrafunction(pair.space, blocks)


def reference_element(space: Space, j: int, k: int) -> Ultrafunction:
    blocks = np.zeros((space.n_cells, space.block_size))
    blocks[j, k] = 1.0
    return Ultrafunction(space, blocks)


def assert_same_member(got: Ultrafunction, ref: Ultrafunction) -> None:
    assert got.space is ref.space
    dense = got.blocks
    assert dense is got.blocks
    assert dense.shape == ref.blocks.shape and dense.dtype == np.float64
    assert np.array_equal(dense, ref.blocks)
    assert np.array_equal(np.signbit(dense), np.signbit(ref.blocks))
    assert not dense.flags.writeable


def centres(grid: Grid, draws) -> list[float]:
    """Drawn interior points, every node, +-0.0 and 1-3 ulps either side of every node."""
    qs = [grid.beta * t for t in draws] + [0.0, -0.0]
    for node in grid.nodes.tolist():
        qs.append(node)
        for direction in (-math.inf, math.inf):
            x = node
            for _ in range(3):
                x = math.nextafter(x, direction)
                qs.append(x)
    return [q for q in qs if grid._find(q)[0] is not PointKind.OUTSIDE]


@settings(deadline=None, max_examples=60)
@given(grid=grids(), degree=st.integers(0, 12),
       draws=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
def test_cell_local_members_match_the_dense_references(grid, degree, draws):
    space = Space(grid, degree)
    for q in centres(grid, draws):
        assert_same_member(delta(space, q), reference_delta(space, q))
    ell = space.n_cells
    for j in range(ell + 1):
        for side in (["plus"] if j < ell else []) + (["minus"] if j > 0 else []):
            assert_same_member(
                delta_sided(space, j, side), reference_node_delta(space, *space.node_terms(j, side))
            )
    basis = space.splitted_basis()
    for j in {0, ell // 2, ell - 1}:
        for k in range(space.block_size):
            assert_same_member(basis.element(j, k), reference_element(space, j, k))
    try:
        pair = basis_pair(space)
    except IndependenceError:  # Gauss points that snap onto a node on very narrow cells
        return
    for i in range(0, pair.size, max(1, pair.size // 16)):
        j, a = pair._slot(i)
        assert_same_member(pair.delta_at(i), reference_pair_member(pair, j, pair.evals[j, a]))
        assert_same_member(pair.cardinal_at(i), reference_pair_member(pair, j, pair.dual[j, :, a]))


@pytest.mark.parametrize("degree", [0, 1, 4])
def test_one_sided_and_boundary_deltas_match_the_weighted_rows(degree):
    # with_tags keeps the tag -0.0 as a node; a one-sided delta holds its
    # read-only edge row, where the reference multiplies it by 1.0
    space = Space(Grid.with_tags(1.0, [-0.0, 0.3, -0.55], 0.25), degree)
    nodes = space.grid.nodes
    assert nodes[5] == 0.0 and np.signbit(nodes[5])
    ell = space.n_cells
    for j in range(ell + 1):
        for side in (["plus"] if j < ell else []) + (["minus"] if j > 0 else []):
            got = delta_sided(space, j, side)
            ((cell, row),) = got._terms
            assert np.shares_memory(row, space.left_rows if side == "plus" else space.right_rows)
            assert_same_member(got, reference_node_delta(space, *space.node_terms(j, side)))
    for q in (float(nodes[0]), float(nodes[-1]), -0.0):
        assert_same_member(delta(space, q), reference_delta(space, q))


def test_negative_zeros_of_pair_members_are_kept():
    # at p=8 on three uniform cells the solve leaves a -0.0 in one cardinal block
    pair = basis_pair(Space(Grid.uniform(1.0, 3), 8))
    refs = []
    for i in range(pair.size):
        j, a = pair._slot(i)
        for got, block in ((pair.delta_at(i), pair.evals[j, a]),
                           (pair.cardinal_at(i), pair.dual[j, :, a])):
            ref = reference_pair_member(pair, j, block)
            assert_same_member(got, ref)
            refs.append(ref.blocks)
    assert any(np.any(np.signbit(b) & (b == 0.0)) for b in refs)


def reference_slot(pair, i: int) -> tuple[int, int]:
    """The scan ``_slot`` replaced: the first position of ``i`` in ``cols``."""
    return divmod(int(np.flatnonzero(pair.cols.ravel() == i)[0]), pair.cols.shape[1])


@settings(deadline=None, max_examples=40)
@given(grid=grids(), degree=st.integers(0, 6), shuffle=st.none() | st.integers(0, 2**32 - 1))
def test_slot_inverts_cols_as_the_scan_did(grid, degree, shuffle):
    space = Space(grid, degree)
    points = default_interpolation_points(space)
    if shuffle is not None:  # user points in any order, so cols is not sorted
        points = np.random.default_rng(shuffle).permutation(points)
    try:
        pair = basis_pair(space, points)
    except IndependenceError:  # Gauss points that snap onto a node on very narrow cells
        return
    for i in range(pair.size):
        j, a = pair._slot(i)
        assert (j, a) == reference_slot(pair, i) and type(j) is type(a) is int
        assert_same_member(pair.delta_at(i), reference_pair_member(pair, j, pair.evals[j, a]))
        assert_same_member(pair.cardinal_at(i), reference_pair_member(pair, j, pair.dual[j, :, a]))
    assert not pair._where.flags.writeable


@pytest.mark.parametrize(
    "build",
    [lambda sp: delta(sp, 0.3), lambda sp: delta(sp, 0.0), lambda sp: delta_sided(sp, 2, "minus"),
     lambda sp: basis_pair(sp).delta_at(5), lambda sp: basis_pair(sp).cardinal_at(5),
     lambda sp: sp.splitted_basis().element(1, 2)],
    ids=["interior", "node", "sided", "delta_at", "cardinal_at", "element"],
)
def test_dense_view_is_cached_and_read_only(build):
    u = build(Space(Grid.uniform(1.0, 4), 2))
    assert u.blocks is u.blocks
    assert u.coefficients.base is u.blocks
    with pytest.raises(ValueError):
        u.blocks[0, 0] = 1.0
    with pytest.raises(AttributeError, match="immutable"):
        u.blocks = np.zeros((4, 3))
    with pytest.raises(AttributeError):
        u.no_such_attribute


def test_held_deltas_store_no_dense_array():
    # a dense (65536, 3) block array takes 1.5 MiB; 128 of them would take 192 MiB
    space = Space(Grid.uniform(1.0, 65536), 2)
    rng = np.random.default_rng(0)
    points = rng.uniform(-1.0, 1.0, 64).tolist()
    nodes = rng.integers(1, 65536, 64).tolist()
    tracemalloc.start()
    try:
        held = [delta(space, q) for q in points]
        held += [delta_sided(space, j, side) for j, side in zip(nodes, ["plus", "minus"] * 32)]
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(held) == 128
    assert current < 2**20


def test_first_read_allocates_one_dense_array():
    space = Space(Grid.uniform(1.0, 65536), 2)
    dense = space.n_cells * space.block_size * 8
    tracemalloc.start()
    try:
        u = delta(space, 0.123)
        blocks = u.blocks
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocks.nbytes == dense
    assert dense <= current < 1.1 * dense
    assert peak < 1.1 * dense
