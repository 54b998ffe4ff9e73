"""The block-wise derivative kernel against the dense outer-product assembly.

``DerivOperator.apply`` works cell block by cell block plus one pass over the
edge values.  ``reference_matrix`` below is the dense assembly it replaced:
one block-diagonal cellwise matrix plus, for ``D``, one outer product per
interior node.  ``apply`` must agree with that matrix's product to rounding,
and the cellwise part must agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultracalc import Grid, Space, Ultrafunction, derivative_operator

from strategies import grids


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def reference_matrix(space: Space, kind: str) -> np.ndarray:
    """Dense assembly: cellwise blocks, plus jump-times-node-delta outer products for D."""
    n = space.block_size
    widths = space.grid.widths()
    mat = np.zeros((space.dim, space.dim))
    for j in range(space.n_cells):
        rows = slice(j * n, (j + 1) * n)
        mat[rows, rows] = (2.0 / widths[j]) * space._deriv_ref
    if kind == "D2":
        return mat
    jump_mat = np.zeros((space.dim, space.dim))
    for j in range(1, space.n_cells):
        left = space.right_rows[j - 1]
        right = space.left_rows[j]
        row = np.zeros(space.dim)
        row[(j - 1) * n : j * n] = -left
        row[j * n : (j + 1) * n] = right
        col = np.zeros(space.dim)
        col[(j - 1) * n : j * n] = 0.5 * left
        col[j * n : (j + 1) * n] = 0.5 * right
        jump_mat += np.outer(col, row)
    return mat + jump_mat


def assert_agrees(got, ref, rel: float = 1e-14):
    """``got`` equals ``ref`` to ``rel`` times the largest entry of ``ref``."""
    if np.any(ref):
        assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))
    else:  # p = 0 with D2: the cellwise derivative of a step function
        assert not np.any(got)


spaces = st.builds(Space, grids(), st.integers(0, 6))


@settings(deadline=None, max_examples=60)
@given(space=spaces, kind=st.sampled_from(["D", "D2"]), seed=st.integers(0, 2**32 - 1))
def test_apply_matches_dense_reference(space, kind, seed):
    rng = np.random.default_rng(seed)
    u = Ultrafunction(space, rng.standard_normal((space.n_cells, space.block_size)))
    got = derivative_operator(space, kind).apply(u).coefficients
    assert_agrees(got, reference_matrix(space, kind) @ u.coefficients)


@settings(deadline=None, max_examples=40)
@given(space=spaces)
def test_dense_views_match_reference(space):
    d2 = derivative_operator(space, "D2").matrix
    np.testing.assert_array_equal(bits(d2), bits(reference_matrix(space, "D2")))
    d = derivative_operator(space, "D").matrix
    assert d.shape == (space.dim, space.dim)
    assert_agrees(d, reference_matrix(space, "D"))


@settings(deadline=None, max_examples=40)
@given(space=spaces, seed=st.integers(0, 2**32 - 1))
def test_edge_values_are_side_values(space, seed):
    rng = np.random.default_rng(seed)
    u = Ultrafunction(space, rng.standard_normal((space.n_cells, space.block_size)))
    left, right = space.edges(u.blocks)
    ell = space.n_cells
    np.testing.assert_array_equal(bits(left), bits([u.side_value(j, "plus") for j in range(ell)]))
    np.testing.assert_array_equal(
        bits(right), bits([u.side_value(j, "minus") for j in range(1, ell + 1)])
    )
    jumps = [u.jump(i) for i in range(1, ell)]
    np.testing.assert_array_equal(bits(left[1:] - right[:-1]), bits(jumps))


@pytest.mark.parametrize("degree", range(7))
def test_single_cell_operator_is_cellwise(degree):
    space = Space(Grid.uniform(1.5, 1), degree)
    d = derivative_operator(space, "D").matrix
    d2 = derivative_operator(space, "D2").matrix
    np.testing.assert_array_equal(bits(d), bits(d2))
    np.testing.assert_array_equal(bits(d2), bits(reference_matrix(space, "D2")))


def test_dense_view_is_read_only():
    d = derivative_operator(Space(Grid.uniform(1.0, 3), 2), "D")
    with pytest.raises(ValueError):
        d.matrix[0, 0] = 1.0
