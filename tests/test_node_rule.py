"""The node rule of ``Space`` against the formulas it replaced, bit for bit.

Node values, side limits, jumps, node deltas, edge values and ``D`` each
used to restate which cell's edge row, with which weight, gives a value at a
node.  The ``reference_*`` functions below are those formulas, written out
from the exact unscaled edge values of the orthonormal Legendre basis,
``(+-1)**k * sqrt(k + 1/2)``; every path through the rule must give the same
bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultracalc import (
    DeltaKind,
    Grid,
    InvalidArgumentError,
    Space,
    Ultrafunction,
    delta,
    delta_kind,
    delta_sided,
    derivative_operator,
)

from strategies import grids


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def reference_end(space: Space, side: str) -> np.ndarray:
    """Unscaled reference basis values at the left ("minus") or right ("plus") end."""
    sign = -1.0 if side == "minus" else 1.0
    return np.array([sign**k * math.sqrt(k + 0.5) for k in range(space.block_size)])


def reference_edge(space: Space, j: int, side: str) -> np.ndarray:
    """Basis values of cell ``j`` at its left ("minus") or right ("plus") end."""
    return space._scales[j] * reference_end(space, side)


def reference_side_value(u: Ultrafunction, j: int, side: str) -> float:
    if side == "plus":
        return float(u.blocks[j] @ reference_edge(u.space, j, "minus"))
    return float(u.blocks[j - 1] @ reference_edge(u.space, j - 1, "plus"))


def reference_node_value(u: Ultrafunction, j: int) -> float:
    if j == 0:
        return reference_side_value(u, 0, "plus")
    if j == u.space.n_cells:
        return reference_side_value(u, j, "minus")
    return 0.5 * (reference_side_value(u, j, "minus") + reference_side_value(u, j, "plus"))


def reference_delta(space: Space, j: int, side: str | None) -> np.ndarray:
    blocks = np.zeros((space.n_cells, space.block_size))
    if side == "plus" or (side is None and j == 0):
        blocks[j] = reference_edge(space, j, "minus")
    elif side == "minus" or j == space.n_cells:
        blocks[j - 1] = reference_edge(space, j - 1, "plus")
    else:
        blocks[j - 1] = 0.5 * reference_edge(space, j - 1, "plus")
        blocks[j] = 0.5 * reference_edge(space, j, "minus")
    return blocks


def reference_kind(space: Space, j: int, side: str | None) -> DeltaKind:
    if side == "plus":
        return DeltaKind.NODE_PLUS
    if side == "minus":
        return DeltaKind.NODE_MINUS
    if j == 0:
        return DeltaKind.ENDPOINT_LEFT
    if j == space.n_cells:
        return DeltaKind.ENDPOINT_RIGHT
    return DeltaKind.NODE_AVERAGE


def reference_edges(space: Space, blocks: np.ndarray):
    scales = space._scales[:, None]
    return (
        np.vecdot(blocks, scales * reference_end(space, "minus")),
        np.vecdot(blocks, scales * reference_end(space, "plus")),
    )


def reference_apply(space: Space, kind: str, blocks: np.ndarray) -> np.ndarray:
    out = blocks @ space._deriv_ref.T
    out *= (2.0 / space._widths)[:, None]
    if kind == "D":
        left, right = reference_edges(space, blocks)
        across_left = np.concatenate([left[..., :1], right[..., :-1]], axis=-1)
        across_right = np.concatenate([left[..., 1:], right[..., -1:]], axis=-1)
        minus = space._scales[:, None] * reference_end(space, "minus")
        plus = space._scales[:, None] * reference_end(space, "plus")
        own = left[..., None] * minus - right[..., None] * plus
        coupling = across_right[..., None] * plus - across_left[..., None] * minus
        out += 0.5 * (own + coupling)
    return out


@settings(deadline=None, max_examples=60)
@given(grid=grids(), degree=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
def test_node_rule_paths_match_the_references(grid, degree, seed):
    space = Space(grid, degree)
    rng = np.random.default_rng(seed)
    u = Ultrafunction(space, rng.standard_normal((space.n_cells, space.block_size)))
    ell = space.n_cells
    for j in range(ell + 1):
        assert bits(u.node_value(j)) == bits(reference_node_value(u, j))
        q = float(grid.nodes[j])
        np.testing.assert_array_equal(bits(delta(space, q).blocks), bits(reference_delta(space, j, None)))
        assert delta_kind(space, q) is reference_kind(space, j, None)
        sides = (["plus"] if j < ell else []) + (["minus"] if j > 0 else [])
        for side in sides:
            assert delta_kind(space, q, side) is reference_kind(space, j, side)
            assert bits(u.side_value(j, side)) == bits(reference_side_value(u, j, side))
            np.testing.assert_array_equal(
                bits(delta_sided(space, j, side).blocks), bits(reference_delta(space, j, side))
            )
        if 0 < j < ell:
            ref_jump = reference_side_value(u, j, "plus") - reference_side_value(u, j, "minus")
            assert bits(u.jump(j)) == bits(ref_jump)
    for got, ref in zip(space.edges(u.blocks), reference_edges(space, u.blocks)):
        np.testing.assert_array_equal(bits(got), bits(ref))
    for kind in ("D", "D2"):
        got = derivative_operator(space, kind).apply(u).blocks
        np.testing.assert_array_equal(bits(got), bits(reference_apply(space, kind, u.blocks)))


def test_edge_rows_are_read_only():
    space = Space(Grid.uniform(1.0, 3), 2)
    for rows in (space.left_rows, space.right_rows):
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda u: u.side_value(-1, "plus"),
        lambda u: u.node_value(5),
        lambda u: u.node_value(-1),
        lambda u: u.side_value(6, "minus"),
        lambda u: u.side_value(5, "minus"),
        lambda u: delta_sided(u.space, -1, "plus"),
        lambda u: delta_sided(u.space, 5, "minus"),
        lambda u: u.node_value(1.5),
        lambda u: u.jump(2.0),
        lambda u: u.node_value(True),
        lambda u: u.jump(True),
        lambda u: u.side_value(np.True_, "plus"),
        lambda u: delta_sided(u.space, True, "plus"),
        lambda u: u.space.node_terms(False),
    ],
    ids=["side-plus-at-minus-1", "node-5", "node-minus-1", "side-minus-at-6",
         "side-minus-at-5", "delta-plus-at-minus-1", "delta-minus-at-5", "node-1.5", "jump-2.0",
         "node-True", "jump-True", "side-np.True_", "delta-plus-at-True", "node-terms-False"],
)
def test_node_index_outside_the_grid_is_refused(call):
    # 4 cells: nodes 0..4
    u = Space(Grid.uniform(1.0, 4), 2).constant(1.0)
    with pytest.raises(InvalidArgumentError, match=r"node index must be an integer in \[0, 4\]"):
        call(u)


@pytest.mark.parametrize("j", [0, 4])
def test_jump_at_an_end_node_is_refused(j):
    u = Space(Grid.uniform(1.0, 4), 2).constant(1.0)
    with pytest.raises(InvalidArgumentError, match=f"no cell on the (plus|minus) side of node {j}"):
        u.jump(j)


@pytest.mark.parametrize("side", [None, "up"])
def test_side_must_be_plus_or_minus(side):
    space = Space(Grid.uniform(1.0, 4), 2)
    with pytest.raises(InvalidArgumentError, match="side must be"):
        space.constant(1.0).side_value(2, side)
    with pytest.raises(InvalidArgumentError, match="side must be"):
        delta_sided(space, 2, side)


def test_delta_kind_refuses_an_unknown_side_at_a_node():
    # it used to fall through to the node-average kind
    with pytest.raises(InvalidArgumentError, match="side must be"):
        delta_kind(Space(Grid.uniform(1.0, 4), 2), 0.5, "up")
