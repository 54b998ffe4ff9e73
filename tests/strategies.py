"""Hypothesis grids shared by the batch-against-scalar test modules."""

import math

import numpy as np
from hypothesis import reject
from hypothesis import strategies as st

from ultracalc import Grid, InvalidArgumentError, Space, refine
from ultracalc.grid import SNAP_REL


def tagged_nodes(beta: float, tags, fill: float) -> np.ndarray:
    """The nodes ``Grid.with_tags`` builds, without the constructor's check."""
    anchors = [-beta, *sorted(set(tags)), beta]
    nodes = [anchors[0]]
    for a, b in zip(anchors[:-1], anchors[1:]):
        parts = max(1, math.ceil((b - a) / fill - 1e-12))
        nodes += [a + (b - a) * i / parts for i in range(1, parts)] + [b]
    return np.array(nodes)


def assert_a_cell_is_within_the_snap_windows(nodes: np.ndarray) -> None:
    window = SNAP_REL * np.maximum(1.0, np.abs(nodes))
    assert np.any(np.diff(nodes) <= window[:-1] + window[1:]), nodes


@st.composite
def tag_lists(draw, bound: float = 0.99):
    """Tags in ``[-bound, bound]`` in any order: the list may be empty, and
    tags may repeat (``0.0`` and ``-0.0`` count as one tag)."""
    tags = draw(st.lists(st.floats(-bound, bound), max_size=6))
    repeats = draw(st.lists(st.sampled_from(tags), max_size=3)) if tags else []
    return draw(st.permutations(tags + repeats))


@st.composite
def grids(draw):
    """Tagged grids on ``[-beta, beta]``, then up to three dyadic splits.

    ``beta`` is log-uniform in ``[1e-12, 1e12]`` and the base grid has up to
    ``64 >> levels`` fill cells.  A draw the constructor refuses is checked
    to hold a cell within the snap windows before it is rejected.
    """
    beta = 10.0 ** draw(st.floats(-12.0, 12.0))
    tags = [beta * t for t in draw(tag_lists())]
    levels = draw(st.integers(0, 3))
    fill = 2.0 * beta / draw(st.integers(1, 64 >> levels))
    try:
        grid = Grid.with_tags(beta, tags, fill)
    except InvalidArgumentError:
        assert_a_cell_is_within_the_snap_windows(tagged_nodes(beta, tags, fill))
        reject()
    for _ in range(levels):
        try:
            grid = refine(Space(grid, 0), "dyadic-split").grid
        except InvalidArgumentError:
            mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
            assert_a_cell_is_within_the_snap_windows(np.sort(np.concatenate([grid.nodes, mids])))
            reject()
    return grid
