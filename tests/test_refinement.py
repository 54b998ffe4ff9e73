import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ultracalc import (
    Grid,
    InsufficientDataError,
    InvalidArgumentError,
    Ladder,
    Space,
    l2_error,
    project,
    refine,
)
from ultracalc.refinement import POLICIES
from ultracalc.serialize import grid_from_dict, grid_to_dict

from strategies import grids


def test_dyadic_split_of_uniform_grid():
    sp = Space(Grid.uniform(1.0, 4), 1)
    nxt = refine(sp, "dyadic-split")
    np.testing.assert_allclose(nxt.grid.nodes, Grid.uniform(1.0, 8).nodes)
    assert nxt.grid.h_max == 0.25


def test_beta_growth_preserves_nodes():
    sp = Space(Grid.uniform(1.0, 4), 1)
    nxt = refine(sp, "beta-growth", factor=2.0)
    assert nxt.grid.beta == 2.0
    old = set(sp.grid.nodes.tolist())
    assert old.issubset(set(nxt.grid.nodes.tolist()))
    assert nxt.grid.h_max == sp.grid.h_max


def test_beta_growth_with_fractional_factor_on_tagged_grid():
    sp = Space(Grid.with_tags(1.0, [0.3], 0.5), 1)
    nxt = refine(sp, "beta-growth", factor=1.7)
    assert nxt.grid.beta == pytest.approx(1.7)
    assert set(sp.grid.nodes.tolist()).issubset(set(nxt.grid.nodes.tolist()))
    assert np.max(np.diff(nxt.grid.nodes)) <= sp.grid.h_max * (1 + 1e-12)


def test_beta_growth_reads_only_the_nodes():
    # the fill bound 0.5 is not part of the grid: a grid read back from its
    # JSON equals it and grows the same way
    g = Grid.with_tags(1.0, [0.1], 0.5)
    g2 = grid_from_dict(grid_to_dict(g))
    assert g == g2
    grown = refine(Space(g, 1), "beta-growth").grid
    assert grown == refine(Space(g2, 1), "beta-growth").grid
    assert grown.nodes.size == 12
    assert grown.h_max == g.h_max


@settings(max_examples=60, deadline=None)
@given(grid=grids(), factor=st.floats(1.25, 4.0))
def test_beta_growth_tags_the_old_nodes(grid, factor):
    try:
        grown = refine(Space(grid, 1), "beta-growth", factor=factor).grid
    except InvalidArgumentError:
        # only on a support a few snap windows (2**-40 below 1) wide
        assert grid.beta < 2.0**-30
        reject()
    assert grown == Grid.with_tags(factor * grid.beta, grid.nodes, grid.h_max)
    # every old node is kept bit for bit, and no new cell is wider (up to rounding)
    assert np.isin(grid.nodes, grown.nodes).all()
    assert grown.h_max <= grid.h_max * (1 + 1e-12)


@pytest.mark.parametrize("policy", POLICIES)
def test_refine_returns_a_space_of_the_same_degree(policy):
    sp = Space(Grid.with_tags(1.0, [0.3], 0.5), 2)
    nxt = refine(sp, policy)
    assert isinstance(nxt, Space)
    assert nxt.degree == sp.degree + (policy == "degree-raise")


def test_dyadic_split_stops_at_the_snap_windows():
    sp = Space(Grid.uniform(1e-9, 4), 1)
    for _ in range(8):
        sp = refine(sp, "dyadic-split")
    with pytest.raises(InvalidArgumentError, match="snap windows"):
        refine(sp, "dyadic-split")


def test_degree_raise_doubles_dim_from_p0():
    sp = Space(Grid.uniform(1.0, 4), 0)
    nxt = refine(sp, "degree-raise")
    assert nxt.grid == sp.grid
    assert nxt.dim == 2 * sp.dim


def test_unknown_policy_rejected():
    sp = Space(Grid.uniform(1.0, 4), 0)
    with pytest.raises(InvalidArgumentError):
        refine(sp, "bisect")


def test_node_sets_form_a_chain():
    sp = Space(Grid.with_tags(1.0, [0.3], 0.5), 1)
    ladder = Ladder.from_base(sp, 4, "dyadic-split")
    for prev, nxt in zip(ladder.stages[:-1], ladder.stages[1:]):
        assert set(prev.grid.nodes.tolist()).issubset(set(nxt.grid.nodes.tolist()))
        assert nxt.grid.h_max <= prev.grid.h_max
        assert nxt.grid.beta >= prev.grid.beta


def test_polynomial_projection_stable_across_stages():
    coeffs = [0.5, -1.0, 0.25]
    f = lambda x: float(np.polynomial.polynomial.polyval(x, coeffs))
    ladder = Ladder.from_base(Space(Grid.uniform(1.0, 4), 2), 4, "dyadic-split")
    xs = [-0.77, -0.1, 0.33, 0.9]
    reference = None
    for stage in ladder.stages:
        u = project(stage, f)
        values = [u(x) for x in xs]
        if reference is None:
            reference = values
        for got, want in zip(values, reference):
            assert abs(got - want) <= 1e-12


def test_observe_projection_error_order():
    ladder = Ladder.from_base(Space(Grid.uniform(1.0, 4), 1), 4, "dyadic-split")
    rows = ladder.observe(
        lambda sp: l2_error(math.sin, project(sp, math.sin)), target=0.0
    )
    orders = [r.order for r in rows if r.order is not None]
    assert len(orders) == 3
    for o in orders:
        assert abs(o - 2.0) <= 0.2


def test_observe_without_target_uses_finest_stage():
    ladder = Ladder.from_base(Space(Grid.uniform(1.0, 4), 1), 4, "dyadic-split")
    rows = ladder.observe(lambda sp: project(sp, math.sin)(0.43))
    assert rows[-1].error is None
    assert rows[0].error is not None and rows[0].error > 0.0


def test_observe_constant_observable_flagged():
    ladder = Ladder.from_base(Space(Grid.uniform(1.0, 4), 1), 3, "dyadic-split")
    rows = ladder.observe(lambda sp: 1.0)
    assert all(r.order is None for r in rows)
    assert all(r.error in (0.0, None) for r in rows)


def test_observe_needs_three_stages():
    ladder = Ladder.from_base(Space(Grid.uniform(1.0, 4), 1), 2, "dyadic-split")
    with pytest.raises(InsufficientDataError):
        ladder.observe(lambda sp: 1.0)


def test_ladder_rejects_non_nested_stages():
    a = Space(Grid.uniform(1.0, 4), 1)
    b = Space(Grid.uniform(1.0, 3), 1)
    with pytest.raises(InvalidArgumentError):
        Ladder([a, b])
