import math

import numpy as np
import pytest

from ultracalc import (
    Grid,
    InsufficientDataError,
    InvalidArgumentError,
    Ladder,
    Stage,
    l2_error,
    project,
    refine,
)
from ultracalc.serialize import grid_from_dict, grid_to_dict


def test_dyadic_split_of_uniform_grid():
    st = Stage(Grid.uniform(1.0, 4), 1)
    nxt = refine(st, "dyadic-split")
    np.testing.assert_allclose(nxt.grid.nodes, Grid.uniform(1.0, 8).nodes)
    assert nxt.grid.h_max == 0.25


def test_beta_growth_preserves_nodes():
    st = Stage(Grid.uniform(1.0, 4), 1)
    nxt = refine(st, "beta-growth", factor=2.0)
    assert nxt.grid.beta == 2.0
    old = set(st.grid.nodes.tolist())
    assert old.issubset(set(nxt.grid.nodes.tolist()))
    assert nxt.grid.h_max == st.grid.h_max


def test_beta_growth_with_fractional_factor_on_tagged_grid():
    st = Stage(Grid.with_tags(1.0, [0.3], 0.5), 1)
    nxt = refine(st, "beta-growth", factor=1.7)
    assert nxt.grid.beta == pytest.approx(1.7)
    assert set(st.grid.nodes.tolist()).issubset(set(nxt.grid.nodes.tolist()))
    assert np.max(np.diff(nxt.grid.nodes)) <= st.grid.h_max * (1 + 1e-12)


def test_beta_growth_reads_only_the_nodes():
    # the fill bound 0.5 is not part of the grid: a grid read back from its
    # JSON equals it and grows the same way
    g = Grid.with_tags(1.0, [0.1], 0.5)
    g2 = grid_from_dict(grid_to_dict(g))
    assert g == g2
    grown = refine(Stage(g, 1), "beta-growth").grid
    assert grown == refine(Stage(g2, 1), "beta-growth").grid
    assert grown.nodes.size == 12
    assert grown.h_max == g.h_max


def test_dyadic_split_stops_at_the_snap_windows():
    st = Stage(Grid.uniform(1e-9, 4), 1)
    for _ in range(8):
        st = refine(st, "dyadic-split")
    with pytest.raises(InvalidArgumentError, match="snap windows"):
        refine(st, "dyadic-split")


def test_degree_raise_doubles_dim_from_p0():
    st = Stage(Grid.uniform(1.0, 4), 0)
    nxt = refine(st, "degree-raise")
    assert nxt.grid == st.grid
    assert nxt.space().dim == 2 * st.space().dim


def test_unknown_policy_rejected():
    st = Stage(Grid.uniform(1.0, 4), 0)
    with pytest.raises(InvalidArgumentError):
        refine(st, "bisect")


def test_node_sets_form_a_chain():
    st = Stage(Grid.with_tags(1.0, [0.3], 0.5), 1)
    ladder = Ladder.from_base(st, 4, "dyadic-split")
    for prev, nxt in zip(ladder.stages[:-1], ladder.stages[1:]):
        assert set(prev.grid.nodes.tolist()).issubset(set(nxt.grid.nodes.tolist()))
        assert nxt.grid.h_max <= prev.grid.h_max
        assert nxt.grid.beta >= prev.grid.beta


def test_polynomial_projection_stable_across_stages():
    coeffs = [0.5, -1.0, 0.25]
    f = lambda x: float(np.polynomial.polynomial.polyval(x, coeffs))
    ladder = Ladder.from_base(Stage(Grid.uniform(1.0, 4), 2), 4, "dyadic-split")
    xs = [-0.77, -0.1, 0.33, 0.9]
    reference = None
    for stage in ladder.stages:
        u = project(stage.space(), f)
        values = [u(x) for x in xs]
        if reference is None:
            reference = values
        for got, want in zip(values, reference):
            assert abs(got - want) <= 1e-12


def test_observe_projection_error_order():
    ladder = Ladder.from_base(Stage(Grid.uniform(1.0, 4), 1), 4, "dyadic-split")
    rows = ladder.observe(
        lambda st: l2_error(math.sin, project(st.space(), math.sin)), target=0.0
    )
    orders = [r.order for r in rows if r.order is not None]
    assert len(orders) == 3
    for o in orders:
        assert abs(o - 2.0) <= 0.2


def test_observe_without_target_uses_finest_stage():
    ladder = Ladder.from_base(Stage(Grid.uniform(1.0, 4), 1), 4, "dyadic-split")
    rows = ladder.observe(lambda st: project(st.space(), math.sin)(0.43))
    assert rows[-1].error is None
    assert rows[0].error is not None and rows[0].error > 0.0


def test_observe_constant_observable_flagged():
    ladder = Ladder.from_base(Stage(Grid.uniform(1.0, 4), 1), 3, "dyadic-split")
    rows = ladder.observe(lambda st: 1.0)
    assert all(r.order is None for r in rows)
    assert all(r.error in (0.0, None) for r in rows)


def test_observe_needs_three_stages():
    ladder = Ladder.from_base(Stage(Grid.uniform(1.0, 4), 1), 2, "dyadic-split")
    with pytest.raises(InsufficientDataError):
        ladder.observe(lambda st: 1.0)


def test_ladder_rejects_non_nested_stages():
    a = Stage(Grid.uniform(1.0, 4), 1)
    b = Stage(Grid.uniform(1.0, 3), 1)
    with pytest.raises(InvalidArgumentError):
        Ladder([a, b])
