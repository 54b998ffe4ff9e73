import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ultracalc import Grid, InvalidArgumentError, PointClass, PointKind, Space, project
from ultracalc.grid import _NARROW_CELL, SNAP_REL

from strategies import tag_lists, tagged_nodes


def test_uniform_nodes():
    g = Grid.uniform(1.0, 4)
    np.testing.assert_allclose(g.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.h_max == 0.5


def test_uniform_single_cell():
    g = Grid.uniform(2.0, 1)
    np.testing.assert_allclose(g.nodes, [-2.0, 2.0])


@pytest.mark.parametrize("ell", [0, -3])
def test_uniform_rejects_bad_cell_count(ell):
    with pytest.raises(InvalidArgumentError):
        Grid.uniform(1.0, ell)


@pytest.mark.parametrize("beta", [0.0, -1.0])
def test_uniform_rejects_bad_beta(beta):
    with pytest.raises(InvalidArgumentError):
        Grid.uniform(beta, 4)


def test_tagged_inserts_tags():
    g = Grid.with_tags(1.0, [0.3], 2.0)
    np.testing.assert_allclose(g.nodes, [-1.0, 0.3, 1.0])


def test_tagged_minimal_uniform_fill():
    g = Grid.with_tags(1.0, [], 0.6)
    np.testing.assert_allclose(g.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.all(np.diff(g.nodes) <= 0.6 + 1e-15)


def test_tagged_rejects_tag_outside():
    with pytest.raises(InvalidArgumentError):
        Grid.with_tags(1.0, [1.5], 1.0)
    with pytest.raises(InvalidArgumentError):
        Grid.with_tags(1.0, [1.0], 1.0)


def test_tagged_contains_tags_and_endpoints():
    tags = [-0.7, 0.1, 0.55]
    g = Grid.with_tags(1.0, tags, 0.4)
    for t in tags + [-1.0, 1.0]:
        assert np.any(g.nodes == t)
    assert np.all(np.diff(g.nodes) <= 0.4 * (1 + 1e-12))


def test_locate_interior():
    g = Grid.uniform(1.0, 4)
    loc = g.locate(0.25)
    assert loc.kind is PointKind.INTERIOR and loc.index == 2


def test_locate_node():
    g = Grid.uniform(1.0, 4)
    loc = g.locate(0.5)
    assert loc.kind is PointKind.NODE and loc.index == 3


def test_locate_outside():
    g = Grid.uniform(1.0, 4)
    assert g.locate(7.0).kind is PointKind.OUTSIDE
    assert g.locate(-1.0000001).kind is PointKind.OUTSIDE


def test_locate_snaps_nearby_input():
    g = Grid.uniform(1.0, 4)
    assert g.locate(0.5 + 2.0**-42).is_node
    assert g.locate(2.0**-42).is_node
    # outside the snap window it is interior again
    assert g.locate(0.5 + 1e-9).is_interior


def test_every_supported_point_is_classified():
    g = Grid.with_tags(2.0, [-1.3, 0.4], 0.7)
    rng = np.random.default_rng(0)
    for x in rng.uniform(-2.0, 2.0, size=300):
        loc = g.locate(float(x))
        assert not loc.is_outside
        if loc.is_interior:
            a, b = g.cell_bounds(loc.index)
            assert a < x < b


def test_cells_cover_support_disjointly():
    g = Grid.with_tags(1.0, [0.2], 0.35)
    bounds = [g.cell_bounds(j) for j in range(g.n_cells)]
    assert bounds[0][0] == -1.0 and bounds[-1][1] == 1.0
    for (a0, b0), (a1, b1) in zip(bounds[:-1], bounds[1:]):
        assert b0 == a1


def test_nodes_strictly_increasing_required():
    with pytest.raises(InvalidArgumentError, match="strictly increasing"):
        Grid([-1.0, 0.5, 0.5, 1.0])


@pytest.mark.parametrize(
    "nodes,message",
    [
        ([1.0], "two nodes"),
        ([[-1.0, 1.0]], "two nodes"),
        ([-1.0, math.nan, 1.0], "finite"),
        ([-math.inf, 0.0, math.inf], "finite"),
        ([-1.0, 0.0, 2.0], "-beta to beta"),
        ([0.0, 0.0], "-beta to beta"),
        ([1.0, -1.0], "-beta to beta"),
    ],
)
def test_constructor_refuses_nodes_outside_the_contract(nodes, message):
    with pytest.raises(InvalidArgumentError, match=message):
        Grid(nodes)


def test_beta_and_h_max_are_read_from_the_nodes():
    nodes = [-2.0, -1.3, -0.6, 0.4, 1.2, 2.0]
    g = Grid(nodes)
    assert g.beta == 2.0
    assert g.h_max == np.max(np.diff(nodes))
    for g in (Grid.uniform(3.0, 7), Grid.with_tags(1.0, [0.1], 0.5)):
        assert g.beta == g.nodes[-1]
        assert g.h_max == np.max(np.diff(g.nodes))


def test_with_tags_fill_bound_is_not_stored():
    # the fill bound 0.5 gives cells of 1.1 / 3 and 0.9 / 2: h_max is the widest
    g = Grid.with_tags(1.0, [0.1], 0.5)
    assert g.h_max == pytest.approx(0.45)
    assert g == Grid(g.nodes)


def test_grid_immutable():
    g = Grid.uniform(1.0, 4)
    with pytest.raises(AttributeError):
        g.beta = 2.0
    with pytest.raises(ValueError):
        g.nodes[0] = 0.0


def test_nan_is_rejected():
    g = Grid.uniform(1.0, 4)
    with pytest.raises(InvalidArgumentError, match="NaN"):
        g.locate(float("nan"))
    with pytest.raises(InvalidArgumentError, match="NaN"):
        g.classify([0.25, float("nan")])


def test_infinities_lie_outside():
    g = Grid.uniform(1.0, 4)
    for x in (-math.inf, math.inf):
        assert g.locate(x).is_outside
    kind, index = g.classify([-math.inf, math.inf])
    assert kind.tolist() == [PointKind.OUTSIDE] * 2 and index.tolist() == [-1, -1]


@pytest.mark.parametrize(
    "x, kind, index",
    [(np.float64(0.25), PointKind.INTERIOR, 2), (0, PointKind.NODE, 2), (-1, PointKind.NODE, 0),
     (np.float64(0.5 + 2.0**-42), PointKind.NODE, 3), (np.int64(1), PointKind.NODE, 4)],
    ids=["float64-interior", "int-node", "negative-int-end", "float64-snapped", "int64-end"],
)
def test_locate_returns_a_python_int_index(x, kind, index):
    g = Grid.uniform(1.0, 4)
    loc = g.locate(x)
    assert loc.kind is kind and loc.index == index and type(loc.index) is int
    if kind is PointKind.NODE:
        assert type(g.node_index(x)) is int
        assert type(g.snap(x)) is float
    assert g.locate(np.float64(7.0)).index is None and g.locate(-2).index is None


def test_classify_codes():
    g = Grid.uniform(1.0, 4)
    kind, index = g.classify([0.25, 0.5, 7.0, -1.0, 0.5 + 2.0**-42])
    I, N, O = PointKind.INTERIOR, PointKind.NODE, PointKind.OUTSIDE
    assert kind.tolist() == [I, N, O, N, N]
    assert index.tolist() == [2, 3, -1, 0, 3]


def test_cell_inside_the_snap_windows_is_refused():
    # cell 1 is narrower than the snap window: its midpoint would be equally
    # close to nodes 1 and 2, so no point of it could classify as interior
    with pytest.raises(InvalidArgumentError, match="snap windows"):
        Grid([-1.0, 0.0, 2.0**-42, 1.0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: Grid.with_tags(1.0, [0.0, 1e-300], 1.0),
        lambda: Grid.uniform(1e-13, 4),
        lambda: Grid([-1.0, 1.0 - 2.0**-40, 1.0]),
        # fill cells narrower than the windows: refused before ~10**13 nodes are made
        lambda: Grid.with_tags(1.0, [], 1e-13),
        lambda: Grid.with_tags(1e6, [0.0], 1e-7),
    ],
    ids=["tags-within-the-windows", "uniform-beta-1e-13", "last-cell",
         "fill-bound-1e-13", "tagged-fill-bound-1e-7"],
)
def test_grids_finer_than_the_snap_windows_are_refused(build):
    with pytest.raises(InvalidArgumentError, match="snap windows"):
        build()


def test_gap_just_wider_than_both_windows_is_accepted():
    # nodes 0 and 2**-39 both have a snap window 2**-40 wide
    g = Grid([-1.0, 0.0, math.nextafter(2.0**-39, 1.0), 1.0])
    assert g.n_cells == 3
    assert np.all(np.isfinite(2.0 / g.widths()))
    with pytest.raises(InvalidArgumentError, match="snap windows"):
        Grid([-1.0, 0.0, 2.0**-39, 1.0])
    # with_tags checks a gap before it makes nodes, by the same bound
    assert Grid.with_tags(1.0, [0.0, math.nextafter(2.0**-39, 1.0)], 1.0) == g
    with pytest.raises(InvalidArgumentError, match="snap windows"):
        Grid.with_tags(1.0, [0.0, 2.0**-39], 1.0)


def loop_with_tags(beta, tags, h_max):
    """``Grid.with_tags`` as loops over the tags and gaps: the reference."""
    beta, h_max = float(beta), float(h_max)
    tag_list = sorted({float(t) for t in tags})
    for t in tag_list:
        if not (-beta < t < beta):
            raise InvalidArgumentError(f"tag {t!r} is not strictly inside (-beta, beta)")
    anchors = [-beta] + tag_list + [beta]
    gaps = [(a, b, max(1, math.ceil((b - a) / h_max - 1e-12)))
            for a, b in zip(anchors[:-1], anchors[1:])]
    for a, b, parts in gaps:
        if (b - a) / parts <= SNAP_REL * (max(1.0, abs(a)) + max(1.0, abs(b))):
            raise InvalidArgumentError(_NARROW_CELL)
    assume(sum(parts for _, _, parts in gaps) <= 10**5)  # a legal fill may be huge
    return Grid(tagged_nodes(beta, tag_list, h_max))


@settings(max_examples=300, deadline=None)
@given(
    beta=st.floats(-12.0, 12.0).map(lambda e: 10.0**e),
    unit_tags=tag_lists(bound=1.5),
    # fills of at most 2**11 parts a gap, or below the snap windows of +-beta
    unit_fill=st.one_of(st.floats(2.0**-10, 4.0), st.floats(2.0**-60, 2.0**-38)),
)
def test_with_tags_equals_the_loop_bit_for_bit(beta, unit_tags, unit_fill):
    tags = [beta * t for t in unit_tags]

    def outcome(build):
        try:
            return build(beta, tags, beta * unit_fill).nodes.tobytes()
        except InvalidArgumentError as exc:
            return str(exc)

    want = outcome(loop_with_tags)  # first: it rejects a draw that fills memory
    assert outcome(Grid.with_tags) == want


def test_with_tags_keeps_the_first_of_equal_zeros():
    for zeros in ([0.0, -0.0], [-0.0, 0.0]):
        nodes = Grid.with_tags(1.0, zeros, 1.0).nodes
        assert nodes.tobytes() == np.array([-1.0, zeros[0], 1.0]).tobytes()


@pytest.mark.parametrize(
    "beta, h_max, message",
    [(1.0, 1e-310, "snap windows"), (1e308, 1e307, "2 \\* beta overflows")],
    ids=["parts", "gap"],
)
def test_with_tags_refuses_an_overflow(beta, h_max, message):
    # inf parts (2 / 1e-310) or an inf support width (2e308): refused before
    # any count is cast, the width by name
    with pytest.raises(InvalidArgumentError, match=message):
        Grid.with_tags(beta, [], h_max)


@pytest.mark.parametrize(
    "nodes",
    [[-1.7e308, 1.7e308], [-1.7e308, 0.0, 1.7e308], [-1.7e308, -1e308, 1e308, 1.7e308]],
    ids=["inf-gap", "finite-gaps", "inf-middle-gap"],
)
def test_grid_wider_than_the_largest_float_is_refused(nodes):
    # 2 * 1.7e308 is not a float, even where every gap is: refused by name,
    # before the snap-window test and without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="2 \\* beta overflows"):
            Grid(nodes)
        with pytest.raises(InvalidArgumentError, match="2 \\* beta overflows"):
            Grid.with_tags(nodes[-1], nodes[1:-1], nodes[-1])
        with pytest.raises(InvalidArgumentError, match="2 \\* beta overflows"):
            Grid.uniform(nodes[-1], len(nodes) - 1)


@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan, -1.0, 0.0])
def test_uniform_refuses_a_beta_that_is_not_positive_and_finite(beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="beta must be a positive finite number"):
            Grid.uniform(beta, 2)


def test_widest_grid_projects_to_finite_blocks():
    beta = 0.5 * np.finfo(float).max
    g = Grid.with_tags(beta, [0.0], beta)
    assert g.n_cells == 2 and g.h_max == beta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = project(Space(g, 2), lambda x: 1.0)
    want = Space(g, 2).constant(1.0).blocks
    assert np.max(np.abs(u.blocks - want)) <= 1e-12 * np.max(np.abs(want))


def test_node_view_is_the_nodes_bit_for_bit():
    g = Grid.with_tags(1.0, [-0.0, 0.5], 0.3)
    view = g._node_view
    assert all(type(v) is float for v in view)
    assert np.array(view.tolist()).tobytes() == g.nodes.tobytes()
    assert math.copysign(1.0, view[4]) == -1.0  # the -0.0 tag with_tags keeps
    assert g.locate(-0.0).index == g.locate(0.0).index == 4
    assert g == Grid(g.nodes) and Grid(g.nodes) == g
    assert view.readonly
    with pytest.raises(ValueError):
        g.nodes[0] = 0.0
    for name in ("nodes", "_node_view", "beta"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(g, name, [0.0])


def test_one_point_query_allocates_nothing_per_node():
    g = Grid.uniform(1.0, 65536)
    tracemalloc.start()
    try:
        g.locate(0.1)
        g.snap(0.25)
        held = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < 4096  # no copy of the 65537 nodes


@pytest.mark.parametrize("j", [True, np.True_, 1.5, 1.0, "1", None, -1, 4])
def test_cell_bounds_refuses_what_is_no_cell_index(j):
    g = Grid.uniform(1.0, 4)
    with pytest.raises(InvalidArgumentError, match="cell index .* out of range"):
        g.cell_bounds(j)
    assert g.cell_bounds(np.int32(1)) == g.cell_bounds(1) == (-0.5, 0.0)
