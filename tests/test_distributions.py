import math

import numpy as np
import pytest

from ultracalc import (
    DistributionSpec,
    FunctionHandle,
    Grid,
    InvalidArgumentError,
    PreconditionError,
    Space,
    Ultrafunction,
    delta,
    embed,
    integral_against_member,
    pair,
    pair_exact_member,
    project,
    refine,
)


def bump(x):
    if abs(x) >= 0.9:
        return 0.0
    return math.exp(-1.0 / (1.0 - (x / 0.9) ** 2))


@pytest.fixture
def space():
    return Space(Grid.uniform(1.0, 8), 3)


def test_order_zero_is_projection(space):
    f = FunctionHandle(lambda x: math.sin(2 * x))
    got = embed(space, DistributionSpec(0, f))
    expected = project(space, f)
    assert np.max(np.abs(got.blocks - expected.blocks)) <= 1e-13


def test_heaviside_from_second_derivative(space):
    spec = DistributionSpec(2, FunctionHandle(lambda x: max(x, 0.0) ** 2 / 2.0))
    h = embed(space, spec)
    assert h(-0.3) == pytest.approx(0.0, abs=1e-10)
    assert h(0.6) == pytest.approx(1.0, abs=1e-10)
    assert h(0.0) == pytest.approx(0.5, abs=1e-10)


def test_point_mass_from_third_derivative(space):
    spec = DistributionSpec(3, FunctionHandle(lambda x: x * abs(x) / 4.0))
    got = embed(space, spec)
    expected = delta(space, 0.0)
    assert np.max(np.abs(got.blocks - expected.blocks)) <= 1e-10


def test_two_presentations_of_heaviside_coincide(space):
    first = embed(space, DistributionSpec(2, FunctionHandle(lambda x: max(x, 0.0) ** 2 / 2.0)))
    second = embed(space, DistributionSpec(3, FunctionHandle(lambda x: max(x, 0.0) ** 3 / 6.0)))
    assert np.max(np.abs(first.blocks - second.blocks)) <= 1e-10


def test_embedding_linear_in_presenting_function(space):
    f = FunctionHandle(lambda x: math.sin(x))
    g = FunctionHandle(lambda x: x * x * x / 6.0)
    al, be = 1.3, -0.7
    combo = embed(
        space, DistributionSpec(2, FunctionHandle(lambda x: al * f(x) + be * g(x)))
    )
    direct = al * embed(space, DistributionSpec(2, f)) + be * embed(
        space, DistributionSpec(2, g)
    )
    assert np.max(np.abs(combo.blocks - direct.blocks)) <= 1e-10


def test_pair_matches_plain_integral_for_order_zero(space):
    f = FunctionHandle(lambda x: math.cos(x))
    t = embed(space, DistributionSpec(0, f))
    value = pair(space, t, bump)
    reference = integral_against_member(f, project(space, bump))
    assert value == pytest.approx(reference, abs=1e-10)


def test_pair_rejects_boundary_touching_test_function(space):
    t = embed(space, DistributionSpec(0, FunctionHandle(lambda x: 1.0)))
    with pytest.raises(InvalidArgumentError):
        pair(space, t, lambda x: math.cos(x))


class _BoundedBump:
    """``bump`` that counts its calls and gives up after 10**5 of them."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        if self.calls > 100_000:
            raise RuntimeError("quadrature kept evaluating")
        return bump(x)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan])
def test_unreachable_tolerance_rejected_before_quadrature(space, tol):
    f = _BoundedBump()
    with pytest.raises(InvalidArgumentError, match="tolerance"):
        embed(space, DistributionSpec(1, f), tol=tol)
    assert f.calls == 0
    t = embed(space, DistributionSpec(1, bump))
    with pytest.raises(InvalidArgumentError, match="tolerance"):
        pair(space, t, f, tol=tol)
    assert f.calls == 2  # only the two support-boundary checks


def _member_with_silent_boundary(space, rng, layers):
    blocks = rng.standard_normal((space.n_cells, space.block_size))
    blocks[:layers] = 0.0
    blocks[space.n_cells - layers :] = 0.0
    return Ultrafunction(space, blocks)


@pytest.mark.parametrize("k", [1, 2])
def test_member_transfer_identity(space, k):
    rng = np.random.default_rng(10 + k)
    spec = DistributionSpec(k, FunctionHandle(lambda x: math.sin(2 * x) + 0.3 * x * x))
    for _ in range(10):
        phi = _member_with_silent_boundary(space, rng, k)
        assert pair_exact_member(space, spec, phi) <= 1e-10 * (1.0 + phi.norm())


def test_member_transfer_trivial_for_order_zero(space):
    rng = np.random.default_rng(1)
    spec = DistributionSpec(0, FunctionHandle(lambda x: math.exp(x)))
    phi = _member_with_silent_boundary(space, rng, 1)
    assert pair_exact_member(space, spec, phi) == 0.0


def test_member_transfer_zero_test_member(space):
    spec = DistributionSpec(1, FunctionHandle(lambda x: math.sin(x)))
    assert pair_exact_member(space, spec, space.zero()) <= 1e-15


def test_member_transfer_precondition(space):
    rng = np.random.default_rng(2)
    spec = DistributionSpec(1, FunctionHandle(lambda x: math.sin(x)))
    phi = Ultrafunction(space, rng.standard_normal((space.n_cells, space.block_size)))
    with pytest.raises(PreconditionError):
        pair_exact_member(space, spec, phi)


def test_spec_rejects_negative_order():
    with pytest.raises(InvalidArgumentError):
        DistributionSpec(-1, FunctionHandle(lambda x: x))


def _pairing_errors(spec, reference, levels=4):
    sp = Space(Grid.with_tags(1.0, [0.1], 0.28), 2)
    errs = []
    for _ in range(levels):
        t = embed(sp, spec)
        errs.append(abs(pair(sp, t, bump) - reference))
        sp = refine(sp, "dyadic-split")
    return errs


def test_heaviside_pairing_converges_to_right_half_integral():
    ref_sp = Space(Grid.uniform(1.0, 64), 4)
    reference = integral_against_member(bump, ref_sp.indicator(0.0, 1.0))
    spec = DistributionSpec(2, FunctionHandle(lambda x: max(x, 0.0) ** 2 / 2.0))
    errs = _pairing_errors(spec, reference)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(o > 0.0 for o in orders)
    assert max(orders) >= 1.0


def test_point_mass_pairing_converges_to_point_value():
    spec = DistributionSpec(3, FunctionHandle(lambda x: x * abs(x) / 4.0))
    errs = _pairing_errors(spec, bump(0.0))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(o > 0.0 for o in orders)
    assert max(orders) >= 1.0
