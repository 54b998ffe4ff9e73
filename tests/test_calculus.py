from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultracalc import (
    DerivOperator,
    Grid,
    InvalidArgumentError,
    PreconditionError,
    Space,
    Ultrafunction,
    calculus,
    delta,
    derivative_operator,
    ftc_defect,
    ftc_piecewise_defect,
    ibp_c1_defect,
    ibp_defect,
    ibp_piecewise_defect,
    integrate,
    integrate_product,
    naive_ibp_defect,
)

from strategies import grids
from test_space import exact_legendre


@pytest.fixture
def space():
    return Space(Grid.uniform(1.0, 8), 2)


def random_member(space, rng):
    return Ultrafunction(space, rng.standard_normal((space.n_cells, space.block_size)))


# ----------------------------------------------------------------------
# operator construction
# ----------------------------------------------------------------------


def test_derivative_of_constant_vanishes(space):
    d = derivative_operator(space, "D")
    assert np.max(np.abs(d.apply(space.constant(1.0)).blocks)) <= 1e-12


def test_derivative_of_x_is_one(space):
    d = derivative_operator(space, "D")
    dx = d.apply(space.from_polynomial([0.0, 1.0]))
    assert np.max(np.abs(dx.blocks - space.constant(1.0).blocks)) <= 1e-12


def test_derivative_of_indicator_is_delta_difference(space):
    d = derivative_operator(space, "D")
    a, b = -0.5, 0.75
    expected = delta(space, a) - delta(space, b)
    got = d.apply(space.indicator(a, b))
    assert np.max(np.abs(got.blocks - expected.blocks)) <= 1e-12


def test_derivative_of_indicator_endpoint_variants(space):
    d = derivative_operator(space, "D")
    b = 0.25
    left = d.apply(space.indicator(-1.0, b))
    assert np.max(np.abs(left.blocks - (-delta(space, b)).blocks)) <= 1e-12
    a = -0.25
    right = d.apply(space.indicator(a, 1.0))
    assert np.max(np.abs(right.blocks - delta(space, a).blocks)) <= 1e-12


def test_windowed_polynomial_product_rule(space):
    # D(w * chi_[a,b]) = w' * chi_[a,b] + w(a) delta_a - w(b) delta_b
    d = derivative_operator(space, "D")
    w_coeffs = [0.3, -1.2, 0.8]
    w = space.from_polynomial(w_coeffs)
    a, b = -0.75, 0.5
    got = d.apply(w.restrict(a, b))
    wprime = space.from_polynomial([-1.2, 1.6]).restrict(a, b)
    w_at = lambda x: float(np.polynomial.polynomial.polyval(x, w_coeffs))
    expected = wprime + w_at(a) * delta(space, a) - w_at(b) * delta(space, b)
    assert np.max(np.abs(got.blocks - expected.blocks)) <= 1e-10


def test_classical_derivative_of_global_polynomials(space):
    d = derivative_operator(space, "D")
    got = d.apply(space.from_polynomial([0.1, 2.0, -0.7]))
    expected = space.from_polynomial([2.0, -1.4])
    assert np.max(np.abs(got.blocks - expected.blocks)) <= 1e-12


def test_operator_linearity(space):
    rng = np.random.default_rng(0)
    d = derivative_operator(space, "D")
    for _ in range(10):
        u, v = random_member(space, rng), random_member(space, rng)
        al, be = rng.uniform(-2, 2, size=2)
        lhs = d.apply(al * u + be * v)
        rhs = al * d.apply(u) + be * d.apply(v)
        assert np.max(np.abs(lhs.blocks - rhs.blocks)) <= 1e-12


def test_apply_to_zero(space):
    d = derivative_operator(space, "D")
    assert np.all(d.apply(space.zero()).blocks == 0.0)


def test_d2_annihilates_grid_functions(space):
    rng = np.random.default_rng(1)
    d2 = derivative_operator(space, "D2")
    for _ in range(20):
        g = space.grid_function(rng.standard_normal(space.n_cells))
        assert np.max(np.abs(d2.apply(g).blocks)) == 0.0


def test_d_equals_d2_on_continuous_members(space):
    d = derivative_operator(space, "D")
    d2 = derivative_operator(space, "D2")
    u = space.from_polynomial([1.0, -0.5, 0.3])
    assert np.max(np.abs(d.apply(u).blocks - d2.apply(u).blocks)) <= 1e-12


def test_d2_of_x(space):
    d2 = derivative_operator(space, "D2")
    dx = d2.apply(space.from_polynomial([0.0, 1.0]))
    assert np.max(np.abs(dx.blocks - space.constant(1.0).blocks)) <= 1e-12


def jump_part(u):
    """Sum over interior nodes of the jump of ``u`` times the node delta."""
    sp = u.space
    out = sp.zero()
    for i in range(1, sp.n_cells):
        out = out + u.jump(i) * delta(sp, float(sp.grid.nodes[i]))
    return out


def jump_part_matrix(space):
    """Dense jump part: column ``c`` is the jump part of basis element ``c``."""
    return np.column_stack([jump_part(e).coefficients for e in space.splitted_basis()])


def test_d_decomposes_exactly_into_d2_plus_jumps(space):
    d = derivative_operator(space, "D")
    d2 = derivative_operator(space, "D2")
    rng = np.random.default_rng(9)
    for u in (random_member(space, rng), space.indicator(-0.5, 0.75), space.constant(1.0)):
        gap = d.apply(u).blocks - d2.apply(u).blocks - jump_part(u).blocks
        assert np.max(np.abs(gap)) <= 1e-13
    assert np.max(np.abs(d.matrix - d2.matrix - jump_part_matrix(space))) <= 1e-13


def test_unknown_kind_rejected(space):
    # the public class checks its kind too: "d" would otherwise apply D2
    for make in (derivative_operator, lambda sp, kind: DerivOperator(kind, sp)):
        for kind in ("D3", "d"):
            with pytest.raises(InvalidArgumentError, match="kind must be 'D' or 'D2'"):
                make(space, kind)


# ----------------------------------------------------------------------
# definite integrals
# ----------------------------------------------------------------------


def test_integral_of_delta_is_one(space):
    for q in (-0.8, 0.1, 0.62):
        assert integrate(delta(space, q), -1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_integral_of_constant(space):
    u = space.constant(1.0)
    assert integrate(u, -0.5, 0.75) == pytest.approx(1.25, abs=1e-13)


def test_integrate_rejects_non_nodes(space):
    u = space.constant(1.0)
    with pytest.raises(InvalidArgumentError):
        integrate(u, -0.3, 0.5)
    with pytest.raises(InvalidArgumentError):
        integrate(u, 0.5, -0.5)


def test_fundamental_theorem(space):
    rng = np.random.default_rng(2)
    d = derivative_operator(space, "D")
    nodes = space.grid.nodes
    for _ in range(50):
        u = random_member(space, rng)
        n, m = sorted(rng.integers(0, nodes.size, size=2))
        a, b = float(nodes[n]), float(nodes[m])
        lhs = integrate(d.apply(u), a, b)
        assert abs(lhs - (u(b) - u(a))) <= 1e-10 * (1.0 + u.norm())


# ----------------------------------------------------------------------
# integration by parts
# ----------------------------------------------------------------------


def test_full_support_ibp(space):
    rng = np.random.default_rng(3)
    for _ in range(50):
        u, v = random_member(space, rng), random_member(space, rng)
        assert ibp_defect(u, v) <= 1e-10 * (1.0 + u.norm() * v.norm())


def test_full_support_ibp_constants(space):
    one = space.constant(1.0)
    assert ibp_defect(one, one) <= 1e-13


def test_full_support_ibp_with_indicator(space):
    rng = np.random.default_rng(4)
    chi = space.indicator(-0.5, 0.5)
    for _ in range(10):
        v = random_member(space, rng)
        assert ibp_defect(chi, v) <= 1e-10 * (1.0 + chi.norm() * v.norm())


def test_two_point_ibp_for_continuous_members(space):
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = space.from_polynomial(rng.uniform(-1, 1, size=3))
        v = space.from_polynomial(rng.uniform(-1, 1, size=3))
        n, m = sorted(rng.integers(0, space.n_cells + 1, size=2))
        defect = ibp_c1_defect(u, v, int(n), int(m))
        assert defect <= 1e-10 * (1.0 + u.norm() * v.norm())


def test_two_point_ibp_rejects_discontinuous_members(space):
    step = space.indicator(0.0, 1.0)
    v = space.constant(1.0)
    with pytest.raises(PreconditionError):
        ibp_c1_defect(step, v, 0, space.n_cells)


def test_two_point_ibp_empty_range(space):
    u = space.from_polynomial([1.0, 1.0])
    assert ibp_c1_defect(u, u, 3, 3) == 0.0


@settings(deadline=None, max_examples=60)
@given(grid=grids(), degree=st.integers(1, 20), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_two_point_ibp_is_the_one_sided_formula_to_rounding(grid, degree, seed, data):
    # for continuous members the node values differ from the one-sided edge
    # products, which closed the formula before, by rounding only
    space = Space(grid, degree)
    ell = space.n_cells
    n = data.draw(st.integers(0, ell))
    m = data.draw(st.integers(n, ell))
    rng = np.random.default_rng(seed)
    damp = max(1.0, grid.beta) ** -np.arange(degree + 1)  # each term below 1 on the support
    u = space.from_polynomial(damp * rng.uniform(-1, 1, size=degree + 1))
    v = space.from_polynomial(damp * rng.uniform(-1, 1, size=degree + 1))
    one_sided = 0.0
    if n < m:
        d = derivative_operator(space, "D")
        (lu, ru), (lv, rv) = space.edges(u.blocks), space.edges(v.blocks)
        boundary = float(ru[m - 1] * rv[m - 1] - lu[n] * lv[n])
        one_sided = abs(integrate_product(d(u), v, n, m) + integrate_product(u, d(v), n, m) - boundary)
    bound = 64 * np.finfo(float).eps * (1.0 + u.norm() * v.norm())
    assert abs(ibp_c1_defect(u, v, n, m) - one_sided) <= bound


@pytest.mark.parametrize(
    "fn",
    [integrate_product, ibp_c1_defect, ibp_piecewise_defect, naive_ibp_defect, ftc_piecewise_defect,
     ftc_defect],
)
@pytest.mark.parametrize(
    "n, m",
    [(0, 2.0), (0.0, 2), (True, 4), (0, np.True_), (0, "2"), (0, None), (-1, 2), (2, 1), (0, 9)],
)
def test_node_range_refuses_what_is_no_node_index_pair(space, fn, n, m):
    u = space.from_polynomial([1.0, 1.0])
    members = (u,) if fn in (ftc_piecewise_defect, ftc_defect) else (u, u)
    with pytest.raises(InvalidArgumentError, match="node indices"):
        fn(*members, n, m)
    assert fn(*members, np.int64(0), 2) == fn(*members, 0, 2)


def test_piecewise_ibp_for_discontinuous_members(space):
    rng = np.random.default_rng(6)
    for _ in range(50):
        u, v = random_member(space, rng), random_member(space, rng)
        n, m = sorted(rng.integers(0, space.n_cells + 1, size=2))
        defect = ibp_piecewise_defect(u, v, int(n), int(m))
        assert defect <= 1e-10 * (1.0 + u.norm() * v.norm())


def test_piecewise_ibp_reduces_to_two_point_for_continuous(space):
    u = space.from_polynomial([0.2, 1.0, -0.3])
    v = space.from_polynomial([-1.0, 0.0, 0.5])
    n, m = 1, 6
    boundary_two_point = u.side_value(m, "minus") * v.side_value(m, "minus") - (
        u.side_value(n, "plus") * v.side_value(n, "plus")
    )
    telescoped = sum(
        u.side_value(i + 1, "minus") * v.side_value(i + 1, "minus")
        - u.side_value(i, "plus") * v.side_value(i, "plus")
        for i in range(n, m)
    )
    assert telescoped == pytest.approx(boundary_two_point, abs=1e-12)
    assert ibp_piecewise_defect(u, v, n, m) <= 1e-11


def test_piecewise_ibp_zero_member(space):
    z = space.zero()
    v = space.constant(2.0)
    assert ibp_piecewise_defect(z, v, 0, space.n_cells) == 0.0


def test_piecewise_ftc(space):
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = random_member(space, rng)
        n, m = sorted(rng.integers(0, space.n_cells + 1, size=2))
        assert ftc_piecewise_defect(u, int(n), int(m)) <= 1e-10 * (1.0 + u.norm())


def test_piecewise_ftc_continuous_telescopes(space):
    u = space.from_polynomial([0.0, 0.0, 1.0])
    n, m = 0, space.n_cells
    d2 = derivative_operator(space, "D2")
    lhs = integrate(d2.apply(u), -1.0, 1.0)
    assert lhs == pytest.approx(u(1.0) - u(-1.0), abs=1e-12)


def test_piecewise_ftc_constant(space):
    assert ftc_piecewise_defect(space.constant(5.0), 0, space.n_cells) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(grid=grids(), degree=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
def test_naive_two_point_formula_fails(grid, degree, seed):
    # node-average boundary products miss by a quarter of the change in the
    # jump products J_j = u.jump(j) * v.jump(j) between the limits (J = 0 at
    # the two ends); a step that jumps by 1 at the lower limit misses by 1/4
    space = Space(grid, degree)
    ell = space.n_cells
    mid = ell // 2
    step = space.constant(1.0).restrict(float(grid.nodes[mid]), grid.beta)
    assert abs(naive_ibp_defect(step, step, mid, ell) - (0.25 if mid else 0.0)) <= 1e-14
    rng = np.random.default_rng(seed)
    u, v = random_member(space, rng), random_member(space, rng)
    n, m = sorted(rng.integers(0, ell + 1, size=2).tolist())
    jn, jm = (u.jump(j) * v.jump(j) if 0 < j < ell else 0.0 for j in (n, m))
    d = derivative_operator(space, "D")
    # rounding scale: the two pairings' term magnitudes and the boundary products
    edges_u, edges_v = np.abs(space.edges(u.blocks)), np.abs(space.edges(v.blocks))
    scale = (1.0 + np.sum(np.abs(d(u).blocks * v.blocks)) + np.sum(np.abs(u.blocks * d(v).blocks))
             + edges_u.max() * edges_v.max())
    law = 0.25 * abs(jm - jn)
    assert abs(naive_ibp_defect(u, v, n, m) - law) <= 64 * np.finfo(float).eps * scale


def test_naive_formula_fine_without_endpoint_jumps(space):
    u = space.from_polynomial([0.0, 1.0])
    v = space.from_polynomial([1.0, 0.5])
    assert naive_ibp_defect(u, v, 1, 7) <= 1e-11


# ----------------------------------------------------------------------
# exact rational reference for two-point integration by parts
# ----------------------------------------------------------------------
#
# A member is ``sum_k a[j][k] P_k(t)`` on cell j, t = (2x - x_j - x_{j+1}) / h_j.
# In these unnormalized Legendre coordinates every object of D is rational on
# float nodes: the Gram block is diag(h / (2k + 1)), the edge values are
# (+-1)^k, the cellwise derivative is an integer matrix times 2 / h, and the
# node-average delta is the inverse Gram block times half the edge values.


class ExactD:
    """``D`` on the grid ``nodes`` at degree ``p``, in exact arithmetic."""

    def __init__(self, nodes, p: int):
        n = p + 1
        self.n = n
        self.h = [Fraction(b) - Fraction(a) for a, b in zip(nodes[:-1], nodes[1:])]
        self.lo, self.hi = exact_legendre(-1.0, n)[0], exact_legendre(1.0, n)[0]
        # P_k' = sum_l r[l][k] P_l with (2l + 1) / 2 times [P_k P_l] over [-1, 1]:
        # the integral of P_k P_l' vanishes for l < k, and P_k' has degree k - 1
        self.r = [[(2 * l + 1) * (self.hi[k] * self.hi[l] - self.lo[k] * self.lo[l]) / 2
                   if l < k else Fraction(0) for k in range(n)] for l in range(n)]

    def edges(self, a):
        return ([sum(c * e for c, e in zip(blk, self.lo)) for blk in a],
                [sum(c * e for c, e in zip(blk, self.hi)) for blk in a])

    def jump(self, a, j: int) -> Fraction:
        """Zero at the two ends, where the value across the edge is the cell's own."""
        left, right = self.edges(a)
        return left[j] - right[j - 1] if 0 < j < len(a) else Fraction(0)

    def node_value(self, a, j: int) -> Fraction:
        left, right = self.edges(a)
        if j == 0:
            return left[0]
        if j == len(a):
            return right[-1]
        return (left[j] + right[j - 1]) / 2

    def cellwise(self, a):
        """``D2``: the classical derivative inside every cell."""
        n, r = self.n, self.r
        return [[2 / h * sum(r[l][k] * blk[k] for k in range(n)) for l in range(n)]
                for blk, h in zip(a, self.h)]

    def apply(self, a):
        n = self.n
        out = self.cellwise(a)
        for j in range(1, len(a)):
            half = self.jump(a, j) / 2
            for k in range(n):
                out[j - 1][k] += half * (2 * k + 1) / self.h[j - 1] * self.hi[k]
                out[j][k] += half * (2 * k + 1) / self.h[j] * self.lo[k]
        return out

    def integral(self, a, n: int, m: int) -> Fraction:
        """Over cells ``n .. m - 1``: only ``P_0`` has a nonzero integral, ``h``."""
        return sum((blk[0] * h for blk, h in zip(a[n:m], self.h[n:m])), Fraction(0))

    def pairing(self, a, b, n: int, m: int) -> Fraction:
        return sum((a[j][k] * b[j][k] * self.h[j] / (2 * k + 1)
                    for j in range(n, m) for k in range(self.n)), Fraction(0))

    def two_point_defect(self, u, v, n: int, m: int) -> Fraction:
        """Signed ``pairing(Du, v) + pairing(u, Dv) - (u v at node m - u v at node n)``."""
        boundary = (self.node_value(u, m) * self.node_value(v, m)
                    - self.node_value(u, n) * self.node_value(v, n))
        return self.pairing(self.apply(u), v, n, m) + self.pairing(u, self.apply(v), n, m) - boundary


def dyadic_case(p: int, seed: int):
    """A non-uniform grid of up to 4 cells with dyadic nodes, and two members
    with dyadic coefficients: one pair that jumps everywhere, one continuous."""
    rng = np.random.default_rng(seed)
    beta = 2.0 ** int(rng.integers(-3, 4))
    ell = int(rng.integers(1, 5))
    interior = np.sort(rng.choice(np.arange(-15, 16), size=ell - 1, replace=False))
    nodes = [-beta, *(beta * interior / 16).tolist(), beta]
    exact = ExactD(nodes, p)

    def member():
        return [[Fraction(int(rng.integers(-8, 9)), 2 ** int(rng.integers(0, 4))) for _ in range(p + 1)]
                for _ in range(ell)]

    def continuous():
        a = member()
        for j in range(1, ell):
            left, right = exact.edges(a)
            a[j][0] += right[j - 1] - left[j]
        return a

    return nodes, exact, (member(), member()), (continuous(), continuous())


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p", range(5))
def test_two_point_ibp_is_exact_where_its_boundary_is(p, seed):
    nodes, exact, (u, v), (cu, cv) = dyadic_case(p, seed)
    ell = len(nodes) - 1
    # the cellwise part is the derivative: sum_l r[l][k] P_l = P_k' at a point
    vals, ders = exact_legendre(0.3, p + 1)
    for k in range(p + 1):
        assert sum(exact.r[l][k] * vals[l] for l in range(p + 1)) == ders[k]
    pairs = [(n, m) for n in range(ell + 1) for m in range(n, ell + 1)]
    for n, m in pairs:
        # a quarter of the change in the jump products between the limits
        law = (exact.jump(u, n) * exact.jump(v, n) - exact.jump(u, m) * exact.jump(v, m)) / 4
        assert exact.two_point_defect(u, v, n, m) == law
        assert exact.two_point_defect(cu, cv, n, m) == 0
    assert exact.two_point_defect(u, v, 0, ell) == 0
    if ell > 1:
        assert any(exact.jump(u, j) * exact.jump(v, j) != 0 for j in range(1, ell))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p", range(5))
def test_exact_reference_is_the_library_operator(p, seed):
    # e_{j,k} = sqrt((2k + 1) / h_j) P_k, so orthonormal coefficients are a / sqrt((2k + 1) / h)
    nodes, exact, (u, v), _ = dyadic_case(p, seed)
    space = Space(Grid(nodes), p)
    to_unit = np.sqrt((2 * np.arange(p + 1) + 1) / space.grid.widths()[:, None])
    uf, vf = (Ultrafunction(space, np.array(a, dtype=float) / to_unit) for a in (u, v))
    du = np.array(exact.apply(u), dtype=float)
    got = derivative_operator(space, "D")(uf).blocks * to_unit
    assert np.max(np.abs(got - du)) <= 1e-13 * (1.0 + np.max(np.abs(du)))
    ell = space.n_cells
    for n in range(ell + 1):
        for m in range(n, ell + 1):
            want = abs(float(exact.two_point_defect(u, v, n, m)))
            assert abs(naive_ibp_defect(uf, vf, n, m) - want) <= 1e-12 * (1.0 + uf.norm() * vf.norm())


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p", range(5))
def test_fundamental_theorem_is_exact(p, seed):
    nodes, exact, (u, v), (cu, cv) = dyadic_case(p, seed)
    ell = len(nodes) - 1
    for a in (u, v, cu, cv):
        du, d2u = exact.apply(a), exact.cellwise(a)
        left, right = exact.edges(a)
        for n in range(ell + 1):
            for m in range(n, ell + 1):
                # D: the node values, whose halves of the end jumps the lifting supplies
                assert exact.integral(du, n, m) == exact.node_value(a, m) - exact.node_value(a, n)
                # D2: the one-sided edge values of every traversed cell
                one_sided = sum(right[n:m], Fraction(0)) - sum(left[n:m], Fraction(0))
                assert exact.integral(d2u, n, m) == one_sided


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p", range(5))
def test_float_fundamental_theorem_is_the_exact_one(p, seed):
    nodes, exact, pair, continuous = dyadic_case(p, seed)
    members = [*pair, *continuous]
    space = Space(Grid(nodes), p)
    to_unit = np.sqrt((2 * np.arange(p + 1) + 1) / space.grid.widths()[:, None])
    ell = space.n_cells
    ranges = [(n, m) for n in range(ell + 1) for m in range(n, ell + 1)]
    # one stack holds every member over every node range
    cases = [(a, n, m) for a in members for n, m in ranges]
    stack = np.array([np.array(a, dtype=float) / to_unit for a, _, _ in cases])
    ns, ms = (np.array(k) for k in zip(*((n, m) for _, n, m in cases)))
    d, d2 = derivative_operator(space, "D"), derivative_operator(space, "D2")
    stacked = calculus._ftc(space, stack, d._apply_blocks(stack), ns, ms)
    stacked_d2 = calculus._ftc_piecewise(space, stack, d2._apply_blocks(stack), ns, ms)
    for i, (a, n, m) in enumerate(cases):
        uf = Ultrafunction(space, stack[i])
        # the largest coefficient times p + 1 bounds every node value
        bound = 16 * np.finfo(float).eps * (1.0 + max(abs(float(c)) for blk in a for c in blk) * (p + 1))
        want = float(exact.integral(exact.apply(a), n, m))
        assert abs(integrate(d(uf), float(nodes[n]), float(nodes[m])) - want) <= bound
        assert ftc_defect(uf, n, m) <= bound
        assert ftc_piecewise_defect(uf, n, m) <= bound
        # the stack runs the one-member functions' arithmetic, bit for bit
        assert stacked[i] == ftc_defect(uf, n, m)
        assert stacked_d2[i] == ftc_piecewise_defect(uf, n, m)
        assert ftc_defect(uf, n, m) == abs(integrate(d(uf), float(nodes[n]), float(nodes[m]))
                                           - (uf(float(nodes[m])) - uf(float(nodes[n]))))


def test_single_cell_space_identities():
    sp = Space(Grid.uniform(2.0, 1), 3)
    d = derivative_operator(sp, "D")
    rng = np.random.default_rng(0)
    u = random_member(sp, rng)
    v = random_member(sp, rng)
    assert ibp_defect(u, v) <= 1e-12 * (1.0 + u.norm() * v.norm())
    lhs = integrate(d.apply(u), -2.0, 2.0)
    assert abs(lhs - (u(2.0) - u(-2.0))) <= 1e-12 * (1.0 + u.norm())


def test_degree_zero_derivative_is_pure_jumps():
    sp = Space(Grid.uniform(1.0, 6), 0)
    d = derivative_operator(sp, "D")
    assert np.all(derivative_operator(sp, "D2").matrix == 0.0)
    assert np.max(np.abs(d.matrix - jump_part_matrix(sp))) <= 1e-13
    rng = np.random.default_rng(1)
    g = sp.grid_function(rng.standard_normal(6))
    nodes = sp.grid.nodes
    for n, m in [(0, 6), (1, 4), (2, 2), (0, 3)]:
        a, b = float(nodes[n]), float(nodes[m])
        lhs = integrate(d.apply(g), a, b)
        assert abs(lhs - (g(b) - g(a))) <= 1e-12
    h = sp.grid_function(rng.standard_normal(6))
    assert ibp_defect(g, h) <= 1e-12 * (1.0 + g.norm() * h.norm())


def test_identities_hold_on_non_uniform_grid():
    sp = Space(Grid.with_tags(1.0, [-0.45, 0.1, 0.3], 0.5), 2)
    d = derivative_operator(sp, "D")
    rng = np.random.default_rng(8)
    nodes = sp.grid.nodes
    for _ in range(30):
        u = random_member(sp, rng)
        v = random_member(sp, rng)
        assert ibp_defect(u, v) <= 1e-10 * (1.0 + u.norm() * v.norm())
        n, m = sorted(rng.integers(0, nodes.size, size=2))
        a, b = float(nodes[n]), float(nodes[m])
        lhs = integrate(d.apply(u), a, b)
        assert abs(lhs - (u(b) - u(a))) <= 1e-10 * (1.0 + u.norm())
        assert ibp_piecewise_defect(u, v, int(n), int(m)) <= 1e-10 * (
            1.0 + u.norm() * v.norm()
        )
