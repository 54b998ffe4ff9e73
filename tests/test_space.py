import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from strategies import grids
from ultracalc import DistributionSpec, Grid, InvalidArgumentError, Ladder, Space, Ultrafunction
from ultracalc.space import _legendre, _monomial_moments


@pytest.fixture
def space():
    return Space(Grid.uniform(1.0, 4), 2)


def test_dimension_counts():
    for p in (0, 2, 5):
        sp = Space(Grid.uniform(1.0, 7), p)
        assert sp.dim == 7 * (p + 1)


def test_single_cell_constant_basis_value():
    # one cell spanning [-1, 1]: the normalized constant is 1/sqrt(2)
    sp = Space(Grid.uniform(1.0, 1), 0)
    val = sp.basis_values(0, 0.37)[0]
    assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)


def test_unit_cell_constant_basis_value():
    # cell (0, 1) has width 1, so its normalized constant is 1
    sp = Space(Grid.with_tags(1.0, [0.0], 1.0), 0)
    assert sp.basis_values(1, 0.5)[0] == pytest.approx(1.0, abs=1e-14)


def test_splitted_basis_gram_is_identity(space):
    block = space.splitted_basis().gram_matrix()
    assert block.shape == (space.block_size, space.block_size)
    g = np.kron(np.eye(space.n_cells), block)
    assert np.max(np.abs(g - np.eye(space.dim))) <= 1e-12


@pytest.mark.parametrize("p", range(7))
def test_gram_matrix_equals_pairwise_inner_products(p):
    rng = np.random.default_rng(p)
    tags = np.sort(rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 8))))
    elements = list(Space(Grid.with_tags(1.0, tags.tolist(), 2.0), p).splitted_basis())
    pairwise = np.array([[u.inner(v) for v in elements] for u in elements])
    sp = elements[0].space
    gram = np.kron(np.eye(sp.n_cells), sp.splitted_basis().gram_matrix())
    assert np.array_equal(gram, pairwise)


def test_splitted_basis_elements_have_one_block(space):
    for j in range(space.n_cells):
        for k in range(space.block_size):
            e = space.splitted_basis().element(j, k)
            nz = np.nonzero(np.any(e.blocks != 0.0, axis=1))[0]
            assert list(nz) == [j]


@pytest.mark.parametrize("j, k", [(True, 0), (0, True), (np.True_, 0), (1.5, 0), (0, 1.0), (4, 0), (0, -1)])
def test_splitted_basis_refuses_what_is_no_index(space, j, k):
    with pytest.raises(InvalidArgumentError, match="basis index out of range"):
        space.splitted_basis().element(j, k)
    e = space.splitted_basis().element(np.int64(1), np.int32(2))
    assert e.blocks[1].tolist() == [0.0, 0.0, 1.0]


def test_disjoint_blocks_have_exactly_zero_inner(space):
    rng = np.random.default_rng(3)
    for j in range(space.n_cells):
        for k in range(space.n_cells):
            if j == k:
                continue
            bu = np.zeros((space.n_cells, space.block_size))
            bv = np.zeros((space.n_cells, space.block_size))
            bu[j] = rng.standard_normal(space.block_size)
            bv[k] = rng.standard_normal(space.block_size)
            assert Ultrafunction(space, bu).inner(Ultrafunction(space, bv)) == 0.0


def test_eval_indicator_node_conventions(space):
    a, b = -0.5, 0.5
    chi = space.indicator(a, b)
    assert chi(a) == pytest.approx(0.5, abs=1e-13)
    assert chi(b) == pytest.approx(0.5, abs=1e-13)
    assert chi(0.25) == pytest.approx(1.0, abs=1e-13)
    assert chi(0.75) == pytest.approx(0.0, abs=1e-13)


def test_eval_indicator_touching_support_boundary(space):
    chi = space.indicator(-1.0, 0.5)
    assert chi(-1.0) == pytest.approx(1.0, abs=1e-13)
    chi2 = space.indicator(-0.5, 1.0)
    assert chi2(1.0) == pytest.approx(1.0, abs=1e-13)


def test_eval_single_block():
    sp = Space(Grid.with_tags(1.0, [0.0], 1.0), 0)
    u = sp.constant(1.0).restrict(0.0, 1.0)
    assert u(0.5) == pytest.approx(1.0, abs=1e-14)


def test_eval_outside_support_is_zero(space):
    u = space.constant(3.0)
    assert u(1.5) == 0.0
    assert u(-2.0) == 0.0


def test_side_values_of_step(space):
    step = space.indicator(0.0, 1.0)
    assert step.side_value(2, "minus") == pytest.approx(0.0, abs=1e-14)
    assert step.side_value(2, "plus") == pytest.approx(1.0, abs=1e-14)


def test_side_values_agree_for_continuous_member(space):
    u = space.from_polynomial([0.3, -1.0, 0.25])
    for j in range(1, space.n_cells):
        assert u.side_value(j, "plus") == pytest.approx(
            u.side_value(j, "minus"), abs=1e-13
        )
        assert u(space.grid.nodes[j]) == pytest.approx(
            u.side_value(j, "plus"), abs=1e-13
        )


def test_side_value_unavailable_at_endpoints(space):
    u = space.constant(1.0)
    with pytest.raises(InvalidArgumentError):
        u.side_value(0, "minus")
    with pytest.raises(InvalidArgumentError):
        u.side_value(space.n_cells, "plus")


def test_norm_of_unit_constant_on_unit_cell():
    sp = Space(Grid.with_tags(1.0, [0.0], 1.0), 0)
    u = sp.constant(1.0).restrict(0.0, 1.0)
    assert u.norm() == pytest.approx(1.0, abs=1e-13)


def test_inner_rejects_mismatched_spaces(space):
    other = Space(Grid.uniform(1.0, 5), 2)
    with pytest.raises(InvalidArgumentError):
        space.constant(1.0).inner(other.constant(1.0))


def test_global_polynomial_represented_exactly(space):
    rng = np.random.default_rng(11)
    coeffs = rng.uniform(-1.0, 1.0, size=space.block_size)
    u = space.from_polynomial(coeffs)
    for x in rng.uniform(-1.0, 1.0, size=100):
        x = space.grid.snap(float(x))
        expected = float(np.polynomial.polynomial.polyval(x, coeffs))
        assert abs(u(x) - expected) <= 1e-12 * (1.0 + abs(expected))


def _from_polynomial_reference(space, coeffs):
    """Loads of a polynomial by the ``p + 2``-point Gauss rule, one cell at a time."""
    t, w = leggauss(space.degree + 2)
    vals = np.stack(_legendre(t, space.block_size), axis=-1)  # (nq, n)
    blocks = np.empty((space.n_cells, space.block_size))
    for j in range(space.n_cells):
        h = space._widths[j]
        xs, ws = space._mids[j] + 0.5 * h * t, 0.5 * h * w
        blocks[j] = (ws * np.polynomial.polynomial.polyval(xs, coeffs)) @ (space._scales[j] * vals)
    return blocks


def test_from_polynomial_matches_per_cell_reference():
    """The closed form agrees with the Gauss rule within ``64 eps sqrt(h_j) M_j``, where
    ``M_j = sum |a_m| (|mid_j| + h_j / 2)**m`` bounds ``|p|`` on cell ``j``, and its
    coefficients above the polynomial's degree are exactly zero.

    Half the grids lie next to ``+-beta`` with ``beta`` up to ``1e6`` and cells down to
    ``1e-6 beta``, so ``|mid| / h`` reaches about ``1e9``, where the shift to the cell
    cancels.  Over 1,500 such draws the difference was at most 28.6 eps, and no larger
    on the grids far from 0: the Gauss rule sums the same monomial form.
    """
    rng = np.random.default_rng(12)
    eps = np.finfo(float).eps
    for trial in range(300):
        ell = int(rng.integers(1, 40))
        if trial % 2:
            beta = 10.0 ** rng.uniform(0.0, 6.0)
            tags = np.sort(rng.choice([-1.0, 1.0]) * beta * (1.0 - 10.0 ** rng.uniform(-6.0, 0.0, size=ell - 1)))
            grid = Grid.with_tags(beta, tags.tolist(), 2.0 * beta)
        else:
            grid = Grid.with_tags(1.0, np.sort(rng.uniform(-0.99, 0.99, size=ell - 1)).tolist(), 2.0)
        sp = Space(grid, int(rng.integers(0, 21)))
        d = int(rng.integers(1, sp.block_size + 1))
        coeffs = rng.uniform(-1.0, 1.0, size=d)
        got = sp.from_polynomial(coeffs).blocks
        assert np.all(got[:, d:] == 0.0)
        h = sp._widths[:, None]
        size = np.polynomial.polynomial.polyval(np.abs(sp._mids[:, None]) + 0.5 * h, np.abs(coeffs))
        bound = 64.0 * eps * np.sqrt(h) * size
        assert np.all(np.abs(got - _from_polynomial_reference(sp, coeffs)) <= bound)


def _column_major_from_polynomial(space, coeffs):
    """The Horner pass on a ``(cells, d)`` array, whose column slices are strided."""
    a = np.asarray(coeffs, dtype=float)
    ell, d = space.n_cells, a.size
    mid, half = space._mids[:, None], 0.5 * space._widths[:, None]
    q = np.zeros((ell, d))
    q[:, :1] = a[-1]
    for coeff in a[-2::-1]:
        q[:, 1:] = mid * q[:, 1:] + half * q[:, :-1]
        q[:, :1] = mid * q[:, :1] + coeff
    blocks = np.zeros((ell, space.block_size))
    blocks[:, :d] = np.sqrt(half) * (q @ _monomial_moments(d))
    return blocks


@pytest.mark.parametrize(
    "grid",
    [Grid.uniform(1.0, 1), Grid.uniform(1.0, 3), Grid.uniform(1.0, 16), Grid.uniform(3.0, 1024),
     Grid.with_tags(3.0, [-2.9, 0.01, 1e-9, 2.5], 0.4), Grid([-1e6, -1.0, 1e-3, 7.0, 1e6])],
)
def test_from_polynomial_keeps_the_bits_of_the_column_major_pass(grid):
    # the row-major pass multiplies a C-contiguous copy of q.T: with the
    # transposed view itself, ell = 3, p = 20, d = 20 gave other bits
    rng = np.random.default_rng(grid.n_cells)
    for degree in range(21):
        sp = Space(grid, degree)
        for d in range(1, degree + 2):
            coeffs = rng.uniform(-1.0, 1.0, size=d)
            want = _column_major_from_polynomial(sp, coeffs)
            assert np.array_equal(bits(sp.from_polynomial(coeffs).blocks), bits(want)), (degree, d)


def test_from_polynomial_rejects_too_high_degree(space):
    with pytest.raises(InvalidArgumentError):
        space.from_polynomial([0.0, 0.0, 0.0, 1.0])


def test_grid_function_values(space):
    vals = np.array([1.0, -2.0, 0.5, 3.0])
    g = space.grid_function(vals)
    for j, v in enumerate(vals):
        a, b = space.grid.cell_bounds(j)
        assert g(0.5 * (a + b)) == pytest.approx(v, abs=1e-13)


def test_member_arithmetic(space):
    rng = np.random.default_rng(5)
    u = Ultrafunction(space, rng.standard_normal((4, 3)))
    v = Ultrafunction(space, rng.standard_normal((4, 3)))
    w = 2.0 * u - v
    x = 0.313
    assert w(x) == pytest.approx(2.0 * u(x) - v(x), abs=1e-12)


def test_blocks_read_only(space):
    u = space.constant(1.0)
    with pytest.raises(ValueError):
        u.blocks[0, 0] = 5.0


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def exact_legendre(t: float, n: int) -> tuple[list[Fraction], list[Fraction]]:
    """``P_k(t)`` and ``P_k'(t)`` for ``k < n``, in exact rational arithmetic.

    Bonnet's recurrence for the values and ``P_k' = P_{k-2}' + (2k - 1)
    P_{k-1}`` for the derivatives, on the float ``t`` read as a fraction.
    """
    t = Fraction(t)
    vals, ders = [Fraction(1), t][:n], [Fraction(0), Fraction(1)][:n]
    for k in range(2, n):
        vals.append(((2 * k - 1) * t * vals[k - 1] - (k - 1) * vals[k - 2]) / k)
        ders.append(ders[k - 2] + (2 * k - 1) * vals[k - 1])
    return vals, ders


def norms(n: int) -> np.ndarray:
    """``sqrt(k + 1/2)`` for ``k < n``: the orthonormal basis is ``norms * P_k``."""
    return np.sqrt(np.arange(n) + 0.5)


def assert_is_the_exact_basis(got, t, scale) -> None:
    """``got[..., k]`` is ``scale * sqrt(k + 1/2) * P_k(t)`` within ``(2k + 10) eps`` times
    ``scale * sqrt(k + 1/2)``, the bound of its magnitude.

    The recurrence's rounding grows about as ``k`` ulps at points next to
    ``+-1``, and stays below ``10 eps`` in the interior and at Gauss points.
    """
    got = np.asarray(got)
    n = got.shape[-1]
    want = np.array([[float(v) for v in exact_legendre(ti, n)[0]] for ti in np.ravel(t)])
    bound = (2.0 * np.arange(n) + 10.0) * np.finfo(float).eps * norms(n) * np.ravel(scale)[:, None]
    err = np.abs(got.reshape(-1, n) - np.ravel(scale)[:, None] * norms(n) * want)
    assert np.all(err <= bound), float(np.max(err / bound))


@pytest.mark.parametrize("degree", range(21))
def test_shared_reference_cell_matches_the_per_space_construction(degree):
    """The recurrence at the Gauss points, the edge rows and the batched and scalar basis
    values equal the exact orthonormal Legendre basis."""
    grid = Grid.with_tags(1.5, [-0.7, 0.01, 0.9], 0.3)
    sp = Space(grid, degree)
    n = sp.block_size
    t, _ = leggauss(degree + 2)
    assert_is_the_exact_basis(np.stack(_legendre(t, n), axis=-1), t, np.ones(t.size))
    # at +-1 every recurrence step is exact, so the edge rows are exact too
    for name, end in (("left_rows", -1.0), ("right_rows", 1.0)):
        exact = np.array([float(v) for v in exact_legendre(end, n)[0]]) * norms(n)
        np.testing.assert_array_equal(bits(getattr(sp, name)), bits(sp._scales[:, None] * exact))
    rng = np.random.default_rng(degree)
    cells = np.arange(sp.n_cells)
    a, b = grid.nodes[:-1, None], grid.nodes[1:, None]
    # two random points and two next to the ends of every cell
    u = np.concatenate([rng.uniform(0.0, 1.0, size=(sp.n_cells, 2)), np.tile([1e-9, 1.0 - 1e-9], (sp.n_cells, 1))], 1)
    x = a + (b - a) * u
    got = sp.cell_basis_values(cells, x)
    t = np.array([[sp.to_reference(j, xi) for xi in x[j].tolist()] for j in cells])
    assert_is_the_exact_basis(got, t, np.repeat(sp._scales, x.shape[1]))
    for j in cells:
        for i, xi in enumerate(x[j].tolist()):
            np.testing.assert_array_equal(bits(sp.basis_values(j, xi)), bits(got[j, i]))


@pytest.mark.parametrize("degree", range(21))
def test_derivative_coupling_is_its_closed_form(degree):
    """``_deriv_ref[m, k]`` is ``sqrt((2m + 1)(2k + 1))`` for ``k > m``, ``k + m`` odd, else 0,
    and the Gauss-rule integral of ``e_m e_k'`` to rounding."""
    sp = Space(Grid.uniform(1.0, 2), degree)
    n = sp.block_size
    closed = np.zeros((n, n))
    for m in range(n):
        for k in range(m + 1, n, 2):
            closed[m, k] = math.sqrt((2 * m + 1) * (2 * k + 1))
    np.testing.assert_array_equal(bits(sp._deriv_ref), bits(closed))
    t, w = leggauss(degree + 2)
    exact = [exact_legendre(ti, n) for ti in t.tolist()]
    vals = np.array([[float(v) for v in e[0]] for e in exact]) * norms(n)
    ders = np.array([[float(d) for d in e[1]] for e in exact]) * norms(n)
    integral = (vals * w[:, None]).T @ ders
    assert np.max(np.abs(integral - sp._deriv_ref)) <= 50.0 * np.finfo(float).eps * np.max(closed, initial=1.0) * n


def test_monomial_moments_are_their_exact_integrals():
    """``_monomial_moments(n)[i, k]`` is ``integral of t**i e_k`` over ``[-1, 1]`` within 4 eps
    relative (at most 2.2 eps measured), exactly zero where the integral is, and the table of
    each shorter length is the leading block of the longest."""
    n = 21
    monomials = [[Fraction(1)], [Fraction(0), Fraction(1)]]  # P_k in the monomial basis
    for k in range(2, n):
        up = [Fraction(0)] + [(2 * k - 1) * c for c in monomials[k - 1]]
        down = monomials[k - 2] + [Fraction(0), Fraction(0)]
        monomials.append([(a - (k - 1) * b) / k for a, b in zip(up, down)])
    def integral(i, k):  # of t**i P_k: the odd powers integrate to 0
        return sum((c * Fraction(2, i + m + 1) for m, c in enumerate(monomials[k]) if (i + m) % 2 == 0), Fraction(0))

    exact = np.array([[float(integral(i, k)) for k in range(n)] for i in range(n)]) * norms(n)
    table = _monomial_moments(n)
    assert np.array_equal(table == 0.0, exact == 0.0)
    assert np.all(np.abs(table - exact) <= 4.0 * np.finfo(float).eps * np.abs(exact))
    for d in range(1, n):
        assert np.array_equal(_monomial_moments(d), table[:d, :d])


SHARED = ("_deriv_ref",)


@pytest.mark.parametrize("degree", [0, 3])
def test_spaces_of_one_degree_share_read_only_reference_arrays(degree):
    a = Space(Grid.uniform(1.0, 4), degree)
    b = Space(Grid.with_tags(3.0, [0.5], 0.7), degree)
    for name in SHARED:
        assert getattr(a, name) is getattr(b, name), name
    assert a._deriv_ref is not Space(a.grid, degree + 1)._deriv_ref
    for name in (*SHARED, "left_rows", "right_rows"):
        value = getattr(a, name)
        with pytest.raises(ValueError):
            value[(0,) * value.ndim] = 1.0


@pytest.mark.parametrize("degree", [2.5, -0.5, True, np.True_, "2", None, float("nan"), -1])
def test_malformed_degree_is_refused(degree):
    with pytest.raises(InvalidArgumentError, match="degree"):
        Space(Grid.uniform(1.0, 4), degree)


def test_integral_float_degree_is_accepted():
    sp = Space(Grid.uniform(1.0, 4), 2.0)
    assert sp.degree == 2 and type(sp.degree) is int
    assert sp == Space(Grid.uniform(1.0, 4), np.int64(2))


# the other counts follow the degree's rule, each with its own least value
COUNTS = {
    "ell": (lambda n: Grid.uniform(1.0, n).n_cells, 0),
    "order": (lambda n: DistributionSpec(n, math.sin).order, -1),
    "levels": (lambda n: len(Ladder.from_base(Space(Grid.uniform(1.0, 2), 0), n, "dyadic-split").stages), 0),
}


@pytest.mark.parametrize("value", [2.5, True, np.True_, "2", None, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("count", COUNTS)
def test_malformed_count_is_refused(count, value):
    make, too_small = COUNTS[count]
    for n in (value, too_small):
        with pytest.raises(InvalidArgumentError):
            make(n)


@pytest.mark.parametrize("count", COUNTS)
def test_integral_float_count_is_accepted(count):
    make, _ = COUNTS[count]
    assert make(2.0) == make(np.int64(2)) == 2


def test_norm_does_not_overflow_for_huge_finite_members():
    u = Space(Grid.uniform(1.0, 4), 1).constant(1e200)
    assert u.norm() == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert "norm=1.41421e+200" in repr(u)
    # orthonormal basis: the norm is that of the coefficient vector
    v = Ultrafunction(u.space, np.full((4, 2), -1e300))
    assert v.norm() == pytest.approx(math.sqrt(8.0) * 1e300, rel=1e-15)
    blocks = np.zeros((4, 2))
    blocks[:, 0] = 1.5e308  # norm 3e308 is past the largest float
    assert Ultrafunction(u.space, blocks).norm() == math.inf


@settings(deadline=None, max_examples=60)
@given(grid=grids(), degree=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-150.0, 150.0))
def test_norm_equals_the_plain_formula_on_ordinary_members(grid, degree, seed, scale):
    sp = Space(grid, degree)
    blocks = np.random.default_rng(seed).standard_normal((sp.n_cells, sp.block_size))
    u = Ultrafunction(sp, blocks * 10.0**scale)
    assert bits(u.norm()) == bits(math.sqrt(max(u.inner(u), 0.0)))
