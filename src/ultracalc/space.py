"""Grid-partitioned piecewise-polynomial space with per-cell orthonormal bases.

Construction
------------
On the reference interval ``[-1, 1]`` the basis is the orthonormal Legendre
basis ``sqrt(k + 1/2) * P_k(t)``, ``k = 0 .. p``, the modal basis of
discontinuous-Galerkin methods.  One kernel, ``_legendre``, evaluates it by
the three-term recurrence, on a Python float or on an array alike.  Its
derivative coupling and its edge values have closed forms.  The coupling
and the edge values depend on the degree alone, so they are built once per
degree and shared, read-only, by every space of that degree; a space adds
only its grid's widths, midpoints and scales.  Each cell carries the
affinely mapped copy of that basis, rescaled by ``sqrt(2 / h)`` so it stays
orthonormal in L2 over the cell.  The whole space is the orthogonal direct
sum of the cell spaces: basis elements of different cells have disjoint
supports, so their inner product is exactly zero, never merely small.

Pointwise conventions
---------------------
Members are polynomials inside each open cell and zero outside
``[-beta, beta]``.  A block dotted with its cell's scaled left (right) edge
row is the plus (minus) limit at the cell's left (right) node.  The value at
a node averages the limits that exist: ``0.5 * (minus + plus)`` inside, the
one-sided limit at ``-beta`` and ``beta``.  :meth:`Space.node_terms` states
this rule once for node values, side limits, jumps and node deltas;
:meth:`Space.edges`, ``D`` and :meth:`Ultrafunction.sample` read the edge
rows of all cells at once.  The one-point paths (:meth:`Space.basis_values`,
``u(x)``, node values) run the recurrence on Python floats and the
``DOUBLE_dot`` products of the array paths, so their values match
:meth:`Space.cell_basis_values` and :meth:`Ultrafunction.sample` bit for
bit.

Inner products and integrals need no quadrature.  Each cell's Gram matrix
is exactly the identity, so the inner product of two members is the sum over
cells of the dot products of their blocks, and the integral of a member over
cell ``j`` is ``sqrt(h_j)`` times its constant coefficient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.polynomial import legendre

from .errors import InvalidArgumentError
from .grid import Grid, PointKind, is_count, is_index

Side = Literal["plus", "minus"]


_SQRT_HALF = math.sqrt(0.5)  # the constant basis polynomial sqrt(1/2) * P_0


@functools.cache
def _recurrence(n: int) -> tuple[tuple[float, float], ...]:
    """``(sqrt(k + 1/2), (k - 1) / k)`` for ``0 < k < n``: each norm and recurrence factor."""
    return tuple((math.sqrt(k + 0.5), (k - 1.0) / k) for k in range(1, n))


def _legendre(t, n: int) -> list:
    """The orthonormal Legendre basis ``sqrt(k + 1/2) * P_k(t)`` for ``k < n``, as a list.

    Bonnet's recurrence ``k P_k = (2k - 1) t P_{k-1} - (k - 1) P_{k-2}``,
    written ``P_k = u + (k - 1) / k * (u - P_{k-2})`` with ``u = t P_{k-1}``:
    near ``t = +-1`` the difference is small and nearly exact, so the error
    grows about as ``k`` ulps there, not ``k**2``.  It uses only ``+ - *``
    on ``t``, so a Python float and a float array of any shape run the same
    operations and give the same bits.  At ``t = +-1`` every step is exact,
    so the values are ``(+-1)**k * sqrt(k + 1/2)``.
    """
    prev, cur = 0.0, t * 0.0 + 1.0
    vals = [_SQRT_HALF * cur]
    for norm, c in _recurrence(n):
        u = t * cur
        prev, cur = cur, u + c * (u - prev)
        vals.append(norm * cur)
    return vals


@functools.cache
def _reference(degree: int):
    """Everything about the degree-``degree`` basis on ``[-1, 1]`` that no grid changes.

    Returns ``(deriv_ref, left, right)``: the derivative coupling
    ``ref[m, k] = integral of e_m * e_k'``, which is ``sqrt((2m + 1)(2k + 1))``
    for ``k > m`` with ``k + m`` odd and 0 otherwise, and the basis values at
    ``-1`` and ``1``, ``(+-1)**k * sqrt(k + 1/2)``.  The cache hands the same
    arrays to every space of the degree, so they are read-only.
    """
    n = degree + 1
    left, right = np.stack(_legendre(np.array([-1.0, 1.0]), n), axis=-1)
    k = np.arange(n)
    m = k[:, None]
    deriv_ref = np.where((k > m) & ((k + m) % 2 == 1), np.sqrt((2.0 * m + 1.0) * (2.0 * k + 1.0)), 0.0)
    for a in (deriv_ref, left, right):
        a.flags.writeable = False
    return deriv_ref, left, right


@functools.cache
def _monomial_moments(n: int) -> np.ndarray:
    """``(n, n)`` read-only table of ``integral over [-1, 1] of t**i * e_k(t) dt``.

    ``t**i = sum_k c_ik P_k`` (``legendre.poly2leg``) and ``P_k`` has squared
    norm ``2 / (2k + 1)``, so the entry is ``c_ik / sqrt(k + 1/2)``.  It is
    exactly zero for ``k > i`` and for odd ``i + k``.
    """
    table = np.zeros((n, n))
    for i in range(n):
        table[i, : i + 1] = legendre.poly2leg([0.0] * i + [1.0])
    table /= np.sqrt(np.arange(n) + 0.5)
    table.flags.writeable = False
    return table


class Space:
    """Direct sum of degree-``p`` polynomial spaces, one per grid cell."""

    __slots__ = (
        "grid",
        "degree",
        "_deriv_ref",
        "left_rows",
        "right_rows",
        "_widths",
        "_mids",
        "_scales",
    )

    def __init__(self, grid: Grid, degree: int):
        if not is_count(degree, 0):
            raise InvalidArgumentError(f"degree must be a nonnegative integer, got {degree!r}")
        degree = int(degree)
        deriv_ref, left, right = _reference(degree)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_deriv_ref", deriv_ref)
        widths = grid.widths()
        scales = np.sqrt(2.0 / widths)
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_mids", 0.5 * (grid.nodes[:-1] + grid.nodes[1:]))
        object.__setattr__(self, "_scales", scales)
        # edge rows (ell, n): row j is the cell-j basis at its left / right end
        for name, ref_row in (("left_rows", left), ("right_rows", right)):
            rows = scales[:, None] * ref_row
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)

    def __setattr__(self, name, value):
        raise AttributeError("Space is immutable")

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    @property
    def block_size(self) -> int:
        return self.degree + 1

    @property
    def dim(self) -> int:
        return self.n_cells * (self.degree + 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Space):
            return NotImplemented
        return self.degree == other.degree and self.grid == other.grid

    __hash__ = None

    def __repr__(self) -> str:
        return f"Space(n_cells={self.n_cells}, degree={self.degree}, dim={self.dim})"

    # ------------------------------------------------------------------
    # basis evaluation
    # ------------------------------------------------------------------

    def to_reference(self, j: int, x: float) -> float:
        return (2.0 * x - 2.0 * self._mids.item(j)) / self._widths.item(j)

    def basis_values(self, j: int, x: float) -> np.ndarray:
        """Values of the cell-``j`` basis polynomials at ``x`` (closure of the cell).

        The Legendre recurrence and the scaling on Python floats: the
        operations of :meth:`cell_basis_values` on one point, so the values
        are the same bit for bit.
        """
        t = self.to_reference(j, float(x))
        scale = self._scales.item(j)
        return np.array([scale * v for v in _legendre(t, self.block_size)])

    def cell_basis_values(self, cells, x) -> np.ndarray:
        """Basis values of cell ``cells[i]`` at every point of row ``x[i]``.

        ``x`` has shape ``(m, P)`` for ``m`` cells and the result, C-contiguous,
        ``(m, P, n)``; the Legendre recurrence runs once on the whole array,
        so each entry equals what :meth:`basis_values` gives for that cell
        and point.
        """
        cells = np.asarray(cells)
        t = (2.0 * x - 2.0 * self._mids[cells][:, None]) / self._widths[cells][:, None]
        vals = np.stack(_legendre(t, self.block_size), axis=-1)
        return self._scales[cells][:, None, None] * vals

    def edges(self, blocks) -> tuple[np.ndarray, np.ndarray]:
        """Left and right edge values of every cell, for blocks of shape ``(..., ell, n)``.

        ``left[..., j]`` is the plus limit at node ``j`` and ``right[..., j]``
        the minus limit at node ``j + 1``, bit for bit as in :meth:`node_terms`.
        """
        return np.vecdot(blocks, self.left_rows), np.vecdot(blocks, self.right_rows)

    def node_terms(self, j: int, side: Side | None = None):
        """The node rule: ``(weight, ((cell, row), ...))`` for node ``j``.

        A member's minus or plus limit at node ``j`` (``side``), or its node
        value (``None``), is ``weight`` times the sum, in order, of its
        blocks of the given cells dotted with their edge rows.  Raises when
        ``j`` is not a node index or ``side`` has no cell.
        """
        ell = len(self.left_rows)  # n_cells, without two property reads
        if not (is_index(j) and 0 <= j <= ell):
            raise InvalidArgumentError(f"node index must be an integer in [0, {ell}], got {j}")
        if side is None and 0 < j < ell:
            return 0.5, ((j - 1, self.right_rows[j - 1]), (j, self.left_rows[j]))
        if side is None:  # at -beta or beta only one limit exists
            side = "plus" if j == 0 else "minus"
        if side == "plus" and j < ell:
            return 1.0, ((j, self.left_rows[j]),)
        if side == "minus" and j > 0:
            return 1.0, ((j - 1, self.right_rows[j - 1]),)
        if side not in ("plus", "minus"):
            raise InvalidArgumentError("side must be 'plus' or 'minus'")
        raise InvalidArgumentError(f"no cell on the {side} side of node {j}")

    @staticmethod
    def _product_integral(a, b) -> np.ndarray:
        """Integrals over the cells of the products of members' blocks ``a`` and ``b`` ``(..., ell, n)``.

        The cell bases are orthonormal, so each is the sum over cells of the
        blocks' dot products; the result has the leading shape.  A sum that
        overflows is ``inf``, without a warning.
        """
        with np.errstate(over="ignore"):
            return np.vecdot(a, b).sum(axis=-1)

    @staticmethod
    @np.errstate(over="ignore")
    def _norms(blocks) -> np.ndarray:
        """L2 norms of the members with blocks ``(..., ell, n)``, of the leading shape.

        Where only a square overflows, the norm is computed on that member's
        blocks scaled by a power of two: the scaling is exact, so only the
        overflow is avoided; a norm beyond the largest float is ``inf``,
        without a warning.  One member whose square is finite, the common case,
        costs two numpy calls.
        """
        squares = np.add.reduce(np.vecdot(blocks, blocks), -1)
        if squares.ndim == 0 and squares < math.inf:
            return math.sqrt(squares)
        stack = blocks.reshape(-1, *blocks.shape[-2:])
        norms = np.sqrt(squares).reshape(-1)
        redo = ~np.isfinite(norms)
        if redo.any():
            redo &= np.isfinite(stack).all(axis=(1, 2))
            big = stack[redo]
            e = np.frexp(np.max(np.abs(big), axis=(1, 2)))[1]
            scaled = np.ldexp(big, -e[:, None, None])
            norms[redo] = np.ldexp(np.sqrt(np.vecdot(scaled, scaled).sum(axis=-1)), e)
        return norms.reshape(blocks.shape[:-2])

    def _sample(self, blocks, xs) -> np.ndarray:
        """Values ``(..., points)`` of the members with blocks ``(..., ell, n)`` at ``xs``."""
        x = np.asarray(xs, dtype=float).reshape(-1)
        kind, index = self.grid.classify(x)
        out = np.zeros((*blocks.shape[:-2], x.size))
        inside = kind == PointKind.INTERIOR
        cells = index[inside]
        vals = self.cell_basis_values(cells, x[inside, None])[:, 0]
        out[..., inside] = np.vecdot(np.take(blocks, cells, axis=-2), vals)
        at = kind == PointKind.NODE
        j = index[at]
        ell = len(self.left_rows)  # n_cells, without two property reads
        left, right = np.maximum(j - 1, 0), np.minimum(j, ell - 1)
        minus = np.vecdot(np.take(blocks, left, axis=-2), self.right_rows[left])
        plus = np.vecdot(np.take(blocks, right, axis=-2), self.left_rows[right])
        out[..., at] = np.where(j == 0, plus, np.where(j == ell, minus, 0.5 * (minus + plus)))
        return out

    # ------------------------------------------------------------------
    # members
    # ------------------------------------------------------------------

    def zero(self) -> "Ultrafunction":
        return Ultrafunction(self, np.zeros((self.n_cells, self.block_size)))

    def from_polynomial(self, poly_coeffs) -> "Ultrafunction":
        """Exact member equal to ``sum_m a_m x**m`` on the whole support.

        The polynomial degree must not exceed the cell degree.  One Horner pass
        over a ``(d, cells)`` array composes ``q(t) = sum_m a_m (mid + h t / 2)**m``
        on every cell; the block is ``sqrt(h / 2)`` times ``q``'s C-contiguous
        transpose (a view can round differently) against :func:`_monomial_moments`.
        The coefficients above the polynomial's degree are exactly zero.
        """
        a = np.asarray(poly_coeffs, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise InvalidArgumentError("polynomial coefficients must be a 1-d sequence")
        if a.size > self.block_size:
            raise InvalidArgumentError(
                f"polynomial degree {a.size - 1} exceeds cell degree {self.degree}"
            )
        return Ultrafunction(self, self._polynomial_blocks(a))

    def _polynomial_blocks(self, a) -> np.ndarray:
        """Blocks ``(..., ell, n)`` of :meth:`from_polynomial` for coefficients ``(..., d)``:
        one Horner pass over a ``(..., d, cells)`` array."""
        ell, d = self.n_cells, a.shape[-1]
        mid, half = self._mids, 0.5 * self._widths
        q = np.zeros((*a.shape[:-1], d, ell))  # q[..., i, j] multiplies t**i on cell j
        q[..., :1, :] = a[..., -1:, None]
        for i in range(d - 2, -1, -1):
            q[..., 1:, :] = mid * q[..., 1:, :] + half * q[..., :-1, :]
            q[..., :1, :] = mid * q[..., :1, :] + a[..., i, None, None]
        blocks = np.zeros((*a.shape[:-1], ell, self.block_size))
        rows = np.ascontiguousarray(np.swapaxes(q, -1, -2))
        blocks[..., :d] = np.sqrt(half)[:, None] * (rows @ _monomial_moments(d))
        return blocks

    def constant(self, value: float) -> "Ultrafunction":
        """Member equal to ``value`` on the whole support: only the constant coefficients are nonzero."""
        return self.grid_function(np.full(self.n_cells, float(value)))

    def grid_function(self, cell_values) -> "Ultrafunction":
        """Member that is constant on every cell, with the given values."""
        v = np.asarray(cell_values, dtype=float)
        if v.shape != (self.n_cells,):
            raise InvalidArgumentError("need one value per cell")
        return Ultrafunction(self, self._grid_blocks(v))

    def _grid_blocks(self, cell_values) -> np.ndarray:
        """Blocks ``(..., ell, n)`` of the members constant on every cell, for values ``(..., ell)``."""
        blocks = np.zeros((*cell_values.shape, self.block_size))
        # e_{j,0} is the positive constant scale * sqrt(1/2)
        blocks[..., 0] = cell_values / (self._scales * _SQRT_HALF)
        return blocks

    def indicator(self, a: float, b: float) -> "Ultrafunction":
        """Characteristic function of ``[a, b]`` for grid nodes ``a <= b``."""
        return self.constant(1.0).restrict(a, b)

    def splitted_basis(self) -> "SplittedBasis":
        return SplittedBasis(self)


class Ultrafunction:
    """Member of a :class:`Space`: one coefficient block per cell.

    ``blocks`` is the read-only ``(ell, p + 1)`` array of those blocks; the
    constructor copies the array it is given.  Members that are zero outside
    one or two cells (deltas, basis-pair members, splitted-basis elements)
    store only those blocks, so building one costs ``O(p)``, and build
    ``blocks`` on first read.
    """

    __slots__ = ("space", "blocks")

    def __init__(self, space: Space, blocks):
        arr = np.asarray(blocks, dtype=float).copy()
        if arr.shape != (space.n_cells, space.block_size):
            raise InvalidArgumentError(
                f"blocks must have shape {(space.n_cells, space.block_size)}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "blocks", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Ultrafunction is immutable")

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def __call__(self, x: float) -> float:
        kind, j = self.space.grid._find(x)
        if kind is PointKind.INTERIOR:
            return float(self.blocks[j].dot(self.space.basis_values(j, x)))
        if kind is PointKind.NODE:
            return self.node_value(j)
        return 0.0

    def node_value(self, j: int) -> float:
        """Value at node ``j``: one-sided at the endpoints, average inside."""
        return self._at_node(*self.space.node_terms(j))

    def side_value(self, j: int, side: Side) -> float:
        """One-sided limit at node ``j`` from the adjacent cell."""
        if side is None:
            raise InvalidArgumentError("side must be 'plus' or 'minus'")
        return self._at_node(*self.space.node_terms(j, side))

    def _at_node(self, weight: float, terms) -> float:
        blocks = self.blocks
        if len(terms) == 2:
            (a, row_a), (b, row_b) = terms
            # exactly ``minus + plus``: sum() would add a 0 start and, from
            # Python 3.12, a compensation term
            return weight * (float(blocks[a].dot(row_a)) + float(blocks[b].dot(row_b)))
        ((a, row_a),) = terms
        return weight * float(blocks[a].dot(row_a))

    def jump(self, j: int) -> float:
        """Jump at interior node ``j``: plus limit minus minus limit (end nodes are refused)."""
        return self.side_value(j, "plus") - self.side_value(j, "minus")

    def sample(self, xs) -> np.ndarray:
        """Values at every point of ``xs``, bit for bit those of :meth:`__call__`.

        One :meth:`Grid.classify` call sorts the points; interior points are
        evaluated with one batched basis evaluation, node points combine
        their edge rows' values as :meth:`Space.node_terms` prescribes, and
        outside points give 0.
        """
        return self.space._sample(self.blocks, xs)

    # ------------------------------------------------------------------
    # inner products
    # ------------------------------------------------------------------

    def inner(self, other: "Ultrafunction") -> float:
        """L2 inner product: the sum over cells of the blocks' dot products."""
        sp = self.space
        if other.space is not sp and other.space != sp:
            raise InvalidArgumentError("members belong to different spaces")
        return float(sp._product_integral(self.blocks, other.blocks))

    def norm(self) -> float:
        """L2 norm; where only its square overflows, computed on blocks scaled by a power of two."""
        return float(self.space._norms(self.blocks))

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def _check_same_space(self, other):
        if not isinstance(other, Ultrafunction):
            raise TypeError("expected an Ultrafunction")
        if other.space is not self.space and other.space != self.space:
            raise InvalidArgumentError("members belong to different spaces")

    def __add__(self, other):
        self._check_same_space(other)
        return Ultrafunction(self.space, self.blocks + other.blocks)

    def __sub__(self, other):
        self._check_same_space(other)
        return Ultrafunction(self.space, self.blocks - other.blocks)

    def __neg__(self):
        return Ultrafunction(self.space, -self.blocks)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return Ultrafunction(self.space, self.blocks * float(scalar))

    __rmul__ = __mul__

    # ------------------------------------------------------------------

    @property
    def coefficients(self) -> np.ndarray:
        """Flat coefficient vector in cell-major order."""
        return self.blocks.reshape(-1)

    def restrict(self, a: float, b: float) -> "Ultrafunction":
        """Multiply by the characteristic function of ``[a, b]``, ``a, b`` nodes."""
        grid = self.space.grid
        n = grid.node_index(a, "left endpoint")
        m = grid.node_index(b, "right endpoint")
        if n > m:
            raise InvalidArgumentError("left endpoint must not exceed right endpoint")
        blocks = np.zeros_like(self.blocks)
        blocks[n:m] = self.blocks[n:m]
        return Ultrafunction(self.space, blocks)

    def __repr__(self) -> str:
        return f"Ultrafunction(dim={self.space.dim}, norm={self.norm():.6g})"


class _CellLocal(Ultrafunction):
    """Member that is zero outside a few cells, stored as ``((cell, block), ...)``.

    Nothing of the grid's size is stored at construction.  The first read of
    :attr:`blocks` finds the inherited slot empty and lands in
    :meth:`__getattr__`, which builds the dense read-only array (one
    ``np.zeros``, then one row write per term) and fills the slot; later
    reads are plain slot reads, as on any other member.
    """

    __slots__ = ("_terms",)

    def __init__(self, space: Space, terms):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_terms", terms)

    def __getattr__(self, name):
        if name != "blocks":
            raise AttributeError(name)
        sp = self.space
        arr = np.zeros((len(sp.left_rows), sp.block_size))  # n_cells, without two property reads
        for cell, block in self._terms:
            arr[cell] = block
        arr.flags.writeable = False
        object.__setattr__(self, "blocks", arr)
        return arr


@dataclass(frozen=True)
class SplittedBasis:
    """Orthonormal basis organized cell by cell.

    Element ``(j, k)`` is the member whose only nonzero coefficient is the
    ``k``-th one of cell ``j``; iteration is cell-major.
    """

    space: Space

    def __len__(self) -> int:
        return self.space.dim

    def element(self, j: int, k: int) -> Ultrafunction:
        sp = self.space
        if not (is_index(j) and is_index(k) and 0 <= j < len(sp.left_rows) and 0 <= k < sp.block_size):
            raise InvalidArgumentError("basis index out of range")
        return _CellLocal(sp, ((j, np.eye(1, sp.block_size, k)[0]),))

    def __iter__(self):
        for j in range(self.space.n_cells):
            for k in range(self.space.block_size):
                yield self.element(j, k)

    def gram_matrix(self) -> np.ndarray:
        """Inner products within one cell, ``(p + 1, p + 1)``: exactly the identity.

        Every cell has this block, and elements of different cells are
        exactly orthogonal, so the full Gram matrix is ``kron(eye(ell), block)``.
        """
        return np.eye(self.space.block_size)
