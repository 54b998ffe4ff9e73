"""Point-evaluation representers (delta members) and their dual basis.

For an interior point ``q`` of cell ``j``, the delta member is the
reproducing kernel of the cell space at ``q``: integrating any member against
it returns the member's value at ``q``.  At a node, the delta member and the
one-sided deltas follow the node rule stated in :mod:`ultracalc.space`, so
pairing with them gives the node value or the side limit.

A delta lives on one cell, or on two at an interior node, and stores only
those blocks: building one costs ``O(p)`` whatever the number of cells.  Its
dense ``blocks`` array is built on first read (see ``space._CellLocal``);
so are those of the basis-pair members below.

A full set of ``p + 1`` interior points per cell yields a basis of delta
members.  Its dual basis consists of cardinal (Lagrange-type) interpolants:
``cardinal_a(b) == (a == b)`` on the point set, so members are recovered from
their point values by a plain weighted sum.  The default points (each cell's
Gauss abscissae) are refused on cells too narrow for the nodes' snap windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import IndependenceError, InvalidArgumentError
from .grid import PointKind, is_index
from .space import Side, Space, Ultrafunction, _CellLocal


def delta(space: Space, q: float) -> Ultrafunction:
    """Member representing point evaluation at ``q`` against the L2 pairing."""
    kind, j = space.grid._find(q)
    if kind is PointKind.OUTSIDE:
        raise InvalidArgumentError(f"center {q!r} lies outside the support")
    if kind is PointKind.NODE:
        return _node_delta(space, *space.node_terms(j))
    return _CellLocal(space, ((j, space.basis_values(j, q)),))


def delta_sided(space: Space, j: int, side: Side) -> Ultrafunction:
    """One-sided delta at node ``j``: pairing yields the one-sided limit."""
    if side is None:
        raise InvalidArgumentError("side must be 'plus' or 'minus'")
    return _node_delta(space, *space.node_terms(j, side))


def _node_delta(space: Space, weight: float, terms) -> Ultrafunction:
    if weight == 1.0:  # one limit: the read-only edge row itself, the bits of ``1.0 * row``
        return _CellLocal(space, terms)
    return _CellLocal(space, tuple((cell, weight * row) for cell, row in terms))


def default_interpolation_points(space: Space) -> np.ndarray:
    """Per-cell Gauss abscissae: ``p + 1`` points in every cell, cell by cell.

    Unisolvent for the cell polynomials and well conditioned.  On a cell
    narrower than about ``2 / (1 - t_max)`` snap windows (``t_max`` the
    largest Gauss node) one falls in a node's window and counts as the node.
    """
    t, _ = leggauss(space.block_size)
    nodes = space.grid.nodes
    a, b = nodes[:-1, None], nodes[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * t).ravel()


@dataclass(frozen=True)
class BasisPair:
    """A delta basis at interior points and its dual cardinal basis.

    Both bases are cell-local, so only the per-cell blocks are stored, all
    read-only: ``cols[j, a]`` is the index in ``points`` of the ``a``-th
    point of cell ``j``; ``evals[j, a]`` is the cell-``j`` block of the
    delta member at that point (the basis values there); and
    ``dual[j, :, a]`` is the cell-``j`` block of its cardinal member.  Every
    other block of both members is zero.
    """

    space: Space
    points: np.ndarray
    cols: np.ndarray
    evals: np.ndarray
    dual: np.ndarray

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def delta_coeffs(self) -> np.ndarray:
        """Dense read-only matrix: column ``i`` is the flat delta member at ``points[i]``."""
        return self._dense(self.evals.transpose(0, 2, 1))

    @property
    def cardinal_coeffs(self) -> np.ndarray:
        """Dense read-only matrix: column ``i`` is the flat cardinal member at ``points[i]``."""
        return self._dense(self.dual)

    def _dense(self, blocks: np.ndarray) -> np.ndarray:
        """Scatter ``blocks[j, k, a]`` to row ``j * n + k``, column ``cols[j, a]``."""
        ell, n = self.cols.shape
        rows = np.arange(self.size).reshape(ell, n)[:, :, None]
        mat = np.zeros((self.size, self.size))
        mat[rows, self.cols[:, None, :]] = blocks
        mat.flags.writeable = False
        return mat

    def delta_at(self, i: int) -> Ultrafunction:
        j, a = self._slot(i)
        return _CellLocal(self.space, ((j, self.evals[j, a]),))

    def cardinal_at(self, i: int) -> Ultrafunction:
        j, a = self._slot(i)
        return _CellLocal(self.space, ((j, self.dual[j, :, a]),))

    def _slot(self, i: int) -> tuple[int, int]:
        """Cell and in-cell position of ``points[i]``."""
        if not (is_index(i) and 0 <= i < self.size):
            raise InvalidArgumentError(f"point index {i} outside [0, {self.size})")
        return divmod(self._where.item(i), self.cols.shape[1])

    @cached_property
    def _where(self) -> np.ndarray:
        """Inverse of ``cols``, read-only: ``cols.flat[_where[i]] == i``."""
        where = np.empty(self.size, dtype=np.intp)
        where[self.cols.ravel()] = np.arange(self.size)
        where.flags.writeable = False
        return where

    def interpolate(self, values) -> Ultrafunction:
        """Member taking the given values at ``points``: a cardinal-weighted sum."""
        v = np.asarray(values, dtype=float)
        if v.shape != (self.size,):
            raise InvalidArgumentError(f"need exactly {self.size} point values")
        return Ultrafunction(self.space, self._interpolate(v))

    def _interpolate(self, values) -> np.ndarray:
        """Blocks ``(..., ell, n)`` of the members taking ``values[..., i]`` at ``points[i]``."""
        return (self.dual @ np.take(values, self.cols, axis=-1)[..., None])[..., 0]

    def duality_matrix(self) -> np.ndarray:
        """Pairings of each cell's delta members with its cardinal members.

        Entry ``[j, a, b]`` pairs the delta member at ``points[cols[j, a]]``
        with the cardinal member at ``points[cols[j, b]]``: the dot product of
        their cell-``j`` blocks, as ``inner`` computes it.  Members of
        different cells pair to exactly zero.
        """
        return self.evals @ self.dual

    def cell_condition_numbers(self) -> np.ndarray:
        """2-norm condition number of each cell's point-evaluation matrix.

        Reported so callers can judge non-default point sets; no threshold
        is enforced here.
        """
        return np.linalg.cond(self.evals)


def basis_pair(space: Space, points=None) -> BasisPair:
    """Build the delta basis at ``points`` and solve for its dual basis.

    ``points`` must hold exactly ``p + 1`` distinct points interior to every
    cell; no conditioning threshold applies.  The default, the per-cell Gauss
    abscissae, is refused on a cell too narrow for them.  The duality systems are
    block-diagonal: all points are classified at once, grouped by cell, and
    the ``n_cells`` systems of size ``p + 1`` are solved as one stack.
    """
    if points is None:
        pts = default_interpolation_points(space)
    else:
        pts = np.asarray(points, dtype=float).reshape(-1)
    if pts.size != space.dim:
        raise IndependenceError(
            f"need {space.dim} points ({space.block_size} per cell), got {pts.size}"
        )
    ell, n = space.n_cells, space.block_size
    kind, index = space.grid.classify(pts)
    off = np.flatnonzero(kind != PointKind.INTERIOR)
    if off.size:
        raise IndependenceError(
            f"point {pts[off[0]]!r} is not interior to a cell; nodes are not allowed"
            if points is not None
            else f"cell {off[0] // n} is too narrow for the default points; pass points explicitly"
        )
    counts = np.bincount(index, minlength=ell)
    wrong = np.flatnonzero(counts != n)
    if wrong.size:
        j = wrong[0]
        raise IndependenceError(f"cell {j} holds {counts[j]} points, expected {n}")
    # cols[j, a]: index of the a-th point of cell j, in the order given
    cols = np.argsort(index, kind="stable").reshape(ell, n)
    cell_pts = pts[cols]
    ordered = np.sort(cell_pts, axis=1)
    repeated = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if repeated.size:
        raise IndependenceError(f"repeated point in cell {repeated[0]}")
    evals = space.cell_basis_values(np.arange(ell), cell_pts)  # (ell, n, n)
    try:
        dual = np.linalg.solve(evals, np.eye(n))  # columns: cardinal coeffs
    except np.linalg.LinAlgError as exc:
        # slogdet factors each cell as solve does; sign 0 marks a zero pivot
        j = np.flatnonzero(np.linalg.slogdet(evals).sign == 0)[0]
        raise IndependenceError(
            f"points in cell {j} do not determine a basis"
        ) from exc
    pts = pts.copy()
    for arr in (pts, cols, evals, dual):
        arr.flags.writeable = False
    return BasisPair(space, pts, cols, evals, dual)
