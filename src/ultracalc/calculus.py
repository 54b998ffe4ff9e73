"""Derivative operators and the exact integration-by-parts / FTC identities.

Two linear derivative operators act on the space:

* kind ``"D"`` — the generalized derivative: the cellwise classical
  derivative plus, at every interior node, the jump of the function times
  the node-centered delta member.  Jumps and node deltas follow the node
  rule stated in :mod:`ultracalc.space`, which is exactly what closes
  integration by parts over the full support,
  ``pairing(Du, v) = -pairing(u, Dv) + boundary product``, and the
  fundamental theorem ``integral of Du over [a, b] = u(b) - u(a)`` for grid
  nodes ``a, b`` with no error beyond rounding.

* kind ``"D2"`` — the cellwise derivative alone.  It annihilates every
  piecewise-constant member, but satisfies the piecewise identities whose
  boundary terms are one-sided sums over the traversed cells.

Integration by parts over cells ``n .. m - 1`` with node-value boundary
products is stated once, in ``naive_ibp_defect``: exact up to rounding over
the full support (``ibp_defect``) and at end nodes where both members are
continuous (``ibp_c1_defect``); in general it misses by a quarter of the
difference of the endpoint jump products.  The fundamental theorem is
``ftc_defect`` for ``D`` and ``ftc_piecewise_defect`` for ``D2``.

Cellwise derivatives drop the polynomial degree by one, so they already lie
in the space and need no projection solve.  ``D`` is the strong-form
discontinuous-Galerkin derivative with central-flux lifting: it is applied
block by block, one ``(p + 1) x (p + 1)`` product per cell plus one pass over
the edge values that couples each node's two cells, and no matrix of the
whole space is ever assembled.  ``DerivOperator.matrix`` builds that dense
view on request, for export.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, PreconditionError
from .grid import is_index
from .space import Space, Ultrafunction

#: absolute jump size below which a member counts as continuous at a node
CONTINUITY_TOL = 1e-12


@dataclass(frozen=True)
class DerivOperator:
    """Block-wise derivative on ``space``, applied without a global matrix.

    ``apply`` multiplies each cell block by ``(2 / h_j)`` times the reference
    derivative coupling; for kind ``"D"`` it then adds, at every interior
    node, half the jump times the one-sided edge values of the two adjacent
    cells (the node-average delta).  ``matrix`` is the dense
    ``dim x dim`` view in cell-major coordinates, built on each access.
    """

    kind: str
    space: Space

    def __post_init__(self):
        if self.kind not in ("D", "D2"):
            raise InvalidArgumentError("kind must be 'D' or 'D2'")

    def _apply_blocks(self, blocks: np.ndarray) -> np.ndarray:
        sp = self.space
        out = blocks @ sp._deriv_ref.T
        out *= (2.0 / sp._widths)[:, None]
        if self.kind == "D":
            # half of each interior jump times the node-average delta.  At -beta
            # and beta the value across the edge is the cell's own, so no jump
            # enters there.  A cell's own edge terms are summed before its
            # neighbours' are added: forming the jumps first would round away
            # the neighbours of a narrow cell at p = 0.
            left, right = sp.edges(blocks)
            across_left = np.concatenate([left[..., :1], right[..., :-1]], axis=-1)
            across_right = np.concatenate([left[..., 1:], right[..., -1:]], axis=-1)
            lrows, rrows = sp.left_rows, sp.right_rows
            own = left[..., None] * lrows - right[..., None] * rrows
            coupling = across_right[..., None] * rrows - across_left[..., None] * lrows
            out += 0.5 * (own + coupling)
        return out

    def apply(self, u: Ultrafunction) -> Ultrafunction:
        sp = self.space
        if u.space is not sp and u.space != sp:
            raise InvalidArgumentError("member belongs to a different space")
        return Ultrafunction(sp, self._apply_blocks(u.blocks))

    __call__ = apply

    @property
    def matrix(self) -> np.ndarray:
        """Dense read-only matrix: column ``c`` is the image of basis element ``c``."""
        sp = self.space
        eye = np.eye(sp.dim).reshape(sp.dim, sp.n_cells, sp.block_size)
        mat = np.ascontiguousarray(self._apply_blocks(eye).reshape(sp.dim, sp.dim).T)
        mat.flags.writeable = False
        return mat


def derivative_operator(space: Space, kind: str = "D") -> DerivOperator:
    """The generalized (``"D"``) or cellwise (``"D2"``) derivative on ``space``."""
    return DerivOperator(kind, space)


# ----------------------------------------------------------------------
# definite integrals
# ----------------------------------------------------------------------


def _cell_integrals(space: Space, blocks) -> np.ndarray:
    """Integral over each cell of the members with blocks ``(..., ell, n)``: of the cell's
    basis only ``e_{j,0} = 1 / sqrt(h_j)`` has a nonzero integral, ``sqrt(h_j)``."""
    return np.sqrt(space._widths) * blocks[..., 0]


def integrate(u: Ultrafunction, a: float, b: float) -> float:
    """Definite integral of ``u`` between the grid nodes ``a <= b``."""
    grid = u.space.grid
    n = grid.node_index(a, "lower limit")
    m = grid.node_index(b, "upper limit")
    if n > m:
        raise InvalidArgumentError("lower limit exceeds upper limit")
    return float(np.sum(_cell_integrals(u.space, u.blocks)[n:m]))


def integrate_product(u: Ultrafunction, v: Ultrafunction, n: int, m: int) -> float:
    """Integral of ``u * v`` over cells ``n`` to ``m - 1`` (node indices)."""
    sp = u.space
    if v.space is not sp and v.space != sp:
        raise InvalidArgumentError("members belong to different spaces")
    _check_node_range(sp, n, m)
    return sp._product_integral(u.blocks[n:m], v.blocks[n:m])


def _check_node_range(space: Space, n: int, m: int):
    if not (is_index(n) and is_index(m) and 0 <= n <= m <= space.n_cells):
        raise InvalidArgumentError(
            f"node indices must be integers with 0 <= n <= m <= last, got {n!r} and {m!r}"
        )


# ----------------------------------------------------------------------
# identity defects
# ----------------------------------------------------------------------


# Each identity is stated once, below, on blocks of shape ``(..., ell, n)``:
# the public functions pass one member, ``verify`` a stack of trials with one
# node pair per member.  The images under ``D`` or ``D2`` are passed in, so a
# caller that needs them for a scale applies the operator once.


def _range_sums(values, n, m) -> np.ndarray:
    """``values[..., n:m].sum()`` for every leading index, bit for bit.

    ``n`` and ``m`` are node indices, or arrays with one pair per row of
    ``(trials, ell)`` values.  Each row's slice is summed on its own: a sum
    over a masked whole row would pair the terms differently.
    """
    if np.ndim(n) == 0 and np.ndim(m) == 0:
        return values[..., n:m].sum(axis=-1)
    return np.array([row[a:b].sum() for row, a, b in zip(values, n, m)])


def _node_values(space: Space, blocks, j) -> np.ndarray:
    """Values at node ``j`` of the members with blocks ``(..., ell, n)``, by the node rule of
    :meth:`Space.node_terms`; ``j`` is a node index, or one per member of a stack."""
    ell = space.n_cells
    each = (np.arange(len(j)),) if np.ndim(j) else ()
    lo, hi = j - (j > 0), j - (j == ell)  # the cells left and right of the node, at an end its one cell
    minus = np.vecdot(blocks[(..., *each, lo, slice(None))], space.right_rows[lo])
    plus = np.vecdot(blocks[(..., *each, hi, slice(None))], space.left_rows[hi])
    return np.where(j == 0, plus, np.where(j == ell, minus, 0.5 * (minus + plus)))


def _ibp_residual(u, v, du, dv, n, m, boundary) -> np.ndarray:
    """``|integral of du v + integral of u dv - boundary|`` over cells ``n .. m - 1``."""
    return np.abs(_range_sums(np.vecdot(du, v), n, m) + _range_sums(np.vecdot(u, dv), n, m) - boundary)


def _naive_ibp(space: Space, u, v, du, dv, n, m) -> np.ndarray:
    """:func:`naive_ibp_defect` of blocks ``u, v`` with images ``du, dv`` under ``D``."""
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf or NaN, no warning
        boundary = (_node_values(space, u, m) * _node_values(space, v, m)
                    - _node_values(space, u, n) * _node_values(space, v, n))
        return _ibp_residual(u, v, du, dv, n, m, boundary)


def _ibp_piecewise(space: Space, u, v, du, dv, n, m) -> np.ndarray:
    """:func:`ibp_piecewise_defect` of blocks ``u, v`` with images ``du, dv`` under ``D2``."""
    (lu, ru), (lv, rv) = space.edges(u), space.edges(v)
    with np.errstate(over="ignore", invalid="ignore"):
        return _ibp_residual(u, v, du, dv, n, m, _range_sums(ru * rv - lu * lv, n, m))


def _ibp_c1(space: Space, u, v, du, dv, n, m) -> np.ndarray:
    """:func:`ibp_c1_defect` of blocks ``u, v`` with images ``du, dv`` under ``D``; the
    error names the first jump of the first member of a stack that has one."""
    (lu, ru), (lv, rv) = space.edges(u), space.edges(v)
    # jumps at the interior nodes 1 .. ell - 1, and whether each lies in [n, m]
    jumps = np.maximum(np.abs(lu[..., 1:] - ru[..., :-1]), np.abs(lv[..., 1:] - rv[..., :-1]))
    node = np.arange(1, space.n_cells)
    inside = (node >= np.expand_dims(n, -1)) & (node <= np.expand_dims(m, -1))
    bad = np.argwhere((jumps > CONTINUITY_TOL) & inside)
    if bad.size:
        raise PreconditionError(
            f"member jumps at node {int(bad[0, -1]) + 1}; the two-point formula does not apply"
        )
    return np.where(np.equal(n, m), 0.0, _naive_ibp(space, u, v, du, dv, n, m))


def _ftc_residual(space: Space, du, n, m, boundary) -> np.ndarray:
    """``|integral of du - boundary|`` over cells ``n .. m - 1``."""
    return np.abs(_range_sums(_cell_integrals(space, du), n, m) - boundary)


def _ftc(space: Space, u, du, n, m) -> np.ndarray:
    """:func:`ftc_defect` of blocks ``u`` with image ``du`` under ``D``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _ftc_residual(space, du, n, m, _node_values(space, u, m) - _node_values(space, u, n))


def _ftc_piecewise(space: Space, u, du, n, m) -> np.ndarray:
    """:func:`ftc_piecewise_defect` of blocks ``u`` with image ``du`` under ``D2``."""
    left, right = space.edges(u)
    with np.errstate(over="ignore", invalid="ignore"):
        return _ftc_residual(space, du, n, m, _range_sums(right - left, n, m))


def ibp_defect(u: Ultrafunction, v: Ultrafunction) -> float:
    """Residual of full-support integration by parts for the generalized derivative.

    ``naive_ibp_defect`` on ``0 .. ell``, whose node values are one-sided;
    zero up to rounding for every pair.
    """
    return naive_ibp_defect(u, v, 0, u.space.n_cells)


def ibp_c1_defect(u: Ultrafunction, v: Ultrafunction, n: int, m: int) -> float:
    """Residual of two-point integration by parts for members continuous on the range.

    Requires both members to have jumps below ``CONTINUITY_TOL`` at every
    interior node with index in ``[n, m]``, where ``naive_ibp_defect`` holds
    up to rounding; otherwise :class:`~ultracalc.errors.PreconditionError`
    is raised.
    """
    _check_node_range(u.space, n, m)
    d = derivative_operator(u.space, "D")
    return float(_ibp_c1(u.space, u.blocks, v.blocks, d(u).blocks, d(v).blocks, n, m))


def ibp_piecewise_defect(u: Ultrafunction, v: Ultrafunction, n: int, m: int) -> float:
    """Residual of piecewise integration by parts for the cellwise derivative.

    Holds for arbitrary (including discontinuous) members; the boundary term
    is the one-sided product sum over the traversed cells.
    """
    _check_node_range(u.space, n, m)
    d2 = derivative_operator(u.space, "D2")
    return float(_ibp_piecewise(u.space, u.blocks, v.blocks, d2(u).blocks, d2(v).blocks, n, m))


def ftc_defect(u: Ultrafunction, n: int, m: int) -> float:
    """Residual of the fundamental theorem for the generalized derivative over cells ``n .. m - 1``:
    ``|integral of Du - (u at node m - u at node n)|``, zero up to rounding."""
    _check_node_range(u.space, n, m)
    return float(_ftc(u.space, u.blocks, derivative_operator(u.space, "D")(u).blocks, n, m))


def ftc_piecewise_defect(u: Ultrafunction, n: int, m: int) -> float:
    """Residual of the cellwise fundamental theorem over cells ``n .. m - 1``."""
    _check_node_range(u.space, n, m)
    return float(_ftc_piecewise(u.space, u.blocks, derivative_operator(u.space, "D2")(u).blocks, n, m))


def naive_ibp_defect(u: Ultrafunction, v: Ultrafunction, n: int, m: int) -> float:
    """Residual of two-point integration by parts with node values over cells ``n .. m - 1``.

    Zero up to rounding over the whole support, whose end node values are
    one-sided, and at end nodes where both members are continuous; in general
    the defect is a quarter of the difference of the endpoint jump products.
    """
    _check_node_range(u.space, n, m)
    d = derivative_operator(u.space, "D")
    return float(_naive_ibp(u.space, u.blocks, v.blocks, d(u).blocks, d(v).blocks, n, m))
