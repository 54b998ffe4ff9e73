"""Orthogonal L2 projection of integrable functions onto the space.

``project`` maps any cell-wise integrable function ``f`` to the unique member
whose pairing with every member equals the pairing of ``f`` itself.  Because
the space splits orthogonally over cells, the projection is strictly local:
each coefficient block depends only on ``f`` restricted to its own cell.

Quadrature
----------
Coefficients are per-cell integrals of ``f`` against the cell basis, computed
by adaptive Gauss-Kronrod bisection to a caller-visible tolerance.  Every
operation (projection, pairing with a member, L2 error) is one array
integrand ``integrand(rows, cells, f(x), basis)`` handed to a single engine,
which bisects all intervals of all cells level by level.

Each interval carries, beside its cell, its row: the member of a family of
functions (and, for a pairing or an L2 error, of a stack of members) that it
belongs to.  The public operations integrate a family of one member, so
every row is 0; a caller with many functions, such as ``verify``'s
projection suite, integrates all their cells in one engine call.  Rows never
mix: each interval's acceptance, its split, the sum back into its parent and
the tolerance it is tested against (halved per level for all alike) depend
on that interval alone, so a member's integrals are the same bits whether it
is integrated alone or with others.  Which error is raised first can differ,
as the first failing interval of a batch may belong to another member.

Each interval is evaluated once, at the ``2n + 1`` points of the Kronrod
extension of the ``n``-point Gauss rule (``n = 7``, QUADPACK's G7/K15 pair,
up to degree 6; ``n = p + 1`` above), so the Gauss part integrates ``f``
times the basis exactly for a polynomial ``f`` of the space's degree.  An
interval is done when its Kronrod and Gauss sums differ by at most the
tolerance, or by less than the rounding floor ``50 * eps * width *
max|integrand|`` of the panel; it keeps its Kronrod sum.  The error each
interval achieves is thus ``max(tol, rounding floor)``: a tolerance below
rounding is met at the floor instead of splitting toward the width limit.
Every other interval is split, and the next level evaluates all the children
at once, each with a fresh panel, at half the tolerance.  The first level's
panels are whole cells, so their basis values are each cell's scale times
one table per degree, the reference basis at the rule's nodes; only the
split children and the pieces toward a singular point map their points
back to the cell.  The intervals of a level go to the integrand 64 at a
time as one array of values of ``f`` with their basis values, and to ``f``
through its handle's array form; for a plain callable such as ``math.sin``
that form calls ``f`` on one Python float at a time.  So where a numpy scalar
would have given inf or NaN, a plain callable raises Python's own error
(``ZeroDivisionError``, ``OverflowError``, or ``TypeError`` for a complex
value), which propagates unchanged.  A value of ``f`` that is not finite
raises :class:`~ultracalc.errors.InvalidArgumentError` naming the point and
its cell, as soon as its batch is evaluated; so does, naming the cell, an
integrand or panel sum that overflows, at the level where it does.  The
children's integrals are summed back up each bisection tree as ``left +
right``, so the result equals that of a depth-first recursion bit for bit.

Cells containing a declared singular point are handled by geometric
subdivision toward the singularity (ratio one half), summing the engine's
integrals over the pieces until the increment drops below the tolerance.
All the pieces of one such tail are integrated in one engine call, and their
integrals are then summed in order; so ``f`` is evaluated on the pieces past
the one where the sum stops too, and an error there (a value that is not
finite, an overflow, or the bisection cap) propagates as on any other
piece.  The integrand is only ever evaluated on open subintervals, never
at a declared singular point: once the next piece would round onto the
point, the subdivision stops and fails.  Either scheme raises
:class:`~ultracalc.errors.QuadratureError` with the cell index after 60
subdivisions without convergence (the lowest such cell for bisection).

Note that the default tolerance cannot always be reached for strong
integrable singularities (the increments of ``|x - s|**-0.5`` shrink only
like ``2**(-m/2)``); callers project such functions with an explicitly
loosened tolerance.  Whether ``1e-9`` is reached is decided by ``|s|``, not
by whether ``s`` lies inside a cell: a piece rounds onto ``s`` after about
``52 + log2(d / |s|)`` pieces starting a distance ``d`` from ``s``, some 50
pieces, which fall short of ``1e-9``; only near ``s = 0`` does the tail run
to the cap of 60.  So ``|x - 0.3|**-0.5`` on 15 uniform cells fails, and
``|x|**-0.5`` converges there but fails at degree 1 or more when ``0`` is a
grid node, as on uniform grids with an even number of cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import legendre as leg

from .errors import InvalidArgumentError, QuadratureError
from .space import Space, Ultrafunction, _legendre

DEFAULT_TOL = 1e-12
MAX_SUBDIVISIONS = 60


@dataclass(frozen=True)
class FunctionHandle:
    """A scalar function together with its declared singular points.

    An empty ``singular`` tuple asserts the function is bounded on every
    cell; otherwise it is integrable with singularities exactly at the
    listed points, which must be finite.

    ``array`` is the same function on a whole float array, element by element
    equal to ``fn``; quadrature calls only it, once per batch of points.  It
    defaults to ``fn.array`` when ``fn`` has one, as the functions from
    :func:`~ultracalc.expr.parse_expression` do, and otherwise to an adapter
    that calls ``fn`` on one Python float at a time, so it is never ``None``.
    ``fn`` then raises Python's own errors where numpy scalars would give inf
    or NaN: ``ZeroDivisionError``, ``OverflowError``, or ``TypeError`` for a
    complex value.  Quadrature refuses any value of ``array`` that is not
    finite, ``None`` from ``fn`` included, with ``InvalidArgumentError``.
    """

    fn: Callable[[float], float]
    singular: tuple[float, ...] = ()
    array: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not all(math.isfinite(s) for s in self.singular):
            raise InvalidArgumentError(f"singular points must be finite, got {self.singular!r}")
        if self.array is None:
            array = getattr(self.fn, "array", None)
            object.__setattr__(self, "array", _per_point(self.fn) if array is None else array)

    def __call__(self, x: float) -> float:
        return float(self.fn(x))


def _per_point(fn):
    """``fn`` on a float array, called on one Python float at a time."""
    return lambda x: np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def as_handle(f) -> FunctionHandle:
    if isinstance(f, FunctionHandle):
        return f
    if callable(f):
        return FunctionHandle(f)
    raise InvalidArgumentError("expected a callable or a FunctionHandle")


class _Family(NamedTuple):
    """``members`` functions with the same declared singular points.

    ``values(rows, x)`` is the ``(m, P)`` array of member ``rows[i]`` at the
    points of row ``x[i]``, for ``rows`` of length m.
    """

    values: Callable[[np.ndarray, np.ndarray], np.ndarray]
    members: int
    singular: tuple[float, ...] = ()


def _family(handle: FunctionHandle) -> _Family:
    """The family of one member, ``handle``."""
    array = handle.array
    return _Family(lambda rows, x: array(x), 1, handle.singular)


# ----------------------------------------------------------------------
# quadrature engine (array integrands)
# ----------------------------------------------------------------------

_CHUNK = 64  # intervals per `_panels` batch; bounds the size of the point arrays
#: multiple of eps times width times the largest ``|integrand|`` below which
#: the Kronrod-Gauss difference is rounding, not truncation (QUADPACK's 50)
_ROUNDING = 50.0 * np.finfo(float).eps
#: multiple of eps times ``max(1, |lo|, |hi|)`` at or below which an interval is too narrow to split
_WIDTH = 4.0 * np.finfo(float).eps


@functools.cache
def _gauss_kronrod(n: int):
    """Nodes on ``[-1, 1]`` and weights of the ``2n + 1``-point Kronrod rule.

    Returns ``(t, w)``: the ascending nodes and a ``(2, 2n + 1)`` array whose
    rows are their Kronrod weights and the weights of the embedded
    ``n``-point Gauss rule, zero at the ``n + 1`` Kronrod-only nodes and
    ``leggauss(n)``'s at ``t[1::2]``.  The Kronrod-only nodes are the roots
    of the Stieltjes polynomial ``E_{n+1} = P_{n+1} + sum_{j<=n} c_j P_j``,
    orthogonal to ``P_n P_k`` for ``k <= n``; the Kronrod weights make the
    rule exact on ``P_0 .. P_{2n}``.
    """
    tg, wg = leg.leggauss(n)
    x, wx = leg.leggauss((3 * n + 5) // 2)  # exact for the degree 3n+1 products
    vals = leg.legvander(x, n + 1)
    gram = (vals[:, : n + 1] * (wx * vals[:, n])[:, None]).T @ vals
    stieltjes = np.append(np.linalg.solve(gram[:, : n + 1], -gram[:, n + 1]), 1.0)
    roots = leg.legroots(stieltjes)
    # one Newton step takes the companion-matrix roots to within an ulp
    roots = roots - leg.legval(roots, stieltjes) / leg.legval(roots, leg.legder(stieltjes))
    t = np.sort(np.concatenate([tg, roots]))
    w = np.zeros((2, t.size))
    w[0] = np.linalg.solve(leg.legvander(t, 2 * n).T, np.r_[2.0, np.zeros(2 * n)])
    w[1, 1::2] = wg
    for a in (t, w):
        a.flags.writeable = False  # the cache hands the same arrays to every caller
    return t, w


@functools.cache
def _panel_rule(degree: int):
    """The panel rule for a degree and the orthonormal basis at its nodes.

    Returns ``(t, w, table)``: ``_gauss_kronrod(max(7, degree + 1))``, whose
    Gauss part is exact on ``f`` times the basis for ``f`` of the degree, and
    the read-only ``(2n + 1, degree + 1)`` basis values of the cell ``[-1, 1]``
    at ``t``.  A whole cell's panel has basis values ``scale * table``.
    """
    t, w = _gauss_kronrod(max(7, degree + 1))
    table = np.stack(_legendre(t, degree + 1), axis=-1)
    table.flags.writeable = False
    return t, w, table


def _accepted(sums, peak, lo, hi, tol):
    """Kronrod-Gauss test against ``tol`` or the rounding floor, or an interval too narrow to split.

    The floor is ``_ROUNDING * (hi - lo) * peak``; an estimate strictly below
    it is accepted, so a non-finite one never is.  The width test runs only
    when some interval fails both others.
    """
    err = np.maximum.reduce(np.abs(sums[:, 0] - sums[:, 1]), axis=-1)
    ok = (err <= tol) | (err < _ROUNDING * (hi - lo) * peak)
    if not ok.all():
        ok |= (hi - lo) <= _WIDTH * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    return ok


def _panel_points(lo, hi, t):
    """The points ``mid + half * t`` of the intervals ``[lo, hi]``, one row each, and ``half``."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * t, half


def _panels(integrand, family, space, rows, cells, lo, hi, whole):
    """Kronrod and embedded Gauss sums over the intervals ``[lo, hi]`` of the m ``rows`` and ``cells``.

    The points of ``_CHUNK`` intervals at a time go to ``family.values``, and
    their values with the cells' basis values at the points to
    ``integrand(rows, cells, fx, basis)``, in one call each.  The basis values are
    each cell's scale times the per-degree table of :func:`_panel_rule` when
    the intervals are the ``whole`` cells, and otherwise
    :meth:`Space.cell_basis_values` maps the points back to their cells.
    Both sums add the weighted values in rule order, one point after the
    other (``np.add.accumulate`` is sequential).  A value of ``f`` that is
    not finite raises ``InvalidArgumentError``; an overflow of the integrand
    or of its sums is left to the caller.  Returns the ``(m, 2, r)`` sums,
    Kronrod first, and each interval's largest ``|integrand|``.
    """
    t, w, table = _panel_rule(space.degree)
    for start in range(0, len(cells), _CHUNK):
        batch = slice(start, start + _CHUNK)
        members, chunk = rows[batch], cells[batch]
        x, half = _panel_points(lo[batch], hi[batch], t)
        if whole:
            basis = space._scales[chunk][:, None, None] * table
        else:
            basis = space.cell_basis_values(chunk, x)
        fx = family.values(members, x)
        if not np.isfinite(fx).all():
            _refuse_non_finite(chunk, x, fx)
        with np.errstate(over="ignore", invalid="ignore"):
            values = integrand(members, chunk, fx, basis)
            if not start:
                sums, peak = np.empty((len(cells), 2, values.shape[-1])), np.empty(len(cells))
            total = np.add.accumulate(values[:, None] * w[:, :, None], axis=2)[:, :, -1]
            np.multiply(half[:, None, None], total, out=sums[batch])
        np.abs(values).max(axis=(1, 2), out=peak[batch])
    return sums, peak


def _refuse_non_finite(cells, x, fx):
    """Raise for the first point of the ``(m, P)`` array ``x`` where ``fx`` is not finite."""
    k = int(np.argmin(np.isfinite(fx)))
    raise InvalidArgumentError(
        f"function value {float(fx.flat[k])!r} at x = {float(x.flat[k])!r} "
        f"in cell {int(cells[k // x.shape[1]])} is not finite"
    )


def _intervals(integrand, family, space, rows, cells, lo, hi, tol, whole=False) -> np.ndarray:
    """Integrals of members ``rows`` over the intervals ``[lo, hi]``, each inside its cell of ``cells``.

    ``whole`` says that the intervals are their cells themselves, so the
    first level's panels take their basis values from the per-degree table;
    the children of a split always map their points back to their cells.
    Bisects level by level.  Each level evaluates the Kronrod panel of every
    open interval once; an interval whose Kronrod and embedded Gauss sums
    differ by more than ``tol`` and its rounding floor is split in two, the
    children getting fresh panels at the next level and ``tol`` halving.  An
    accepted interval keeps its Kronrod sum, and each child pair is summed
    back into its parent as ``left + right``; the children keep their
    parent's row and cell, so rows never mix.  An interval still failing at
    depth ``MAX_SUBDIVISIONS`` raises for the first of its cells.  An
    integrand or panel sum that overflows, which no split could mend, raises
    ``InvalidArgumentError`` for the first of its cells.
    """
    levels = []
    for depth in range(MAX_SUBDIVISIONS + 1):
        sums, peak = _panels(integrand, family, space, rows, cells, lo, hi, whole and depth == 0)
        # an integrand value that is not finite leaves its Kronrod sum so too
        if not np.isfinite(sums).all():
            j = int(cells[np.argmin(np.isfinite(sums).all(axis=(1, 2)))])
            raise InvalidArgumentError(
                f"the integrand overflows on cell {j}: its values or their integral are not finite"
            )
        split = ~_accepted(sums, peak, lo, hi, tol)
        levels.append((sums[:, 0].copy(), split))  # a copy frees the Gauss sums
        if not split.any():
            break
        if depth == MAX_SUBDIVISIONS:
            j = int(cells[split][0])
            raise QuadratureError(f"adaptive quadrature did not converge on cell {j}", j)
        # each split parent gives its left child, then its right child
        mid = 0.5 * (lo + hi)
        rows, cells = np.repeat(rows[split], 2), np.repeat(cells[split], 2)
        lo, hi = np.stack([lo, mid], 1)[split].ravel(), np.stack([mid, hi], 1)[split].ravel()
        tol = 0.5 * tol
    total = levels.pop()[0]
    for kron, split in reversed(levels):
        kron[split] = total[0::2] + total[1::2]
        total = kron
    return total


def _toward_singularity(integrand, family, space, row, j, s, far, tol) -> np.ndarray:
    """Sum integrals of member ``row`` over shrinking intervals of cell ``j`` approaching ``s``.

    Stops short of a piece that rounds onto ``s``, so ``s`` is never
    evaluated.  Every piece is integrated in one engine call; their
    integrals are then summed in order until a piece's integral drops below
    ``tol``.  A piece past that one is evaluated too, so an error on it
    (a value that is not finite, an overflow, or the bisection cap)
    propagates.
    """
    bounds = []
    for m in range(MAX_SUBDIVISIONS):
        outer = s + (far - s) * 0.5**m
        inner = s + (far - s) * 0.5 ** (m + 1)
        lo, hi = (inner, outer) if inner < outer else (outer, inner)
        if inner == s or lo == hi:
            break
        bounds.append((lo, hi))
    if bounds:
        lo, hi = np.array(bounds).T
        total = 0.0
        pieces = np.full(len(lo), row), np.full(len(lo), j)
        for piece in _intervals(integrand, family, space, *pieces, lo, hi, tol):
            total = total + piece
            if float(np.max(np.abs(piece))) < tol:
                return total
    raise QuadratureError(f"singular quadrature did not converge on cell {j}", j)


def _integrate_cell(integrand, family, space, row, j, a, b, tol) -> np.ndarray:
    """Integral of member ``row`` over cell ``j = [a, b]``, which holds declared singular points."""
    # a point listed twice (or as both -0.0 and 0.0) is one cut, not a zero-width piece
    sing = sorted({s for s in family.singular if a <= s <= b})
    # split at singular points; a piece with a singular end is a tail (s, far)
    # toward it, and one with two singular ends is halved into two tails
    cuts = [a] + [s for s in sing if a < s < b] + [b]
    tails = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if lo in sing and hi in sing:
            mid = 0.5 * (lo + hi)
            tails += [(lo, mid), (hi, mid)]
        else:
            tails.append((lo, hi) if lo in sing else (hi, lo))
    total = 0.0
    for s, far in tails:
        total = total + _toward_singularity(integrand, family, space, row, j, s, far, tol)
    return total


def _integrate(space: Space, family: _Family, integrand, tol) -> np.ndarray:
    """Integral of ``integrand(rows, cells, fx, basis)`` over each cell, for each member of ``family``.

    ``integrand`` maps the ``(m, P)`` values of ``f`` at the points of m
    intervals, one row per interval, and the cells' ``(m, P, n)`` basis
    values there to an ``(m, P, r)`` array; ``rows`` and ``cells`` name each
    interval's member and cell.  The result is ``(members, ell, r)``.  The
    cells without a singular point of all members go to the engine in one
    call; then each cell with one, member by member and in cell order.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidArgumentError(f"tolerance must be a positive finite number, got {tol!r}")
    ell = space.n_cells
    a, b = space.grid.nodes[:-1], space.grid.nodes[1:]
    rows, cells = np.divmod(np.arange(family.members * ell), ell)
    shape = (family.members, ell, -1)
    if not family.singular:
        bounds = a[cells], b[cells]
        return _intervals(integrand, family, space, rows, cells, *bounds, tol, whole=True).reshape(shape)
    s = np.asarray(family.singular, dtype=float)
    holds = ((a[cells, None] <= s) & (s <= b[cells, None])).any(axis=1)
    regular, singular = np.flatnonzero(~holds), np.flatnonzero(holds)
    parts = []
    if regular.size:
        c = cells[regular]
        parts.append(_intervals(integrand, family, space, rows[regular], c, a[c], b[c], tol, whole=True))
    for i in singular:
        j = cells[i]
        parts.append(_integrate_cell(integrand, family, space, rows[i], int(j), a[j], b[j], tol)[None])
    integrals = np.concatenate(parts)
    out = np.empty_like(integrals)
    out[np.concatenate([regular, singular])] = integrals
    return out.reshape(shape)


def _load_vectors(space: Space, family: _Family, tol) -> np.ndarray:
    """Integrals of each member of ``family`` against each basis polynomial of each cell."""

    def integrand(rows, cells, fx, basis):
        return fx[..., None] * basis

    return _integrate(space, family, integrand, tol)


def _member_integrals(space: Space, family: _Family, blocks, pointwise, tol) -> list[float]:
    """Per row, the sum over cells of the integral of ``pointwise(f(x), u(x))``.

    ``f`` is the row's member of ``family`` and ``u`` the member with the
    row's blocks of ``blocks`` ``(members, ell, n)``.  Each row's cell
    integrals are summed as Python floats from ``0.0``, in cell order.
    """

    def integrand(rows, cells, fx, basis):
        # vecdot over contiguous rows sums each point's dot product in the
        # same order as ``block @ basis_values``
        ux = np.vecdot(basis, blocks[rows, cells][:, None, :])
        return pointwise(fx, ux)[..., None]

    totals = []
    for integrals in _integrate(space, family, integrand, tol)[..., 0].tolist():
        total = 0.0
        for value in integrals:
            total += value
        totals.append(total)
    return totals


def _integrals_against(space: Space, family: _Family, blocks, tol) -> list[float]:
    """Per row, the integral of ``f(x) * u(x)``; see :func:`_member_integrals`."""
    return _member_integrals(space, family, blocks, lambda fx, ux: fx * ux, tol)


def _l2_errors(space: Space, family: _Family, blocks, tol) -> list[float]:
    """Per row, the L2 norm of ``f - u``; see :func:`_member_integrals`."""
    squares = _member_integrals(space, family, blocks, lambda fx, ux: np.square(fx - ux), tol)
    return [math.sqrt(max(total, 0.0)) for total in squares]


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------


def project(space: Space, f, *, tol: float = DEFAULT_TOL) -> Ultrafunction:
    """Orthogonal projection of ``f`` onto the space.

    The result is the best L2 approximation of ``f`` among members, and the
    unique member pairing like ``f`` against every member.
    """
    return Ultrafunction(space, _load_vectors(space, _family(as_handle(f)), tol)[0])


def project_via_basis(pair, f, *, weights: str = "delta", tol: float = DEFAULT_TOL) -> Ultrafunction:
    """Projection assembled through a delta/cardinal basis pair.

    With ``weights="delta"`` the result is the cardinal-basis sum with
    weights ``integral of f times each delta member``; ``weights="sigma"``
    swaps the roles.  Both agree with :func:`project` up to quadrature
    tolerance and serve as a cross-check of the direct assembly.
    """
    handle = as_handle(f)
    space = pair.space
    if weights == "delta":
        sources, targets = pair.evals, pair.dual
    elif weights == "sigma":
        sources, targets = pair.dual.transpose(0, 2, 1), pair.evals.transpose(0, 2, 1)
    else:
        raise InvalidArgumentError("weights must be 'delta' or 'sigma'")
    loads = _load_vectors(space, _family(handle), tol)[0]
    blocks = targets @ (sources @ loads[:, :, None])
    return Ultrafunction(space, blocks[:, :, 0])


def integral_against_member(f, u: Ultrafunction, *, tol: float = DEFAULT_TOL) -> float:
    """Adaptive integral of ``f(x) * u(x)`` over the support.

    Computed directly from the product integrand, independently of the
    projection path, so it can serve as an oracle for the defining property
    of :func:`project`.
    """
    return _integrals_against(u.space, _family(as_handle(f)), u.blocks[None], tol)[0]


def l2_error(f, u: Ultrafunction, *, tol: float = DEFAULT_TOL) -> float:
    """L2 norm of ``f - u`` over the support."""
    return _l2_errors(u.space, _family(as_handle(f)), u.blocks[None], tol)[0]
