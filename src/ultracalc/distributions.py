"""Embedding distributions presented as k-th derivatives of C1 functions.

A distribution ``T = d^k f / dx^k`` with ``f`` continuously differentiable is
represented in the space by projecting ``f`` and applying the generalized
derivative ``k`` times.  Pairing the embedded member against a projected test
function converges to the classical pairing under grid refinement; against
members whose iterated derivatives vanish at the support boundary the k-fold
transfer ``pairing(D^k f, phi) = (-1)^k pairing(f, D^k phi)`` holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import derivative_operator
from .errors import InvalidArgumentError, PreconditionError
from .grid import is_count
from .projection import DEFAULT_TOL, FunctionHandle, as_handle, project
from .space import Space, Ultrafunction

#: absolute boundary value below which a member counts as vanishing there
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class DistributionSpec:
    """Presentation of a distribution as ``order``-th derivative of ``f``.

    ``order`` is the caller-asserted minimal derivative order; ``f`` must be
    continuously differentiable for positive orders (not verified here).
    """

    order: int
    f: FunctionHandle

    def __post_init__(self):
        if not is_count(self.order, 0):
            raise InvalidArgumentError("derivative order must be a nonnegative integer")
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "f", as_handle(self.f))


def embed(space: Space, spec: DistributionSpec, *, tol: float = DEFAULT_TOL) -> Ultrafunction:
    """Member representing the distribution: D applied ``order`` times to the projection."""
    u = project(space, spec.f, tol=tol)
    if spec.order == 0:
        return u
    d = derivative_operator(space, "D")
    for _ in range(spec.order):
        u = d.apply(u)
    return u


def pair(space: Space, t: Ultrafunction, phi, *, tol: float = DEFAULT_TOL) -> float:
    """Pairing of an embedded distribution with a test function.

    ``phi`` must vanish at both support endpoints (compact support strictly
    inside the open interval); it is projected and paired in L2.
    """
    handle = as_handle(phi)
    beta = space.grid.beta
    for endpoint in (-beta, beta):
        if handle(endpoint) != 0.0:
            raise InvalidArgumentError(
                "test function does not vanish at the support boundary"
            )
    return t.inner(project(space, handle, tol=tol))


def pair_exact_member(
    space: Space, spec: DistributionSpec, phi: Ultrafunction, *, tol: float = DEFAULT_TOL
) -> float:
    """Defect of the k-fold transfer identity against a member test function.

    Computes ``pairing(embed(spec), phi)`` and ``(-1)^k pairing(project(f),
    D^k phi)`` and returns their absolute difference.  Each integration by
    parts moves one derivative across and drops a boundary product, so every
    iterated derivative ``D^i phi`` for ``i < k`` must vanish at both support
    endpoints; members violating that raise
    :class:`~ultracalc.errors.PreconditionError`.
    """
    if phi.space is not space and phi.space != space:
        raise InvalidArgumentError("test member belongs to a different space")
    k = spec.order
    d = derivative_operator(space, "D")
    ell = space.n_cells
    w = phi
    for i in range(k):
        scale = 1.0 + w.norm()
        if abs(w.node_value(0)) > BOUNDARY_TOL * scale or abs(
            w.node_value(ell)
        ) > BOUNDARY_TOL * scale:
            raise PreconditionError(
                f"iterated derivative {i} of the test member does not vanish "
                "at the support boundary"
            )
        w = d.apply(w)
    # w is now D^k phi; t is D^k f_proj, the member embed gives
    f_proj = t = project(space, spec.f, tol=tol)
    for _ in range(k):
        t = d.apply(t)
    lhs = t.inner(phi)
    rhs = (-1.0) ** k * f_proj.inner(w)
    return abs(lhs - rhs)
