"""Reference arithmetic for the benchmark's correctness checks.

Everything here is plain numpy and independent of ultracalc's quadrature and
operator code.  It rests on two documented facts about the space:

* the cell basis is the orthonormal Legendre basis mapped affinely to the
  cell, ``e_jk(x) = sqrt(2/h_j) * sqrt((2k+1)/2) * P_k(t)`` with
  ``t = (2x - a - b)/h_j``; :func:`basis_mismatch` confirms this against
  ``Space.basis_values`` before a check relies on it, and
* members evaluate with the node-average convention, nodes being snapped
  within a relative window of ``2**-40``.

Because the basis is orthonormal, the L2 pairing of two members is the dot
product of their flat coefficient vectors.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre as leg

SNAP_REL = 2.0 ** -40
GAUSS_POINTS = 40


def legendre_basis(degree: int, t) -> np.ndarray:
    """Orthonormal Legendre values on [-1, 1]: shape ``t.shape + (degree+1,)``."""
    t = np.asarray(t, dtype=float)
    norms = np.sqrt((2.0 * np.arange(degree + 1) + 1.0) / 2.0)
    return (leg.legvander(t.reshape(-1), degree) * norms).reshape(t.shape + (degree + 1,))


def basis_mismatch(space, rng: np.random.Generator, samples: int = 8) -> float:
    """Largest gap between ``Space.basis_values`` and the Legendre formula."""
    nodes = np.asarray(space.grid.nodes)
    worst = 0.0
    for j in rng.integers(0, nodes.size - 1, size=samples):
        a, b = nodes[j], nodes[j + 1]
        x = rng.uniform(a, b)
        t = (2.0 * x - a - b) / (b - a)
        ref = math.sqrt(2.0 / (b - a)) * legendre_basis(space.degree, t)
        worst = max(worst, float(np.max(np.abs(space.basis_values(int(j), x) - ref))))
    return worst


def edge_vectors(nodes, degree: int):
    """Per-cell coefficient functionals of the left and right edge values."""
    scale = np.sqrt(2.0 / np.diff(np.asarray(nodes)))[:, None]
    return scale * legendre_basis(degree, -1.0), scale * legendre_basis(degree, 1.0)


def edge_values(nodes, blocks):
    """One-sided limits per cell: (value at left edge, value at right edge)."""
    blocks = np.asarray(blocks)
    left, right = edge_vectors(nodes, blocks.shape[1] - 1)
    return np.sum(left * blocks, axis=1), np.sum(right * blocks, axis=1)


def node_values(nodes, blocks) -> np.ndarray:
    """Value at every node: one-sided at the ends, the average inside."""
    left, right = edge_values(nodes, blocks)
    out = np.empty(left.size + 1)
    out[0] = left[0]
    out[-1] = right[-1]
    out[1:-1] = 0.5 * (right[:-1] + left[1:])
    return out


def jumps(nodes, blocks) -> np.ndarray:
    """Plus-minus jump at every interior node."""
    left, right = edge_values(nodes, blocks)
    return left[1:] - right[:-1]


def cell_integrals(nodes, blocks) -> np.ndarray:
    """Integral of the member over each cell (only the k=0 term survives)."""
    return np.sqrt(np.diff(np.asarray(nodes))) * np.asarray(blocks)[:, 0]


def classify(nodes, xs):
    """Return (kind, index) arrays: kind 0 interior, 1 node, 2 outside."""
    nodes = np.asarray(nodes)
    xs = np.asarray(xs, dtype=float)
    i = np.searchsorted(nodes, xs)
    lo = np.clip(i - 1, 0, nodes.size - 1)
    hi = np.clip(i, 0, nodes.size - 1)
    d_lo = np.abs(xs - nodes[lo])
    d_hi = np.abs(xs - nodes[hi])
    nearest = np.where(d_hi < d_lo, hi, lo)
    dist = np.minimum(d_lo, d_hi)
    is_node = dist <= SNAP_REL * np.maximum(1.0, np.abs(nodes[nearest]))
    outside = (xs < nodes[0]) | (xs > nodes[-1])
    kind = np.where(is_node, 1, np.where(outside, 2, 0))
    index = np.where(is_node, nearest, np.minimum(i - 1, nodes.size - 2))
    return kind, index


def evaluate(nodes, blocks, xs) -> np.ndarray:
    """Member values at ``xs`` under the node-average convention."""
    nodes = np.asarray(nodes)
    blocks = np.asarray(blocks)
    xs = np.asarray(xs, dtype=float)
    kind, index = classify(nodes, xs)
    out = np.zeros(xs.shape)
    inside = kind == 0
    j = index[inside]
    a, b = nodes[j], nodes[j + 1]
    t = (2.0 * xs[inside] - a - b) / (b - a)
    vals = legendre_basis(blocks.shape[1] - 1, t)
    out[inside] = np.sqrt(2.0 / (b - a)) * np.einsum("ik,ik->i", vals, blocks[j])
    at_node = kind == 1
    out[at_node] = node_values(nodes, blocks)[index[at_node]]
    return out


def load_vector(nodes, degree: int, f, points: int = GAUSS_POINTS) -> np.ndarray:
    """Projection blocks of a smooth vectorized ``f`` by fixed high-order Gauss."""
    nodes = np.asarray(nodes)
    t, w = leg.leggauss(points)
    h = np.diff(nodes)
    xs = 0.5 * (nodes[:-1] + nodes[1:])[:, None] + 0.5 * h[:, None] * t[None, :]
    fx = f(xs)  # (cells, points)
    basis = legendre_basis(degree, t)  # (points, degree+1)
    return np.sqrt(0.5 * h)[:, None] * ((fx * w) @ basis)


def squared_error(nodes, blocks, f, points: int = GAUSS_POINTS) -> float:
    """Integral of ``(f - u)**2`` over the support, for smooth vectorized ``f``."""
    nodes = np.asarray(nodes)
    t, w = leg.leggauss(points)
    h = np.diff(nodes)
    xs = 0.5 * (nodes[:-1] + nodes[1:])[:, None] + 0.5 * h[:, None] * t[None, :]
    u = np.sqrt(2.0 / h)[:, None] * (np.asarray(blocks) @ legendre_basis(blocks.shape[1] - 1, t).T)
    d = f(xs) - u
    return float(np.sum(0.5 * h * ((d * d) @ w)))


def singular_load_vector(nodes, degree: int, s: float) -> np.ndarray:
    """Exact projection blocks of ``|x - s|**-0.5``.

    Substituting ``x = s +- u**2`` turns each one-sided piece into
    ``2 * polynomial(u) du``, which a Gauss rule of ``degree + 1`` points
    integrates exactly.
    """
    nodes = np.asarray(nodes)
    t, w = leg.leggauss(degree + 2)
    out = np.zeros((nodes.size - 1, degree + 1))
    for j in range(nodes.size - 1):
        a, b = float(nodes[j]), float(nodes[j + 1])
        pieces = []
        if b > s:
            pieces.append((math.sqrt(max(a - s, 0.0)), math.sqrt(b - s), 1.0))
        if a < s:
            pieces.append((math.sqrt(max(s - b, 0.0)), math.sqrt(s - a), -1.0))
        for lo, hi, sign in pieces:
            u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
            x = s + sign * u * u
            ref = (2.0 * x - a - b) / (b - a)
            vals = math.sqrt(2.0 / (b - a)) * legendre_basis(degree, ref)
            out[j] += 0.5 * (hi - lo) * (2.0 * w) @ vals
    return out


def sbp_defect(nodes, degree: int, matrix, kind: str) -> float:
    """Largest entry of ``M + M^T`` minus its summation-by-parts boundary form.

    For ``D`` the pairing identity ``<Du, v> + <u, Dv> = uv|_beta - uv|_-beta``
    makes ``M + M^T`` the difference of two edge outer products; for ``D2``
    it is the block-diagonal sum of per-cell edge products.  The result is
    relative to the largest matrix entry.
    """
    m = np.asarray(matrix)
    left, right = edge_vectors(nodes, degree)
    n = degree + 1
    dim = m.shape[0]
    expect = np.zeros((dim, dim))
    if kind == "D":
        r = np.zeros(dim)
        lft = np.zeros(dim)
        r[-n:] = right[-1]
        lft[:n] = left[0]
        expect = np.outer(r, r) - np.outer(lft, lft)
    else:
        for j in range(left.shape[0]):
            s = slice(j * n, (j + 1) * n)
            expect[s, s] = np.outer(right[j], right[j]) - np.outer(left[j], left[j])
    scale = max(1.0, float(np.max(np.abs(m))))
    return float(np.max(np.abs(m + m.T - expect))) / scale
