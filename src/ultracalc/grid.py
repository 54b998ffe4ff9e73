"""Partition of a bounded support [-beta, beta] into open cells.

The grid is the backbone of every other object in the package: function
spaces are direct sums of per-cell polynomial spaces, and all pointwise
conventions (one-sided limits, node averages) are phrased in terms of the
classification produced by :meth:`Grid.locate` (one point) and
:meth:`Grid.classify` (an array of points, with the same answers).  The
one-point path bisects a memoryview of the nodes, whose items are Python
floats, and makes the array path's comparisons, so the two agree bit for
bit without numpy-scalar arithmetic.

Node identity is decided by exact comparison after snapping: an input within
a relative distance of ``2**-40`` of a node is treated as that node.  The
pointwise conventions at nodes are genuinely discontinuous, so the fuzz is
kept explicit and tiny rather than hidden in comparisons downstream.  NaN
is no point of the line and is rejected; ``-inf`` and ``inf`` lie outside.

A grid is its node array; ``beta`` and ``h_max`` are read from it.  Its one
constructor checks the whole contract, so every factory, refinement policy
and file reader inherits it: no cell may be so narrow that snapping
swallows it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import InvalidArgumentError

#: Relative half-width of the snap-to-node window.
SNAP_REL = 2.0 ** -40

_OVERFLOW = "the support is too wide: its width 2 * beta overflows to inf"
_NARROW_CELL = "nodes must be strictly increasing, each cell wider than its two ends' snap windows"


def _support(beta) -> float:
    """``beta`` as a float, refused unless it is positive and ``2 * beta`` is finite."""
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise InvalidArgumentError("beta must be a positive finite number")
    if not math.isfinite(2.0 * beta):
        raise InvalidArgumentError(_OVERFLOW)
    return beta


def is_index(i) -> bool:
    """Whether ``i`` can be an index: a Python or numpy integer, and not a bool.

    ``True`` is no index, as it is no degree for :class:`~ultracalc.space.Space`;
    floats are refused even when integral.  Callers add the range check.
    """
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool)


def is_count(n, least: int) -> bool:
    """Whether ``n`` is a whole number of at least ``least``, such as a degree or a cell count.

    Integral floats such as ``2.0`` count; a bool, a fractional value, NaN
    and the infinities do not.  Callers convert with ``int(n)``.
    """
    try:
        return not isinstance(n, (bool, np.bool_)) and n == int(n) >= least
    except (TypeError, ValueError, OverflowError):
        return False


class PointKind(IntEnum):
    """Kind of a point against a grid; :meth:`Grid.classify` returns these codes."""

    INTERIOR = 0
    NODE = 1
    OUTSIDE = 2


@dataclass(frozen=True)
class PointClass:
    """Classification of a real point against a grid.

    ``kind`` is one of :class:`PointKind`; ``index`` is the cell index for
    interior points, the node index for nodes, and ``None`` outside.
    """

    kind: PointKind
    index: int | None

    @property
    def is_interior(self) -> bool:
        return self.kind is PointKind.INTERIOR

    @property
    def is_node(self) -> bool:
        return self.kind is PointKind.NODE

    @property
    def is_outside(self) -> bool:
        return self.kind is PointKind.OUTSIDE


class Grid:
    """Strictly increasing finite nodes ``-beta = g_0 < ... < g_n = beta``.

    Cell ``j`` is the open interval ``(nodes[j], nodes[j+1])``; it is wider
    than the snap windows of its two end nodes together, so ``2 / width``
    stays below ``2**40``; the support width ``2 * beta`` is finite.
    Grids are immutable after construction.
    """

    # _node_view: memoryview(nodes), read by the one-point path as Python floats
    __slots__ = ("nodes", "_node_view")

    def __init__(self, nodes):
        arr = np.array(nodes, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidArgumentError("need at least two nodes")
        if not (np.all(np.isfinite(arr)) and arr[-1] > 0.0 and arr[0] == -arr[-1]):
            raise InvalidArgumentError("nodes must be finite and run from -beta to beta > 0")
        if not math.isfinite(2.0 * float(arr[-1])):
            raise InvalidArgumentError(_OVERFLOW)
        window = SNAP_REL * np.maximum(1.0, np.abs(arr))
        if np.any(np.diff(arr) <= window[:-1] + window[1:]):
            raise InvalidArgumentError(_NARROW_CELL)
        arr.flags.writeable = False
        object.__setattr__(self, "nodes", arr)
        object.__setattr__(self, "_node_view", memoryview(arr))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Grid is immutable")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def uniform(cls, beta: float, ell: int) -> "Grid":
        """Uniform partition of ``[-beta, beta]`` into ``ell`` cells."""
        if not is_count(ell, 1):
            raise InvalidArgumentError("ell must be a positive integer")
        beta = _support(beta)  # before linspace overflows
        return cls(np.linspace(-beta, beta, int(ell) + 1))

    @classmethod
    def with_tags(cls, beta: float, tags, h_max: float) -> "Grid":
        """Grid whose nodes contain ``tags``, gaps filled down to ``h_max``.

        Every tag must lie strictly inside ``(-beta, beta)``.  Gaps wider
        than ``h_max`` are split into the minimal number of equal parts, which
        must be wider than the snap windows of the gap's ends; this is checked
        before any node is made.
        """
        beta = _support(beta)
        h_max = float(h_max)
        if not math.isfinite(h_max) or h_max <= 0.0:
            raise InvalidArgumentError("h_max must be a positive finite number")
        tags = np.sort(np.fromiter(tags, dtype=float), kind="stable")
        outside = ~((-beta < tags) & (tags < beta))
        if outside.any():
            raise InvalidArgumentError(
                f"tag {float(tags[np.argmax(outside)])!r} is not strictly inside (-beta, beta)"
            )
        anchors = np.concatenate(([-beta], tags, [beta]))
        # the stable sort keeps the first of equal tags, as a set would (-0.0, 0.0)
        anchors = anchors[np.append(True, anchors[1:] != anchors[:-1])]
        a, b = anchors[:-1], anchors[1:]
        with np.errstate(over="ignore", invalid="ignore"):
            gap = b - a
            window = SNAP_REL * (np.maximum(1.0, np.abs(a)) + np.maximum(1.0, np.abs(b)))
            parts = np.maximum(1.0, np.ceil(gap / h_max - 1e-12))
            # negated so that an overflowed part count (inf) is refused
            # too; a passed check bounds parts below 2**40
            wide = gap / parts > window
        if not wide.all():
            raise InvalidArgumentError(_NARROW_CELL)
        counts = parts.astype(np.int64)
        first = np.cumsum(counts) - counts
        i = np.arange(first[-1] + counts[-1]) - np.repeat(first, counts)
        nodes = np.repeat(a, counts) + np.repeat(gap, counts) * i / np.repeat(parts, counts)
        nodes[first] = a  # the anchors exactly: a + 0.0 would turn -0.0 into 0.0
        return cls(np.append(nodes, beta))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def beta(self) -> float:
        return float(self.nodes[-1])

    @property
    def h_max(self) -> float:
        """Width of the widest cell."""
        return float(np.max(np.diff(self.nodes)))

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1

    def cell_bounds(self, j: int) -> tuple[float, float]:
        if not (is_index(j) and 0 <= j < self.n_cells):
            raise InvalidArgumentError(f"cell index {j} out of range")
        return float(self.nodes[j]), float(self.nodes[j + 1])

    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    def snap(self, x: float) -> float:
        """Return the node value identified with ``x``, or ``x`` itself."""
        kind, j = self._find(x)
        return self._node_view[j] if kind is PointKind.NODE else float(x)

    def locate(self, x: float) -> PointClass:
        """Classify ``x`` as interior to a cell, a node, or outside."""
        return PointClass(*self._find(x))

    def _find(self, x) -> tuple[PointKind, int | None]:
        """:meth:`locate`'s ``(kind, index)``, computed on Python floats.

        The comparisons are those of :meth:`classify`, so the answers agree
        bit for bit: the nearer of the two nodes around the insertion point
        (a tie keeps the left one) is ``x`` if within its snap window.
        ``bisect_left`` is ``searchsorted``'s left side, and Python floats
        order ``-0.0``, ``0.0`` and the infinities as numpy does.
        """
        x = float(x)
        if math.isnan(x):
            raise InvalidArgumentError("cannot classify NaN: it is not a point of the line")
        nodes = self._node_view
        size = len(nodes)
        i = bisect_left(nodes, x)
        inside = 0 < i < size  # nodes[i - 1] < x <= nodes[i]
        j = min(i, size - 1)
        if inside and abs(x - nodes[i - 1]) <= abs(x - nodes[i]):
            j = i - 1
        v = nodes[j]
        if abs(x - v) <= SNAP_REL * max(1.0, abs(v)):
            return PointKind.NODE, j
        return (PointKind.INTERIOR, i - 1) if inside else (PointKind.OUTSIDE, None)

    def classify(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Classify every point of ``xs`` at once.

        Returns ``(kind, index)``, arrays of the shape of ``xs``: ``kind``
        holds :class:`PointKind` codes and ``index`` the cell or node index
        (``-1`` outside).  Entry ``k`` agrees with :meth:`locate` at ``xs[k]``.
        """
        x = np.asarray(xs, dtype=float)
        if np.isnan(x).any():
            raise InvalidArgumentError("cannot classify NaN: it is not a point of the line")
        nodes = self.nodes
        i = np.searchsorted(nodes, x)
        # nearest node among neighbours of the insertion point; a tie keeps i - 1
        lo = np.maximum(i - 1, 0)
        hi = np.minimum(i, nodes.size - 1)
        d_lo = np.abs(x - nodes[lo])
        d_hi = np.abs(x - nodes[hi])
        j = np.where(d_hi < d_lo, hi, lo)
        d = np.minimum(d_lo, d_hi)
        node = d <= SNAP_REL * np.maximum(1.0, np.abs(nodes[j]))
        outside = ~node & ((x < nodes[0]) | (x > nodes[-1]))
        cell = np.minimum(i - 1, self.n_cells - 1)
        kind = np.where(node, PointKind.NODE,
                        np.where(outside, PointKind.OUTSIDE, PointKind.INTERIOR))
        index = np.where(node, j, np.where(outside, -1, cell))
        return kind, index

    def node_index(self, x: float, what: str = "point") -> int:
        """Node index of ``x``; raises if ``x`` is not a grid node."""
        kind, j = self._find(x)
        if kind is not PointKind.NODE:
            raise InvalidArgumentError(f"{what} {x!r} is not a grid node")
        return j

    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.nodes.shape == other.nodes.shape and bool(np.all(self.nodes == other.nodes))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Grid(beta={self.beta}, n_cells={self.n_cells}, h_max={self.h_max})"
