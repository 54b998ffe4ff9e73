"""Refinement ladders: directed stages with monotone grid and degree growth.

A stage is a :class:`Space`: a grid and a polynomial degree.  The three
refinement policies preserve every existing node, so the node sets of a
ladder form a chain under inclusion, the support half-width never shrinks
and the cell bound never grows.  Observables evaluated along a ladder yield
convergence tables with dyadic-ratio order estimates.

This is the honest finite shadow of a limit over ever-finer configurations:
the ladder only ever exhibits finitely many stages and measured rates; no
claim is made about the limit object itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError
from .grid import Grid, is_count
from .space import Space

POLICIES = ("dyadic-split", "beta-growth", "degree-raise")


def refine(space: Space, policy: str, *, factor: float = 2.0) -> Space:
    """Produce the next stage under the given growth policy.

    ``dyadic-split`` halves every cell; ``beta-growth`` widens the support
    by ``factor`` keeping all old nodes, with no cell wider than the widest
    old cell; ``degree-raise`` increments the polynomial degree on the same
    grid.
    """
    g = space.grid
    if policy == "dyadic-split":
        mids = 0.5 * (g.nodes[:-1] + g.nodes[1:])
        nodes = np.sort(np.concatenate([g.nodes, mids]))
        return Space(Grid(nodes), space.degree)
    if policy == "beta-growth":
        if not factor > 1.0:
            raise InvalidArgumentError("beta-growth requires factor > 1")
        # no old gap exceeds h_max, so only the two new outer gaps are filled
        return Space(Grid.with_tags(factor * g.beta, g.nodes, g.h_max), space.degree)
    if policy == "degree-raise":
        return Space(g, space.degree + 1)
    raise InvalidArgumentError(f"unknown policy {policy!r}; expected one of {POLICIES}")


@dataclass(frozen=True)
class ObservationRow:
    """One ladder stage of a convergence table."""

    stage: int
    value: float
    error: float | None
    order: float | None


class Ladder:
    """Ordered stages along which per-stage scalar observables are evaluated."""

    def __init__(self, stages):
        stages = list(stages)
        if not stages:
            raise InvalidArgumentError("a ladder needs at least one stage")
        for prev, nxt in zip(stages[:-1], stages[1:]):
            prev_nodes = set(prev.grid.nodes.tolist())
            if not prev_nodes.issubset(set(nxt.grid.nodes.tolist())):
                raise InvalidArgumentError("stage node sets must form a chain")
        self.stages = stages

    @classmethod
    def from_base(
        cls, base: Space, levels: int, policy: str, *, factor: float = 2.0
    ) -> "Ladder":
        if not is_count(levels, 1):
            raise InvalidArgumentError(
                f"need at least one level: levels must be a positive integer, got {levels!r}"
            )
        stages = [base]
        for _ in range(int(levels) - 1):
            stages.append(refine(stages[-1], policy, factor=factor))
        return cls(stages)

    def observe(
        self, fn: Callable[[Space], float], target: float | None = None
    ) -> list[ObservationRow]:
        """Evaluate the observable ``fn`` on every stage and estimate convergence orders.

        With a ``target``, errors are distances to it; without one, the
        finest-stage value serves as the reference (and gets no error of its
        own).  Orders are base-2 logarithms of successive error ratios;
        stalled or vanishing errors leave the order undefined (``None``).
        """
        if len(self.stages) < 3:
            raise InsufficientDataError(
                "order estimation needs at least three stages"
            )
        values = [float(fn(space)) for space in self.stages]
        if target is not None:
            errors: list[float | None] = [abs(v - target) for v in values]
        else:
            ref = values[-1]
            errors = [abs(v - ref) for v in values[:-1]] + [None]
        rows: list[ObservationRow] = []
        for i, v in enumerate(values):
            order = None
            if i > 0 and errors[i] is not None and errors[i - 1] is not None:
                if errors[i] > 0.0 and errors[i - 1] > 0.0:
                    order = math.log2(errors[i - 1] / errors[i])
            rows.append(ObservationRow(i, v, errors[i], order))
        return rows
