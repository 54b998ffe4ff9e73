"""JSON serialization for grids, spaces, members and basis pairs.

Spaces are identified in member files by a content hash over the grid nodes
and the degree, so mismatched files fail loudly.  Member files additionally
embed the full space description (``space_spec``) so they remain
self-contained for sampling.

Files are written compact: one line with sorted keys and each float's
``repr``, through the json module's C encoder (``python -m json.tool``
pretty-prints them).  Readers accept any layout, including the indented
one that earlier versions wrote.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

from .basis import BasisPair
from .errors import InvalidArgumentError
from .grid import Grid
from .space import Space, Ultrafunction


def real(value) -> float:
    """A JSON number as a float; a bool, string, null or too large a number is refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidArgumentError(f"expected a JSON number, got {value!r}")


def integral(value) -> int:
    """A JSON number with an integral value: :func:`real`, refusing fractions too."""
    if not real(value).is_integer():
        raise InvalidArgumentError(f"expected an integer, got {value!r}")
    return int(value)


def grid_to_dict(grid: Grid) -> dict:
    return {"beta": grid.beta, "nodes": grid.nodes.tolist()}


def grid_from_dict(data: dict) -> Grid:
    try:
        beta = real(data["beta"])
        nodes = [real(x) for x in data["nodes"]]
    except (KeyError, TypeError, InvalidArgumentError) as exc:
        raise InvalidArgumentError(f"malformed grid data: {exc}") from exc
    grid = Grid(nodes)
    if beta != grid.beta:
        raise InvalidArgumentError(f"grid beta {beta!r} is not its last node {grid.beta!r}")
    return grid


def space_to_dict(space: Space) -> dict:
    return {"grid": grid_to_dict(space.grid), "degree": space.degree}


def space_from_dict(data: dict) -> Space:
    try:
        return Space(grid_from_dict(data["grid"]), data["degree"])
    except (KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"malformed space data: {exc}") from exc


def space_hash(space: Space) -> str:
    payload = json.dumps(space_to_dict(space), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def member_to_dict(u: Ultrafunction) -> dict:
    return {
        "space": space_hash(u.space),
        "space_spec": space_to_dict(u.space),
        "blocks": u.blocks.tolist(),
    }


def member_from_dict(data: dict, space: Space | None = None) -> Ultrafunction:
    try:
        file_hash = data["space"]
        blocks = data["blocks"]
    except (KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"malformed member data: {exc}") from exc
    if space is None:
        if "space_spec" not in data:
            raise InvalidArgumentError(
                "member file carries no space description; pass the space explicitly"
            )
        space = space_from_dict(data["space_spec"])
    if file_hash != space_hash(space):
        raise InvalidArgumentError(
            "member file was written for a different space (hash mismatch)"
        )
    try:
        values = list(itertools.chain.from_iterable(blocks))
        # one pass over the types keeps large files fast; real() names a refused value
        if not set(map(type, values)) <= {float, int}:
            for x in values:
                real(x)
    except (TypeError, InvalidArgumentError) as exc:
        raise InvalidArgumentError(f"malformed member data: {exc}") from exc
    arr = np.asarray(blocks, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("member coefficients must be finite (NaN or inf found)")
    return Ultrafunction(space, arr)


def basis_pair_to_dict(pair: BasisPair) -> dict:
    return {
        "space": space_hash(pair.space),
        "points": pair.points.tolist(),
        "delta": pair.delta_coeffs.tolist(),
        "sigma": pair.cardinal_coeffs.tolist(),
        "cell_condition": pair.cell_condition_numbers().tolist(),
    }


NOT_FINITE = "cannot write a result that is not finite (NaN or inf); its inputs overflow"


def dump_json(data: dict) -> str:
    """Compact JSON text; a NaN or infinity, which JSON has no number for, is refused."""
    try:
        return json.dumps(data, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InvalidArgumentError(NOT_FINITE) from exc


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
