import json

import numpy as np
import pytest

from ultracalc import Grid, InvalidArgumentError, Space, Ultrafunction
from ultracalc.serialize import (
    basis_pair_to_dict,
    grid_from_dict,
    grid_to_dict,
    member_from_dict,
    member_to_dict,
    space_from_dict,
    space_hash,
    space_to_dict,
)
from ultracalc import basis_pair


def test_grid_round_trip():
    g = Grid.with_tags(2.0, [-0.4, 1.1], 0.6)
    g2 = grid_from_dict(grid_to_dict(g))
    assert g == g2


@pytest.mark.parametrize("beta", [2.0, 0.5, float("nan")])
def test_grid_beta_must_match_the_nodes(beta):
    d = grid_to_dict(Grid.uniform(1.0, 4))
    d["beta"] = beta
    with pytest.raises(InvalidArgumentError, match="last node"):
        grid_from_dict(d)


def test_grid_dict_has_contract_keys():
    d = grid_to_dict(Grid.uniform(1.0, 4))
    assert set(d) == {"beta", "nodes"}


def test_space_round_trip_and_hash_stability():
    sp = Space(Grid.uniform(1.0, 6), 3)
    sp2 = space_from_dict(space_to_dict(sp))
    assert sp == sp2
    assert space_hash(sp) == space_hash(sp2)
    other = Space(Grid.uniform(1.0, 6), 2)
    assert space_hash(sp) != space_hash(other)


def test_member_round_trip():
    sp = Space(Grid.uniform(1.0, 4), 2)
    rng = np.random.default_rng(0)
    u = Ultrafunction(sp, rng.standard_normal((4, 3)))
    data = json.loads(json.dumps(member_to_dict(u)))
    v = member_from_dict(data, sp)
    assert np.array_equal(u.blocks, v.blocks)
    # self-contained load via the embedded space description
    w = member_from_dict(data)
    assert np.array_equal(u.blocks, w.blocks)
    assert w.space == sp


def test_member_hash_mismatch_rejected():
    sp = Space(Grid.uniform(1.0, 4), 2)
    other = Space(Grid.uniform(1.0, 5), 2)
    data = member_to_dict(sp.constant(1.0))
    with pytest.raises(InvalidArgumentError):
        member_from_dict(data, other)


def test_malformed_member_rejected():
    with pytest.raises(InvalidArgumentError):
        member_from_dict({"blocks": [[1.0]]})


@pytest.mark.parametrize("bad", ["1.0", True, False, None, [1.0]])
def test_member_coefficients_must_be_json_numbers(bad):
    sp = Space(Grid.uniform(1.0, 4), 1)
    data = member_to_dict(sp.constant(1.0))
    data["blocks"][2][0] = bad
    with pytest.raises(InvalidArgumentError, match="malformed member data: expected a JSON number"):
        member_from_dict(json.loads(json.dumps(data)), sp)


@pytest.mark.parametrize("blocks", [3.0, [1.0, 2.0], None])
def test_member_blocks_must_be_rows(blocks):
    sp = Space(Grid.uniform(1.0, 4), 1)
    data = member_to_dict(sp.constant(1.0))
    data["blocks"] = blocks
    with pytest.raises(InvalidArgumentError, match="malformed member data"):
        member_from_dict(data, sp)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_member_coefficients_rejected(bad):
    sp = Space(Grid.uniform(1.0, 4), 1)
    data = member_to_dict(sp.constant(1.0))
    data["blocks"][3][1] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        member_from_dict(data)
    with pytest.raises(InvalidArgumentError, match="finite"):
        member_from_dict(json.loads(json.dumps(data)), sp)


def test_basis_pair_dict_round_trips_duality():
    sp = Space(Grid.uniform(1.0, 3), 1)
    d = basis_pair_to_dict(basis_pair(sp))
    delta = np.array(d["delta"])
    sigma = np.array(d["sigma"])
    assert np.max(np.abs(delta.T @ sigma - np.eye(sp.dim))) < 1e-10
    assert len(d["cell_condition"]) == sp.n_cells


def test_number_formatting_matches_per_element_floats():
    # the former formatting, one float() per element, on a tagged space at
    # p = 3 whose blocks hold -0.0, subnormal and huge coefficients
    sp = Space(Grid.with_tags(1.0, [-0.31, 0.2, 0.57], 0.1), 3)
    blocks = np.random.default_rng(5).normal(size=(sp.n_cells, sp.block_size))
    blocks[0, :3] = -0.0, 5e-324, 1.7e308
    u = Ultrafunction(sp, blocks)
    pair = basis_pair(sp)
    old = {
        "grid": {"beta": sp.grid.beta, "nodes": [float(x) for x in sp.grid.nodes]},
        "member": {
            "space": space_hash(sp),
            "space_spec": space_to_dict(sp),
            "blocks": [[float(c) for c in row] for row in u.blocks],
        },
        "pair": {
            "space": space_hash(sp),
            "points": [float(q) for q in pair.points],
            "delta": [[float(c) for c in row] for row in pair.delta_coeffs],
            "sigma": [[float(c) for c in row] for row in pair.cardinal_coeffs],
            "cell_condition": [float(c) for c in pair.cell_condition_numbers()],
        },
    }
    new = {"grid": grid_to_dict(sp.grid), "member": member_to_dict(u), "pair": basis_pair_to_dict(pair)}
    assert json.dumps(new, indent=2, sort_keys=True) == json.dumps(old, indent=2, sort_keys=True)
