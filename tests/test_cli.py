import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ultracalc import cli
from ultracalc import serialize as ser
from ultracalc.errors import InvalidArgumentError


def run_cli(*args: str, **kwargs) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "ultracalc", *args]
    return subprocess.run(cmd, capture_output=True, text=True, **kwargs)


@pytest.fixture(scope="module")
def space_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cli") / "space.json"
    cp = run_cli("space", "--beta", "1", "--cells", "4", "--degree", "2", "--out", str(path))
    assert cp.returncode == 0, cp.stderr
    return path


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for name in (
        "grid",
        "space",
        "project",
        "delta",
        "basis",
        "derive",
        "integrate",
        "verify",
        "embed",
        "pair",
        "refine",
        "export-op",
        "sample",
    ):
        assert name in cp.stdout


def test_unknown_subcommand_is_usage_error():
    cp = run_cli("frobnicate")
    assert cp.returncode == 2


def test_unknown_flag_is_usage_error():
    cp = run_cli("grid", "--beta", "1", "--cells", "4", "--frobnicate")
    assert cp.returncode == 2


def test_grid_json():
    cp = run_cli("grid", "--beta", "1", "--cells", "4")
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    assert data["beta"] == 1.0
    assert data["nodes"] == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_grid_with_tags():
    cp = run_cli("grid", "--beta", "1", "--cells", "1", "--tags", "0.3", "--hmax", "2")
    data = json.loads(cp.stdout)
    assert data["nodes"] == [-1.0, 0.3, 1.0]


def test_grid_rejects_bad_beta():
    cp = run_cli("grid", "--beta", "-1", "--cells", "4")
    assert cp.returncode == 1
    assert "beta" in cp.stderr


def test_grid_finer_than_the_snap_windows_is_domain_error(capsys):
    assert cli.main(["grid", "--beta", "1e-13", "--cells", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "snap windows" in captured.err


@pytest.mark.parametrize("shape", [["--cells", "2"], ["--tags", "0", "--hmax", "1e308"]])
def test_grid_wider_than_the_largest_float_is_domain_error(capsys, shape):
    assert cli.main(["grid", "--beta", "1e308", *shape]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2 * beta overflows" in captured.err


def test_parser_is_built_once_and_reused(capsys):
    runs = [
        ["grid", "--beta", "2", "--tags=0.3", "--hmax", "0.7"],
        ["space", "--beta", "1", "--cells", "3", "--degree", "1"],
        ["grid", "--beta", "0", "--cells", "4"],
    ]
    first = []
    for argv in runs + runs[:1]:
        code = cli.main(argv)
        first.append((code, capsys.readouterr().out))
    assert [code for code, _ in first] == [0, 0, 1, 0]
    assert first[-1] == first[0]
    assert cli.build_parser() is cli.build_parser()


def test_project_and_sample(space_file, tmp_path):
    member = tmp_path / "u.json"
    cp = run_cli(
        "project", "--space", str(space_file), "--fn", "sin(x)", "--out", str(member)
    )
    assert cp.returncode == 0, cp.stderr
    data = json.loads(member.read_text())
    assert set(data) >= {"space", "blocks"}
    # sampling works from the member file alone
    cp = run_cli("sample", str(member), "--points", "9")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 10
    import math

    for line in lines[1:]:
        x, value = (float(tok) for tok in line.split(","))
        assert abs(value - math.sin(x)) < 5e-3


def test_sample_with_explicit_space(space_file, tmp_path):
    member = tmp_path / "u.json"
    run_cli("project", "--space", str(space_file), "--fn", "x", "--out", str(member))
    cp = run_cli("sample", str(member), "--points", "5", "--space", str(space_file))
    assert cp.returncode == 0, cp.stderr


def test_member_file_rejected_for_wrong_space(space_file, tmp_path):
    member = tmp_path / "u.json"
    run_cli("project", "--space", str(space_file), "--fn", "x", "--out", str(member))
    other = tmp_path / "other.json"
    run_cli("space", "--beta", "1", "--cells", "5", "--degree", "2", "--out", str(other))
    cp = run_cli("derive", "--space", str(other), "--in", str(member))
    assert cp.returncode == 1
    assert "hash" in cp.stderr


def test_delta_emits_member(space_file):
    cp = run_cli("delta", "--space", str(space_file), "--at", "0.25")
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    blocks = np.array(data["blocks"])
    assert np.any(blocks[2] != 0.0)
    assert np.all(blocks[[0, 1, 3]] == 0.0)


def test_delta_sided_variants(space_file):
    for side in ("plus", "minus"):
        cp = run_cli("delta", "--space", str(space_file), "--at", "0.5", "--side", side)
        assert cp.returncode == 0, cp.stderr


def test_basis_json_duality(space_file):
    cp = run_cli("basis", "--space", str(space_file))
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    assert set(data) >= {"space", "points", "delta", "sigma", "cell_condition"}
    delta = np.array(data["delta"])
    sigma = np.array(data["sigma"])
    # coefficient columns are orthonormal-basis coordinates, so the pairing
    # of delta column a with sigma column b is their dot product
    gram = delta.T @ sigma
    assert np.max(np.abs(gram - np.eye(len(data["points"])))) < 1e-10


def test_basis_cell_condition_for_shuffled_points_file(space_file, tmp_path):
    from ultracalc import default_interpolation_points
    from ultracalc import serialize as ser

    space = ser.space_from_dict(ser.load_json(str(space_file)))
    pts = np.random.default_rng(0).permutation(default_interpolation_points(space))
    points_file = tmp_path / "points.txt"
    points_file.write_text("\n".join(repr(float(q)) for q in pts) + "\n")
    shuffled = run_cli("basis", "--space", str(space_file), "--points", str(points_file))
    default = run_cli("basis", "--space", str(space_file))
    assert shuffled.returncode == 0, shuffled.stderr
    assert default.returncode == 0, default.stderr
    cond = json.loads(shuffled.stdout)["cell_condition"]
    np.testing.assert_allclose(cond, json.loads(default.stdout)["cell_condition"], rtol=1e-12)
    # reference: the points grouped by Grid.locate, one matrix per cell
    per_cell = {j: [] for j in range(space.n_cells)}
    for q in pts:
        per_cell[space.grid.locate(float(q)).index].append(float(q))
    expected = [
        np.linalg.cond(np.array([space.basis_values(j, q) for q in qs]))
        for j, qs in per_cell.items()
    ]
    np.testing.assert_allclose(cond, expected, rtol=1e-12)


def test_basis_on_a_cell_too_narrow_for_the_default_points_is_domain_error(tmp_path, capsys):
    # cell 1 is 2.5 snap windows wide: a Gauss point at p = 2 lies in a window
    space = tmp_path / "narrow.json"
    space.write_text(json.dumps({"grid": {"beta": 1.0, "nodes": [-1.0, 0.0, 2.5 * 2.0**-40, 1.0]}, "degree": 2}))
    assert cli.main(["basis", "--space", str(space)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cell 1 is too narrow for the default points; pass points explicitly" in captured.err
    assert "Traceback" not in captured.err


def test_derive_matches_delta_difference(space_file, tmp_path):
    member = tmp_path / "chi.json"
    # indicator of [-0.5, 0.5] as projection of an expression with plateau 1
    cp = run_cli(
        "project",
        "--space",
        str(space_file),
        "--fn",
        "1",
        "--out",
        str(member),
    )
    assert cp.returncode == 0
    data = json.loads(member.read_text())
    blocks = np.array(data["blocks"])
    blocks[0] = 0.0
    blocks[3] = 0.0
    data["blocks"] = blocks.tolist()
    member.write_text(json.dumps(data))
    out = tmp_path / "dchi.json"
    cp = run_cli(
        "derive", "--space", str(space_file), "--in", str(member), "--out", str(out)
    )
    assert cp.returncode == 0, cp.stderr
    da = json.loads(run_cli("delta", "--space", str(space_file), "--at", "-0.5").stdout)
    db = json.loads(run_cli("delta", "--space", str(space_file), "--at", "0.5").stdout)
    got = np.array(json.loads(out.read_text())["blocks"])
    expected = np.array(da["blocks"]) - np.array(db["blocks"])
    assert np.max(np.abs(got - expected)) < 1e-12


def test_integrate_value_and_node_error(space_file, tmp_path):
    member = tmp_path / "one.json"
    run_cli("project", "--space", str(space_file), "--fn", "1", "--out", str(member))
    cp = run_cli(
        "integrate",
        "--space",
        str(space_file),
        "--in",
        str(member),
        "--from",
        "-0.5",
        "--to",
        "1",
    )
    assert cp.returncode == 0, cp.stderr
    assert float(cp.stdout) == pytest.approx(1.5, abs=1e-12)
    cp = run_cli(
        "integrate",
        "--space",
        str(space_file),
        "--in",
        str(member),
        "--from",
        "-0.3",
        "--to",
        "1",
    )
    assert cp.returncode == 1
    assert "node" in cp.stderr


def test_verify_passes_and_is_deterministic(space_file):
    args = ("verify", "--space", str(space_file), "--suite", "all", "--trials", "20", "--seed", "7")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout
    assert "PASS" in first.stdout and "FAIL" not in first.stdout


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_non_positive_trials(trials):
    cp = run_cli("verify", "--suite", "d2", "--trials", trials, "--seed", "1")
    assert cp.returncode == 2
    assert "--trials" in cp.stderr
    assert cp.stdout == ""


@pytest.mark.parametrize(
    "trials, seed, suite, refused",
    [
        pytest.param(0, 0, "all", "trials", id="0"),
        pytest.param(-3, 0, "all", "trials", id="-3"),
        pytest.param(True, 0, "d2", "trials", id="trials=True"),
        pytest.param(2.5, 0, "d2", "trials", id="trials=2.5"),
        pytest.param(math.nan, 0, "d2", "trials", id="trials=nan"),
        pytest.param(1, -1, "d2", "seed", id="seed=-1"),
        pytest.param(1, 0.5, "d2", "seed", id="seed=0.5"),
        pytest.param(1, True, "d2", "seed", id="seed=True"),
        pytest.param(1, 0, "d3", "suite 'd3'", id="suite=d3"),
        pytest.param(2.0, 0, "d2", None, id="trials=2.0"),
    ],
)
def test_run_suites_rejects_non_positive_trials(trials, seed, suite, refused):
    from ultracalc import Grid, InvalidArgumentError, Space
    from ultracalc.verify import format_report, run_suites

    space = Space(Grid.uniform(1.0, 4), 1)
    if refused is None:
        # an integral float counts, and the report writes it as an integer
        report = format_report(run_suites(space, suite, trials, seed))
        assert {line.split(",")[2] for line in report.splitlines()[1:]} == {"2"}
        return
    with pytest.raises(InvalidArgumentError, match=refused):
        run_suites(space, suite, trials, seed)


@pytest.mark.parametrize("factor", ["0", "-1", "nan", "inf", "2", "1e-20"])
def test_verify_rejects_unusable_tol_factor(factor):
    # every tolerance is fixed: the former --tol-factor is an unknown option
    cp = run_cli("verify", "--suite", "d2", "--trials", "1", "--seed", "1", "--tol-factor", factor)
    assert cp.returncode == 2
    assert "unrecognized arguments: --tol-factor" in cp.stderr
    assert cp.stdout == ""


def test_verify_default_space():
    cp = run_cli("verify", "--suite", "d2", "--trials", "5", "--seed", "1")
    assert cp.returncode == 0, cp.stderr


def test_verify_exit_one_on_defect_above_tolerance(space_file, capsys, monkeypatch):
    from ultracalc import verify

    failing = verify.CheckResult("ftc", "fundamental-theorem", 5, 2e-10, 1e-10)
    monkeypatch.setitem(verify._SUITES, "ftc", lambda space, trials, rng: [failing])
    assert cli.main(["verify", "--space", str(space_file), "--suite", "ftc",
                     "--trials", "5", "--seed", "1"]) == 1
    assert capsys.readouterr().out == (
        "suite,check,trials,max_defect,tolerance,status\n"
        "ftc,fundamental-theorem,5,2e-10,1e-10,FAIL\n"
    )


def test_delta_sided_requires_node(space_file):
    cp = run_cli("delta", "--space", str(space_file), "--at", "0.25", "--side", "plus")
    assert cp.returncode == 1
    assert "node" in cp.stderr


def test_embed_and_pair(space_file, tmp_path):
    dist = tmp_path / "t.json"
    cp = run_cli(
        "embed",
        "--space",
        str(space_file),
        "--k",
        "3",
        "--fn",
        "x*abs(x)/4",
        "--out",
        str(dist),
    )
    assert cp.returncode == 0, cp.stderr
    meta = json.loads(dist.read_text())["distribution"]
    assert meta["k"] == 3 and meta["fn"] == "x*abs(x)/4"
    cp = run_cli(
        "pair", "--space", str(space_file), "--dist", str(dist), "--test", "(1-x^2)^4"
    )
    assert cp.returncode == 0, cp.stderr
    assert float(cp.stdout) == pytest.approx(1.0, abs=5e-2)


def test_pair_refinement_table(space_file, tmp_path):
    dist = tmp_path / "t.json"
    run_cli(
        "embed",
        "--space",
        str(space_file),
        "--k",
        "3",
        "--fn",
        "x*abs(x)/4",
        "--out",
        str(dist),
    )
    cp = run_cli(
        "pair",
        "--space",
        str(space_file),
        "--dist",
        str(dist),
        "--test",
        "(1-x^2)^4",
        "--refine",
        "4",
    )
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "level,value,error,order"
    assert len(lines) == 5


@pytest.mark.parametrize(
    "levels,message", [("0", "at least one level"), ("-3", "at least one level"),
                       ("1", "three stages"), ("2", "three stages")]
)
def test_pair_refinement_needs_three_levels(space_file, tmp_path, levels, message):
    dist = tmp_path / "t.json"
    cp = run_cli("embed", "--space", str(space_file), "--k", "1", "--fn", "x*abs(x)/4",
                 "--out", str(dist))
    assert cp.returncode == 0, cp.stderr
    cp = run_cli("pair", "--space", str(space_file), "--dist", str(dist), "--test",
                 "(1-x^2)^4", "--refine", levels)
    assert cp.returncode == 1
    assert message in cp.stderr
    assert "Traceback" not in cp.stderr
    assert cp.stdout == ""


def test_refine_observable_table(tmp_path):
    config = tmp_path / "ladder.json"
    config.write_text(
        json.dumps(
            {
                "base": {"beta": 1.0, "cells": 4, "degree": 1},
                "levels": 4,
                "policy": "dyadic-split",
                "target": 0.0,
            }
        )
    )
    cp = run_cli("refine", "--config", str(config), "--observe", "proj-error:sin(x)")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "level,value,error,order"
    orders = [float(line.split(",")[3]) for line in lines[2:]]
    for o in orders:
        assert abs(o - 2.0) <= 0.2


def test_refine_beta_growth_policy(tmp_path):
    config = tmp_path / "ladder.json"
    config.write_text(
        json.dumps(
            {
                "base": {"beta": 1.0, "cells": 8, "degree": 1},
                "levels": 3,
                "policy": "beta-growth",
                "factor": 2.0,
            }
        )
    )
    cp = run_cli("refine", "--config", str(config), "--observe", "proj-value:exp(-x^2)@0.25")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[0] == "level,value,error,order"


@pytest.mark.parametrize(
    "config",
    [
        [1, 2],
        "ladder",
        {"base": 3, "levels": 3},
        {"base": {"beta": 1.0, "cells": 4, "degree": 1}, "levels": "x"},
        {"levels": 3},
        {"base": {"beta": 1.0, "degree": 1}, "levels": 3},
    ],
    ids=["array", "string", "base-3", "levels-x", "no-base", "no-cells"],
)
def test_malformed_refine_config_is_domain_error(tmp_path, capsys, config):
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(config))
    assert cli.main(["refine", "--config", str(path), "--observe", "proj-error:sin(x)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refine config" in captured.err


_LADDER = {"base": {"beta": 1.0, "cells": 4, "degree": 2}, "levels": 3, "target": 0.0}


@pytest.mark.parametrize("value", [4.7, 2.5, 3.9, "4", "3", True, False, None, [3], math.inf])
@pytest.mark.parametrize("field", ["cells", "degree", "levels"])
def test_refine_config_integer_fields_refuse_non_integers(tmp_path, capsys, field, value):
    config = json.loads(json.dumps(_LADDER))
    (config if field == "levels" else config["base"])[field] = value
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(config))
    assert cli.main(["refine", "--config", str(path), "--observe", "proj-error:sin(x)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"refine config: bad {field!r} value" in captured.err


@pytest.mark.parametrize(
    "field,value",
    [(field, value) for field in ("beta", "factor", "target")
     for value in (True, False, "2", "0", None, [2.0], 10**400)
     if (field, value) != ("target", None)],  # a null target means "no target"
    ids=lambda v: "10**400" if v == 10**400 else None,
)
def test_refine_config_real_fields_refuse_non_numbers(tmp_path, capsys, field, value):
    config = json.loads(json.dumps(_LADDER))
    (config["base"] if field == "beta" else config)[field] = value
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(config))
    assert cli.main(["refine", "--config", str(path), "--observe", "proj-error:sin(x)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"refine config: bad {field!r} value" in captured.err


def test_refine_config_accepts_integral_floats(tmp_path, capsys):
    config = {"base": {"beta": 1.0, "cells": 4.0, "degree": 2.0}, "levels": 3.0, "target": 0.0}
    for name, cfg in (("floats", config), ("ints", _LADDER)):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        assert cli.main(["refine", "--config", str(tmp_path / f"{name}.json"),
                         "--observe", "proj-error:sin(x)"]) == 0
    floats, ints = capsys.readouterr().out.split("level,value,error,order")[1:]
    assert floats == ints and len(floats.strip().splitlines()) == 3


def test_export_op_json(space_file):
    cp = run_cli("export-op", "--space", str(space_file), "--kind", "D2", "--format", "json")
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    assert data["kind"] == "D2"
    assert len(data["matrix"]) == 12


def test_export_op_csv(space_file):
    cp = run_cli("export-op", "--space", str(space_file), "--kind", "D", "--format", "csv")
    assert cp.returncode == 0, cp.stderr
    rows = cp.stdout.strip().splitlines()
    assert len(rows) == 12
    assert all(len(row.split(",")) == 12 for row in rows)


def test_export_op_matches_d2_plus_jumps(space_file):
    d = run_cli("export-op", "--space", str(space_file), "--kind", "D").stdout
    d2 = run_cli("export-op", "--space", str(space_file), "--kind", "D2").stdout
    md = np.array([[float(t) for t in row.split(",")] for row in d.strip().splitlines()])
    md2 = np.array([[float(t) for t in row.split(",")] for row in d2.strip().splitlines()])
    assert md.shape == md2.shape == (12, 12)
    assert np.max(np.abs(md - md2)) > 0.1  # the jump corrections are visible


def test_bad_expression_is_domain_error(space_file):
    cp = run_cli("project", "--space", str(space_file), "--fn", "import os")
    assert cp.returncode == 1


def test_overflowing_expression_is_domain_error():
    cp = run_cli("project", "--fn", "exp(1000*x)")
    assert cp.returncode == 1
    assert "Traceback" not in cp.stderr
    assert "not finite" in cp.stderr
    assert cp.stdout == ""


def test_overflowing_integrand_is_domain_error():
    # 1e308 is finite; 1e308 times the basis is not
    cp = run_cli("project", "--fn", "1e308", timeout=60)
    assert cp.returncode == 1
    assert cp.stderr.splitlines() == [
        "ultracalc: error: the integrand overflows on cell 0: its values or their integral are not finite"
    ]
    assert cp.stdout == ""


def test_singular_node_fails_with_quadrature_error():
    # -0.5 is a node of the default grid; the quadrature must give up before
    # it evaluates the expression at the singular point
    cp = run_cli("project", "--fn", "abs(x+0.5)^-0.5", "--singular=-0.5", "--tol", "1e-9")
    assert cp.returncode == 1
    assert "quadrature" in cp.stderr
    assert "ZeroDivisionError" not in cp.stderr


@pytest.mark.parametrize(
    "cells, point, tol, code",
    [
        (15, "0", "1e-9", 0),
        (15, "0.3", "1e-9", 1),  # inside a cell, but away from 0: too few pieces
        (15, "0.3", "1e-6", 0),
        (None, "0", "1e-9", 1),  # a node of the default 16-cell space
        (None, "0", "1e-6", 0),
    ],
)
def test_readme_singular_tolerance_cases(tmp_path, capsys, cells, point, tol, code):
    space = []
    if cells is not None:
        path = tmp_path / "space.json"
        assert cli.main(["space", "--cells", str(cells), "--degree", "2", "--out", str(path)]) == 0
        space = ["--space", str(path)]
    fn = "abs(x)^-0.5" if point == "0" else f"abs(x-{point})^-0.5"
    assert cli.main(["project", *space, "--fn", fn, "--singular", point, "--tol", tol]) == code
    err = capsys.readouterr().err
    assert ("singular quadrature did not converge" in err) == (code == 1)


@pytest.mark.parametrize("point", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command", [["project", "--fn", "sin(x)"], ["embed", "--k", "1", "--fn", "x"]], ids=["project", "embed"]
)
def test_non_finite_singular_point_is_domain_error(capsys, command, point):
    assert cli.main([*command, f"--singular=0.5,{point}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "singular points must be finite" in captured.err


def test_fill_bound_below_the_snap_windows_is_domain_error(capsys):
    # refused before the 2 * 10**13 fill nodes are made
    assert cli.main(["grid", "--beta", "1", "--hmax", "1e-13"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "snap windows" in captured.err


def test_out_of_memory_is_domain_error(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_build_grid", exhausted)
    assert cli.main(["grid", "--beta", "1", "--hmax", "2e-12"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ultracalc: error: out of memory")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_delta_at_nan_is_domain_error(space_file):
    cp = run_cli("delta", "--space", str(space_file), "--at", "nan")
    assert cp.returncode == 1
    assert "NaN" in cp.stderr
    assert cp.stdout == ""


def test_sample_rejects_nan_coefficients(space_file, tmp_path):
    member = tmp_path / "u.json"
    cp = run_cli("project", "--space", str(space_file), "--fn", "x", "--out", str(member))
    assert cp.returncode == 0, cp.stderr
    data = json.loads(member.read_text())
    data["blocks"][3][1] = float("nan")
    member.write_text(json.dumps(data))
    cp = run_cli("sample", str(member), "--points", "5")
    assert cp.returncode == 1
    assert "finite" in cp.stderr
    assert cp.stdout == ""


@pytest.mark.parametrize("points", ["0", "-1"])
def test_sample_rejects_non_positive_points(space_file, tmp_path, points):
    member = tmp_path / "u.json"
    cp = run_cli("project", "--space", str(space_file), "--fn", "x", "--out", str(member))
    assert cp.returncode == 0, cp.stderr
    cp = run_cli("sample", str(member), "--points", points)
    assert cp.returncode == 2
    assert "--points" in cp.stderr
    assert cp.stdout == ""


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", ["project", "embed", "pair"])
def test_unreachable_tolerance_is_usage_error(space_file, tmp_path, command, tol):
    args = {
        "project": ["--fn", "sin(x)"],
        "embed": ["--k", "1", "--fn", "x*abs(x)/4"],
        "pair": ["--dist", str(tmp_path / "missing.json"), "--test", "(1-x^2)^4"],
    }[command]
    # the timeout bounds a run that would otherwise bisect without end
    cp = run_cli(command, "--space", str(space_file), *args, "--tol", tol, timeout=60)
    assert cp.returncode == 2
    assert "--tol" in cp.stderr
    assert cp.stdout == ""


def test_sample_csv_matches_pointwise_evaluation(tmp_path):
    from ultracalc import serialize as ser

    space = tmp_path / "s.json"
    member = tmp_path / "u.json"
    cp = run_cli("space", "--beta", "1", "--cells", "4", "--tags", "0.3", "--degree", "3",
                 "--out", str(space))
    assert cp.returncode == 0, cp.stderr
    cp = run_cli("project", "--space", str(space), "--fn", "sin(3*x)+abs(x-0.3)",
                 "--out", str(member))
    assert cp.returncode == 0, cp.stderr
    cp = run_cli("sample", str(member), "--points", "41")
    assert cp.returncode == 0, cp.stderr
    # the CSV is byte for byte what one scalar call per point prints
    u = ser.member_from_dict(ser.load_json(str(member)), None)
    xs = np.linspace(-1.0, 1.0, 41)
    assert any(u.space.grid.locate(float(x)).is_node for x in xs[1:-1])
    lines = ["x,value"] + [f"{float(x)!r},{float(u(float(x)))!r}" for x in xs]
    assert cp.stdout == "\n".join(lines) + "\n"


def test_export_op_and_sample_bytes_match_per_element_formatting(tmp_path, capsys):
    # the former formatting, _fmt(c) = repr(float(c)) per element, copied here
    from ultracalc import calculus as calc
    from ultracalc import serialize as ser

    def fmt(x):
        return repr(float(x))

    space = tmp_path / "s.json"
    member = tmp_path / "u.json"
    assert cli.main(["space", "--cells", "24", "--tags", "0.3", "--degree", "3",
                     "--out", str(space)]) == 0
    assert cli.main(["project", "--space", str(space), "--fn", "sin(3*x)+abs(x-0.3)",
                     "--out", str(member)]) == 0
    sp = ser.space_from_dict(ser.load_json(str(space)))
    u = ser.member_from_dict(ser.load_json(str(member)), sp)
    capsys.readouterr()
    for kind in ("D", "D2"):
        matrix = calc.derivative_operator(sp, kind).matrix
        assert cli.main(["export-op", "--space", str(space), "--kind", kind]) == 0
        want = "\n".join(",".join(fmt(c) for c in row) for row in matrix) + "\n"
        assert capsys.readouterr().out == want
        assert cli.main(["export-op", "--space", str(space), "--kind", kind,
                         "--format", "json"]) == 0
        data = {"kind": kind, "space": ser.space_hash(sp),
                "matrix": [[float(c) for c in row] for row in matrix]}
        assert capsys.readouterr().out == ser.dump_json(data)
    assert cli.main(["sample", str(member), "--points", "97"]) == 0
    xs = np.linspace(-1.0, 1.0, 97)
    want = "\n".join(["x,value"] + [f"{fmt(x)},{fmt(v)}" for x, v in zip(xs, u.sample(xs))]) + "\n"
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("degree", [2.5, -0.5, True, "2"])
def test_space_file_with_a_malformed_degree_is_refused(tmp_path, capsys, degree):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"grid": {"beta": 1.0, "nodes": [-1.0, 0.0, 1.0]},
                                "degree": degree}))
    assert cli.main(["delta", "--space", str(path), "--at", "0.25"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "degree must be a nonnegative integer" in captured.err


def test_indented_files_of_earlier_versions_give_the_same_output(tmp_path, capsys):
    # earlier versions wrote JSON with indent=2; only the whitespace differs
    compact, indented = tmp_path / "compact", tmp_path / "indented"
    compact.mkdir()
    indented.mkdir()
    assert cli.main(["space", "--cells", "6", "--tags", "0.3", "--degree", "3",
                     "--out", str(compact / "s.json")]) == 0
    assert cli.main(["project", "--space", str(compact / "s.json"), "--fn", "sin(3*x)",
                     "--out", str(compact / "u.json")]) == 0
    ladder = {"base": {"beta": 1.0, "cells": 4, "degree": 1}, "levels": 3, "target": 0.0}
    (compact / "ladder.json").write_text(json.dumps(ladder, sort_keys=True) + "\n")
    for name in ("s.json", "u.json", "ladder.json"):
        text = (compact / name).read_text()
        assert text.count("\n") == 1
        (indented / name).write_text(json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n")
    capsys.readouterr()
    outputs = {}
    for d in (compact, indented):
        s, u = str(d / "s.json"), str(d / "u.json")
        for argv in (["derive", "--space", s, "--in", u, "--kind", "D"],
                     ["sample", u, "--points", "31"],
                     ["integrate", "--space", s, "--in", u, "--from", "-1", "--to", "0.3"],
                     ["refine", "--config", str(d / "ladder.json"),
                      "--observe", "proj-error:sin(x)"]):
            assert cli.main(argv) == 0, argv
            outputs.setdefault(argv[0], []).append(capsys.readouterr().out)
    for name, (a, b) in outputs.items():
        assert a == b and a, name


@pytest.mark.parametrize(
    "grid",
    [{"beta": "1.0", "nodes": [-1.0, 0.0, 1.0]},
     {"beta": 1.0, "nodes": ["-1.0", 0.0, 1.0]},
     {"beta": 1.0, "nodes": [-1.0, True, 1.0]},
     {"beta": True, "nodes": [-1.0, 0.0, True]},
     {"beta": 1.0, "nodes": [-1.0, None, 1.0]},
     {"beta": "1.0", "nodes": ["-1.0", "0.0", True]}],
    ids=["beta-string", "node-string", "node-true", "beta-and-end-true", "node-null", "all"],
)
def test_space_file_with_non_number_nodes_is_refused(tmp_path, capsys, grid):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"grid": grid, "degree": 1}))
    assert cli.main(["verify", "--space", str(path), "--suite", "d2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed grid data: expected a JSON number" in captured.err


@pytest.mark.parametrize("content", ["5", "null", '"distribution"'], ids=["number", "null", "string"])
def test_pair_refinement_refuses_non_object_file(tmp_path, capsys, content):
    dist = tmp_path / "t.json"
    dist.write_text(content)
    assert cli.main(["pair", "--dist", str(dist), "--test", "(1-x^2)^4", "--refine", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs the distribution presentation" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "key,value,message",
    [("k", 1.5, "expected an integer, got 1.5"), ("k", "1", "expected a JSON number"),
     ("k", True, "expected a JSON number"), ("singular", ["0.5"], "expected a JSON number"),
     ("singular", [None], "expected a JSON number"), ("singular", 0.5, "not iterable")],
    ids=["k-fraction", "k-string", "k-true", "singular-string", "singular-null",
         "singular-number"],
)
def test_pair_refinement_refuses_non_number_metadata(tmp_path, capsys, key, value, message):
    space, dist = str(tmp_path / "s.json"), tmp_path / "t.json"
    assert cli.main(["space", "--cells", "4", "--degree", "2", "--out", space]) == 0
    assert cli.main(["embed", "--space", space, "--k", "1", "--fn", "x*abs(x)/4",
                     "--out", str(dist)]) == 0
    data = json.loads(dist.read_text())
    data["distribution"][key] = value
    dist.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["pair", "--space", space, "--dist", str(dist), "--test", "(1-x^2)^4",
                     "--refine", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed distribution data" in captured.err and message in captured.err


@pytest.mark.parametrize(
    "command",
    [
        ["derive", "--in", "{big}", "--kind", "D"],
        ["embed", "--k", "400", "--fn", "x"],
        ["integrate", "--in", "{big}", "--from", "-1", "--to", "1"],
        ["sample", "{big}", "--points", "5"],
    ],
)
def test_a_result_that_overflows_is_a_domain_error_and_writes_nothing(space_file, tmp_path, command):
    member = tmp_path / "u.json"
    cp = run_cli("project", "--space", str(space_file), "--fn", "1", "--out", str(member))
    assert cp.returncode == 0, cp.stderr
    data = json.loads(member.read_text())
    data["blocks"] = [[1e308] * len(row) for row in data["blocks"]]
    member.write_text(json.dumps(data))
    args = [a.replace("{big}", str(member)) for a in command]
    if args[0] != "sample":
        args += ["--space", str(space_file)]
    out = tmp_path / "out.txt"
    for extra in ([], ["--out", str(out)]):
        cp = run_cli(*args, *extra)
        assert cp.returncode == 1
        assert cp.stdout == ""
        # one error line and no numpy warning
        assert cp.stderr.splitlines() == ["ultracalc: error: " + ser.NOT_FINITE]
    assert not out.exists()


def test_dump_json_refuses_non_finite_numbers():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError, match="not finite"):
            ser.dump_json({"blocks": [[1.0, value]]})


def test_a_repeated_singular_point_gives_the_single_points_output(space_file):
    once, twice = (
        run_cli("project", "--space", str(space_file), "--fn", "abs(x-0.25)^-0.5", "--singular", points, "--tol", "1e-6")
        for points in ("0.25", "0.25,0.25")
    )
    assert once.returncode == 0, once.stderr
    assert twice.returncode == 0, twice.stderr
    assert twice.stdout == once.stdout
