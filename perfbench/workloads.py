"""Seeded op lists for the three benchmark workloads.

``build(name, seed, workdir)`` performs the workload's set-up (grids, spaces,
members, input files) through ultracalc's public API and returns the fixed
op list of one pass.  The list is a pure function of the seed: the seed picks
coefficients, points and tags, never sizes or op counts, so every seed costs
about the same.  Each op carries a check that judges its output with the
numpy reference in :mod:`oracle` or with an identity at the tolerance
``ultracalc verify`` uses.

Library calls go through module attributes (``uc.project``, ``cli.main``) at
call time so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle
import ultracalc as uc
import ultracalc.cli as cli

WORKLOADS = ("project", "pointwise", "cli-session")

#: tolerance of verify's exact identities, applied to the same scaled defects
IDENTITY_TOL = 1e-10
#: agreement between adaptive quadrature at tol 1e-12 and the Gauss oracle
QUADRATURE_TOL = 1e-10
#: singular ops run at tol 1e-9; the geometric tail leaves up to ~1e3 * tol
SINGULAR_TOL = 1e-9
SINGULAR_CHECK = 1e-6


@dataclass
class Op:
    """One timed call.  ``check`` returns ``None`` when the output is right.

    ``expect_error`` names the exceptions the op is known to raise today; such
    a raise counts as a failed op.  Any other raise is a wrong result.
    """

    kind: str
    label: str
    run: Callable[["Ctx"], Any]
    check: Callable[[Any], str | None]
    expect_error: tuple[type[BaseException], ...] = ()


@dataclass
class Workload:
    ops: list[Op]
    sizes: str


@dataclass
class Ctx:
    """What an op may use while it runs: the tracer, if the pass is traced."""

    tracer: Any = None

    def fn(self, f):
        return f if self.tracer is None else self.tracer.counted(f)


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    out_path: str | None


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Smooth:
    """``a*sin(k*x+b) + c*x**2``, the family ``ultracalc verify`` draws from."""

    a: float
    b: float
    c: float
    k: float

    @classmethod
    def draw(cls, rng: np.random.Generator, k: int) -> "Smooth":
        a, b, c = (float(v) for v in rng.uniform(-1.0, 1.0, size=3))
        return cls(a, b, c, float(k))

    def scalar(self):
        a, b, c, k = self.a, self.b, self.c, self.k
        return lambda x: a * math.sin(k * x + b) + c * x**2

    def vector(self, x):
        return self.a * np.sin(self.k * x + self.b) + self.c * x**2

    def derivative(self, x):
        return self.a * self.k * np.cos(self.k * x + self.b) + 2.0 * self.c * x

    def text(self) -> str:
        return f"{self.a!r}*sin({self.k!r}*x+{self.b!r})+{self.c!r}*x**2"


def _grid(rng, ell: int, kind: str, beta: float = 1.0):
    """Uniform grid, or a tagged grid of exactly ``ell`` jittered cells."""
    if kind == "uniform":
        return uc.Grid.uniform(beta, ell)
    h = 2.0 * beta / ell
    tags = -beta + h * (np.arange(1, ell) + rng.uniform(-0.25, 0.25, size=ell - 1))
    return uc.Grid.with_tags(beta, tags.tolist(), 1.6 * h)


def _random_member(space, rng, scale: float = 1.0):
    return uc.Ultrafunction(space, scale * rng.standard_normal((space.n_cells, space.block_size)))


def _within(value: float, limit: float, what: str) -> str | None:
    value = float(value)
    if math.isfinite(value) and value <= limit:
        return None
    return f"{what} {value!r} exceeds {limit!r}"


def _blocks_close(got, ref, limit: float, what: str) -> str | None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(ref))))
    return _within(err, limit, what)


def _convention(space) -> str | None:
    """Whether the oracle's Legendre basis matches the space's own basis."""
    return _within(oracle.basis_mismatch(space, np.random.default_rng(0)), 1e-10,
                   "basis mismatch")


def _digest(*arrays) -> str:
    """Short digest of generated inputs, so an op's label names its inputs."""
    return fingerprint([np.asarray(a) for a in arrays])[:12]


def fingerprint(out) -> str:
    """Digest of an op output, used to prove later passes repeat the first."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, out)
    return h.hexdigest()


def _feed(h, x) -> None:
    # arrays are hashed through the buffer protocol, without a bytes copy
    if isinstance(x, uc.Ultrafunction):
        h.update(b"U")
        h.update(np.ascontiguousarray(x.blocks))
    elif isinstance(x, uc.DerivOperator):
        h.update(x.kind.encode())
        h.update(np.ascontiguousarray(x.matrix))
    elif isinstance(x, uc.BasisPair):
        for arr in (x.points, x.delta_coeffs, x.cardinal_coeffs):
            h.update(np.ascontiguousarray(arr))
    elif isinstance(x, uc.PointClass):
        h.update(f"{x.kind.value}:{x.index}".encode())
    elif isinstance(x, CliResult):
        h.update(f"{x.code}\0{x.stdout}\0{x.stderr}\0".encode())
        if x.out_path is not None and os.path.exists(x.out_path):
            with open(x.out_path, "rb") as fh:
                h.update(fh.read())
    elif isinstance(x, np.ndarray):
        h.update(np.ascontiguousarray(x))
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for item in x:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(repr(x).encode())


# ----------------------------------------------------------------------
# project: quadrature-bound
# ----------------------------------------------------------------------


def _project_ops(rng, space, k: int, full: bool, singular: bool) -> list[Op]:
    nodes = np.asarray(space.grid.nodes)
    tag = f"ell={space.n_cells} p={space.degree} #{_digest(nodes)}"
    f = Smooth.draw(rng, k)
    scalar = f.scalar()

    def ref():
        return oracle.load_vector(nodes, space.degree, f.vector)

    def check_blocks(limit, expected, what):
        def check(u):
            return _convention(space) or _blocks_close(u.blocks, expected(), limit, what)
        return check

    ops = [Op("project", f"smooth {tag} {f}", lambda c: uc.project(space, c.fn(scalar)),
              check_blocks(QUADRATURE_TOL, ref, "projection error"))]
    v = _random_member(space, rng, 0.3)
    ops.append(Op("l2_error", f"{tag} {f}", lambda c: uc.l2_error(c.fn(scalar), v),
                  lambda e: _within(abs(e * e - oracle.squared_error(nodes, v.blocks, f.vector)),
                                    QUADRATURE_TOL * space.n_cells, "squared l2 error deviation")))
    if not full:
        return ops

    parsed = uc.parse_expression(f.text())
    ops.append(Op("project", f"expr {tag} {f.text()}",
                  lambda c: uc.project(space, c.fn(parsed)),
                  check_blocks(QUADRATURE_TOL, ref, "projection error")))
    coeffs = rng.uniform(-1.0, 1.0, size=space.degree + 1)
    poly_member = space.from_polynomial(coeffs)
    poly = np.polynomial.Polynomial(coeffs)
    ops.append(Op("project", f"poly {tag} {coeffs.tolist()}",
                  lambda c: uc.project(space, c.fn(lambda x: float(poly(x)))),
                  check_blocks(QUADRATURE_TOL, lambda: poly_member.blocks,
                               "polynomial reprojection error")))
    w = _random_member(space, rng)
    ops.append(Op("integral_against_member", f"{tag} {f}",
                  lambda c: uc.integral_against_member(c.fn(scalar), w),
                  lambda val: _within(abs(val - float(np.dot(ref().ravel(), w.blocks.ravel()))),
                                      QUADRATURE_TOL * (1.0 + float(np.linalg.norm(w.blocks))),
                                      "pairing deviation")))
    pair = uc.basis_pair(space)
    weights = "delta" if space.degree % 4 == 0 else "sigma"
    ops.append(Op("project_via_basis", f"{weights} {tag} {f}",
                  lambda c: uc.project_via_basis(pair, c.fn(scalar), weights=weights),
                  check_blocks(QUADRATURE_TOL, ref, "projection error")))
    if not singular:
        return ops
    # The singular point sits at a fixed node and a fixed cell midpoint and the
    # seed scales the amplitude: where the point lies decides whether the
    # quadrature converges (s = 0 does at p = 0), so fixing it keeps every
    # seed's set of failing ops, and so its cost, the same.
    mid = space.n_cells // 2
    amplitude = float(rng.uniform(0.5, 2.0))
    for where, s in (("node", float(nodes[mid - 3])),
                     ("interior", float(0.5 * (nodes[mid + 2] + nodes[mid + 3])))):
        ops.append(Op("project_singular", f"{where} {tag} {amplitude!r}*abs(x-{s!r})**-0.5",
                      lambda c, s=s: uc.project(
                          space, uc.FunctionHandle(
                              c.fn(lambda x: amplitude * abs(x - s) ** -0.5), (s,)),
                          tol=SINGULAR_TOL),
                      check_blocks(SINGULAR_CHECK,
                                   lambda s=s: amplitude * oracle.singular_load_vector(
                                       nodes, space.degree, s),
                                   "singular projection error"),
                      expect_error=(uc.QuadratureError,)))
    return ops


def build_project(rng, workdir) -> Workload:
    ops: list[Op] = []
    index = 0
    for ell, grids, degrees, full in (
        (16, ("uniform", "tagged"), (0, 2, 6), True),
        (256, ("uniform",), (0, 2, 6), False),
        (256, ("tagged",), (2,), False),
        (1024, ("uniform",), (0, 2, 6), False),
    ):
        for kind in grids:
            for p in degrees:
                space = uc.Space(_grid(rng, ell, kind), p)
                batch = _project_ops(rng, space, 1 + index % 3, full, kind == "uniform")
                index += 1
                if ell == 1024:
                    batch = batch[:1]
                for op in batch:
                    op.label = f"{kind} {op.label}"
                ops.extend(batch)
    sizes = ("ell=16 uniform p=0,2,6: 8 ops incl. singular at a node and a cell midpoint; "
             "ell=16 tagged p=0,2,6: the 6 smooth/poly ops; ell=256 uniform p=0,2,6 and "
             "tagged p=2: project+l2_error; ell=1024 uniform p=0,2,6: project")
    return Workload(ops, sizes)


# ----------------------------------------------------------------------
# pointwise: evaluation-bound
# ----------------------------------------------------------------------


def _query_points(rng, nodes, count: int, outside: int = 0) -> np.ndarray:
    """About 20% exact nodes, 10% a few ulps off a node, the rest uniform."""
    beta = float(nodes[-1])
    n_node, n_ulp = count // 5, count // 10
    at_nodes = rng.choice(nodes, size=n_node)
    near = rng.choice(nodes[1:-1], size=n_ulp)
    steps = rng.integers(1, 4, size=n_ulp)
    signs = rng.choice([-1.0, 1.0], size=n_ulp)
    for i in range(n_ulp):
        for _ in range(int(steps[i])):
            near[i] = np.nextafter(near[i], signs[i] * np.inf)
    rest = rng.uniform(-beta, beta, size=count - n_node - n_ulp - outside)
    sides = rng.choice([-1.0, 1.0], size=outside)
    out = beta * (1.0 + rng.uniform(0.01, 0.5, size=outside)) * sides
    pts = np.concatenate([at_nodes, near, rest, out])
    rng.shuffle(pts)
    return pts


def _pointwise_ops(rng, space) -> list[Op]:
    grid = space.grid
    nodes = np.asarray(grid.nodes)
    ell = space.n_cells
    u = _random_member(space, rng)
    nu = float(np.linalg.norm(u.blocks))
    tag = f"ell={ell} p={space.degree} #{_digest(nodes, u.blocks)}"
    locate_pts = _query_points(rng, nodes, 256, outside=4)
    delta_pts = _query_points(rng, nodes, 32)
    sided = [(int(j), "plus" if j == 0 or (j < ell and i % 2) else "minus")
             for i, j in enumerate(rng.integers(0, ell + 1, size=32))]
    call_pts = _query_points(rng, nodes, 256)
    sample_pts = np.sort(_query_points(rng, nodes, 5000))
    node_idx = rng.integers(0, ell + 1, size=128)
    jump_idx = rng.integers(1, ell, size=128)
    kinds = {0: uc.PointKind.INTERIOR, 1: uc.PointKind.NODE, 2: uc.PointKind.OUTSIDE}

    def check_locate(classes):
        kind_ref, index_ref = oracle.classify(nodes, locate_pts)
        for x, pc, kd, ix in zip(locate_pts, classes, kind_ref, index_ref):
            want = (kinds[int(kd)], None if kd == 2 else int(ix))
            if (pc.kind, pc.index) != want:
                return f"locate({x!r}) gave {pc}, expected {want}"
        return None

    def reproduces(expected):
        """Pairing u with each delta returns the value the delta stands for."""
        def check(deltas):
            got = np.array([float(np.dot(u.blocks.ravel(), d.blocks.ravel())) for d in deltas])
            return _convention(space) or _within(
                float(np.max(np.abs(got - expected()))) / (1.0 + nu), IDENTITY_TOL,
                "delta reproduction defect")
        return check

    def sided_values():
        lft, rgt = oracle.edge_values(nodes, u.blocks)
        return np.array([lft[j] if side == "plus" else rgt[j - 1] for j, side in sided])

    def node_and_jump_values():
        return np.concatenate([oracle.node_values(nodes, u.blocks)[node_idx],
                               oracle.jumps(nodes, u.blocks)[jump_idx - 1]])

    def close(expected):
        def check(got):
            ref = expected()
            scale = 1.0 + float(np.max(np.abs(ref)))
            return _convention(space) or _within(
                float(np.max(np.abs(np.asarray(got) - ref))) / scale, IDENTITY_TOL,
                "value deviation")
        return check

    return [
        Op("locate", f"256 points {tag} #{_digest(locate_pts)}",
           lambda c: [grid.locate(x) for x in locate_pts], check_locate),
        Op("delta", f"32 centres {tag} #{_digest(delta_pts)}",
           lambda c: [uc.delta(space, x) for x in delta_pts],
           reproduces(lambda: oracle.evaluate(nodes, u.blocks, delta_pts))),
        Op("delta_sided", f"32 nodes {tag} #{_digest([j for j, _ in sided])}",
           lambda c: [uc.delta_sided(space, j, side) for j, side in sided],
           reproduces(sided_values)),
        Op("call", f"256 points {tag} #{_digest(call_pts)}",
           lambda c: [u(x) for x in call_pts],
           close(lambda: oracle.evaluate(nodes, u.blocks, call_pts))),
        Op("sample", f"5000 points {tag} #{_digest(sample_pts)}",
           lambda c: u.sample(sample_pts),
           close(lambda: oracle.evaluate(nodes, u.blocks, sample_pts))),
        Op("node_jump", f"128+128 nodes {tag} #{_digest(node_idx, jump_idx)}",
           lambda c: [u.node_value(int(j)) for j in node_idx] + [u.jump(int(j)) for j in jump_idx],
           close(node_and_jump_values)),
    ]


def build_pointwise(rng, workdir) -> Workload:
    ops: list[Op] = []
    spaces = []
    for ell, p, kind in ((1024, 0, "uniform"), (1024, 2, "tagged"),
                         (16384, 0, "tagged"), (16384, 2, "uniform")):
        space = uc.Space(_grid(rng, ell, kind), p)
        spaces.append(space)
        for op in _pointwise_ops(rng, space):
            op.label = f"{kind} {op.label}"
            ops.append(op)
    space = spaces[0]
    pair = uc.basis_pair(space)
    values = rng.uniform(-1.0, 1.0, size=pair.size)
    nodes = np.asarray(space.grid.nodes)

    def check_pair(bp):
        gram = bp.delta_coeffs.T @ bp.cardinal_coeffs  # orthonormal: pairing = dot
        return _within(float(np.max(np.abs(gram - np.eye(bp.size)))), IDENTITY_TOL,
                       "duality defect")

    def check_interp(w):
        got = oracle.evaluate(nodes, w.blocks, pair.points)
        return _within(float(np.max(np.abs(got - values))) / (1.0 + float(np.max(np.abs(values)))),
                       IDENTITY_TOL, "interpolation defect")

    ops.append(Op("basis_pair", "uniform ell=1024 p=0", lambda c: uc.basis_pair(space), check_pair))
    ops.append(Op("interpolate", f"uniform ell=1024 p=0 #{_digest(values)}",
                  lambda c: pair.interpolate(values),
                  check_interp))
    sizes = ("ell=1024 p=0 uniform, ell=1024 p=2 tagged, ell=16384 p=0 tagged, ell=16384 p=2 "
             "uniform; 256 locate/call points, 32 deltas, 5000 sample points, 256 node values; "
             "basis_pair+interpolate at ell=1024 p=0")
    return Workload(ops, sizes)


# ----------------------------------------------------------------------
# cli-session: whole commands through ultracalc.cli.main
# ----------------------------------------------------------------------


def run_cli(argv, out_path=None) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue(), out_path)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _member_file(path):
    data = _load(path)
    return np.asarray(data["space_spec"]["grid"]["nodes"]), np.asarray(data["blocks"])


def _csv_rows(text: str):
    lines = text.strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _session_ops(rng, d: str, sess: int, beta: float, cells: int, degree: int,
                 tagged: bool, verify_seed: int) -> list[Op]:
    path = lambda name: os.path.join(d, name)  # noqa: E731
    f = Smooth.draw(rng, 1 + sess)
    g = Smooth.draw(rng, 2)
    h = Smooth.draw(rng, 3)
    ladder = {"base": {"beta": beta, "cells": 4, "degree": degree}, "levels": 4,
              "policy": "dyadic-split", "target": 0.0}
    with open(path("ladder.json"), "w", encoding="utf-8") as fh:
        json.dump(ladder, fh)
    space_args = ["--beta", repr(beta), "--cells", str(cells), "--degree", str(degree)]
    grid = _grid(rng, cells, "tagged" if tagged else "uniform", beta)
    if tagged:
        tags = ",".join(repr(float(t)) for t in grid.nodes[1:-1])
        space_args += [f"--tags={tags}", f"--hmax={grid.h_max!r}"]
    sp = ["--space", path("s.json")]
    grid_nodes = np.asarray(grid.nodes)
    lo, hi = sorted(rng.choice(grid_nodes.size, size=2, replace=False).tolist())
    a, b = float(grid_nodes[lo]), float(grid_nodes[hi])
    q = float(rng.uniform(-beta, beta))
    bad_at = repr(beta * float(rng.uniform(1.5, 3.0)))
    test_fn = f"({beta * beta!r}-x^2)^4"

    def nodes():
        data = _load(path("s.json"))
        return np.asarray(data["grid"]["nodes"]), int(data["degree"])

    def ok(res: CliResult, expect: int = 0) -> str | None:
        if res.code != expect:
            return f"exit code {res.code}, expected {expect}: {res.stderr.strip()[:200]}"
        return None

    def cmd(name, argv, check, out=None, expect=0):
        def full_check(res):
            return ok(res, expect) or (check(res) if check else None)
        return Op(f"cli.{name}", f"session {sess} {' '.join(argv)}",
                  lambda c: run_cli(argv, out), full_check)

    def check_space(res):
        nd, deg = nodes()
        if deg != degree or nd[0] != -beta or nd[-1] != beta:
            return "space file does not describe the requested space"
        return None

    def check_project(res):
        nd, blocks = _member_file(path("u.json"))
        ref = oracle.load_vector(nd, degree, f.vector)
        return _blocks_close(blocks, ref, QUADRATURE_TOL, "projection error")

    def check_derive(kind, name):
        """D: the integral of Du is u(beta) - u(-beta); D2: the same on every cell."""
        def check(res):
            nd, ub = _member_file(path("u.json"))
            _, db = _member_file(path(name))
            integrals = oracle.cell_integrals(nd, db)
            if kind == "D":
                values = oracle.node_values(nd, ub)
                err = abs(float(np.sum(integrals)) - (values[-1] - values[0]))
            else:
                lft, rgt = oracle.edge_values(nd, ub)
                err = float(np.max(np.abs(integrals - (rgt - lft))))
            return _within(err / (1.0 + float(np.linalg.norm(ub))), IDENTITY_TOL,
                           f"{kind} fundamental-theorem defect")
        return check

    def check_integrate(res):
        nd, ub = _member_file(path("u.json"))
        ref = float(np.sum(oracle.cell_integrals(nd, ub)[lo:hi]))
        return _within(abs(float(res.stdout) - ref), IDENTITY_TOL, "integral deviation")

    def check_sample(res):
        header, rows = _csv_rows(res.stdout)
        nd, ub = _member_file(path("u.json"))
        xs = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
        if header != "x,value" or xs.size != 201:
            return "malformed sample CSV"
        ref = oracle.evaluate(nd, ub, xs)
        return _within(float(np.max(np.abs(vals - ref))) / (1.0 + float(np.max(np.abs(ref)))),
                       IDENTITY_TOL, "sample deviation")

    def check_delta(res):
        nd, db = _member_file(path("d.json"))
        w = np.random.default_rng(sess).standard_normal(db.shape)
        got = float(np.dot(w.ravel(), db.ravel()))
        ref = float(oracle.evaluate(nd, w, [q])[0])
        return _within(abs(got - ref) / (1.0 + float(np.linalg.norm(w))), IDENTITY_TOL,
                       "delta reproduction defect")

    def check_basis(res):
        data = _load(path("b.json"))
        dm, sm = np.asarray(data["delta"]), np.asarray(data["sigma"])
        return _within(float(np.max(np.abs(dm.T @ sm - np.eye(dm.shape[0])))), IDENTITY_TOL,
                       "duality defect")

    def check_embed(res):
        nd, tb = _member_file(path("t.json"))
        pg = oracle.load_vector(nd, degree, g.vector)
        vals = oracle.node_values(nd, pg)
        err = abs(float(np.sum(oracle.cell_integrals(nd, tb))) - (vals[-1] - vals[0]))
        return _within(err / (1.0 + float(np.linalg.norm(pg))), IDENTITY_TOL,
                       "embedded-derivative fundamental-theorem defect")

    def check_pair(res):
        header, rows = _csv_rows(res.stdout)
        if header != "level,value,error,order" or len(rows) != 4:
            return "malformed pairing table"
        t, w = np.polynomial.legendre.leggauss(200)
        x = beta * t
        ref = float(beta * np.sum(w * g.derivative(x) * (beta * beta - x * x) ** 4))
        return _within(abs(float(rows[-1][1]) - ref), 1e-6 * (1.0 + abs(ref)),
                       "finest pairing deviation")

    def check_refine(res):
        header, rows = _csv_rows(res.stdout)
        if header != "level,value,error,order" or len(rows) != 4:
            return "malformed convergence table"
        worst = 0.0
        for i, row in enumerate(rows):
            nd = np.linspace(-beta, beta, 4 * 2**i + 1)
            pu = oracle.load_vector(nd, degree, h.vector)
            ref = math.sqrt(max(oracle.squared_error(nd, pu, h.vector), 0.0))
            worst = max(worst, abs(float(row[1]) - ref) / (1e-8 + ref))
        return _within(worst, 1e-6, "relative proj-error deviation")

    def check_export(res):
        nd, deg = nodes()
        with open(path("op.csv"), encoding="utf-8") as fh:
            mat = np.array([[float(v) for v in line.split(",")] for line in fh.read().split()])
        return _within(oracle.sbp_defect(nd, deg, mat, "D"), IDENTITY_TOL,
                       "summation-by-parts defect")

    def check_verify(res):
        lines = res.stdout.strip().splitlines()
        if lines[0] != "suite,check,trials,max_defect,tolerance,status" or len(lines) < 2:
            return "malformed verify report"
        bad = [line for line in lines[1:] if not line.endswith(",PASS")]
        return f"verify reported {bad[0]}" if bad else None

    return [
        cmd("space", ["space", *space_args, "--out", path("s.json")], check_space, path("s.json")),
        cmd("project", ["project", *sp, "--fn=" + f.text().replace("**", "^"),
                        "--out", path("u.json")], check_project, path("u.json")),
        cmd("derive", ["derive", *sp, "--in", path("u.json"), "--kind", "D",
                       "--out", path("du.json")], check_derive("D", "du.json"), path("du.json")),
        cmd("derive", ["derive", *sp, "--in", path("u.json"), "--kind", "D2",
                       "--out", path("d2u.json")], check_derive("D2", "d2u.json"),
            path("d2u.json")),
        cmd("integrate", ["integrate", *sp, "--in", path("u.json"), f"--from={a!r}",
                          f"--to={b!r}"], check_integrate),
        cmd("sample", ["sample", path("u.json"), "--points", "201"], check_sample),
        cmd("delta", ["delta", *sp, f"--at={q!r}", "--out", path("d.json")], check_delta,
            path("d.json")),
        cmd("basis", ["basis", *sp, "--out", path("b.json")], check_basis, path("b.json")),
        cmd("embed", ["embed", *sp, "--k", "1", "--fn=" + g.text(), "--out", path("t.json")],
            check_embed, path("t.json")),
        cmd("pair", ["pair", *sp, "--dist", path("t.json"), "--test=" + test_fn, "--refine", "4"],
            check_pair),
        cmd("refine", ["refine", "--config", path("ladder.json"),
                       f"--observe=proj-error:{h.text()}"], check_refine),
        cmd("export-op", ["export-op", *sp, "--kind", "D", "--format", "csv",
                          "--out", path("op.csv")], check_export, path("op.csv")),
        # 20 trials, not the CLI's default 100: at 100 the two verify calls take
        # 86% of a 13 s pass, so a 30 s run has at most 90 ops; at 20 they take
        # 55% of a 4 s pass and a run has 100+ ops
        cmd("verify", ["verify", "--suite", "all", "--trials", "20", "--seed", str(verify_seed)],
            check_verify),
        cmd("delta", ["delta", *sp, f"--at={bad_at}"], None, expect=1),
        cmd("derive", ["derive", *sp], None, expect=2),
    ]


def build_cli_session(rng, workdir) -> Workload:
    ops: list[Op] = []
    verify_seed = int(rng.integers(0, 2**31))
    for sess, (beta, cells, degree, tagged) in enumerate(((1.0, 16, 2, False),
                                                          (2.0, 24, 3, True))):
        d = os.path.join(workdir, f"session{sess}")
        os.makedirs(d, exist_ok=True)
        ops.extend(_session_ops(rng, d, sess, beta, cells, degree, tagged, verify_seed))
    sizes = ("2 sessions of 15 commands: beta=1 16 cells p=2 uniform, beta=2 24 jittered "
             "tagged cells p=3; pair --refine 4 levels, refine ladder 4 levels from 4 cells, "
             "verify --suite all --trials 20 on the default space")
    return Workload(ops, sizes)


_SETUPS = {
    "project": build_project,
    "pointwise": build_pointwise,
    "cli-session": build_cli_session,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Set the workload up; the seed fixes every generated input."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _SETUPS[name](rng, workdir)
