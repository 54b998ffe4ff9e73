"""Layer spans recorded from outside ultracalc.

:func:`install` replaces the public functions and methods of each ultracalc
module with wrappers that open a span on entry and close it on exit, and
returns a callable that puts the originals back.  Module-level functions are
replaced in every ``ultracalc`` module namespace that holds them, so calls
through ``from .x import f`` bindings are traced as well.

A span carries its name, start, end, parent span and the id of the benchmark
op that caused it.  Spans are kept in memory (up to ``max_spans`` of them)
and written as JSON lines when the run ends.  Self time, a span's duration
minus the time covered by its direct children, is derived when each span
closes and summed per span name; counters are bumped at the same boundaries.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

from ultracalc import QuadratureError

_clock = time.perf_counter


class Tracer:
    """Span stack, per-name aggregates and counters for one phase at a time."""

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self.op_id: object = None
        self.phase = "pass"
        self.active = False  # true while install() has the wrappers in place
        self.evals = 0  # integrand evaluations so far, over all phases
        self._stack: list[list] = []  # [name, start, child_time, span id, parent id, evals]
        self.self_time: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)

    # span boundaries ----------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([name, _clock(), 0.0, self._next_id, parent, self.evals])
        self._next_id += 1

    def end(self) -> None:
        name, start, child, index, parent, _ = self._stack.pop()
        stop = _clock()
        duration = stop - start
        key = (self.phase, name)
        self.self_time[key] += duration - child
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < self.max_spans:
            self.spans.append((index, name, start, stop, parent, self.op_id))
        else:
            self.dropped += 1

    def parent_name(self) -> str | None:
        """Name of the span enclosing the one currently open, if any."""
        return self._stack[-2][0] if len(self._stack) > 1 else None

    def evals_in_open_span(self) -> int:
        """Integrand evaluations since the innermost open span began."""
        return self.evals - self._stack[-1][5]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self.phase, key)] += n

    # helpers --------------------------------------------------------------

    def counted(self, fn):
        """Wrap an integrand so every evaluation while tracing bumps ``projection.fn_evals``."""

        def evaluate(x):
            if self.active:
                self.evals += 1
                self.counts[(self.phase, "projection.fn_evals")] += 1
            return fn(x)

        evaluate.counted = True
        return evaluate

    def layer_self_time(self, prefix: str, phase: str = "pass") -> float:
        return sum((v for (ph, name), v in self.self_time.items()
                    if ph == phase and (name == prefix or name.startswith(prefix + "."))), 0.0)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, name, start, stop, parent, op in self.spans:
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": stop, "parent": parent, "op": op}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped": self.dropped}) + "\n")


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _span(tracer: Tracer, name, fn, after=None, on_error=None):
    """Wrap ``fn`` in a span; ``name`` may be a callable of the arguments."""

    def wrapper(*args, **kwargs):
        tracer.begin(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if on_error is not None:
                on_error(exc)
            raise
        else:
            if after is not None:
                after(args, kwargs, result)
            return result
        finally:
            tracer.end()

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


def _cli_name(args) -> str:
    argv = args[0] if args else None
    command = argv[0] if argv else "none"
    return f"cli.{command}"


def _targets(tracer: Tracer):
    """(owner, attribute, span name, after-hook, error-hook) for every wrapped callable."""
    import ultracalc.basis as basis
    import ultracalc.calculus as calculus
    import ultracalc.cli as cli
    import ultracalc.distributions as distributions
    import ultracalc.expr as expr
    import ultracalc.grid as grid
    import ultracalc.projection as projection
    import ultracalc.refinement as refinement
    import ultracalc.serialize as serialize
    import ultracalc.space as space
    import ultracalc.verify as verify

    count = tracer.count

    def eval_points(args, kwargs, result):
        if tracer.parent_name() != "space.eval":
            n = len(args[1]) if args and len(args) > 1 and hasattr(args[1], "__len__") else 1
            count("space.eval.points", n)

    def cells_of(index, integrand):
        def after(args, kwargs, result):
            cells = _space_of(args[index]).n_cells
            count("projection.cells", cells)
            f = args[integrand]
            if getattr(getattr(f, "fn", f), "counted", False):
                count("projection.counted_cells", cells)
        return after

    def projection_failed(exc):
        if isinstance(exc, QuadratureError):
            count("projection.failed")
        # a call that raised has no cells in projection.counted_cells, so its
        # evaluations are kept apart and left out of fn_evals_per_cell
        if not (tracer.parent_name() or "").startswith("projection."):
            count("projection.failed_fn_evals", tracer.evals_in_open_span())

    def operator_bytes(args, kwargs, result):
        count("calculus.operator_bytes", int(result.matrix.nbytes))

    def wrote(args, kwargs, result):
        count("serialize.bytes", len(result.encode("utf-8")))

    def read(args, kwargs, result):
        count("serialize.bytes", os.path.getsize(args[0]))

    out = [
        (grid.Grid, "locate", "grid.locate", None, None),
        (space.Space, "__init__", "space.build", None, None),
        (space.Ultrafunction, "inner", "space.inner", None, None),
        (basis, "delta", "basis.delta", None, None),
        (basis, "delta_sided", "basis.delta", None, None),
        (basis, "basis_pair", "basis.basis_pair", None, None),
        (basis.BasisPair, "interpolate", "basis.interpolate", None, None),
        (calculus, "derivative_operator", "calculus.build", operator_bytes, None),
        (calculus.DerivOperator, "apply", "calculus.apply", None, None),
        (calculus.DerivOperator, "__call__", "calculus.apply", None, None),
        (calculus, "integrate", "calculus.integrate", None, None),
        (calculus, "integrate_product", "calculus.integrate", None, None),
        (distributions, "embed", "distributions.embed", None, None),
        (distributions, "pair", "distributions.pair", None, None),
        (distributions, "pair_exact_member", "distributions.pair", None, None),
        (refinement.Ladder, "observe", "refinement.observe", None, None),
        (refinement, "refine", "refinement.refine",
         lambda a, k, r: count("refinement.stages"), None),
        (verify, "run_suites", "verify.run", None, None),
        (verify, "format_report", "verify.report", None, None),
        (cli, "main", _cli_name, None, None),
    ]
    for method in ("__call__", "sample", "node_value", "side_value", "jump"):
        out.append((space.Ultrafunction, method, "space.eval", eval_points, None))
    for fn in ("ibp_defect", "ibp_c1_defect", "ibp_piecewise_defect",
               "ftc_piecewise_defect", "naive_ibp_defect"):
        out.append((calculus, fn, "calculus.defect", None, None))
    for fn, index, integrand in (("project", 0, 1), ("project_via_basis", 0, 1),
                                 ("l2_error", 1, 0), ("integral_against_member", 1, 0)):
        out.append((projection, fn, f"projection.{fn}", cells_of(index, integrand),
                    projection_failed))
    for fn in ("grid_to_dict", "grid_from_dict", "space_to_dict", "space_from_dict",
               "space_hash", "member_to_dict", "member_from_dict", "basis_pair_to_dict"):
        out.append((serialize, fn, f"serialize.{fn}", None, None))
    out.append((serialize, "dump_json", "serialize.dump_json", wrote, None))
    out.append((serialize, "load_json", "serialize.load_json", read, None))
    out.append((expr, "parse_expression", "expr.parse", None, None))
    return out


def _space_of(obj):
    return obj if hasattr(obj, "n_cells") and hasattr(obj, "grid") else obj.space


def install(tracer: Tracer):
    """Wrap every traced callable; return a function that restores them."""
    import ultracalc.verify as verify

    undo: list = []
    replaced: dict = {}
    for owner, attr, name, after, on_error in _targets(tracer):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        inner = original
        if attr == "parse_expression":
            # integrands parsed by the CLI count their evaluations too
            def inner(text, _parse=original):
                return tracer.counted(_parse(text))
        wrapper = _span(tracer, name, inner, after, on_error)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if not isinstance(owner, type):
            replaced[id(original)] = (original, wrapper)
    # rebind the `from .x import f` copies other ultracalc modules hold
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "ultracalc" or mod_name.startswith("ultracalc.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, hit[1])
    # verify's suites are private, so they are wrapped where run_suites finds them
    suites = dict(verify._SUITES)
    for suite, fn in suites.items():
        verify._SUITES[suite] = _span(tracer, f"verify.{suite}", fn)
    tracer.active = True

    def restore() -> None:
        tracer.active = False
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        verify._SUITES.update(suites)

    return restore
