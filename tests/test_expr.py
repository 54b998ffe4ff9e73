import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultracalc import (
    Grid,
    InvalidArgumentError,
    Space,
    Ultrafunction,
    integral_against_member,
    l2_error,
    parse_expression,
    project,
)


@pytest.mark.parametrize(
    "text,x,expected",
    [
        ("1 + 2*x", 3.0, 7.0),
        ("x/2 - 4", 10.0, 1.0),
        ("x**2", -3.0, 9.0),
        ("x^2", -3.0, 9.0),
        ("-x", 2.5, -2.5),
        ("abs(x)", -1.5, 1.5),
        ("sin(x)", 0.7, math.sin(0.7)),
        ("cos(2*x)", 0.4, math.cos(0.8)),
        ("exp(-x^2)", 0.9, math.exp(-0.81)),
        ("abs(x)**(-0.5)", 0.25, 2.0),
        ("(x + 1)*(x - 1)", 2.0, 3.0),
    ],
)
def test_evaluation(text, x, expected):
    assert parse_expression(text)(x) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize(
    "text",
    [
        "import os",
        "__builtins__",
        "open('x')",
        "y + 1",
        "x.real",
        "sin(x, 2)",
        "tan(x)",
        "x if x else 0",
        "[1,2]",
        "1 +",
        "1" + "0" * 400,  # an integer literal beyond float range
    ],
)
def test_rejects_non_grammar(text):
    with pytest.raises(InvalidArgumentError):
        parse_expression(text)


def test_returns_scalar_function():
    fn = parse_expression("3")
    assert fn(123.0) == 3.0


# ----------------------------------------------------------------------
# undefined and non-finite values: a typed error, never NaN, inf or a warning
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,bad",
    [("(-1)^0.5", 0.3), ("1/x", 0.0), ("exp(1000)", 0.3), ("exp(1000*x)", 1.0)],
)
def test_undefined_values_raise_typed_error_in_both_forms(text, bad):
    fn = parse_expression(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError):
            fn(bad)
        with pytest.raises(InvalidArgumentError):
            fn.array(np.array([[-0.5, 0.25], [bad, 0.75]]))


def test_array_form_keeps_shape_and_returns_a_new_array():
    x = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    assert np.array_equal(parse_expression("3").array(x), np.full((2, 3), 3.0))
    out = parse_expression("x").array(x)
    out[0, 0] = 7.0
    assert x[0, 0] == -1.0


# ----------------------------------------------------------------------
# the scalar and array forms agree bit for bit
# ----------------------------------------------------------------------

_LEAVES = st.one_of(
    st.just("x"),
    st.sampled_from(["0.5", "2", "3", "-1", "1.5"]),
    st.floats(-3.0, 3.0, allow_nan=False).map(repr),
)


def _expressions(depth: int):
    if depth == 0:
        return _LEAVES
    sub = _expressions(depth - 1)
    binary = st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "^", "**"]), sub)
    call = st.tuples(st.sampled_from(["abs", "sin", "cos", "exp", "-", "+"]), sub)
    return st.one_of(
        _LEAVES,
        binary.map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        call.map(lambda t: f"{t[0]}({t[1]})"),
    )


def _scalar_values(fn, x):
    """Per-point values of ``fn`` and a mask of the points where it is defined."""
    values, ok = np.zeros(x.shape), np.ones(x.shape, dtype=bool)
    for i in np.ndindex(x.shape):
        try:
            values[i] = fn(x[i])
        except InvalidArgumentError:
            ok[i] = False
    return values, ok


@settings(max_examples=60, deadline=None)
@given(text=_expressions(4), seed=st.integers(0, 2**32 - 1))
def test_scalar_and_array_forms_are_bit_identical(text, seed):
    fn = parse_expression(text)
    rng = np.random.default_rng(seed)
    for shape in ((200,), (64, 36)):
        x = rng.uniform(-2.0, 2.0, size=shape)
        values, ok = _scalar_values(fn, x)
        if not ok.any():
            with pytest.raises(InvalidArgumentError):
                fn.array(x)
            continue
        if not ok.all():
            with pytest.raises(InvalidArgumentError):
                fn.array(x)
            # compare on the defined points, kept in place
            x = np.where(ok, x, x[ok][0])
            values = np.where(ok, values, values[ok][0])
        assert fn.array(x).tobytes() == values.tobytes(), text


@pytest.mark.parametrize("text", ["x^(x/(x+x))", "abs(x)^(0*x+2)", "2^x", "abs(x)^0.5"])
def test_powers_with_array_exponents_match_one_point_form(text):
    # numpy computes x^0.5 and x^2 as sqrt and square only for a scalar exponent
    fn = parse_expression(text)
    x = np.random.default_rng(0).uniform(0.1, 2.0, size=(64, 36))
    values = np.array([fn(v) for v in x.ravel()]).reshape(x.shape)
    assert fn.array(x).tobytes() == values.tobytes()


@pytest.mark.parametrize(
    "text", ["sin(3*x)+x^2", "exp(-x^2)*cos(5*x)", "(1-x^2)^4", "abs(x-0.3)", "x*abs(x)/4"]
)
def test_projection_of_expression_equals_per_point_wrapper(text):
    # a plain wrapper hides the array form, so quadrature calls it per point
    fn = parse_expression(text)
    wrapped = lambda x: fn(x)
    space = Space(Grid.with_tags(1.0, [-0.61, -0.2, 0.05, 0.33, 0.8], 0.5), 3)
    u = project(space, fn)
    assert u.blocks.tobytes() == project(space, wrapped).blocks.tobytes()
    v = Ultrafunction(space, np.random.default_rng(3).standard_normal(u.blocks.shape))
    assert l2_error(fn, v) == l2_error(wrapped, v)
    assert integral_against_member(fn, v) == integral_against_member(wrapped, v)
