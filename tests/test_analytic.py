"""The built-in functions against a sympy oracle.

Each built-in function is written out here in sympy.  Its value and its
first and second derivatives must agree with lambdified sp.diff of that
expression within 1e-12 of the oracle's largest magnitude, at random
points and at points within 1e-6 of each bump's support edge, inside and
outside.  f = L u is compared by value.  Polynomial text, which
text_function builds without sympy, must agree with the same text parsed
by sympy's own parse_expr within 1e-13; other text must take the sympy
path and build what parse_expr builds, and text outside the grammar of
parse_expression is refused without being run.
"""

import numpy as np
import pytest
import sympy as sp

from degenpde.analytic import (bump, expression, parse_expression,
                               space_symbols, text_function)
from degenpde.fields import constant_field, from_expressions, heston
from degenpde.reduction import build_reduction_plan
from degenpde.solver import manufactured_solution, operator_apply
from degenpde.verification import Barrier, default_interpolation_functions

T = sp.Symbol("t", real=True)
X = space_symbols(2)
ORDERS = [(), (0,), (1,), (2,), (1, 1), (1, 2), (2, 2)]
# (axis, center, radius) of the bump factors of the inner bump and of the
# interpolation functions
INNER = [(0, 0.0, 1.2), (1, 0.0, 1.2)]
INTERP_EDGES = [[(0, 0.0, 1.0), (1, 0.0, 1.0)]] * 2 + [
    [(0, 0.3, 1.2), (1, 0.0, 0.8)], [(0, 0.0, 0.7), (1, 0.0, 0.7)],
    [(0, 0.0, 1.0), (1, 0.0, 1.0)]]


def written_bump(center, radius, powers):
    out = sp.Integer(1)
    for x, c, r in zip(X, center, radius):
        s = (x - c) / r
        out *= sp.Piecewise(((1 - s ** 2) ** powers, sp.Abs(s) < 1),
                            (0, True))
    return out


def points(seed, edges=(), n=300):
    """(t, x): n random points of [0, 1] x [-2.5, 2.5] x [0, 2.5], then
    for each (axis, center, radius) of edges 4 x 10 points whose
    coordinate on axis lies within 1e-6 of center +- radius."""
    rng = np.random.default_rng(seed)

    def box(m):
        x = rng.uniform(-2.5, 2.5, (m, 2))
        x[:, 1] = rng.uniform(0.0, 2.5, m)
        return rng.uniform(0.0, 1.0, m), x

    t, x = box(n)
    for axis, c, r in edges:
        for sign in (-1.0, 1.0):
            for side in (-1.0, 1.0):
                te, xe = box(10)
                xe[:, axis] = c + sign * r * (
                    1.0 + side * rng.uniform(0.0, 1e-6, 10))
                t, x = np.concatenate([t, te]), np.concatenate([x, xe])
    return t, x


def oracle(expr, t, x, orders=ORDERS):
    syms = (T,) + X
    exprs = [sp.diff(expr, *(syms[k] for k in o)) if o else expr
             for o in orders]
    fn = sp.lambdify(syms, exprs, modules="numpy")
    return [np.broadcast_to(np.asarray(v, dtype=float), t.shape)
            for v in fn(t, x[:, 0], x[:, 1])]


def derivatives(u, t, x):
    return [u.value(t, x), u.dt(t, x), u.dx(0, t, x), u.dx(1, t, x),
            u.dxx(0, 0, t, x), u.dxx(0, 1, t, x), u.dxx(1, 1, t, x)]


def assert_agree(got, want, rtol=1e-12):
    for k, (g, w) in enumerate(zip(got, want)):
        scale = float(np.max(np.abs(w)))
        assert np.max(np.abs(g - w)) <= rtol * scale, (ORDERS[k], scale)


@pytest.mark.parametrize("center,radius,powers", [
    ((0.2, 0.5), (1.1, 0.7), 4), ((-0.3, 0.0), (0.9, 1.3), 5)],
    ids=["powers-4", "powers-5"])
def test_bump(center, radius, powers):
    t, x = points(1, [(i, center[i], radius[i]) for i in range(2)])
    assert_agree(derivatives(bump(2, center, radius, powers), t, x),
                 oracle(written_bump(center, radius, powers), t, x))


@pytest.mark.parametrize("kind", ["constant", "affine_height",
                                  "inner_bump"])
def test_manufactured(kind, manufactured_exprs):
    t, x = points(2, INNER)
    u = manufactured_solution(heston(2.0, 0.25, 1.0, 0.0), kind)
    assert_agree(derivatives(u, t, x),
                 oracle(manufactured_exprs[kind], t, x))


@pytest.mark.parametrize("k", range(5))
def test_interpolation_functions(k, interpolation_exprs):
    t, x = points(3 + k, INTERP_EDGES[k])
    assert_agree(derivatives(default_interpolation_functions()[k], t, x),
                 oracle(interpolation_exprs[k], t, x))


@pytest.mark.parametrize("drift", [-2.0, 0.0, 2.0])
def test_barrier(drift):
    # points of the window, where both bases stay >= gamma
    bar, rng = Barrier(drift), np.random.default_rng(8)
    t = rng.uniform(0.0, bar.window, 1000)
    x = np.stack([rng.uniform(-1.0, 1.0, 1000),
                  rng.uniform(0.0, 3.0, 1000)], axis=-1)
    keep = bar.in_window(t, x)
    t, x = t[keep], x[keep]
    assert len(t) > 200
    s = abs(drift) + 1.0
    phi = (1 + X[0] - s * T) ** -2 + (1 - X[0] - s * T) ** -2
    assert_agree(derivatives(bar.phi, t, x), oracle(phi, t, x))


def test_transformed_exact_solution(manufactured_exprs):
    # e^{-ct} u(t, B z) for the correlated field, at z = F x for the
    # points x, so that the bump's edges are met
    field = constant_field([[2.0, 1.0], [1.0, 1.0]], [1.0, 2.0], -0.5)
    plan = build_reduction_plan(field)
    w = plan.transform_analytic(manufactured_solution(field, "inner_bump"))
    B = plan.backward
    expr = sp.exp(0.5 * T) * manufactured_exprs["inner_bump"].subs(
        {X[i]: sum(float(B[i, k]) * X[k] for k in range(2))
         for i in range(2)}, simultaneous=True)
    t, x = points(9, INNER)
    z = plan.forward_points(x)
    assert_agree(derivatives(w, t, z), oracle(expr, t, z))


# The fields' coefficients (a, b, c) as text, written out from heston(2,
# 0.25, 1, -0.5, r=0.05) and constant_field; the expressions field has
# them as its own text.
EXPRESSIONS = ([["1 + 0.5*sin(x1)", "0.3*cos(x1)*(1 + x2)"],
                ["0.3*cos(x1)*(1 + x2)", "1 + x2/4"]],
               ["x2 - 1 - x1/2", "x1 - x2/2 + 0.25 + t"], "-0.1 - x1**2/10")
FIELDS = {
    "heston": (lambda: heston(2.0, 0.25, 1.0, -0.5, r=0.05),
               ([["0.5", "-0.25"], ["-0.25", "0.5"]],
                ["0.05 - x2/2", "2*(0.25 - x2)"], "-0.05")),
    "constant": (lambda: constant_field([[2.0, 1.0], [1.0, 1.0]],
                                        [1.0, 2.0], -0.5),
                 ([["2", "1"], ["1", "1"]], ["1", "2"], "-0.5")),
    "expressions": (lambda: from_expressions(2, *EXPRESSIONS, 0.2, 10.0,
                                             0.1), EXPRESSIONS),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("kind", ["affine_height", "inner_bump"])
def test_operator_apply(name, kind, manufactured_exprs):
    make, (a, b, c) = FIELDS[name]
    field = make()
    u = manufactured_exprs[kind]
    names = {"t": T, "x1": X[0], "x2": X[1]}
    a, b, c = ([[sp.sympify(e, locals=names) for e in row] for row in a],
               [sp.sympify(e, locals=names) for e in b],
               sp.sympify(c, locals=names))
    lu = (sp.diff(u, T)
          - X[1] * sum(a[i][j] * sp.diff(u, X[i], X[j])
                       for i in range(2) for j in range(2))
          - sum(b[i] * sp.diff(u, X[i]) for i in range(2)) - c * u)
    t, x = points(10, INNER)
    f = operator_apply(field, manufactured_solution(field, kind))
    assert_agree([f.value(t, x)], oracle(lu, t, x, [()]))


def sympy_parse(text):
    """text through sympy's own parser, the reference for parse_expression
    (and sympy's namespace for every name but t, x1 and x2)."""
    return sp.parse_expr(text, local_dict={"t": T, "x1": X[0], "x2": X[1]})


def sympy_function(text):
    """text through sympy, the reference for text_function."""
    return expression(2, sympy_parse(text))


@pytest.mark.parametrize("text", [
    "2*(0.25*(1 + t) - x2)", "(x1 - 2*t)**3/4", "-x2", "1e-3*t*x2**2",
    "x1*x2 - x2*x1", "0.05 - x2/2", "+x1*(x2 + 1)**2 - 7/3", "t - t + 4",
    "(1 + t)**0 * x1**8 / 0.5", "x2**2*x1 - 2*x1*x2**2"])
def test_polynomial_text_matches_sympy(text):
    u, ref = text_function(text, 2), sympy_function(text)
    assert not any(f[0] == "text" for _, fs in u.terms for f in fs)
    assert [u.depends(k) for k in range(3)] == [ref.depends(k)
                                                for k in range(3)]
    t, x = points(11)
    assert_agree(derivatives(u, t, x), derivatives(ref, t, x), rtol=1e-13)


@pytest.mark.parametrize("text", [
    "x3", "1/0", "x1/(t - t)", "x1/x2", "Max(x1, 0)", "sqrt(x1)",
    "Piecewise((1, x1 < 0), (0, True))", "x1^2", "x1**9", "(x1*x2)**5",
    "x1**2.0", "x1**-1", "pi*x1", "exp(-t)*x2", "x1 +", "1e400"])
def test_other_text_takes_the_sympy_path(text):
    # the same function as through sympy, or a one-line error
    errors = {"x3": "uses unknown symbols ['x3']",
              "1/0": "must have finite real values",
              "x1/(t - t)": "must have finite real values",
              "x1^2": "BitXor 'x1^2' is not allowed",
              "x1 +": "cannot parse expression 'x1 +': invalid syntax"}
    if text in errors:
        with pytest.raises(ValueError) as info:
            text_function(text, 2)
        assert errors[text] in str(info.value)
        assert "\n" not in str(info.value)
    else:
        assert text_function(text, 2).terms == sympy_function(text).terms


# Text in every part of the grammar of parse_expression
GRAMMAR_TEXTS = [
    "sqrt(x1)*exp(-t) + log(1 + x2) - log(x1, 2)", "pi*x1 + E**t",
    "sin(x1) + cos(x2) + tan(x1/4)", "asin(x2/4) + acos(x2/4) + atan(x1)",
    "tanh(x1)*cosh(t)/sinh(1 + x2)", "Abs(x1) + Min(x1, x2, 1) - Max(0, t)",
    "Piecewise((1, (x1 < 0.2) & (x2 <= 1)), (0, (t > 0.3) | (x1 >= 1)), "
    "(2, True))", "-x1**2 + +2.5e-3*x1 - 7/3", "0.1000000000000000000001",
    "1e400", "x1**2.0 + x2**-1 + 2**0.5"]


@pytest.mark.parametrize("text", GRAMMAR_TEXTS)
def test_parse_builds_what_sympy_parses(text):
    assert sp.srepr(parse_expression(text, 2)) == sp.srepr(sympy_parse(text))


@pytest.mark.parametrize("text,message", [
    ("Integral(x1, x1)", "uses unknown functions ['Integral']"),
    ("floor(x1)", "uses unknown functions ['floor']"),
    ("Heaviside(x1)", "uses unknown functions ['Heaviside']"),
    ("factorial(3)", "uses unknown functions ['factorial']"),
    ("sign(x1) + cot(x2)", "uses unknown functions ['cot', 'sign']"),
    ("lambda: 1", "Lambda 'lambda: 1' is not allowed"),
    ("x1 if x2 else 0", "IfExp 'x1 if x2 else 0' is not allowed"),
    ("x1.real", "Attribute 'x1.real' is not allowed"),
    ("sin.__class__(x1)", "Attribute 'sin.__class__' is not allowed"),
    ("x1[0]", "Subscript 'x1[0]' is not allowed"),
    ("exp(x=x1)", "keyword 'x=x1' is not allowed"),
    ("x1 % 2", "Mod 'x1 % 2' is not allowed"),
    ("x1 == 1", "Eq 'x1 == 1' is not allowed"),
    ("0 < x1 < 1", "Compare '0 < x1 < 1' is not allowed"),
    ("x1 and x2", "And 'x1 and x2' is not allowed"),
    ("(x1, x2)", "Tuple '(x1, x2)' is not allowed"),
    ("'x1'", "Constant \"'x1'\" is not allowed"),
    ("I*x1", "must have finite real values"),
    ("oo", "must have finite real values")])
def test_text_outside_the_grammar_is_refused(text, message):
    with pytest.raises(ValueError) as info:
        parse_expression(text, 2)
    assert message in str(info.value) and "\n" not in str(info.value)


def test_text_is_never_run(tmp_path):
    sentinel = tmp_path / "sentinel"
    text = '__import__("pathlib").Path(%r).touch() or x1' % str(sentinel)
    with pytest.raises(ValueError, match="Or .* is not allowed"):
        text_function(text, 2)
    assert not sentinel.exists()
