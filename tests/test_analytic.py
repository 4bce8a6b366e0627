"""The built-in functions and text against a sympy oracle.

Each built-in function is written out here in sympy.  Its value and its
first and second derivatives must agree with lambdified sp.diff of that
expression within 1e-12 of the oracle's largest magnitude, at random
points and at points within 1e-6 of each bump's support edge, inside and
outside.  f = L u is compared by value.  Text must agree with the same
text parsed by sympy's own parse_expr: a polynomial within 1e-13 of the
oracle's largest magnitude, and any other text within 1e-13 relative to
max(|oracle|, 1) at each point, away from kinks and singular points.
Either is one tree factor.  Text outside the grammar is
refused without being run.
"""

import ast

import numpy as np
import pytest
import sympy as sp

from conftest import symbols
from degenpde.analytic import _subtrees, bump, text_function
from degenpde.fields import constant_field, from_expressions, heston
from degenpde.reduction import build_reduction_plan
from degenpde.solver import manufactured_solution, operator_apply
from degenpde.verification import Barrier, default_interpolation_functions

T, *X = symbols(2)
X = tuple(X)
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
    # a kink's second derivative is a delta, 0 away from the kink
    exprs = [e.replace(sp.DiracDelta, lambda *args: 0) for e in exprs]
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


def assert_near(got, want, rtol=1e-13):
    """got within rtol of want relative to max(|want|, 1) at each point."""
    for k, (g, w) in enumerate(zip(got, want)):
        error = np.max(np.abs(g - w) / np.maximum(np.abs(w), 1.0))
        assert error <= rtol, (ORDERS[k], error)


def inner_points(seed, n=200):
    """(t, x): n random points of (0.05, 1) x (0.05, 2.5)^2, where every
    text below is defined and away from its kinks and singular points."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 1.0, n), rng.uniform(0.05, 2.5, (n, 2))


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
    """text through sympy's own parser, the reference for text_function
    (and sympy's namespace for every name but t, x1 and x2)."""
    return sp.parse_expr(text, local_dict={"t": T, "x1": X[0], "x2": X[1]})


@pytest.mark.parametrize("text", [
    "2*(0.25*(1 + t) - x2)", "(x1 - 2*t)**3/4", "-x2", "1e-3*t*x2**2",
    "x1*x2 - x2*x1", "0.05 - x2/2", "+x1*(x2 + 1)**2 - 7/3", "t - t + 4",
    "(1 + t)**0 * x1**8 / 0.5", "x2**2*x1 - 2*x1*x2**2"])
def test_polynomial_text_matches_sympy(text):
    # exactly one factor, which holds and depends on each variable that
    # it names: t - t + 4 names t, though sympy folds it to 4
    u, ref = text_function(text, 2), sympy_parse(text)
    names = {n.id for n in ast.walk(ast.parse(text)) if type(n) is ast.Name}
    named = [s in names for s in ("t", "x1", "x2")]
    assert [len(fs) for _, fs in u.terms] == [1]
    assert u.terms[0][1][0][1] == {k for k in range(3) if named[k]}
    assert [u.depends(k) for k in range(3)] == named
    t, x = points(11)
    assert_agree(derivatives(u, t, x), oracle(ref, t, x), rtol=1e-13)


@pytest.mark.parametrize("text", [
    "x3", "1/0", "x1/x2", "Max(x1, 0)", "sqrt(x1)",
    "Piecewise((1, x1 < 0), (0, True))", "x1^2", "x1**9", "(x1*x2)**5",
    "x1**2.0", "x1**-1", "pi*x1", "exp(-t)*x2", "x1 +", "1e400"])
def test_other_text_takes_the_sympy_path(text):
    # the values and derivatives of sympy's parse, or a one-line error;
    # sympy reads 1e400 as a Float, which is beyond a double
    errors = {"x3": "uses unknown symbols ['x3']",
              "1/0": "must have finite real values",
              "x1^2": "BitXor 'x1^2' is not allowed",
              "x1 +": "cannot parse expression 'x1 +': invalid syntax",
              "1e400": "must have finite real values"}
    if text in errors:
        with pytest.raises(ValueError) as info:
            text_function(text, 2)
        assert errors[text] in str(info.value)
        assert "\n" not in str(info.value)
    else:
        t, x = inner_points(12)
        assert_near(derivatives(text_function(text, 2), t, x),
                    oracle(sympy_parse(text), t, x))


# Text in every part of the grammar
GRAMMAR_TEXTS = [
    "sqrt(x1)*exp(-t) + log(1 + x2) - log(x1, 2)", "pi*x1 + E**t",
    "sin(x1) + cos(x2) + tan(x1/4)", "asin(x2/4) + acos(x2/4) + atan(x1)",
    "tanh(x1)*cosh(t)/sinh(1 + x2)", "Abs(x1) + Min(x1, x2, 1) - Max(0, t)",
    "Piecewise((1, (x1 < 0.2) & (x2 <= 1)), (0, (t > 0.3) | (x1 >= 1)), "
    "(2, True))", "-x1**2 + +2.5e-3*x1 - 7/3", "0.1000000000000000000001",
    "1e400", "x1**2.0 + x2**-1 + 2**0.5"]


@pytest.mark.parametrize("text", GRAMMAR_TEXTS)
def test_parse_builds_what_sympy_parses(text):
    if text == "1e400":  # a Float to sympy, beyond a double here
        with pytest.raises(ValueError, match="must have finite real values"):
            text_function(text, 2)
        return
    t, x = inner_points(13)
    assert_near(derivatives(text_function(text, 2), t, x),
                oracle(sympy_parse(text), t, x))


def test_text_needs_no_sympy(monkeypatch):
    # text of every kind is built, evaluated and differentiated in numpy:
    # sympy's lambdify and diff are never called
    def refuse(*args, **kwargs):
        raise AssertionError("sympy was called")

    monkeypatch.setattr(sp, "lambdify", refuse)
    monkeypatch.setattr(sp, "diff", refuse)
    t, x = inner_points(14)
    for text in [s for s in GRAMMAR_TEXTS if s != "1e400"] + [
            "2*(0.25*(1 + t) - x2)", "x1**x2/(1 + t)", "Max(1 - exp(x1), 0)",
            "Abs(x1 - 1)**3*Min(x2, t)"]:
        for values in derivatives(text_function(text, 2), t, x):
            assert values.shape == t.shape and np.all(np.isfinite(values))


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
    ("oo", "must have finite real values"),
    # the first part that is not finite is named
    ("oo*x1", "expression 'oo*x1' must have finite real values; 'oo' is "
     "not finite"),
    ("1/0", "expression '1/0' must have finite real values; '1/0' is not "
     "finite"),
    ("x1/0", "expression 'x1/0' must have finite real values; 'x1/0' is "
     "not finite"),
    ("log(0) + x1", "expression 'log(0) + x1' must have finite real "
     "values; 'log(0)' is not finite"),
    ("x2*sqrt(-1)", "expression 'x2*sqrt(-1)' must have finite real "
     "values; 'sqrt(-1)' is not finite"),
    ("1e400 - 1/0", "expression '1e400 - 1/0' must have finite real "
     "values; '1e400' is not finite")])
def test_text_outside_the_grammar_is_refused(text, message):
    with pytest.raises(ValueError) as info:
        text_function(text, 2)
    assert message in str(info.value) and "\n" not in str(info.value)


# Text whose variables change, away from its kinks at the inner points
# and at their images under CHANGE: the heston-timedep drift, a product of
# functions, and a Piecewise in t and x
CHANGE = np.array([[0.75, 0.25], [0.5, 1.0]])


@pytest.mark.parametrize("text", [
    "sqrt(1 + x2)*sin(x1 - t)", "2*(0.25*(1 + t) - x2)",
    "Piecewise((exp(-t)*x1**2, x1 < 1), (cos(x2) + t, True))"])
def test_text_changes_variables(text):
    # at_time and affine_pullback put trees in place of the variables;
    # the value and every first and second derivative match sympy's subs
    u, ref = text_function(text, 2), sympy_parse(text)
    t, x = inner_points(15)
    frozen = u.at_time(0.3)
    assert not frozen.depends(0)
    assert_near(derivatives(frozen, t, x), oracle(ref.subs(T, 0.3), t, x))
    pulled = ref.subs({X[i]: sum(float(CHANGE[i, k]) * X[k] for k in range(2))
                       for i in range(2)}, simultaneous=True)
    assert_near(derivatives(u.affine_pullback(CHANGE), t, x),
                oracle(pulled, t, x))


def test_change_of_variables_keeps_shared_subtrees():
    # the bump's s^2 is in its value and in its condition: a subtree
    # that occurs twice stays one object, so it is evaluated once
    def nodes(u):
        found = [n for _, fs in u.terms for tree, _ in fs
                 for n in _subtrees(tree)
                 if isinstance(n, tuple) and n[0] != "x"]
        return len({id(n) for n in found}), len(set(found))

    u = bump(2, [0.1, 0.5], [0.4, 0.6])
    for v in (u, u.at_time(0.0), u.affine_pullback(CHANGE)):
        assert nodes(v)[0] == nodes(v)[1]


def test_text_is_never_run(tmp_path):
    sentinel = tmp_path / "sentinel"
    text = '__import__("pathlib").Path(%r).touch() or x1' % str(sentinel)
    with pytest.raises(ValueError, match="Or .* is not allowed"):
        text_function(text, 2)
    assert not sentinel.exists()
