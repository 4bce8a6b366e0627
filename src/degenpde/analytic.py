"""Closed-form space-time functions with exact derivatives.

Everything that feeds a norm estimate or a residual check (manufactured
solutions, supersolutions, barriers, test bumps, random data, the
coefficients of a field) is an AnalyticFunction: a sum of terms, each a
number times a product of factors.  A factor is an expression tree in t,
x1..xd, a hashable tuple tree of one fixed grammar, with the variables
that it holds.

Text (data strings and the expressions preset) becomes a function in
text_function.  Its Python syntax tree is walked once, never run, into
such a tree with its constants folded (_parse), its sums and products in
one order (_canonical).  Every text, a polynomial such as the Heston
drift 2*(0.25*(1 + t) - x2) as much as sqrt, Max or x1/x2, is that one
tree factor, or a constant where it folds to a number.  The built-in
profiles are trees of one affine form s = offset + w . (t, x1..xd)
(profile): the bump (1 - s^2)^p on s^2 < 1, exp, cos, the Gaussian
exp(-s^2) and a power s^n (n = 1 is an affine factor).

Every tree is differentiated by rules (_diff), so by the product rule
every first and second derivative of a function is a function of the
same kind (derivative); a factor is never differentiated along a
variable that it does not hold, and it holds each variable that it
names: t - t + 4 depends on t.  numpy's ufuncs evaluate the trees, each
node once per call.  The one-coordinate factors of a product stay on
their own sparse axes until they are multiplied, and terms with the same
factors in t alone are summed before those factors spread them over the
times.  A change of variables, the pullback x = A z or a fixed time,
puts trees in place of the variables (_substitute).
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import operator
import sys
from fractions import Fraction

import numpy as np


_ZERO, _ONE, _MINUS, _TWO = 0, 1, -1, 2
# A tree is a number (exact, an int or a Fraction, or a float), True or
# False, or (head, *children): ("x", k) is variable k (0 = t, i = x_i),
# ("Piecewise", value, condition, value, condition, ...), or a head of
# _OPS, which gives (numpy's function, the function of numbers).
_OPS = {h: (getattr(operator, f),) * 2 for h, f in zip(
    ["+", "*", "/", "**", "<", "<=", ">", ">="],
    ["add", "mul", "truediv", "pow", "lt", "le", "gt", "ge"])}
_OPS.update({"&": (np.logical_and, None), "|": (np.logical_or, None),
             "Min": (np.minimum, min), "Max": (np.maximum, max)})
# The functions of one argument, each with its derivative as text in x1.
_DERIVATIVES = {
    "sin": "cos(x1)", "cos": "-sin(x1)", "tan": "1 + tan(x1)**2",
    "asin": "(1 - x1**2)**(-1/2)", "acos": "-(1 - x1**2)**(-1/2)",
    "atan": "1/(1 + x1**2)", "sinh": "cosh(x1)", "cosh": "sinh(x1)",
    "tanh": "1 - tanh(x1)**2", "exp": "exp(x1)", "log": "1/x1",
    "sqrt": "1/(2*sqrt(x1))", "Abs": "Piecewise((1, x1 >= 0), (-1, True))"}
_OPS.update({f: (getattr(np, "arc" + f[1:] if f[0] == "a" else f.lower()),
                 getattr(math, f, abs)) for f in _DERIVATIVES})
_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
              ast.Pow: "**", ast.UAdd: "+", ast.USub: "-", ast.BitAnd: "&",
              ast.BitOr: "|", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
              ast.GtE: ">="}
_UNDEFINED = ("undefined",)  # stands for what is refused after the walk


def _number(v):
    return not isinstance(v, (tuple, bool))


def _is_condition(v):
    return isinstance(v, bool) or isinstance(v, tuple) and v[0] in (
        "<", "<=", ">", ">=", "&", "|")


def _op(head, *args):
    """The tree (head, *args), with numbers folded into a number (nan
    outside a function's domain, for a complex power and for a division
    by the number 0), and 0, _ONE, a ** 1, True and False folded.  A
    product holds at most one number, as its first operand."""
    a, b = args[0], args[-1]
    if head in ("&", "|"):
        for x, y in ((a, b), (b, a)):
            if isinstance(x, bool):
                return x if x == (head == "|") else y
    elif all(map(_number, args)) and head in _OPS:
        try:
            out = _OPS[head][1](*args)
        except (ArithmeticError, ValueError):
            return math.nan
        return math.nan if isinstance(out, complex) else out
    elif head == "/" and b == 0:
        return math.nan
    elif head == "+" and 0 in args:
        return b if a == 0 else a
    elif head in ("*", "/") and a == 0 or head == "*" and b == 0:
        return _ZERO
    elif head == "*" and _number(b):
        return _op("*", b, a)
    elif head == "*" and a is _ONE:
        return b
    elif head == "*" and b[0] == "*" and _number(b[1]):
        return _op("*", _op("*", a, b[1]), b[2])
    elif head == "*" and isinstance(a, tuple) and a[0] == "*" \
            and _number(a[1]):
        return _op("*", a[1], _op("*", a[2], b))
    elif head == "**" and b == 1:
        return a
    return (head,) + args


def _piecewise(pairs):
    """Piecewise((value, condition), ...) without False branches; nan if
    none is left, and a value that the first or every branch gives."""
    pairs = [(v, c) for v, c in pairs if c is not False]
    if pairs and (pairs[0][1] is True or pairs[-1][1] is True
                  and all(v == pairs[0][0] for v, _ in pairs)):
        return pairs[0][0]
    return ("Piecewise",) + sum(pairs, ()) if pairs else math.nan


@functools.cache
def _parse(text, d):
    """The canonical tree of text in t, x1..xd, from its Python syntax
    tree, never run: t, x1..xd, pi, E, the functions of _OPS, Piecewise
    and _OPERATORS.  Anything else is an error that names it; so, after
    the walk, is text that is not number-valued (x1 > 0), uses unknown
    names, or is not finite (I, 1/0, x1/0, 1e400), which names the first
    such part.  A zero that is not a number, as in x1/(t - t), is left to
    the values."""
    names = {"t": ("x", 0), "pi": math.pi, "E": math.e,
             **{"x%d" % i: ("x", i) for i in range(1, d + 1)}}
    refused = {"symbols": [], "functions": [], "finite": []}

    def finite(v):  # compared exactly, so a huge Fraction is no error
        return not _number(v) or v == v and abs(v) <= sys.float_info.max

    def walk(node, condition=False):  # a condition, or a number if False
        out = build(node)
        if condition is not None and _is_condition(out) != condition:
            raise ValueError("%r is not %s" % (
                ast.get_source_segment(text, node),
                "a condition" if condition else "number-valued"))
        if not finite(out):
            refused["finite"].append(ast.get_source_segment(text, node))
            return _UNDEFINED
        return out

    def build(node):
        ops = getattr(node, "ops", [getattr(node, "op", None)])
        head = _OPERATORS.get(type(ops[0]))
        if head and len(ops) == 1:  # no chained comparison
            args = [walk(c, head in ("&", "|"))
                    for c in ast.iter_child_nodes(node) if c not in ops]
            if head == "**" and all(map(_number, args)) and args[0] != 0:
                # by logarithms, so that a huge integer is never built
                base = Fraction(args[0])
                scale = float(args[1]) * (math.log10(abs(base.numerator))
                                          - math.log10(base.denominator))
                if not math.log10(sys.float_info.min) < scale \
                        < math.log10(sys.float_info.max):
                    raise ValueError("power %r exceeds the range of a double"
                                     % ast.get_source_segment(text, node))
            if head == "-":  # a - b = a + (-1) b
                head, args[-1] = "+", _op("*", _MINUS, args[-1])
            return args[0] if len(args) == 1 else _op(head, *args)
        if isinstance(node, ast.Constant) and type(node.value) in (
                bool, int, float):
            return Fraction(node.value) if type(node.value) is int \
                else node.value
        if isinstance(node, ast.Name):
            if node.id not in names:
                refused["finite" if node.id in ("I", "oo", "zoo", "nan")
                        else "symbols"].append(node.id)
            return names.get(node.id, _UNDEFINED)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and not node.keywords:
            name, nodes = node.func.id, node.args
            if name == "Piecewise":  # of (value, condition) pairs
                pairs = [a.elts if isinstance(a, ast.Tuple) and len(a.elts)
                         == 2 else (a, a) for a in nodes]
                return _piecewise([(walk(v), walk(c, True)) for v, c in pairs])
            args = [walk(a) for a in nodes]
            if name not in _OPS:
                refused["functions"].append(name)
                return _UNDEFINED
            if name in ("Min", "Max") and args:  # Min(a, Min(b, c))
                return functools.reduce(lambda out, a: _op(name, a, out),
                                        args[-2::-1], args[-1])
            if len(args) == 2 and name == "log":  # log(x, base)
                return _op("/", _op("log", args[0]), _op("log", args[1]))
            if len(args) != 1:
                raise ValueError("%s does not take %d arguments"
                                 % (name, len(args)))
            return _op(name, args[0])
        if isinstance(node, ast.Call):  # with keywords, or of no name
            node = node.keywords[0] if node.keywords else node.func
        what = node if ops[0] is None or head else ops[0]
        raise ValueError("%s %r is not allowed" % (
            type(what).__name__, ast.get_source_segment(text, node)))

    try:
        tree = walk(ast.parse(text, mode="eval").body, None)
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise ValueError("cannot parse expression %r: %s" % (text, exc))
    if _is_condition(tree):
        raise ValueError("expression %r is not number-valued" % (text,))
    for key in ("symbols", "functions"):
        if refused[key]:
            raise ValueError("expression %r uses unknown %s %s"
                             % (text, key, sorted(set(refused[key]))))
    if refused["finite"]:
        raise ValueError("expression %r must have finite real values; %r is "
                         "not finite" % (text, refused["finite"][0]))
    return _canonical(tree)


def _canonical(node):
    """The tree with the operands of each chain of + or * flattened and
    sorted, numbers first and folded, so that sums and products that
    differ only in order are one tree."""
    if not isinstance(node, tuple) or node[0] == "x":
        return node
    head = node[0]
    if head not in ("+", "*"):
        return (head,) + tuple(map(_canonical, node[1:]))

    def chain(v):
        if isinstance(v, tuple) and v[0] == head:
            return [w for c in v[1:] for w in chain(c)]
        return [_canonical(v)]

    operands = sorted(chain(node), key=lambda v: (not _number(v), repr(v)))
    return functools.reduce(lambda out, v: _op(head, out, v), operands)


def _subtrees(node):
    """Every subtree of node, by a walk that visits the list it grows."""
    out = [node]
    for node in out:
        if isinstance(node, tuple) and node[0] != "x":
            out.extend(node[1:])
    return out


def _substitute(node, values, memo):
    """The tree with the tree values[k] in place of each variable k of
    values, folded.  memo is keyed by the identity of the nodes, so a
    subtree that occurs twice, as the bump's s^2, stays one object."""
    if not isinstance(node, tuple):
        return node
    if node[0] == "x":
        return values.get(node[1], node)
    out = memo.get(id(node))
    if out is None:
        args = [_substitute(c, values, memo) for c in node[1:]]
        out = memo[id(node)] = _piecewise(zip(args[::2], args[1::2])) \
            if node[0] == "Piecewise" else _op(node[0], *args)
    return out


@functools.cache
def _diff(node, k):
    """The derivative of a tree along variable k (0 = t) by the sum,
    product, quotient and chain rules; Min, Max, Abs and Piecewise branch
    by branch, so a kink has one-sided derivatives and no delta."""
    if not isinstance(node, tuple) or node[0] == "x":
        return _ONE if node == ("x", k) else _ZERO
    head, args = node[0], node[1:]
    if head == "Piecewise":
        return _piecewise([(_diff(v, k), c)
                           for v, c in zip(args[::2], args[1::2])])
    if len(args) == 1:
        return _op("*", _substitute(_parse(_DERIVATIVES[head], 1),
                                    {1: args[0]}, {}), _diff(args[0], k))
    (a, b), da, db = args, _diff(args[0], k), _diff(args[1], k)
    if head in ("Min", "Max"):
        return _piecewise([(da, ("<=" if head == "Min" else ">=", a, b)),
                           (db, True)])
    if head == "+":
        return _op("+", da, db)
    if head == "*":
        return _op("+", _op("*", da, b), _op("*", a, db))
    if head == "/":  # da / b - a db / b^2
        return _op("+", _op("/", da, b), _op("*", _MINUS, _op(
            "/", _op("*", a, db), _op("**", b, _TWO))))
    if _number(b):  # a ** b
        return _op("*", _op("*", b, _op("**", a, _op("+", b, _MINUS))), da)
    return _op("*", node, _op("+", _op("*", db, _op("log", a)),
                              _op("/", _op("*", b, da), a)))


def _tree_value(node, args, memo):
    """A tree at args (t, x1..xd), each node evaluated once: memo is
    keyed by the identity of the nodes, which all live for the call."""
    if not isinstance(node, tuple):
        return node if isinstance(node, bool) else float(node)
    if node[0] == "x":
        return args[node[1]]
    out = memo.get(id(node))
    if out is None:
        values = [c if type(c) is float else _tree_value(c, args, memo)
                  for c in node[1:]]
        if node[0] == "Piecewise":  # the first branch that holds
            out = functools.reduce(
                lambda out, i: np.where(values[i + 1], values[i], out),
                range(len(values) - 2, -1, -2), np.nan)
        else:
            out = _OPS[node[0]][0](*values)
        memo[id(node)] = out
    return out


def _term(coef, trees):
    """(coefficient, factors) of coef times the product of trees: a tree
    that is a number, or a product's number, multiplies the coefficient,
    and the rest is the factor (tree, the variables that it holds), found
    by a walk."""
    factors = []
    for tree in trees:
        if isinstance(tree, tuple) and tree[0] == "*" and _number(tree[1]):
            coef, tree = coef * float(tree[1]), tree[2]
        if _number(tree):
            coef *= float(tree)
        else:
            factors.append((tree, frozenset(
                n[1] for n in _subtrees(tree)
                if isinstance(n, tuple) and n[0] == "x")))
    return coef, factors


def _affine_form(weights, offset):
    """The tree of offset + weights . (t, x1..xd), summed as
    offset + (w0 t + w1 x1 + ...) without the zero weights."""
    s = 0.0
    for k, w in enumerate(map(float, weights)):
        if w:
            s = _op("+", s, _op("*", w, ("x", k)))
    return _op("+", float(offset), s)


def _arguments(t, x):
    """(t, coordinate arrays, broadcast shape) of points x: an array of
    shape (..., d) or a tuple of d arrays that broadcast together."""
    t = np.asarray(t, dtype=float)
    if isinstance(x, tuple):
        coords = [np.asarray(c, dtype=float) for c in x]
    else:
        x = np.asarray(x, dtype=float)
        coords = [x[..., i] for i in range(x.shape[-1])]
    return t, coords, np.broadcast_shapes(t.shape, *(c.shape for c in coords))


class AnalyticFunction:
    """Scalar function of (t, x1..xd) with exact derivatives.

    terms is a sequence of (coefficient, factors); a factor is a pair
    (tree, held): an expression tree in t, x1..xd and the frozenset of
    the variables that it holds (_term), 0 = t.  Terms whose coefficient
    is 0 are dropped; no terms is the zero function.
    """

    def __init__(self, d, terms=()):
        self.d = d
        self.terms = tuple((float(c), tuple(fs)) for c, fs in terms if c)
        self._derivatives = {}  # sorted axes -> derivative
        self._groups = None  # see _by_clock

    def depends(self, k):
        """Whether some factor varies along variable k (0 = t, i = x_i):
        it does where it names the variable."""
        return any(k in f[1] for _, fs in self.terms for f in fs)

    def holds(self, *functions):
        """Whether a factor holds one of functions, such as "Abs"."""
        return any(isinstance(n, tuple) and n[0] in functions
                   for _, fs in self.terms for f in fs
                   for n in _subtrees(f[0]))

    def derivative(self, axes):
        """The derivative along axes (variable numbers, 0 = t) as a
        function, built once: by the product rule each variable of axes
        differentiates one factor of a term (_diff), skipping factors
        that do not hold it; a derivative that is a number multiplies the
        coefficient."""
        axes = tuple(sorted(axes))
        out = self._derivatives.get(axes)
        if out is None:
            terms = []
            for coef, factors in self.terms:
                for owner in itertools.product(range(len(factors)),
                                               repeat=len(axes)):
                    parts = [tuple(k for k, o in zip(axes, owner) if o == j)
                             for j in range(len(factors))]
                    if any(k not in f[1] for f, p in zip(factors, parts)
                           for k in p):
                        continue
                    c, fs = coef, []
                    for f, p in zip(factors, parts):
                        c, g = _term(c, [functools.reduce(_diff, p, f[0])]) \
                            if p else (c, [f])
                        fs += g
                    terms.append((c, fs))
            out = self._derivatives[axes] = AnalyticFunction(self.d, terms)
        return out

    def raw(self, t, coords, axes=()):
        """The derivative along axes (variable numbers, 0 = t) at
        arguments that broadcast together, itself not broadcast: a
        factor holding only x_i keeps x_i's shape, a constant is a
        number.  Each node of the factors is evaluated once."""
        args, memo = (t,) + tuple(coords), {}

        def product(coef, factors):
            for tree, _ in factors:
                coef = coef * _tree_value(tree, args, memo)
            return coef

        fn = self.derivative(axes) if axes else self
        return sum((product(sum(product(c, fs) for c, fs in rests), clock)
                    for clock, rests in fn._by_clock()), 0.0)

    def _by_clock(self):
        """The terms grouped by their factors in t alone, the clock:
        [(clock, [(coefficient, other factors)])].  Each group is summed
        before its clock spreads it over the times."""
        if self._groups is None:
            groups = {}
            for coef, factors in self.terms:
                clock = tuple(f for f in factors if f[1] <= {0})
                groups.setdefault(clock, []).append(
                    (coef, [f for f in factors if not f[1] <= {0}]))
            self._groups = list(groups.items())
        return self._groups

    def _evaluate(self, t, x, axes):
        t, coords, shape = _arguments(t, x)
        return np.broadcast_to(np.asarray(self.raw(t, coords, axes),
                                          dtype=float), shape).copy()

    def value(self, t, x):
        """Evaluate at t (broadcastable) and x: points of shape (..., d),
        or a tuple of d coordinate arrays that broadcast together."""
        return self._evaluate(t, x, ())

    def on_grid(self, t, grid):
        """Values at every node of grid, in grid.nodes() order: (N,) at
        one time t, (len(t), N) at a 1-d array of times, from one call on
        the sparse tensor axes with t along a leading axis."""
        t = np.asarray(t, dtype=float)
        mesh = grid.meshes(sparse=True)
        if t.ndim:
            t, mesh = t.reshape((-1,) + (1,) * grid.d), [m[None] for m in mesh]
        return self.value(t, tuple(mesh)).reshape(t.shape[:1] + (-1,))

    def dt(self, t, x):
        return self._evaluate(t, x, (0,))

    def dx(self, i, t, x):
        return self._evaluate(t, x, (1 + i,))

    def dxx(self, i, j, t, x):
        return self._evaluate(t, x, (1 + min(i, j), 1 + max(i, j)))

    def grid_callable(self):
        """The value as fn(t, x1, ..., xd) of broadcastable arrays."""

        def fn(t, *mesh):
            return self.value(t, mesh)

        return fn

    def __mul__(self, other):
        if isinstance(other, AnalyticFunction):
            return AnalyticFunction(self.d, [
                (c1 * c2, f1 + f2) for c1, f1 in self.terms
                for c2, f2 in other.terms])
        return AnalyticFunction(self.d, [(c * float(other), fs)
                                         for c, fs in self.terms])

    __rmul__ = __mul__

    def __add__(self, other):
        return AnalyticFunction(self.d, self.terms + other.terms)

    def _substituted(self, values):
        memo = {}  # one for every factor, which all live for the call
        return AnalyticFunction(self.d, [
            _term(c, [_substitute(f[0], values, memo) for f in fs])
            for c, fs in self.terms])

    def affine_pullback(self, A):
        """Return v(t, z) = self(t, A z) with exact derivatives: the tree
        of (A z)_i takes the place of x_i in every factor."""
        A = np.asarray(A, dtype=float)
        if A.shape != (self.d, self.d):
            raise ValueError("matrix shape mismatch")
        return self._substituted({1 + i: _affine_form((0.0, *row), 0.0)
                                  for i, row in enumerate(A)})

    def at_time(self, t0):
        """The function x -> self(t0, x), constant in time."""
        return self._substituted({0: float(t0)})


def constant(d, value):
    """The constant function value (no terms for 0)."""
    return AnalyticFunction(d, [(value, ())])


def profile(kind, weights, offset=0.0, param=None):
    """One factor, the tree of profile kind of s = offset + weights .
    (t, x1..xd), in len(weights) - 1 dimensions: "bump" (1 - s^2)^param
    where s^2 < 1 and 0 elsewhere, "power" s^param, "gauss" exp(-s^2),
    "exp" or "cos"."""
    s = _affine_form(weights, offset)
    square = _op("**", s, 2.0)
    trees = {
        "bump": lambda: _piecewise([(_op("**", _op("+", 1.0, _op(
            "*", -1.0, square)), float(param)), _op("<", square, 1.0)),
            (0.0, True)]),
        "power": lambda: _op("**", s, float(param)),
        "gauss": lambda: _op("exp", _op("*", -1.0, square)),
        "exp": lambda: _op("exp", s),
        "cos": lambda: _op("cos", s),
    }
    return AnalyticFunction(len(weights) - 1, [_term(1.0, [trees[kind]()])])


def affine(weights, offset=0.0):
    """offset + weights . (t, x1..xd)."""
    return profile("power", weights, offset, 1)


def text_function(text, d):
    """Text in t, x1..xd as one tree factor, or a constant where it folds
    to a number (_parse gives every error).  Its sums and products are in
    one order, so x1*x2 and x2*x1 are the same terms."""
    return AnalyticFunction(d, [_term(1.0, [_parse(text, d)])])


def axis_weights(d, k, weight):
    """Weights (t, x1..xd) of weight times variable k (0 = t)."""
    w = np.zeros(d + 1)
    w[k] = weight
    return w


def bump(d, center, radius, powers=4):
    """Smooth compactly supported product bump.

    One factor (1 - s^2)^powers per coordinate, s the scaled offset from
    the center; support is the closed box of half-width radius.  With
    powers = 4 the function is C^3, enough for every norm of order 2+a.
    """
    center = np.asarray(center, dtype=float)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (d,))
    out = constant(d, 1.0)
    for i in range(d):
        out = out * profile("bump", axis_weights(d, 1 + i, 1 / radius[i]),
                            -center[i] / radius[i], powers)
    return out
