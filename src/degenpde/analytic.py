"""Closed-form space-time functions with exact derivatives.

Everything that feeds a norm estimate or a residual check (manufactured
solutions, supersolutions, barriers, test bumps, random data, the
coefficients of a field) is an AnalyticFunction: a sum of terms, each a
number times a product of factors.  A factor is a profile g, or one of
its derivatives, of one affine form s = offset + w . (t, x1..xd): the
bump (1 - s^2)^p on |s| < 1, exp, cos, the Gaussian exp(-s^2) or a power
s^n (n = 1 is an affine factor).  Its derivatives along t and x_i are
w_k g'(s) and w_k w_l g''(s), so by the product and chain rules every
first and second derivative of a function is a function of the same kind
(derivative), evaluated exactly in numpy; a factor whose weight along a
variable is 0 is never differentiated along it.  The one-coordinate
factors of a product stay on their own sparse axes until they are
multiplied, and terms with the same factors in t alone are summed before
those factors spread them over the times.  A pullback x = A z changes
only the weights.

Text (data strings and the expressions preset) becomes a function in
text_function.  Its Python syntax tree is walked once, never run, into a
hashable tuple tree of a fixed grammar with its constants folded
(_parse).  A tree that is a polynomial in t, x1..xd, such as the Heston
drift 2*(0.25*(1 + t) - x2), becomes power factors x_k^n of the
coordinates (_fold).  Any other tree (sqrt, Max, x1/x2, ...) is a factor
of its own, its sums and products in one order (_canonical), which
numpy's ufuncs evaluate on the same sparse axes and which is
differentiated by rules (_diff).
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


_ZERO, _ONE, _MINUS, _TWO = map(Fraction, (0, 1, -1, 2))
_MAX_DEGREE = 8  # of a power in a polynomial; a larger one stays a tree
# A tree is a number (exact, a Fraction, or a float), True or False, or
# (head, *children): ("x", k) is variable k (0 = t, i = x_i),
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
    outside a function's domain), and 0, _ONE, True and False folded."""
    a, b = args[0], args[-1]
    if head in ("&", "|"):
        for x, y in ((a, b), (b, a)):
            if isinstance(x, bool):
                return x if x == (head == "|") else y
    elif all(map(_number, args)) and head in _OPS:
        if head == "**" and isinstance(b, Fraction) and b.denominator == 1 \
                and 0 <= b <= _MAX_DEGREE:
            return math.prod([a] * int(b), start=_ONE)  # as _fold does
        try:
            return _OPS[head][1](*args)
        except (ArithmeticError, ValueError):
            return math.nan
    elif head == "+" and 0 in args:
        return b if a == 0 else a
    elif head in ("*", "/") and a == 0 or head == "*" and b == 0:
        return _ZERO
    elif head == "*" and (a is _ONE or b is _ONE):
        return b if a is _ONE else a
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
    """(tree, its polynomial's sorted terms or None) of text in t, x1..xd,
    from its Python syntax tree, never run: t, x1..xd, pi, E, the
    functions of _OPS, Piecewise and _OPERATORS.  Anything else is an
    error that names it; so, after the walk, is text that is not
    number-valued (x1 > 0), uses unknown names, or is not finite (I, 1/0,
    1e400, x1/(t - t))."""
    names = {"t": ("x", 0), "pi": math.pi, "E": math.e,
             **{"x%d" % i: ("x", i) for i in range(1, d + 1)}}
    refused = {"symbols": set(), "functions": set(), "finite": set()}

    def finite(v):  # compared exactly, so a huge Fraction is no error
        return not _number(v) or not isinstance(v, complex) and v == v \
            and abs(v) <= sys.float_info.max

    def walk(node, condition=False):  # a condition, or a number if False
        out = build(node)
        if condition is not None and _is_condition(out) != condition:
            raise ValueError("%r is not %s" % (
                ast.get_source_segment(text, node),
                "a condition" if condition else "number-valued"))
        if not finite(out):
            refused["finite"].add(node)
        return out if finite(out) else _UNDEFINED

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
            if head in ("/", "**") and _fold(args[head == "/"], d + 1) == {} \
                    and (head == "/" or _number(args[1]) and args[1] < 0):
                return math.nan  # a division by a zero polynomial
            return args[0] if len(args) == 1 else _op(head, *args)
        if isinstance(node, ast.Constant) and type(node.value) in (
                bool, int, float):
            return Fraction(node.value) if type(node.value) is int \
                else node.value
        if isinstance(node, ast.Name):
            if node.id not in names:
                refused["finite" if node.id in ("I", "oo", "zoo", "nan")
                        else "symbols"].add(node.id)
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
                refused["functions"].add(name)
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
                             % (text, key, sorted(refused[key])))
    poly = _fold(tree, d + 1)
    if refused["finite"] or not all(map(finite, (poly or {}).values())):
        raise ValueError("expression %r must have finite real values; it "
                         "contains I, zoo, oo or nan" % (text,))
    if poly is None:
        return _canonical(tree), None
    return tree, tuple(sorted(poly.items()))


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


def _multiply(p, q):
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(p.items(), q.items()):
        e = tuple(i + j for i, j in zip(e1, e2))
        out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _fold(node, n):
    """The polynomial {exponents of n variables: nonzero coefficient} of a
    tree of +, *, / by a number and ** up to degree _MAX_DEGREE, or None."""
    one = (0,) * n
    if _number(node):
        return {one: node} if node else {}
    if node[0] == "x":
        return {tuple(int(j == node[1]) for j in range(n)): _ONE}
    p, q = [_fold(c, n) for c in node[1:]] \
        if node[0] in ("+", "*", "/", "**") else (None, None)
    if p is None or q is None or node[0] == "/" and list(q) != [one]:
        return None
    if node[0] == "/":
        return {e: c / q[one] for e, c in p.items()}
    if node[0] == "*":
        return _multiply(p, q)
    if node[0] == "+":
        return {e: c for e in {**p, **q} if (c := p.get(e, 0) + q.get(e, 0))}
    e = node[2]
    if isinstance(e, Fraction) and e.denominator == 1 \
            and 0 <= e * max([sum(k) for k in p] + [1]) <= _MAX_DEGREE:
        return functools.reduce(_multiply, [p] * int(e), {one: _ONE})


def _subtrees(node):
    children = node[1:] if isinstance(node, tuple) and node[0] != "x" else ()
    return [node] + [s for c in children for s in _subtrees(c)]


def _substitute(node, a):
    """The tree with a in place of x1."""
    if not isinstance(node, tuple) or node[0] == "x":
        return a if node == ("x", 1) else node
    return _op(node[0], *(_substitute(c, a) for c in node[1:]))


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
        return _op("*", _substitute(_parse(_DERIVATIVES[head], 1)[0],
                                    args[0]), _diff(args[0], k))
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
    """A tree at args (t, x1..xd), each subtree evaluated once in memo."""
    if not isinstance(node, tuple):
        return node if isinstance(node, bool) else float(node)
    if node not in memo:
        values = [_tree_value(c, args, memo) for c in node[1:]]
        if node[0] == "x":
            memo[node] = args[node[1]]
        elif node[0] == "Piecewise":  # the first branch that holds
            memo[node] = functools.reduce(
                lambda out, i: np.where(values[i + 1], values[i], out),
                range(len(values) - 2, -1, -2), np.nan)
        else:
            memo[node] = _OPS[node[0]][0](*values)
    return memo[node]


def _tree_factor(d, tree):
    """The factor ("tree", tree, mask of the variables it holds, 0, 0)."""
    held = set(_subtrees(tree))
    return ("tree", tree, tuple(float(("x", k) in held)
                                for k in range(d + 1)), 0.0, 0)


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


def _bump(s, p, order):
    inside, q = np.abs(s) < 1, 1 - s * s
    if order == 0:
        v = q ** p
    elif order == 1:
        v = -2 * p * s * q ** (p - 1)
    elif order == 2:
        v = -2 * p * q ** (p - 1) + 4 * p * (p - 1) * s * s * q ** (p - 2)
    else:
        raise ValueError("the bump has built-in derivatives up to order 2")
    return np.where(inside, v, 0.0)


def _power(s, n, order):
    k = math.prod(n - m for m in range(order))  # falling factorial
    return k * s ** (n - order) if k else 0.0


def _gauss(s, _, order):
    if order > 2:
        raise ValueError("the Gaussian has built-in derivatives up to "
                         "order 2")
    e = np.exp(-(s * s))
    return e if order == 0 else (-2 * s if order == 1 else 4 * s * s - 2) * e


# g^(order)(s) of each profile, with its parameter (the bump's and the
# power's exponent).
_PROFILES = {
    "bump": _bump,
    "power": _power,
    "gauss": _gauss,
    "exp": lambda s, _, order: np.exp(s),
    "cos": lambda s, _, order: (np.cos, lambda v: -np.sin(v),
                                lambda v: -np.cos(v), np.sin)[order % 4](s),
}


class AnalyticFunction:
    """Scalar function of (t, x1..xd) with exact derivatives.

    terms is a sequence of (coefficient, factors); a factor is a tuple
    (profile, parameter, weights, offset, order), the order-th
    derivative of the profile at offset + weights . (t, x1..xd), or a
    tree factor of text (_tree_factor).  No terms is the zero function.
    """

    def __init__(self, d, terms=()):
        self.d = d
        self.terms = tuple((float(c), tuple(fs)) for c, fs in terms)
        self._derivatives = {}  # sorted axes -> derivative
        self._groups = None  # see _by_clock

    def depends(self, k):
        """Whether some factor varies along variable k (0 = t, i = x_i)."""
        return any(f[2][k] for _, fs in self.terms for f in fs)

    def holds(self, *functions):
        """Whether a tree factor holds one of functions, such as "Abs"."""
        return any(isinstance(n, tuple) and n[0] in functions
                   for _, fs in self.terms for f in fs if f[0] == "tree"
                   for n in _subtrees(f[1]))

    def _differentiate(self, f, axes):
        """(number, factor): the derivative of factor f along the
        variables axes; a derivative that is a number has no factor."""
        kind, param, w, offset, order = f
        if kind != "tree":
            return (math.prod(w[k] for k in axes),
                    (kind, param, w, offset, order + len(axes)))
        for k in axes:
            param = _diff(param, k)
        if not isinstance(param, tuple):
            return float(param), None
        return 1.0, _tree_factor(self.d, param)

    def derivative(self, axes):
        """The derivative along axes (variable numbers, 0 = t) as a
        function, built once: by the product rule each variable of axes
        differentiates one factor of a term, skipping factors constant
        along it, and by the chain rule a built-in factor's weights
        multiply the coefficient."""
        axes = tuple(sorted(axes))
        out = self._derivatives.get(axes)
        if out is None:
            terms = []
            for coef, factors in self.terms:
                for owner in itertools.product(range(len(factors)),
                                               repeat=len(axes)):
                    parts = [tuple(k for k, o in zip(axes, owner) if o == j)
                             for j in range(len(factors))]
                    if any(not f[2][k] for f, p in zip(factors, parts)
                           for k in p):
                        continue
                    c, fs = coef, []
                    for f, p in zip(factors, parts):
                        scale, g = self._differentiate(f, p) if p else (1, f)
                        c = c * scale
                        fs += [g] if g is not None else []
                    if c:
                        terms.append((c, fs))
            out = self._derivatives[axes] = AnalyticFunction(self.d, terms)
        return out

    def raw(self, t, coords, axes=()):
        """The derivative along axes (variable numbers, 0 = t) at
        arguments that broadcast together, itself not broadcast: a
        factor holding only x_i keeps x_i's shape, a constant is a
        number.  Each factor and affine form is evaluated once."""
        args, memo = (t,) + tuple(coords), {}

        def product(coef, factors):
            for f in factors:
                if f not in memo:
                    memo[f] = self._value(f, args, memo)
                coef = coef * memo[f]
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
                clock = tuple(f for f in factors if not any(f[2][1:]))
                groups.setdefault(clock, []).append(
                    (coef, [f for f in factors if f not in clock]))
            self._groups = list(groups.items())
        return self._groups

    def _value(self, f, args, memo):
        """Factor f at args; memo keeps each affine form's values."""
        kind, param, w, offset, order = f
        if kind == "tree":
            return _tree_value(param, args, memo)
        s = memo.get((w, offset))
        if s is None:
            s = memo[w, offset] = offset + sum(wk * a for wk, a in zip(w, args)
                                               if wk)
        return _PROFILES[kind](s, param, order)

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

    def _map_factors(self, change):
        if any(f[0] == "tree" for _, fs in self.terms for f in fs):
            raise ValueError("only built-in functions change variables")
        return AnalyticFunction(self.d, [(c, [change(*f) for f in fs])
                                         for c, fs in self.terms])

    def affine_pullback(self, A):
        """Return v(t, z) = self(t, A z) with exact derivatives: the
        weights w of x become A^T w."""
        A = np.asarray(A, dtype=float)
        if A.shape != (self.d, self.d):
            raise ValueError("matrix shape mismatch")
        return self._map_factors(lambda kind, param, w, offset, order: (
            kind, param, (w[0],) + tuple(map(float, A.T @ w[1:])), offset,
            order))

    def at_time(self, t0):
        """The function x -> self(t0, x), constant in time."""
        return self._map_factors(lambda kind, param, w, offset, order: (
            kind, param, (0.0,) + w[1:], offset + w[0] * t0, order))


def constant(d, value):
    """The constant function value (no terms for 0)."""
    return AnalyticFunction(d, [(value, ())] if value else [])


def profile(kind, weights, offset=0.0, param=None):
    """One factor: profile kind ("bump", "power", "gauss", "exp", "cos")
    of offset + weights . (t, x1..xd), in len(weights) - 1 dimensions;
    param is the bump's or the power's exponent."""
    return AnalyticFunction(len(weights) - 1, [(1.0, [(
        kind, param, tuple(map(float, weights)), float(offset), 0)])])


def affine(weights, offset=0.0):
    """offset + weights . (t, x1..xd)."""
    return profile("power", weights, offset, 1)


def text_function(text, d):
    """Text in t, x1..xd as a function (_parse gives every error).  A
    polynomial becomes power factors in canonical order (by variable, like
    terms merged), so x1*x2 and x2*x1 have the same terms; other text is
    one tree factor."""
    tree, poly = _parse(text, d)
    if poly is None:
        return AnalyticFunction(d, [(1.0, [_tree_factor(d, tree)])])
    return AnalyticFunction(d, [
        (float(c), [("power", n, tuple(float(j == k) for j in range(d + 1)),
                     0.0, 0) for k, n in enumerate(e) if n])
        for e, c in poly if float(c)])


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
