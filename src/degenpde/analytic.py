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
text_function.  A polynomial in t, x1..xd, such as the Heston drift
2*(0.25*(1 + t) - x2), becomes power factors x_k^n of the coordinates,
in numpy, without sympy.  Any other text (sqrt, Max, x1/x2, ...) is
built into sympy from its syntax tree, never run, as a factor of its
own, which sympy differentiates and lambdify compiles; sympy is
imported only then.  cached_lambdify compiles each (symbols, expression)
pair once per process, so the same text rebuilt by several experiments
shares its code.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np


def space_symbols(d):
    import sympy as sp
    return sp.symbols("x1:%d" % (d + 1), real=True)


@functools.cache
def _symbols(d):
    """The sympy symbols (t, x1, ..., xd) of text in d dimensions."""
    import sympy as sp
    return (sp.Symbol("t", real=True),) + tuple(space_symbols(d))


_CONSTANTS = ("pi", "E", "I", "oo", "zoo", "nan")
_FUNCTIONS = ("sin", "cos", "tan", "asin", "acos", "atan", "sinh", "cosh",
              "tanh", "exp", "log", "sqrt", "Abs", "Min", "Max", "Piecewise")
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv,
              ast.Pow: operator.pow, ast.BitAnd: operator.and_,
              ast.BitOr: operator.or_, ast.UAdd: operator.pos,
              ast.USub: operator.neg, ast.Lt: operator.lt,
              ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge}


def _sympy_tree(node, text, names):
    """The sympy expression of a node of the ast of text, as sympy's
    parse_expr evaluates it; a number is an Integer, or a Float of its
    digits.  A name outside names (t, x1..xd, _CONSTANTS) is a Symbol and
    a call outside _FUNCTIONS an undefined Function, for parse_expression
    to report; another construct is a ValueError that names it."""
    import sympy as sp
    build = functools.partial(_sympy_tree, text=text, names=names)
    ops = getattr(node, "ops", [getattr(node, "op", None)])
    if type(ops[0]) in _OPERATORS and len(ops) == 1:  # no chained compare
        return _OPERATORS[type(ops[0])](*[
            build(c) for c in ast.iter_child_nodes(node) if c not in ops])
    if isinstance(node, ast.Constant) and type(node.value) in (bool, int):
        return sp.sympify(node.value)
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return sp.Float(ast.get_source_segment(text, node))
    if isinstance(node, ast.Name):
        return names[node.id] if node.id in names else sp.Symbol(node.id)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and not node.keywords:
        name = node.func.id
        fn = getattr(sp, name) if name in _FUNCTIONS else sp.Function(name)
        return fn(*[tuple(map(build, a.elts)) if isinstance(a, ast.Tuple)
                    and name == "Piecewise" else build(a) for a in node.args])
    if isinstance(node, ast.Call):  # with keywords, or of no name
        node = node.keywords[0] if node.keywords else node.func
    what = node if ops[0] is None or type(ops[0]) in _OPERATORS else ops[0]
    raise ValueError("%s %r is not allowed" % (
        type(what).__name__, ast.get_source_segment(text, node)))


@functools.cache
def parse_expression(text, d):
    """Parse a coefficient or data expression in variables t, x1..xd.

    The text's Python syntax tree is built into sympy (_sympy_tree), never
    run.  Unknown names are an error so a typo cannot silently evaluate
    to zero; so are I, zoo, oo and nan, which numpy would drop or carry
    into the solve, and text that is not number-valued (True, x1 > 0).
    Each (text, d) is parsed once per process.
    """
    import sympy as sp
    syms = _symbols(d)
    names = {str(s): s for s in syms} | {c: getattr(sp, c) for c in _CONSTANTS}
    try:
        expr = _sympy_tree(ast.parse(text, mode="eval").body, text, names)
    except (SyntaxError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError("cannot parse expression %r: %s" % (text, exc))
    if not isinstance(expr, sp.Expr):
        raise ValueError("expression %r is not number-valued" % (text,))
    extra = expr.free_symbols - set(syms)
    if extra:
        raise ValueError("expression %r uses unknown symbols %s"
                         % (text, sorted(map(str, extra))))
    undefined = expr.atoms(sp.core.function.AppliedUndef)
    if undefined:
        raise ValueError("expression %r uses unknown functions %s"
                         % (text, sorted({f.func.__name__
                                          for f in undefined})))
    if expr.has(sp.I, sp.zoo, sp.oo, -sp.oo, sp.nan):
        raise ValueError("expression %r must have finite real values; it "
                         "contains I, zoo, oo or nan" % (text,))
    return expr


@functools.cache
def _float_printer():
    """numpy code printer that writes each Float as its exact double
    (the default printer rounds it to 15 significant digits), and And and
    Or as nested binary calls, as Max and Min are printed: the default
    logical_and.reduce((a, b)) stacks its operands into one array, which
    the sparse axes of a mesh, broadcasting only together, cannot be."""
    from sympy.printing.numpy import NumPyPrinter

    class FloatPrinter(NumPyPrinter):
        def _print_Float(self, expr):
            return repr(float(expr))

        def _binary(self, op, args):
            """op(a, op(b, c)) for args (a, b, c)."""
            first = self._print(args[0])
            if len(args) == 1:
                return first
            return "%s(%s, %s)" % (
                self._module_format(self._module + "." + op), first,
                self._binary(op, args[1:]))

        def _print_And(self, expr):
            return self._binary("logical_and", expr.args)

        def _print_Or(self, expr):
            return self._binary("logical_or", expr.args)

    return FloatPrinter


# One compiled closure per (symbols, expr) for the life of the process.
_COMPILED = {}


def cached_lambdify(symbols, expr):
    """Vectorized closure fn(t, x1, ..., xd) of expr, compiled once.

    The arguments are arrays that broadcast together, such as the sparse
    axes of np.meshgrid; the result has the shape of the arguments that
    expr holds, and may be one of them.  An expr that is a number
    compiles no code and gives a float; a compiled closure carries every
    float constant at full precision.
    """
    key = (symbols, expr)
    fn = _COMPILED.get(key)
    if fn is None:
        if expr.is_number:
            fn = lambda *args, _value=float(expr): _value  # noqa: E731
        else:
            import sympy as sp
            # docstring_limit=0: lambdify would otherwise print expr a
            # second time, for a docstring of fn that nothing reads
            fn = sp.lambdify(symbols, expr, modules="numpy",
                             docstring_limit=0, printer=_float_printer()(
                                 {"fully_qualified_modules": False}))
        _COMPILED[key] = fn
    return fn


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


def _text_factor(d, expr):
    """The factor of a sympy expression: ("text", expr, dependence mask,
    0, 0); the mask marks (t, x1..xd) that expr holds."""
    free = expr.free_symbols
    return ("text", expr, tuple(float(s in free) for s in _symbols(d)),
            0.0, 0)


class AnalyticFunction:
    """Scalar function of (t, x1..xd) with exact derivatives.

    terms is a sequence of (coefficient, factors); a factor is a tuple
    (profile, parameter, weights, offset, order), the order-th
    derivative of the profile at offset + weights . (t, x1..xd), or a
    text factor (_text_factor).  No terms is the zero function.
    """

    def __init__(self, d, terms=()):
        self.d = d
        self.terms = tuple((float(c), tuple(fs)) for c, fs in terms)
        self._derivatives = {}  # sorted axes -> derivative
        self._groups = None  # see _by_clock

    @classmethod
    def from_text(cls, text, d):
        return text_function(text, d)

    def depends(self, k):
        """Whether some factor varies along variable k (0 = t, i = x_i)."""
        return any(f[2][k] for _, fs in self.terms for f in fs)

    def _differentiate(self, f, axes):
        """(number, factor): the derivative of factor f along the
        variables axes is the number times the factor; a text factor
        whose derivative is a number gives (that number, None)."""
        kind, param, w, offset, order = f
        if kind != "text":
            return (math.prod(w[k] for k in axes),
                    (kind, param, w, offset, order + len(axes)))
        import sympy as sp
        syms = _symbols(self.d)
        expr = sp.diff(param, *(syms[k] for k in axes))
        if expr.is_number:
            return float(expr), None
        return 1.0, _text_factor(self.d, expr)

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
        if kind == "text":
            return cached_lambdify(_symbols(self.d), param)(*args)
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
        if any(f[0] == "text" for _, fs in self.terms for f in fs):
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


def expression(d, expr):
    """A sympy expression in t, x1..xd (see _symbols) as a function; a
    number is a constant."""
    if expr.is_number:
        return constant(d, float(expr))
    return AnalyticFunction(d, [(1.0, [_text_factor(d, expr)])])


# The largest degree of a power a polynomial text may hold; a larger one
# goes to sympy, so that text_function never expands a large power.
_MAX_DEGREE = 8


def _add(p, q, sign=1):
    """p + sign q of polynomials {exponents: coefficient}."""
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _multiply(p, q):
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(p.items(), q.items()):
        e = tuple(i + j for i, j in zip(e1, e2))
        out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _polynomial(node, names):
    """The polynomial {exponents of names: coefficient} of a node of
    Python's ast, without zero coefficients; None outside the grammar of
    text_function.  An integer stays an exact Fraction until it meets a
    float, as a sympy Rational does."""
    one = (0,) * len(names)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = node.value
        return {one: Fraction(value) if type(value) is int else value} \
            if value else {}
    if isinstance(node, ast.Name) and node.id in names:
        k = names.index(node.id)
        return {tuple(int(j == k) for j in range(len(names))): Fraction(1)}
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd,
                                                          ast.USub):
        p = _polynomial(node.operand, names)
        return p if p is None or type(node.op) is ast.UAdd \
            else _add({}, p, -1)
    if not isinstance(node, ast.BinOp):
        return None
    p = _polynomial(node.left, names)
    if p is None:
        return None
    if type(node.op) is ast.Pow:
        n = getattr(node.right, "value", None)
        degree = max([sum(e) for e in p], default=0)
        if type(n) is not int or not 0 <= n * max(degree, 1) <= _MAX_DEGREE:
            return None
        out = {one: Fraction(1)}
        for _ in range(n):
            out = _multiply(out, p)
        return out
    q = _polynomial(node.right, names)
    if q is None:
        return None
    if type(node.op) in (ast.Add, ast.Sub):
        return _add(p, q, -1 if type(node.op) is ast.Sub else 1)
    if type(node.op) is ast.Mult:
        return _multiply(p, q)
    if type(node.op) is ast.Div and list(q) == [one]:
        return {e: c / q[one] for e, c in p.items()}
    return None


def text_function(text, d):
    """Text in t, x1..xd as a function.

    A polynomial -- numbers, t and x1..xd joined by unary + and -, +, -,
    *, / by a nonzero number and ** by an integer up to degree 8 --
    becomes power factors x_k^n in numpy, without sympy.  Its terms are
    in canonical order: each term's factors by variable, like terms
    merged, zero coefficients dropped.  So x1*x2 and x2*x1 have the same
    terms, and t - t is the constant 0, as under sympy.  Any other text
    goes to expression(d, parse_expression(text, d)), which gives every
    error for bad text.
    """
    names = ["t"] + ["x%d" % i for i in range(1, d + 1)]
    try:
        poly = _polynomial(ast.parse(text, mode="eval").body, names)
        terms = None if poly is None else [
            (float(c), [("power", n, tuple(float(j == k)
                                           for j in range(d + 1)), 0.0, 0)
                        for k, n in enumerate(e) if n])
            for e, c in sorted(poly.items())]
    except (SyntaxError, ValueError, OverflowError, RecursionError):
        terms = None
    if terms is None or not all(math.isfinite(c) for c, _ in terms):
        return expression(d, parse_expression(text, d))
    return AnalyticFunction(d, [(c, fs) for c, fs in terms if c])


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
