"""Closed-form space-time functions with exact derivatives.

Everything that feeds a norm estimate or a residual check (manufactured
solutions, supersolutions, barriers, test bumps) is represented
symbolically so first and second derivatives are exact rather than
re-differenced.

derivative differentiates by rule, one symbol at a time: a term free of
the symbol gives 0, a sum goes term by term and a product by the product
rule over only the factors that hold the symbol, so the one-coordinate
factors of a product bump are never differentiated along another axis.
Evaluation is vectorized through lambdified numpy closures, built lazily;
cached_lambdify compiles each (symbols, expression) pair once per
process, so the same manufactured data rebuilt by several experiments
share their code.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

_TIME = sp.Symbol("t", real=True)


def space_symbols(d):
    return sp.symbols("x1:%d" % (d + 1), real=True)


_PARSE_FUNCS = {
    "sin": sp.sin, "cos": sp.cos, "tan": sp.tan, "exp": sp.exp,
    "sqrt": sp.sqrt, "log": sp.log, "pi": sp.pi, "E": sp.E,
    "sinh": sp.sinh, "cosh": sp.cosh, "tanh": sp.tanh,
    "Min": sp.Min, "Max": sp.Max,
}


def parse_expression(text, d):
    """Parse a coefficient or data expression in variables t, x1..xd.

    Only elementary functions are allowed; unknown names are an error so
    a typo in a config cannot silently evaluate to zero; so are I, zoo,
    oo and nan, which numpy would drop or carry into the solve.
    """
    syms = space_symbols(d)
    local = dict(_PARSE_FUNCS)
    local["t"] = _TIME
    for s in syms:
        local[str(s)] = s
    try:
        expr = sp.parse_expr(text, local_dict=local, evaluate=True)
    except Exception as exc:
        raise ValueError("cannot parse expression %r: %s" % (text, exc))
    allowed = set(syms) | {_TIME}
    extra = expr.free_symbols - allowed
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


class _FloatPrinter(sp.printing.numpy.NumPyPrinter):
    """numpy code printer that writes each Float as its exact double
    (the default printer rounds it to 15 significant digits), and And and
    Or as nested binary calls, as Max and Min are printed: the default
    logical_and.reduce((a, b)) stacks its operands into one array, which
    the sparse axes of a mesh, broadcasting only together, cannot be."""

    def _print_Float(self, expr):
        return repr(float(expr))

    def _binary(self, op, args):
        """op(a, op(b, c)) for args (a, b, c)."""
        first = self._print(args[0])
        if len(args) == 1:
            return first
        return "%s(%s, %s)" % (self._module_format(self._module + "." + op),
                               first, self._binary(op, args[1:]))

    def _print_And(self, expr):
        return self._binary("logical_and", expr.args)

    def _print_Or(self, expr):
        return self._binary("logical_or", expr.args)


def derivative(expr, *syms):
    """Exact derivative of expr along syms, taken in order (none: expr)."""
    for s in syms:
        expr = _derivative(expr, s)
    return expr


def _derivative(expr, s):
    if not expr.has(s):
        return sp.S.Zero
    if expr.is_Add:
        return sp.Add(*[_derivative(term, s) for term in expr.args])
    if expr.is_Mul:
        factors = expr.args
        return sp.Add(*[sp.Mul(*factors[:k], _derivative(f, s),
                               *factors[k + 1:])
                        for k, f in enumerate(factors) if f.has(s)])
    return sp.diff(expr, s)


# One compiled closure per (symbols, expr) for the life of the process.
_COMPILED = {}


def cached_lambdify(symbols, expr):
    """Vectorized closure fn(t, x) of expr in (t, x1..xd), compiled once.

    x is an array of points of shape (..., d), or a tuple of d coordinate
    arrays that broadcast together, such as the sparse axes of
    np.meshgrid.  The result is broadcast to the common shape of t and
    the coordinates and returned as a fresh float array.  An expr that is
    a number compiles no code; a compiled closure carries every float
    constant at full precision.
    """
    key = (symbols, expr)
    fn = _COMPILED.get(key)
    if fn is None:
        # docstring_limit=0: lambdify would otherwise print expr a second
        # time, for a docstring of raw that nothing reads
        raw = (lambda *args, _value=float(expr): _value) if expr.is_number \
            else sp.lambdify(symbols, expr, modules="numpy",
                             docstring_limit=0, printer=_FloatPrinter(
                                 {"fully_qualified_modules": False}))
        d = len(symbols) - 1

        def fn(t, x, _raw=raw):
            t = np.asarray(t, dtype=float)
            if isinstance(x, tuple):
                coords = [np.asarray(c, dtype=float) for c in x]
            else:
                x = np.asarray(x, dtype=float)
                coords = [x[..., i] for i in range(d)]
            out = _raw(t, *coords)
            shape = np.broadcast_shapes(t.shape, *(c.shape for c in coords))
            return np.broadcast_to(np.asarray(out, dtype=float),
                                   shape).copy()

        _COMPILED[key] = fn
    return fn


class AnalyticFunction:
    """Scalar function of (t, x1..xd) with exact derivative closures."""

    def __init__(self, d, expr):
        self.d = d
        self.symbols = (_TIME,) + tuple(space_symbols(d))
        self.expr = sp.sympify(expr)
        extra = self.expr.free_symbols - set(self.symbols)
        if extra:
            raise ValueError("expression has stray symbols %s"
                             % sorted(map(str, extra)))
        self._cache = {}

    @classmethod
    def from_text(cls, text, d):
        return cls(d, parse_expression(text, d))

    def _closure(self, key, *syms):
        """Closure of the derivative of expr along syms (none: expr).

        The object keeps its closures by key, so a derivative taken once
        costs no further symbolic differentiation.
        """
        fn = self._cache.get(key)
        if fn is None:
            fn = self._cache[key] = cached_lambdify(
                self.symbols, derivative(self.expr, *syms))
        return fn

    def value(self, t, x):
        """Evaluate at t (broadcastable) and x: points of shape (..., d),
        or a tuple of d coordinate arrays that broadcast together."""
        return self._closure("v")(t, x)

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
        return self._closure("t", _TIME)(t, x)

    def dx(self, i, t, x):
        return self._closure(("x", i), self.symbols[1 + i])(t, x)

    def dxx(self, i, j, t, x):
        i, j = min(i, j), max(i, j)
        return self._closure(("xx", i, j), self.symbols[1 + i],
                             self.symbols[1 + j])(t, x)

    def grid_callable(self):
        """The value as fn(t, x1, ..., xd) of broadcastable arrays."""

        def fn(t, *mesh):
            return self.value(t, mesh)

        return fn

    def __mul__(self, factor):
        return AnalyticFunction(self.d, self.expr * sp.sympify(factor))

    __rmul__ = __mul__

    def affine_pullback(self, A):
        """Return v(t, z) = self(t, A z) with exact derivatives."""
        A = np.asarray(A, dtype=float)
        if A.shape != (self.d, self.d):
            raise ValueError("matrix shape mismatch")
        zs = space_symbols(self.d)
        subs = {}
        for i, xs in enumerate(self.symbols[1:]):
            subs[xs] = sum(sp.Float(A[i, k]) * zs[k] for k in range(self.d))
        return AnalyticFunction(self.d, self.expr.subs(subs, simultaneous=True))


def bump(d, center, radius, powers=4):
    """Smooth compactly supported product bump.

    One factor (1 - s^2)^powers per coordinate, s the scaled offset from
    the center; support is the closed box of half-width radius.  With
    powers = 4 the function is C^3, enough for every norm of order 2+a.
    """
    center = np.asarray(center, dtype=float)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (d,))
    syms = space_symbols(d)
    expr = sp.Integer(1)
    for i in range(d):
        s = (syms[i] - sp.Float(center[i])) / sp.Float(radius[i])
        expr *= sp.Piecewise(((1 - s ** 2) ** powers, abs(s) < 1),
                             (0, True))
    return AnalyticFunction(d, expr)
