"""Independent reference algebra for the benchmark's correctness checks.

Everything here is plain ``fractions.Fraction`` arithmetic and imports
nothing from ``gradedbundles``: the checks compare the engine's outputs
against these computations, never against the engine itself.

* :class:`Poly` -- commutative polynomials over Q in named even variables;
* :class:`Series` -- power series in one variable t, truncated at a degree;
* :class:`Dual` -- first-order dual numbers a + b*eps;
* structure constants of gl(2), basis changes and the Jacobi identity;
* spec-file rendering of polynomials and a reader for the engine's
  rendered polynomials (``gradedbundles.superalg.render`` output).
"""

from __future__ import annotations

import re
from fractions import Fraction


# ------------------------------------------------------------- polynomials
class Poly:
    """Sum of monomials; a monomial is a sorted tuple of (name, exponent)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: Fraction(c) for m, c in (terms or {}).items() if c}

    @staticmethod
    def var(name):
        return Poly({((name, 1),): 1})

    @staticmethod
    def const(c):
        return Poly({(): c})

    def __add__(self, other):
        other = _as_poly(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _merge(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == _as_poly(other).terms

    def diff(self, name):
        out = {}
        for m, c in self.terms.items():
            for i, (v, e) in enumerate(m):
                if v == name:
                    rest = m[:i] + (((v, e - 1),) if e > 1 else ()) + m[i + 1:]
                    out[rest] = out.get(rest, 0) + c * e
        return Poly(out)

    def evaluate(self, values, one):
        """Substitute ring elements for the variables.

        ``values`` maps each variable name to an element of any ring whose
        elements support ``+`` and ``*`` with each other and ``*`` by a
        Fraction; ``one`` is that ring's unit.  The ring may be Fractions,
        Series, Duals, Polys or the engine's own polynomials.
        """
        acc = one * 0
        for m, c in sorted(self.terms.items()):
            term = one * c
            for v, e in m:
                for _ in range(e):
                    term = term * values[v]
            acc = acc + term
        return acc


def _as_poly(x):
    return x if isinstance(x, Poly) else Poly.const(x)


def _merge(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


# ------------------------------------------------------------------ series
class Series:
    """Power series c_0 + c_1 t + ... truncated above degree ``order``."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = list(coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series([self.c[0] + other] + self.c[1:])
        return Series([a + b for a, b in zip(self.c, other.c)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series([a * other for a in self.c])
        n = len(self.c)
        return Series([
            sum((self.c[i] * other.c[r - i] for i in range(r + 1)), Fraction(0))
            for r in range(n)
        ])


def series_one(order):
    return Series([Fraction(1)] + [Fraction(0)] * order)


# ------------------------------------------------------------ dual numbers
class Dual:
    """a + b*eps with eps^2 = 0: evaluating f at (x + v*eps) gives
    f(x) + (v . grad f)(x) eps."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=Fraction(0)):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return Dual(self.a + other, self.b)
        return Dual(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Dual(self.a * other, self.b * other)
        return Dual(self.a * other.a, self.a * other.b + self.b * other.a)


def engine_poly_value(p, point, one):
    """Value of an engine polynomial at a point given by variable name.

    Reads only the documented ``terms`` mapping (monomial -> coefficient,
    a monomial being ((Variable, exponent), ...)); no engine code runs.
    """
    acc = one * 0
    for m, c in p.terms.items():
        term = one * c
        for v, e in m:
            for _ in range(e):
                term = term * point[v.name]
        acc = acc + term
    return acc


# -------------------------------------------------------- structure data
def gl2_constants():
    """c^m_{ab} of gl(2) in the basis E11, E12, E21, E22 (1-based)."""
    idx = [(1, 1), (1, 2), (2, 1), (2, 2)]
    c = {}
    for a, (i, j) in enumerate(idx):
        for b, (k, l) in enumerate(idx):
            vec = [0, 0, 0, 0]
            if j == k:
                vec[idx.index((i, l))] += 1
            if l == i:
                vec[idx.index((k, j))] -= 1
            for m, v in enumerate(vec):
                if v:
                    c[(a + 1, b + 1, m + 1)] = Fraction(v)
    return c


def inverse_matrix(M):
    """Exact inverse by Gauss-Jordan elimination, or None if singular."""
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        p = A[col][col]
        A[col] = [x / p for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def change_basis(c, dim, B, Binv):
    """Constants in the basis f_i = sum_a B[a][i] e_a, full antisymmetric."""
    out = {}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                s = Fraction(0)
                for (a, b, m), v in c.items():
                    s += B[a - 1][i] * B[b - 1][j] * v * Binv[k][m - 1]
                if s:
                    out[(i + 1, j + 1, k + 1)] = s
    return out


def antisymmetric_closure(upper):
    """Full c^k_{ij} from entries with i < j."""
    full = {}
    for (i, j, k), v in upper.items():
        full[(i, j, k)] = Fraction(v)
        full[(j, i, k)] = -Fraction(v)
    return full


def satisfies_jacobi(c, dim):
    """Jacobi identity of full antisymmetric constants, in plain Fractions."""
    val = lambda i, j, k: c.get((i, j, k), Fraction(0))
    r = range(1, dim + 1)
    for i in r:
        for j in r:
            for k in r:
                for l in r:
                    s = sum(
                        (val(i, j, m) * val(m, k, l) + val(j, k, m) * val(m, i, l)
                         + val(k, i, m) * val(m, j, l) for m in r),
                        Fraction(0),
                    )
                    if s:
                        return False
    return True


# ------------------------------------------------------------ spec text
def rational_text(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def spec_expression(p):
    """A polynomial in spec-file expression syntax."""
    if not p.terms:
        return "0"
    parts = []
    for m, c in sorted(p.terms.items()):
        factors = [v if e == 1 else f"{v}^{e}" for v, e in m]
        body = "*".join([rational_text(abs(c))] + factors)
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


_SPLIT_RE = re.compile(r" ([+-]) ")


def read_rendered(text):
    """Read back a polynomial printed by the engine's ``render``."""
    text = text.strip()
    if text == "0":
        return Poly()
    sign = Fraction(1)
    if text.startswith("-"):
        sign, text = Fraction(-1), text[1:]
    pieces = _SPLIT_RE.split(text)
    signs = [sign] + [Fraction(1 if s == "+" else -1) for s in pieces[1::2]]
    out = Poly()
    for s, term in zip(signs, pieces[0::2]):
        coeff = s
        mono = Poly.const(1)
        for factor in term.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                for _ in range(int(exp or 1)):
                    mono = mono * Poly.var(name)
        out = out + mono * coeff
    return out
