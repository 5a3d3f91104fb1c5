# FROZEN REFERENCE IMPLEMENTATION -- DO NOT OPTIMISE, DO NOT EDIT.
#
# This is a verbatim copy of src/gradedbundles/superalg.py as it stood
# before the core was reworked for speed: plain dicts of Fraction
# coefficients, every operation built from the public constructor, and
# renaming done through substitute().  tests/test_differential.py checks
# the live core against it on random polynomials.  Its value as an oracle
# lies in being slow and obvious; a change here would let a bug in the
# live core agree with a bug in its reference.

"""Exact supercommutative polynomial algebra over the rationals.

Variables carry a multi-weight (a tuple of nonnegative integers, one entry
per independent grading) and a Grassmann parity.  Polynomials are kept in a
canonical form: the factors of every monomial are sorted by the declaration
order of the variables, reordering signs are absorbed into the rational
coefficients, and zero coefficients are never stored.  Two polynomials are
equal exactly when their term dictionaries are equal.

Conventions fixed here and relied on by every module above this one:

* coefficients are ``fractions.Fraction`` (arbitrary precision),
* odd variables square to zero and anticommute,
* ``partial`` is the *left* derivative,
* a :class:`Derivation` acts as ``D(p) = sum_v action[v] * partial(p, v)``
  and therefore satisfies the graded Leibniz rule
  ``D(pq) = D(p) q + (-1)^{|D||p|} p D(q)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

Weight = tuple[int, ...]
Scalar = Union[int, Fraction]

EVEN = 0
ODD = 1


class ParityMismatch(ValueError):
    """A substitution assigned an image of the wrong Grassmann parity."""


def weight_add(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise ValueError(f"weight arity mismatch: {a} vs {b}")
    return tuple(x + y for x, y in zip(a, b))


def weight_leq(a: Weight, b: Weight) -> bool:
    """Component-wise partial order on multi-weights."""
    if len(a) != len(b):
        raise ValueError(f"weight arity mismatch: {a} vs {b}")
    return all(x <= y for x, y in zip(a, b))


def total(w: Weight) -> int:
    return sum(w)


@dataclass(frozen=True)
class Variable:
    """A named generator with a multi-weight and a Grassmann parity.

    ``system`` tags the coordinate system the variable belongs to, so that
    equally named variables of different charts stay distinct.  ``index`` is
    the declaration position and fixes the global ordering used for the
    canonical form.
    """

    system: str
    name: str
    weight: Weight
    parity: int
    index: int

    def __post_init__(self):
        if any(w < 0 for w in self.weight):
            raise ValueError(f"negative weight on {self.name}: {self.weight}")
        if self.parity not in (EVEN, ODD):
            raise ValueError(f"parity must be 0 or 1, got {self.parity}")

    @property
    def sort_key(self):
        return (self.index, self.name, self.system)

    def __repr__(self):
        return f"Variable({self.name})"


def parity_matches_weight(v: Variable, component: int) -> bool:
    """Whether ``v.parity`` equals the given weight component mod 2.

    Some constructions tie the Grassmann parity to one designated weight
    entry; this helper asserts that convention where a caller adopts it.
    Parity is always stored explicitly, this is only a consistency check.
    """
    return v.parity == v.weight[component] % 2


# A monomial is a tuple of (variable, exponent) pairs sorted by sort_key.
Monomial = tuple[tuple[Variable, int], ...]

ONE_MONOMIAL: Monomial = ()


def monomial_weight(m: Monomial, arity: int | None = None) -> Weight:
    if not m:
        return (0,) * (arity or 0)
    w = tuple(0 for _ in m[0][0].weight)
    for v, e in m:
        w = weight_add(w, tuple(e * c for c in v.weight))
    return w


def monomial_parity(m: Monomial) -> int:
    return sum(v.parity * e for v, e in m) % 2


def _merge_monomials(m1: Monomial, m2: Monomial) -> tuple[int, Monomial | None]:
    """Merge two canonical monomials, returning (koszul sign, result).

    Returns (0, None) when an odd variable would appear squared.  The sign
    counts the transpositions needed to interleave the odd factors of m2
    into m1.
    """
    result = []
    i = j = 0
    sign = 1
    # number of odd factors of m1 strictly to the right of the merge point
    odd_tail = [0] * (len(m1) + 1)
    for idx in range(len(m1) - 1, -1, -1):
        odd_tail[idx] = odd_tail[idx + 1] + (m1[idx][0].parity & m1[idx][1] & 1)
    while i < len(m1) and j < len(m2):
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            if v1.parity == ODD:
                return 0, None
            result.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1.sort_key < v2.sort_key:
            result.append((v1, e1))
            i += 1
        else:
            if v2.parity == ODD and e2 == 1 and odd_tail[i] % 2 == 1:
                sign = -sign
            result.append((v2, e2))
            j += 1
    result.extend(m1[i:])
    result.extend(m2[j:])
    return sign, tuple(result)


def _monomial_sort_key(m: Monomial):
    return (sum(e for _, e in m), tuple((v.index, v.name, e) for v, e in m))


class SuperPolynomial:
    """A finite sum of canonical monomials with nonzero rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[m] = c
        self.terms = clean

    # ---------------------------------------------------------------- basics
    @staticmethod
    def zero() -> "SuperPolynomial":
        return SuperPolynomial()

    @staticmethod
    def constant(c: Scalar) -> "SuperPolynomial":
        c = Fraction(c)
        return SuperPolynomial({ONE_MONOMIAL: c} if c else {})

    @staticmethod
    def from_var(v: Variable) -> "SuperPolynomial":
        return SuperPolynomial({((v, 1),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[Variable]:
        return {v for m in self.terms for v, _ in m}

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get(ONE_MONOMIAL, Fraction(0))

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, Fraction(0)) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return SuperPolynomial(terms)

    __radd__ = __add__

    def __neg__(self):
        return SuperPolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return SuperPolynomial({m: c * v for m, v in self.terms.items()})
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, m = _merge_monomials(m1, m2)
                if m is None:
                    continue
                s = out.get(m, Fraction(0)) + sign * c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return SuperPolynomial(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = SuperPolynomial.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # --------------------------------------------------------------- queries
    def parity(self):
        """0, 1, 'zero', or 'mixed'."""
        if not self.terms:
            return "zero"
        ps = {monomial_parity(m) for m in self.terms}
        return ps.pop() if len(ps) == 1 else "mixed"

    def parity_part(self, p: int) -> "SuperPolynomial":
        return SuperPolynomial(
            {m: c for m, c in self.terms.items() if monomial_parity(m) == p}
        )

    def __repr__(self):
        return f"SuperPolynomial({self})"

    def __str__(self):
        return render(self)


def _coerce(x) -> SuperPolynomial:
    if isinstance(x, SuperPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return SuperPolynomial.constant(x)
    return NotImplemented


ZERO = SuperPolynomial.zero()
ONE = SuperPolynomial.constant(1)


def render(p: SuperPolynomial) -> str:
    """Deterministic human form, terms in canonical monomial order."""
    if p.is_zero():
        return "0"
    parts = []
    for m in sorted(p.terms, key=_monomial_sort_key):
        c = p.terms[m]
        factors = []
        for v, e in m:
            factors.append(v.name if e == 1 else f"{v.name}^{e}")
        body = "*".join(factors)
        if not body:
            text = str(abs(c))
        elif abs(c) == 1:
            text = body
        else:
            text = f"{abs(c)}*{body}"
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(parts)


# --------------------------------------------------------------------- ops
def multiply(p: SuperPolynomial, q: SuperPolynomial) -> SuperPolynomial:
    return p * q


def weight_of(p: SuperPolynomial, arity: int | None = None):
    """Common multi-weight of all terms, or 'inhomogeneous', or 'zero'.

    The zero polynomial is homogeneous of every weight, which keeps
    homogeneity checks on sparse derivations vacuously true.
    """
    if p.is_zero():
        return "zero"
    ws = {monomial_weight(m, arity) for m in p.terms}
    if len(ws) == 1:
        return ws.pop()
    # constants have an inferred arity of 0; pad against the others
    arities = {len(w) for w in ws}
    if len(arities) == 2 and 0 in arities:
        n = max(arities)
        ws = {w if w else (0,) * n for w in ws}
        if len(ws) == 1:
            return ws.pop()
    return "inhomogeneous"


def is_homogeneous(p: SuperPolynomial, weight: Weight, arity: int | None = None) -> bool:
    w = weight_of(p, arity if arity is not None else len(weight))
    return w == "zero" or w == weight


def partial(p: SuperPolynomial, v: Variable) -> SuperPolynomial:
    """Left derivative with respect to ``v``."""
    out: dict[Monomial, Fraction] = {}
    for m, c in p.terms.items():
        for i, (u, e) in enumerate(m):
            if u != v:
                continue
            if u.parity == EVEN:
                rest = m[:i] + ((u, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
                coeff = c * e
            else:
                odd_before = sum(
                    1 for w, f in m[:i] if w.parity == ODD and f % 2 == 1
                )
                rest = m[:i] + m[i + 1:]
                coeff = c if odd_before % 2 == 0 else -c
            s = out.get(rest, Fraction(0)) + coeff
            if s:
                out[rest] = s
            else:
                out.pop(rest, None)
            break
    return SuperPolynomial(out)


def partial_right(p: SuperPolynomial, v: Variable) -> SuperPolynomial:
    """Right derivative; for homogeneous p it is (-1)^{|v|(|p|+|v|)} partial."""
    if v.parity == EVEN:
        return partial(p, v)
    out = ZERO
    for par in (EVEN, ODD):
        part = p.parity_part(par)
        d = partial(part, v)
        out = out + (d if (par + 1) % 2 == 0 else -d)
    return out


def substitute(
    p: SuperPolynomial, assignment: Mapping[Variable, SuperPolynomial]
) -> SuperPolynomial:
    """Algebra homomorphism sending each assigned variable to its image.

    Unassigned variables are kept.  Every image must have the parity of its
    variable (weight compatibility is the caller's concern).
    """
    for v, img in assignment.items():
        par = img.parity()
        if par not in ("zero", v.parity):
            raise ParityMismatch(
                f"image of {v.name} (parity {v.parity}) has parity {par}"
            )
    cache: dict[tuple[Variable, int], SuperPolynomial] = {}

    def image_power(v: Variable, e: int) -> SuperPolynomial:
        key = (v, e)
        if key not in cache:
            base = assignment.get(v)
            if base is None:
                base = SuperPolynomial.from_var(v)
            cache[key] = base ** e
        return cache[key]

    out = ZERO
    for m, c in p.terms.items():
        term = SuperPolynomial.constant(c)
        for v, e in m:
            term = term * image_power(v, e)
            if term.is_zero():
                break
        out = out + term
    return out


def remap(p: SuperPolynomial, varmap: Mapping[Variable, Variable]) -> SuperPolynomial:
    """Rename variables; a special case of substitution."""
    return substitute(p, {v: SuperPolynomial.from_var(w) for v, w in varmap.items()})


# -------------------------------------------------------------- derivations
@dataclass
class Derivation:
    """A graded vector field in coefficient form.

    ``action`` maps a variable to the coefficient of its partial derivative;
    missing variables act as zero.  The derivation is homogeneous: every
    nonzero coefficient has weight ``weight(v) + weight_shift`` and parity
    ``parity(v) + parity``.
    """

    action: dict[Variable, SuperPolynomial]
    parity: int
    weight_shift: tuple[int, ...]
    check: bool = field(default=True, repr=False)

    def __post_init__(self):
        self.action = {
            v: p for v, p in self.action.items() if not p.is_zero()
        }
        if self.check:
            for v, p in self.action.items():
                w = weight_of(p, len(v.weight))
                expect = tuple(a + b for a, b in zip(v.weight, self.weight_shift))
                if w not in ("zero",) and w != expect:
                    raise ValueError(
                        f"coefficient of d/d{v.name} has weight {w}, expected {expect}"
                    )
                par = p.parity()
                if par not in ("zero", (v.parity + self.parity) % 2):
                    raise ValueError(
                        f"coefficient of d/d{v.name} has parity {par}, "
                        f"expected {(v.parity + self.parity) % 2}"
                    )

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        return apply(self, p)

    def coefficient(self, v: Variable) -> SuperPolynomial:
        return self.action.get(v, ZERO)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.action.values())

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.parity != other.parity or self.weight_shift != other.weight_shift:
            raise ValueError("can only add derivations of equal parity and shift")
        action = dict(self.action)
        for v, p in other.action.items():
            action[v] = action.get(v, ZERO) + p
        return Derivation(action, self.parity, self.weight_shift, check=False)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return Derivation(
            {v: p * scalar for v, p in self.action.items()},
            self.parity, self.weight_shift, check=False,
        )

    __rmul__ = __mul__

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + other * -1

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        vs = set(self.action) | set(other.action)
        return all(self.coefficient(v) == other.coefficient(v) for v in vs)


def apply(D: Derivation, p: SuperPolynomial) -> SuperPolynomial:
    out = ZERO
    relevant = p.variables()
    for v, coeff in D.action.items():
        if v in relevant:
            out = out + coeff * partial(p, v)
    return out


def commutator(D1: Derivation, D2: Derivation) -> Derivation:
    """[D1, D2] = D1 D2 - (-1)^{|D1||D2|} D2 D1, in coefficient form."""
    sign = -1 if (D1.parity and D2.parity) else 1
    shift = tuple(a + b for a, b in zip(D1.weight_shift, D2.weight_shift))
    action: dict[Variable, SuperPolynomial] = {}
    for v in set(D1.action) | set(D2.action):
        c = apply(D1, D2.coefficient(v)) - sign * apply(D2, D1.coefficient(v))
        if not c.is_zero():
            action[v] = c
    return Derivation(action, (D1.parity + D2.parity) % 2, shift, check=False)
