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

Performance invariants, kept by every operation in this module:

* a polynomial is an immutable value: nothing mutates ``terms`` after
  construction, which is what lets ``parity()`` be computed once and kept;
* the public constructor ``SuperPolynomial(terms)`` copies its mapping and
  coerces every coefficient to ``Fraction``; the internal constructor
  ``SuperPolynomial._clean(terms)`` adopts ``terms`` as it is, and may only
  be given a fresh dict, owned by nobody else and never aliased afterwards,
  whose coefficients are already nonzero ``Fraction`` objects;
* sums are accumulated in place (``_accumulate``) into such a fresh dict,
  never as ``out = out + term``, which would copy the running sum per step;
* a :class:`Variable` computes its hash and its ``sort_key`` once, at
  construction; ``==`` tests identity first.  Equality and hash values are
  those of the field tuple, as for any frozen dataclass.
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


def total(w: Weight) -> int:
    return sum(w)


@dataclass(frozen=True, eq=False)
class Variable:
    """A named generator with a multi-weight and a Grassmann parity.

    ``system`` tags the coordinate system the variable belongs to, so that
    equally named variables of different charts stay distinct.  ``index`` is
    the declaration position and fixes the global ordering used for the
    canonical form.

    Variables compare and hash by the tuple of all five fields.  The hash
    and ``sort_key`` are computed once here, since every monomial lookup in
    a term dict hashes each of its variables.
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
        fields = (self.system, self.name, self.weight, self.parity, self.index)
        object.__setattr__(self, "_hash", hash(fields))
        object.__setattr__(self, "sort_key", (self.index, self.name, self.system))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.sort_key == other.sort_key
            and self.weight == other.weight
            and self.parity == other.parity
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild through __init__: a string hash differs between processes
        return (Variable, (self.system, self.name, self.weight, self.parity, self.index))

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
    into m1: each odd factor of m1 that lands after an odd factor of m2
    passes over it once.
    """
    if not m2:
        return 1, m1
    if not m1:
        return 1, m2
    if m1[-1][0].sort_key < m2[0][0].sort_key:
        return 1, m1 + m2
    result = []
    append = result.append
    n1, n2 = len(m1), len(m2)
    i = j = 0
    odd2 = 0  # odd factors of m2 placed so far
    flips = 0
    f1, f2 = m1[0], m2[0]
    v1, v2 = f1[0], f2[0]
    while True:
        k1, k2 = v1.sort_key, v2.sort_key
        if k1 < k2:
            append(f1)
            if odd2 and v1.parity & f1[1] & 1:
                flips += odd2
            i += 1
            if i == n1:
                break
            f1 = m1[i]
            v1 = f1[0]
        elif v1 is v2 or (k1 == k2 and v1 == v2):
            if v1.parity == ODD:
                return 0, None
            append((v1, f1[1] + f2[1]))
            i += 1
            j += 1
            if i == n1 or j == n2:
                break
            f1, f2 = m1[i], m2[j]
            v1, v2 = f1[0], f2[0]
        else:
            append(f2)
            if v2.parity == ODD and f2[1] == 1:
                odd2 += 1
            j += 1
            if j == n2:
                break
            f2 = m2[j]
            v2 = f2[0]
    if odd2:
        for v, e in m1[i:]:
            if v.parity & e & 1:
                flips += odd2
    result.extend(m1[i:])
    result.extend(m2[j:])
    return (-1 if flips & 1 else 1), tuple(result)


def _monomial_sort_key(m: Monomial):
    return (sum(e for _, e in m), tuple((v.index, v.name, e) for v, e in m))


# Shared immutable coefficients; a Fraction never changes once made.
_ZERO_FRACTION = Fraction(0)
_ONE_FRACTION = Fraction(1)


def _accumulate(acc: dict, terms: Mapping[Monomial, Fraction], scale=1) -> None:
    """``acc += scale * terms`` in place, dropping zero coefficients.

    ``acc`` is a dict owned by the caller; ``terms`` is only read.  New
    monomials are appended in the order of ``terms``, as ``acc + terms``
    would, so results keep the insertion order of the plain sum.
    """
    if not scale:
        return
    plain, negate = scale == 1, scale == -1
    get = acc.get
    for m, c in terms.items():
        if not plain:
            c = -c if negate else c * scale
        s = get(m)
        if s is None:
            acc[m] = c
        else:
            s = s + c
            if s:
                acc[m] = s
            else:
                del acc[m]


def _mul_terms(a: Mapping[Monomial, Fraction],
               b: Mapping[Monomial, Fraction]) -> dict[Monomial, Fraction]:
    """The term dict of the product of two term dicts, as a fresh dict."""
    out: dict[Monomial, Fraction] = {}
    get = out.get
    merge = _merge_monomials
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            sign, m = merge(m1, m2)
            if m is None:
                continue
            c = c1 * c2
            if sign < 0:
                c = -c
            s = get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


class SuperPolynomial:
    """A finite sum of canonical monomials with nonzero rational coefficients.

    Polynomials are immutable values; ``terms`` must not be mutated.
    """

    __slots__ = ("terms", "_parity")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c.__class__ is not Fraction:
                    c = Fraction(c)
                if c != 0:
                    clean[m] = c
        self.terms = clean
        self._parity = None

    @staticmethod
    def _clean(terms: dict[Monomial, Fraction]) -> "SuperPolynomial":
        """Adopt ``terms`` without copying or coercing it.

        ``terms`` must be a fresh dict that no other object holds or will
        mutate, and every coefficient must be a nonzero ``Fraction``.
        """
        p = object.__new__(SuperPolynomial)
        p.terms = terms
        p._parity = None
        return p

    # ---------------------------------------------------------------- basics
    @staticmethod
    def zero() -> "SuperPolynomial":
        return SuperPolynomial._clean({})

    @staticmethod
    def constant(c: Scalar) -> "SuperPolynomial":
        if c.__class__ is not Fraction:
            c = Fraction(c)
        return SuperPolynomial._clean({ONE_MONOMIAL: c} if c else {})

    @staticmethod
    def from_var(v: Variable) -> "SuperPolynomial":
        return SuperPolynomial._clean({((v, 1),): _ONE_FRACTION})

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[Variable]:
        return {v for m in self.terms for v, _ in m}

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, _ZERO_FRACTION)

    def constant_term(self) -> Fraction:
        return self.terms.get(ONE_MONOMIAL, _ZERO_FRACTION)

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        _accumulate(terms, other.terms)
        return SuperPolynomial._clean(terms)

    __radd__ = __add__

    def __neg__(self):
        return SuperPolynomial._clean({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        _accumulate(terms, other.terms, -1)
        return SuperPolynomial._clean(terms)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return SuperPolynomial._clean({})
            return SuperPolynomial._clean({m: c * v for m, v in self.terms.items()})
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return SuperPolynomial._clean(_mul_terms(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / other)
        return NotImplemented

    def __pow__(self, n: int):
        """``self`` to the ``n``-th power by repeated squaring."""
        if n < 0:
            raise ValueError("negative powers are not defined")
        if n == 0:
            return SuperPolynomial.constant(1)
        result = None
        square = self.terms
        while True:
            if n & 1:
                result = square if result is None else _mul_terms(result, square)
            n >>= 1
            if not n:
                break
            square = _mul_terms(square, square)
        if result is self.terms:
            result = dict(result)
        return SuperPolynomial._clean(result)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # --------------------------------------------------------------- queries
    def parity(self):
        """0, 1, 'zero', or 'mixed'; computed once per polynomial."""
        par = self._parity
        if par is None:
            if not self.terms:
                par = "zero"
            else:
                ps = {monomial_parity(m) for m in self.terms}
                par = ps.pop() if len(ps) == 1 else "mixed"
            self._parity = par
        return par

    def parity_part(self, p: int) -> "SuperPolynomial":
        par = self.parity()
        if par == p:
            return SuperPolynomial._clean(dict(self.terms))
        if par != "mixed":
            return SuperPolynomial._clean({})
        return SuperPolynomial._clean(
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


def partial(p: SuperPolynomial, v: Variable) -> SuperPolynomial:
    """Left derivative with respect to ``v``."""
    out: dict[Monomial, Fraction] = {}
    h = v._hash
    odd = v.parity == ODD
    for m, c in p.terms.items():
        for i, f in enumerate(m):
            u = f[0]
            if u is not v and (u._hash != h or u != v):
                continue
            e = f[1]
            if not odd:
                rest = m[:i] + ((u, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
                coeff = c * e if e != 1 else c
            else:
                odd_before = sum(
                    1 for w, g in m[:i] if w.parity == ODD and g % 2 == 1
                )
                rest = m[:i] + m[i + 1:]
                coeff = c if odd_before % 2 == 0 else -c
            _accumulate(out, {rest: coeff})
            break
    return SuperPolynomial._clean(out)


def partial_right(p: SuperPolynomial, v: Variable) -> SuperPolynomial:
    """Right derivative; for homogeneous p it is (-1)^{|v|(|p|+|v|)} partial."""
    if v.parity == EVEN:
        return partial(p, v)
    out: dict[Monomial, Fraction] = {}
    for par in (EVEN, ODD):
        d = partial(p.parity_part(par), v)
        _accumulate(out, d.terms, 1 if (par + 1) % 2 == 0 else -1)
    return SuperPolynomial._clean(out)


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
    cache: dict[tuple[Variable, int], dict[Monomial, Fraction]] = {}
    out: dict[Monomial, Fraction] = {}
    for m, c in p.terms.items():
        if not m:
            _accumulate(out, {m: c})
            continue
        term = None
        for key in m:
            power = cache.get(key)
            if power is None:
                v, e = key
                base = assignment.get(v)
                if base is None:
                    base = SuperPolynomial.from_var(v)
                # cached term dicts are only ever read
                power = cache[key] = base.terms if e == 1 else (base ** e).terms
            term = power if term is None else _mul_terms(term, power)
            if not term:
                break
        _accumulate(out, term, c)
    return SuperPolynomial._clean(out)


def _renamed(m: Monomial, rename) -> tuple[int, Monomial | None]:
    """(sign, canonical monomial) of ``m`` with each variable renamed.

    The renamed factors are merged one at a time, which yields the Koszul
    sign of the reordering, adds the exponents of even variables that meet
    and gives (0, None) when two odd factors meet.  Factors that are already
    in order need no merge.
    """
    renamed = tuple((rename(v, v), e) for v, e in m)
    for a, b in zip(renamed, renamed[1:]):
        if not a[0].sort_key < b[0].sort_key:
            break
    else:
        return 1, renamed
    sign, mono = 1, ONE_MONOMIAL
    for f in renamed:
        s, mono = _merge_monomials(mono, (f,))
        if mono is None:
            return 0, None
        sign *= s
    return sign, mono


def remap(p: SuperPolynomial, varmap: Mapping[Variable, Variable]) -> SuperPolynomial:
    """Rename variables: the substitution of each ``v`` by ``varmap[v]``."""
    for v, w in varmap.items():
        if w.parity != v.parity:
            raise ParityMismatch(
                f"image of {v.name} (parity {v.parity}) has parity {w.parity}"
            )
    rename = varmap.get
    out: dict[Monomial, Fraction] = {}
    for m, c in p.terms.items():
        sign, mono = _renamed(m, rename)
        if mono is not None:
            _accumulate(out, {mono: c}, sign)
    return SuperPolynomial._clean(out)


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
    out: dict[Monomial, Fraction] = {}
    relevant = p.variables()
    for v, coeff in D.action.items():
        if v in relevant:
            _accumulate(out, _mul_terms(coeff.terms, partial(p, v).terms))
    return SuperPolynomial._clean(out)


def commutator(D1: Derivation, D2: Derivation) -> Derivation:
    """[D1, D2] = D1 D2 - (-1)^{|D1||D2|} D2 D1, in coefficient form."""
    sign = -1 if (D1.parity and D2.parity) else 1
    shift = tuple(a + b for a, b in zip(D1.weight_shift, D2.weight_shift))
    action: dict[Variable, SuperPolynomial] = {}
    for v in set(D1.action) | set(D2.action):
        # the first result is a temporary, so its fresh dict can be reused
        terms = apply(D1, D2.coefficient(v)).terms
        _accumulate(terms, apply(D2, D1.coefficient(v)).terms, -sign)
        if terms:
            action[v] = SuperPolynomial._clean(terms)
    return Derivation(action, (D1.parity + D2.parity) % 2, shift, check=False)
