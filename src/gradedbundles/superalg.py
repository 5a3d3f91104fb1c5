"""Exact supercommutative polynomial algebra over the rationals.

Variables carry a multi-weight (a tuple of nonnegative integers, one entry
per independent grading) and a Grassmann parity.  Polynomials are kept in a
canonical form: every monomial is packed in the sort order of its variables,
reordering signs are absorbed into the rational coefficients, and zero
coefficients are never stored.

Conventions fixed here and relied on by every module above this one:

* coefficients are exact rationals (arbitrary precision), never floats,
* odd variables square to zero and anticommute,
* ``partial`` is the *left* derivative,
* a :class:`Derivation` acts as ``D(p) = sum_v action[v] * partial(p, v)``
  and therefore satisfies the graded Leibniz rule
  ``D(pq) = D(p) q + (-1)^{|D||p|} p D(q)``.

Representation.  A polynomial lives over a *ring*: a tuple of variables in
``sort_key`` order.  For everything the engine builds this is one chart's
``CoordinateSystem.variables`` (bound by :func:`declare_chart`); operands
over different rings are re-packed into the merged ring.  A monomial is one
``int``: variable ``i`` of the ring owns the bit field ``[i*w, (i+1)*w)``,
whose top bit is a guard that is always clear.  A polynomial is a dict from
these keys to ``int`` numerators, over one positive common denominator.
Zero and the constants live over the empty ring, and a chart equal to one
in use shares its ring, so the engine's operands seldom need re-packing.

``p.terms`` is a view built on each access: a dict from monomials
``((Variable, exponent), ...)`` to ``Fraction``, in insertion order.  The
engine never reads it; the public constructor accepts the same form.

Performance invariants, kept by every operation in this module:

* a polynomial is an immutable value: nothing mutates its numerator dict
  after construction, which is what lets ``parity()`` and the support (the
  bitwise or of all keys) be computed once and kept;
* the denominator is reduced: no prime divides it and every numerator, so
  two polynomials over one ring are equal exactly when their denominators
  and numerator dicts are;
* a product of monomials is the sum of their keys; two odd variables clash
  when the keys share a bit of the ring's odd mask, and the Koszul sign is
  the parity of one ``bit_count()`` over odd bits; ``partial`` tests one
  field per term;
* a product whose fields could overflow is computed in a ring with fields
  twice as wide (``_Ring.wider``), decided once per product from the two
  supports, so no exponent ever wraps around;
* sums are accumulated in place (``_add_into``, ``_Sum``) into a fresh
  dict, never as ``out = out + term``, which would copy the running sum per
  step; new keys are appended in the order the plain sum would give;
* a product that only feeds a sum is not built as a polynomial:
  ``_Sum.add_product`` multiplies it straight into the sum's dict, with the
  one multiply kernel ``_mul_into`` that ``p * q`` uses too, and with no
  gcd reduction per product (see "Writing into a sum" below).
  ``sum_of_products``, ``apply``, ``antibracket`` and the last factor of a
  substituted term sum this way; ``apply`` and ``antibracket`` feed each
  derivative's numerators over their operands' denominators, building no
  polynomial per derivative.  The construction layers keep the same rule:
  each of their polynomials is one ``linear_combination`` or
  ``sum_of_products`` of its terms, and each product in it is formed once,
  however many terms share it;
* a bracket or a derivation reads each operand once for all its
  derivatives: ``apply`` and ``antibracket`` take every derivative they
  need of an operand from one pass over its terms (``_derivatives``, which
  holds the sign rules of left and right derivatives), not one scan of the
  operand per variable;
* work is done in the target chart: a law is renamed into its new chart
  once and lifted there, not per variable as a chain of small polynomials;
  a :class:`Differential` moves each key of p by one field per variable,
  widening the ring first when a moved field could overflow;
* a map applied to many polynomials is compiled once, into one plan per
  source ring: a substitution or renaming (:class:`ChartMap`) and a
  derivation along a fixed map of variables (:class:`Differential`).
  ``substitute``, ``remap`` and ``differential`` are their one-off forms;
  every re-charting builds one map per transition direction and applies it
  to each component, each lift one differential per transition direction
  (``bundle._lifted_laws``) or per chart, and the total derivative of the
  jet constructions is one differential.  ``bundle.rechart`` builds
  each direction once: a transition held as the reversal of another (the
  same two component dicts, swapped) is re-charted as the reversal of
  that one's result, so the sharing carries on down a chain of
  constructions;
* no per-term loop hashes a :class:`Variable`: a chart variable's field
  index is its ``index``, checked by identity, and ``chart_support``
  reads which chart variables a polynomial holds off its ring and support.
  A variable computes its hash and its ``sort_key`` once, at construction;
  ``==`` tests identity first.  Equality and hash values are those of the
  field tuple.

Writing into a sum.  ``_mul_into`` adds each term of a product to the
running sum's dict as it is formed, and the sum keeps the term order of
the chained sum ``out = out + c * p * q``, in which the product is built
whole (a key that cancels inside it is dropped there, and appended again
if it comes back) and then added (a key that cancels against the sum is
dropped).  A coefficient that reaches zero inside a product stays in the
dict as a 0 placeholder, and placeholders still zero when the product ends
are dropped.  When a placeholder comes back nonzero, a key that was in the
sum before this product stays where it is, and a key new to the sum moves
to the end, where the chained sum appends it again.  Placeholders come
back rarely: in about 2 of the 444 products of a ``towers`` task of the
benchmark, and in no ``jets`` product.  ``p * q`` is the same kernel
writing into an empty dict.
A one-term operand on either side runs a single loop over the other
operand, and its odd factors give the Koszul sign of every product term by
one precomputed mask.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Iterable, Mapping, Union

Weight = tuple[int, ...]
Scalar = Union[int, Fraction]

EVEN = 0
ODD = 1

# bits per exponent field of a chart's ring, guard bit included
_WIDTH = 8


class ParityMismatch(ValueError):
    """A substitution assigned an image of the wrong Grassmann parity."""


def weight_add(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise ValueError(f"weight arity mismatch: {a} vs {b}")
    return tuple(x + y for x, y in zip(a, b))


def total(w: Weight) -> int:
    return sum(w)


class Variable:
    """A named generator with a multi-weight and a Grassmann parity.

    ``system`` tags the coordinate system the variable belongs to, so that
    equally named variables of different charts stay distinct.  ``index`` is
    the declaration position and fixes the global ordering used for the
    canonical form.

    Variables are immutable, and compare and hash by the tuple of all five
    fields.  The hash and ``sort_key`` are computed once here.
    """

    def __init__(self, system: str, name: str, weight: Weight, parity: int, index: int):
        if any(w < 0 for w in weight):
            raise ValueError(f"negative weight on {name}: {weight}")
        if parity not in (EVEN, ODD):
            raise ValueError(f"parity must be 0 or 1, got {parity}")
        # _ring is a weak reference to the ring of polynomials built from
        # this variable (see _home); weak, since the ring holds the variable
        self.__dict__.update(
            system=system, name=name, weight=weight, parity=parity, index=index,
            _hash=hash((system, name, weight, parity, index)),
            sort_key=(index, name, system), _ring=None,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Variable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Variable")

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


# A monomial of the ``terms`` view: (variable, exponent) pairs by sort_key.
Monomial = tuple[tuple[Variable, int], ...]


# ------------------------------------------------------------------- rings
class _Ring:
    """Variables in ``sort_key`` order and the packing of their exponents.

    Field ``i`` holds the exponent of ``vars[i]`` in bits ``[i*w, (i+1)*w)``
    with ``w = width``; ``odd`` has the low bit of every odd variable's field
    and ``guard`` the top bit of every field.  Rings are never mutated apart
    from their caches.
    """

    __slots__ = ("vars", "width", "odd", "guard", "_pos", "_wider", "__weakref__")

    def __init__(self, variables: tuple[Variable, ...], width: int = _WIDTH):
        self.vars = variables
        self.width = width
        odd = guard = 0
        top = 1 << (width - 1)
        for i, v in enumerate(variables):
            odd |= v.parity << (i * width)
            guard |= top << (i * width)
        self.odd = odd
        self.guard = guard
        self._pos = None
        self._wider = None

    def pos(self, v: Variable) -> int | None:
        """The field index of ``v``, or None when ``v`` is not in the ring."""
        vs = self.vars
        i = v.index
        if i < len(vs) and vs[i] is v:
            return i
        if self._pos is None:
            self._pos = {u: j for j, u in enumerate(vs)}
        return self._pos.get(v)

    def wider(self) -> "_Ring":
        """The same variables with fields twice as wide."""
        if self._wider is None:
            self._wider = _Ring(self.vars, 2 * self.width)
        return self._wider

    def fields(self, key: int) -> list[tuple[int, int]]:
        """(field index, exponent) of every nonzero field of ``key``, ascending."""
        w = self.width
        mask = (1 << w) - 1
        out = []
        while key:
            shift = ((key & -key).bit_length() - 1) // w * w
            e = (key >> shift) & mask
            out.append((shift // w, e))
            key ^= e << shift
        return out

    def monomial(self, key: int) -> Monomial:
        vs = self.vars
        return tuple((vs[i], e) for i, e in self.fields(key))

    def key(self, m: Monomial) -> int | None:
        """The key of a canonical monomial, or None if it has none here."""
        w = self.width
        k, last = 0, -1
        for v, e in m:
            i = self.pos(v)
            if (i is None or i <= last or e.__class__ is not int or e < 1
                    or (v.parity and e != 1) or e >> (w - 1)):
                return None
            k += e << (i * w)
            last = i
        return k


_EMPTY = _Ring(())


def _home(v: Variable) -> _Ring:
    """The ring of ``v``'s chart while that is in use; otherwise, as for a
    variable outside any chart, a ring of its own."""
    ring = v._ring() if v._ring is not None else None
    if ring is None:
        ring = _Ring((v,))
        object.__setattr__(v, "_ring", weakref.ref(ring))
    return ring


# The ring of every chart in use, by the hash of its variables, so that a
# new chart hashes each variable once.  An equal chart declared again (a
# construction run twice) shares the ring and its variables, so polynomials
# of the two never need re-packing; a chart whose hash collides with one in
# use gets a ring of its own.  Rings are held weakly here and by their
# variables, so a ring goes, without waiting for the cycle collector, once no
# chart and no polynomial uses it.
_CHARTS: "weakref.WeakValueDictionary[int, _Ring]" = weakref.WeakValueDictionary()


def declare_chart(variables: Iterable[Variable]) -> _Ring:
    """The ring of a chart of ``variables``, to be kept with the chart.

    ``variables`` must be in ``sort_key`` order, each ``index`` its
    position.  When an equal chart is in use, its ring is returned, and the
    chart should use that ring's ``vars``, equal to ``variables``.
    """
    variables = tuple(variables)
    key = hash(variables)
    ring = _CHARTS.get(key)
    if ring is None or ring.vars != variables:
        ring = _Ring(variables)
        ref = weakref.ref(ring)
        for i, v in enumerate(variables):
            if v.index != i:
                raise ValueError(f"{v.name} has index {v.index}, not its position {i}")
            object.__setattr__(v, "_ring", ref)
        _CHARTS[key] = ring
    return ring


def _merged(r1: _Ring, r2: _Ring) -> _Ring:
    """A ring that holds the variables of both, at the wider field width."""
    if r1 is r2 or not r2.vars:
        return r1
    if not r1.vars:
        return r2
    if r1.vars == r2.vars:
        return r1 if r1.width >= r2.width else r2
    seen = set(r1.vars)
    vs = list(r1.vars) + [v for v in r2.vars if v not in seen]
    vs.sort(key=lambda v: v.sort_key)
    vs = tuple(vs)
    width = max(r1.width, r2.width)
    for r in (r1, r2):
        if r.vars == vs and r.width == width:
            return r
    return _Ring(vs, width)


def _repack(num: dict, src: _Ring, dst: _Ring) -> dict:
    """``num``, keyed in ``src``, keyed in ``dst``, which holds src's variables.

    Returns ``num`` itself when the keys already agree; the caller may then
    only read the result.  Insertion order is kept.
    """
    if src is dst or not src.vars:
        return num
    if src.width == dst.width and dst.vars[:len(src.vars)] == src.vars:
        return num
    shifts = [dst.pos(v) * dst.width for v in src.vars]
    fields = src.fields
    out = {}
    for k, c in num.items():
        nk = 0
        for i, e in fields(k):
            nk += e << shifts[i]
        out[nk] = c
    return out


def _or(keys) -> int:
    s = 0
    for k in keys:
        s |= k
    return s


# ------------------------------------------------------------ coefficients
def _reduce(num: dict, den: int) -> int:
    """Divide ``den`` and every value of ``num`` (in place) by their gcd;
    returns the reduced denominator, which is 1 for an empty ``num``."""
    if den == 1 or not num:
        return 1
    g = den
    for n in num.values():
        g = gcd(g, n)
        if g == 1:
            return den
    for k, n in num.items():
        num[k] = n // g
    return den // g


def _add_into(acc: dict, num: Mapping[int, int], scale: int = 1) -> None:
    """``acc += scale * num`` in place, dropping zero numerators.

    ``acc`` is a dict owned by the caller; ``num`` is only read.  New keys
    are appended in the order of ``num``, as ``acc + num`` would, so results
    keep the insertion order of the plain sum.
    """
    get = acc.get
    items = num.items() if scale == 1 else ((k, c * scale) for k, c in num.items())
    for k, c in items:
        s = get(k)
        if s is None:
            acc[k] = c
        else:
            s += c
            if s:
                acc[k] = s
            else:
                del acc[k]


class _Sum:
    """A running sum of scaled polynomials and products, accumulated in place."""

    __slots__ = ("ring", "num", "den")

    def __init__(self):
        self.ring = _EMPTY
        self.num: dict[int, int] = {}
        self.den = 1

    def _join(self, ring: _Ring, t: int) -> int:
        """Merge ``ring`` into the sum's and bring its denominator to a
        multiple of ``t``; returns the scale ``den // t`` of a term over ``t``."""
        merged = _merged(self.ring, ring)
        if merged is not self.ring:
            self.num = _repack(self.num, self.ring, merged)
            self.ring = merged
        den = self.den
        if t == den:
            return 1
        if not self.num:
            self.den = t
            return 1
        common = lcm(den, t)
        if common != den:
            f = common // den
            num = self.num
            for k, n in num.items():
                num[k] = n * f
            self.den = common
        return common // t

    def add(self, p: "SuperPolynomial", a: int = 1, b: int = 1) -> None:
        """``self += (a / b) * p`` for integers ``a`` and ``b > 0``."""
        if not p._num or not a:
            return
        a *= self._join(p._ring, p._den * b)
        _add_into(self.num, _repack(p._num, p._ring, self.ring), a)

    def add_product(self, p: "SuperPolynomial", q: "SuperPolynomial",
                    a: int = 1, b: int = 1) -> None:
        """``self += (a / b) * p * q`` for integers ``a`` and ``b > 0``."""
        if a and p._num and q._num:
            ring, A, B = _product_ring(p, q)
            self.add_numerators(ring, A, B, a, p._den * q._den * b)

    def add_numerators(self, ring: _Ring, A: dict, B: dict, a: int, t: int) -> None:
        """``self += (a / t) * A * B`` for numerators A and B keyed in
        ``ring``, in which no product key overflows, and ``t > 0``.

        The product is multiplied straight into the sum's dict, which keeps
        the term order of ``self + (a / t) * A * B`` ("Writing into a sum"
        in the module docstring)."""
        a *= self._join(ring, t)
        dst = self.ring
        _mul_into(self.num, _repack(A, ring, dst), _repack(B, ring, dst), dst.odd, a)

    def result(self) -> "SuperPolynomial":
        return _make(self.ring, self.num, self.den)


def _make(ring: _Ring, num: dict, den: int = 1) -> "SuperPolynomial":
    """Adopt ``num`` over the positive denominator ``den``, without copying.

    ``num`` must be a fresh dict that no other object holds or will mutate,
    its values nonzero ints; ``num`` and ``den`` are reduced here.
    """
    p = object.__new__(SuperPolynomial)
    # zero and the constants belong to no chart, so they never force a merge
    p._ring = _EMPTY if len(num) <= 1 and (not num or 0 in num) else ring
    p._num = num
    p._den = den if den == 1 else _reduce(num, den)
    p._parity = None
    p._support = None
    return p


def _support_of(p: "SuperPolynomial") -> int:
    """The bitwise or of p's keys: every field is at least its largest exponent."""
    s = p._support
    if s is None:
        s = p._support = _or(p._num)
    return s


def _scalar(c) -> Scalar:
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
    return c


def _product_ring(p: "SuperPolynomial", q: "SuperPolynomial") -> tuple[_Ring, dict, dict]:
    """The ring of ``p * q`` and the numerators of p and q keyed in it: the
    merged ring, widened until no field of a product key can overflow."""
    ring, A, B = p._ring, p._num, q._num
    sp, sq = p._support, q._support
    if sp is None:
        sp = p._support = _or(A)
    if sq is None:
        sq = q._support = _or(B)
    # no field of a product key exceeds that field of the supports' sum
    if ring is not q._ring or (sp + sq) & ring.guard:
        ring = _merged(ring, q._ring)
        while True:
            A = _repack(p._num, p._ring, ring)
            B = _repack(q._num, q._ring, ring)
            if not (_or(A) + _or(B)) & ring.guard:
                break
            ring = ring.wider()
    return ring, A, B


def _mul_into(out: dict[int, int], A: Mapping[int, int], B: Mapping[int, int],
              odd: int, scale: int = 1) -> None:
    """Add the numerators of ``scale * A * B`` into ``out``, for numerators
    keyed in one ring with odd mask ``odd``, in the order of the product's
    terms, A's outer, keeping the term order of the chained sum
    ``out + scale * A * B`` ("Writing into a sum" in the module docstring)."""
    n0 = len(out)
    get = out.get
    zeroed = []
    # a one-term B runs one pass over A, with B's term outer
    swap = len(B) == 1 and len(A) > 1
    if swap:
        A, B = B, A
    items = B.items()
    for k0, c0 in A.items():
        if scale != 1:
            c0 *= scale
        o0 = k0 & odd
        # an inner term's sign is the parity of its odd bits in ``sign``:
        # bit j is set when an odd number of k0's odd factors sit above j
        # (below j when swapped), each passed by an odd factor there
        sign, rest = 0, o0
        while rest:
            low = rest & -rest
            sign ^= -(low << 1) if swap else low - 1
            rest ^= low
        sign &= odd
        for k, c in items:
            if k & o0:
                continue
            c *= c0
            if sign and (k & sign).bit_count() & 1:
                c = -c
            k += k0
            s = get(k)
            if s is None:
                out[k] = c
            elif s:
                s += c
                out[k] = s
                if not s:
                    zeroed.append(k)
            else:
                # a placeholder comes back: one new to ``out`` moves to the
                # end, where the chained sum appends it again
                if k not in islice(out, n0):
                    del out[k]
                out[k] = c
    for k in zeroed:
        if not out.get(k, 1):
            del out[k]


def _mul_terms(p: "SuperPolynomial", q: "SuperPolynomial") -> "SuperPolynomial":
    """The product of two polynomials, as a fresh polynomial."""
    if not p._num or not q._num:
        return _make(_EMPTY, {})
    ring, A, B = _product_ring(p, q)
    out: dict[int, int] = {}
    _mul_into(out, A, B, ring.odd)
    return _make(ring, out, p._den * q._den)


def _combine(p: "SuperPolynomial", q: "SuperPolynomial", scale: int) -> "SuperPolynomial":
    """``p + scale * q`` for an int ``scale``, as a fresh polynomial."""
    ring, P, Q = p._ring, p._num, q._num
    if ring is not q._ring:
        ring = _merged(ring, q._ring)
        P = _repack(P, p._ring, ring)
        Q = _repack(Q, q._ring, ring)
    dp, dq = p._den, q._den
    if dp == dq:
        out = dict(P)
        den = dp
    else:
        den = lcm(dp, dq)
        f = den // dp
        out = {k: n * f for k, n in P.items()} if f != 1 else dict(P)
        scale *= den // dq
    _add_into(out, Q, scale)
    return _make(ring, out, den)


class SuperPolynomial:
    """A finite sum of canonical monomials with nonzero rational coefficients.

    Polynomials are immutable values.
    """

    __slots__ = ("_ring", "_num", "_den", "_parity", "_support")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        """A polynomial from a dict like ``terms``: monomials sorted by
        ``sort_key`` with odd exponents 1, to int or Fraction coefficients."""
        ring = _EMPTY
        items = []
        den = top = 1
        for m, c in (terms or {}).items():
            if _scalar(c):
                items.append((m, c))
                den = lcm(den, c.denominator)
                for v, e in m:
                    ring = _merged(ring, _home(v))
                    if e.__class__ is int and e > top:
                        top = e
        while top >> (ring.width - 1):
            ring = ring.wider()
        num = {}
        for m, c in items:
            k = ring.key(m)
            if k is None:
                raise ValueError(f"not a canonical monomial: {m}")
            num[k] = c.numerator * (den // c.denominator)
        self._ring = ring
        self._num = num
        self._den = den if num else 1
        self._parity = None
        self._support = None

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """A fresh dict from monomials to ``Fraction`` coefficients."""
        monomial, den = self._ring.monomial, self._den
        return {monomial(k): Fraction(n, den) for k, n in self._num.items()}

    # ---------------------------------------------------------------- basics
    @staticmethod
    def zero() -> "SuperPolynomial":
        return _make(_EMPTY, {})

    @staticmethod
    def constant(c: Scalar) -> "SuperPolynomial":
        if not _scalar(c):
            return _make(_EMPTY, {})
        return _make(_EMPTY, {0: c.numerator}, c.denominator)

    @staticmethod
    def from_var(v: Variable) -> "SuperPolynomial":
        ring = _home(v)
        return _make(ring, {1 << (ring.pos(v) * ring.width): 1})

    def is_zero(self) -> bool:
        return not self._num

    def term_count(self) -> int:
        return len(self._num)

    def monomials(self) -> list[Monomial]:
        """The monomials of the nonzero terms, in insertion order."""
        monomial = self._ring.monomial
        return [monomial(k) for k in self._num]

    def variables(self) -> set[Variable]:
        vs = self._ring.vars
        return {vs[i] for i, _ in self._ring.fields(_support_of(self))}

    def involves(self, v: Variable) -> bool:
        """Whether ``v`` occurs in some term."""
        return _field(self, v) is not None

    def constant_term(self) -> Fraction:
        n = self._num.get(0)
        return Fraction(n, self._den) if n else _ZERO_FRACTION

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self._ring, {k: -n for k, n in self._num.items()}, self._den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, SuperPolynomial):
            return _mul_terms(self, other)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return _make(_EMPTY, {})
        a = other.numerator
        num = {k: n * a for k, n in self._num.items()}
        return _make(self._ring, num, self._den * other.denominator)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial divided by zero")
        return self * (1 / Fraction(other))

    def __pow__(self, n: int):
        """``self`` to the ``n``-th power by repeated squaring, with the terms
        in the order of that product chain: ``b ** 3`` is ``b * (b * b)``."""
        if n < 0:
            raise ValueError("negative powers are not defined")
        if n == 0:
            return SuperPolynomial.constant(1)
        result = None
        square = self
        while True:
            if n & 1:
                result = square if result is None else _mul_terms(result, square)
            n >>= 1
            if not n:
                break
            square = _mul_terms(square, square)
        if result is self:
            result = _make(self._ring, dict(self._num), self._den)
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._den != other._den or len(self._num) != len(other._num):
            return False
        ring = _merged(self._ring, other._ring)
        return (_repack(self._num, self._ring, ring)
                == _repack(other._num, other._ring, ring))

    def __hash__(self):
        num = self._num
        if not num or (len(num) == 1 and 0 in num):
            # a constant equals its scalar, so it hashes as that scalar
            n = num.get(0, 0)
            return hash(n) if self._den == 1 else hash(Fraction(n, self._den))
        # equal polynomials share the reduced denominator and the multiset
        # of numerators, whatever rings they live over
        return hash((self._den, *sorted(num.values())))

    # --------------------------------------------------------------- queries
    def parity(self):
        """0, 1, 'zero', or 'mixed'; computed once per polynomial."""
        par = self._parity
        if par is None:
            if not self._num:
                par = "zero"
            else:
                odd = self._ring.odd
                ps = {(k & odd).bit_count() & 1 for k in self._num}
                par = ps.pop() if len(ps) == 1 else "mixed"
            self._parity = par
        return par

    def parity_part(self, p: int) -> "SuperPolynomial":
        par = self.parity()
        if par == p:
            return _make(self._ring, dict(self._num), self._den)
        if par != "mixed":
            return _make(_EMPTY, {})
        odd = self._ring.odd
        num = {k: n for k, n in self._num.items() if (k & odd).bit_count() & 1 == p}
        return _make(self._ring, num, self._den)

    def __repr__(self):
        return f"SuperPolynomial({self})"

    def __str__(self):
        return render(self)


_ZERO_FRACTION = Fraction(0)


def _coerce(x) -> SuperPolynomial:
    if isinstance(x, SuperPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return SuperPolynomial.constant(x)
    return NotImplemented


ZERO = SuperPolynomial.zero()
ONE = SuperPolynomial.constant(1)


def linear_combination(pairs: Iterable[tuple[Scalar, SuperPolynomial]]) -> SuperPolynomial:
    """``sum(c * p for c, p in pairs)``, accumulated in place."""
    acc = _Sum()
    for c, p in pairs:
        c = _scalar(c)
        acc.add(p, c.numerator, c.denominator)
    return acc.result()


def sum_of_products(triples: Iterable[tuple[Scalar, SuperPolynomial, SuperPolynomial]]
                    ) -> SuperPolynomial:
    """``sum(c * p * q for c, p, q in triples)``, each product accumulated
    into the sum without being built as a polynomial."""
    acc = _Sum()
    for c, p, q in triples:
        c = _scalar(c)
        acc.add_product(p, q, c.numerator, c.denominator)
    return acc.result()


def render(p: SuperPolynomial) -> str:
    """Deterministic human form, terms in canonical monomial order."""
    if p.is_zero():
        return "0"
    ring, den = p._ring, p._den
    vs = ring.vars
    rows = []
    for k, n in p._num.items():
        fs = ring.fields(k)
        order = (sum(e for _, e in fs), tuple((vs[i].index, vs[i].name, e) for i, e in fs))
        rows.append((order, fs, n))
    rows.sort(key=lambda row: row[0])
    parts = []
    for _, fs, n in rows:
        g = gcd(n, den)
        a, b = abs(n) // g, den // g
        body = "*".join(vs[i].name if e == 1 else f"{vs[i].name}^{e}" for i, e in fs)
        c = str(a) if b == 1 else f"{a}/{b}"
        if not body:
            text = c
        elif a == b == 1:
            text = body
        else:
            text = f"{c}*{body}"
        if not parts:
            parts.append(text if n > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if n > 0 else f"- {text}")
    return " ".join(parts)


# --------------------------------------------------------------------- ops
def weight_of(p: SuperPolynomial, arity: int | None = None):
    """Common multi-weight of all terms, or 'inhomogeneous', or 'zero'.

    The zero polynomial is homogeneous of every weight, which keeps
    homogeneity checks on sparse derivations vacuously true.
    """
    if p.is_zero():
        return "zero"
    ring = p._ring
    vs = ring.vars
    ws = set()
    for k in p._num:
        fs = ring.fields(k)
        if not fs:
            ws.add((0,) * (arity or 0))
            continue
        n = len(vs[fs[0][0]].weight)
        w = [0] * n
        for i, e in fs:
            vw = vs[i].weight
            if len(vw) != n:
                raise ValueError(
                    f"weight arity mismatch: {tuple(w)} vs {tuple(e * c for c in vw)}")
            for j, c in enumerate(vw):
                w[j] += e * c
        ws.add(tuple(w))
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


def _field(p: SuperPolynomial, v: Variable) -> tuple[int, int] | None:
    """(shift, mask) of v's field in p's ring when v occurs in p, else None."""
    ring = p._ring
    i = ring.pos(v)
    if i is None:
        return None
    shift = i * ring.width
    mask = ((1 << ring.width) - 1) << shift
    if not _support_of(p) & mask:
        return None
    return shift, mask


def chart_support(p: SuperPolynomial, variables: tuple[Variable, ...]) -> int | None:
    """The variables of ``p`` as bits, bit i for ``variables[i]``, or None
    when one is not in ``variables``, a chart's variables in index order.
    Read off p's ring and support: no variable is hashed."""
    ring = p._ring
    vs = ring.vars
    bits = 0
    for i, _ in ring.fields(_support_of(p)):
        v = vs[i]
        j = v.index
        if vs is not variables and not (j < len(variables) and variables[j] == v):
            return None
        bits |= 1 << j
    return bits


def _derivatives(num: dict, ring: _Ring, fields: int, right: bool = False) -> dict[int, dict]:
    """The numerators of the left (with ``right``, the right) derivatives
    of ``num``, keyed in ``ring``, by each variable whose field is covered
    by the mask ``fields`` and occurs in num, taken in one pass over num:
    a dict from the field's shift to the derivative, whose terms are in the
    order of num's.  A right derivative by an odd variable puts its terms of
    even parity first, with a sign, as in
    ``-partial(p.parity_part(EVEN)) + partial(p.parity_part(ODD))``."""
    w, odd = ring.width, ring.odd
    field = (1 << w) - 1
    outs, evens = {}, {}
    for k, c in num.items():
        hit = k & fields
        while hit:
            shift = ((hit & -hit).bit_length() - 1) // w * w
            e = (hit >> shift) & field
            hit ^= e << shift
            unit = 1 << shift
            out = outs.get(shift)
            if out is None:
                out = outs[shift] = {}
            if not unit & odd:
                out[k - unit] = c if e == 1 else c * e
                continue
            # an odd variable passes the odd factors below it
            d = -c if (k & odd & (unit - 1)).bit_count() & 1 else c
            if right and not (k & odd).bit_count() & 1:
                ev = evens.get(shift)
                if ev is None:
                    ev = evens[shift] = {}
                ev[k - unit] = -d
            else:
                out[k - unit] = d
    for shift, ev in evens.items():
        ev.update(outs[shift])
        outs[shift] = ev
    return outs


def partial(p: SuperPolynomial, v: Variable) -> SuperPolynomial:
    """Left derivative with respect to ``v``."""
    return _partial(p, v, False)


def partial_right(p: SuperPolynomial, v: Variable) -> SuperPolynomial:
    """Right derivative; for homogeneous p it is (-1)^{|v|(|p|+|v|)} partial."""
    return _partial(p, v, True)


def _partial(p: SuperPolynomial, v: Variable, right: bool) -> SuperPolynomial:
    f = _field(p, v)
    if f is None:
        return _make(_EMPTY, {})
    return _make(p._ring, _derivatives(p._num, p._ring, f[1], right)[f[0]], p._den)


def antibracket(f: SuperPolynomial, g: SuperPolynomial,
                pairs: Iterable[tuple[Variable, Variable]]) -> SuperPolynomial:
    """The odd Poisson bracket of f and g for the conjugate ``pairs`` (q, q*)
    of opposite parities: the sum of
    ``partial_right(f, q) * partial(g, q*) - partial_right(f, q*) * partial(g, q)``
    in pair order, without the terms whose derivatives vanish.  The
    derivatives of each operand come from one pass over its terms, and each
    one's numerators feed its product over f's and g's denominators, as in
    :func:`apply`."""
    acc = _Sum()
    if f._num and g._num:
        ring, F, G = _product_ring(f, g)
        sf = _support_of(f) if F is f._num else _or(F)
        sg = _support_of(g) if G is g._num else _or(G)
        w, den = ring.width, f._den * g._den
        field = (1 << w) - 1
        products, by_f, by_g = [], 0, 0
        for q, qs in pairs:
            for a, u, v in ((1, q, qs), (-1, qs, q)):
                i, j = ring.pos(u), ring.pos(v)
                if i is None or j is None:
                    continue
                fi, fj = field << (i * w), field << (j * w)
                if sf & fi and sg & fj:
                    products.append((a, i * w, j * w))
                    by_f |= fi
                    by_g |= fj
        if products:
            dF = _derivatives(F, ring, by_f, True)
            dG = _derivatives(G, ring, by_g)
            for a, i, j in products:
                acc.add_numerators(ring, dF[i], dG[j], a, den)
    return acc.result()


class Differential:
    """The derivation ``sum_u scale[u] * from_var(dot[u]) * partial(-, u)``
    along a fixed map ``dot`` of variables to variables, compiled once and
    applied to many polynomials, as :class:`ChartMap` is for substitutions.

    ``scale`` maps variables to integers, 1 where it has none.  The terms
    are summed over the variables u of p that ``dot`` maps, in ``sort_key``
    order.  Each is one key move, ``k - unit(u) + unit(dot[u])``, with the
    exponent and the Koszul signs of that product, so no intermediate
    polynomial is built.  Per source ring, on first use, a plan is kept
    while the differential lives: the ring it works in, which holds every
    image, and per mapped field its mask, shift, move, Koszul and clash
    masks, the image's unit and the scale.  A polynomial whose moved field
    could reach its guard bit is differentiated in the ring twice as wide.
    """

    __slots__ = ("dot", "scale", "_plans")

    def __init__(self, dot: Mapping[Variable, Variable],
                 scale: Mapping[Variable, int] | None = None):
        self.dot = dot
        self.scale = scale or {}
        self._plans: dict[_Ring, tuple] = {}

    def _plan(self, src: _Ring, ring: _Ring | None = None) -> tuple:
        """(the ring to work in, the moves of src's mapped fields in it, in
        its order) for polynomials over ``src``: by default src merged with
        every image's ring, or ``ring``, a wider ring that holds them."""
        mapped = [(u, t) for u in src.vars if (t := self.dot.get(u)) is not None]
        if ring is None:
            ring = src
            for _, t in mapped:
                if ring.pos(t) is None:
                    ring = _merged(ring, _home(t))
        w, odd = ring.width, ring.odd
        field = (1 << w) - 1
        moves = []
        for u, t in mapped:
            shift = ring.pos(u) * w
            unit, tunit = 1 << shift, 1 << (ring.pos(t) * w)
            # odd fields below u's give partial's sign, those below t's (u's
            # aside, as partial removed it) the product's; an odd t other
            # than u already in the term gives zero
            below_u = odd & (unit - 1) if u.parity else 0
            below_t, clash = (odd & (tunit - 1) & ~unit, tunit & ~unit) if t.parity else (0, 0)
            moves.append((field << shift, shift, tunit - unit, below_u ^ below_t, clash,
                          tunit, self.scale.get(u, 1)))
        return ring, tuple(moves)

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        support = _support_of(p)
        if not support:  # a constant
            return _make(_EMPTY, {})
        src = p._ring
        plan = self._plans.get(src)
        if plan is None:
            plan = self._plans[src] = self._plan(src)
        ring, moves = plan
        num = _repack(p._num, src, ring)
        if num is not p._num:
            support = _or(num)
        while True:
            active = [m for m in moves if support & m[0]]
            if not active:
                return _make(_EMPTY, {})
            # widen until no moved field reaches its guard bit
            if not (support + _or(m[5] for m in active)) & ring.guard:
                break
            ring, moves = self._plan(src, ring.wider())
            num = _repack(p._num, src, ring)
            support = _or(num)
        field = (1 << ring.width) - 1
        out = None
        for _, shift, move, koszul, clash, _, scale in active:
            moved = {}  # the map of keys is injective for one u
            for k, c in num.items():
                e = (k >> shift) & field
                if not e or k & clash:
                    continue
                if (k & koszul).bit_count() & 1:
                    c = -c
                moved[k + move] = c * (e * scale)
            if out is None:
                out = moved
            else:
                _add_into(out, moved)
        return _make(ring, out, p._den)


def differential(p: SuperPolynomial, dot: Mapping[Variable, Variable]) -> SuperPolynomial:
    """The sum of ``from_var(dot[u]) * partial(p, u)`` over the variables u
    of p that ``dot`` maps, in ``sort_key`` order: a one-off
    :class:`Differential`."""
    return Differential(dot)(p)


class ChartMap:
    """An algebra homomorphism, compiled once and applied to many polynomials.

    ``assignment`` sends variables all to variables, a renaming (as
    ``remap``), or to polynomials (as ``substitute``); unassigned variables
    are kept.  Parities are checked on the first application, where
    ``substitute`` and ``remap`` raise.

    Per source ring, on first use, a plan is kept while the map lives: the
    assigned fields' mask, each field's image and one power cache that all
    polynomials share.  An injective renaming into one ring of the same
    width, whose odd images keep their order, moves keys by masked shifts:
    an even factor commutes with every factor, so even images may pass any
    other.  Other polynomials are substituted, which reorders odd factors
    with their Koszul sign, zeroes two odd factors sent to one variable and
    adds the exponents of even factors sent to one variable.
    """

    __slots__ = ("assignment", "_rename", "_checked", "_plans")

    def __init__(self, assignment: Mapping[Variable, Variable | SuperPolynomial]):
        self.assignment = assignment
        self._rename = all(w.__class__ is Variable for w in assignment.values())
        self._checked = False
        self._plans: dict[_Ring, tuple] = {}

    def _check(self) -> None:
        for v, w in self.assignment.items():
            par = w.parity if self._rename else w.parity()
            if par not in ("zero", v.parity):
                raise ParityMismatch(f"image of {v.name} (parity {v.parity}) has parity {par}")
        self._checked = True

    def _plan(self, src: _Ring) -> tuple:
        """(mask, images by field, power cache, the move list's (mask, left,
        right) shifts, its target ring or None) for ``src``."""
        w = src.width
        field = (1 << w) - 1
        mask, images = 0, {}
        for v, img in self.assignment.items():
            i = src.pos(v)
            if i is not None:
                mask |= field << (i * w)
                images[i] = img
        plan = (mask, images, {}, (), None)
        if self._rename and images:
            order = sorted(images)
            ring = _home(images[order[0]])
            targets = [ring.pos(images[i]) if _home(images[i]) is ring else -1 for i in order]
            odd = [j for i, j in zip(order, targets) if images[i].parity == ODD]
            if ring.width == w and -1 not in targets and len(set(targets)) == len(targets) \
                    and odd == sorted(odd):
                moves = {}
                for i, j in zip(order, targets):
                    moves[j - i] = moves.get(j - i, 0) | field << (i * w)
                plan = plan[:3] + (tuple(
                    (m, max(d, 0) * w, max(-d, 0) * w) for d, m in moves.items()), ring)
        self._plans[src] = plan
        return plan

    def unmapped(self, p: SuperPolynomial) -> Variable | None:
        """The first variable of p, in its ring's order, that is not assigned."""
        src = p._ring
        rest = _support_of(p) & ~(self._plans.get(src) or self._plan(src))[0]
        return src.vars[((rest & -rest).bit_length() - 1) // src.width] if rest else None

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        if not self._checked:
            self._check()
        support = _support_of(p)
        if not support:  # a constant, fixed by every homomorphism
            return _make(_EMPTY, dict(p._num), p._den)
        src = p._ring
        mask, images, cache, moves, ring = self._plans.get(src) or self._plan(src)
        num = p._num
        # the images of a checked renaming have their sources' parities, so
        # an odd image's field holds exponent 1 and every key moves
        if ring is not None and not support & ~mask:
            if len(moves) == 1:
                _, l, r = moves[0]
                out = {k << l >> r: c for k, c in num.items()}
            else:
                out = {}
                for k, c in num.items():
                    nk = 0
                    for m, l, r in moves:
                        nk |= (k & m) << l >> r
                    out[nk] = c
            return _make(ring, out, p._den)
        acc = _Sum()
        den = p._den
        for k, c in num.items():
            # the product of all but the last power is built; the last
            # multiplies into the sum
            term = last = None
            for f in src.fields(k):
                power = cache.get(f)
                if power is None:
                    base = images.get(f[0], src.vars[f[0]])
                    if base.__class__ is Variable:
                        base = SuperPolynomial.from_var(base)
                    power = cache[f] = base if f[1] == 1 else base ** f[1]
                if last is not None:
                    term = last if term is None else _mul_terms(term, last)
                    if not term._num:
                        break
                last = power
            else:
                if term is not None:
                    acc.add_product(term, last, c, den)
                else:
                    acc.add(ONE if last is None else last, c, den)
        return acc.result()


def substitute(
    p: SuperPolynomial, assignment: Mapping[Variable, SuperPolynomial]
) -> SuperPolynomial:
    """Algebra homomorphism sending each assigned variable to its image.

    Unassigned variables are kept.  Every image must have the parity of its
    variable (weight compatibility is the caller's concern).
    """
    return ChartMap(assignment)(p)


def remap(p: SuperPolynomial, varmap: Mapping[Variable, Variable]) -> SuperPolynomial:
    """Rename variables: the substitution of each ``v`` by ``varmap[v]``."""
    return ChartMap(varmap)(p)


# -------------------------------------------------------------- derivations
class Derivation:
    """A graded vector field in coefficient form.

    ``action`` maps a variable to the coefficient of its partial derivative;
    missing variables act as zero.  The derivation is homogeneous: every
    nonzero coefficient has weight ``weight(v) + weight_shift`` and parity
    ``parity(v) + parity``.
    """

    def __init__(self, action: dict[Variable, SuperPolynomial], parity: int,
                 weight_shift: tuple[int, ...], check: bool = True):
        self.action = action
        self.parity = parity
        self.weight_shift = weight_shift
        self.check = check
        self.__post_init__()

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
    """The sum of ``D.action[v] * partial(p, v)`` over the variables v of p
    that D acts on, in ``D.action`` order.  All the derivatives come from
    one pass over p's terms, and each one's numerators feed its product
    over the denominators of p and the coefficient, with no polynomial built
    for the derivative."""
    acc = _Sum()
    support = _support_of(p)
    if support:
        src = p._ring
        w = src.width
        field = (1 << w) - 1
        acts, fields = [], 0
        for v, coeff in D.action.items():
            i = src.pos(v)
            if i is not None and support & field << (i * w):
                acts.append((i * w, coeff))
                fields |= field << (i * w)
        if acts:
            dP = _derivatives(p._num, src, fields)
            for shift, coeff in acts:
                ring, C, _ = _product_ring(coeff, p)
                acc.add_numerators(ring, C, _repack(dP[shift], src, ring),
                                   1, coeff._den * p._den)
    return acc.result()


def commutator(D1: Derivation, D2: Derivation) -> Derivation:
    """[D1, D2] = D1 D2 - (-1)^{|D1||D2|} D2 D1, in coefficient form."""
    sign = -1 if (D1.parity and D2.parity) else 1
    shift = tuple(a + b for a, b in zip(D1.weight_shift, D2.weight_shift))
    action: dict[Variable, SuperPolynomial] = {}
    if D1 is D2:
        # [D, D] is 2 D D for an odd D and zero for an even one
        if sign == -1:
            for v, coeff in D1.action.items():
                c = apply(D1, coeff)
                if c._num:
                    action[v] = c * 2
    else:
        # keys in first-seen order, so the action's order is the same
        # under every hash seed
        for v in {**D1.action, **D2.action}:
            c = _combine(apply(D1, D2.coefficient(v)), apply(D2, D1.coefficient(v)), -sign)
            if c._num:
                action[v] = c
    return Derivation(action, (D1.parity + D2.parity) % 2, shift, check=False)
