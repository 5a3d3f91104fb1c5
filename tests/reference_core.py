"""The frozen reference core, completed to the ``superalg`` API that the
upper layers import, so that the whole engine can run on it.

``reference_superalg`` is the plain dict-of-Fraction core as it stood before
the speed work, and it stays unedited.  Each name the live core added since
is written here as its textbook formula over it:

* ``linear_combination`` and ``sum_of_products`` are chained sums,
  ``out = out + c * p`` and ``out = out + c * p * q``;
* ``ChartMap(m)(p)`` is the frozen ``substitute`` (``remap`` for a
  renaming), applied anew to each polynomial;
* ``Differential(dot, scale)(p)`` is the chained sum of
  ``scale[u] * from_var(dot[u]) * partial(p, u)`` over the variables u of p
  in ``sort_key`` order;
* ``antibracket(f, g, pairs)`` is the chained sum of
  ``partial_right(f, q) * partial(g, q*) - partial_right(f, q*) * partial(g, q)``
  in pair order;
* ``maps_equal(a, b)`` compares the two maps key by key over the union
  of their keys, a missing key reading as ``ZERO``;
* ``chart_support`` and the methods ``term_count``, ``monomials`` and
  ``involves`` read the reference's term dict, and ``declare_chart``
  returns a ring that holds only its ``vars``.

Reports render each polynomial's terms in canonical order, so two cores
give the same reports when they give the same values; the order in which
terms are stored is compared one operation at a time in
``test_differential.py``.  Install the shim before ``gradedbundles`` is
imported::

    import reference_core
    sys.modules["gradedbundles.superalg"] = reference_core

Importing it adds the three methods to the reference ``SuperPolynomial``.
"""

from __future__ import annotations

from types import SimpleNamespace

from reference_superalg import (
    EVEN,
    ODD,
    ONE,
    ZERO,
    Derivation,
    ParityMismatch,
    SuperPolynomial,
    Variable,
    apply,
    commutator,
    partial,
    partial_right,
    remap,
    render,
    substitute,
    total,
    weight_add,
    weight_of,
)


def linear_combination(pairs):
    out = ZERO
    for c, p in pairs:
        out = out + c * p
    return out


def sum_of_products(triples):
    out = ZERO
    for c, p, q in triples:
        out = out + c * p * q
    return out


class ChartMap:
    def __init__(self, assignment):
        self.assignment = assignment

    def __call__(self, p):
        if all(isinstance(w, Variable) for w in self.assignment.values()):
            return remap(p, self.assignment)
        return substitute(p, self.assignment)

    def unmapped(self, p):
        rest = [v for v in p.variables() if v not in self.assignment]
        return min(rest, key=lambda v: v.sort_key, default=None)


class Differential:
    def __init__(self, dot, scale=None):
        self.dot = dot
        self.scale = scale or {}

    def __call__(self, p):
        out = ZERO
        for u in sorted(p.variables(), key=lambda v: v.sort_key):
            if u in self.dot:
                out = out + SuperPolynomial.from_var(self.dot[u]) * partial(p, u) \
                    * self.scale.get(u, 1)
        return out


def antibracket(f, g, pairs):
    out = ZERO
    for q, qs in pairs:
        out = out + partial_right(f, q) * partial(g, qs) - partial_right(f, qs) * partial(g, q)
    return out


def maps_equal(a, b):
    return all(a.get(k, ZERO) == b.get(k, ZERO) for k in set(a) | set(b))


def chart_support(p, variables):
    bits = 0
    for v in p.variables():
        if not (v.index < len(variables) and variables[v.index] == v):
            return None
        bits |= 1 << v.index
    return bits


def declare_chart(variables):
    variables = tuple(variables)
    for i, v in enumerate(variables):
        if v.index != i:
            raise ValueError(f"{v.name} has index {v.index}, not its position {i}")
    return SimpleNamespace(vars=variables)


SuperPolynomial.term_count = lambda self: len(self.terms)
SuperPolynomial.monomials = lambda self: list(self.terms)
SuperPolynomial.involves = lambda self, v: v in self.variables()
