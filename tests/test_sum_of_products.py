"""Sums of products multiplied straight into the sum, against the chained sum.

``sum_of_products`` and ``_Sum.add_product`` multiply each product straight
into the running sum's dict, without building the product as a polynomial,
under the placeholder rule of "Writing into a sum" in the ``superalg``
module docstring.  On seeded random operands they must give the value of
``out = out + c * p * q``, with the same term insertion order and the same
reduced denominator.  So must ``antibracket``, which feeds raw derivative
numerators into its sum, against ``sum_of_products`` of the derivatives.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from gradedbundles.bundle import CoordinateSystem
from gradedbundles.constructions import lie_tower, tangent_algebroid
from gradedbundles.superalg import (
    ZERO,
    SuperPolynomial,
    _Sum,
    antibracket,
    partial,
    partial_right,
    sum_of_products,
)

from helpers import random_antisym_constants, random_nonjacobi_constants, random_odd_bundle

EVEN, ODD = 0, 1

# a declared chart with even and odd coordinates interleaved, and a second
# chart whose polynomials must be merged with the first's
U = CoordinateSystem([("x", 0, EVEN), ("xi", 1, ODD), ("y", 1, EVEN), ("eta", 1, ODD),
                      ("z", 2, EVEN)], name="sop_u")
V = CoordinateSystem([("a", 0, EVEN), ("rho", 1, ODD), ("b", 1, EVEN)], name="sop_v")
x, xi, y, eta, z = (U.var(n) for n in ("x", "xi", "y", "eta", "z"))
a, rho, b = (V.var(n) for n in ("a", "rho", "b"))


def scalar(rng):
    return Fraction(rng.choice([-2, -1, 0, 1, 2, 3]), rng.choice([1, 2, 3]))


def poly(rng, generators):
    """Zero, a constant, or a sum of up to four monomials whose coefficients
    are drawn from a small set, so that terms cancel often; now and then a
    high power of x, so that a product overflows x's field."""
    kind = rng.random()
    if kind < 0.1:
        return ZERO
    if kind < 0.2:
        return SuperPolynomial.constant(scalar(rng))
    p = ZERO
    for _ in range(rng.randint(1, 4)):
        m = SuperPolynomial.constant(scalar(rng))
        for g in rng.sample(generators, rng.randint(0, 3)):
            m = m * g ** (1 if g.parity() == ODD else rng.randint(1, 2))
        p = p + m
    if rng.random() < 0.15:
        p = p * x ** rng.randint(60, 100)
    return p


def check(got, want):
    assert got == want
    assert list(got.terms.items()) == list(want.terms.items())
    assert got._den == want._den == lcm(1, *(c.denominator for c in want.terms.values()))


def chained(triples, start=ZERO):
    out = start
    for c, p, q in triples:
        out = out + c * p * q
    return out


def accumulated(triples, start=ZERO):
    acc = _Sum()
    acc.add(start)
    for c, p, q in triples:
        acc.add_product(p, q, c.numerator, c.denominator)
    return acc.result()


@pytest.mark.parametrize("seed", range(60))
def test_random_sums_of_products_are_the_chained_sum(seed):
    rng = random.Random(seed)
    generators = [x, xi, y, eta, z] + ([a, rho, b] if seed % 2 else [])
    triples = [(scalar(rng), poly(rng, generators), poly(rng, generators))
               for _ in range(rng.randint(1, 6))]
    start = poly(rng, generators)
    check(sum_of_products(triples), chained(triples))
    check(accumulated(triples, start), chained(triples, start))


# one case per situation the kernel must get right, each a start and triples
CASES = {
    # Koszul signs, and odd factors that clash
    "odd": (xi * eta + y, [(1, xi + eta * y, eta + xi * z), (Fraction(-1, 2), eta, xi * y)]),
    # operands over two charts, and a sum that starts on one of them
    "two-charts": (rho * b, [(2, x * xi + a, rho * b + y), (Fraction(1, 3), a * rho, eta)]),
    # zero and constant operands, a zero scalar, a constant product
    "zero-and-constant": (SuperPolynomial.constant(Fraction(1, 2)), [
        (1, ZERO, x), (3, x + y, ZERO), (0, x, y),
        (Fraction(2, 3), SuperPolynomial.constant(3), y),
        (1, SuperPolynomial.constant(Fraction(1, 2)), SuperPolynomial.constant(4)),
        (-1, xi * 2, xi)]),
    # x^100 * x^30 does not fit x's 8-bit field
    "widened": (y, [(1, x ** 100 + y, x ** 30 * xi), (1, x ** 64, x ** 64)]),
    # x*y is -1 in the start, then met twice at +1 in one product: the sum
    # keeps x*y second, where adding each term of the product in place would
    # drop it at 0 and append it again after x^2
    "cancels-mid-product": (z - x * y, [(1, x + y, x + y)]),
    # the sum cancels to zero before its last product
    "cancels-to-zero": (x * y, [(-1, x, y), (Fraction(1, 2), y, x + y)]),
    # x*y*z, new to the sum, is met at +1, -1 and +1 in one product: it
    # comes back after y*z, where the chained sum appends it again
    "returns-mid-product": (z, [(1, x + x * y + y, y * z - z + x * z)]),
    # a one-term left operand whose odd factors sit on both sides of xi,
    # and clash with eta
    "one-term-left": (y + rho * xi, [(Fraction(2, 3), rho * eta * b, xi + x * xi * y + eta * z + a),
                                     (-1, xi, rho * b + eta)]),
    # the same products with their operands swapped: one-term right operands
    "one-term-right": (y + rho * xi, [(Fraction(2, 3), xi + x * xi * y + eta * z + a, rho * eta * b),
                                      (1, rho * b + eta, xi)]),
    # one-term operands on either side whose products need a widened ring
    "one-term-widened": (x, [(1, x ** 100 * xi, x ** 30 + x ** 40 * eta + y),
                             (Fraction(1, 2), x ** 30 + eta * x ** 40, x ** 100 * xi)]),
}


@pytest.mark.parametrize("case", CASES)
def test_fixed_sums_of_products_are_the_chained_sum(case):
    start, triples = CASES[case]
    triples = [(Fraction(c), p, q) for c, p, q in triples]
    check(sum_of_products(triples), chained(triples))
    check(accumulated(triples, start), chained(triples, start))
    # the sum comes out of one pass: in any order of the same triples too
    check(sum_of_products(triples[::-1]), chained(triples[::-1]))


def case_sum(name):
    start, triples = CASES[name]
    return accumulated([(Fraction(c), p, q) for c, p, q in triples], start)


def term_names(p):
    return [str(SuperPolynomial({m: 1})) for m in p.terms]


def test_fixed_cases_reach_what_they_name():
    start, triples = CASES["widened"]
    assert accumulated([(Fraction(c), p, q) for c, p, q in triples], start)._ring.width > 8
    start, triples = CASES["cancels-mid-product"]
    s = accumulated([(Fraction(c), p, q) for c, p, q in triples], start)
    assert [str(SuperPolynomial({m: 1})) for m in s.terms] == ["z", "x*y", "x^2", "y^2"]
    assert term_names(case_sum("returns-mid-product")) == [
        "z", "x*z", "x^2*z", "x*y^2*z", "x^2*y*z", "y^2*z", "y*z", "x*y*z"]
    # a sign taken with the one-term operand on the right is the one taken
    # with it on the left
    left, right = case_sum("one-term-left"), case_sum("one-term-right")
    assert left == right and "rho*xi*b*eta" in term_names(left)
    assert case_sum("one-term-widened")._ring.width > 8


# ------------------------------------------------------------ the odd bracket
def derivative_sum(f, g, pairs):
    """The odd bracket with each derivative built as a polynomial."""
    return sum_of_products((c, partial_right(f, u), partial(g, v))
                           for q, qs in pairs for c, u, v in ((1, q, qs), (-1, qs, q)))


def phase_poly(rng, variables):
    """A sum of up to four monomials of one to three phase-space variables,
    with coefficients over 2, 3 or 4 and a denominator other than 1."""
    while True:
        p = ZERO
        for _ in range(rng.randint(1, 4)):
            m = SuperPolynomial.constant(Fraction(rng.choice([1, -1, 3, -5]), rng.choice([2, 3, 4])))
            for v in rng.sample(variables, rng.randint(1, 3)):
                m = m * SuperPolynomial.from_var(v)
            p = p + m
        if p._den > 1:
            return p


def odd_phase_space(kind, seed):
    """A tower's phase space (Jacobi or not, k 2 or 3) or the tangent
    algebroid's phase space of a seeded odd bundle."""
    rng = random.Random(seed)
    if kind == "tower":
        c = random_nonjacobi_constants(rng, 3) if seed % 2 else random_antisym_constants(rng, 4)
        return lie_tower(c, 2 + seed % 2).phase, rng
    return tangent_algebroid(random_odd_bundle(rng, name=f"bracket{seed}")).phase, rng


@pytest.mark.parametrize("kind", ["tower", "odd-tangent"])
@pytest.mark.parametrize("seed", range(6))
def test_antibracket_is_the_sum_of_derivative_products(kind, seed):
    phase, rng = odd_phase_space(kind, seed)
    pairs = phase.poisson.pairs
    # an odd bundle's odd fibre coordinates give odd momenta
    assert any(q.parity for q, _ in pairs) == (kind == "odd-tangent")
    variables = list(phase.system.variables)
    for _ in range(12):
        f, g = phase_poly(rng, variables), phase_poly(rng, variables)
        want = derivative_sum(f, g, pairs)
        check(antibracket(f, g, pairs), want)
        check(phase.schouten(f, g), want)
