"""Sums of products multiplied straight into the sum, against the chained sum.

``sum_of_products`` and ``_Sum.add_product`` multiply each product into a
fresh dict and fold it into the running sum, without building the product
as a polynomial.  On seeded random operands they must give the value of
``out = out + c * p * q``, with the same term insertion order and the same
reduced denominator.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from gradedbundles.bundle import CoordinateSystem
from gradedbundles.superalg import ZERO, SuperPolynomial, _Sum, sum_of_products

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
}


@pytest.mark.parametrize("case", CASES)
def test_fixed_sums_of_products_are_the_chained_sum(case):
    start, triples = CASES[case]
    triples = [(Fraction(c), p, q) for c, p, q in triples]
    check(sum_of_products(triples), chained(triples))
    check(accumulated(triples, start), chained(triples, start))
    # the sum comes out of one pass: in any order of the same triples too
    check(sum_of_products(triples[::-1]), chained(triples[::-1]))


def test_fixed_cases_reach_what_they_name():
    start, triples = CASES["widened"]
    assert accumulated([(Fraction(c), p, q) for c, p, q in triples], start)._ring.width > 8
    start, triples = CASES["cancels-mid-product"]
    s = accumulated([(Fraction(c), p, q) for c, p, q in triples], start)
    assert [str(SuperPolynomial({m: 1})) for m in s.terms] == ["z", "x*y", "x^2", "y^2"]
