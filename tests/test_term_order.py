"""Values never depend on the order of a polynomial's terms.

The order of ``p.terms`` is unspecified.  Each seeded random polynomial is
rebuilt with its terms inserted in reverse,
``SuperPolynomial(dict(reversed(list(p.terms.items()))))``, and the rebuilt
polynomial must compare, hash, render, weigh and have the parity of the
original, and give the same value under every operation of the kernels:
``*``, ``+``, ``-``, ``partial``, ``partial_right``, ``antibracket``,
``apply``, a substituting and a renaming ``ChartMap`` and ``Differential``.
"""

import random
from fractions import Fraction

import pytest

from gradedbundles.bundle import CoordinateSystem
from gradedbundles.superalg import (
    ChartMap,
    Derivation,
    Differential,
    EVEN,
    ODD,
    SuperPolynomial,
    ZERO,
    antibracket,
    apply,
    partial,
    partial_right,
    render,
    weight_of,
)

# a declared chart with even and odd coordinates interleaved, and a second
# chart whose polynomials must be merged with the first's
U = CoordinateSystem([("x", 0, EVEN), ("xi", 1, ODD), ("y", 1, EVEN), ("eta", 1, ODD),
                      ("z", 2, EVEN), ("theta", 2, ODD)], name="order_u")
V = CoordinateSystem([("a", 0, EVEN), ("rho", 1, ODD), ("b", 1, EVEN), ("sigma", 1, ODD)],
                     name="order_v")
VARIABLES = U.variables + V.variables
GENERATORS = [SuperPolynomial.from_var(v) for v in VARIABLES]
# conjugate pairs of opposite parities, for the odd bracket
PAIRS = [(U["x"], U["xi"]), (U["y"], U["eta"]), (U["z"], U["theta"]), (V["a"], V["rho"])]
# a parity-preserving renaming of U into V
RENAMING = {U["x"]: V["a"], U["xi"]: V["rho"], U["y"]: V["b"], U["eta"]: V["sigma"]}


def poly(rng):
    """A sum of up to five monomials over both charts, whose coefficients are
    drawn from a small set, so that terms cancel often; now and then a high
    power of x, so that a product overflows x's field."""
    p = ZERO
    for _ in range(rng.randint(1, 5)):
        m = SuperPolynomial.constant(Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2, 3])))
        for g in rng.sample(GENERATORS, rng.randint(0, 3)):
            m = m * g ** (1 if g.parity() == ODD else rng.randint(1, 2))
        p = p + m
    if rng.random() < 0.15:
        p = p * GENERATORS[0] ** rng.randint(60, 100)
    return p


def reversed_terms(p):
    return SuperPolynomial(dict(reversed(list(p.terms.items()))))


@pytest.mark.parametrize("seed", range(40))
def test_values_do_not_depend_on_term_order(seed):
    rng = random.Random(seed)
    p, q = poly(rng), poly(rng)
    rp, rq = reversed_terms(p), reversed_terms(q)
    # the rebuilt polynomials hold their terms in another order, so the
    # checks below compare two orders
    for a, ra in ((p, rp), (q, rq)):
        assert a.term_count() < 2 or list(ra.terms) != list(a.terms)
        assert ra == a and hash(ra) == hash(a) and render(ra) == render(a)
        assert weight_of(ra) == weight_of(a) and ra.parity() == a.parity()
    for left, right in ((rp, rq), (rp, q), (p, rq)):
        assert left * right == p * q and right * left == q * p
        assert left + right == p + q and left - right == p - q
    for v in VARIABLES:
        assert partial(rp, v) == partial(p, v)
        assert partial_right(rp, v) == partial_right(p, v)
    assert antibracket(rp, rq, PAIRS) == antibracket(p, q, PAIRS)
    assert antibracket(rq, rp, PAIRS) == antibracket(q, p, PAIRS)

    # coefficients and images of the right parity, and their reversals
    par = rng.randint(0, 1)
    coefficients = {v: poly(rng).parity_part((v.parity + par) % 2)
                    for v in rng.sample(VARIABLES, 4)}
    D = Derivation(coefficients, par, (0,), check=False)
    RD = Derivation({v: reversed_terms(c) for v, c in coefficients.items()}, par, (0,),
                    check=False)
    assert apply(RD, rp) == apply(D, rp) == apply(D, p)
    images = {v: poly(rng).parity_part(v.parity) for v in rng.sample(U.variables, 3)}
    substitution = ChartMap(images)
    assert ChartMap({v: reversed_terms(c) for v, c in images.items()})(rp) == substitution(p)
    assert substitution(rp) == substitution(p)
    assert ChartMap(RENAMING)(rp) == ChartMap(RENAMING)(p)
    dot = {v: rng.choice(VARIABLES) for v in rng.sample(VARIABLES, 5)}
    scale = {v: rng.choice([-2, 1, 3]) for v in dot}
    for d in (Differential(dot), Differential(dot, scale)):
        assert d(rp) == d(p)
