"""Differential tests: the live ``superalg`` core against a frozen reference.

``reference_superalg`` is the plain dict-of-Fraction core as it stood before
the live core was optimised.  Every operation here runs on the same random
polynomials in both, and the results must have the same term maps, keyed
by ``(system, name, exponent)`` so that the two modules' ``Variable``
classes never meet, with their terms in the same insertion order.

The term order of ``p ** n`` is that of its product chain, which squares
repeatedly (``b ** 3`` is ``b * (b * b)``), while the reference multiplies
in sequence.  Every oracle power here is therefore a chain of reference
products along the live chain (``chain_power``), so the values and the
insertion order of each product stay compared.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_superalg as ref
from gradedbundles import superalg as live

EVEN, ODD = 0, 1

# (system, name, weight, parity, index); "u" is the polynomials' own chart,
# declared with even and odd coordinates interleaved
SOURCE = [
    ("u", "x", (0,), EVEN, 0),
    ("u", "xi", (1,), ODD, 1),
    ("u", "y", (1,), EVEN, 2),
    ("u", "eta", (1,), ODD, 3),
    ("u", "z", (2,), EVEN, 4),
    ("u", "theta", (2,), ODD, 5),
]
# a second chart, declared so that REVERSING below reverses every monomial
TARGET = [
    ("t", "rho", (1,), ODD, 0),
    ("t", "a", (0,), EVEN, 1),
    ("t", "sigma", (1,), ODD, 2),
    ("t", "b", (1,), EVEN, 3),
    ("t", "tau", (2,), ODD, 4),
    ("t", "c", (2,), EVEN, 5),
]
# a declared copy of the source chart: an injective renaming into it whose
# odd images keep their order moves keys directly, any other renaming is
# substituted
COPY = [("s", "s" + name, w, par, i) for _, name, w, par, i in SOURCE]
# a chart of two-entry weights, for sums and products of mixed arity
PAIRED = [("w", "v", (1, 0), EVEN, 0), ("w", "omega", (0, 1), ODD, 1)]
SPECS = SOURCE + TARGET + COPY + PAIRED


def universe(mod):
    return {spec[1]: mod.Variable(*spec) for spec in SPECS}


LIVE, REF = universe(live), universe(ref)
# the live source chart is declared, as the engine declares every chart, so
# its polynomials share one packed ring; the target variables are left
# undeclared, each in a ring of its own, which mixed operations must merge
SOURCE_RING = live.declare_chart(LIVE[spec[1]] for spec in SOURCE)
LIVE.update({v.name: v for v in SOURCE_RING.vars})
# rings are held weakly: as a chart keeps its ring, these names keep theirs
COPY_RING = live.declare_chart(LIVE[spec[1]] for spec in COPY)
LIVE.update({v.name: v for v in COPY_RING.vars})
SOURCE_NAMES = [spec[1] for spec in SOURCE]
TARGET_NAMES = [spec[1] for spec in TARGET]
PAIRED_NAMES = [spec[1] for spec in PAIRED]
COPY_NAMES = [spec[1] for spec in COPY]
PARITY = {spec[1]: spec[3] for spec in SPECS}


def build(mod, variables, desc):
    """A polynomial from (coefficient, {name: exponent}) terms, by mod's own
    public arithmetic; odd exponents above 1 give zero terms on purpose."""
    p = mod.SuperPolynomial.zero()
    for c, exps in desc:
        m = mod.SuperPolynomial.constant(c)
        for name, e in exps:
            for _ in range(e):
                m = m * mod.SuperPolynomial.from_var(variables[name])
        p = p + m
    return p


def both(desc):
    return build(live, LIVE, desc), build(ref, REF, desc)


def key(p):
    """The term map keyed by (system, name, exponent); checks the invariants."""
    out = {}
    for m, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        out[tuple((v.system, v.name, e) for v, e in m)] = c
    return out


def same(a, b):
    """Equal term maps, with their terms in the same insertion order; the
    live polynomial's common denominator must be reduced."""
    assert list(key(a).items()) == list(key(b).items())
    assert a._den == lcm(1, *(c.denominator for c in a.terms.values()))


def var(name):
    return both([(Fraction(1), [(name, 1)])])


def chain_power(p, n):
    """``p ** n`` by reference products along the live ``__pow__`` chain:
    the n-th power as the product of the squarings named by n's set bits."""
    if n == 0:
        return ref.SuperPolynomial.constant(1)
    result, square = None, p
    while True:
        if n & 1:
            result = square if result is None else result * square
        n >>= 1
        if not n:
            return result
        square = square * square


class ChainPowers(ref.SuperPolynomial):
    """A reference polynomial whose powers follow the live chain, so that
    the reference ``substitute`` raises its images to powers that way."""

    __slots__ = ()

    def __pow__(self, n):
        return chain_power(self, n)


def poly_desc(names=SOURCE_NAMES, max_terms=4):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    exps = st.lists(
        st.tuples(st.sampled_from(names), st.integers(1, 2)), max_size=3
    )
    return st.lists(st.tuples(coeff, exps), max_size=max_terms)


@settings(max_examples=150, deadline=None)
@given(poly_desc(), poly_desc())
def test_ring_operations(d1, d2):
    (p, rp), (q, rq) = both(d1), both(d2)
    same(p, rp)
    same(p + q, rp + rq)
    same(p - q, rp - rq)
    same(-p, -rp)
    same(p * q, rp * rq)
    same(q * p, rq * rp)
    same(p * Fraction(-2, 3), rp * Fraction(-2, 3))
    same(3 - p, 3 - rp)
    same(p * 0, rp * 0)


@settings(max_examples=100, deadline=None)
@given(poly_desc(SOURCE_NAMES + TARGET_NAMES), poly_desc(TARGET_NAMES + SOURCE_NAMES))
def test_ring_operations_across_charts(d1, d2):
    (p, rp), (q, rq) = both(d1), both(d2)
    same(p + q, rp + rq)
    same(p - q, rp - rq)
    same(p * q, rp * rq)
    same(q * p, rq * rp)
    assert (p * q == q * p) == (rp * rq == rq * rp)
    assert (p + q == q + p) and (p - q == q) == (rp - rq == rq)
    for name in ("x", "eta", "a", "sigma"):
        same(live.partial(p * q, LIVE[name]), ref.partial(rp * rq, REF[name]))
        same(live.partial_right(p - q, LIVE[name]), ref.partial_right(rp - rq, REF[name]))


def weight_or_error(mod, p, arity):
    try:
        return mod.weight_of(p, arity)
    except ValueError as exc:
        return f"ValueError: {exc}"


# zero, a constant padded to its sum's arity, and a monomial whose
# variables' weights have different arities
@example([], None)
@example([(Fraction(2), []), (Fraction(-1), [("x", 2)])], None)
@example([(Fraction(1, 2), []), (Fraction(3), [("v", 1), ("omega", 1)])], 2)
@example([(Fraction(1), [("y", 1)]), (Fraction(1), [("v", 1)])], 1)
@example([(Fraction(1), [("y", 1), ("v", 1)])], None)
@settings(max_examples=150, deadline=None)
@given(poly_desc(SOURCE_NAMES + TARGET_NAMES + PAIRED_NAMES),
       st.sampled_from([None, 0, 1, 2, 3]))
def test_weight_of(d, arity):
    p, rp = both(d)
    assert weight_or_error(live, p, arity) == weight_or_error(ref, rp, arity)


def rational_desc(names=SOURCE_NAMES):
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    exps = st.lists(st.tuples(st.sampled_from(names), st.integers(1, 2)), max_size=2)
    return st.lists(st.tuples(coeff, exps), max_size=4)


@settings(max_examples=150, deadline=None)
@given(rational_desc(), rational_desc(), st.fractions(max_denominator=12))
def test_rational_coefficients_and_their_common_denominator(d1, d2, s):
    (p, rp), (q, rq) = both(d1), both(d2)
    same(p + q, rp + rq)
    same((p + q) - q, (rp + rq) - rq)
    same(p - p, rp - rp)
    same(p * q, rp * rq)
    same(p * s, rp * s)
    if s:
        same(p / s, rp / s)
        same(p * s / s, rp * s / s)
    for name in ("x", "xi", "z"):
        same(live.partial(p * q, LIVE[name]), ref.partial(rp * rq, REF[name]))
    same(p.parity_part(ODD), rp.parity_part(ODD))


def test_cancelling_rational_coefficients():
    (x, rx), (y, ry), (xi, rxi) = var("x"), var("y"), var("xi")
    for p, rp in [
        (x / 2 + y / 3, rx / 2 + ry / 3),
        (x / 6 + x / 3, rx / 6 + rx / 3),            # 1/2: the denominator drops
        (x / 6 + x / 3 - x / 2 + y, rx / 6 + rx / 3 - rx / 2 + ry),  # x cancels
        ((x + xi) / 4 * (x - xi) * 4, (rx + rxi) / 4 * (rx - rxi) * 4),
        (x * Fraction(5, 6) * Fraction(6, 5), rx * Fraction(5, 6) * Fraction(6, 5)),
    ]:
        same(p, rp)
        same(p - p, rp - rp)
        same(live.partial(p * p, LIVE["x"]), ref.partial(rp * rp, REF["x"]))
    assert (x / 6 + x / 3 - x / 2).is_zero() and (x / 6 + x / 3)._den == 2


def test_sums_of_terms_with_different_denominators():
    # substitute and apply sum terms whose denominators differ from the
    # running sum's, in both directions
    (x, rx), (y, ry), (z, rz) = var("x"), var("y"), var("z")
    p, rp = x + y + x * y / 5 + 7, rx + ry + rx * ry / 5 + 7
    images = ({LIVE["x"]: y / 2 + Fraction(1, 3), LIVE["z"]: x * 3 / 4},
              {REF["x"]: ry / 2 + Fraction(1, 3), REF["z"]: rx * 3 / 4})
    same(live.substitute(p + z, images[0]), ref.substitute(rp + rz, images[1]))
    D = live.Derivation({LIVE["x"]: y / 3, LIVE["y"]: x + Fraction(1, 7)}, EVEN, (0,), check=False)
    R = ref.Derivation({REF["x"]: ry / 3, REF["y"]: rx + Fraction(1, 7)}, EVEN, (0,), check=False)
    same(live.apply(D, p), ref.apply(R, rp))


def test_exponents_past_the_field_width():
    (x, rx), (y, ry), (xi, rxi), (b, rb) = var("x"), var("y"), var("xi"), var("b")
    big, rbig = x ** 300, rx ** 300
    same(big, rbig)
    same(big * y, rbig * ry)
    same(big * (x + xi) - y ** 130, rbig * (rx + rxi) - ry ** 130)
    same(big * b, rbig * rb)
    same(big + y, rbig + ry)
    assert big * y == y * big and big != x ** 299
    same(live.partial(big * xi, LIVE["x"]), ref.partial(rbig * rxi, REF["x"]))
    same(live.partial(big * xi, LIVE["xi"]), ref.partial(rbig * rxi, REF["xi"]))
    same(live.substitute(big * y, {LIVE["x"]: y, LIVE["y"]: x}),
         ref.substitute(rbig * ry, {REF["x"]: ry, REF["y"]: rx}))
    # into a narrower ring of another chart, and two even variables into one
    same(live.ChartMap({LIVE["x"]: LIVE["a"]})(big * y), ref.remap(rbig * ry, {REF["x"]: REF["a"]}))
    same(live.ChartMap({LIVE["x"]: LIVE["b"], LIVE["y"]: LIVE["b"]})(big * y ** 200),
         ref.remap(rbig * ry ** 200, {REF["x"]: REF["b"], REF["y"]: REF["b"]}))


def test_nested_powers_from_a_spec_line():
    # the spec parser bounds each ^ at 16 but accepts nesting: x^4096
    from gradedbundles.specfile import parse_expression

    names = {n: LIVE[n] for n in ("x", "y")}
    p = parse_expression("((x^16)^16)^16 + 3/2*x*y", names, 1, 5)
    rx, ry = var("x")[1], var("y")[1]
    rp = rx ** 4096 + Fraction(3, 2) * rx * ry
    same(p, rp)
    same(p * p, rp * rp)
    same(live.partial(p, LIVE["x"]), ref.partial(rp, REF["x"]))


def test_products_of_all_square_free_monomials():
    # every interleaving of two monomials' factors, with every sign
    from itertools import product

    monomials = [
        both([(Fraction(1), [(n, 1) for n, used in zip(SOURCE_NAMES, mask) if used])])
        for mask in product((0, 1), repeat=len(SOURCE_NAMES))
    ]
    for (p, rp), (q, rq) in product(monomials, repeat=2):
        same(p * q, rp * rq)


@settings(max_examples=60, deadline=None)
@given(poly_desc(max_terms=3), st.integers(0, 5))
def test_powers(d, n):
    p, rp = both(d)
    same(p ** n, chain_power(rp, n))
    assert key(p ** n) == key(rp ** n)  # values as by the reference's own power


def test_power_term_order_is_that_of_the_squaring_chain():
    # a base whose cube has its terms in another order as (b*b)*b
    b, rb = both([(Fraction(1), []), (Fraction(-1), [("y", 2)]), (Fraction(2), [("y", 1)])])
    same(b ** 3, chain_power(rb, 3))
    assert key(rb ** 3) == key(chain_power(rb, 3))
    assert list(key(rb ** 3)) != list(key(chain_power(rb, 3)))
    # the same cube taken by substitute
    z3, rz3 = both([(Fraction(1), [("z", 3)])])
    same(live.substitute(z3, {LIVE["z"]: b}),
         ref.substitute(rz3, {REF["z"]: ChainPowers(rb.terms)}))


@settings(max_examples=100, deadline=None)
@given(poly_desc())
def test_partial_derivatives(d):
    p, rp = both(d)
    for name in SOURCE_NAMES:
        same(live.partial(p, LIVE[name]), ref.partial(rp, REF[name]))
        same(live.partial_right(p, LIVE[name]), ref.partial_right(rp, REF[name]))


def images_strategy():
    """For each source variable, either nothing or an image of its parity
    (a random polynomial cut down to that parity)."""
    return st.lists(
        st.one_of(st.none(), poly_desc(SOURCE_NAMES + TARGET_NAMES, 3)),
        min_size=len(SOURCE_NAMES), max_size=len(SOURCE_NAMES),
    )


def assignments(image_descs):
    live_map, ref_map = {}, {}
    for name, d in zip(SOURCE_NAMES, image_descs):
        if d is None:
            continue
        img, rimg = both(d)
        live_map[LIVE[name]] = img.parity_part(PARITY[name])
        ref_map[REF[name]] = ChainPowers(rimg.parity_part(PARITY[name]).terms)
    return live_map, ref_map


@settings(max_examples=100, deadline=None)
@given(poly_desc(), images_strategy())
def test_substitute(d, image_descs):
    p, rp = both(d)
    live_map, ref_map = assignments(image_descs)
    same(live.substitute(p, live_map), ref.substitute(rp, ref_map))


@settings(max_examples=60, deadline=None)
@given(poly_desc(), poly_desc(SOURCE_NAMES + TARGET_NAMES, 2))
def test_substitute_parity_mismatch(d, image_desc):
    p, rp = both(d)
    img, rimg = both(image_desc)
    odd_img, rodd_img = img.parity_part(ODD), rimg.parity_part(ODD)
    if odd_img.is_zero():
        return
    with pytest.raises(live.ParityMismatch):
        live.substitute(p, {LIVE["x"]: odd_img})
    with pytest.raises(ref.ParityMismatch):
        ref.substitute(rp, {REF["x"]: rodd_img})


def renaming(pairs):
    return ({LIVE[a]: LIVE[b] for a, b in pairs}, {REF[a]: REF[b] for a, b in pairs})


def check_remap(d, pairs):
    p, rp = both(d)
    live_map, ref_map = renaming(pairs)
    same(live.ChartMap(live_map)(p), ref.remap(rp, ref_map))


def renaming_strategy(names=SOURCE_NAMES + TARGET_NAMES):
    """A parity-preserving map of some source variables into the named ones."""
    choices = []
    for name in SOURCE_NAMES:
        same_parity = [n for n in names if PARITY[n] == PARITY[name]]
        choices.append(st.one_of(st.none(), st.sampled_from(same_parity)))
    return st.tuples(*choices).map(
        lambda picks: [(a, b) for a, b in zip(SOURCE_NAMES, picks) if b is not None]
    )


@settings(max_examples=150, deadline=None)
@given(poly_desc(), renaming_strategy())
def test_remap_random(d, pairs):
    check_remap(d, pairs)


# fixed maps that exercise every branch of the direct renaming
REVERSING = [("x", "c"), ("xi", "tau"), ("y", "b"),
             ("eta", "sigma"), ("z", "a"), ("theta", "rho")]
EVEN_COLLAPSE = [("x", "b"), ("y", "b"), ("z", "a")]
ODD_COLLAPSE = [("xi", "rho"), ("eta", "rho")]
SWAP_IN_PLACE = [("xi", "theta"), ("theta", "xi"), ("x", "z"), ("z", "x")]


@pytest.mark.parametrize(
    "pairs", [REVERSING, EVEN_COLLAPSE, ODD_COLLAPSE, SWAP_IN_PLACE],
    ids=["reversing", "even-collapse", "odd-collapse", "swap-in-place"],
)
@settings(max_examples=80, deadline=None)
@given(d=poly_desc())
def test_remap_fixed_maps(pairs, d):
    check_remap(d, pairs)


def test_remap_fixed_maps_on_full_products():
    # every variable once: the reversing map reorders all three odd factors
    full = [(Fraction(5, 2), [(n, 1) for n in SOURCE_NAMES]),
            (Fraction(-1), [("x", 2), ("xi", 1), ("eta", 1)])]
    for pairs in (REVERSING, EVEN_COLLAPSE, ODD_COLLAPSE, SWAP_IN_PLACE):
        check_remap(full, pairs)
    p, _ = both(full)
    # xi*eta*theta -> tau*sigma*rho: an odd permutation of three odd factors
    reversed_p = live.ChartMap(renaming(REVERSING)[0])(p)
    assert key(reversed_p)[(("t", "rho", 1), ("t", "a", 1), ("t", "sigma", 1),
                            ("t", "b", 1), ("t", "tau", 1), ("t", "c", 1))] == Fraction(-5, 2)
    # two odd variables sent to one: xi*eta terms vanish
    assert all(("t", "rho", 2) not in m for m in key(live.ChartMap(renaming(ODD_COLLAPSE)[0])(p)))


@settings(max_examples=40, deadline=None)
@given(poly_desc())
def test_remap_parity_mismatch(d):
    p, rp = both(d)
    live_map, ref_map = renaming([("x", "rho")])
    with pytest.raises(live.ParityMismatch):
        live.ChartMap(live_map)(p)
    with pytest.raises(ref.ParityMismatch):
        ref.remap(rp, ref_map)


def derivation_strategy():
    return st.tuples(
        st.integers(0, 1),
        st.lists(st.one_of(st.none(), poly_desc(max_terms=3)),
                 min_size=len(SOURCE_NAMES), max_size=len(SOURCE_NAMES)),
    )


def derivations(spec):
    par, descs = spec
    action, raction = {}, {}
    for name, d in zip(SOURCE_NAMES, descs):
        if d is None:
            continue
        c, rc = both(d)
        want = (PARITY[name] + par) % 2
        action[LIVE[name]] = c.parity_part(want)
        raction[REF[name]] = rc.parity_part(want)
    return (live.Derivation(action, par, (0,), check=False),
            ref.Derivation(raction, par, (0,), check=False))


def derivation_key(D):
    return {v.name: key(p) for v, p in D.action.items()}


@settings(max_examples=100, deadline=None)
@given(derivation_strategy(), derivation_strategy(), poly_desc())
def test_apply_and_commutator(s1, s2, d):
    (D1, R1), (D2, R2) = derivations(s1), derivations(s2)
    p, rp = both(d)
    same(live.apply(D1, p), ref.apply(R1, rp))
    C, RC = live.commutator(D1, D2), ref.commutator(R1, R2)
    assert derivation_key(C) == derivation_key(RC)
    assert (C.parity, C.weight_shift) == (RC.parity, RC.weight_shift)
    # a derivation with itself: computed once per coefficient
    S, RS = live.commutator(D1, D1), ref.commutator(R1, R1)
    assert derivation_key(S) == derivation_key(RS)
    assert (S.parity, S.weight_shift) == (RS.parity, RS.weight_shift)
    for v, c in S.action.items():
        same(c, RS.action[REF[v.name]])


# ------------------------------------------------------------- differential
def ref_differential(rp, rdot):
    """The oracle: sum of from_var(dot[u]) * partial(p, u), u in sort_key order."""
    out = ref.ZERO
    for u in sorted(rp.variables(), key=lambda v: v.sort_key):
        if u in rdot:
            out = out + ref.SuperPolynomial.from_var(rdot[u]) * ref.partial(rp, u)
    return out


def check_differential(p, rp, pairs):
    dot, rdot = renaming(pairs)
    d = live.Differential(dot)(p)
    same(d, ref_differential(rp, rdot))
    action = {u: live.SuperPolynomial.from_var(t) for u, t in dot.items()}
    assert d == live.apply(live.Derivation(action, EVEN, (0,), check=False), p)
    return d


def dot_strategy():
    """Some variables of either chart, each sent to a variable of either
    chart and of either parity: images inside p's ring and outside it."""
    names = SOURCE_NAMES + TARGET_NAMES
    return st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                    max_size=6, unique_by=lambda pair: pair[0])


@settings(max_examples=200, deadline=None)
@given(poly_desc(SOURCE_NAMES + TARGET_NAMES), dot_strategy())
def test_differential(d, pairs):
    check_differential(*both(d), pairs)


@settings(max_examples=100, deadline=None)
@given(poly_desc(), st.permutations(SOURCE_NAMES))
def test_differential_along_a_parity_preserving_map_of_the_chart(d, images):
    # the vertical-lift shape: every variable of p's own ring to one of its parity
    odd = [n for n in images if PARITY[n]]
    even = [n for n in images if not PARITY[n]]
    pairs = [(n, (odd if PARITY[n] else even).pop()) for n in SOURCE_NAMES]
    check_differential(*both(d), pairs)


def test_differential_fixed_cases():
    full = [(Fraction(5, 2), [(n, 1) for n in SOURCE_NAMES]),
            (Fraction(-1), [("x", 2), ("xi", 1), ("eta", 1)]),
            (Fraction(1, 3), [("y", 2), ("theta", 1), ("z", 1)])]
    p, rp = both(full)
    # zero p, and a dot that touches no variable of p
    assert check_differential(*both([]), REVERSING).is_zero()
    assert check_differential(*both([(Fraction(2), [("x", 1)])]), [("y", "b")]).is_zero()
    # odd factors moved past each other, onto odd variables of p and of the
    # undeclared chart, and onto even ones
    check_differential(p, rp, REVERSING)
    check_differential(p, rp, [("xi", "eta"), ("eta", "theta"), ("theta", "xi")])
    check_differential(p, rp, [("xi", "eta"), ("eta", "xi"), ("x", "rho"), ("y", "sigma")])
    check_differential(p, rp, [("xi", "x"), ("theta", "c"), ("z", "tau")])


def test_differential_widens_a_field_at_the_guard_bit():
    # x^127 fills x's 8-bit field up to its guard bit, and y -> x makes x^128
    for name in ("x", "b"):
        q, rq = both([(Fraction(1), [(name, 127), ("y", 1)]), (Fraction(-3), [("z", 1)])])
        assert q._ring.width == 8
        d = check_differential(q, rq, [("y", name), ("z", "y")])
        assert d._ring.width > 8
        assert key(d)[((("u", "x") if name == "x" else ("t", "b")) + (128,),)] == 1


# ---------------------------------------------------- compiled differential
def ref_scaled_differential(rp, rdot, rscale):
    """The oracle: the chained sum of scale[u] * from_var(dot[u]) *
    partial(p, u) over the variables u of p in declaration order."""
    out = ref.ZERO
    for u in sorted(rp.variables(), key=lambda v: v.sort_key):
        if u in rdot:
            out = out + ref.SuperPolynomial.from_var(rdot[u]) * ref.partial(rp, u) * rscale.get(u, 1)
    return out


def scales(pairs, factors):
    """The integer scale of each mapped variable, live and reference."""
    return ({LIVE[a]: f for (a, _), f in zip(pairs, factors)},
            {REF[a]: f for (a, _), f in zip(pairs, factors)})


@settings(max_examples=150, deadline=None)
@given(st.lists(poly_desc(SOURCE_NAMES + TARGET_NAMES), min_size=1, max_size=5),
       dot_strategy(), st.lists(st.integers(-3, 3).filter(bool), min_size=6, max_size=6),
       st.booleans())
def test_one_differential_on_many_polynomials(descs, pairs, factors, scaled):
    # polynomials over the declared chart, over the undeclared one and over
    # both, each of mixed parity, through one compiled differential, twice
    dot, rdot = renaming(pairs)
    scale, rscale = scales(pairs, factors) if scaled else (None, {})
    D = live.Differential(dot, scale)
    for d in descs + descs:
        p, rp = both(d)
        same(D(p), ref_scaled_differential(rp, rdot, rscale))
    if not scaled:
        p, rp = both(descs[0])
        same(D(p), live.Differential(dot)(p))


def test_one_differential_widens_and_keeps_a_plan_per_ring():
    # odd to odd past other odd factors, even to even, odd to the undeclared
    # chart; x^127 fills x's field up to its guard bit, so y -> x widens
    pairs = [("y", "x"), ("z", "y"), ("xi", "eta"), ("eta", "rho"), ("b", "a"),
             ("theta", "xi")]
    dot, rdot = renaming(pairs)
    scale, rscale = scales(pairs, [3, 1, -2, 1, 5, 1])
    D = live.Differential(dot, scale)
    narrow = [(Fraction(1, 2), [("y", 2), ("xi", 1)]), (Fraction(-1), [("z", 1), ("eta", 1)]),
              (Fraction(2, 3), [("eta", 1), ("theta", 1), ("y", 1)])]
    wide = [(Fraction(1), [("x", 127), ("y", 1)]), (Fraction(-3), [("z", 1)])]
    other = [(Fraction(2), [("b", 2), ("rho", 1)]), (Fraction(1), [("eta", 1), ("b", 1)])]
    polys = [both(desc) for desc in (narrow, wide, other)]
    for p, rp in polys + polys:
        got = D(p)
        same(got, ref_scaled_differential(rp, rdot, rscale))
        if p is polys[1][0]:
            assert p._ring.width == 8 and got._ring.width > 8
            assert key(got)[(("u", "x", 128),)] == 3
    # the declared chart and the ring of b, rho and eta: one plan each
    assert polys[0][0]._ring is polys[1][0]._ring is SOURCE_RING
    assert set(D._plans) == {SOURCE_RING, polys[2][0]._ring}


# -------------------------------------------------- the derivative kernel
@settings(max_examples=150, deadline=None)
@given(rational_desc(SOURCE_NAMES + TARGET_NAMES), st.booleans())
def test_derivatives_in_one_pass_are_the_partials(d, widen):
    p, rp = both(d)
    if widen:
        x, rx = var("x")
        p, rp = p * x ** 130 + p, rp * rx ** 130 + rp
    ring = p._ring
    w = ring.width
    everything = sum(((1 << w) - 1) << (i * w) for i in range(len(ring.vars)))
    for right, oracle in ((False, ref.partial), (True, ref.partial_right)):
        outs = live._derivatives(p._num, ring, everything, right)
        for i, v in enumerate(ring.vars):
            got = live._make(ring, dict(outs.get(i * w, {})), p._den)
            same(got, oracle(rp, REF[v.name]))
            same(got, (live.partial_right if right else live.partial)(p, v))


def test_right_derivatives_by_an_odd_variable_put_even_terms_first():
    # terms in the order odd, even, odd, even; by xi on the right the even
    # terms come first, with their sign, then the odd ones
    p, rp = both([(Fraction(1), [("xi", 1), ("x", 1)]),
                  (Fraction(2), [("xi", 1), ("eta", 1)]),
                  (Fraction(3), [("xi", 1), ("y", 1)]),
                  (Fraction(4), [("xi", 1), ("theta", 1)])])
    ring, w = p._ring, p._ring.width
    i = ring.pos(LIVE["xi"])
    outs = live._derivatives(p._num, ring, ((1 << w) - 1) << (i * w), True)
    got = live._make(ring, dict(outs[i * w]), p._den)
    assert list(key(got).items()) == [
        ((("u", "eta", 1),), Fraction(-2)), ((("u", "theta", 1),), Fraction(-4)),
        ((("u", "x", 1),), Fraction(1)), ((("u", "y", 1),), Fraction(3))]
    same(got, ref.partial_right(rp, REF["xi"]))


# ---------------------------------------------------------------- ChartMap
# into the declared copy: in order (the direct move: in place, or by fields
# moving down and up by different offsets), swapping two even variables (the
# direct move too: even images may pass any other), and swapping two even
# and two odd variables (an odd reorder within one ring)
INTO_COPY = [(n, "s" + n) for n in SOURCE_NAMES]
SQUEEZE_INTO_COPY = [("x", "sx"), ("xi", "sxi"), ("z", "sy"), ("theta", "seta")]
SPREAD_INTO_COPY = [("x", "sx"), ("xi", "sxi"), ("y", "sz"), ("eta", "stheta")]
EVEN_SWAP_INTO_COPY = [("x", "sz"), ("z", "sx"), ("xi", "sxi"), ("theta", "stheta"),
                       ("y", "sy"), ("eta", "seta")]
SWAP_INTO_COPY = [("x", "sz"), ("z", "sx"), ("xi", "stheta"), ("theta", "sxi"),
                  ("y", "sy"), ("eta", "seta")]


def polynomials_strategy():
    """A few source polynomials, and whether to add one over a widened ring."""
    return st.tuples(st.lists(poly_desc(), min_size=1, max_size=4), st.booleans())


def polynomials(spec):
    descs, widen = spec
    out = [both(d) for d in descs]
    if widen:  # x^130 does not fit x's 8-bit field
        (p, rp), (x, rx) = out[0], var("x")
        out.append((p * x ** 130, rp * rx ** 130))
    return out


def check_chart_map(pairs, live_map, ref_map, one_off, ref_one_off):
    """One ChartMap applied to every polynomial, against one map per
    polynomial and against the reference."""
    m = live.ChartMap(live_map)
    for p, rp in pairs:
        got = m(p)
        same(got, one_off(p, live_map))
        same(got, ref_one_off(rp, ref_map))
    assert len(m._plans) <= 2  # one plan per source ring, reused


@settings(max_examples=100, deadline=None)
@given(polynomials_strategy(), images_strategy())
def test_chart_map_substitution(spec, image_descs):
    live_map, ref_map = assignments(image_descs)
    check_chart_map(polynomials(spec), live_map, ref_map, live.substitute, ref.substitute)


def check_renaming(spec, pairs, extra=()):
    live_map, ref_map = renaming(pairs)
    check_chart_map(polynomials(spec) + [both(d) for d in extra], live_map, ref_map,
                    lambda p, m: live.ChartMap(m)(p), ref.remap)


@settings(max_examples=150, deadline=None)
@given(polynomials_strategy(), renaming_strategy(SOURCE_NAMES + TARGET_NAMES + COPY_NAMES))
def test_chart_map_renaming_random(spec, pairs):
    check_renaming(spec, pairs)


@pytest.mark.parametrize(
    "pairs", [INTO_COPY, INTO_COPY[::2], SQUEEZE_INTO_COPY, SPREAD_INTO_COPY, SWAP_INTO_COPY,
              EVEN_SWAP_INTO_COPY, REVERSING, EVEN_COLLAPSE, ODD_COLLAPSE],
    ids=["into-copy", "half-into-copy", "squeeze-into-copy", "spread-into-copy",
         "swap-into-copy", "even-swap-into-copy", "outside-one-ring", "even-collapse",
         "odd-collapse"],
)
@settings(max_examples=60, deadline=None)
@given(spec=polynomials_strategy(), data=st.data())
def test_chart_map_renaming_fixed_maps(pairs, spec, data):
    # and polynomials in the assigned variables only, which a map in order
    # into one ring moves directly
    assigned = st.lists(poly_desc([a for a, _ in pairs]), max_size=3)
    check_renaming(spec, pairs, data.draw(assigned))


def test_chart_map_moves_in_order_and_reorders_with_the_koszul_sign():
    full = [(Fraction(5, 2), [(n, 1) for n in SOURCE_NAMES]),
            (Fraction(-1), [("x", 2), ("xi", 1), ("eta", 1)])]
    p, rp = both(full)
    into_copy = live.ChartMap(renaming(INTO_COPY)[0])
    moved = into_copy(p)
    assert moved._ring is COPY_RING and into_copy._plans[p._ring][4] is COPY_RING
    assert list(key(moved).values()) == list(key(p).values())
    # x <-> z alone in the copy moves too: the odd images keep their order
    even_swapped = live.ChartMap(renaming(EVEN_SWAP_INTO_COPY)[0])
    assert even_swapped(p)._ring is COPY_RING and even_swapped._plans[p._ring][4] is COPY_RING
    same(even_swapped(p), ref.remap(rp, renaming(EVEN_SWAP_INTO_COPY)[1]))
    # x <-> z and xi <-> theta in the copy: xi*eta*theta -> stheta*seta*sxi
    swapped = live.ChartMap(renaming(SWAP_INTO_COPY)[0])
    assert swapped._plans.get(p._ring) is None and swapped(p) == live.ChartMap(swapped.assignment)(p)
    assert swapped._plans[p._ring][4] is None
    assert key(swapped(p))[tuple(("s", n, 1) for n in COPY_NAMES)] == Fraction(-5, 2)
    same(swapped(p), ref.remap(rp, renaming(SWAP_INTO_COPY)[1]))


@settings(max_examples=40, deadline=None)
@given(polynomials_strategy(), poly_desc(SOURCE_NAMES + TARGET_NAMES, 2))
def test_chart_map_parity_mismatch_on_every_application(spec, image_desc):
    img, _ = both(image_desc)
    odd_img = img.parity_part(ODD)
    if odd_img.is_zero():
        return
    for assignment in ({LIVE["x"]: odd_img}, {LIVE["x"]: LIVE["rho"]}):
        m = live.ChartMap(assignment)  # built without a check
        for p, _ in polynomials(spec) * 2:
            with pytest.raises(live.ParityMismatch, match="image of x"):
                m(p)


# -------------------------------------------------------- sums of products
# apply, the odd bracket and substitution multiply the last factor of each
# product straight into their sum; these compare them, over both charts,
# with rational denominators and widened rings, with the reference's chained
# sums
def mixed_derivation_strategy():
    names = SOURCE_NAMES + TARGET_NAMES
    return st.tuples(
        st.integers(0, 1),
        st.lists(st.tuples(st.sampled_from(names), poly_desc(names, 3)), max_size=5,
                 unique_by=lambda entry: entry[0]),
    )


def mixed_derivations(spec):
    """A derivation acting on variables of either chart, with coefficients of
    either chart cut down to the parity each needs."""
    par, entries = spec
    action, raction = {}, {}
    for name, d in entries:
        c, rc = both(d)
        want = (PARITY[name] + par) % 2
        action[LIVE[name]] = c.parity_part(want)
        raction[REF[name]] = rc.parity_part(want)
    return (live.Derivation(action, par, (0,), check=False),
            ref.Derivation(raction, par, (0,), check=False))


@settings(max_examples=100, deadline=None)
@given(mixed_derivation_strategy(), poly_desc(SOURCE_NAMES + TARGET_NAMES), st.booleans())
def test_apply_across_charts_and_widened_rings(spec, d, widen):
    D, R = mixed_derivations(spec)
    p, rp = both(d)
    if widen:  # x^130 does not fit x's 8-bit field
        x, rx = var("x")
        p, rp = p * x ** 130 + p, rp * rx ** 130 + rp
    same(live.apply(D, p), ref.apply(R, rp))


PAIRS = [("x", "xi"), ("y", "eta"), ("z", "theta")]


def odd_poisson_space():
    from gradedbundles.algebroid import OddPoissonSpace
    from gradedbundles.bundle import CoordinateSystem

    # an equal chart shares the source chart's ring and variables
    system = CoordinateSystem([(n, w, par) for _, n, w, par, _ in SOURCE], name="u")
    assert system.variables is SOURCE_RING.vars
    return OddPoissonSpace(system, [(LIVE[q], LIVE[qs]) for q, qs in PAIRS])


def ref_bracket(rf, rg):
    """The oracle: the chained sum over the pairs (q, q*) of
    partial_right(f, q) partial(g, q*) - partial_right(f, q*) partial(g, q)."""
    out = ref.ZERO
    for q, qs in PAIRS:
        out = out + ref.partial_right(rf, REF[q]) * ref.partial(rg, REF[qs])
        out = out - ref.partial_right(rf, REF[qs]) * ref.partial(rg, REF[q])
    return out


@settings(max_examples=100, deadline=None)
@given(poly_desc(), poly_desc(), st.booleans())
def test_odd_poisson_bracket(d1, d2, widen):
    space = odd_poisson_space()
    (f, rf), (g, rg) = both(d1), both(d2)
    if widen:
        y, ry = var("y")
        f, rf = f * y ** 120, rf * ry ** 120
        g, rg = g * y ** 20, rg * ry ** 20
    same(space.bracket(f, g), ref_bracket(rf, rg))
    same(space.bracket(g, f), ref_bracket(rg, rf))


def test_substitution_multiplies_the_last_factor_into_the_sum():
    # a constant term and terms of one, two and three factors: x -> xi theta
    # and eta -> xi make x eta y vanish before its last factor, z -> 0 makes
    # a last factor zero, xi -> theta + rho is reordered past other odd
    # images, and y -> x^100 / 2 + eta xi overflows x's field when squared
    p, rp = both([(Fraction(3, 2), []), (Fraction(1), [("x", 1)]),
                  (Fraction(-2, 3), [("x", 1), ("y", 1)]),
                  (Fraction(1), [("x", 1), ("xi", 1), ("y", 2)]),
                  (Fraction(5), [("x", 1), ("eta", 1), ("y", 1)]),
                  (Fraction(1, 3), [("xi", 1), ("eta", 1)]),
                  (Fraction(-1), [("y", 1), ("z", 2)])])
    images = {"x": [(Fraction(1), [("xi", 1), ("theta", 1)])],
              "xi": [(Fraction(1), [("theta", 1)]), (Fraction(-1), [("rho", 1)])],
              "y": [(Fraction(1, 2), [("x", 100)]), (Fraction(1), [("eta", 1), ("xi", 1)])],
              "eta": [(Fraction(1), [("xi", 1)])],
              "z": []}
    live_map, ref_map = {}, {}
    for name, desc in images.items():
        img, rimg = both(desc)
        live_map[LIVE[name]] = img
        ref_map[REF[name]] = ChainPowers(rimg.terms)
    got = live.substitute(p, live_map)
    same(got, ref.substitute(rp, ref_map))
    assert got._ring.width > 8
    same(live.ChartMap(live_map)(p * p), ref.substitute(rp * rp, ref_map))
