import pickle
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gradedbundles import superalg
from gradedbundles.superalg import (
    Derivation,
    EVEN,
    ODD,
    ParityMismatch,
    SuperPolynomial,
    Variable,
    ZERO,
    apply,
    commutator,
    partial,
    partial_right,
    remap,
    substitute,
    weight_of,
)
from helpers import SRC_DIR, run_python_subprocess

# one fixed mixed universe: three even, three odd generators
X = Variable("u", "x", (0,), EVEN, 0)
Y = Variable("u", "y", (1,), EVEN, 1)
Z = Variable("u", "z", (2,), EVEN, 2)
XI = Variable("u", "xi", (1,), ODD, 3)
ETA = Variable("u", "eta", (1,), ODD, 4)
THETA = Variable("u", "theta", (2,), ODD, 5)
UNIVERSE = (X, Y, Z, XI, ETA, THETA)

x, y, z, xi, eta, theta = (SuperPolynomial.from_var(v) for v in UNIVERSE)


def poly_strategy():
    coeff = st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
    )
    exps = st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
        st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
    )
    term = st.tuples(coeff, exps)

    def build(terms):
        p = ZERO
        for c, es in terms:
            m = SuperPolynomial.constant(c)
            for v, e in zip(UNIVERSE, es):
                for _ in range(e):
                    m = m * SuperPolynomial.from_var(v)
            p = p + m
        return p

    return st.lists(term, max_size=4).map(build)


def test_odd_anticommutation():
    assert xi * eta == -(eta * xi)
    assert (xi * eta).terms  # nonzero


def test_odd_nilpotence():
    assert (xi * xi).is_zero()
    for v in (XI, ETA, THETA):
        p = SuperPolynomial.from_var(v)
        assert (p * p).is_zero()


def test_mixed_square_expansion():
    # (x + xi eta)^2 = x^2 + 2 x xi eta: cross terms add, (xi eta)^2 = 0
    p = x + xi * eta
    assert p * p == x * x + 2 * (x * xi * eta)


def test_partial_left_convention():
    assert partial(xi * eta, XI) == eta
    assert partial(xi * eta, ETA) == -xi
    assert partial(x * x * y, X) == 2 * (x * y)


def test_partial_right():
    assert partial_right(xi * eta, ETA) == xi
    assert partial_right(xi * eta, XI) == -eta


def test_substitute_swap_of_odd_pair():
    p = xi * eta
    swapped = substitute(p, {XI: eta, ETA: xi})
    assert swapped == -p


def test_substitute_identity():
    p = x * y + 3 * xi * theta
    assert substitute(p, {v: SuperPolynomial.from_var(v) for v in UNIVERSE}) == p


def test_substitute_linear_change():
    t = Variable("u2", "t", (0,), EVEN, 0)
    yy = Variable("u2", "yy", (1,), EVEN, 1)
    image = SuperPolynomial.from_var(t) * SuperPolynomial.from_var(yy)
    assert substitute(y * y, {Y: image}) == image * image


def test_substitute_parity_mismatch():
    with pytest.raises(ParityMismatch):
        substitute(y, {Y: xi})
    with pytest.raises(ParityMismatch):
        substitute(xi, {XI: x})


def test_weight_of():
    assert weight_of(z * y) == (3,)
    assert weight_of(x + y) == "inhomogeneous"
    assert weight_of(ZERO) == "zero"
    assert weight_of(SuperPolynomial.constant(5), 1) == (0,)


def test_weight_of_rejects_a_monomial_of_mixed_weight_arity():
    v = SuperPolynomial.from_var(Variable("w", "v", (1, 0), EVEN, 0))
    with pytest.raises(ValueError, match=r"^weight arity mismatch: \(1, 0\) vs \(0,\)$"):
        weight_of(v * x + y)


def test_weight_vector_field_action():
    delta = Derivation({Y: 1 * y, Z: 2 * z, XI: 1 * xi, ETA: 1 * eta,
                        THETA: 2 * theta}, EVEN, (0,))
    assert apply(delta, y) == y
    assert apply(delta, z) == 2 * z
    assert apply(delta, SuperPolynomial.constant(7)).is_zero()


def test_apply_de_rham():
    q = Derivation({X: xi}, ODD, (1,))
    assert apply(q, x * x) == 2 * (x * xi)
    assert commutator(q, q).is_zero()


def test_commutator_classical():
    d_x = Derivation({X: SuperPolynomial.constant(1)}, EVEN, (0,), check=False)
    x_dx = Derivation({X: x}, EVEN, (0,))
    assert commutator(d_x, x_dx) == d_x


def test_odd_self_commutator_by_composition():
    # D with action xi -> x: [D, D] = 2 D o D kills both generators
    d = Derivation({XI: x}, ODD, (-1,))
    dd = commutator(d, d)
    assert dd.coefficient(XI).is_zero()
    assert dd.coefficient(X).is_zero()
    assert dd.is_zero()


@settings(max_examples=100, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_koszul_commutation(p, q):
    pq = p * q
    for pp in (p.parity_part(0), p.parity_part(1)):
        for qp in (q.parity_part(0), q.parity_part(1)):
            sign = -1 if (pp.parity() == 1 and qp.parity() == 1) else 1
            assert pp * qp == sign * (qp * pp)
    assert pq == p.parity_part(0) * q + p.parity_part(1) * q


@settings(max_examples=100, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=100, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_graded_leibniz_partial(p, q):
    for v in (X, XI, THETA):
        for pp in (p.parity_part(0), p.parity_part(1)):
            sign = -1 if (v.parity == ODD and pp.parity() == 1) else 1
            lhs = partial(pp * q, v)
            rhs = partial(pp, v) * q + sign * (pp * partial(q, v))
            assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_substitute_is_a_homomorphism(p, q):
    t = Variable("u3", "t", (0,), EVEN, 0)
    rho = Variable("u3", "rho", (1,), ODD, 1)
    sigma = Variable("u3", "sigma", (1,), ODD, 2)
    tt = SuperPolynomial.from_var(t)
    images = {
        X: tt * tt + 2 * tt,
        Y: 3 * tt,
        XI: SuperPolynomial.from_var(rho) + tt * SuperPolynomial.from_var(sigma),
        ETA: SuperPolynomial.from_var(sigma),
    }
    assert substitute(p * q, images) == substitute(p, images) * substitute(q, images)


@settings(max_examples=100, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_weight_additivity(p, q):
    wp, wq = weight_of(p, 1), weight_of(q, 1)
    if isinstance(wp, tuple) and isinstance(wq, tuple):
        w = weight_of(p * q, 1)
        assert w == "zero" or w == (wp[0] + wq[0],)


def _random_derivation(rng):
    par = rng.randrange(2)
    action = {}
    for v in UNIVERSE:
        if rng.randrange(2):
            continue
        p = _random_poly(rng)
        p = p.parity_part((par + v.parity) % 2)
        if not p.is_zero():
            action[v] = p
    return Derivation(action, par, (0,), check=False)


def _random_poly(rng):
    p = ZERO
    for _ in range(rng.randrange(1, 4)):
        m = SuperPolynomial.constant(Fraction(rng.randrange(-3, 4) or 1))
        for v in rng.sample(UNIVERSE, rng.randrange(1, 4)):
            m = m * SuperPolynomial.from_var(v)
        p = p + m
    return p


def test_graded_leibniz_apply():
    rng = random.Random(11)
    for _ in range(40):
        d = _random_derivation(rng)
        p = _random_poly(rng)
        q = _random_poly(rng)
        for pp in (p.parity_part(0), p.parity_part(1)):
            sign = -1 if (d.parity == ODD and pp.parity() == 1) else 1
            assert apply(d, pp * q) == apply(d, pp) * q + sign * (pp * apply(d, q))


def test_graded_jacobi_commutator():
    rng = random.Random(5)
    for _ in range(25):
        a, b, c = (_random_derivation(rng) for _ in range(3))
        lhs = commutator(a, commutator(b, c))
        mid = commutator(commutator(a, b), c)
        sign = -1 if (a.parity and b.parity) else 1
        rhs = mid + sign * commutator(b, commutator(a, c))
        assert lhs == rhs


def test_commutator_weight_shift_adds():
    d1 = Derivation({Y: z}, EVEN, (1,))
    d2 = Derivation({Z: y * y}, EVEN, (0,))
    assert commutator(d1, d2).weight_shift == (1,)


# ------------------------------------------------------ invariants of the core
@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_results_never_share_a_dict(p, q):
    results = [p + q, p - q, p * q, p ** 1, p ** 0, -p, p * 1,
               p.parity_part(EVEN), p.parity_part(ODD),
               substitute(p, {}), remap(p, {}),
               partial(p, X), partial_right(p, XI)]
    # the numerator dicts, since ``terms`` is a fresh view on every access
    for r in results:
        assert r._num is not p._num and r._num is not q._num
    assert len({id(r._num) for r in results}) == len(results)


def test_power_uses_repeated_squaring(monkeypatch):
    calls = []
    mul_terms = superalg._mul_terms

    def counting(a, b):
        calls.append(1)
        return mul_terms(a, b)

    monkeypatch.setattr(superalg, "_mul_terms", counting)
    p = (1 + x) ** 400
    # 400 = 0b110010000: 8 squarings and 2 further products
    assert len(calls) == 10
    monkeypatch.undo()
    assert p.terms == {((X, k),) if k else (): Fraction(comb(400, k)) for k in range(401)}


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError):
        SuperPolynomial({(): 0.1})
    with pytest.raises(TypeError):
        SuperPolynomial({((X, 1),): 1.0})
    with pytest.raises(TypeError):
        SuperPolynomial.constant(0.5)
    for bad in (lambda: x * 0.5, lambda: 0.5 * x, lambda: x + 0.5, lambda: x / 0.5):
        with pytest.raises(TypeError):
            bad()


def test_division_by_zero_raises_zero_division():
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero
    assert (x + y) / Fraction(2, 3) == Fraction(3, 2) * x + Fraction(3, 2) * y


def test_constructor_rejects_non_canonical_monomials():
    for m in (((Y, 1), (X, 1)), ((XI, 2),), ((X, 0),), ((X, 1), (X, 1))):
        with pytest.raises(ValueError):
            SuperPolynomial({m: 1})
    assert SuperPolynomial({((X, 1), (XI, 1)): Fraction(1, 2), (): 0}) == (x * xi) / 2


def test_variable_equality_and_hash_are_by_value():
    a = Variable("u", "x", (0,), EVEN, 0)
    assert a is not X and a == X and hash(a) == hash(X)
    assert hash(a) == hash(("u", "x", (0,), EVEN, 0))
    for other in (Variable("v", "x", (0,), EVEN, 0),
                  Variable("u", "x", (1,), EVEN, 0),
                  Variable("u", "x", (0,), ODD, 0),
                  Variable("u", "x", (0,), EVEN, 1)):
        assert a != other
    assert a.sort_key == (0, "x", "u")
    assert (a == ("u", "x", (0,), EVEN, 0)) is False


def test_variable_hash_survives_pickling_across_processes():
    # the hash is cached per process, and string hashes differ between
    # processes, so an unpickled variable must hash afresh
    code = ("import pickle, sys; from gradedbundles.superalg import Variable; "
            "sys.stdout.write(pickle.dumps(Variable('u', 'x', (0,), 0, 0)).hex())")
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": "12345"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    v = pickle.loads(bytes.fromhex(out))
    assert v == X and hash(v) == hash(X) and v in {X}


def test_a_new_chart_hashes_each_variable_once(monkeypatch):
    # declaring a fresh chart and dropping it: the lookup, the insert and
    # the removal of its ring once hashed the variable tuple each
    variables = [Variable("hash_once", f"v{i}", (i,), i % 2, i) for i in range(6)]
    calls = []
    original = Variable.__hash__

    def spy(v):
        calls.append(v)
        return original(v)

    monkeypatch.setattr(Variable, "__hash__", spy)
    ring = superalg.declare_chart(variables)
    gone = weakref.ref(ring)
    del ring
    assert gone() is None
    assert len(calls) <= len(variables)


def test_equal_polynomials_over_different_rings_hash_equal():
    # one polynomial over its chart's ring, over a ring merged with another
    # chart, and over the chart's ring at twice the field width
    ring = superalg.declare_chart([Variable("h", "a", (0,), EVEN, 0),
                                   Variable("h", "b", (1,), EVEN, 1)])
    a, b = (SuperPolynomial.from_var(v) for v in ring.vars)
    chart = Fraction(3, 2) * a * b - b + 7
    merged = (chart + x) - x
    big = a ** 200
    widened = (chart + big) - big
    assert chart._ring is ring
    assert merged._ring.vars != ring.vars and widened._ring.width > ring.width
    assert chart == merged == widened
    assert hash(chart) == hash(merged) == hash(widened)
    assert merged in {chart} and widened in {chart} and len({chart, merged, widened}) == 1
    assert hash(chart) != hash(chart * 2) and chart * 2 not in {chart}


def test_constants_hash_as_their_scalars():
    assert 3 in {SuperPolynomial.constant(3)}
    assert Fraction(1, 2) in {SuperPolynomial.constant(Fraction(1, 2))}
    assert 0 in {ZERO}
    assert hash(SuperPolynomial.constant(Fraction(4, 2))) == hash(2)
    assert SuperPolynomial.constant(3) in {3} and ZERO in {0}


COMMUTATOR_ORDER_SCRIPT = """
from gradedbundles.constructions import StructureConstants, lie_tower
from gradedbundles.superalg import Derivation, SuperPolynomial, Variable, commutator
c = StructureConstants(4, {(1, 2, 3): 1, (2, 3, 4): 1, (1, 3, 2): 2, (3, 4, 1): 1})
D = lie_tower(c, 2).q.derivation
print([v.name for v in commutator(D, D).action])
vs = [Variable("u", n, (1,), 0, i) for i, n in enumerate("abcdefgh")]
ps = [SuperPolynomial.from_var(v) for v in vs]
D1 = Derivation({v: p * ps[1] for v, p in zip(vs[::2], ps[::2])}, 0, (1,))
D2 = Derivation({v: p * ps[0] for v, p in zip(vs[1::2], ps[1::2])}, 0, (1,))
print([v.name for v in commutator(D1, D2).action])
"""


def test_commutator_order_does_not_depend_on_the_hash_seed():
    # the action once iterated a set of variables: [Q,Q] of this
    # non-Jacobi tower listed its two keys in either order
    outputs = set()
    for seed in ("0", "1", "5"):
        proc = run_python_subprocess(["-c", COMMUTATOR_ORDER_SCRIPT], seed=seed)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    square, mixed = outputs.pop().splitlines()
    assert square == "['theta_xi3', 'theta_xi1']"
    # first-seen order: the keys of D1, then those of D2
    assert mixed == "['a', 'c', 'e', 'g', 'b', 'd', 'f', 'h']"


# ------------------------------------------------------------ rejected input
@pytest.mark.parametrize("build, message", [
    (lambda: superalg.weight_add((1,), (1, 2)), r"^weight arity mismatch: \(1,\) vs \(1, 2\)$"),
    (lambda: Variable("u", "v", (1, -1), EVEN, 0), r"^negative weight on v: \(1, -1\)$"),
    (lambda: Variable("u", "v", (1,), 2, 0), "^parity must be 0 or 1, got 2$"),
    (lambda: superalg.declare_chart([Variable("ix", "v", (0,), EVEN, 1)]),
     "^v has index 1, not its position 0$"),
    (lambda: y ** -1, "^negative powers are not defined$"),
], ids=["weight-add-arity", "variable-weight", "variable-parity", "chart-index", "negative-power"])
def test_malformed_algebra_input_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("action, message", [
    ({Y: z}, r"^coefficient of d/dy has weight \(2,\), expected \(1,\)$"),
    ({Y: xi}, "^coefficient of d/dy has parity 1, expected 0$"),
], ids=["weight", "parity"])
def test_derivation_rejects_an_inhomogeneous_coefficient(action, message):
    with pytest.raises(ValueError, match=message):
        Derivation(action, EVEN, (0,))


def test_derivation_sum():
    D = Derivation({Y: y, Z: z}, EVEN, (0,)) + Derivation({Y: 2 * y, X: x}, EVEN, (0,))
    assert D.action == {Y: 3 * y, Z: z, X: x}
    with pytest.raises(ValueError, match="^can only add derivations of equal parity and shift$"):
        D + Derivation({Y: z}, EVEN, (1,))


def test_constructor_widens_for_a_large_exponent():
    # an exponent of 128 or more does not fit the default field width
    p = SuperPolynomial({((Y, 200),): 3, ((X, 1), (Y, 1)): Fraction(1, 2)})
    assert p == 3 * y ** 200 + x * y / 2
    assert p.terms == {((Y, 200),): Fraction(3), ((X, 1), (Y, 1)): Fraction(1, 2)}
