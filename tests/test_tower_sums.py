"""Value pins for the sums of the tower and cotangent constructions.

Each construction sums its polynomials in one pass and forms each product
once.  The oracles here are the plain chained formulas, ``out = out + term``
one term at a time, written out in full; the constructions must give the
same values, term by term, and the same reduced denominators.

Inputs: gl(2) in a seeded rational basis, and dense seeded antisymmetric
constants in dimension 4 that violate Jacobi, each as a k = 3 tower, with
random sections whose Y and Z entries are sometimes absent.
"""

import random
from fractions import Fraction

import pytest

from gradedbundles.superalg import (
    ChartMap,
    Derivation,
    EVEN,
    ODD,
    SuperPolynomial,
    ZERO,
    partial,
)
from gradedbundles.algebroid import (
    _tri_chart,
    anchor,
    epsilon_components,
    extract_coefficients,
)
from gradedbundles.constructions import (
    StructureConstants,
    cotangent_algebroid,
    lie_tower,
    linear_poisson,
    prolongation_roles,
    reduced_bracket,
    tower_section_polynomial,
)

from helpers import random_tower_section, rational_nonzero

var = SuperPolynomial.from_var
DIM, K = 4, 3


def gl2_constants():
    """gl(2) in the basis E11, E12, E21, E22: [Eij, Ekl] = djk Eil - dli Ekj."""
    basis = [(1, 1), (1, 2), (2, 1), (2, 2)]
    c = {}
    for a, (i, j) in enumerate(basis):
        for b, (k, l) in enumerate(basis):
            for m, (p, q) in enumerate(basis):
                v = (j == k and (p, q) == (i, l)) - (l == i and (p, q) == (k, j))
                if v:
                    c[(a + 1, b + 1, m + 1)] = Fraction(v)
    return c


def in_basis(c, B):
    """The constants of the basis f_i = sum_a B[i][a] e_a; B is lower
    triangular with a nonzero diagonal, so e = B^-1 f by back substitution."""
    n = len(B)
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        inv[i][i] = 1 / B[i][i]
        for j in range(i):
            inv[i][j] = -sum(B[i][m] * inv[m][j] for m in range(j, i)) / B[i][i]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                v = sum(B[i][a] * B[j][b] * c.get((a + 1, b + 1, m + 1), 0) * inv[m][k]
                        for a in range(n) for b in range(n) for m in range(n))
                if v:
                    out[(i + 1, j + 1, k + 1)] = v
    return StructureConstants(n, out)


def gl2_in_random_basis(rng):
    B = [[rational_nonzero(rng) if j <= i else Fraction(0) for j in range(DIM)]
         for i in range(DIM)]
    return in_basis(gl2_constants(), B)


def dense_non_jacobi(rng):
    while True:
        c = StructureConstants(DIM, {
            (i, j, k): rational_nonzero(rng)
            for i in range(1, DIM + 1) for j in range(i + 1, DIM + 1)
            for k in range(1, DIM + 1)
        })
        if not c.satisfies_jacobi:
            return c


CASES = {
    f"{name}-seed{seed}": (make, seed)
    for name, make in (("gl2", gl2_in_random_basis), ("nonjacobi", dense_non_jacobi))
    for seed in (1, 2)
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make, seed = CASES[request.param]
    rng = random.Random(seed)
    c = make(rng)
    return c, lie_tower(c, K), rng


def same(p, q):
    assert p.terms == q.terms
    assert p._den == q._den


def same_maps(got, want):
    assert list(got) == list(want)
    for key in want:
        same(got[key], want[key])


# ------------------------------------------------------------ chained oracles
def chained_apply(D, p):
    out = ZERO
    for v, coeff in D.action.items():
        if p.involves(v):
            out = out + coeff * partial(p, v)
    return out


def chained_tower_action(tower):
    """The structure field of a tower over a point: the CE term
    -1/2 xi_a xi_b c^c_ab on each xi_c, then dy d/dy."""
    phase, (data, roles) = tower.phase, prolongation_roles(tower)
    xi_of = {n: phase.theta_of[x] for n, x in roles["xi"].items()}
    action = {}
    for (a, b, c), p in data.bracket.items():
        term = var(xi_of[a]) * var(xi_of[b]) * p * Fraction(-1, 2)
        action[xi_of[c]] = action.get(xi_of[c], ZERO) + term
    for key, y in roles["y"].items():
        action[phase.x_of[y]] = var(phase.theta_of[roles["dy"][key]])
    return {v: p for v, p in action.items() if not p.is_zero()}


def chained_p_from_q(phase, action):
    P = ZERO
    for b, x in phase.x_of.items():
        P = P + action.get(x, ZERO) * var(phase.chi_of[b])
    for f, th in phase.theta_of.items():
        P = P - action.get(th, ZERO) * var(phase.pi_of[f])
    return P


def chained_section_polynomial(tower, s):
    pi_of, (_, roles) = tower.phase.pi_of, prolongation_roles(tower)
    out = ZERO
    for n, p in s.Y.items():
        out = out + p * var(pi_of[roles["xi"][n]])
    for key, p in s.Z.items():
        out = out + p * var(pi_of[roles["dy"][key]])
    return out


def chained_reduced_bracket(c, tower, s1, s2):
    data, roles = prolongation_roles(tower)
    x_of, y_of, names = tower.phase.x_of, roles["y"], data.fiber_names
    Z1 = Derivation({x_of[y_of[k]]: p for k, p in s1.Z.items()}, EVEN, (0, 0, 0), check=False)
    Z2 = Derivation({x_of[y_of[k]]: p for k, p in s2.Z.items()}, EVEN, (0, 0, 0), check=False)
    Y = {}
    for ci in range(1, c.dim + 1):
        cn = names[ci - 1]
        comp = ZERO
        for a in range(1, c.dim + 1):
            for b in range(1, c.dim + 1):
                v = c.value(a, b, ci)
                if v:
                    comp = comp + v * (
                        s1.Y.get(names[a - 1], ZERO) * s2.Y.get(names[b - 1], ZERO)
                    )
        comp = comp + Z1(s2.Y.get(cn, ZERO)) - Z2(s1.Y.get(cn, ZERO))
        if not comp.is_zero():
            Y[cn] = comp
    Z = {}
    for key in dict.fromkeys([*s1.Z, *s2.Z]):
        comp = Z1(s2.Z.get(key, ZERO)) - Z2(s1.Z.get(key, ZERO))
        if not comp.is_zero():
            Z[key] = comp
    return Y, Z


def chained_anchor(A):
    phase = A.phase
    x_to_carrier = ChartMap({x: b for b, x in phase.x_of.items()})
    delta = {}
    for b, x in phase.x_of.items():
        comp = ZERO
        for f, th in phase.theta_of.items():
            c = partial(A.q.coefficient(x), th)
            if not c.is_zero():
                comp = comp + var(f) * x_to_carrier(c)
        delta[b] = comp
    return delta


def chained_epsilon(A):
    """delta_x and delta_pi by ``+=``, on the display chart of
    ``epsilon_components`` built again."""
    phase, k = A.phase, A.phase.k
    chart = A.carrier.charts[phase.chart]
    base_leg = A.carrier.base_leg_vars(phase.chart)
    fiber = A.carrier.fiber_vars(phase.chart)
    _, (x_of, y_of, p_of, pi_of) = _tri_chart(
        "epsilon_display",
        [(base_leg, "", lambda u: (u, 0, 0), EVEN),
         (fiber, "", lambda u: (u, 1, 0), EVEN),
         (base_leg, "p_", lambda u: (k - 1 - u, 1, 1), EVEN),
         (fiber, "pi_", lambda u: (k - 1 - u, 0, 1), EVEN)],
    )
    x_map = ChartMap(x_of)
    p_ai, p_kij = extract_coefficients(A.q)
    delta_x = {"delta_" + b.name: ZERO for b in base_leg}
    delta_pi = {"delta_pi_" + f.name: ZERO for f in fiber}
    for (bn, fn), c in p_ai.items():
        c = x_map(c)
        delta_x["delta_" + bn] += var(y_of[chart[fn]]) * c
        delta_pi["delta_pi_" + fn] += c * var(p_of[chart[bn]])
    for (i_n, j_n, k_n), c in p_kij.items():
        delta_pi["delta_pi_" + j_n] += (
            var(y_of[chart[i_n]]) * x_map(c) * var(pi_of[chart[k_n]])
        )
    return delta_x, delta_pi


# ----------------------------------------------------------------------- pins
def test_tower_field_hamiltonian_and_residual(case):
    _, tower, _ = case
    action = chained_tower_action(tower)
    same_maps(tower.q.derivation.action, action)
    same(tower.hamiltonian.poly, chained_p_from_q(tower.phase, action))
    D = Derivation(action, ODD, (0, 1, 0))
    residual = {}
    for v, coeff in action.items():
        r = chained_apply(D, coeff)
        if not r.is_zero():
            residual[v] = r * 2
    same_maps(tower.check.residual.action, residual)
    assert tower.kind == ("lie" if not residual else "skew")


def test_section_polynomials_and_reduced_brackets(case):
    c, tower, rng = case
    for _ in range(4):
        s1, s2 = random_tower_section(rng, tower), random_tower_section(rng, tower)
        for s in (s1, s2):
            same(tower_section_polynomial(tower, s), chained_section_polynomial(tower, s))
        got = reduced_bracket(tower, s1, s2)
        Y, Z = chained_reduced_bracket(c, tower, s1, s2)
        same_maps(got.Y, Y)
        same_maps(got.Z, Z)


def test_anchor_and_epsilon_components_of_towers(case):
    _, tower, _ = case
    same_maps(anchor(tower), chained_anchor(tower))
    display = epsilon_components(tower)
    delta_x, delta_pi = chained_epsilon(tower)
    same_maps(display.delta_x, delta_x)
    same_maps(display.delta_pi, delta_pi)


@pytest.mark.parametrize("seed", [1, 2])
def test_linear_poisson_and_its_cotangent_algebroid(seed):
    c = gl2_in_random_basis(random.Random(seed))
    phase, P = linear_poisson(c)
    F, maps = phase.carrier.provenance.source, phase.carrier.provenance.maps
    y = [var(phase.x_of[maps["base"][0][v]]) for v in F.chart]
    theta = [var(phase.theta_of[maps["dual"][0][v]]) for v in F.chart]
    chained = ZERO
    for (i, j, k), v in c.c.items():
        if i < j:
            chained = chained + y[k - 1] * theta[i - 1] * theta[j - 1] * v
    same(P, chained)
    cot = cotangent_algebroid(phase, P)
    same(cot.hamiltonian.poly, chained_p_from_q(phase, cot.q.derivation.action))
    same_maps(anchor(cot), chained_anchor(cot))
    display = epsilon_components(cot)
    delta_x, delta_pi = chained_epsilon(cot)
    same_maps(display.delta_x, delta_x)
    same_maps(display.delta_pi, delta_pi)
