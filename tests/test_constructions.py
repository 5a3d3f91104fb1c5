import math
import random
from fractions import Fraction

import pytest

from gradedbundles import bundle, superalg
from gradedbundles.superalg import (
    ChartMap,
    Derivation,
    EVEN,
    ODD,
    SuperPolynomial,
    ZERO,
    apply,
    commutator,
    partial,
    weight_of,
)
from gradedbundles.bundle import (
    CoordinateSystem,
    single_chart_bundle,
    tangent_bundle,
    validate,
)
from gradedbundles.linfun import (
    bundles_structurally_equal,
    is_symmetric,
    linearise,
    mironian,
    linear_dual,
)
from gradedbundles.algebroid import OddPhaseSpace, anchor, restrict_to_A1
from gradedbundles.constructions import (
    AlgebroidData,
    PolynomialDiffeo,
    StructureConstants,
    TowerSection,
    abelian,
    complete_lift,
    cotangent_algebroid,
    cotangent_bundle,
    heisenberg3,
    higher_tangent,
    lie_tower,
    linear_poisson,
    point_algebroid,
    prolongation_algebroid,
    prolongation_roles,
    reduced_bracket,
    sl2,
    so3,
    tangent_algebroid,
    tm_algebroid,
    tower_section_polynomial,
)

from helpers import SMALL, random_nonjacobi_constants, random_tower_section
from test_algebroid_golden import action_algebroid
from test_bundle import degree2_example


# ------------------------------------------------------- structure constants
def test_constants_antisymmetry_enforced():
    c = so3()
    assert c.value(1, 2, 3) == 1
    assert c.value(2, 1, 3) == -1
    with pytest.raises(ValueError):
        StructureConstants(2, {(1, 1, 2): 1})


def test_jacobi_verdicts():
    assert so3().satisfies_jacobi
    assert sl2().satisfies_jacobi
    assert heisenberg3().satisfies_jacobi
    assert abelian(4).satisfies_jacobi
    broken = StructureConstants(3, {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
                                    (1, 2, 1): 1})
    assert not broken.satisfies_jacobi


def dense_jacobi_residuals(c: StructureConstants):
    """J^l_{ijk} by the dense loop over every i < j < k, l and m."""
    out = {}
    d = c.dim
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            for k in range(j + 1, d + 1):
                for l in range(1, d + 1):
                    s = Fraction(0)
                    for m in range(1, d + 1):
                        s += c.value(i, j, m) * c.value(m, k, l)
                        s += c.value(j, k, m) * c.value(m, i, l)
                        s += c.value(k, i, m) * c.value(m, j, l)
                    if s:
                        out[(i, j, k, l)] = s
    return out


def test_jacobi_residuals_match_the_dense_formula():
    rng = random.Random(903)
    pool = [abelian(4), so3(), sl2(), heisenberg3()]
    for _ in range(200):
        dim = rng.randint(1, 5)
        pool.append(StructureConstants(dim, {
            (i, j, k): rng.choice(SMALL)
            for i in range(1, dim + 1) for j in range(i + 1, dim + 1)
            for k in range(1, dim + 1) if rng.random() < 0.4
        }))
    for c in pool:
        got = c.jacobi_residuals()
        want = dense_jacobi_residuals(c)
        assert list(got.items()) == list(want.items())
        assert all(type(v) is Fraction for v in got.values())


def test_random_nonjacobi_fail():
    rng = random.Random(2)
    for _ in range(5):
        assert not random_nonjacobi_constants(rng).satisfies_jacobi


# ------------------------------------------------------------- lie towers
def test_lie_tower_verdicts_match_bruteforce():
    rng = random.Random(8)
    pool = [abelian(3), so3(), sl2(), heisenberg3()]
    pool += [random_nonjacobi_constants(rng) for _ in range(5)]
    for c in pool:
        alg = lie_tower(c, 2)
        assert (alg.kind == "lie") == c.satisfies_jacobi


def test_abelian_tower_k3():
    alg = lie_tower(abelian(2), 3)
    assert alg.kind == "lie"
    q = alg.q
    phase = alg.phase
    for a in (1, 2):
        for r in (1, 2):
            assert q(phase.var(f"y{a}_{r}")) == phase.var(f"theta_dy{a}_{r + 1}")
    for th in phase.thetas:
        assert q.coefficient(th).is_zero()


def test_perturbed_so3_reports_residual():
    broken = StructureConstants(3, {(1, 2, 3): 2, (2, 3, 1): 1, (3, 1, 2): 1,
                                    (1, 2, 1): 1})
    alg = lie_tower(broken, 2)
    assert alg.kind == "skew"
    assert not alg.check.residual.is_zero()


# --------------------------------------------------------- reduced bracket
def test_reduced_bracket_fiberwise_lie():
    alg = lie_tower(so3(), 2)
    one = SuperPolynomial.constant(1)
    s1 = TowerSection({"1": one}, {})
    s2 = TowerSection({"2": one}, {})
    out = reduced_bracket(alg, s1, s2)
    assert out.Y == {"3": one}
    assert out.Z == {}


def test_tower_maps_are_the_carriers_provenance():
    c = so3()
    prov = lie_tower(c, 3).carrier.provenance
    assert prov.tag == "prolongation" and prov.source.constants is c
    names = {role: {key: v.name for key, v in m.items()} for role, (m,) in prov.maps.items()}
    assert names["xi"] == {"1": "xi1", "2": "xi2", "3": "xi3"}
    assert names["y"][("2", 1)] == "y2_1" and names["dy"][("2", 2)] == "dy2_3"
    assert names["base"] == {}
    one = TowerSection({"1": SuperPolynomial.constant(1)}, {})
    with pytest.raises(ValueError, match="not a prolongation"):
        reduced_bracket(tangent_algebroid(degree2_example()), one, one)


def test_reduced_bracket_vector_field_part():
    alg = lie_tower(so3(), 2)
    phase = alg.phase
    y1, y2 = phase.var("y1_1"), phase.var("y2_1")
    s1 = TowerSection({}, {("1", 1): y2})
    s2 = TowerSection({}, {("2", 1): y1})
    out = reduced_bracket(alg, s1, s2)
    assert out.Y == {}
    assert out.Z == {("2", 1): y2, ("1", 1): -1 * y1}


def test_reduced_equals_derived_random():
    rng = random.Random(19)
    alg = lie_tower(so3(), 2)
    P = alg.hamiltonian
    phase = alg.phase
    for _ in range(12):
        s1 = random_tower_section(rng, alg)
        s2 = random_tower_section(rng, alg)
        formula = reduced_bracket(alg, s1, s2)
        p1 = tower_section_polynomial(alg, s1)
        p2 = tower_section_polynomial(alg, s2)
        derived = -phase.schouten(phase.schouten(p1, P.poly), p2)
        assert tower_section_polynomial(alg, formula) == derived


def test_reduced_equals_derived_k3():
    rng = random.Random(20)
    alg = lie_tower(so3(), 3)
    P = alg.hamiltonian
    phase = alg.phase
    for _ in range(8):
        s1 = random_tower_section(rng, alg)
        s2 = random_tower_section(rng, alg)
        formula = reduced_bracket(alg, s1, s2)
        derived = -phase.schouten(
            phase.schouten(tower_section_polynomial(alg, s1), P.poly),
            tower_section_polynomial(alg, s2),
        )
        assert tower_section_polynomial(alg, formula) == derived


def test_reduced_bracket_jacobi_when_lie():
    rng = random.Random(23)
    alg = lie_tower(so3(), 2)
    for _ in range(4):
        a = random_tower_section(rng, alg)
        b = random_tower_section(rng, alg)
        c = random_tower_section(rng, alg)
        jac = reduced_bracket(alg, a, reduced_bracket(alg, b, c))
        jac2 = reduced_bracket(alg, reduced_bracket(alg, a, b), c)
        jac3 = reduced_bracket(alg, b, reduced_bracket(alg, a, c))
        lhs = tower_section_polynomial(alg, jac)
        rhs = tower_section_polynomial(alg, jac2) + tower_section_polynomial(alg, jac3)
        assert lhs == rhs


def tower_section_from_polynomial(alg, p):
    """The (Y, Z) of a pi-linear phase-space function, read off its momenta."""
    _, roles = prolongation_roles(alg)
    pi_of = alg.phase.pi_of
    Y = {n: partial(p, pi_of[xi]) for n, xi in roles["xi"].items()}
    Z = {key: partial(p, pi_of[dy]) for key, dy in roles["dy"].items()}
    return TowerSection({n: c for n, c in Y.items() if not c.is_zero()},
                        {key: c for key, c in Z.items() if not c.is_zero()})


def test_section_round_trip():
    rng = random.Random(29)
    alg = lie_tower(sl2(), 3)
    s = random_tower_section(rng, alg)
    p = tower_section_polynomial(alg, s)
    assert tower_section_from_polynomial(alg, p) == s


# ----------------------------------------------------------- prolongations
def test_prolongation_point_base_is_tower():
    for c in (so3(), heisenberg3()):
        for k in (2, 3):
            tower = lie_tower(c, k)
            prol = prolongation_algebroid(point_algebroid(c), k)
            assert [(v.name, v.weight) for v in prol.carrier.chart.variables] == [
                (v.name, v.weight) for v in tower.carrier.chart.variables
            ]
            for v in prol.phase.system.variables:
                assert prol.q.coefficient(v) == _transport(
                    tower, prol, tower.q.coefficient(tower.phase.system[v.name])
                )


def _transport(src_alg, dst_alg, p):
    varmap = {
        v: dst_alg.phase.system[v.name] for v in src_alg.phase.system.variables
    }
    from gradedbundles.superalg import remap

    return remap(p, varmap)


def test_prolongation_restricts_to_input():
    E = tm_algebroid(2)
    alg = prolongation_algebroid(E, 3)
    d = restrict_to_A1(alg.q)
    q_e = E.q_field()
    sys_e, maps = E.pie_system()
    phase = alg.phase
    chart = alg.carrier.chart
    for v in sys_e.variables:
        if v.name.startswith("xi"):
            target = phase.theta_of[chart[v.name]]
        else:
            target = phase.x_of[chart[v.name]]
        expected = q_e.coefficient(v)
        lift = {}
        for u in expected.variables():
            if u.name.startswith("xi"):
                lift[u] = SuperPolynomial.from_var(phase.theta_of[chart[u.name]])
            else:
                lift[u] = SuperPolynomial.from_var(phase.x_of[chart[u.name]])
        from gradedbundles.superalg import substitute

        assert d.coefficient(target) == substitute(expected, lift)


def test_prolongation_kind_follows_data():
    rng = random.Random(31)
    good = point_algebroid(so3())
    assert prolongation_algebroid(good, 2).kind == "lie"
    bad = point_algebroid(random_nonjacobi_constants(rng))
    assert prolongation_algebroid(bad, 2).kind == "skew"
    assert not bad.is_lie


def test_prolongation_of_tm_matches_tangent_algebroid():
    # identity anchor, vanishing bracket: the A1 part is the de Rham field
    E = tm_algebroid(1)
    alg = prolongation_algebroid(E, 2)
    assert alg.kind == "lie"
    anc = anchor(alg)
    # anchor components are exactly the xi and dy fibre directions
    chart = alg.carrier.chart
    assert anc[chart["x1"]] == SuperPolynomial.from_var(chart["xie1"])
    assert anc[chart["ye1_1"]] == SuperPolynomial.from_var(chart["dye1_2"])


# -------------------------------------------------------- tangent algebroid
def test_tangent_algebroid_lie_and_anchor_identity():
    F = degree2_example()
    alg = tangent_algebroid(F)
    assert alg.kind == "lie"
    assert validate(alg.carrier).passed
    anc = anchor(alg)
    for b, p in anc.items():
        vs = p.variables()
        assert len(vs) == 1 and vs.pop().weight == (b.weight[0], 1)


def test_tangent_algebroid_of_point_space():
    chart = CoordinateSystem([("v", 1, 0)], name="vec")
    F = single_chart_bundle(chart)
    alg = tangent_algebroid(F)
    assert alg.kind == "lie"
    assert alg.check.residual.is_zero()


def test_tangent_matches_higher_tangent_picture():
    phi = PolynomialDiffeo.build(
        1, lambda xs: [xs[0] + xs[0] ** 2], lambda Xs: [Xs[0] - Xs[0] ** 2]
    )
    T2 = higher_tangent(phi, 2)
    alg = tangent_algebroid(higher_tangent(phi, 1))
    D = linearise(T2)
    names = {"x1": "x1", "x1_1": "x1_1", "dx1_1": "dx1", "dx1_2": "dx1_1",
             "X1": "X1", "X1_1": "X1_1", "dX1_1": "dX1", "dX1_2": "dX1_1"}
    assert bundles_structurally_equal(D, alg.carrier, names=lambda n: names[n])


# ------------------------------------------------------- cotangent algebroid
def test_cotangent_zero_poisson_is_lie():
    # on the phase space of either chart of T*F
    for chart in (0, 1):
        phase = OddPhaseSpace(cotangent_bundle(degree2_example()), chart)
        alg = cotangent_algebroid(phase, ZERO)
        assert alg.phase is phase and alg.kind == "lie"
        assert alg.q.derivation.is_zero()


def test_cotangent_so3_is_lie():
    phase, P = linear_poisson(so3())
    alg = cotangent_algebroid(phase, P)
    assert alg.kind == "lie"
    assert alg.poisson_residual.is_zero()
    assert weight_of(P, 3) == (1, 2, 0)
    # A1 restriction: the fibrewise CE field on the dual of the top weights
    assert not restrict_to_A1(alg.q).is_zero()


def test_cotangent_perturbed_is_skew():
    rng = random.Random(37)
    c = random_nonjacobi_constants(rng)
    alg = cotangent_algebroid(*linear_poisson(c))
    assert alg.kind == "skew"
    assert not alg.poisson_residual.is_zero()


def test_cotangent_bundle_validates_on_two_charts():
    F = degree2_example()
    ct = cotangent_bundle(F)
    assert validate(ct).passed
    assert ct.gl_degree == 3


# --------------------------------------------------------- higher tangents
def test_higher_tangent_one_dim_example():
    phi = PolynomialDiffeo.build(
        1, lambda xs: [xs[0] + xs[0] ** 2], lambda Xs: [Xs[0] - Xs[0] ** 2]
    )
    T2 = higher_tangent(phi, 2)
    t = T2.transitions[(0, 1)]
    ch = T2.charts[1]
    x, y, z = (T2.chart.var(n) for n in ("x1", "x1_1", "x1_2"))
    assert t.forward[ch["X1_1"]] == y * (1 + 2 * x)
    assert t.forward[ch["X1_2"]] == z * (1 + 2 * x) + y ** 2
    assert not phi.round_trip_exact()


def test_higher_tangent_identity():
    phi = PolynomialDiffeo.build(1, lambda xs: [xs[0]], lambda Xs: [Xs[0]])
    T3 = higher_tangent(phi, 3)
    t = T3.transitions[(0, 1)]
    for v in T3.charts[1].variables:
        img = t.forward[v]
        assert len(img.terms) == 1
    assert validate(T3).passed


def test_higher_tangent_shear_validates_and_symmetric():
    phi = PolynomialDiffeo.build(
        2,
        lambda xs: [xs[0] + xs[1] ** 2, xs[1]],
        lambda Xs: [Xs[0] - Xs[1] ** 2, Xs[1]],
    )
    assert phi.round_trip_exact()
    for k in (1, 2, 3):
        T = higher_tangent(phi, k)
        assert validate(T).passed
        assert is_symmetric(linearise(T))


def test_higher_tangent_of_names_ending_in_digits():
    """Jet levels come from the chart builder, not from coordinate names:
    a_1 is a level-0 coordinate, a_1_1 its level-1 partner."""
    src = CoordinateSystem([("a_1", 0, 0), ("a_2", 0, 0)], name="m_src")
    dst = CoordinateSystem([("b_1", 0, 0), ("b_2", 0, 0)], name="m_dst")
    a1, a2, b1, b2 = src.var("a_1"), src.var("a_2"), dst.var("b_1"), dst.var("b_2")
    phi = PolynomialDiffeo(src, dst, {dst["b_1"]: a1 + a2 ** 2, dst["b_2"]: a2},
                           {src["a_1"]: b1 - b2 ** 2, src["a_2"]: b2})
    T2 = higher_tangent(phi, 2)
    assert validate(T2).passed
    assert [v.name for v in T2.charts[1].variables] == [
        "b_1", "b_2", "b_1_1", "b_2_1", "b_1_2", "b_2_2"]
    t = T2.transitions[(0, 1)]
    ch = T2.charts[1]
    x1, x2, y1, y2, z2 = (T2.chart.var(n) for n in ("a_1", "a_2", "a_1_1", "a_2_1", "a_2_2"))
    assert t.forward[ch["b_1_1"]] == y1 + 2 * x2 * y2
    assert t.forward[ch["b_1_2"]] == T2.chart.var("a_1_2") + 2 * x2 * z2 + y2 ** 2
    assert t.forward[ch["b_1"]] == x1 + x2 ** 2


def test_linearised_t3m_is_tangent_of_t2m():
    phi = PolynomialDiffeo.build(
        2,
        lambda xs: [xs[0] + xs[1] ** 2, xs[1]],
        lambda Xs: [Xs[0] - Xs[1] ** 2, Xs[1]],
    )
    D = linearise(higher_tangent(phi, 3))
    TT = tangent_bundle(higher_tangent(phi, 2))
    names = {}
    for i in (1, 2):
        for stem in ("x", "X"):
            names[f"{stem}{i}"] = f"{stem}{i}"
            for r in (1, 2):
                names[f"{stem}{i}_{r}"] = f"{stem}{i}_{r}"
            names[f"d{stem}{i}_1"] = f"d{stem}{i}"
            names[f"d{stem}{i}_2"] = f"d{stem}{i}_1"
            names[f"d{stem}{i}_3"] = f"d{stem}{i}_2"
    assert bundles_structurally_equal(D, TT, names=lambda n: names[n])


def test_mironian_of_t2m_is_tm_times_tstar():
    phi = PolynomialDiffeo.build(
        2,
        lambda xs: [xs[0] + xs[1] ** 2, xs[1]],
        lambda Xs: [Xs[0] - Xs[1] ** 2, Xs[1]],
    )
    T2 = higher_tangent(phi, 2)
    mi = mironian(T2)
    TM = higher_tangent(phi, 1)
    # y-part transitions equal TM's, momentum part is the contragredient of
    # the jacobian, base-only
    t_mi = mi.transitions[(0, 1)]
    t_tm = TM.transitions[(0, 1)]
    for v in TM.charts[1].variables:
        w = mi.charts[1][v.name]
        lhs = {m_key_names(m): c for m, c in t_mi.forward[w].terms.items()}
        rhs = {m_key_names(m): c for m, c in t_tm.forward[v].terms.items()}
        assert lhs == rhs
    ct = cotangent_bundle(project_tower_base(TM))
    for v in mi.charts[1].variables:
        if v.weight == (0, 1):
            p = t_mi.forward[v]
            assert all(
                u.weight[1] == 1 or u.weight == (0, 0) for u in p.variables()
            )


def m_key_names(m):
    return tuple((v.name, e) for v, e in m)


def project_tower_base(F):
    from gradedbundles.bundle import project_tower

    return project_tower(F, 0)


def test_dual_of_t2m_is_tstar_tm():
    phi = PolynomialDiffeo.build(
        2,
        lambda xs: [xs[0] + xs[1] ** 2, xs[1]],
        lambda Xs: [Xs[0] - Xs[1] ** 2, Xs[1]],
    )
    T2 = higher_tangent(phi, 2)
    dual = linear_dual(T2)
    assert validate(dual).passed
    TM = higher_tangent(phi, 1)
    ct = cotangent_bundle(TM)
    # same block profile: base TM plus momenta of bi-weights (1,1), (0,1)
    dual_weights = sorted(v.weight for v in dual.chart.variables)
    ct_weights = sorted(v.weight for v in ct.chart.variables)
    assert dual_weights == ct_weights
    # and the dual transitions agree with the cotangent lift after matching
    # coordinates by weight and block position, chart by chart
    names = {}
    for c_src, c_dst in zip(dual.charts, ct.charts):
        for v in c_src.variables:
            src_block = [u for u in c_src.variables if u.weight == v.weight]
            dst_block = [u for u in c_dst.variables if u.weight == v.weight]
            names[v.name] = dst_block[src_block.index(v)].name
    assert bundles_structurally_equal(dual, ct, names=lambda n: names[n])


# ------------------------------------------------------------ complete lift
def _pie_system():
    return CoordinateSystem([("x", 0, 0), ("xi", 1, 1)], name="pie_cl")


def test_complete_lift_de_rham():
    sys1 = _pie_system()
    q = Derivation({sys1["x"]: sys1.var("xi")}, ODD, (1,))
    lift = complete_lift(q, sys1, 2)
    sys2 = lift.system
    assert lift.derivation.coefficient(sys2["x"]) == sys2.var("xi")
    assert lift.derivation.coefficient(sys2["x_1"]) == sys2.var("xi_1")
    assert commutator(lift.derivation, lift.derivation).is_zero()


def test_complete_lift_preserves_homologicity():
    E = AlgebroidData(
        CoordinateSystem([("x", 0, 0)], name="clm"),
        ["e"],
        {("e", "x"): SuperPolynomial.constant(1)},
        {},
    )
    sys_e, _ = E.pie_system()
    q = E.q_field()
    assert commutator(q, q).is_zero()
    for k in (2, 3):
        lift = complete_lift(q, sys_e, k)
        assert commutator(lift.derivation, lift.derivation).is_zero()


def test_complete_lift_commutes_with_commutators():
    rng = random.Random(43)
    sys1 = CoordinateSystem(
        [("x", 0, 0), ("xi", 1, 1), ("eta", 1, 1)], name="clc"
    )
    x = sys1.var("x")
    for _ in range(6):
        q1 = Derivation(
            {sys1["x"]: sys1.var("xi") * (1 + rng.randrange(3) * x),
             sys1["xi"]: sys1.var("xi") * sys1.var("eta") * rng.randrange(-2, 3)},
            ODD, (1,), check=False,
        )
        q2 = Derivation(
            {sys1["x"]: sys1.var("eta") * rng.randrange(1, 4),
             sys1["eta"]: sys1.var("xi") * sys1.var("eta") * rng.randrange(-2, 3)},
            ODD, (1,), check=False,
        )
        lhs = complete_lift(commutator(q1, q2), sys1, 3)
        l1 = complete_lift(q1, sys1, 3)
        l2 = complete_lift(q2, sys1, 3)
        rhs = commutator(l1.derivation, l2.derivation)
        assert lhs.derivation == rhs


def test_complete_lift_detects_broken_input():
    sys1 = CoordinateSystem([("xi1", 1, 1), ("xi2", 1, 1), ("xi3", 1, 1)],
                            name="clb")
    rng = random.Random(3)
    c = random_nonjacobi_constants(rng)
    action = {}
    for kk in range(1, 4):
        body = ZERO
        for i in range(1, 4):
            for j in range(1, 4):
                v = c.value(i, j, kk)
                if v:
                    body = body + Fraction(-1, 2) * v * (
                        sys1.var(f"xi{i}") * sys1.var(f"xi{j}")
                    )
        action[sys1[f"xi{kk}"]] = body
    q = Derivation(action, ODD, (1,))
    assert not commutator(q, q).is_zero()
    lift = complete_lift(q, sys1, 2)
    assert not commutator(lift.derivation, lift.derivation).is_zero()


# ------------------------------------------------------------ rejected input
def _identity_diffeo():
    return PolynomialDiffeo.build(1, lambda xs: [xs[0]], lambda Xs: [Xs[0]])


def _point_data_without_constants():
    return AlgebroidData(CoordinateSystem([], name="pt", arity=1), ["1", "2"], {}, {})


def _empty_bracket(alg):
    return reduced_bracket(alg, TowerSection({}, {}), TowerSection({}, {}))


@pytest.mark.parametrize("build, message", [
    (lambda: StructureConstants(2, {(1, 3, 1): 1}), r"^index out of range in c\^1_\{13\}$"),
    (lambda: cotangent_algebroid(OddPhaseSpace(cotangent_bundle(degree2_example())),
                                 SuperPolynomial.constant(1)),
     r"^Poisson data has tri-weight \(0, 0, 0\), expected \(2, 2, 0\)$"),
    (lambda: cotangent_algebroid(lie_tower(so3(), 2).phase, ZERO),
     "^not a cotangent phase space: the carrier's provenance is 'prolongation'$"),
    (lambda: higher_tangent(_identity_diffeo(), 0), "^higher tangent bundles need k >= 1$"),
    (lambda: complete_lift(tm_algebroid(1).q_field(), tm_algebroid(1).pie_system()[0], 0),
     "^complete lifts need k >= 1$"),
    (lambda: prolongation_algebroid(tm_algebroid(1), 1), "^prolongation algebroids need k >= 2$"),
    (lambda: lie_tower(so3(), 0), "^towers need k >= 1$"),
    (lambda: _empty_bracket(prolongation_algebroid(tm_algebroid(1), 2)),
     "^the reduced bracket is defined over a point base$"),
    (lambda: _empty_bracket(prolongation_algebroid(_point_data_without_constants(), 2)),
     "^reduced brackets need structure-constant data$"),
], ids=["constant-index", "poisson-weight", "not-cotangent", "higher-tangent-k",
        "complete-lift-k", "prolongation-k", "tower-k", "bracket-base", "bracket-constants"])
def test_malformed_construction_input_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# ------------------------------------ jets by the compiled total derivative
def seeded_diffeo(seed):
    """(x1, x2) -> (a x1 + b x2^3 + e x2^2 + c, d x2 + f) with seeded
    nonzero rational coefficients, and its inverse by back substitution."""
    rng = random.Random(seed)
    a, b, c, d, e, f = (Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 3))
                        for _ in range(6))

    def inverse(Xs):
        x2 = (Xs[1] - f) * (1 / d)
        return [(Xs[0] - b * x2 ** 3 - e * x2 * x2 - c) * (1 / a), x2]

    return PolynomialDiffeo.build(
        2, lambda xs: [a * xs[0] + b * xs[1] ** 3 + e * xs[1] * xs[1] + c, d * xs[1] + f], inverse)


def jets_by_apply(pairs, level, top, shift):
    """((v, r), D^r(f)/r!) for each (v, f) in ``pairs`` and r = 0..top, f
    read on level 0, D the generic Derivation x_r -> (r+1) x_{r+1} applied
    by ``apply``, in level-major action order."""
    D = Derivation({x: SuperPolynomial.from_var(level[(v, r + 1)]) * (r + 1)
                    for (v, r), x in level.items() if r < top}, EVEN, shift)
    to_level_zero = ChartMap({v: x for (v, r), x in level.items() if r == 0})
    out = []
    for v, f in pairs:
        p = to_level_zero(f)
        for r in range(top + 1):
            if r:
                p = apply(D, p)
            out.append(((v, r), p * Fraction(1, math.factorial(r))))
    return out


def same_terms(got, want):
    assert list(got.terms.items()) == list(want.terms.items())
    assert got._den == want._den


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [3, 17])
def test_higher_tangent_is_the_generic_total_derivative(k, seed):
    phi = seeded_diffeo(seed)
    tk = higher_tangent(phi, k)
    t = tk.transitions[(0, 1)]
    for laws, dst, chart, other, comps in (
            (phi.forward, phi.target, tk.charts[0], tk.charts[1], t.forward),
            (phi.inverse, phi.source, tk.charts[1], tk.charts[0], t.inverse)):
        src = phi.source if dst is phi.target else phi.target
        level = {(v, r): chart[v.name if r == 0 else f"{v.name}_{r}"]
                 for r in range(k + 1) for v in src.variables}
        want = jets_by_apply([(v, laws[v]) for v in dst.variables], level, k, (1,))
        assert len(want) == len(comps)
        for (v, r), p in want:
            same_terms(comps[other[v.name if r == 0 else f"{v.name}_{r}"]], p)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_complete_lift_of_a_tower_field_is_the_generic_total_derivative(k):
    # the Chevalley-Eilenberg field so(3)'s tower is built on, with odd
    # coefficients, and an anchored field
    for E in (lie_tower(so3(), 2).carrier.provenance.source, action_algebroid()):
        Q, (system, _) = E.q_field(), E.pie_system()
        lift = complete_lift(Q, system, k)
        want = [(lift.level_of[vr], p) for vr, p in jets_by_apply(
            [(v, Q.coefficient(v)) for v in system.variables], lift.level_of, k - 1, (1, 0))
            if not p.is_zero()]
        assert [v for v, _ in want] == list(lift.derivation.action)
        for v, p in want:
            same_terms(lift.derivation.action[v], p)


def test_lifted_laws_compiles_one_differential_per_transition_direction(monkeypatch):
    tk = higher_tangent(seeded_diffeo(5), 3)
    per_direction = []  # [plans compiled, laws lifted] per call
    compile_plan, lifted_laws = superalg.Differential._plan, bundle._lifted_laws

    def counting_plan(self, *args):
        if per_direction:
            per_direction[-1][0] += 1
        return compile_plan(self, *args)

    def counting_lifted_laws(comps, other, src, dst, key=None):
        per_direction.append([0, sum(1 for v in comps if v in dst["dotted"])])
        return lifted_laws(comps, other, src, dst, key)

    monkeypatch.setattr(superalg.Differential, "_plan", counting_plan)
    monkeypatch.setattr(bundle, "_lifted_laws", counting_lifted_laws)
    linearise(tk)
    tangent_bundle(tk)
    # two bundles, each with one transition built in both directions
    assert len(per_direction) == 4
    assert [plans for plans, _ in per_direction] == [1, 1, 1, 1]
    assert all(laws > 1 for _, laws in per_direction)
