"""Worked examples pinned coordinate by coordinate.

These instantiate the displayed formulas of the low-degree examples with
concrete exact data and freeze the expected components.
"""

import random
from fractions import Fraction

from gradedbundles.superalg import (
    Derivation,
    ODD,
    SuperPolynomial,
    ZERO,
    commutator,
    substitute,
    weight_of,
)
from gradedbundles.bundle import (
    CoordinateSystem,
    single_chart_bundle,
    tangent_bundle,
    two_chart_bundle,
    validate,
    weight_vector_field,
)
from gradedbundles.linfun import (
    GLBundle,
    bundles_structurally_equal,
    linear_dual,
    linearise,
    pairing,
    parity_reverse,
)
from gradedbundles.algebroid import (
    HomologicalField,
    OddPhaseSpace,
    anchor,
    check_weighted_algebroid,
    epsilon_components,
    p_from_q,
    restrict_to_A1,
    rho_hat,
    WeightedAlgebroid,
)
from gradedbundles.constructions import (
    PolynomialDiffeo,
    higher_tangent,
    tangent_algebroid,
)

from test_bundle import degree2_example


def test_tangent_biweights_and_weight_fields():
    # T F_k: delta^1 is the tangent lift of the weight field, delta^2 the
    # Euler field of the fibration
    F = degree2_example()
    TF = tangent_bundle(F)
    ch = TF.chart
    d1 = weight_vector_field(ch, 0)
    d2 = weight_vector_field(ch, 1)
    assert d1(ch.var("y")) == ch.var("y")
    assert d1(ch.var("dy")) == ch.var("dy")
    assert d1(ch.var("dz")) == 2 * ch.var("dz")
    assert d1(ch.var("dx")).is_zero()
    assert d2(ch.var("dx")) == ch.var("dx")
    assert d2(ch.var("dy")) == ch.var("dy")
    assert d2(ch.var("y")).is_zero()
    assert commutator(d1, d2).is_zero()


def test_pairing_degree1():
    A = CoordinateSystem([("x", 0, 0), ("y", 1, 0)], name="p1a")
    B = CoordinateSystem([("X", 0, 0), ("Y", 1, 0)], name="p1b")
    E = two_chart_bundle(
        A, B,
        {"X": A.var("x"), "Y": 2 * A.var("y")},
        {"x": B.var("X"), "y": B.var("Y") / 2},
    )
    pr = pairing(E)
    sys = pr.bundle.charts[0]
    assert pr.polynomial == sys.var("y") * sys.var("pdy")
    assert weight_of(pr.polynomial, 2) == (1, 1)
    assert pr.check_invariance().passed


def test_parity_reversed_linearisation_of_t2m():
    phi = PolynomialDiffeo.build(
        1, lambda xs: [xs[0] + xs[0] ** 2], lambda Xs: [Xs[0] - Xs[0] ** 2]
    )
    PD = parity_reverse(linearise(higher_tangent(phi, 2)))
    PT = parity_reverse(tangent_bundle(higher_tangent(phi, 1), cls=GLBundle))
    names = {"x1": "x1", "x1_1": "x1_1", "dx1_1": "dx1", "dx1_2": "dx1_1",
             "X1": "X1", "X1_1": "X1_1", "dX1_1": "dX1", "dX1_2": "dX1_1"}
    assert bundles_structurally_equal(PD, PT, names=lambda n: names[n])
    for v in PD.fiber_vars(0):
        assert v.parity == 1


def test_de_rham_hamiltonian_is_delta_paired():
    # one even/odd pair: Q = xi d/dx becomes P = theta chi
    chart = CoordinateSystem([("x", (0, 0), 0), ("v", (0, 1), 0)], name="dr")
    carrier = single_chart_bundle(chart, cls=GLBundle)
    phase = OddPhaseSpace(carrier)
    Q = phase.field({phase.system["x"]: phase.var("theta_v")})
    P = p_from_q(Q)
    assert P.poly == phase.var("theta_v") * phase.var("chi_x")
    assert check_weighted_algebroid(Q).kind == "lie"


def test_general_degree2_field_display():
    # the most general bi-weight (0,1) odd field on the parity-reversed
    # linearisation of a degree-2 bundle, with one coordinate per weight:
    #   Q = xi P dx + (xi y Pbar + theta Pz) dy - theta xi Pa dtheta
    # and its graded-bundle anchors delta x -> y P, delta y -> 2 z Pz + y y Pbar
    F = degree2_example()
    D = linearise(F)
    phase = OddPhaseSpace(D)
    x = phase.var("x")
    P = 1 + x
    Pbar = x * x
    Pz = SuperPolynomial.constant(3) + x
    Pa = x
    xi, theta = phase.var("theta_dy"), phase.var("theta_dz")
    Q = phase.field({
        phase.system["x"]: xi * P,
        phase.system["y"]: xi * phase.var("y") * Pbar + theta * Pz,
        phase.system["theta_dz"]: -1 * theta * xi * Pa,
    })
    verdicts = {i.check_id: i.verdict for i in check_weighted_algebroid(Q).report.items}
    assert verdicts["structure field is Grassmann odd"] == "PASS"
    assert verdicts["structure field has weight (0,1)"] == "PASS"

    alg = WeightedAlgebroid.from_q(Q)
    anc = anchor(alg)
    chart = D.chart
    dy, dz = chart.var("dy"), chart.var("dz")
    xb, yb = chart.var("x"), chart.var("y")
    assert anc[chart["x"]] == dy * (1 + xb)
    assert anc[chart["y"]] == dy * yb * (xb * xb) + dz * (3 + xb)

    hat = rho_hat(alg)
    Fx, Fy, Fz = F.chart.var("x"), F.chart.var("y"), F.chart.var("z")
    assert hat[chart["x"]] == Fy * (1 + Fx)
    assert hat[chart["y"]] == Fy * Fy * (Fx * Fx) + 2 * Fz * (3 + Fx)

    eps = epsilon_components(alg)
    sys = eps.system
    assert eps.delta_x["delta_x"] == sys.var("dy") * (1 + sys.var("x"))
    assert eps.delta_x["delta_y"] == (
        sys.var("dy") * sys.var("y") * sys.var("x") ** 2
        + sys.var("dz") * (3 + sys.var("x"))
    )
    # delta pi components carry the momentum and bracket families
    assert not eps.delta_pi["delta_pi_dy"].is_zero()


def test_tangent_algebroid_on_degree1_restricts_to_de_rham():
    A = CoordinateSystem([("x", 0, 0), ("y", 1, 0)], name="ta1a")
    B = CoordinateSystem([("X", 0, 0), ("Y", 1, 0)], name="ta1b")
    E = two_chart_bundle(
        A, B,
        {"X": A.var("x"), "Y": 3 * A.var("y")},
        {"x": B.var("X"), "y": B.var("Y") / 3},
    )
    alg = tangent_algebroid(E)
    assert alg.kind == "lie"
    d = restrict_to_A1(alg.q)
    phase = alg.phase
    assert d.coefficient(phase.system["x"]) == phase.var("theta_dx")
    # the weight-one leg pairs each base coordinate with its own velocity
    a1_thetas = {v.name for v in d.action}
    assert a1_thetas == {"x"}


def test_dual_of_degree3_top_block_base_only():
    from test_linfun import degree3_example

    F = degree3_example()
    dual = linear_dual(F)
    t = dual.transitions[(0, 1)]
    top = dual.charts[1]["pdW"]
    p = t.forward[top]
    for u in p.variables():
        assert u.weight == (0, 1) or u.weight == (0, 0)


def test_linear_dual_weights_never_negative():
    from test_linfun import degree3_example

    for F in (degree2_example(), degree3_example()):
        dual = linear_dual(F)
        for chart in dual.charts:
            for v in chart.variables:
                assert all(w >= 0 for w in v.weight)


def test_core_then_reconstructable_bar_bundle():
    # bar F_k as the core of the top level is the linear model of the
    # highest weights; its transitions have base-only coefficients
    from gradedbundles.bundle import core_submanifold

    F = degree2_example()
    bar = core_submanifold(F, 1)
    t = bar.transitions[(0, 1)]
    z_target = bar.charts[1]["Z"]
    assert t.forward[z_target] == 5 * bar.chart.var("z")
