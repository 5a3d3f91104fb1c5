import itertools
import random
from fractions import Fraction

import pytest

from gradedbundles.superalg import (
    ChartMap,
    Differential,
    EVEN,
    ODD,
    ParityMismatch,
    SuperPolynomial,
    partial,
    render,
    _support_of,
    substitute,
    weight_of,
)
from gradedbundles.bundle import (
    CoordinateSystem,
    GradedBundle,
    IllDefinedProjection,
    TransitionMap,
    single_chart_bundle,
    two_chart_bundle,
    validate,
)
from gradedbundles.linfun import (
    GLBundle,
    NonlinearFiber,
    NotSymmetric,
    WeightViolation,
    GradedMorphism,
    bundles_structurally_equal,
    compose_morphisms,
    embedding_compatibility,
    holonomic_embedding,
    identity_morphism,
    is_symmetric,
    linear_dual,
    linearise,
    linearise_morphism,
    mironian,
    mironian_report,
    morphisms_equal,
    pairing,
    parity_reverse,
    reconstruct,
    symmetry_report,
)
from gradedbundles.constructions import PolynomialDiffeo, cotangent_bundle, higher_tangent
from gradedbundles.specfile import build_bundle, parse

from helpers import (
    rational_nonzero,
    random_bundle,
    random_morphism,
    two_pass_linearisation,
    vector_bundle_tangent,
)
from test_atlas_golden import SPEC_DIR, bundles, seeded_t3m
from test_bundle import degree2_example


def degree3_example():
    A = CoordinateSystem([("x", 0, 0), ("y", 1, 0), ("z", 2, 0), ("w", 3, 0)],
                         name="d3a")
    B = CoordinateSystem([("X", 0, 0), ("Y", 1, 0), ("Z", 2, 0), ("W", 3, 0)],
                         name="d3b")
    x, y, z, w = (A.var(n) for n in "xyzw")
    X, Y, Z, W = (B.var(n) for n in "XYZW")
    return two_chart_bundle(
        A, B,
        {"X": x, "Y": 2 * y, "Z": 3 * z + Fraction(1, 2) * y ** 2 * x,
         "W": 5 * w + z * y * x + Fraction(1, 6) * y ** 3 * (1 + x)},
        {"x": X, "y": Fraction(1, 2) * Y,
         "z": Fraction(1, 3) * Z - Fraction(1, 24) * X * Y ** 2,
         "w": Fraction(1, 5) * W - Fraction(1, 30) * X * Y * Z
              - Fraction(1, 240) * Y ** 3 - Fraction(1, 240) * X * Y ** 3
              + Fraction(1, 240) * X ** 2 * Y ** 3},
    )


def _declared_as(F, order):
    """F's atlas with each chart's coordinates declared in ``order``, a list
    of positions in the chart; names, weights and laws are unchanged."""
    charts = [CoordinateSystem([(c.variables[n].name, c.variables[n].weight, c.variables[n].parity)
                                for n in order], name=c.name + "_r", arity=F.arity)
              for c in F.charts]
    to = [ChartMap({v: new[v.name] for v in c.variables}) for c, new in zip(F.charts, charts)]
    return GradedBundle(charts, {
        (i, j): TransitionMap(charts[i], charts[j],
                              {charts[j][v.name]: to[i](p) for v, p in t.forward.items()},
                              {charts[i][v.name]: to[j](p) for v, p in t.inverse.items()})
        for (i, j), t in F.transitions.items() if i < j})


OUT_OF_WEIGHT_ORDER = pytest.mark.parametrize("example, order", [
    (degree2_example, [0, 2, 1]),
    (degree3_example, [0, 2, 1, 3]),
    (degree3_example, [0, 3, 2, 1]),
], ids=["degree2-xzy", "degree3-xzyw", "degree3-xwzy"])


@OUT_OF_WEIGHT_ORDER
def test_linearisation_of_charts_declared_out_of_weight_order(example, order):
    # a top coordinate declared before a lower-weight one is renamed onto its
    # dotted copy out of field order; the atlas is the one linearised from
    # the charts declared in weight order
    F = example()
    shuffled = _declared_as(F, order)
    assert [v.name for v in shuffled.charts[0].variables] == \
        [F.charts[0].variables[n].name for n in order]
    for D in (linearise(F), linearise(shuffled)):
        assert validate(D).passed
        assert is_symmetric(D)
    assert bundles_structurally_equal(linearise(shuffled), linearise(F))


@OUT_OF_WEIGHT_ORDER
def test_linearisation_out_of_weight_order_renames_by_masked_shifts(example, order, monkeypatch):
    # the even fields renamed out of field order keep the direct move: no
    # application of a ChartMap takes the substitution path
    shuffled = _declared_as(example(), order)
    substituted = []
    call = ChartMap.__call__

    def spy(self, p):
        out = call(self, p)
        support = _support_of(p)
        if support:
            mask, *_, ring = self._plans[p._ring]
            substituted.append(ring is None or bool(support & ~mask))
        return out

    monkeypatch.setattr(ChartMap, "__call__", spy)
    linearise(shuffled)
    assert substituted and substituted.count(True) == 0


def test_linearise_degree2_dotted_laws():
    F = degree2_example()
    D = linearise(F)
    t = D.transitions[(0, 1)]
    ch1 = D.charts[1]
    dy, dz = D.chart.var("dy"), D.chart.var("dz")
    x, y = D.chart.var("x"), D.chart.var("y")
    assert t.forward[ch1["dY"]] == 3 * dy
    assert t.forward[ch1["dZ"]] == 5 * dz + y * dy * (1 + x)
    assert validate(D).passed
    assert D.gl_degree == 2


def test_linearise_degree3_dotted_laws():
    # the displayed structure: dy T, dz T + dy y T, dw T + dz y T + z dy T + 1/2 dy y y T
    F = degree3_example()
    D = linearise(F)
    t = D.transitions[(0, 1)]
    ch1 = D.charts[1]
    x, y, z = (D.chart.var(n) for n in "xyz")
    dy, dz, dw = (D.chart.var(n) for n in ("dy", "dz", "dw"))
    assert t.forward[ch1["dY"]] == 2 * dy
    assert t.forward[ch1["dZ"]] == 3 * dz + dy * y * x
    assert t.forward[ch1["dW"]] == (
        5 * dw + dz * y * x + z * dy * x + Fraction(1, 2) * dy * y * y * (1 + x)
    )


def test_linearise_degree1_is_identity_like():
    A = CoordinateSystem([("x", 0, 0), ("y", 1, 0)], name="l1a")
    B = CoordinateSystem([("X", 0, 0), ("Y", 1, 0)], name="l1b")
    E = two_chart_bundle(
        A, B,
        {"X": A.var("x"), "Y": 3 * A.var("y")},
        {"x": B.var("X"), "y": Fraction(1, 3) * B.var("Y")},
    )
    D = linearise(E)
    assert [(v.name, v.weight) for v in D.chart.variables] == [
        ("x", (0, 0)), ("dy", (0, 1))
    ]
    t = D.transitions[(0, 1)]
    assert t.forward[D.charts[1]["dY"]] == 3 * D.chart.var("dy")
    assert is_symmetric(D)
    R = reconstruct(D)
    assert validate(R).passed


def test_holonomic_embedding_components():
    F = degree3_example()
    D = linearise(F)
    iota = holonomic_embedding(F, D)
    iota.validate()
    comp = {v.name: p for v, p in iota.components.items()}
    assert comp["dy"] == F.chart.var("y")
    assert comp["dz"] == 2 * F.chart.var("z")
    assert comp["dw"] == 3 * F.chart.var("w")
    assert embedding_compatibility(F, D).passed


def test_embedding_compatibility_degree2():
    F = degree2_example()
    assert embedding_compatibility(F).passed


def test_symmetric_criterion_linearisations():
    rng = random.Random(17)
    for _ in range(6):
        F = random_bundle(rng, rng.choice([2, 3]))
        D = linearise(F)
        assert is_symmetric(D)


def test_te_not_symmetric():
    TE = vector_bundle_tangent(t=Fraction(2))
    assert validate(TE).passed
    assert not is_symmetric(TE)
    with pytest.raises(NotSymmetric):
        reconstruct(TE)
    TE2 = vector_bundle_tangent(base_dim=2)
    assert not is_symmetric(TE2)


def _pairwise_reference(G):
    """The symmetric criterion as the pairwise tensor test, written out on
    its own: (a) each non-top fibre coordinate transforms as the vertical
    lift of its base partner, (b) the coefficients c_b = d(law)/d(fibre
    partner of b) of each top law satisfy dc_a/db = dc_b/da for every pair
    of non-top base coordinates.  It carries no graded signs, so it holds
    for even base legs only.  Returns the verdict and the (a) items as
    (check id, residual) pairs."""
    k = G.gl_degree
    pairs = []
    for idx in range(len(G.charts)):
        blocks = [(G.fiber_block(w - 1, idx), G.base_block(w, idx)) for w in range(1, k)]
        if any(len(fib) != len(base) for fib, base in blocks):
            return False, []
        pairs.append([fb for fib, base in blocks for fb in zip(fib, base)])
    lifts, tensors_symmetric = [], True
    for (i, j), t in sorted(G.transitions.items()):
        dot = {b: f for f, b in pairs[i]}
        for f, b in pairs[j]:
            r = t.forward[f] - Differential(dot)(t.forward[b])
            lifts.append((f"transition {i}->{j}: {f.name} transforms as the vertical lift"
                          f" of {b.name}", "" if r.is_zero() else render(r)))
        for z in G.fiber_block(k - 1, j):
            c = {b: partial(t.forward[z], f) for f, b in pairs[i]}
            tensors_symmetric &= all((partial(c[a], b) - partial(c[b], a)).is_zero()
                                     for a, b in itertools.combinations(c, 2))
    return tensors_symmetric and not any(r for _, r in lifts), lifts


def _perturb_top_law(rng, G):
    """Add a random multiple of b*f to one top law of G, with b a base-leg
    coordinate of weight w >= 1 and f a fibre coordinate of bi-weight
    (k-1-w, 1), so that the law stays homogeneous."""
    k = G.gl_degree
    (i, j), t = rng.choice(sorted(G.transitions.items()))
    z = rng.choice(G.fiber_block(k - 1, j))
    w = rng.randrange(1, k)
    b = rng.choice(G.base_block(w, i))
    f = rng.choice(G.fiber_block(k - 1 - w, i))
    extra = rational_nonzero(rng) * SuperPolynomial.from_var(b) * SuperPolynomial.from_var(f)
    t.forward[z] = t.forward[z] + extra


def _lift_and_euler_items(G):
    rep = symmetry_report(G)
    # the block-size item, then, when the sizes match, one item per fibre
    # coordinate of a target chart
    if rep.items[0].verdict == "PASS":
        assert len(rep.items) == 1 + sum(len(G.fiber_vars(j)) for _, j in G.transitions)
    lifts = [(item.check_id, item.residual) for item in rep.items[1:]
             if not item.check_id.endswith("its Euler potential")]
    return rep.passed, lifts


def test_symmetry_report_agrees_with_the_pairwise_reference():
    rng = random.Random(2012)
    verdicts = []
    for _ in range(24):
        degree, base_dim = rng.choice([2, 3]), rng.choice([1, 2])
        F = random_bundle(rng, degree, base_dim=base_dim)
        D = linearise(F)
        perturbed = linearise(F)
        _perturb_top_law(rng, perturbed)
        for G in (D, parity_reverse(D), perturbed):
            ok, lifts = _pairwise_reference(G)
            assert _lift_and_euler_items(G) == (ok, lifts)
            verdicts.append(ok)
    assert True in verdicts and False in verdicts
    for TE in (vector_bundle_tangent(), vector_bundle_tangent(base_dim=2)):
        assert _lift_and_euler_items(TE) == _pairwise_reference(TE)


def test_symmetry_report_has_one_item_per_fibre_coordinate_on_jets():
    phi = PolynomialDiffeo.build(
        3, lambda xs: [xs[0] + xs[1] ** 2, xs[1] + xs[2] ** 2, xs[2]],
        lambda Xs: [Xs[0] - (Xs[1] - Xs[2] ** 2) ** 2, Xs[1] - Xs[2] ** 2, Xs[2]])
    D = linearise(higher_tangent(phi, 3))
    assert len(symmetry_report(D).items) == 19
    assert _lift_and_euler_items(D) == _pairwise_reference(D)


def test_degree1_gl_always_symmetric():
    A = CoordinateSystem([("x", (0, 0), 0), ("v", (0, 1), 0)], name="g1a")
    B = CoordinateSystem([("X", (0, 0), 0), ("V", (0, 1), 0)], name="g1b")
    G = two_chart_bundle(
        A, B,
        {"X": A.var("x"), "V": A.var("v") * 4},
        {"x": B.var("X"), "v": B.var("V") / 4},
        cls=GLBundle,
    )
    assert is_symmetric(G)


def two_top_example():
    """Degree 2 with two top coordinates, one in the other's law."""
    A = CoordinateSystem([("x", 0, 0), ("y", 1, 0), ("z", 2, 0), ("w", 2, 0)], name="tt_a")
    B = CoordinateSystem([("X", 0, 0), ("Y", 1, 0), ("Z", 2, 0), ("W", 2, 0)], name="tt_b")
    x, y, z, w = (A.var(n) for n in "xyzw")
    X, Y, Z, W = (B.var(n) for n in "XYZW")
    return two_chart_bundle(
        A, B,
        {"X": x, "Y": y, "Z": z + x * w + y ** 2, "W": w},
        {"x": X, "y": Y, "z": Z - X * W - Y ** 2, "w": W},
    )


def test_reconstruct_round_trip():
    # linearise also agrees with the two-pass reference, V(F) restricted
    for F in (degree2_example(), degree3_example(), *bundles().values(), two_top_example()):
        D = linearise(F)
        assert bundles_structurally_equal(D, two_pass_linearisation(F))
        R = reconstruct(D)
        assert bundles_structurally_equal(F, R)
        assert validate(R).passed


def test_linearise_recharts_once_and_linearise_morphism_never(monkeypatch):
    from gradedbundles import bundle

    calls = []
    rechart = bundle.rechart
    monkeypatch.setattr(bundle, "rechart", lambda *a, **kw: calls.append(a) or rechart(*a, **kw))
    F = degree3_example()
    DF = linearise(F)
    assert len(calls) == 1
    Fm = bundle.project_tower(F, 2)
    DFm = linearise(Fm)
    tau = GradedMorphism(F, Fm, {v: F.chart.var(v.name) for v in Fm.chart.variables})
    del calls[:]
    linearise_morphism(tau, DF, DFm)
    linearise_morphism(identity_morphism(F), DF, DF)
    assert calls == []


def test_pairing_builds_each_transition_direction_once(monkeypatch):
    from gradedbundles import linfun

    F = degree3_example()
    dual = linear_dual(F)
    keys = []
    rechart = linfun.rechart

    def counted(bundle, spec_fn, component_fn, *a, **kw):
        def component(*args):
            keys.append(args[-1])
            return component_fn(*args)
        return rechart(bundle, spec_fn, component, *a, **kw)

    monkeypatch.setattr(linfun, "rechart", counted)
    P = pairing(F, dual).bundle
    assert keys == [(0, 1), (1, 0)]
    # the second direction is stored as the reversal of the first
    assert P.transitions[(1, 0)].forward is P.transitions[(0, 1)].inverse


@pytest.mark.parametrize("name", ["degree2", "degree3", "odd-degree2", "odd-degree3",
                                  "seeded T^3 M"])
def test_pairing_atlas_validates(name):
    if name == "seeded T^3 M":
        F = seeded_t3m()
    else:
        F = build_bundle(parse((SPEC_DIR / f"{name}.spec").read_text())).bundle
    P = pairing(F).bundle
    assert (P.provenance.tag, P.provenance.source) == ("pairing", F)
    assert validate(P).passed


def test_reconstruct_round_trip_random():
    rng = random.Random(23)
    for _ in range(4):
        F = random_bundle(rng, rng.choice([2, 3]))
        R = reconstruct(linearise(F))
        assert bundles_structurally_equal(F, R)


def test_functor_identity():
    F = degree2_example()
    D = linearise(F)
    did = linearise_morphism(identity_morphism(F), D, D)
    assert morphisms_equal(did, identity_morphism(D))


def test_functor_composition_random():
    # exact on chains of non-increasing degree, where no intermediate
    # top-weight coordinate can leak into a lifted component
    rng = random.Random(31)
    for _ in range(8):
        degrees = sorted((rng.choice([2, 3]), rng.choice([2, 3])), reverse=True)
        k_f = max(degrees[0], rng.choice([2, 3]))
        F = random_bundle(rng, k_f, name="f")
        G = random_bundle(rng, degrees[0], name="g")
        H = random_bundle(rng, degrees[1], name="h")
        chi = random_morphism(rng, F, G)
        phi = random_morphism(rng, G, H)
        DF, DG, DH = linearise(F), linearise(G), linearise(H)
        lhs = linearise_morphism(
            compose_morphisms(phi, chi), DF, DH
        )
        rhs = compose_morphisms(
            linearise_morphism(phi, DG, DH), linearise_morphism(chi, DF, DG)
        )
        assert morphisms_equal(lhs, rhs)


def test_chart_zero_components_transport_to_chart_one():
    # phi_1[V] = tF_10^*(phi_0^*(tG_01[V])) intertwines both transitions and
    # keeps weights and parities: every chart of a validated atlas is global
    rng = random.Random(5)
    for _ in range(20):
        k_g = rng.choice([2, 3])
        F = random_bundle(rng, max(k_g, rng.choice([2, 3])), name="tf")
        G = random_bundle(rng, k_g, name="tg")
        phi0 = random_morphism(rng, F, G).components
        tF, tG = F.transitions, G.transitions
        pull_0, pull_10 = ChartMap(phi0), ChartMap(tF[(1, 0)].forward)
        phi1 = {V: pull_10(pull_0(tG[(0, 1)].forward[V])) for V in G.charts[1].variables}
        phis = [phi0, phi1]
        for i, j in ((0, 1), (1, 0)):
            pull_f, pull_phi = ChartMap(tF[(i, j)].forward), ChartMap(phis[i])
            for V in G.charts[j].variables:
                assert pull_f(phis[j][V]) == pull_phi(tG[(i, j)].forward[V])
        for V, p in phi1.items():
            assert weight_of(p, 1) in ("zero", V.weight)
            assert p.parity() in ("zero", V.parity)


def test_embedding_naturality_random():
    rng = random.Random(37)
    for _ in range(8):
        k_g = rng.choice([2, 3])
        F = random_bundle(rng, max(k_g, rng.choice([2, 3])), name="nf")
        G = random_bundle(rng, k_g, name="ng")
        phi = random_morphism(rng, F, G)
        DF, DG = linearise(F), linearise(G)
        lhs = compose_morphisms(linearise_morphism(phi, DF, DG),
                                holonomic_embedding(F, DF))
        rhs = compose_morphisms(holonomic_embedding(G, DG), phi)
        assert morphisms_equal(lhs, rhs)


def test_degree_raising_composites_leak_top_coordinates():
    # D on morphisms is only defined when no component of a kept coordinate
    # involves a top-weight source coordinate: a map into a higher degree
    # whose weight-2 component is the source top, or mixes it with pure
    # lower-weight terms, has no lift, and D raises naming the source top
    # coordinate.  This pins the scope of the exact functor laws.
    A = CoordinateSystem([("x", 0, 0), ("y", 1, 0), ("z", 2, 0)], name="lk_f")
    F = single_chart_bundle(A)
    B = CoordinateSystem([("u", 0, 0), ("v", 1, 0), ("t", 2, 0)], name="lk_g")
    G = single_chart_bundle(B)
    C = CoordinateSystem([("a", 0, 0), ("b", 1, 0), ("c", 2, 0), ("d", 3, 0)],
                         name="lk_h")
    H = single_chart_bundle(C)
    chi = GradedMorphism(F, G, {
        B["u"]: A.var("x"), B["v"]: A.var("y"),
        B["t"]: A.var("z") + A.var("y") ** 2,
    })
    phi = GradedMorphism(G, H, {
        C["a"]: B.var("u"), C["b"]: B.var("v"), C["c"]: B.var("t"),
        C["d"]: B.var("t") * B.var("v"),
    })
    DF, DG, DH = linearise(F), linearise(G), linearise(H)
    with pytest.raises(IllDefinedProjection,
                       match="^image of c depends on dropped coordinate t$"):
        linearise_morphism(phi, DG, DH)
    with pytest.raises(IllDefinedProjection,
                       match="^image of c depends on dropped coordinate z$"):
        linearise_morphism(compose_morphisms(phi, chi), DF, DH)


def test_projection_lift_diagram():
    # d_{k-1} o V(tau) = D(tau) o d_k as substitution maps, checked on the
    # image of every D(F_{k-1}) coordinate
    from gradedbundles.bundle import project_tower, vertical_bundle

    F = degree3_example()
    Fm = project_tower(F, 2)
    tau = GradedMorphism(
        F, Fm, {v: SuperPolynomial.from_var(F.chart[v.name])
                for v in Fm.chart.variables}
    )
    tau.validate()
    DF, DFm = linearise(F), linearise(Fm)
    dtau = linearise_morphism(tau, DF, DFm)

    VF = vertical_bundle(F)
    # d_k: inclusion of D(F) coordinates into VF
    dk = {v: SuperPolynomial.from_var(VF.chart[v.name]) for v in DF.chart.variables}
    VFm = vertical_bundle(Fm)
    vtau = {}
    for v in Fm.chart.variables:
        vtau[VFm.chart[v.name]] = SuperPolynomial.from_var(VF.chart[v.name])
    for v, dv in VFm.provenance.maps["dotted"][0].items():
        vtau[dv] = SuperPolynomial.from_var(VF.provenance.maps["dotted"][0][F.chart[v.name]])
    dkm = {v: SuperPolynomial.from_var(VFm.chart[v.name])
           for v in DFm.chart.variables}
    for target in DFm.chart.variables:
        lhs = substitute(dkm[target], vtau)
        rhs = substitute(dtau.components[target], dk)
        assert lhs == rhs


def _morphism_of_degree2(components):
    F, G = degree2_example(), degree2_example()
    return GradedMorphism(F, G, {G.chart[n]: p(F.chart) for n, p in components.items()})


def _parity_flip():
    S = single_chart_bundle(CoordinateSystem([("x", 0, EVEN), ("y", 1, EVEN)], name="flips"))
    T = single_chart_bundle(CoordinateSystem([("x", 0, EVEN), ("t", 1, ODD)], name="flipt"))
    return GradedMorphism(S, T, {T.chart["x"]: S.chart.var("x"), T.chart["t"]: S.chart.var("y")})


@pytest.mark.parametrize("morphism, message", [
    (lambda: _morphism_of_degree2({n: lambda a: a.var("x") for n in "xyz"}),
     r"^component of y has weight \(0,\), expected \(1,\)$"),
    (lambda: _morphism_of_degree2({}), "^missing component for x$"),
    (lambda: _morphism_of_degree2({"x": lambda a: a.var("x"),
                                   "y": lambda a: a.var("y") + a.var("z")}),
     "^component of y is inhomogeneous$"),
    (_parity_flip, "^component of t flips parity$"),
], ids=["weight", "missing", "inhomogeneous", "parity"])
def test_weight_violation_raised(morphism, message):
    with pytest.raises(WeightViolation, match=message):
        morphism().validate()


@pytest.mark.parametrize("build, message", [
    (lambda: GLBundle([CoordinateSystem([("x", (0, 0), 0), ("v", (0, 2), 0)], name="w2")]),
     "^v has second weight 2, expected 0 or 1$"),
    (lambda: GLBundle([CoordinateSystem([("x", (0, 0), 0), ("y", (2, 0), 0)], name="bound")],
                      gl_degree=2),
     "^first weight 2 exceeds degree bound 1$"),
    (lambda: linearise(single_chart_bundle(CoordinateSystem([("x", 0, 0)], name="lin0"))),
     "^linearisation needs degree >= 1$"),
], ids=["second-weight", "degree-bound", "linearise-degree-0"])
def test_malformed_gl_input_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_reconstruct_renames_a_top_coordinate_whose_stripped_name_is_taken():
    # stripping the d of the top fibre coordinate dx gives the base name x
    G = GLBundle([CoordinateSystem([("x", (0, 0), 0), ("dx", (1, 1), 0)], name="strip")])
    R = reconstruct(G)
    assert [(v.name, v.weight) for v in R.chart.variables] == [("x", (0,)), ("dx_u", (2,))]


def test_linear_dual_degree1():
    A = CoordinateSystem([("x", 0, 0), ("y", 1, 0)], name="de1a")
    B = CoordinateSystem([("X", 0, 0), ("Y", 1, 0)], name="de1b")
    E = two_chart_bundle(
        A, B,
        {"X": A.var("x"), "Y": 5 * A.var("y")},
        {"x": B.var("X"), "y": Fraction(1, 5) * B.var("Y")},
    )
    dual = linear_dual(E)
    t = dual.transitions[(0, 1)]
    pi = dual.charts[1]["pdY"]
    assert t.forward[pi] == Fraction(1, 5) * dual.chart.var("pdy")
    assert validate(dual).passed


def _dual_of_a_wrong_parity_fibre_image():
    # the odd fibre coordinate DA of chart b has the even image dx
    A = CoordinateSystem([("x", (0, 0), EVEN), ("dx", (0, 1), EVEN)], name="pa", arity=2)
    B = CoordinateSystem([("X", (0, 0), EVEN), ("DA", (0, 1), ODD)], name="pb", arity=2)
    G = two_chart_bundle(A, B, {"X": A.var("x"), "DA": A.var("dx")},
                         {"x": B.var("X"), "dx": B.var("DA")}, cls=GLBundle)
    return "DA", lambda: linear_dual(G.base_bundle(), G)


def _cotangent_of_a_wrong_parity_image():
    # the odd coordinate T of chart b has the even image y
    A = CoordinateSystem([("x", 0, EVEN), ("y", 1, EVEN)], name="ca")
    B = CoordinateSystem([("X", 0, EVEN), ("T", 1, ODD)], name="cb")
    F = two_chart_bundle(A, B, {"X": A.var("x"), "T": A.var("y")},
                         {"x": B.var("X"), "y": B.var("T")})
    return "T", lambda: cotangent_bundle(F)


@pytest.mark.parametrize("case", [_dual_of_a_wrong_parity_fibre_image,
                                  _cotangent_of_a_wrong_parity_image],
                         ids=["linear_dual", "cotangent_bundle"])
def test_contragredient_rejects_a_fibre_image_of_the_wrong_parity(case):
    name, build = case()
    with pytest.raises(ParityMismatch, match=rf"^image of {name} \(parity 1\) has parity 0$"):
        build()


@pytest.mark.parametrize("weights", [[0, 1], [(0, 0, 0), (0, 1, 0)]], ids=["arity-1", "arity-3"])
def test_gl_bundle_needs_weight_arity_two(weights):
    chart = CoordinateSystem([("x", weights[0], EVEN), ("v", weights[1], EVEN)], name="ga")
    with pytest.raises(ValueError, match="^GL-bundles need weight arity 2, got"):
        GLBundle([chart])


def test_dual_validates_and_pairing_invariance():
    for F in (degree2_example(), degree3_example()):
        dual = linear_dual(F)
        assert validate(dual).passed
        pr = pairing(F, dual)
        assert pr.check_invariance().passed
        k = F.degree
        assert weight_of(pr.polynomial, 2) == (k, 1)


def test_dual_on_random_bundles():
    rng = random.Random(47)
    for _ in range(4):
        F = random_bundle(rng, rng.choice([2, 3]))
        dual = linear_dual(F)
        assert validate(dual).passed
        assert pairing(F, dual).check_invariance().passed


def test_pairing_formula_degree2():
    F = degree2_example()
    pr = pairing(F)
    sys = pr.bundle.charts[0]
    expected = sys.var("y") * sys.var("pdy") + 2 * sys.var("z") * sys.var("pdz")
    assert pr.polynomial == expected


def test_dual_contragredience_blockwise():
    # N M = 1 blockwise: the dual transition matrix against the dotted one
    F = degree3_example()
    D = linearise(F)
    dual = linear_dual(F, D)
    t_d = D.transitions[(0, 1)]
    t_pi = dual.transitions[(0, 1)]
    fib_i = [v for v in D.chart.variables if v.weight[1] == 1]
    fib_j = [v for v in D.charts[1].variables if v.weight[1] == 1]
    dual_map = {v: D.chart[v.name] for v in dual.chart.variables
                if v.weight[1] == 0}
    n = {}
    for a in fib_j:
        for b in fib_i:
            pi_of = dual.provenance.maps["dual"]
            entry = partial(t_pi.forward[pi_of[1][a]], pi_of[0][b])
            n[(b, a)] = ChartMap(dual_map)(entry)
    for b in fib_i:
        for c in fib_i:
            s = SuperPolynomial.zero()
            for a in fib_j:
                s = s + n[(b, a)] * partial(t_d.forward[a], c)
            expected = SuperPolynomial.constant(1 if b == c else 0)
            assert s == expected


def test_mironian_structure():
    F = degree2_example()
    mi = mironian(F)
    assert [(v.name, v.weight) for v in mi.chart.variables] == [
        ("x", (0, 0)), ("y", (1, 0)), ("pdz", (0, 1))
    ]
    assert mironian_report(F).passed
    assert validate(mi).passed


def test_mironian_report_fails_on_an_inhomogeneous_dual():
    # the law of the kept x reads q, of bi-weight (1, 1), which Mi(F) drops
    def chart(names, name):
        weights = [(0, 0), (1, 0), (0, 1), (1, 1)]
        return CoordinateSystem(zip(names, weights, [EVEN] * 4), name=name, arity=2)
    A, B = chart("xypq", "inha"), chart("XYPQ", "inhb")
    x, y, p, q = (A.var(n) for n in "xypq")
    X, Y, P, Q = (B.var(n) for n in "XYPQ")
    dual = two_chart_bundle(A, B, {"X": x + q, "Y": y, "P": p, "Q": q},
                            {"x": X - Q, "y": Y, "p": P, "q": Q}, cls=GLBundle)
    report = mironian_report(degree2_example(), dual)
    [item] = report.items
    assert (item.check_id, item.verdict) == ("mironian restriction is well defined", "FAIL")
    assert item.residual == "image of X depends on dropped coordinate q"


def test_mironian_degree1_is_dual():
    A = CoordinateSystem([("x", 0, 0), ("y", 1, 0)], name="mi1a")
    B = CoordinateSystem([("X", 0, 0), ("Y", 1, 0)], name="mi1b")
    E = two_chart_bundle(
        A, B,
        {"X": A.var("x"), "Y": 7 * A.var("y")},
        {"x": B.var("X"), "y": B.var("Y") / 7},
    )
    mi = mironian(E)
    t = mi.transitions[(0, 1)]
    assert t.forward[mi.charts[1]["pdY"]] == mi.chart.var("pdy") / 7
    assert [v.name for v in mi.chart.variables] == ["x", "pdy"]


def test_parity_reverse_involution_and_laws():
    F = degree2_example()
    D = linearise(F)
    P = parity_reverse(D)
    for v in P.fiber_vars(0):
        assert v.parity == 1
    t = P.transitions[(0, 1)]
    ch1 = P.charts[1]
    xi, th = P.chart.var("dy"), P.chart.var("dz")
    y, x = P.chart.var("y"), P.chart.var("x")
    assert t.forward[ch1["dY"]] == 3 * xi
    assert t.forward[ch1["dZ"]] == 5 * th + xi * y * (1 + x)
    assert bundles_structurally_equal(D, parity_reverse(P))
    assert validate(P).passed


def test_parity_reverse_rejects_nonlinear():
    A = CoordinateSystem([("x", (0, 0), 0), ("v", (0, 1), 0)], name="nl_a")
    B = CoordinateSystem([("X", (0, 0), 0), ("V", (0, 1), 0)], name="nl_b")
    bad = two_chart_bundle(
        A, B,
        {"X": A.var("x"), "V": A.var("v") * A.var("v")},
        {"x": B.var("X"), "v": B.var("V")},
        cls=GLBundle,
    )
    with pytest.raises(NonlinearFiber):
        parity_reverse(bad)


def three_chart_degree2():
    from gradedbundles.bundle import GradedBundle, TransitionMap
    from gradedbundles.superalg import substitute

    charts = [
        CoordinateSystem([(f"x{i}", 0, 0), (f"y{i}", 1, 0), (f"z{i}", 2, 0)],
                         name=f"tc{i}")
        for i in range(3)
    ]
    scale_y = [Fraction(1), Fraction(2), Fraction(3)]
    scale_z = [Fraction(1), Fraction(5), Fraction(7)]
    corr = [Fraction(0), Fraction(1, 2), Fraction(1, 3)]

    def tmap(i, j):
        # y_j = (sj/si) y_i, z_j = (zj/zi) z_i + (c_j - c_i (zj/zi) (sj/si)^-2 ...)
        # built so that all maps compose exactly: z in chart i equals
        # Z z_i + C y_i^2 against chart 0 data
        qy = scale_y[j] / scale_y[i]
        qz = scale_z[j] / scale_z[i]
        # chart-m coordinates against chart-0: y_m = s_m y0, z_m = z_m z0 + c_m y0^2
        # so z_j = qz z_i + (c_j - qz c_i) (y_i / s_i)^2
        cc = (corr[j] - qz * corr[i]) / (scale_y[i] ** 2)
        src, dst = charts[i], charts[j]
        fwd = {
            dst[f"x{j}"]: src.var(f"x{i}"),
            dst[f"y{j}"]: src.var(f"y{i}") * qy,
            dst[f"z{j}"]: src.var(f"z{i}") * qz + src.var(f"y{i}") ** 2 * cc,
        }
        qy_i = 1 / qy
        qz_i = 1 / qz
        cc_i = (corr[i] - qz_i * corr[j]) / (scale_y[j] ** 2)
        inv = {
            src[f"x{i}"]: dst.var(f"x{j}"),
            src[f"y{i}"]: dst.var(f"y{j}") * qy_i,
            src[f"z{i}"]: dst.var(f"z{j}") * qz_i + dst.var(f"y{j}") ** 2 * cc_i,
        }
        return TransitionMap(src, dst, fwd, inv)

    return GradedBundle(charts, {(i, j): tmap(i, j) for i in range(3) for j in range(i + 1, 3)})


def test_three_chart_atlas_through_the_functor():
    F = three_chart_degree2()
    rep = validate(F)
    assert rep.passed
    assert any("cocycle" in item.check_id for item in rep.items)
    D = linearise(F)
    rep_d = validate(D)
    assert rep_d.passed
    assert any("cocycle" in item.check_id for item in rep_d.items)
    assert is_symmetric(D)
    assert bundles_structurally_equal(F, reconstruct(D))
    dual = linear_dual(F, D)
    assert validate(dual).passed
    pr = pairing(F, dual)
    assert pr.check_invariance().passed
    assert embedding_compatibility(F, D).passed


def test_base_bundle_of_gl():
    F = degree3_example()
    D = linearise(F)
    B = D.base_bundle()
    assert B.degree == 2
    assert [v.name for v in B.chart.variables] == ["x", "y", "z"]
    assert validate(B).passed


def test_structural_equality_ignores_declaration_order():
    """The same atlas with its first chart declared (x, y) or (y, x)."""
    def declared(order):
        weights = {"x": 0, "y": 1}
        a = CoordinateSystem([(n, weights[n], EVEN) for n in order], name="a")
        b = CoordinateSystem([("X", 0, EVEN), ("Y", 1, EVEN)], name="b")
        x, y = a.var("x"), a.var("y")
        X, Y = b.var("X"), b.var("Y")
        return two_chart_bundle(a, b, {"X": x, "Y": y + x * y}, {"x": X, "y": Y - X * Y})

    assert bundles_structurally_equal(declared("xy"), declared("yx"))
    other = declared("yx")
    other.transitions[(0, 1)].forward[other.charts[1]["Y"]] = other.charts[0].var("y")
    assert not bundles_structurally_equal(declared("xy"), other)


def _xy_atlas(y_weight=1, y_parity=EVEN):
    """A two-chart atlas (x, y) -> (X, Y), its y and Y of the given weight
    and parity."""
    a = CoordinateSystem([("x", 0, EVEN), ("y", y_weight, y_parity)], name="a")
    b = CoordinateSystem([("X", 0, EVEN), ("Y", y_weight, y_parity)], name="b")
    x, y = a.var("x"), a.var("y")
    X, Y = b.var("X"), b.var("Y")
    return two_chart_bundle(a, b, {"X": x, "Y": y + x * y}, {"x": X, "y": Y - X * Y})


def _other_inverse():
    F = _xy_atlas()
    F.transitions[(0, 1)].inverse[F.charts[0]["y"]] = F.charts[1].var("Y")
    return F


def _missing_component():
    F = _xy_atlas()
    del F.transitions[(0, 1)].forward[F.charts[1]["Y"]]
    return F


# Each way two atlases can differ, as (the other atlas, the name map).
STRUCTURAL_DIFFERENCES = {
    "chart count": lambda: (GradedBundle(_xy_atlas().charts[:1]), None),
    "chart size": lambda: (GradedBundle(
        [CoordinateSystem([("x", 0, EVEN)], name="a"), _xy_atlas().charts[1]]), None),
    "missing name": lambda: (_xy_atlas(), str.upper),
    "weight": lambda: (_xy_atlas(y_weight=2), None),
    "parity": lambda: (_xy_atlas(y_parity=ODD), None),
    "transition keys": lambda: (GradedBundle(_xy_atlas().charts), None),
    "inverse component": lambda: (_other_inverse(), None),
    "missing component": lambda: (_missing_component(), None),
}


@pytest.mark.parametrize("difference", STRUCTURAL_DIFFERENCES)
def test_structural_equality_catches_each_difference(difference):
    other, names = STRUCTURAL_DIFFERENCES[difference]()
    assert bundles_structurally_equal(_xy_atlas(), _xy_atlas())
    assert not bundles_structurally_equal(_xy_atlas(), other, names=names)
    if names is None:
        assert not bundles_structurally_equal(other, _xy_atlas())


def _perturbed_linearisation(component, extra):
    """D(F) of the degree-3 example with ``extra(chart 0)`` added to the
    0->1 law of ``component``."""
    D = linearise(degree3_example())
    t = D.transitions[(0, 1)]
    v = t.target[component]
    t.forward[v] = t.forward[v] + extra(t.source)
    return D


def _failures(report):
    return [(i.check_id, i.residual) for i in report.failures()]


def _vertical_lift_failures():
    return _failures(symmetry_report(
        _perturbed_linearisation("dZ", lambda a: a.var("x") * a.var("dy"))))


def _tensor_symmetry_failures():
    return _failures(symmetry_report(
        _perturbed_linearisation("dW", lambda a: a.var("x") * a.var("y") * a.var("dz"))))


def _embedding_failures():
    F = degree3_example()
    D = _perturbed_linearisation("dW", lambda a: a.var("x") * a.var("dy"))
    return _failures(embedding_compatibility(F, D))


def _invariance_failures():
    pr = pairing(degree3_example())
    pr.polynomials[1] = pr.polynomials[1] + pr.bundle.charts[1].var("X") * pr.bundle.charts[1].var("Z")
    return _failures(pr.check_invariance())


# Failing items recorded before the residual rule moved into ``Report.zero``.
@pytest.mark.parametrize("failures,expected", [
    (_vertical_lift_failures,
     [("transition 0->1: dZ transforms as the vertical lift of Z", "x*dy")]),
    (_tensor_symmetry_failures,
     [("transition 0->1: dW transforms as the vertical lift of its Euler potential",
       "1/3*x*y*dz - 2/3*x*z*dy")]),
    (_embedding_failures,
     [("transition 0->1: embedding compatibility on dW", "x*y")]),
    (_invariance_failures,
     [("transition 0->1: pairing invariance", "3*x*z + 1/2*x^2*y^2"),
      ("transition 1->0: pairing invariance", "-X*Z")]),
], ids=["vertical-lift", "tensor-symmetry", "embedding", "invariance"])
def test_failing_residuals_are_pinned(failures, expected):
    assert failures() == expected
