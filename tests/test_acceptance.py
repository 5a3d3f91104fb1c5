"""Acceptance criteria, one test per criterion, exact unless stated.

Every check is an exact polynomial identity over the rationals; the two
runtime bounds are wall-clock.  Run with ``pytest -s tests/test_acceptance.py``
to see one verdict line per criterion.
"""

import pathlib
import random
import time
from fractions import Fraction

from gradedbundles.superalg import ChartMap, SuperPolynomial, weight_of
from gradedbundles.bundle import (
    tangent_bundle,
    validate,
)
from gradedbundles.linfun import (
    bundles_structurally_equal,
    compose_morphisms,
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
)
from gradedbundles.algebroid import (
    AlgebroidSection,
    derived_bracket,
    restrict_to_A1,
)
from gradedbundles.constructions import (
    PolynomialDiffeo,
    abelian,
    heisenberg3,
    higher_tangent,
    lie_tower,
    point_algebroid,
    prolongation_algebroid,
    reduced_bracket,
    sl2,
    so3,
    tm_algebroid,
    tower_section_polynomial,
)
from helpers import (
    SHIPPED_COMMANDS,
    homogeneous_section_poly,
    random_antisym_constants,
    random_bundle,
    random_morphism,
    random_nonjacobi_constants,
    random_tower_section,
    run_cli_subprocess,
    vector_bundle_tangent,
)
from test_bundle import degree2_example
from test_linfun import degree3_example

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS  {text}")


def test_criterion_1_linearisation_worked_examples():
    start = time.perf_counter()
    F2 = degree2_example()
    D2 = linearise(F2)
    t = D2.transitions[(0, 1)]
    ch1 = D2.charts[1]
    x, y = D2.chart.var("x"), D2.chart.var("y")
    dy, dz = D2.chart.var("dy"), D2.chart.var("dz")
    # displayed laws: dy' = dy T, dz' = dz S + dy y U
    assert t.forward[ch1["dY"]] == dy * 3
    assert t.forward[ch1["dZ"]] == dz * 5 + dy * y * (1 + x)

    F3 = degree3_example()
    D3 = linearise(F3)
    t3 = D3.transitions[(0, 1)]
    ch31 = D3.charts[1]
    x, y, z = (D3.chart.var(n) for n in "xyz")
    dy3, dz3, dw3 = (D3.chart.var(n) for n in ("dy", "dz", "dw"))
    # displayed laws: dy T; dz T + dy y T; dw T + dz y T + z dy T + 1/2 dy y y T
    assert t3.forward[ch31["dY"]] == dy3 * 2
    assert t3.forward[ch31["dZ"]] == dz3 * 3 + dy3 * y * x
    assert t3.forward[ch31["dW"]] == (
        dw3 * 5 + dz3 * y * x + z * dy3 * x + Fraction(1, 2) * dy3 * y * y * (1 + x)
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"linearisation of worked examples exact ({elapsed:.3f}s < 1s)")


def test_criterion_2_holonomic_embedding_f3():
    F3 = degree3_example()
    D3 = linearise(F3)
    iota = holonomic_embedding(F3, D3)
    comp = {v.name: p for v, p in iota.components.items()}
    assert comp["dy"] == F3.chart.var("y")
    assert comp["dz"] == 2 * F3.chart.var("z")
    assert comp["dw"] == 3 * F3.chart.var("w")
    # substituting iota into the dotted laws reproduces 1x, 2x, 3x the
    # undotted ones, exactly, on every transition
    from gradedbundles.linfun import holonomic_assignment
    from gradedbundles.superalg import substitute

    for (i, j), t in sorted(D3.transitions.items()):
        holo = holonomic_assignment(D3, i)
        tF = F3.transitions[(i, j)]
        for v, dv in D3.provenance.maps["dotted"][j].items():
            w = sum(v.weight)
            assert substitute(t.forward[dv], holo) == tF.forward[v] * w
    _report(2, "holonomic embedding reproduces 1x, 2x, 3x the undotted laws")


def _jet_names(dim, k):
    names = {}
    for i in range(1, dim + 1):
        for stem in ("x", "X"):
            names[f"{stem}{i}"] = f"{stem}{i}"
            for r in range(1, k):
                names[f"{stem}{i}_{r}"] = f"{stem}{i}_{r}"
            names[f"d{stem}{i}_1"] = f"d{stem}{i}"
            for r in range(2, k + 1):
                names[f"d{stem}{i}_{r}"] = f"d{stem}{i}_{r - 1}"
    return names


def test_criterion_3_linearised_t2m_is_t_tm():
    cases = [
        PolynomialDiffeo.build(1, lambda xs: [xs[0] + xs[0] ** 2],
                               lambda Xs: [Xs[0] - Xs[0] ** 2]),
        PolynomialDiffeo.build(2, lambda xs: [xs[0] + xs[1] ** 2, xs[1]],
                               lambda Xs: [Xs[0] - Xs[1] ** 2, Xs[1]]),
    ]
    for phi in cases:
        D = linearise(higher_tangent(phi, 2))
        TT = tangent_bundle(higher_tangent(phi, 1))
        names = _jet_names(phi.dim, 2)
        assert bundles_structurally_equal(D, TT, names=lambda n: names[n])
    # the unimodular shear round-trips exactly, so its tower validates
    assert cases[1].round_trip_exact()
    assert validate(higher_tangent(cases[1], 2)).passed
    assert not cases[0].round_trip_exact()
    _report(3, "D(T^2 M) = T(TM) exactly for x + x^2 and a plane shear")


def test_criterion_4_symmetric_criterion():
    rng = random.Random(101)
    for _ in range(20):
        F = random_bundle(rng, rng.choice([2, 3]),
                          block_dims=None, base_dim=rng.choice([1, 2]))
        assert is_symmetric(linearise(F))
    assert not is_symmetric(vector_bundle_tangent(t=Fraction(2)))
    assert not is_symmetric(vector_bundle_tangent(base_dim=2))
    _report(4, "20 random linearisations symmetric; tangent of a generic "
               "vector bundle is not")


def test_criterion_5_functor_laws():
    rng = random.Random(202)
    pairs = 0
    while pairs < 50:
        k3 = rng.choice([2, 3])
        k2 = rng.choice([x for x in (2, 3) if x >= k3])
        k1 = rng.choice([x for x in (2, 3) if x >= k2])
        F = random_bundle(rng, k1, name="af")
        G = random_bundle(rng, k2, name="ag")
        H = random_bundle(rng, k3, name="ah")
        chi = random_morphism(rng, F, G)
        phi = random_morphism(rng, G, H)
        DF, DG, DH = linearise(F), linearise(G), linearise(H)
        assert morphisms_equal(
            linearise_morphism(identity_morphism(F), DF, DF),
            identity_morphism(DF),
        )
        lhs = linearise_morphism(compose_morphisms(phi, chi), DF, DH)
        rhs = compose_morphisms(
            linearise_morphism(phi, DG, DH), linearise_morphism(chi, DF, DG)
        )
        assert morphisms_equal(lhs, rhs)
        nat_lhs = compose_morphisms(
            linearise_morphism(chi, DF, DG), holonomic_embedding(F, DF)
        )
        nat_rhs = compose_morphisms(holonomic_embedding(G, DG), chi)
        assert morphisms_equal(nat_lhs, nat_rhs)
        pairs += 1
    _report(5, "functor laws and embedding naturality exact on 50 random "
               "morphism pairs")


def test_criterion_6_duality_pairing_mironian():
    for F in (degree2_example(), degree3_example()):
        k = F.degree
        dual = linear_dual(F)
        pr = pairing(F, dual)
        assert weight_of(pr.polynomial, 2) == (k, 1)
        assert pr.check_invariance().passed
    phi = PolynomialDiffeo.build(2, lambda xs: [xs[0] + xs[1] ** 2, xs[1]],
                                 lambda Xs: [Xs[0] - Xs[1] ** 2, Xs[1]])
    T2 = higher_tangent(phi, 2)
    assert mironian_report(T2).passed
    mi = mironian(T2)
    TM = higher_tangent(phi, 1)
    t_mi = mi.transitions[(0, 1)]
    t_tm = TM.transitions[(0, 1)]
    for v in TM.charts[1].variables:
        w = mi.charts[1][v.name]
        lhs = {tuple((u.name, e) for u, e in m): c
               for m, c in t_mi.forward[w].terms.items()}
        rhs = {tuple((u.name, e) for u, e in m): c
               for m, c in t_tm.forward[v].terms.items()}
        assert lhs == rhs
    _report(6, "pairing homogeneous of weight (k,1) and invariant; "
               "Mi(T^2 M) = TM x T*M structurally")


def test_criterion_7_homological_equivalences():
    start = time.perf_counter()
    rng = random.Random(303)
    towers = [abelian(3), so3(), sl2(), heisenberg3()]
    for c in towers:
        alg = lie_tower(c, 2)
        pp = alg.phase.schouten(alg.hamiltonian.poly, alg.hamiltonian.poly)
        assert alg.check.residual.is_zero() and pp.is_zero() \
            and c.satisfies_jacobi
        assert alg.kind == "lie"
    for _ in range(20):
        c = random_nonjacobi_constants(rng)
        alg = lie_tower(c, 2)
        pp = alg.phase.schouten(alg.hamiltonian.poly, alg.hamiltonian.poly)
        assert not alg.check.residual.is_zero()
        assert not pp.is_zero()
        assert not c.satisfies_jacobi
        assert alg.kind == "skew"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(7, f"[Q,Q] = 0, [P,P] = 0 and the jacobi verdict agree on all "
               f"towers ({elapsed:.2f}s < 10s)")


def test_criterion_8_derived_bracket_degree_law():
    rng = random.Random(404)
    checked = 0
    while checked < 50:
        k = rng.choice([2, 3, 4])
        dim = rng.choice([1, 2, 3])
        c = abelian(dim) if rng.randrange(3) == 0 else \
            random_antisym_constants(rng, dim)
        alg = lie_tower(c, k)
        r1 = rng.randrange(1, k + 2)
        r2 = rng.randrange(1, k + 2)
        p1 = homogeneous_section_poly(rng, alg, r1)
        p2 = homogeneous_section_poly(rng, alg, r2)
        if p1.is_zero() or p2.is_zero():
            continue
        s1 = AlgebroidSection(p1, r1, alg.phase)
        s2 = AlgebroidSection(p2, r2, alg.phase)
        out = derived_bracket(s1, s2, alg.hamiltonian)
        if r1 + r2 - k < 1:
            assert out.is_zero()
        else:
            assert out.degree == r1 + r2 - k
            w = weight_of(out.poly, 3)
            assert w in ("zero", (r1 + r2 - k - 1, 0, 1))
        checked += 1
    _report(8, "degree(result) = r1 + r2 - k on 50 random homogeneous "
               "section pairs, k <= 4, dims <= 3")


def test_criterion_9_reduced_bracket_equivalence():
    rng = random.Random(505)
    alg = lie_tower(so3(), 2)
    P = alg.hamiltonian
    phase = alg.phase
    for _ in range(20):
        s1 = random_tower_section(rng, alg)
        s2 = random_tower_section(rng, alg)
        formula = reduced_bracket(alg, s1, s2)
        derived = -phase.schouten(
            phase.schouten(tower_section_polynomial(alg, s1), P.poly),
            tower_section_polynomial(alg, s2),
        )
        assert tower_section_polynomial(alg, formula) == derived
    _report(9, "reduced bracket equals derived bracket componentwise on 20 "
               "random so(3) section pairs")


def test_criterion_10_prolongation_consistency():
    rng = random.Random(606)
    for c in (so3(), heisenberg3(), random_nonjacobi_constants(rng)):
        for k in (2, 3):
            tower = lie_tower(c, k)
            prol = prolongation_algebroid(point_algebroid(c), k)
            assert [(v.name, v.weight, v.parity)
                    for v in prol.carrier.chart.variables] == [
                (v.name, v.weight, v.parity)
                for v in tower.carrier.chart.variables
            ]
            varmap = {v: prol.phase.system[v.name]
                      for v in tower.phase.system.variables}
            rename = ChartMap(varmap)
            for v in tower.phase.system.variables:
                assert prol.q.coefficient(varmap[v]) == rename(tower.q.coefficient(v))
            assert prol.kind == tower.kind

    from gradedbundles.superalg import substitute

    for E in (tm_algebroid(2), point_algebroid(so3())):
        alg = prolongation_algebroid(E, 2)
        assert (alg.kind == "lie") == E.is_lie
        d = restrict_to_A1(alg.q)
        q_e = E.q_field()
        chart = alg.carrier.chart
        phase = alg.phase
        for v in E.pie_system()[0].variables:
            target = (
                phase.theta_of[chart[v.name]]
                if v.name.startswith("xi")
                else phase.x_of[chart[v.name]]
            )
            lift = {}
            for u in q_e.coefficient(v).variables():
                img = (
                    phase.theta_of[chart[u.name]]
                    if u.name.startswith("xi")
                    else phase.x_of[chart[u.name]]
                )
                lift[u] = SuperPolynomial.from_var(img)
            assert d.coefficient(target) == substitute(q_e.coefficient(v), lift)
    bad = point_algebroid(random_nonjacobi_constants(rng))
    assert prolongation_algebroid(bad, 2).kind == "skew"
    _report(10, "prolongation over a point reproduces the tower bit-exactly; "
                "the A1 leg returns the input field; kinds match")


def test_criterion_11_cli_determinism(tmp_path):
    outputs = {}
    for seed in ("0", "1", "7", "42", "1234"):
        for name, command in SHIPPED_COMMANDS:
            proc = run_cli_subprocess(
                [*command, "--spec", str(SPEC_DIR / name)], seed=seed
            )
            key = (name, tuple(command))
            assert proc.returncode == 0, proc.stdout + proc.stderr
            if key in outputs:
                assert outputs[key] == proc.stdout, f"nondeterminism in {key}"
            else:
                outputs[key] = proc.stdout
    # exit codes: 1 for failing checks, 2 for parse errors
    bad = tmp_path / "bad.spec"
    bad.write_text(
        "[structure lie-tower]\nk = 2\ndim = 3\n"
        "c 1 2 3 = 1\nc 2 3 1 = 1\nc 3 1 2 = 1\nc 1 2 1 = 1\n"
    )
    proc = run_cli_subprocess(["check-q", "--spec", str(bad)])
    assert proc.returncode == 1
    garbled = tmp_path / "garbled.spec"
    garbled.write_text("not a spec\n")
    proc = run_cli_subprocess(["validate", "--spec", str(garbled)])
    assert proc.returncode == 2
    _report(11, "byte-identical reports across 5 runs and hash seeds; exit "
                "codes 0/1/2 conform")
