import functools
import pathlib
import random
from fractions import Fraction

import pytest

from gradedbundles import cli, specfile
from gradedbundles.superalg import (
    Derivation,
    ODD,
    SuperPolynomial,
    ZERO,
    weight_of,
)
from gradedbundles.bundle import CoordinateSystem, single_chart_bundle
from gradedbundles.linfun import GLBundle
from gradedbundles.algebroid import (
    AlgebroidHamiltonian,
    AlgebroidSection,
    CoordinateMismatch,
    HomologicalField,
    MalformedQ,
    NotALinearisation,
    OddPhaseSpace,
    OddPoissonSpace,
    WeightedAlgebroid,
    algebroid_from_coefficients,
    anchor,
    derived_bracket,
    epsilon_components,
    extract_coefficients,
    p_from_q,
    q_blocks,
    q_from_p,
    restrict_to_A1,
    rho_hat,
    structure_action,
    weighted_lie_algebra_check,
)
from gradedbundles.constructions import (
    AlgebroidData,
    abelian,
    cotangent_algebroid,
    heisenberg3,
    lie_tower,
    linear_poisson,
    prolongation_algebroid,
    sl2,
    so3,
    tangent_algebroid,
    tm_algebroid,
)

from helpers import (
    homogeneous_section_poly,
    random_nonjacobi_constants,
    random_odd_bundle,
    rational_nonzero,
    run_python_subprocess,
)
from test_bundle import degree2_example

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


@pytest.fixture(scope="module")
def tower2():
    return lie_tower(so3(), 2)


def tri_parts(phase, p):
    return weight_of(p, 3)


def test_phase_space_weights(tower2):
    phase = tower2.phase
    k = phase.k
    for q, qs in phase.poisson.pairs:
        total_pair = tuple(a + b for a, b in zip(q.weight, qs.weight))
        assert total_pair == (k - 1, 1, 1)
    for v in phase.xs + phase.pis:
        assert v.parity == 0
        assert v.weight[1] == 0
    for v in phase.chis + phase.thetas:
        assert v.parity == 1
        assert v.weight[1] == 1


def test_schouten_conjugate_pairs(tower2):
    phase = tower2.phase
    for q, qs in phase.poisson.pairs:
        one = phase.schouten(SuperPolynomial.from_var(q), SuperPolynomial.from_var(qs))
        assert one == SuperPolynomial.constant(1)


def test_schouten_weight_shift(tower2):
    phase = tower2.phase
    P = tower2.hamiltonian.poly
    k = phase.k
    pp = phase.schouten(P, P)
    w = weight_of(pp, 3)
    # additivity oracle: (k-1,2,1) + (k-1,2,1) + (1-k,-1,-1)
    assert w in ("zero", (k - 1, 3, 1))
    t3 = lie_tower(sl2(), 3)
    s = homogeneous_section_poly(random.Random(2), t3, 3)
    w = weight_of(-t3.phase.schouten(t3.phase.schouten(s, t3.hamiltonian.poly), s), 3)
    assert w in ("zero", (3 + 3 - 3 - 1, 0, 1))


def test_schouten_coordinate_mismatch(tower2):
    other = lie_tower(so3(), 3)
    with pytest.raises(CoordinateMismatch):
        tower2.phase.schouten(tower2.hamiltonian.poly, other.hamiltonian.poly)


# a, b, c and d are all off the phase space; the message names the first
# in chart order, of f when f has one (c), else of g (a); for a Hamiltonian
# field, of h when h has one (b), else of the listed variables (a)
COORDINATE_MISMATCH_SCRIPT = """
from gradedbundles import CoordinateMismatch, CoordinateSystem, OddPoissonSpace
P = CoordinateSystem([("q", 0, 0), ("qs", 0, 1)], name="phase")
O = CoordinateSystem([(n, 0, 0) for n in "abcd"], name="other")
space = OddPoissonSpace(P, [(P["q"], P["qs"])])
a, b, c, d = (O.var(n) for n in "abcd")
for f, g in [(P.var("q"), a * b * c * d), (d * c * P.var("q"), a * b * P.var("qs"))]:
    try:
        space.bracket(f, g)
    except CoordinateMismatch as exc:
        print(exc)
for h in (P.var("q") * b, P.var("q")):
    try:
        space.hamiltonian_field(h, [P["qs"], O["a"], O["d"]], (0,), 1)
    except CoordinateMismatch as exc:
        print(exc)
"""


@pytest.mark.parametrize("seed", ["0", "1", "5"])
def test_coordinate_mismatch_names_the_first_foreign_coordinate(seed):
    proc = run_python_subprocess(["-c", COORDINATE_MISMATCH_SCRIPT], seed=seed)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("variable a is not on this phase space\n"
                           "variable c is not on this phase space\n"
                           "variable b is not on this phase space\n"
                           "variable a is not on this phase space\n")


def test_cotangent_algebroid_checks_the_poisson_data_three_times(monkeypatch):
    # once for its Hamiltonian field, twice for [P, P]
    phase, P = linear_poisson(so3())
    checked = []
    check = OddPoissonSpace._check

    def spy(self, p, *args):
        checked.append(p is P)
        return check(self, p, *args)

    monkeypatch.setattr(OddPoissonSpace, "_check", spy)
    cotangent_algebroid(phase, P)
    assert checked.count(True) == 3


def test_structure_field_shape_is_checked_once_when_made(tower2, monkeypatch):
    # the field's constructor checks each x and theta coefficient, in chart
    # order; building the algebroid (which checks its Hamiltonian) and
    # reading its anchor and A1 projection check none of them again
    phase = tower2.phase
    coefficients = [tower2.q.coefficient(v) for v in phase.xs + phase.thetas]
    checked = []
    check = OddPoissonSpace._check

    def spy(self, p, *args):
        checked.append(p)
        return check(self, p, *args)

    monkeypatch.setattr(OddPoissonSpace, "_check", spy)
    alg = WeightedAlgebroid.from_q(phase.field(dict(tower2.q.derivation.action)))
    anchor(alg)
    restrict_to_A1(alg.q)
    n = len(coefficients)
    assert len(checked) > n and all(p is c for p, c in zip(checked, coefficients))
    assert not any(p is c for p in checked[n:] for c in coefficients)


def _random_phase_poly(rng, phase, parity=None):
    vars_ = phase.system.variables
    p = ZERO
    for _ in range(rng.randrange(1, 4)):
        m = SuperPolynomial.constant(rational_nonzero(rng))
        for v in rng.sample(vars_, rng.randrange(1, 4)):
            m = m * SuperPolynomial.from_var(v)
        p = p + m
    if parity is not None:
        p = p.parity_part(parity)
    return p


def assert_schouten_laws(phase, rng, trials=25):
    """Graded antisymmetry, Jacobi and the Leibniz rule of the odd bracket
    on ``trials`` random triples of parity-homogeneous polynomials."""
    br = phase.schouten
    for _ in range(trials):
        f = _random_phase_poly(rng, phase, rng.randrange(2))
        g = _random_phase_poly(rng, phase, rng.randrange(2))
        h = _random_phase_poly(rng, phase, rng.randrange(2))
        ef = f.parity()
        eg = g.parity()
        eh = h.parity()
        if "zero" in (ef, eg, eh):
            continue
        sign = -1 if ((ef + 1) * (eg + 1)) % 2 else 1
        assert br(f, g) == -sign * br(g, f)
        # graded jacobi with shifted parities
        s1 = (-1) ** ((ef + 1) * (eh + 1))
        s2 = (-1) ** ((eg + 1) * (ef + 1))
        s3 = (-1) ** ((eh + 1) * (eg + 1))
        total = (
            s1 * br(f, br(g, h)) + s2 * br(g, br(h, f)) + s3 * br(h, br(f, g))
        )
        assert total.is_zero()
        # bi-derivation property in the second slot
        lhs = br(f, g * h)
        rhs = br(f, g) * h + (-1) ** ((ef + 1) * eg) * (g * br(f, h))
        assert lhs == rhs


def test_schouten_antisymmetry_jacobi_leibniz(tower2):
    assert_schouten_laws(tower2.phase, random.Random(13))


def test_p_q_round_trips(tower2):
    Q = tower2.q
    P = p_from_q(Q)
    assert q_from_p(P).derivation == Q.derivation
    assert p_from_q(q_from_p(P)).poly == P.poly
    assert weight_of(P.poly, 3) == (tower2.phase.k - 1, 2, 1)


# every algebroid a shipped spec builds, by the CLI's own structure builders
# (the tangent algebroid, as ``construct tangent`` builds it, of a bundle spec)
ROUND_TRIP_SPECS = ["degree2", "degree3", "so3-tower", "sl2-tower", "heisenberg-tower",
                    "nonjacobi-tower", "prolong-tm", "cotangent-so3", "nonjacobi-cotangent",
                    "t2m-shear", "odd-degree2", "odd-degree3", "bracket-so3"]


def spec_algebroid(name):
    doc = specfile.parse((SPEC_DIR / f"{name}.spec").read_text())
    section = doc.first("structure")
    return cli.STRUCTURES[section.args[0] if section else None](doc, section)[1]


@pytest.mark.parametrize("name", ROUND_TRIP_SPECS)
def test_q_p_q_round_trip_on_shipped_specs(name):
    alg = spec_algebroid(name)
    Q = alg.q
    again = q_from_p(p_from_q(Q))
    assert p_from_q(again).poly == alg.hamiltonian.poly
    for v in alg.phase.system.variables:
        # the same coefficients, term by term, over one reduced denominator
        c, d = Q.coefficient(v), again.coefficient(v)
        assert d.terms == c.terms and d._den == c._den, v.name


def test_q_equivalences_on_towers():
    for consts in (abelian(3), so3(), sl2(), heisenberg3()):
        alg = lie_tower(consts, 2)
        pp = alg.phase.schouten(alg.hamiltonian.poly, alg.hamiltonian.poly)
        assert alg.check.residual.is_zero() == pp.is_zero() == consts.satisfies_jacobi
        assert (alg.kind == "lie") == consts.satisfies_jacobi


def test_q_equivalences_fail_together():
    rng = random.Random(41)
    for _ in range(6):
        c = random_nonjacobi_constants(rng)
        alg = lie_tower(c, 2)
        pp = alg.phase.schouten(alg.hamiltonian.poly, alg.hamiltonian.poly)
        assert alg.kind == "skew"
        assert not alg.check.residual.is_zero()
        assert not pp.is_zero()


def test_equivalence_includes_derived_jacobi():
    # the third leg of the equivalence: the derived bracket satisfies the
    # jacobi identity on a generating set of sections exactly when the
    # field squares to zero
    from gradedbundles.constructions import (
        StructureConstants,
        tower_section_polynomial,
        TowerSection,
    )

    def jacobi_defect(alg, gens):
        phase = alg.phase
        P = alg.hamiltonian.poly
        br = lambda a, b: -phase.schouten(phase.schouten(a, P), b)
        worst = ZERO
        for a in gens:
            for b in gens:
                for c in gens:
                    defect = br(a, br(b, c)) - br(br(a, b), c) - br(b, br(a, c))
                    if not defect.is_zero():
                        worst = defect
        return worst

    one = SuperPolynomial.constant(1)
    for consts, should_hold in (
        (so3(), True),
        (StructureConstants(3, {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
                                (1, 2, 1): 1}), False),
    ):
        alg = lie_tower(consts, 2)
        gens = [
            tower_section_polynomial(alg, TowerSection({n: one}, {}))
            for n in ("1", "2", "3")
        ]
        gens += [
            tower_section_polynomial(
                alg, TowerSection({}, {(n, 1): alg.phase.var("y1_1")})
            )
            for n in ("1", "2")
        ]
        defect = jacobi_defect(alg, gens)
        assert defect.is_zero() == should_hold
        assert alg.check.residual.is_zero() == should_hold


def test_malformed_q_rejected(tower2):
    phase = tower2.phase
    x = phase.xs[0]
    bad = Derivation({x: SuperPolynomial.from_var(phase.chis[0])}, ODD, (0, 1, 0),
                     check=False)
    with pytest.raises(MalformedQ):
        HomologicalField(bad, phase)
    with pytest.raises(MalformedQ):
        HomologicalField(
            Derivation({x: SuperPolynomial.from_var(phase.thetas[0])}, 0, (0, 1, 0),
                       check=False),
            phase,
        )


def _var(v):
    return SuperPolynomial.from_var(v)


def _unchecked_field(phase, v, c):
    return HomologicalField(Derivation({v: c}, ODD, (0, 1, 0), check=False), phase)


def _off_phase(weight):
    """An even variable of the given tri-weight on a chart of its own."""
    return CoordinateSystem([("z", weight, 0)], name="off", arity=3).var("z")


# each builds a field, Hamiltonian or section outside the structural shape
SHAPE_FAULTS = {
    "q-acts-on-pi": (MalformedQ, lambda ph: _unchecked_field(
        ph, ph.pis[0], _var(ph.thetas[0]))),
    "q-acts-on-chi": (MalformedQ, lambda ph: _unchecked_field(
        ph, ph.chis[0], _var(ph.thetas[0]))),
    "theta-coefficient-linear-in-theta": (MalformedQ, lambda ph: _unchecked_field(
        ph, ph.thetas[0], _var(ph.thetas[1]))),
    "x-coefficient-with-chi": (MalformedQ, lambda ph: _unchecked_field(
        ph, ph.xs[0], _var(ph.chis[0]))),
    "hamiltonian-theta-pi": (MalformedQ, lambda ph: AlgebroidHamiltonian(
        _var(ph.thetas[0]) * _var(ph.pis[0]), ph)),
    "section-with-theta": (ValueError, lambda ph: AlgebroidSection(
        _var(ph.pis[0]) * _var(ph.thetas[0]), ph.pis[0].weight[0] + 1, ph)),
    "section-off-phase": (ValueError, lambda ph: AlgebroidSection(
        _var(ph.pis[0]) * _off_phase((0, 0, 0)), ph.pis[0].weight[0] + 1, ph)),
}


@pytest.mark.parametrize("case", SHAPE_FAULTS)
def test_structural_shape_faults_rejected(tower2, case):
    error, build = SHAPE_FAULTS[case]
    with pytest.raises(error):
        build(tower2.phase)


def test_off_phase_variables_rejected(tower2):
    # theta_dy * chi_y * z and theta_dy * z have the expected tri-weights
    # and theta/pi/chi counts; only z being off the phase space is wrong
    phase = tower2.phase
    k = phase.k
    theta = next(v for v in phase.thetas if v.weight == (k - 1, 1, 0))
    chi = next(v for v in phase.chis if v.weight == (0, 1, 1))
    z = _off_phase((0, 0, 0))
    with pytest.raises(MalformedQ, match="^Hamiltonian: variable z is not on this phase space$"):
        AlgebroidHamiltonian(_var(theta) * _var(chi) * z, phase)
    x = next(v for v in phase.xs if v.weight == (k - 1, 0, 0))
    with pytest.raises(MalformedQ):
        HomologicalField(Derivation({x: _var(theta) * z}, ODD, (0, 1, 0)), phase)
    pi = phase.pis[0]
    with pytest.raises(ValueError, match="^section: variable z is not on this phase space$"):
        AlgebroidSection(_var(pi) * z, pi.weight[0] + 1, phase)


def test_checked_field_off_the_phase_space_rejected(tower2, monkeypatch):
    # phase.field checks every coefficient's weight, so HomologicalField
    # skips that test; z has the weight of the base and still may not appear
    phase = tower2.phase
    k = phase.k
    theta = next(v for v in phase.thetas if v.weight == (k - 1, 1, 0))
    x = next(v for v in phase.xs if v.weight == (k - 1, 0, 0))
    z = _off_phase((0, 0, 0))
    derivations = []
    init = HomologicalField.__init__

    def spy(self, derivation, phase):
        derivations.append(derivation)
        init(self, derivation, phase)

    monkeypatch.setattr(HomologicalField, "__init__", spy)
    for v, c in ((x, _var(theta) * z), (theta, _var(theta) * _var(phase.thetas[0]) * z)):
        with pytest.raises(MalformedQ,
                           match=f"^coefficient of d/d{v.name}: variable z is not on"):
            phase.field({v: c})
        assert derivations.pop().check


def test_derived_bracket_degree_law():
    from helpers import random_antisym_constants

    rng = random.Random(55)
    checked = 0
    while checked < 30:
        k = rng.choice([2, 3, 4])
        dim = rng.choice([1, 2, 3])
        c = abelian(dim) if rng.randrange(2) else random_antisym_constants(rng, dim)
        alg = lie_tower(c, k)
        r1 = rng.randrange(1, k + 2)
        r2 = rng.randrange(1, k + 2)
        s1 = homogeneous_section_poly(rng, alg, r1)
        s2 = homogeneous_section_poly(rng, alg, r2)
        if s1.is_zero() or s2.is_zero():
            continue
        sec1 = AlgebroidSection(s1, r1, alg.phase)
        sec2 = AlgebroidSection(s2, r2, alg.phase)
        if r1 + r2 - k < 1:
            out = derived_bracket(sec1, sec2, alg.hamiltonian)
            assert out.is_zero()
        else:
            out = derived_bracket(sec1, sec2, alg.hamiltonian)
            assert out.degree == r1 + r2 - k
            w = weight_of(out.poly, 3)
            assert w in ("zero", (r1 + r2 - k - 1, 0, 1))
        checked += 1


def test_derived_bracket_underflow_returns_zero(tower2):
    phase = tower2.phase
    # constant sections of degree k - w with w = 1: degree 1 and degree 1
    s = AlgebroidSection(phase.var("pi_dy1_2"), 1, phase)
    out = derived_bracket(s, s, tower2.hamiltonian)
    assert out.is_zero() and out.degree == 0


def _bracket_across_phase_spaces(phase):
    other = lie_tower(so3(), 2)
    s = AlgebroidSection(phase.var("pi_dy1_2"), 1, phase)
    return derived_bracket(s, AlgebroidSection(other.phase.var("pi_dy1_2"), 1, other.phase),
                           other.hamiltonian)


@pytest.mark.parametrize("error, message, build", [
    (ValueError, r"^pair \(y1_1, pi_xi1\) must have opposite parities$",
     lambda ph: OddPoissonSpace(ph.system, [(ph.xs[0], ph.pis[0])])),
    (MalformedQ, r"^structure field must shift tri-weight by \(0, 1, 0\), got \(0, 0, 0\)$",
     lambda ph: HomologicalField(Derivation({}, ODD, (0, 0, 0)), ph)),
    (CoordinateMismatch, "^sections and Hamiltonian on different spaces$",
     _bracket_across_phase_spaces),
], ids=["pair-parities", "field-shift", "bracket-across-spaces"])
def test_phase_space_faults_rejected(tower2, error, message, build):
    with pytest.raises(error, match=message):
        build(tower2.phase)


def test_anchor_leibniz_compatibility(tower2):
    # [s1, f s2] = f [s1, s2] + rho(s1)(f) s2 with rho the Z-part
    rng = random.Random(77)
    phase = tower2.phase
    P = tower2.hamiltonian
    y1, y2 = phase.var("y1_1"), phase.var("y2_1")
    f = y1 * y2  # base function of weight 2
    br = lambda a, b: -phase.schouten(phase.schouten(a, P.poly), b)
    from gradedbundles.superalg import partial

    for _ in range(10):
        s1 = homogeneous_section_poly(rng, tower2, 2)
        s2 = homogeneous_section_poly(rng, tower2, 2)
        lhs = br(s1, f * s2)
        rho_s1 = ZERO
        for v in phase.xs:
            # anchor of s1 applied to f, read off the dy-momenta
            pi_name = "pi_d" + v.name.split("_")[0] + "_" + str(
                int(v.name.split("_")[1]) + 1
            )
            coeff = partial(s1, phase.system[pi_name])
            rho_s1 = rho_s1 + coeff * partial(f, v)
        rhs = f * br(s1, s2) + rho_s1 * s2
        assert lhs == rhs


def test_anchor_tower(tower2):
    anc = anchor(tower2)
    for b, p in anc.items():
        assert p == SuperPolynomial.from_var(
            tower2.carrier.chart["d" + b.name.split("_")[0] + "_2"]
        )
    hat = rho_hat(tower2)
    # single-chart tower is trivially symmetric: the holonomic locus sets
    # dy = 2 z with z the reconstructed weight-2 coordinate
    for b, p in hat.items():
        assert not p.is_zero()


def test_anchor_rho_q_restriction():
    # rho-hat_q keeps the base-leg coordinates of weight below q; the
    # tower's single chart is symmetric, and its base has no weight-0 ones
    alg = lie_tower(so3(), 3)
    base_leg = alg.carrier.base_leg_vars(0)
    for q in (1, 2, 3):
        assert set(rho_hat(alg, q)) == {b for b in base_leg if b.weight[0] <= q - 1}
    assert rho_hat(alg, 1) == {}
    assert rho_hat(alg, 3) == rho_hat(alg)


def test_restrict_to_a1_chevalley_eilenberg(tower2):
    d = restrict_to_A1(tower2.q)
    phase = tower2.phase
    th = [phase.var(f"theta_xi{a}") for a in (1, 2, 3)]
    assert d(phase.var("theta_xi1") * 1) == -(th[1] * th[2])
    for v in d.action:
        assert v.weight[0] == 0


def leibniz_check(Q, alpha, phi) -> bool:
    """Q(alpha phi) = d(alpha) phi + (-1)^|alpha| alpha Q(phi), exactly."""
    d = restrict_to_A1(Q)
    par = alpha.parity()
    if par == "mixed":
        raise ValueError("alpha must be parity homogeneous")
    sign = -1 if par == ODD else 1
    return Q(alpha * phi) == d(alpha) * phi + sign * (alpha * Q(phi))


def test_leibniz_rule(tower2):
    rng = random.Random(3)
    phase = tower2.phase
    a1_vars = [v for v in phase.thetas if v.weight[0] == 0]
    for _ in range(10):
        alpha = SuperPolynomial.from_var(rng.choice(a1_vars))
        if rng.randrange(2):
            alpha = alpha * SuperPolynomial.from_var(rng.choice(a1_vars))
        phi = _random_phase_poly(rng, phase, rng.randrange(2))
        if alpha.parity() == "zero" or phi.is_zero():
            continue
        assert leibniz_check(tower2.q, alpha, phi)


def test_projection_obstruction():
    alg = lie_tower(so3(), 2)
    phase = alg.phase
    action = dict(alg.q.derivation.action)
    x = phase.xs[0]
    th_low = [v for v in phase.thetas if v.weight[0] == 0][0]
    # make the A1 coefficient depend on a higher coordinate
    action[th_low] = SuperPolynomial.from_var(th_low) * SuperPolynomial.from_var(
        [v for v in phase.thetas if v.weight[0] == 1][0]
    )
    # the field is weight-malformed, which its own shape check finds before
    # the projection reads it
    with pytest.raises(MalformedQ, match=r"^coefficient of d/dtheta_xi1 has tri-weight "
                       r"\(1, 2, 0\), expected \(0, 2, 0\)$"):
        restrict_to_A1(HomologicalField(Derivation(action, ODD, (0, 1, 0), check=False), phase))


def test_epsilon_components_structure(tower2):
    eps = epsilon_components(tower2)
    assert set(eps.delta_x) == {f"delta_y{a}_1" for a in (1, 2, 3)}
    for name, p in eps.delta_x.items():
        w = weight_of(p, 3)
        assert w[1] == 1 and w[2] == 0
    for name, p in eps.delta_pi.items():
        if p.is_zero():
            continue
        w = weight_of(p, 3)
        assert w[1:] == (1, 1)
    p_ai, p_kij = extract_coefficients(tower2.q)
    # antisymmetry of the bracket coefficients
    for (i, j, k), c in p_kij.items():
        assert p_kij.get((j, i, k), ZERO) == -c


def test_reconstructed_hamiltonian_matches(tower2):
    # round trip through the emitted coefficient families
    phase = tower2.phase
    p_ai, p_kij = extract_coefficients(tower2.q)
    rebuilt = ZERO
    chart = tower2.carrier.chart
    for (b_name, f_name), c in p_ai.items():
        th = SuperPolynomial.from_var(phase.theta_of[chart[f_name]])
        chi = SuperPolynomial.from_var(phase.chi_of[chart[b_name]])
        rebuilt = rebuilt + th * c * chi
    for (i_n, j_n, k_n), c in p_kij.items():
        rebuilt = rebuilt + Fraction(1, 2) * (
            SuperPolynomial.from_var(phase.theta_of[chart[j_n]])
            * SuperPolynomial.from_var(phase.theta_of[chart[i_n]])
            * c
            * SuperPolynomial.from_var(phase.pi_of[chart[k_n]])
        )
    assert rebuilt == tower2.hamiltonian.poly


def test_weighted_lie_algebra_check(tower2):
    assert weighted_lie_algebra_check(tower2)
    F = degree2_example()
    from gradedbundles.constructions import tangent_algebroid

    ta = tangent_algebroid(F)
    assert not weighted_lie_algebra_check(ta)


def test_vb_algebroid_degeneration():
    # degree-2 lie towers are double vector bundles with a (0,1) field
    for consts in (so3(), heisenberg3()):
        alg = lie_tower(consts, 2)
        assert alg.kind == "lie"
        for v in alg.carrier.chart.variables:
            assert all(w <= 1 for w in v.weight)
        assert alg.q.derivation.weight_shift == (0, 1, 0)


def test_general_kind_from_non_skew_data():
    chart = CoordinateSystem(
        [("y1", (1, 0), 0), ("xi1", (0, 1), 0), ("xi2", (0, 1), 0),
         ("dy1", (1, 1), 0)],
        name="gen",
    )
    carrier = single_chart_bundle(chart, cls=GLBundle)
    alg = algebroid_from_coefficients(
        OddPhaseSpace(carrier),
        {},
        {("xi1", "xi2", "xi1"): SuperPolynomial.constant(1)},  # one-sided table
    )
    assert alg.kind == "general"
    assert alg.q is None
    assert (alg.hamiltonian, alg.check) == (None, None)
    assert alg.carrier is carrier
    for read_anchor in (anchor, rho_hat):
        with pytest.raises(MalformedQ, match="^general algebroids carry no anchor field$"):
            read_anchor(alg)
    with pytest.raises(MalformedQ, match="^general algebroids are classified by raw data only$"):
        epsilon_components(alg)


@pytest.mark.parametrize("constants, kind", [
    (so3(), "lie"), (random_nonjacobi_constants(random.Random(3)), "skew")])
def test_records_are_read_off_the_structure_field(constants, kind):
    alg = lie_tower(constants, 2)
    again = WeightedAlgebroid(alg.phase, alg.q)
    assert again.carrier is alg.phase.carrier is alg.carrier
    assert again.hamiltonian.poly == p_from_q(alg.q).poly
    assert again.kind == again.check.kind == alg.kind == kind
    assert again.check.residual.is_zero() == (kind == "lie")
    assert [(i.check_id, i.verdict) for i in again.check.report.items] == \
        [(i.check_id, i.verdict) for i in alg.check.report.items]


def test_structure_field_on_another_phase_space_rejected(tower2):
    other = OddPhaseSpace(tower2.carrier)
    with pytest.raises(CoordinateMismatch, match="structure field is on another phase space"):
        WeightedAlgebroid(other, tower2.q)


def test_cotangent_algebroid_reads_p_on_the_phase_space_it_is_given():
    # P of so(3) names y3, which the phase space of a two-dimensional F does not have
    _, P = linear_poisson(so3())
    phase2, _ = linear_poisson(abelian(2))
    with pytest.raises(CoordinateMismatch, match="^variable y3 is not on this phase space$"):
        cotangent_algebroid(phase2, P)


@pytest.mark.parametrize("constants", [so3, heisenberg3, lambda: abelian(2)])
def test_cotangent_algebroid_builds_on_the_phase_space_of_linear_poisson(constants,
                                                                          monkeypatch):
    # T*F and its phase space are built once, by linear_poisson
    built = []
    init = OddPhaseSpace.__init__

    def spy(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(OddPhaseSpace, "__init__", spy)
    phase, P = linear_poisson(constants())
    alg = cotangent_algebroid(phase, P)
    assert built == [phase] and alg.phase is phase


def test_not_a_linearisation_error():
    from helpers import vector_bundle_tangent

    TE = vector_bundle_tangent()
    phase = OddPhaseSpace(TE)
    action = {}
    # de Rham-like field pairing base-leg with the matching fibre slots
    pairs = {"x1": "dx1", "y": "dy"}
    for b_name, f_name in pairs.items():
        action[phase.x_of[TE.charts[0][b_name]]] = SuperPolynomial.from_var(
            phase.theta_of[TE.charts[0][f_name]]
        )
    Q = HomologicalField(Derivation(action, ODD, (0, 1, 0)), phase)
    alg = WeightedAlgebroid.from_q(Q)
    with pytest.raises(NotALinearisation):
        rho_hat(alg)


def _polynomial_data():
    """Algebroid data over R^3 with polynomial anchors and brackets: the
    Heisenberg action rho(b) = d/dy + x d/dz, and [a, c] = x^2 b."""
    base = CoordinateSystem([("x", 0, 0), ("y", 0, 0), ("z", 0, 0)], name="r3")
    x = base.var("x")
    one = SuperPolynomial.constant(1)
    return AlgebroidData(
        base, ["a", "b", "c"],
        {("a", "x"): one, ("b", "y"): one + x * x, ("b", "z"): x, ("c", "z"): one},
        {("a", "b", "c"): one, ("a", "c", "b"): x * x},
    )


def _so3_cotangent():
    return cotangent_algebroid(*linear_poisson(so3()))


def _odd_tangent(seed):
    return tangent_algebroid(random_odd_bundle(random.Random(seed), name=f"odd{seed}"))


def _rebuild_cases():
    """Builders of every algebroid a shipped spec builds, of seeded towers,
    prolongations and the so(3) cotangent algebroid, and of the tangent
    algebroids of the 60 odd-corpus bundles."""
    for k in (2, 3):
        for name, data in (("tm2", lambda: tm_algebroid(2)), ("polynomial", _polynomial_data)):
            yield pytest.param(lambda data=data, k=k: prolongation_algebroid(data(), k),
                               id=f"{name}-{k}")
    for name in ROUND_TRIP_SPECS:
        yield pytest.param(functools.partial(spec_algebroid, name), id=f"spec-{name}")
    for name, constants in (("so3", so3), ("sl2", sl2), ("h3", heisenberg3),
                            ("abelian3", lambda: abelian(3))):
        for k in (1, 2, 3, 4):
            yield pytest.param(lambda c=constants, k=k: lie_tower(c(), k),
                               id=f"lie_tower-{name}-{k}")
    yield pytest.param(_so3_cotangent, id="cotangent-so3")
    for seed in range(60):
        yield pytest.param(functools.partial(_odd_tangent, seed), id=f"odd-{seed}")


@pytest.mark.parametrize("build", _rebuild_cases())
def test_extracted_coefficients_rebuild_q(build):
    alg = build()
    Q, phase = alg.q, alg.phase
    # the block reader is the exact inverse of structure_action
    again = phase.field(structure_action(*q_blocks(Q), phase.x_of, phase.theta_of))
    assert again.derivation == Q.derivation
    # the named coefficients lie on the carrier's base leg, as the builder takes them
    p_ai, p_kij = extract_coefficients(Q)
    rebuilt = algebroid_from_coefficients(phase, p_ai, p_kij)
    assert rebuilt.phase is phase and rebuilt.kind == alg.kind
    assert rebuilt.q.derivation == Q.derivation
