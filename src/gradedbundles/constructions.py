"""Canonical weighted-algebroid constructions.

Tangent and cotangent algebroids of graded bundles, higher tangent bundles
by total-derivative prolongation, complete lifts, the reduction tower of a
Lie group's higher tangent bundles, the reduced bracket of its sections and
the groupoid-prolongation algebroid (taken at algebroid-data level).

Higher tangent bundles and complete lifts share one jet series: a
level-major chart whose level maps come from its builder, the total
derivative D raising each coordinate one level, and the coefficients
D^r(p)/r! of each component.

Conventions: the weight-r coordinate of a higher tangent bundle is the
jet coefficient x^(r)/r!, and the structure field of a Lie algebra acts on
odd fibre coordinates by xi^c -> -1/2 c^c_{ab} xi^a xi^b.  Both choices are
what make the reduction identities come out as exact equalities of
components rather than equalities up to rescaling.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .superalg import (
    ChartMap,
    Derivation,
    Differential,
    EVEN,
    ODD,
    SuperPolynomial,
    Variable,
    ZERO,
    commutator,
    linear_combination,
    maps_equal,
    sum_of_products,
    total,
    weight_of,
)
from .bundle import (
    _chart,
    _check_round_trip,
    _fresh_name,
    CoordinateSystem,
    GradedBundle,
    Provenance,
    TransitionMap,
    rechart,
    single_chart_bundle,
    tangent_bundle,
    two_chart_bundle,
)
from .linfun import GLBundle, contragredient
from .report import Report
from .algebroid import (
    HomologicalField,
    OddPhaseSpace,
    OddPoissonSpace,
    WeightedAlgebroid,
    structure_action,
)


# ------------------------------------------------------- structure constants
class AntisymmetryConflict(ValueError):
    """Three-index data gives its entry ``key`` a second value."""

    def __init__(self, message: str, key):
        super().__init__(f"{message} at {key}")
        self.key = key


def _antisymmetric(data: dict, message: str) -> dict:
    """Three-index data with each nonzero (i, j, k) entry also set at
    (j, i, k), negated; ``message`` names a key given two values."""
    full = {}
    for (i, j, k), v in data.items():
        if v == 0:
            continue
        for key, val in (((i, j, k), v), ((j, i, k), -v)):
            if key in full and full[key] != val:
                raise AntisymmetryConflict(message, (i, j, k))
            full[key] = val
    return full


_NO_CONSTANT = Fraction(0)


class StructureConstants:
    """Antisymmetric three-index data c^k_{ij} with a computed Jacobi verdict."""

    def __init__(self, dim: int, c: dict[tuple[int, int, int], Fraction]):
        self.dim = dim
        self.c = c
        self.__post_init__()

    def __post_init__(self):
        for i, j, k in self.c:
            if not (1 <= i <= self.dim and 1 <= j <= self.dim and 1 <= k <= self.dim):
                raise ValueError(f"index out of range in c^{k}_{{{i}{j}}}")
        self.c = _antisymmetric({key: Fraction(v) for key, v in self.c.items()},
                                "antisymmetry conflict")

    def value(self, i: int, j: int, k: int) -> Fraction:
        return self.c.get((i, j, k), _NO_CONSTANT)

    def jacobi_residuals(self) -> dict[tuple[int, int, int, int], Fraction]:
        """The nonzero sums J^l_{ijk} = sum over m of c^m_{ij} c^l_{mk} +
        c^m_{jk} c^l_{mi} + c^m_{ki} c^l_{mj}, for i < j < k, in sorted key order.

        Only products of two nonzero constants are summed: c^m_{ab} c^l_{me}
        is a term of J^l for (a, b, e) a cyclic shift of an increasing triple.
        """
        by_first = {}
        for (m, e, l), v in self.c.items():
            by_first.setdefault(m, []).append((e, l, v))
        sums = {}
        for (a, b, m), u in self.c.items():
            for e, l, v in by_first.get(m, ()):
                if a < b < e or b < e < a or e < a < b:
                    key = (*sorted((a, b, e)), l)
                    sums[key] = sums.get(key, 0) + u * v
        return {key: s for key, s in sorted(sums.items()) if s}

    @property
    def satisfies_jacobi(self) -> bool:
        return not self.jacobi_residuals()


def abelian(dim: int) -> StructureConstants:
    return StructureConstants(dim, {})


def so3() -> StructureConstants:
    return StructureConstants(3, {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1})


def sl2() -> StructureConstants:
    # basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f
    return StructureConstants(3, {(1, 2, 3): 1, (3, 1, 1): 2, (3, 2, 2): -2})


def heisenberg3() -> StructureConstants:
    return StructureConstants(3, {(1, 2, 3): 1})


# ------------------------------------------------------------ algebroid data
class AlgebroidData:
    """A Lie-algebroid chart: anchor and bracket coefficient polynomials.

    ``anchor[(a, A)]`` is P_a^A(x), the coefficient of d/dx^A in the image
    of the fibre basis vector a, given keyed by A's name and stored keyed by
    the base coordinate A; ``bracket[(a, b, c)]`` is the c-component
    of [e_a, e_b], polynomial in the base coordinates and antisymmetric in
    (a, b).  The Lie verdict is the vanishing of the square of the induced
    weight-one field, computed rather than assumed.
    """

    def __init__(self, base: CoordinateSystem, fiber_names: list[str],
                 anchor: dict[tuple[str, str], SuperPolynomial],
                 bracket: dict[tuple[str, str, str], SuperPolynomial],
                 constants: StructureConstants | None = None):
        self.base = base
        self.fiber_names = fiber_names
        self.bracket = _antisymmetric(
            {key: p if isinstance(p, SuperPolynomial) else SuperPolynomial.constant(p)
             for key, p in bracket.items()},
            "bracket data not antisymmetric",
        )
        self.anchor = {
            (a, base[name]): p if isinstance(p, SuperPolynomial) else SuperPolynomial.constant(p)
            for (a, name), p in anchor.items()
            if not (isinstance(p, SuperPolynomial) and p.is_zero())
        }
        self.constants = constants

    def pie_system(self) -> tuple[CoordinateSystem, dict]:
        """The parity-reversed total space: base coordinates and odd xi's."""
        sys, (x_of, xi_of) = _chart(self.base.name + "_pie", 1, [
            {v: (v.name, (0,), EVEN) for v in self.base.variables},
            {n: ("xi" + n, (1,), ODD) for n in self.fiber_names},
        ])
        return sys, {"x": x_of, "xi": xi_of}

    def q_field(self) -> Derivation:
        """The weight-one odd field xi P dx - 1/2 xi xi P dxi on the
        parity-reversed total space."""
        sys, maps = self.pie_system()
        return Derivation(structure_action(self.anchor, self.bracket, maps["x"], maps["xi"]),
                          ODD, (1,))

    @property
    def is_lie(self) -> bool:
        q = self.q_field()
        return commutator(q, q).is_zero()


def point_algebroid(c: StructureConstants) -> AlgebroidData:
    """A Lie algebra as algebroid data over the one-point base."""
    base = CoordinateSystem([], name="pt", arity=1)
    names = [str(a) for a in range(1, c.dim + 1)]
    bracket = {
        (names[i - 1], names[j - 1], names[k - 1]): SuperPolynomial.constant(v)
        for (i, j, k), v in c.c.items()
        if i < j
    }
    return AlgebroidData(base, names, {}, bracket, constants=c)


def tm_algebroid(dim: int) -> AlgebroidData:
    """The tangent bundle as algebroid data: identity anchor, zero bracket."""
    base = CoordinateSystem([(f"x{i}", 0, EVEN) for i in range(1, dim + 1)],
                            name="m")
    names = [f"e{i}" for i in range(1, dim + 1)]
    anchor = {
        (names[i - 1], f"x{i}"): SuperPolynomial.constant(1)
        for i in range(1, dim + 1)
    }
    return AlgebroidData(base, names, anchor, {})


# -------------------------------------------------------- tangent algebroid
def tangent_algebroid(F: GradedBundle) -> WeightedAlgebroid:
    """The de Rham field on the parity-reversed tangent bundle of F."""
    TF = tangent_bundle(F, cls=GLBundle)
    phase = OddPhaseSpace(TF)
    action = {}
    undotted = TF.provenance.maps["undotted"][0]
    for v, dv in TF.provenance.maps["dotted"][0].items():
        action[phase.x_of[undotted[v]]] = SuperPolynomial.from_var(phase.theta_of[dv])
    return WeightedAlgebroid.from_q(phase.field(action))


# ------------------------------------------------------ cotangent algebroid
def cotangent_bundle(F: GradedBundle) -> GLBundle:
    """T*F with the phase-lifted bi-weight: the momentum of a weight-w
    coordinate carries (deg F - w, 1).  Momentum transitions are the
    contragredient of the Jacobian, from the declared inverse atlas; the
    provenance roles are ``base`` and ``dual`` (the momenta)."""
    km1 = F.degree

    def spec(i, chart):
        taken = {v.name for v in chart.variables}
        base = {v: (v.name, (total(v.weight), 0), v.parity) for v in chart.variables}
        momenta = {v: (_fresh_name("p_" + v.name, taken, lambda n: n + "_"),
                       (km1 - total(v.weight), 1), v.parity) for v in chart.variables}
        return chart.name + "_t*", 2, {"base": base, "dual": momenta}

    return rechart(F, spec, contragredient, cls=GLBundle, tag="cotangent",
                   gl_degree=km1 + 1)


def cotangent_algebroid(phase: OddPhaseSpace, P: SuperPolynomial) -> WeightedAlgebroid:
    """Weighted algebroid of an (almost) Poisson structure on F.

    ``phase`` is ``OddPhaseSpace(cotangent_bundle(F), chart)``, on any chart,
    and ``P`` is a polynomial in its coordinates (x..., theta...),
    homogeneous of tri-weight (deg F, 2, 0).  The structure field is minus
    its Hamiltonian field for the momentum pairing, each coordinate against
    the theta of its own momentum; the Lie verdict is the vanishing of
    [P, P].
    """
    prov = phase.carrier.provenance
    if prov.tag != "cotangent":
        raise ValueError(f"not a cotangent phase space: the carrier's provenance is {prov.tag!r}")
    w = weight_of(P, 3)
    if w not in ("zero", (phase.k - 1, 2, 0)):
        raise ValueError(f"Poisson data has tri-weight {w}, expected {(phase.k - 1, 2, 0)}")
    base = prov.maps["base"][phase.chart]
    poisson = OddPoissonSpace(phase.system, [(phase.x_of[base[v]], phase.theta_of[pv])
                                             for v, pv in prov.maps["dual"][phase.chart].items()])
    derivation = poisson.hamiltonian_field(P, phase.xs + phase.thetas, (0, 1, 0), ODD)
    return WeightedAlgebroid.from_q(HomologicalField(derivation, phase), poisson_data=P,
                                    poisson_residual=poisson.bracket(P, P))


def linear_poisson(c: StructureConstants):
    """The linear Poisson structure of a Lie algebra on its dual space.

    Returns (phase, P), the arguments of ``cotangent_algebroid``: ``phase``
    is the phase space of T*F, where F (``phase.carrier.provenance.source``)
    is the dual space as a degree-1 bundle over a point, and
    P = 1/2 c^k_{ij} y_k theta^i theta^j is written on it.
    """
    chart = CoordinateSystem(
        [(f"y{a}", 1, EVEN) for a in range(1, c.dim + 1)], name="gstar"
    )
    phase = OddPhaseSpace(cotangent_bundle(single_chart_bundle(chart)))
    maps = phase.carrier.provenance.maps
    y = [SuperPolynomial.from_var(phase.x_of[maps["base"][0][v]]) for v in chart]
    theta = [SuperPolynomial.from_var(phase.theta_of[maps["dual"][0][v]]) for v in chart]
    P = sum_of_products(
        (v, y[k - 1] * theta[i - 1], theta[j - 1]) for (i, j, k), v in c.c.items() if i < j
    )
    return phase, P


# ------------------------------------------------------ higher tangent lift
def _diffeo_charts(dim: int) -> list[CoordinateSystem]:
    """Charts m_src and m_dst of even weight-zero coordinates x1..x<dim> and
    X1..X<dim>."""
    return [CoordinateSystem([(f"{stem}{i}", 0, EVEN) for i in range(1, dim + 1)], name=name)
            for stem, name in (("x", "m_src"), ("X", "m_dst"))]


class PolynomialDiffeo(TransitionMap):
    """A polynomial base change with its declared polynomial inverse.

    The round-trip identity is a computed verdict, not a constructor
    requirement: interesting one-dimensional changes such as x -> x + x^2
    have no exact polynomial inverse, and the constructions that only
    consume forward data stay available for them.
    """

    @staticmethod
    def build(dim: int, forward, inverse):
        src, dst = _diffeo_charts(dim)
        fw = forward([SuperPolynomial.from_var(v) for v in src])
        iv = inverse([SuperPolynomial.from_var(v) for v in dst])
        return PolynomialDiffeo(
            src,
            dst,
            {dst.variables[i]: fw[i] for i in range(dim)},
            {src.variables[i]: iv[i] for i in range(dim)},
        )

    @property
    def dim(self) -> int:
        return len(self.source.variables)

    def round_trip_exact(self) -> bool:
        report = Report()
        for direction in (self, self.reversed()):
            _check_round_trip(report, "", direction)
        return report.passed


def _level_chart(variables, levels, weight, name: str, arity: int):
    """A level-major chart of copies of ``variables`` and its level map:
    level_of[(v, r)] is named v.name at r = 0 and v.name_r above, with
    weight ``weight(v, r)`` and v's parity."""
    chart, (level_of,) = _chart(name, arity, [{
        (v, r): (v.name if r == 0 else f"{v.name}_{r}", weight(v, r), v.parity)
        for r in levels for v in variables
    }])
    return chart, level_of


def _total_derivative(level_of, top: int) -> Differential:
    """The total derivative D sending each level-r coordinate below ``top``
    to r+1 times its level-(r+1) partner, compiled once."""
    dot, scale = {}, {}
    for (v, r), x in level_of.items():
        if r < top:
            dot[x] = level_of[(v, r + 1)]
            scale[x] = r + 1
    return Differential(dot, scale)


def _jet_series(p: SuperPolynomial, d_t: Differential, k: int) -> list[SuperPolynomial]:
    """The jet coefficients D^r(p)/r! of ``p``, for r = 0..k."""
    series = [p]
    for r in range(1, k + 1):
        p = d_t(p)
        series.append(p * Fraction(1, math.factorial(r)))
    return series


def _jet_lift(pairs, src_level, dst_level, top: int) -> dict[str, SuperPolynomial]:
    """D^r(f)/r! for each (v, f) in ``pairs`` and r = 0..top, keyed by the
    name of dst_level[(v, r)]; f is read on src_level's level 0."""
    d_t = _total_derivative(src_level, top)
    level_zero = ChartMap({v: x for (v, r), x in src_level.items() if r == 0})
    return {
        dst_level[(v, r)].name: p
        for v, f in pairs
        for r, p in enumerate(_jet_series(level_zero(f), d_t, top))
    }


def higher_tangent(phi: PolynomialDiffeo, k: int) -> GradedBundle:
    """T^k M over a two-chart base, weight-r coordinates being the jet
    coefficients x^(r)/r!.  Transitions are the r-fold total-derivative
    lifts of the base change; the Faa di Bruno combinatorics arise
    mechanically from iterated differentiation."""
    if k < 1:
        raise ValueError("higher tangent bundles need k >= 1")
    src, dst = phi.source.variables, phi.target.variables
    chart_a, level_a = _level_chart(src, range(k + 1), lambda v, r: r, "tk_src", 1)
    chart_b, level_b = _level_chart(dst, range(k + 1), lambda v, r: r, "tk_dst", 1)
    forward = _jet_lift([(v, phi.forward[v]) for v in dst], level_a, level_b, k)
    inverse = _jet_lift([(v, phi.inverse[v]) for v in src], level_b, level_a, k)
    return two_chart_bundle(chart_a, chart_b, forward, inverse,
                            provenance=Provenance("higher_tangent", phi))


# -------------------------------------------------------------- complete lift
class LiftedField:
    """A complete lift: the prolonged system, level maps and the field."""

    def __init__(self, system: CoordinateSystem, derivation: Derivation,
                 level_of: dict[tuple[Variable, int], Variable]):
        self.system = system
        self.derivation = derivation
        self.level_of = level_of


def complete_lift(Q: Derivation, system: CoordinateSystem, k: int) -> LiftedField:
    """Total-derivative lift of a weight-one field to k-1 jet levels.

    The level-r coefficient is D^r(Q(v))/r! in jet-normalised coordinates,
    which is the prolongation of the flow of Q; homologicity is preserved
    and is re-verified by callers, never assumed.
    """
    if k < 1:
        raise ValueError("complete lifts need k >= 1")
    lifted, level_of = _level_chart(system.variables, range(k),
                                    lambda v, r: (r, total(v.weight)),
                                    system.name + f"_t{k - 1}", 2)
    coefficients = [(v, Q.coefficient(v)) for v in system.variables]
    action = _jet_lift(coefficients, level_of, level_of, k - 1)
    action = {lifted[n]: p for n, p in action.items() if not p.is_zero()}
    lift = Derivation(action, Q.parity, (0,) + tuple(Q.weight_shift))
    return LiftedField(lifted, lift, level_of)


# ------------------------------------------------------------ reduction tower
def prolongation_blocks(names: list[str], k: int) -> list[dict]:
    """The ``_chart`` blocks the order-``k`` prolongation declares beside the
    base, for fibre names n and levels r in 1..k-1: ``y`` ((n, r) to
    y<n>_<r>), ``xi`` (n to xi<n>) and ``dy`` ((n, r) to dy<n>_<r+1>)."""
    levels = range(1, k)
    return [
        {(n, r): (f"y{n}_{r}", (r, 0), EVEN) for r in levels for n in names},
        {n: (f"xi{n}", (0, 1), EVEN) for n in names},
        {(n, r): (f"dy{n}_{r + 1}", (r, 1), EVEN) for r in levels for n in names},
    ]


def _prolongation(E: AlgebroidData, k: int) -> WeightedAlgebroid:
    """The prolongation of ``E``; its carrier's provenance has ``E`` as source
    and roles ``base`` and ``prolongation_blocks``' ``y``, ``xi`` and ``dy``."""
    chart, (base, y_of, xi_of, dy_of) = _chart(f"prolong{k}_{E.base.name}", 2, [
        {v: (v.name, (0, 0), EVEN) for v in E.base.variables},
        *prolongation_blocks(E.fiber_names, k),
    ])
    roles = {"base": [base], "y": [y_of], "xi": [xi_of], "dy": [dy_of]}
    carrier = GLBundle([chart], provenance=Provenance("prolongation", E, roles), gl_degree=k)
    phase = OddPhaseSpace(carrier)
    action = structure_action(
        E.anchor, E.bracket,
        {v: phase.x_of[x] for v, x in base.items()},
        {n: phase.theta_of[xi] for n, xi in xi_of.items()},
    )
    for key, y in y_of.items():
        action[phase.x_of[y]] = SuperPolynomial.from_var(phase.theta_of[dy_of[key]])
    return WeightedAlgebroid.from_q(phase.field(action))


def prolongation_roles(alg: WeightedAlgebroid) -> tuple[AlgebroidData, dict]:
    """The data a prolongation was built from and its carrier's role maps."""
    prov = alg.carrier.provenance
    if prov.tag != "prolongation":
        raise ValueError(f"not a prolongation: the carrier's provenance is {prov.tag!r}")
    return prov.source, {role: per_chart[0] for role, per_chart in prov.maps.items()}


def prolongation_algebroid(E: AlgebroidData, k: int) -> WeightedAlgebroid:
    """The weighted algebroid on the linearised reduction of a groupoid's
    higher tangent bundle, taken at algebroid-data level."""
    if k < 2:
        raise ValueError("prolongation algebroids need k >= 2")
    return _prolongation(E, k)


def lie_tower(c: StructureConstants, k: int) -> WeightedAlgebroid:
    """The reduction tower of a Lie group: base g_{k-1} over a point, fibre
    spanned by xi and the dy's, structure field sum dy d/dy + CE term."""
    if k < 1:
        raise ValueError("towers need k >= 1")
    return _prolongation(point_algebroid(c), k)


# ------------------------------------------------------------ reduced bracket
class TowerSection:
    """A section of the tower as a pair (Y, Z): a fibre-valued map and a
    vector field on the base g_{k-1}.

    ``Y[name]`` and ``Z[(name, r)]`` are polynomials in the phase-space
    base coordinates y<name>_<r>.
    """

    def __init__(self, Y: dict[str, SuperPolynomial], Z: dict[tuple[str, int], SuperPolynomial]):
        self.Y = Y
        self.Z = Z

    def __eq__(self, other):
        if not isinstance(other, TowerSection):
            return NotImplemented
        return maps_equal(self.Y, other.Y) and maps_equal(self.Z, other.Z)


def tower_section_polynomial(alg: WeightedAlgebroid, s: TowerSection) -> SuperPolynomial:
    """Encode (Y, Z) as the pi-linear phase-space function sum Y pi_xi +
    sum Z pi_dy."""
    _, roles = prolongation_roles(alg)
    pi_of, var = alg.phase.pi_of, SuperPolynomial.from_var
    return sum_of_products(
        [(1, p, var(pi_of[roles["xi"][n]])) for n, p in s.Y.items()]
        + [(1, p, var(pi_of[roles["dy"][key]])) for key, p in s.Z.items()]
    )


def reduced_bracket(alg: WeightedAlgebroid, s1: TowerSection,
                    s2: TowerSection) -> TowerSection:
    """Componentwise bracket ([Y1,Y2] + Z1(Y2) - Z2(Y1), Z1 Z2 - Z2 Z1)."""
    data, roles = prolongation_roles(alg)
    if data.base.variables:
        raise ValueError("the reduced bracket is defined over a point base")
    c = data.constants
    if c is None:
        raise ValueError("reduced brackets need structure-constant data")
    names, base_of = data.fiber_names, {key: alg.phase.x_of[y] for key, y in roles["y"].items()}
    # the vector fields Z1 and Z2, generally inhomogeneous; only ever
    # applied, so the shift is unused
    Z1, Z2 = (Derivation({base_of[key]: p for key, p in s.Z.items()}, EVEN, (0, 0, 0), check=False)
              for s in (s1, s2))
    Y1 = [s1.Y.get(n) for n in names]
    Y2 = [s2.Y.get(n) for n in names]
    products = {}  # (a, b) -> Y1[a] * Y2[b], formed on first use
    Y = {}
    for ci, cn in enumerate(names, 1):
        parts = []
        for a, ya in enumerate(Y1, 1):
            if ya is None:
                continue
            for b, yb in enumerate(Y2, 1):
                v = c.c.get((a, b, ci))
                if v and yb is not None:
                    ab = products.get((a, b))
                    if ab is None:
                        ab = products[(a, b)] = ya * yb
                    parts.append((v, ab))
        parts.append((1, Z1(s2.Y.get(cn, ZERO))))
        parts.append((-1, Z2(s1.Y.get(cn, ZERO))))
        comp = linear_combination(parts)
        if not comp.is_zero():
            Y[cn] = comp
    Z = {}
    for (n, r) in dict.fromkeys([*s1.Z, *s2.Z]):
        comp = Z1(s2.Z.get((n, r), ZERO)) - Z2(s1.Z.get((n, r), ZERO))
        if not comp.is_zero():
            Z[(n, r)] = comp
    return TowerSection(Y, Z)
