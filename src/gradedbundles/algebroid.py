"""Weighted skew/Lie algebroids on graded-linear bundles.

The three equivalent encodings live on one tri-graded odd phase space built
over the dual of the carrier: base-leg coordinates x, their conjugates chi,
momenta pi dual to the fibre leg and their conjugates theta.  Conjugate
tri-weights add up to (k-1, 1, 1), parity = carrier parity + second
tri-weight mod 2 (so conjugates have opposite parities), and the canonical
odd bracket shifts tri-weight by (1-k, -1, -1).

Sign conventions, fixed once and used everywhere:

* the odd bracket is the antibracket with (x, chi) = (pi, theta) = +1,
  built from right derivatives in the first slot and left derivatives in
  the second,
* a homological field and its Hamiltonian correspond through
  ``P = sum Q(x) chi - sum Q(theta) pi``,
* the derived bracket is normalised as ``-[[s1, P], s2]`` so that the
  bracket of a reduced higher tangent bundle of a Lie group comes out
  componentwise as ([Y1,Y2] + Z1(Y2) - Z2(Y1), Z1(Z2) - Z2(Z1)),
* a structure field is fixed by two blocks, keyed by carrier coordinates
  and with coefficients on the carrier's base leg: the anchor
  ``rho[(f, b)] = d Q(x_b) / d theta_f`` and the bracket
  ``c[(I, J, K)] = d_I d_J Q(theta_K)``, the outer derivative first, so
  that ``Q(x_b) = sum theta_f rho[(f, b)]`` and
  ``Q(theta_K) = -1/2 sum theta_I theta_J c[(I, J, K)]``.
  ``structure_action`` writes Q from them and ``q_blocks`` reads them back.
"""

from __future__ import annotations

from fractions import Fraction

from .superalg import (
    ChartMap,
    Derivation,
    ODD,
    SuperPolynomial,
    Variable,
    ZERO,
    antibracket,
    chart_support,
    commutator,
    partial,
    sum_of_products,
    total,
    weight_add,
    weight_of,
)
from .bundle import _chart, _fresh_name, CoordinateSystem
from .linfun import GLBundle, NotSymmetric, holonomic_assignment
from .report import Report


class CoordinateMismatch(ValueError):
    """Operands live on different phase spaces."""


class MalformedQ(ValueError):
    """An odd vector field is outside the algebroid structural shape."""


class NotALinearisation(ValueError):
    """Graded-bundle anchors need a symmetric carrier."""


# ------------------------------------------------------------- odd brackets
class OddPoissonSpace:
    """A coordinate system with chosen conjugate pairs of opposite parities.

    The antibracket is normalised by (q, q*) = +1 and satisfies graded
    antisymmetry and Jacobi with the shifted parity |F| + 1.
    """

    def __init__(self, system: CoordinateSystem, pairs):
        self.system = system
        self.pairs = list(pairs)
        for q, qstar in self.pairs:
            if q.parity == qstar.parity:
                raise ValueError(
                    f"pair ({q.name}, {qstar.name}) must have opposite parities"
                )

    def _bit(self, v: Variable) -> int:
        """The bit of ``v`` on this space, or 0 when ``v`` is not on it."""
        vs = self.system.variables
        i = v.index
        return 1 << i if i < len(vs) and vs[i] == v else 0

    def _check(self, p: SuperPolynomial, variables=()) -> None:
        """Raise ``CoordinateMismatch`` unless the variables of ``p``, and
        ``variables``, are all on this space."""
        if chart_support(p, self.system.variables) is None \
                or not all(map(self._bit, variables)):
            # name the first in chart order, of p when p has one
            foreign = ([v for v in p.variables() if not self._bit(v)]
                       or [v for v in variables if not self._bit(v)])
            v = min(foreign, key=lambda u: u.sort_key)
            raise CoordinateMismatch(f"variable {v.name} is not on this phase space")

    def bracket(self, f: SuperPolynomial, g: SuperPolynomial) -> SuperPolynomial:
        self._check(f)
        self._check(g)
        return antibracket(f, g, self.pairs)

    def hamiltonian_field(self, h: SuperPolynomial, variables, weight_shift,
                          parity) -> Derivation:
        """The derivation v -> -(h, v) on the listed variables; h and the
        variables are checked once."""
        self._check(h, variables)
        action = {}
        for v in variables:
            c = -antibracket(h, SuperPolynomial.from_var(v), self.pairs)
            if not c.is_zero():
                action[v] = c
        return Derivation(action, parity, weight_shift)


# ------------------------------------------------------------- phase space
def _tri_chart(name: str, blocks):
    """A tri-graded chart and, per block, the map from carrier variables to
    its coordinates; a block is (carrier variables, name prefix, tri-weight
    of a weight-u variable, parity shift), a coordinate's parity is its
    carrier variable's plus the shift, and a taken name gets ``_`` appended."""
    taken: set[str] = set()
    return _chart(name, 3, [
        {v: (_fresh_name(prefix + v.name, taken, lambda n: n + "_"), weight(v.weight[0]),
             (v.parity + shift) % 2)
         for v in variables}
        for variables, prefix, weight, shift in blocks
    ])


class OddPhaseSpace:
    """Tri-graded coordinates (x, pi, chi, theta) over a carrier's dual.

    x mirrors the carrier's base leg with tri-weight (u, 0, 0); each fibre
    coordinate of bi-weight (u, 1) contributes a momentum pi of tri-weight
    (k-1-u, 0, 1) and a theta of tri-weight (u, 1, 0); each base-leg
    coordinate contributes a chi of tri-weight (k-1-u, 1, 1).
    A homological field acts on the (x, theta) part only and is represented
    as a derivation of this system with weight shift (0, 1, 0).
    """

    def __init__(self, carrier: GLBundle, chart: int = 0):
        self.carrier = carrier
        self.chart = chart
        self.k = carrier.gl_degree
        k = self.k
        base_leg = carrier.base_leg_vars(chart)
        fiber = carrier.fiber_vars(chart)
        self.system, (self.x_of, self.pi_of, self.chi_of, self.theta_of) = _tri_chart(
            f"phase_{carrier.charts[chart].name}",
            [(base_leg, "", lambda u: (u, 0, 0), 0),
             (fiber, "pi_", lambda u: (k - 1 - u, 0, 1), 0),
             (base_leg, "chi_", lambda u: (k - 1 - u, 1, 1), 1),
             (fiber, "theta_", lambda u: (u, 1, 0), 1)],
        )
        self.xs = tuple(self.x_of.values())
        self.pis = tuple(self.pi_of.values())
        self.chis = tuple(self.chi_of.values())
        self.thetas = tuple(self.theta_of.values())
        pairs = [(self.x_of[b], self.chi_of[b]) for b in base_leg]
        pairs += [(self.pi_of[f], self.theta_of[f]) for f in fiber]
        self.poisson = OddPoissonSpace(self.system, pairs)

    def var(self, name: str) -> SuperPolynomial:
        return self.system.var(name)

    def schouten(self, f, g) -> SuperPolynomial:
        return self.poisson.bracket(f, g)

    def derived_bracket(self, s1, s2, P) -> SuperPolynomial:
        """-[[s1, P], s2] of phase-space polynomials."""
        return -self.schouten(self.schouten(s1, P), s2)

    def field(self, action: dict[Variable, SuperPolynomial]) -> "HomologicalField":
        """The structure field sending each variable of ``action`` to its
        polynomial."""
        return HomologicalField(Derivation(action, ODD, (0, 1, 0)), self)


class HomologicalField:
    """Odd vector field of total weight one on the parity-reversed carrier.

    The field's shape is checked here, once: it is odd, shifts tri-weight by
    (0, 1, 0), leaves pi and chi alone, and each x and theta coefficient is
    a polynomial on the phase space of tri-weight ``v.weight + (0, 1, 0)``.
    Every reader of a field relies on that.
    """

    def __init__(self, derivation: Derivation, phase: OddPhaseSpace):
        if derivation.parity != ODD:
            raise MalformedQ("structure field must be odd")
        if derivation.weight_shift != (0, 1, 0):
            raise MalformedQ(
                f"structure field must shift tri-weight by (0, 1, 0), "
                f"got {derivation.weight_shift}"
            )
        for v in phase.pis + phase.chis:
            if not derivation.coefficient(v).is_zero():
                raise MalformedQ(f"field acts on dual coordinate {v.name}")
        for v in phase.xs + phase.thetas:
            # a checked derivation has compared each coefficient's weight
            # with v.weight + (0, 1, 0) already
            expected = None if derivation.check else weight_add(v.weight, (0, 1, 0))
            _check_shape(phase, derivation.coefficient(v), expected, MalformedQ,
                         f"coefficient of d/d{v.name}")
        self.derivation = derivation
        self.phase = phase

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        return self.derivation(p)

    def coefficient(self, v: Variable) -> SuperPolynomial:
        return self.derivation.coefficient(v)

    def square(self) -> Derivation:
        return commutator(self.derivation, self.derivation)


class AlgebroidHamiltonian:
    """Homogeneous Hamiltonian of tri-weight (k-1, 2, 1) on the phase space."""

    def __init__(self, poly: SuperPolynomial, phase: OddPhaseSpace):
        _check_shape(phase, poly, (phase.k - 1, 2, 1), MalformedQ, "Hamiltonian")
        self.poly = poly
        self.phase = phase


def _check_shape(phase: OddPhaseSpace, p: SuperPolynomial, expected, error, what: str):
    """Raise ``error`` unless ``p`` is zero or a polynomial on the phase space
    of tri-weight ``expected``; an ``expected`` of None checks the phase
    space only.  The last two tri-weight entries count theta (1, 0), pi
    (0, 1) and chi (1, 1) factors, so they fix the shape: (2, 1) is theta chi
    or theta theta pi, (0, 1) one pi and (1, 0) one theta."""
    try:
        phase.poisson._check(p)
    except CoordinateMismatch as exc:
        raise error(f"{what}: {exc}") from None
    if expected is None:
        return
    w = weight_of(p, 3)
    if w not in ("zero", expected):
        raise error(f"{what} has tri-weight {w}, expected {expected}")


def p_from_q(Q: HomologicalField) -> AlgebroidHamiltonian:
    """Hamiltonian encoding: P = sum Q(x) chi - sum Q(theta) pi."""
    phase, action, var = Q.phase, Q.derivation.action, SuperPolynomial.from_var
    P = sum_of_products(
        [(1, action[x], var(phase.chi_of[b])) for b, x in phase.x_of.items() if x in action]
        + [(-1, action[th], var(phase.pi_of[f]))
           for f, th in phase.theta_of.items() if th in action]
    )
    return AlgebroidHamiltonian(P, phase)


def q_from_p(P: AlgebroidHamiltonian) -> HomologicalField:
    """Field encoding: Q is the Hamiltonian field v -> -(P, v) on (x, theta)."""
    phase = P.phase
    return HomologicalField(
        phase.poisson.hamiltonian_field(P.poly, phase.xs + phase.thetas, (0, 1, 0), ODD), phase
    )


# ------------------------------------------------------------ classification
class AlgebroidCheck:
    """The check report and [Q,Q] of a structure field, Lie when [Q,Q] = 0."""

    def __init__(self, residual: Derivation, report: Report):
        self.residual = residual
        self.report = report
        self.kind = "lie" if residual.is_zero() else "skew"


def check_weighted_algebroid(Q: HomologicalField) -> AlgebroidCheck:
    """Decide lie vs skew by Q^2: one item per x and theta coordinate.  Q's
    oddness and (0,1) weight were checked when it was made."""
    report = Report()
    residual = Q.square()
    for v in Q.phase.xs + Q.phase.thetas:
        report.zero(f"[Q,Q] on {v.name}", residual.coefficient(v))
    return AlgebroidCheck(residual, report)


class WeightedAlgebroid:
    """A phase space and its structure field, with the carrier, Hamiltonian,
    check and kind read off them; the field is None for a general algebroid,
    whose bracket data is not skew.  The optional fields record a cotangent
    algebroid's P and [P,P]; other sources are in the carrier's provenance.
    """

    def __init__(self, phase: OddPhaseSpace, q: HomologicalField | None,
                 poisson_data: SuperPolynomial | None = None,
                 poisson_residual: SuperPolynomial | None = None):
        if q is not None and q.phase is not phase:
            raise CoordinateMismatch("structure field is on another phase space")
        self.phase = phase
        self.carrier = phase.carrier
        self.q = q
        self.check = None if q is None else check_weighted_algebroid(q)
        self.hamiltonian = None if q is None else p_from_q(q)
        self.kind = "general" if q is None else self.check.kind
        self.poisson_data = poisson_data
        self.poisson_residual = poisson_residual

    @classmethod
    def from_q(cls, Q: HomologicalField, **fields) -> "WeightedAlgebroid":
        return cls(Q.phase, Q, **fields)


def structure_action(anchor, bracket, x_of, xi_of) -> dict[Variable, SuperPolynomial]:
    """Coefficients of xi P dx - 1/2 xi xi P dxi from anchor data P[(a, x)]
    and bracket data P[(a, b, c)] over base coordinates x; ``x_of`` and
    ``xi_of`` send base coordinates and fibre keys to the field's system."""
    terms: dict[Variable, list] = {}  # per coefficient, in first-seen order
    rename, var = ChartMap(x_of), SuperPolynomial.from_var
    for (a, b), p in anchor.items():
        terms.setdefault(x_of[b], []).append((1, var(xi_of[a]), rename(p)))
    pairs = {}  # (a, b) -> xi_a xi_b, formed on first use
    minus_half = Fraction(-1, 2)
    for (a, b, c), p in bracket.items():
        ab = pairs.get((a, b))
        if ab is None:
            ab = pairs[(a, b)] = var(xi_of[a]) * var(xi_of[b])
        terms.setdefault(xi_of[c], []).append((minus_half, ab, rename(p)))
    return {v: sum_of_products(ts) for v, ts in terms.items()}


def q_blocks(Q: HomologicalField):
    """The anchor and bracket blocks (rho, c) of Q, keyed as the module
    docstring states, the inverse of ``structure_action``: the nonzero
    entries only, rho with b outer and f inner, c with K, then I, then J,
    each in chart order."""
    phase = Q.phase
    to_carrier = ChartMap({x: b for b, x in phase.x_of.items()})
    fibers = list(phase.theta_of.items())
    rho, c = {}, {}
    for b, x in phase.x_of.items():
        body = Q.coefficient(x)
        for f, th in fibers:
            p = partial(body, th)
            if not p.is_zero():
                rho[(f, b)] = to_carrier(p)
    for fk, thk in fibers:
        body = Q.coefficient(thk)
        if body.is_zero():
            continue
        inner = [(fj, partial(body, thj)) for fj, thj in fibers]
        for fi, thi in fibers:
            for fj, dj in inner:
                p = partial(dj, thi)
                if not p.is_zero():
                    c[(fi, fj, fk)] = to_carrier(p)
    return rho, c


def algebroid_from_coefficients(phase: OddPhaseSpace, anchor_coeffs,
                                bracket_coeffs) -> WeightedAlgebroid:
    """Build on ``phase`` from raw epsilon data named on its carrier's chart.

    ``anchor_coeffs`` maps (base-leg name, fibre name) to a polynomial in
    the base-leg coordinates of ``phase.chart``; ``bracket_coeffs`` maps
    fibre-name triples (I, J, K) to the coefficient standing with theta^J
    theta^I against d/d theta^K.  Antisymmetric bracket data encodes an odd
    vector field and the result is classified skew or lie; non-antisymmetric
    data is recorded as a general weighted algebroid without a field.
    """
    chart_sys = phase.carrier.charts[phase.chart]

    def poly(p):
        return p if isinstance(p, SuperPolynomial) else SuperPolynomial.constant(p)

    data = {key: poly(c) for key, c in bracket_coeffs.items()}
    skew = all(
        (c + data.get((j, i, k_n), ZERO)) == ZERO
        for (i, j, k_n), c in data.items()
    )
    if not skew:
        return WeightedAlgebroid(phase, None)
    # the (I, J, K) entry stands with theta^J theta^I: the bracket of (J, I)
    action = structure_action(
        {(chart_sys[f], chart_sys[b]): poly(c) for (b, f), c in anchor_coeffs.items()},
        {(chart_sys[j], chart_sys[i], chart_sys[k_n]): c for (i, j, k_n), c in data.items()},
        phase.x_of,
        phase.theta_of,
    )
    return WeightedAlgebroid.from_q(phase.field(action))


# ----------------------------------------------------------------- sections
class AlgebroidSection:
    """A degree-r section encoded as a pi-linear phase-space function."""

    def __init__(self, poly: SuperPolynomial, degree: int, phase: OddPhaseSpace):
        _check_shape(phase, poly, (degree - 1, 0, 1), ValueError, "section")
        self.poly = poly
        self.degree = degree
        self.phase = phase

    def is_zero(self) -> bool:
        return self.poly.is_zero()


def derived_bracket(
    s1: AlgebroidSection, s2: AlgebroidSection, P: AlgebroidHamiltonian
) -> AlgebroidSection:
    """[[s1, P], s2] up to the fixed overall sign; degree r1 + r2 - k.

    A bracket below degree 1 is zero by weight accounting, and the section's
    own shape check holds it to that."""
    if s1.phase is not s2.phase or s1.phase is not P.phase:
        raise CoordinateMismatch("sections and Hamiltonian on different spaces")
    phase = P.phase
    return AlgebroidSection(phase.derived_bracket(s1.poly, s2.poly, P.poly),
                            s1.degree + s2.degree - phase.k, phase)


# ------------------------------------------------------------------ anchors
def anchor(A: WeightedAlgebroid) -> dict[Variable, SuperPolynomial]:
    """The anchor as pullback data over the carrier's own coordinates: each
    base-leg coordinate b to the pullback sum_f f rho[(f, b)] of the fibre
    coordinate delta-b of T(B_{k-1}); base coordinates pull back to
    themselves."""
    if A.q is None:
        raise MalformedQ("general algebroids carry no anchor field")
    rho, _ = q_blocks(A.q)
    parts = {b: [] for b in A.phase.x_of}
    for (f, b), c in rho.items():
        parts[b].append((1, SuperPolynomial.from_var(f), c))
    return {b: sum_of_products(ts) for b, ts in parts.items()}


def rho_hat(A: WeightedAlgebroid, q: int | None = None) -> dict[Variable, SuperPolynomial]:
    """Graded-bundle anchor rho-hat_q = T tau o rho o iota on F_k: the
    ``anchor`` components over base-leg coordinates of weight below q (the
    carrier's degree by default), pulled back along the holonomic embedding.

    Needs the carrier to be a linearisation; raises NotALinearisation
    otherwise.  Components are polynomials over the source bundle F.
    """
    delta = anchor(A)
    try:
        holo = holonomic_assignment(A.carrier, A.phase.chart)
    except NotSymmetric as exc:
        raise NotALinearisation(
            "carrier is not symmetric, graded-bundle anchors undefined"
        ) from exc
    q = q if q is not None else A.carrier.gl_degree
    pull = ChartMap(holo)
    return {b: pull(p) for b, p in delta.items() if b.weight[0] <= q - 1}


# ------------------------------------------------------- weight-one leg A1
def restrict_to_A1(Q: HomologicalField) -> Derivation:
    """Projection d of the structure field to the (x_0, theta_1) leg, built
    from the weight-zero entries of its blocks.  By weight, the coefficient
    of a weight-zero x or theta involves weight-zero coordinates only."""
    def low(block):
        return {key: c for key, c in block.items() if not any(v.weight[0] for v in key)}

    rho, c = q_blocks(Q)
    action = structure_action(low(rho), low(c), Q.phase.x_of, Q.phase.theta_of)
    return Derivation(action, ODD, (0, 1, 0))


# --------------------------------------------------------------- components
class EpsilonComponents:
    """The pullback families of the defining triple-bundle morphism."""

    def __init__(self, system: CoordinateSystem, delta_x: dict[str, SuperPolynomial],
                 delta_pi: dict[str, SuperPolynomial]):
        self.system = system
        self.delta_x = delta_x
        self.delta_pi = delta_pi


def extract_coefficients(Q: HomologicalField):
    """Anchor and bracket coefficient polynomials in the carrier's base-leg
    coordinates, as ``algebroid_from_coefficients`` takes them.

    Returns (P_aI, P_KIJ): P_aI[(base name, fibre name)] and
    P_KIJ[(I, J, K)] = -d_I d_J Q(theta^K), antisymmetric in (I, J).
    """
    rho, c = q_blocks(Q)
    return ({(b.name, f.name): p for (f, b), p in rho.items()},
            {(i.name, j.name, k.name): -p for (i, j, k), p in c.items()})


def epsilon_components(A: WeightedAlgebroid) -> EpsilonComponents:
    """Emit delta-x and delta-pi pullbacks on a display system whose
    coordinates keep their carrier coordinates' parities."""
    if A.q is None:
        raise MalformedQ("general algebroids are classified by raw data only")
    phase = A.phase
    k = phase.k
    base_leg = A.carrier.base_leg_vars(phase.chart)
    fiber = A.carrier.fiber_vars(phase.chart)
    sys, (x_of, y_of, p_of, pi_of) = _tri_chart(
        "epsilon_display",
        [(base_leg, "", lambda u: (u, 0, 0), 0),
         (fiber, "", lambda u: (u, 1, 0), 0),
         (base_leg, "p_", lambda u: (k - 1 - u, 1, 1), 0),
         (fiber, "pi_", lambda u: (k - 1 - u, 0, 1), 0)],
    )
    x_map = ChartMap(x_of)
    var = SuperPolynomial.from_var
    rho, c = q_blocks(A.q)

    # the terms of each component, summed once at the end
    delta_x = {"delta_" + b.name: [] for b in base_leg}
    delta_pi = {"delta_pi_" + f.name: [] for f in fiber}
    for (f, b), p in rho.items():
        p = x_map(p)
        delta_x["delta_" + b.name].append((1, var(y_of[f]), p))
        delta_pi["delta_pi_" + f.name].append((1, p, var(p_of[b])))
    # P^K_IJ = -c[(I, J, K)] stands with y_I pi_K in delta_pi_J
    for (i, j, kf), p in c.items():
        delta_pi["delta_pi_" + j.name].append((-1, var(y_of[i]) * x_map(p), var(pi_of[kf])))
    return EpsilonComponents(
        sys,
        {n: sum_of_products(ts) for n, ts in delta_x.items()},
        {n: sum_of_products(ts) for n, ts in delta_pi.items()},
    )


def weighted_lie_algebra_check(A: WeightedAlgebroid) -> bool:
    """True when the carrier has no total-weight-zero coordinates."""
    return all(
        total(v.weight) > 0
        for chart in A.carrier.charts
        for v in chart.variables
    )
