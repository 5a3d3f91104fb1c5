"""Linearisation of graded bundles, linear duals, pairing, parity reversion.

The linearisation of a degree-k bundle is its vertical bundle without the
top-weight undotted coordinates, built in one pass by ``bundle._lifted_laws``:
the dotted transition laws are the differentials of the undotted ones.  The
result is a graded-linear bundle: a double graded bundle whose second weight
takes values in {0, 1} and whose weight-1 leg is a vector bundle over the
degree k-1 base leg.

A GL-bundle is a linearisation exactly when it is symmetric, and
``symmetry_report`` decides that by one vertical-lift identity per fibre
coordinate: its law is the differential of a potential, its base partner's
law for a non-top coordinate and the Euler potential of its own law for a
top one.  A closed fibre-linear form of weight k is the differential of its
contraction with the Euler field over k (Grabowski & Rotkiewicz, graded
bundles and homogeneity structures), so no pairwise tensor test is needed,
and partial derivatives carry the graded signs.

Dual transitions are computed, never user-supplied: the linear part of the
dotted laws is block-triangular in weight with the user's invertible
diagonal blocks, so the contragredient comes out of the declared inverse
atlas by differentiation and substitution alone.  ``contragredient`` is that
law, written once as a ``bundle.rechart`` component function; the linear
dual and the cotangent bundle (``constructions``) both use it.

Every construction here re-charts through ``bundle.rechart`` and records its
maps in the result's ``provenance``: D(F) carries ``undotted`` and
``dotted`` (F's coordinates to D(F)'s), the linear dual ``base`` and
``dual`` (D(F)'s coordinates to base-leg and ``p<name>`` coordinates, with
D(F) as source), and ``reconstruct`` ``vars`` (the GL-bundle's coordinates
to the coordinates they pull back to on F).
"""

from __future__ import annotations

from fractions import Fraction

from .superalg import (
    ChartMap,
    Differential,
    SuperPolynomial,
    Variable,
    ZERO,
    maps_equal,
    partial,
    render,
    substitute,
    sum_of_products,
    total,
    weight_of,
)
from .bundle import (
    _fresh_name,
    GradedBundle,
    IllDefinedProjection,
    _differential_lift,
    _lifted_laws,
    rechart,
    restrict,
)
from .report import Report


class WeightViolation(ValueError):
    """A morphism component fails weight or parity preservation."""


class NotSymmetric(ValueError):
    """A GL-bundle is not the linearisation of any graded bundle."""


class NonlinearFiber(ValueError):
    """A transition component is not linear in the vector-bundle leg."""


class GLBundle(GradedBundle):
    """Double graded bundle with a linear (Euler) second leg.

    The base leg (second weight 0) is a graded bundle of degree k-1, the
    fibre coordinates carry second weight 1 and appear linearly in every
    transition.
    """

    def __init__(self, charts, transitions=None, provenance=None, gl_degree=None):
        super().__init__(charts, transitions, provenance)
        if self.arity != 2:
            raise ValueError(f"GL-bundles need weight arity 2, got {self.arity}")
        for chart in self.charts:
            for v in chart.variables:
                if v.weight[1] not in (0, 1):
                    raise ValueError(
                        f"{v.name} has second weight {v.weight[1]}, expected 0 or 1"
                    )
        top = max(
            (v.weight[0] for c in self.charts for v in c.variables), default=0
        )
        self.gl_degree = gl_degree if gl_degree is not None else top + 1
        if top > self.gl_degree - 1:
            raise ValueError(
                f"first weight {top} exceeds degree bound {self.gl_degree - 1}"
            )

    def fiber_vars(self, chart_idx=0):
        return tuple(
            v for v in self.charts[chart_idx].variables if v.weight[1] == 1
        )

    def base_leg_vars(self, chart_idx=0):
        return tuple(
            v for v in self.charts[chart_idx].variables if v.weight[1] == 0
        )

    def fiber_block(self, u: int, chart_idx=0):
        return tuple(v for v in self.fiber_vars(chart_idx) if v.weight[0] == u)

    def base_block(self, w: int, chart_idx=0):
        return tuple(
            v for v in self.base_leg_vars(chart_idx) if v.weight[0] == w
        )

    def base_bundle(self) -> GradedBundle:
        """The degree k-1 bundle carried by the second-weight-0 leg."""
        return restrict(self, lambda v: v.weight[1] == 0, "base_leg", cls=GradedBundle,
                        reweight=lambda w: w[:1])


# --------------------------------------------------------------- linearise
def linearise(F: GradedBundle) -> GLBundle:
    """D(F): the vertical lift of F with undotted coordinates of weight below
    k only, built in one pass.  Its provenance maps F's variables to its own;
    a law that a dropped top coordinate leaks into raises IllDefinedProjection."""
    if F.degree < 1:
        raise ValueError("linearisation needs degree >= 1")
    k = F.degree
    return _differential_lift(F, lambda w: (w - 1, 1), "linearise", GLBundle,
                              keep=lambda v: total(v.weight) < k)


# --------------------------------------------------------------- morphisms
class GradedMorphism:
    """Pullback components of the target's chart-0 coordinates on the
    source's chart 0.  They fix the morphism: an atlas that passes
    ``validate`` has polynomial transitions with polynomial inverses, so
    every chart is global, and chart i's components are their transport
    tF_i0^*(phi_0^*(tG_0i[V])), not a second copy that could disagree."""

    def __init__(self, source: GradedBundle, target: GradedBundle,
                 components: dict[Variable, SuperPolynomial]):
        self.source = source
        self.target = target
        self.components = components

    def validate(self) -> None:
        """Raise WeightViolation unless weight and parity are preserved.

        Weights are compared component-wise between equal arities and by
        total weight across different arities (embeddings into double
        graded bundles use the total weight on the target).
        """
        same_arity = self.source.arity == self.target.arity
        for v in self.target.chart.variables:
            p = self.components.get(v)
            if p is None:
                raise WeightViolation(f"missing component for {v.name}")
            w = weight_of(p, self.source.arity)
            if w == "zero":
                continue
            if w == "inhomogeneous":
                raise WeightViolation(f"component of {v.name} is inhomogeneous")
            expected = v.weight if same_arity else total(v.weight)
            got = w if same_arity else total(w)
            if got != expected:
                raise WeightViolation(
                    f"component of {v.name} has weight {w}, expected {v.weight}"
                )
            par = p.parity()
            if par not in ("zero", v.parity):
                raise WeightViolation(f"component of {v.name} flips parity")


def identity_morphism(F: GradedBundle) -> GradedMorphism:
    return GradedMorphism(
        F, F, {v: SuperPolynomial.from_var(v) for v in F.chart.variables}
    )


def compose_morphisms(outer: GradedMorphism, inner: GradedMorphism) -> GradedMorphism:
    """outer after inner; pullbacks compose the other way round."""
    pull = ChartMap(inner.components)
    comps = {v: pull(p) for v, p in outer.components.items()}
    return GradedMorphism(inner.source, outer.target, comps)


def morphisms_equal(a: GradedMorphism, b: GradedMorphism) -> bool:
    return maps_equal(a.components, b.components)


def linearise_morphism(
    phi: GradedMorphism, DF: GLBundle | None = None, DFp: GLBundle | None = None
) -> GradedMorphism:
    """The linearisation functor on morphisms: the components are lifted as
    D(F)'s laws are (``bundle._lifted_laws``), from D(F)'s chart-0 role maps
    to D(F')'s.  A component that a top source coordinate leaks into (a map
    raising the degree) raises IllDefinedProjection."""
    phi.validate()
    DF = DF if DF is not None else linearise(phi.source)
    DFp = DFp if DFp is not None else linearise(phi.target)
    chart0 = lambda D: {role: D.provenance.maps[role][0] for role in ("undotted", "dotted")}
    return GradedMorphism(DF, DFp, _lifted_laws(phi.components, None, chart0(DF), chart0(DFp)))


def _holonomic(pairs):
    """Pullbacks along the holonomic embedding from (G-coordinate, F-coordinate)
    pairs: a fibre coordinate of total weight w pulls back to w times its
    partner, a base-leg coordinate to its partner."""
    out: dict[Variable, SuperPolynomial] = {}
    for g, v in pairs:
        p = SuperPolynomial.from_var(v)
        out[g] = p * total(g.weight) if g.weight[1] == 1 else p
    return out


def holonomic_assignment(G: GLBundle, chart_idx: int = 0):
    """Pullback data of the embedding F -> G on one chart.

    For G = D(F) the undotted coordinates pull back to themselves and the
    dotted copy of a weight-w coordinate to w times that coordinate.  Any
    other G is first reconstructed as a linearisation (NotSymmetric if it
    is none), and the pullbacks are polynomials on the reconstruction.
    """
    prov = G.provenance
    if prov.tag != "linearise":
        return _holonomic(reconstruct(G).provenance.maps["vars"][chart_idx].items())
    return _holonomic(
        (g, v) for role in ("undotted", "dotted") for v, g in prov.maps[role][chart_idx].items()
    )


def holonomic_embedding(F: GradedBundle, DF: GLBundle | None = None) -> GradedMorphism:
    DF = DF if DF is not None else linearise(F)
    return GradedMorphism(F, DF, holonomic_assignment(DF, 0))


def embedding_compatibility(F: GradedBundle, DF: GLBundle | None = None) -> Report:
    """Check that the dotted laws pulled back through the embedding give
    the weight multiple of the undotted laws, on every transition."""
    DF = DF if DF is not None else linearise(F)
    report = Report()
    for (i, j), t in sorted(DF.transitions.items()):
        holo_i = ChartMap(holonomic_assignment(DF, i))
        tF = F.transitions[(i, j)]
        for v, dv in DF.provenance.maps["dotted"][j].items():
            report.zero(f"transition {i}->{j}: embedding compatibility on {dv.name}",
                        holo_i(t.forward[dv]) - tF.forward[v] * total(v.weight))
    return report


# ----------------------------------------------------------- symmetric test
def _partners(G: GLBundle, chart_idx: int) -> dict[Variable, Variable]:
    """Each fibre coordinate's partner on one chart, in weight order: the
    equally indexed weight-w base coordinate for a (w-1, 1) one, itself for
    a top (k-1, 1) one."""
    k = G.gl_degree
    partner = {}
    for w in range(1, k):
        fib = G.fiber_block(w - 1, chart_idx)
        base = G.base_block(w, chart_idx)
        if len(fib) != len(base):
            raise NotSymmetric(
                f"chart {chart_idx}: fibre block ({w - 1},1) has size {len(fib)}"
                f" but base block of weight {w} has size {len(base)}"
            )
        partner.update(zip(fib, base))
    partner.update((z, z) for z in G.fiber_block(k - 1, chart_idx))
    return partner


def symmetry_report(G: GLBundle) -> Report:
    """The symmetric criterion, one item per fibre coordinate f of each
    transition's target chart: f's law is the differential of its potential
    under the source chart's ``dot``, which sends each non-top base
    coordinate to its fibre partner and each top fibre coordinate to itself.
    A non-top f's potential is its base partner's law, a top f's is its
    Euler potential: the sum of (w/k) b * d(law)/dg over the source chart's
    fibre coordinates g of total weight w, with partners b."""
    report = Report()
    k = G.gl_degree
    try:
        partners = [_partners(G, idx) for idx in range(len(G.charts))]
    except NotSymmetric as exc:
        report.add("fibre/base block sizes match", False, str(exc))
        return report
    report.add("fibre/base block sizes match", True)
    lifts = [Differential({b: f for f, b in partner.items()}) for partner in partners]

    for (i, j), t in sorted(G.transitions.items()):
        for f, b in partners[j].items():
            law = t.forward[f]
            if b is f:
                what = "its Euler potential"
                potential = sum_of_products(
                    (Fraction(total(g.weight), k), SuperPolynomial.from_var(c), partial(law, g))
                    for g, c in partners[i].items() if law.involves(g)
                )
            else:
                what, potential = b.name, t.forward[b]
            report.zero(f"transition {i}->{j}: {f.name} transforms as the vertical lift of {what}",
                        law - lifts[i](potential))
    return report


def is_symmetric(G: GLBundle) -> bool:
    return symmetry_report(G).passed


def _strip_dot_name(name: str, taken: set) -> str:
    cand = name[1:] if name.startswith("d") and len(name) > 1 else name
    if cand in taken or not cand:
        cand = name + "_u"
    return _fresh_name(cand, taken, lambda n: n + "_u")


def reconstruct(G: GLBundle) -> GradedBundle:
    """Rebuild the graded bundle whose linearisation a symmetric GL-bundle is.

    The holonomic locus is imposed by substituting w*y for each non-top
    fibre coordinate, and the top fibre coordinate is rescaled by 1/k.
    """
    rep = symmetry_report(G)
    if not rep.passed:
        bad = rep.failures()[0]
        raise NotSymmetric(f"not a linearisation: {bad.check_id}")
    k = G.gl_degree

    def spec(i, chart):
        base = G.base_leg_vars(i)
        taken = {v.name for v in base}
        names = {v: (v.name, (v.weight[0],), v.parity) for v in base}
        # a non-top fibre coordinate maps onto its base partner, a top one
        # declares the top coordinate
        for f, b in _partners(G, i).items():
            names[f] = b.name if b is not f else (_strip_dot_name(f.name, taken), (k,), f.parity)
        return chart.name + "_rec", 1, {"vars": names}

    inv_k = Fraction(1, k)

    def components(comps, other, src, dst, key):
        # the holonomic locus: w*y for each non-top fibre coordinate, and
        # the top fibre coordinate rescaled by 1/k
        holo = ChartMap(_holonomic(src["vars"].items()))
        out = {}
        for g, v in dst["vars"].items():
            if g.weight[1] == 0:
                out[v] = holo(comps[g])
            elif g.weight[0] == k - 1:
                out[v] = holo(comps[g]) * inv_k
        return out

    return rechart(G, spec, components, tag="reconstruct")


# -------------------------------------------------------------- linear dual
def linear_dual(F: GradedBundle, DF: GLBundle | None = None) -> GLBundle:
    """The dual of the vector bundle D(F) -> F_{k-1}.

    Dual fibre coordinates are named p<fibre name>; the dual of a bi-weight
    (u, 1) coordinate carries bi-weight (k-1-u, 1).  Transitions are the
    contragredients of the dotted laws, obtained from the declared inverse
    atlas by differentiation and substitution.
    """
    DF = DF if DF is not None else linearise(F)
    k = DF.gl_degree

    def spec(i, chart):
        base = {v: (v.name, v.weight, v.parity) for v in chart.variables if v.weight[1] == 0}
        taken = {v.name for v in base}
        dual = {v: (_fresh_name("p" + v.name, taken, lambda n: "p" + n),
                    (k - 1 - v.weight[0], 1), v.parity)
                for v in chart.variables if v.weight[1] == 1}
        return chart.name + "_dual", 2, {"base": base, "dual": dual}

    return rechart(DF, spec, contragredient, cls=GLBundle, tag="linear_dual", gl_degree=k)


def contragredient(comps, other, src, dst, key=None):
    """Dual-bundle components of one direction of a transition.

    A ``bundle.rechart`` component function for charts with roles ``base``
    and ``dual``: base coordinates carry their own law, and the dual of a
    fibre coordinate transforms by the transpose of the opposite direction's
    Jacobian, pulled back along this direction.
    """
    # An entry is pulled back along the renamed components, which equals
    # renaming its pullback, since renaming is a homomorphism.  A law linear
    # in the fibre has entries in the base coordinates only, so the pullback
    # needs their renamed components alone; a component of the wrong parity
    # is renamed too, so that the pullback's first application rejects it.
    base = ChartMap(src["base"])
    renamed = {v: base(p) for v, p in comps.items()
               if v in dst["base"] or p.parity() not in ("zero", v.parity)}
    out = {new: renamed[v] for v, new in dst["base"].items()}
    pull = ChartMap(renamed)
    for a, pa in dst["dual"].items():
        terms = []
        for b, pb in src["dual"].items():
            entry = partial(other[b], a)
            if not entry.is_zero():
                terms.append((1, pull(entry), SuperPolynomial.from_var(pb)))
        out[pa] = sum_of_products(terms)
    return out


# ------------------------------------------------------------------ pairing
class PairingResult:
    """The canonical pairing on D*(F) x_{F_{k-1}} F: ``bundle`` is that
    fibre product's atlas, ``polynomials[i]`` the pairing on its chart i."""

    def __init__(self, bundle: GradedBundle, polynomials: list[SuperPolynomial]):
        self.bundle = bundle
        self.polynomials = polynomials

    @property
    def polynomial(self) -> SuperPolynomial:
        return self.polynomials[0]

    def check_invariance(self) -> Report:
        report = Report()
        for (i, j), t in sorted(self.bundle.transitions.items()):
            report.zero(f"transition {i}->{j}: pairing invariance",
                        substitute(self.polynomials[j], t.forward) - self.polynomials[i])
        return report


def pairing(F: GradedBundle, dual: GLBundle | None = None) -> PairingResult:
    """delta* = sum_w w y_w pi + k z pi^1, of bi-weight (k, 1), on the fibre
    product re-charted from F: role ``vars`` maps F's coordinates to their
    copies, ``dual`` the dual's, its base leg onto those copies.  Each fibre
    coordinate stands left of its dual, the order the contragredient
    transition of the duals is written for."""
    dual = dual if dual is not None else linear_dual(F)
    DF = dual.provenance.source
    dual_of = dual.provenance.maps["dual"]

    def spec(i, chart):
        taken = {v.name for v in chart.variables}
        vars_ = {v: (v.name, v.weight + (0,), v.parity) for v in chart.variables}
        # dual base-leg coordinates map onto F's coordinates of the same name
        lift = {v: (_fresh_name(v.name, taken, lambda n: n + "_d"), v.weight, v.parity)
                if v.weight[1] == 1 else v.name for v in dual.charts[i].variables}
        return f"pairing_{chart.name}", 2, {"vars": vars_, "dual": lift}

    def components(comps, other, src, dst, key):
        rename, rename_dual = ChartMap(src["vars"]), ChartMap(src["dual"])
        out = {dst["vars"][v]: rename(p) for v, p in comps.items()}
        for v, q in dual.transitions[key].forward.items():
            if v.weight[1] == 1:
                out[dst["dual"][v]] = rename_dual(q)
        return out

    P = rechart(F, spec, components, tag="pairing")
    on = P.provenance.maps
    polys = [
        sum_of_products(
            (total(fvar.weight), SuperPolynomial.from_var(on["vars"][i][fvar]),
             SuperPolynomial.from_var(on["dual"][i][dual_of[i][dot]]))
            for fvar, dot in dotted.items()
        )
        for i, dotted in enumerate(DF.provenance.maps["dotted"])
    ]
    return PairingResult(P, polys)


# ----------------------------------------------------------------- mironian
def mironian(F: GradedBundle, dual: GLBundle | None = None) -> GLBundle:
    """Sub-bundle of the linear dual spanned by the bi-weight (0,1) momenta."""
    dual = dual if dual is not None else linear_dual(F)
    k = dual.gl_degree
    keep = lambda v: v.weight[0] + k * v.weight[1] <= k
    return restrict(dual, keep, "mironian", cls=GLBundle, source=F, gl_degree=k)


def mironian_report(F: GradedBundle, dual: GLBundle | None = None) -> Report:
    """Structural identification Mi(F) = F_{k-1} x_M (bar F_k)*."""
    dual = dual if dual is not None else linear_dual(F)
    report = Report()
    try:
        mi = mironian(F, dual)
    except IllDefinedProjection as exc:
        report.add("mironian restriction is well defined", False, str(exc))
        return report
    report.add("mironian restriction is well defined", True)
    for (i, j), t in sorted(mi.transitions.items()):
        for v in mi.charts[j].variables:
            if v.weight[1] != 1:
                continue
            p = t.forward[v]
            offenders = sorted(u.name for u in p.variables()
                               if total(u.weight) > 0 and u.weight[1] == 0)
            report.add(
                f"transition {i}->{j}: {v.name}-component depends only on base",
                not offenders,
                ", ".join(offenders),
            )
    return report


# ---------------------------------------------------------- parity reversal
def parity_reverse(G: GLBundle) -> GLBundle:
    """Flip the Grassmann parity of the vector-bundle leg.

    A law L, linear in the fibre, is L|fibre=0 + sum_f f * dL/df with left
    derivatives, and Pi sends it to L|fibre=0 + sum_f (Pi f) * dL/df, the
    ``differential`` of L under f -> Pi f: the odd vertical lift.  So a
    fibre term keeps its coefficient when its base factor is even and
    changes sign, once written with its base factor first, when that factor
    is odd.  Pi is an involution.  Linearity in the fibre leg is what makes
    this well formed, so it is re-checked defensively.
    """
    for (i, j), t in G.transitions.items():
        for v, p in t.forward.items():
            for m in p.monomials():
                deg = sum(e for u, e in m if u.weight[1] == 1)
                if deg > 1:
                    raise NonlinearFiber(
                        f"transition {i}->{j}: {v.name}-component is nonlinear: {render(p)}"
                    )
    def spec(i, chart):
        flipped = {v: (v.name, v.weight, (v.parity + 1) % 2 if v.weight[1] == 1 else v.parity)
                   for v in chart.variables}
        return chart.name + "_pi", 2, {"vars": flipped}

    def components(comps, other, src, dst, key):
        dot = {v: w for v, w in src["vars"].items() if v.weight[1] == 1}
        drop = ChartMap({v: ZERO for v in dot})
        rename = ChartMap({v: w for v, w in src["vars"].items() if v not in dot})
        lift = Differential(dot)
        return {dst["vars"][v]: rename(drop(p) + lift(p)) for v, p in comps.items()}

    return rechart(G, spec, components, cls=GLBundle, tag="parity_reverse",
                   gl_degree=G.gl_degree)


# ------------------------------------------------------- structural equality
def bundles_structurally_equal(b1: GradedBundle, b2: GradedBundle,
                               names=None) -> bool:
    """Equality of atlases up to renaming charts' variables by name.

    ``names`` maps b1 variable names to b2 variable names (identity when
    omitted).  Weights, parities and all transition components must agree;
    each inverse is the opposite direction's forward.
    """
    if len(b1.charts) != len(b2.charts):
        return False
    names = names or (lambda n: n)
    renames = []
    for c1, c2 in zip(b1.charts, b2.charts):
        if len(c1) != len(c2):
            return False
        vm = {}
        for v in c1.variables:
            target = names(v.name)
            if target not in c2:
                return False
            w = c2[target]
            if v.weight != w.weight or v.parity != w.parity:
                return False
            vm[v] = w
        renames.append(ChartMap(vm))
    if set(b1.transitions) != set(b2.transitions):
        return False
    for (i, j), t1 in b1.transitions.items():
        t2 = b2.transitions[(i, j)]
        if len(t1.forward) != len(t2.forward):
            return False
        for v, p in t1.forward.items():
            q = t2.forward.get(renames[j].assignment[v])
            if q is None or renames[i](p) != q:
                return False
    return True
