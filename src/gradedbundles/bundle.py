"""Graded and n-tuple graded bundles as atlases of polynomial transitions.

A bundle is a list of coordinate systems together with transition maps whose
components are weight- and parity-homogeneous polynomials.  Inverse
transitions are required input, never computed: the declared pair is checked
by symbolic composition, which turns invertibility into a decidable
verification.

Every construction keeps the atlas and changes the chart.  ``rechart`` is
the one primitive for that: a ``spec_fn`` declares one new chart per old
chart, and a ``component_fn`` carries each transition across, forward and
inverse, once per direction: a transition held as the reversal of another
(the swapped component dicts that ``two_chart_bundle`` stores) comes out
as the reversal of that one's result.  The chart comes as role blocks, and
``_chart`` builds it: a block maps each source key to a (name, weight,
parity) triple, which declares a coordinate, or to a plain name, which maps
the key onto a coordinate a triple declares, so each coordinate is declared
once.  The result's ``provenance`` (a ``Provenance``) records the
construction's tag, its source and, per role, one map per chart from source
keys to new variables.  The roles in use:

* ``vars``: each kept coordinate to its copy (restrictions, projections,
  parity reversal, pairing charts); for ``reconstruct`` each coordinate of
  the GL-bundle to the coordinate it pulls back to;
* ``undotted`` and ``dotted``: a coordinate and its dotted partner in a
  vertical or tangent lift and in a linearisation, whose top coordinates
  have a dotted partner only;
* ``base`` and ``dual``: base-leg coordinates and dual fibre coordinates of
  a linear dual or cotangent bundle (``linfun.contragredient``), and on a
  pairing chart the dual bundle's coordinates; and ``base``, ``y``, ``xi``
  and ``dy`` on a prolongation's carrier
  (``constructions.prolongation_roles``).

Validation never raises; it returns a ``report.Report`` listing every check
with its residual, so callers can surface honest failures.
"""

from __future__ import annotations

import itertools

from .report import Report
from .superalg import (
    ChartMap,
    Derivation,
    Differential,
    SuperPolynomial,
    Variable,
    ZERO,
    declare_chart,
    partial,
    render,
    total,
    weight_of,
)


class IllDefinedProjection(ValueError):
    """A projection or linearisation hit a law that a dropped coordinate leaks into."""


_system_counter = itertools.count()


class CoordinateSystem:
    """An ordered chart of weighted, parity-carrying variables."""

    def __init__(self, specs, name: str | None = None, arity: int | None = None):
        """``specs`` is an iterable of (name, weight, parity) triples.

        Integer weights are promoted to 1-tuples.  The declaration order
        fixes the canonical monomial order for every polynomial on the chart.
        """
        self.name = name or f"chart{next(_system_counter)}"
        vars_ = []
        seen = set()
        for i, (vname, weight, parity) in enumerate(specs):
            if isinstance(weight, int):
                weight = (weight,)
            weight = tuple(weight)
            if vname in seen:
                raise ValueError(f"duplicate coordinate name {vname!r}")
            seen.add(vname)
            vars_.append(Variable(self.name, vname, weight, parity, i))
        # the chart keeps its ring, which polynomials on it share
        self._ring = declare_chart(vars_)
        self.variables: tuple[Variable, ...] = self._ring.vars
        arities = {len(v.weight) for v in self.variables}
        if len(arities) > 1:
            raise ValueError(f"mixed weight arities in chart {self.name}: {arities}")
        self.arity = arity if arity is not None else (arities.pop() if arities else 1)
        self._by_name = {v.name: v for v in self.variables}

    def __getitem__(self, name: str) -> Variable:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self.variables)

    def __len__(self):
        return len(self.variables)

    @property
    def base(self) -> tuple[Variable, ...]:
        return tuple(v for v in self.variables if total(v.weight) == 0)

    @property
    def nonbase(self) -> tuple[Variable, ...]:
        return tuple(v for v in self.variables if total(v.weight) > 0)

    @property
    def degree(self) -> int:
        return max((total(v.weight) for v in self.variables), default=0)

    def var(self, name: str) -> SuperPolynomial:
        return SuperPolynomial.from_var(self._by_name[name])

    def __repr__(self):
        return f"CoordinateSystem({self.name}: {[v.name for v in self.variables]})"


class TransitionMap:
    """Forward and declared-inverse components of one chart change."""

    def __init__(self, source: CoordinateSystem, target: CoordinateSystem,
                 forward: dict[Variable, SuperPolynomial],
                 inverse: dict[Variable, SuperPolynomial]):
        self.source = source
        self.target = target
        self.forward = forward
        self.inverse = inverse

    def reversed(self) -> "TransitionMap":
        return TransitionMap(self.target, self.source, self.inverse, self.forward)


class Provenance:
    """What a construction built a bundle from.

    ``maps[role][i]`` sends keys of the source's chart ``i`` (variables, or
    names or (name, level) pairs) to variables of the bundle's chart ``i``;
    ``tag`` names the construction.
    """

    def __init__(self, tag: str = "declared", source: object = None,
                 maps: dict[str, list[dict]] | None = None):
        self.tag = tag
        self.source = source
        self.maps = {} if maps is None else maps


class GradedBundle:
    """An atlas of charts with weight-homogeneous polynomial transitions."""

    def __init__(self, charts, transitions=None, provenance=None):
        self.charts: list[CoordinateSystem] = list(charts)
        self.transitions: dict[tuple[int, int], TransitionMap] = dict(transitions or {})
        self.provenance: Provenance = provenance or Provenance()
        arities = {c.arity for c in self.charts}
        if len(arities) != 1:
            raise ValueError(f"charts disagree on grading arity: {arities}")
        self.arity = arities.pop()

    @property
    def degree(self) -> int:
        return max(c.degree for c in self.charts)

    @property
    def chart(self) -> CoordinateSystem:
        return self.charts[0]

    def __repr__(self):
        return (
            f"{type(self).__name__}(degree {self.degree}, arity {self.arity}, "
            f"{len(self.charts)} charts)"
        )


def two_chart_bundle(chart_a, chart_b, forward, inverse, cls=GradedBundle,
                     provenance=None):
    """Convenience constructor for the default desk-scale atlas.

    ``forward`` and ``inverse`` map coordinate names of the respective target
    chart to polynomials over the other chart.
    """
    fwd = {chart_b[name]: p for name, p in forward.items()}
    inv = {chart_a[name]: p for name, p in inverse.items()}
    t = TransitionMap(chart_a, chart_b, fwd, inv)
    return cls([chart_a, chart_b], {(0, 1): t, (1, 0): t.reversed()},
               provenance=provenance)


def single_chart_bundle(chart, cls=GradedBundle):
    return cls([chart], {})


# ------------------------------------------------------------------ validate
def _check_components(report, label, target_vars, components, arity):
    """Add the declared, weight and parity items; returns whether every
    component is declared and whether every declared one has its parity."""
    declared = parities_ok = True
    for v in target_vars:
        p = components.get(v)
        if p is None:
            report.add(f"{label}: component for {v.name} declared", False)
            declared = False
            continue
        w = weight_of(p, arity)
        ok = w == "zero" or w == v.weight
        report.add(
            f"{label}: weight of {v.name}-component",
            ok,
            "" if ok else f"weight {w}, expected {v.weight}",
        )
        par = p.parity()
        ok = par in ("zero", v.parity)
        report.add(
            f"{label}: parity of {v.name}-component",
            ok,
            "" if ok else f"parity {par}, expected {v.parity}",
        )
        parities_ok &= ok
    return declared, parities_ok


def _check_round_trip(report, label, t: TransitionMap) -> ChartMap:
    """Add the round-trip items; returns the pullback along ``t.forward``."""
    pull = ChartMap(t.forward)
    for v in t.source.variables:
        if v not in t.inverse:
            report.add(f"{label}: inverse component for {v.name} declared", False)
        else:
            report.zero(f"{label}: round trip on {v.name}",
                        pull(t.inverse[v]) - SuperPolynomial.from_var(v))
    return pull


def _check_linear_block(report, label, t: TransitionMap):
    # every non-base image must contain a term linear in equal-weight
    # coordinates: the invertible T-block of the structured transition form
    for v in t.target.nonbase:
        p = t.forward.get(v)
        if p is None:
            continue
        found = False
        for m in p.monomials():
            nb = [(u, e) for u, e in m if total(u.weight) > 0]
            if len(nb) == 1 and nb[0][1] == 1 and nb[0][0].weight == v.weight:
                found = True
                break
        report.add(
            f"{label}: linear block present in {v.name}-component",
            found,
            "" if found else render(p),
        )


def validate(bundle: GradedBundle) -> Report:
    """Check homogeneity, declared invertibility and structure of an atlas."""
    report = Report()
    # Substituting a transition's components for coordinates needs all of
    # them, with their parities, so a transition with a missing component
    # or a failed parity item gets no round trip, and no cocycle starts with
    # it; a cocycle also reads every component of its other two legs.  The
    # round trip and the cocycles pull back along one map per transition,
    # its forward components.
    pulls, complete = {}, set()
    for (i, j), t in sorted(bundle.transitions.items()):
        label = f"transition {i}->{j}"
        declared, parities_ok = _check_components(
            report, label, t.target.variables, t.forward, bundle.arity)
        if declared:
            complete.add((i, j))
            if parities_ok:
                pulls[(i, j)] = _check_round_trip(report, label, t)
        _check_linear_block(report, label, t)
    if len(bundle.charts) >= 3:
        for i, j, k in itertools.permutations(range(len(bundle.charts)), 3):
            if (i, j) in pulls and (j, k) in complete and (i, k) in complete:
                t_jk = bundle.transitions[(j, k)]
                t_ik = bundle.transitions[(i, k)]
                ok = True
                bad = ""
                for v in t_ik.target.variables:
                    composed = pulls[(i, j)](t_jk.forward[v])
                    if composed != t_ik.forward[v]:
                        ok = False
                        bad = f"{v.name}: {render(composed - t_ik.forward[v])}"
                        break
                report.add(f"cocycle {i}->{j}->{k}", ok, bad)
    return report


# ----------------------------------------------------------------- operators
def weight_vector_field(chart: CoordinateSystem, component: int = 0) -> Derivation:
    """The Euler-type field counting one weight component: sum of w v d/dv."""
    if component >= chart.arity:
        raise ValueError(f"component {component} out of range for arity {chart.arity}")
    action = {}
    for v in chart.variables:
        w = v.weight[component]
        if w:
            action[v] = SuperPolynomial.from_var(v) * w
    shift = tuple(0 for _ in range(chart.arity))
    return Derivation(action, 0, shift)


# ---------------------------------------------------------------- re-charting
def rechart(bundle: GradedBundle, spec_fn, component_fn, cls=GradedBundle,
            tag: str = "", source=None, **kwargs):
    """Re-chart every chart of ``bundle`` and carry its transitions across.

    ``spec_fn(i, chart)`` returns ``(name, arity, roles)``: the new chart's
    name and weight arity, and per role a ``_chart`` block from old keys to
    new coordinates, each either a (name, weight, parity) triple declaring
    it or the plain name of a coordinate a triple declares.  The chart's
    variables are the triples in block order.  ``component_fn(comps, other,
    src, dst, key)`` returns the new components of one direction of a
    transition: ``comps`` are its old components, ``other`` those of the
    opposite direction, ``src`` and ``dst`` the role maps (now to new
    variables) of its source and target charts, ``key`` their indices.  The
    role maps become the result's provenance; further keywords go to ``cls``.

    ``component_fn`` runs once per direction of a transition.  Where the
    transition under ``(j, i)`` is the reversal of the one under ``(i, j)``
    (it holds the very dicts of ``(i, j)``, swapped, as ``two_chart_bundle``
    and ``TransitionMap.reversed`` build it), the result's ``(j, i)`` is the
    reversal of its ``(i, j)``, so the sharing carries on to every
    construction built from the result.  Two directions held in distinct
    dicts are each built.
    """
    charts, maps = [], []
    for i, chart in enumerate(bundle.charts):
        name, arity, roles = spec_fn(i, chart)
        new, role_maps = _chart(name, arity, roles.values())
        charts.append(new)
        maps.append(dict(zip(roles, role_maps)))
    transitions = {}
    for (i, j), t in bundle.transitions.items():
        back = bundle.transitions.get((j, i))
        if (j, i) in transitions and back.forward is t.inverse \
                and back.inverse is t.forward:
            transitions[(i, j)] = transitions[(j, i)].reversed()
            continue
        fwd = component_fn(t.forward, t.inverse, maps[i], maps[j], (i, j))
        inv = component_fn(t.inverse, t.forward, maps[j], maps[i], (j, i))
        transitions[(i, j)] = TransitionMap(charts[i], charts[j], fwd, inv)
    provenance = Provenance(tag, bundle if source is None else source,
                            {role: [m[role] for m in maps] for role in maps[0]})
    return cls(charts, transitions, provenance=provenance, **kwargs)


def restrict(bundle: GradedBundle, keep, tag: str, cls=None, reweight=None,
             zero=(), **kwargs) -> GradedBundle:
    """Rebuild the atlas on the coordinates ``keep`` accepts (role ``vars``).

    ``reweight`` maps each kept weight to its new weight (unchanged by
    default); coordinates in ``zero`` are set to zero first, and any other
    dropped coordinate in a kept image raises IllDefinedProjection.
    """
    reweight = reweight or (lambda w: w)
    zero_map = ChartMap(dict.fromkeys(zero, ZERO)) if zero else None

    def spec(i, chart):
        kept = {v: (v.name, reweight(v.weight), v.parity) for v in chart.variables if keep(v)}
        return chart.name, len(reweight((0,) * chart.arity)), {"vars": kept}

    def components(comps, other, src, dst, key):
        rename = ChartMap(src["vars"])
        out = {}
        for v, p in comps.items():
            if v not in dst["vars"]:
                continue
            if zero_map:
                p = zero_map(p)
            u = rename.unmapped(p)
            if u is not None:
                raise IllDefinedProjection(
                    f"image of {v.name} depends on dropped coordinate {u.name}"
                )
            out[dst["vars"][v]] = rename(p)
        return out

    return rechart(bundle, spec, components, cls=cls or type(bundle), tag=tag, **kwargs)


def project_tower(bundle: GradedBundle, l: int) -> GradedBundle:
    """The tower fibration F_k -> F_l, recorded in the result's provenance.

    Levels above the degree act as the identity, so composites satisfy
    project(project(F, l), m) = project(F, min(l, m)).
    """
    if l < 0:
        raise ValueError(f"negative tower level {l}")
    return restrict(bundle, lambda v: total(v.weight) <= l, "project", cls=GradedBundle)


def core_submanifold(bundle: GradedBundle, i: int) -> GradedBundle:
    """Set to zero every coordinate of weight 0 < w <= i and keep the rest."""
    if not 0 <= i < bundle.degree:
        raise ValueError(f"core level {i} outside 0..{bundle.degree - 1}")
    if i == 0:
        return bundle
    killed = {
        v
        for chart in bundle.charts
        for v in chart.variables
        if 0 < total(v.weight) <= i
    }
    return restrict(bundle, lambda v: v not in killed, "core", cls=GradedBundle,
                    zero=killed)


def _chart(name: str, arity: int, blocks):
    """The chart of the blocks' (name, weight, parity) triples, in order, and
    per block the map from its keys to the chart's variables.  A key whose
    entry is a plain name maps onto the coordinate a triple declares under
    that name, in any block."""
    chart = CoordinateSystem([s for b in blocks for s in b.values() if not isinstance(s, str)],
                             name=name, arity=arity)
    return chart, [{key: chart[s if isinstance(s, str) else s[0]] for key, s in block.items()}
                   for block in blocks]


def _fresh_name(name: str, taken: set, grow) -> str:
    """``name``, grown by ``grow`` until it is not in ``taken``; the result
    is added to ``taken``."""
    while name in taken:
        name = grow(name)
    taken.add(name)
    return name


def _lifted_laws(comps, other, src, dst, key=None):
    """The component function of the differential lifts, also applied to a
    morphism's pullbacks: each law is renamed along ``src["undotted"]`` and
    differentiated in the new chart along ``src["dotted"]``, for the
    coordinates ``dst`` keeps undotted and dotted."""
    # An injective renaming r has r(dp/du) = d r(p) / d r(u).  A coordinate
    # u with no undotted copy (a top coordinate of D(F)) is renamed onto its
    # dotted copy du, which the differential sends to itself: by homogeneity
    # u enters a law of top weight only as (weight-0 coefficient) * u, and
    # the Euler term gives a term linear in du back unchanged, so the dotted
    # law is exact and no mixed-ring polynomial is built.  Anywhere else, in
    # a law kept undotted or with a coefficient of positive weight, u has
    # leaked in, and the renamed law would lose its coordinate's weight.
    und, dst_und, dst_dot = src["undotted"], dst["undotted"], dst["dotted"]
    tops = {u: du for u, du in src["dotted"].items() if u not in und}
    for v, p in comps.items():
        for u in tops:
            if p.involves(u) and (v in dst_und or weight_of(partial(p, u), 1) != (0,)):
                new = dst_und[v] if v in dst_und else dst_dot[v]
                raise IllDefinedProjection(
                    f"image of {new.name} depends on dropped coordinate {u.name}")
    rename = ChartMap({**und, **tops})
    lift = Differential({und.get(u, du): du for u, du in src["dotted"].items()})
    renamed = {v: rename(p) for v, p in comps.items()}
    out = {dst_und[v]: law for v, law in renamed.items() if v in dst_und}
    out.update((dst_dot[v], lift(law)) for v, law in renamed.items() if v in dst_dot)
    return out


def _differential_lift(bundle: GradedBundle, dotted_weight, tag: str,
                       cls=GradedBundle, keep=lambda v: True):
    """Adjoin dotted coordinates transforming by the differentials of the
    undotted transition laws.  Vertical bundles (dotted for fibre directions
    only), full tangent bundles (dotted for everything) and linearisations
    (vertical, undotted where ``keep`` holds) all come from here.

    Undotted variables get weight (w, 0); each dotted partner ``d<name>`` of
    a weight-w variable gets ``dotted_weight(w)``, unless it is negative,
    and the same parity.
    """
    if bundle.arity != 1:
        raise ValueError("differential lifts are implemented for arity-1 bundles")

    def spec(i, chart):
        taken = {v.name for v in chart.variables}
        undotted = {v: (v.name, v.weight + (0,), v.parity) for v in chart.variables if keep(v)}
        dotted = {v: (_fresh_name("d" + v.name, taken, lambda n: "d" + n),
                      dotted_weight(total(v.weight)), v.parity)
                  for v in chart.variables if dotted_weight(total(v.weight))[0] >= 0}
        return chart.name + "_d", chart.arity + 1, {"undotted": undotted, "dotted": dotted}

    return rechart(bundle, spec, _lifted_laws, cls=cls, tag=tag)


def vertical_bundle(bundle: GradedBundle) -> GradedBundle:
    """Tangent directions along the fibration over the base.

    The dotted copy of a weight-w coordinate carries bi-weight (w-1, 1), so
    the vertical bundle is again of total degree k.
    """
    if bundle.degree < 1:
        raise ValueError("vertical bundle needs degree >= 1")
    return _differential_lift(bundle, lambda w: (w - 1, 1), "vertical")


def tangent_bundle(bundle: GradedBundle, cls=GradedBundle) -> GradedBundle:
    """Full tangent lift; dotted weight-w coordinates carry bi-weight (w, 1)."""
    return _differential_lift(bundle, lambda w: (w, 1), "tangent", cls)
