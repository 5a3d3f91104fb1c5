import random
from fractions import Fraction

import pytest

from gradedbundles.superalg import ChartMap, commutator
from gradedbundles.bundle import (
    CoordinateSystem,
    GradedBundle,
    TransitionMap,
    core_submanifold,
    project_tower,
    rechart,
    restrict,
    single_chart_bundle,
    tangent_bundle,
    two_chart_bundle,
    validate,
    vertical_bundle,
    weight_vector_field,
)
from gradedbundles.linfun import linear_dual

from helpers import random_bundle, run_python_subprocess


def degree2_example():
    A = CoordinateSystem([("x", 0, 0), ("y", 1, 0), ("z", 2, 0)], name="d2a")
    B = CoordinateSystem([("X", 0, 0), ("Y", 1, 0), ("Z", 2, 0)], name="d2b")
    x, y, z = A.var("x"), A.var("y"), A.var("z")
    X, Y, Z = B.var("X"), B.var("Y"), B.var("Z")
    return two_chart_bundle(
        A, B,
        {"X": x, "Y": 3 * y, "Z": 5 * z + Fraction(1, 2) * y ** 2 * (1 + x)},
        {"x": X, "y": Fraction(1, 3) * Y,
         "z": Fraction(1, 5) * Z - Fraction(1, 90) * Y ** 2 * (1 + X)},
    )


def test_degree2_example_validates():
    assert validate(degree2_example()).passed


def test_a_bundle_needs_a_chart():
    with pytest.raises(ValueError, match="^a bundle needs at least one chart$"):
        GradedBundle([])


def test_weight_violation_reported():
    A = CoordinateSystem([("x", 0, 0), ("y", 1, 0), ("z", 2, 0)], name="wva")
    B = CoordinateSystem([("X", 0, 0), ("Y", 1, 0), ("Z", 2, 0)], name="wvb")
    bundle = two_chart_bundle(
        A, B,
        {"X": A.var("x"), "Y": A.var("y"), "Z": A.var("z") + A.var("y")},
        {"x": B.var("X"), "y": B.var("Y"), "z": B.var("Z")},
    )
    rep = validate(bundle)
    assert not rep.passed
    assert any("weight of Z-component" in item.check_id for item in rep.failures())


def test_bad_round_trip_reported_with_residual():
    A = CoordinateSystem([("x", 0, 0), ("y", 1, 0), ("z", 2, 0)], name="rta")
    B = CoordinateSystem([("X", 0, 0), ("Y", 1, 0), ("Z", 2, 0)], name="rtb")
    bundle = two_chart_bundle(
        A, B,
        {"X": A.var("x"), "Y": A.var("y"),
         "Z": A.var("z") + Fraction(1, 2) * A.var("y") ** 2},
        # inverse omits the -1/2 y^2 correction
        {"x": B.var("X"), "y": B.var("Y"), "z": B.var("Z")},
    )
    rep = validate(bundle)
    bad = [item for item in rep.failures() if "round trip on z" in item.check_id]
    assert bad and bad[0].residual


def test_weight_vector_field():
    F = degree2_example()
    delta = weight_vector_field(F.chart)
    y, z = F.chart.var("y"), F.chart.var("z")
    assert delta(y) == y
    assert delta(z) == 2 * z
    assert delta(F.chart.var("x")).is_zero()


def test_weight_vector_field_zero_on_flat_chart():
    chart = CoordinateSystem([("a", 0, 0), ("b", 0, 0)], name="flat")
    assert weight_vector_field(chart).is_zero()


def test_tangent_lift_weight_fields_commute():
    F = degree2_example()
    TF = tangent_bundle(F)
    d1 = weight_vector_field(TF.chart, 0)
    d2 = weight_vector_field(TF.chart, 1)
    assert commutator(d1, d2).is_zero()
    dy = TF.chart["dy"]
    dx = TF.chart["dx"]
    assert dy.weight == (1, 1)
    assert dx.weight == (0, 1)


def test_project_tower_basics():
    F = degree2_example()
    F1 = project_tower(F, 1)
    assert [v.name for v in F1.chart.variables] == ["x", "y"]
    assert validate(F1).passed
    assert F1.transitions[(0, 1)].forward[F1.charts[1]["Y"]] == 3 * F1.chart.var("y")
    M = project_tower(F, 0)
    assert [v.name for v in M.chart.variables] == ["x"]
    full = project_tower(F, 2)
    assert [v.name for v in full.chart.variables] == ["x", "y", "z"]


def test_project_tower_idempotence():
    rng = random.Random(3)
    F = random_bundle(rng, 3)
    for l, m in [(2, 1), (1, 2), (2, 2)]:
        once = project_tower(project_tower(F, l), m)
        direct = project_tower(F, min(l, m))
        assert [v.name for v in once.chart.variables] == [
            v.name for v in direct.chart.variables
        ]
        t1 = once.transitions[(0, 1)]
        t2 = direct.transitions[(0, 1)]
        assert {v.name: str(p) for v, p in t1.forward.items()} == {
            v.name: str(p) for v, p in t2.forward.items()
        }


def test_core_submanifold():
    F = degree2_example()
    C = core_submanifold(F, 1)
    assert [v.name for v in C.chart.variables] == ["x", "z"]
    Z = C.charts[1]["Z"]
    assert C.transitions[(0, 1)].forward[Z] == 5 * C.chart.var("z")
    assert validate(C).passed
    assert core_submanifold(F, 0) is F


def test_core_of_tower_is_linear():
    # bar F_l = F_l^[l-1]: degree-3 bundle, project to 2 then core at 1
    rng = random.Random(9)
    F = random_bundle(rng, 3)
    bar = core_submanifold(project_tower(F, 2), 1)
    assert validate(bar).passed
    for (i, j), t in bar.transitions.items():
        for v, p in t.forward.items():
            if sum(v.weight) == 0:
                continue
            for m in p.terms:
                nonbase = [(u, e) for u, e in m if sum(u.weight) > 0]
                assert len(nonbase) == 1 and nonbase[0][1] == 1


def test_vertical_bundle_degree2():
    F = degree2_example()
    V = vertical_bundle(F)
    t = V.transitions[(0, 1)]
    ch1 = V.charts[1]
    dy, dz = ch1["dY"], ch1["dZ"]
    assert dy.weight == (0, 1) and dz.weight == (1, 1)
    y, dy0, dz0 = V.chart.var("y"), V.chart.var("dy"), V.chart.var("dz")
    x = V.chart.var("x")
    assert t.forward[dy] == 3 * dy0
    assert t.forward[dz] == 5 * dz0 + y * dy0 * (1 + x)
    assert validate(V).passed


def test_vertical_bundle_degree1_splits():
    A = CoordinateSystem([("x", 0, 0), ("y", 1, 0)], name="e1a")
    B = CoordinateSystem([("X", 0, 0), ("Y", 1, 0)], name="e1b")
    E = two_chart_bundle(
        A, B,
        {"X": A.var("x"), "Y": A.var("y") * (1 + A.var("x") ** 2) * 0 + 2 * A.var("y")},
        {"x": B.var("X"), "y": Fraction(1, 2) * B.var("Y")},
    )
    V = vertical_bundle(E)
    t = V.transitions[(0, 1)]
    assert t.forward[V.charts[1]["dY"]] == 2 * V.chart.var("dy")
    assert validate(V).passed


def test_vertical_weights_shift():
    rng = random.Random(21)
    F = random_bundle(rng, 3)
    V = vertical_bundle(F)
    for v, dv in V.provenance.maps["dotted"][0].items():
        assert dv.weight == (sum(v.weight) - 1, 1)
        assert dv.parity == v.parity


def test_projection_component_filter():
    F = degree2_example()
    V = vertical_bundle(F)
    B0 = restrict(V, lambda v: v.weight[1] == 0, "project")
    assert [v.name for v in B0.chart.variables] == ["x", "y", "z"]


def test_project_out_of_range():
    F = degree2_example()
    with pytest.raises(ValueError):
        project_tower(F, -1)
    with pytest.raises(ValueError):
        core_submanifold(F, 2)
    # levels above the degree act as the identity for composability
    assert [v.name for v in project_tower(F, 5).chart.variables] == ["x", "y", "z"]


def test_ill_defined_projection_on_invalid_input():
    import pytest
    from gradedbundles.bundle import IllDefinedProjection

    # weight-inhomogeneous transitions break the tower assumption: a kept
    # coordinate's image depends on a dropped one
    A = CoordinateSystem([("x", 0, 0), ("y", 1, 0), ("z", 2, 0)], name="illa")
    B = CoordinateSystem([("X", 0, 0), ("Y", 1, 0), ("Z", 2, 0)], name="illb")
    bad = two_chart_bundle(
        A, B,
        {"X": A.var("x"), "Y": A.var("y") + A.var("z"), "Z": A.var("z")},
        {"x": B.var("X"), "y": B.var("Y") - B.var("Z"), "z": B.var("Z")},
    )
    assert not validate(bad).passed
    with pytest.raises(IllDefinedProjection):
        project_tower(bad, 1)

    # linearisation drops z, which leaks into the kept Y, and into dZ as
    # dy*z when z's coefficient in Z has positive weight
    from gradedbundles.linfun import linearise

    with pytest.raises(IllDefinedProjection,
                       match="^image of Y depends on dropped coordinate z$"):
        linearise(bad)
    leaky = two_chart_bundle(
        A, B,
        {"X": A.var("x"), "Y": A.var("y"), "Z": A.var("z") + A.var("y") * A.var("z")},
        {"x": B.var("X"), "y": B.var("Y"), "z": B.var("Z") - B.var("Y") * B.var("Z")},
    )
    with pytest.raises(IllDefinedProjection,
                       match="^image of dZ depends on dropped coordinate z$"):
        linearise(leaky)


# y, z and w are all dropped; the message names the first in chart order
ILL_DEFINED_SCRIPT = """
from gradedbundles import CoordinateSystem, IllDefinedProjection, restrict, two_chart_bundle
A = CoordinateSystem([("x", 0, 0), ("y", 1, 0), ("z", 1, 0), ("w", 1, 0)], name="a")
B = CoordinateSystem([("X", 0, 0), ("Y", 1, 0), ("Z", 1, 0), ("W", 1, 0)], name="b")
F = two_chart_bundle(
    A, B,
    {"X": A.var("x") + A.var("y") * A.var("z") * A.var("w"),
     "Y": A.var("y"), "Z": A.var("z"), "W": A.var("w")},
    {"x": B.var("X") - B.var("Y") * B.var("Z") * B.var("W"),
     "y": B.var("Y"), "z": B.var("Z"), "w": B.var("W")},
)
try:
    restrict(F, lambda v: v.weight == (0,), "t")
except IllDefinedProjection as exc:
    print(exc)
"""


@pytest.mark.parametrize("seed", ["0", "1", "5"])
def test_ill_defined_projection_names_the_first_dropped_coordinate(seed):
    proc = run_python_subprocess(["-c", ILL_DEFINED_SCRIPT], seed=seed)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "image of X depends on dropped coordinate y\n"


def test_cocycle_check_three_charts():
    charts = [
        CoordinateSystem([(f"x{i}", 0, 0), (f"y{i}", 1, 0)], name=f"c{i}")
        for i in range(3)
    ]
    scale = [Fraction(1), Fraction(2), Fraction(6)]

    def tmap(i, j):
        q = scale[j] / scale[i]
        fwd = {charts[j][f"x{j}"]: charts[i].var(f"x{i}"),
               charts[j][f"y{j}"]: charts[i].var(f"y{i}") * q}
        inv = {charts[i][f"x{i}"]: charts[j].var(f"x{j}"),
               charts[i][f"y{i}"]: charts[j].var(f"y{j}") / q}
        return TransitionMap(charts[i], charts[j], fwd, inv)

    transitions = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                transitions[(i, j)] = tmap(i, j)
    bundle = GradedBundle(charts, transitions)
    assert validate(bundle).passed

    transitions[(0, 2)] = TransitionMap(
        charts[0], charts[2],
        {charts[2]["x2"]: charts[0].var("x0"),
         charts[2]["y2"]: charts[0].var("y0") * 7},
        {charts[0]["x0"]: charts[2].var("x2"),
         charts[0]["y0"]: charts[2].var("y2") / 7},
    )
    broken = GradedBundle(charts, transitions)
    rep = validate(broken)
    assert any("cocycle" in item.check_id for item in rep.failures())


def test_random_bundles_validate():
    rng = random.Random(123)
    for _ in range(5):
        F = random_bundle(rng, rng.choice([2, 3]), base_dim=rng.choice([1, 2]))
        assert validate(F).passed
        V = vertical_bundle(F)
        assert validate(V).passed
        assert V.arity == 2


def test_empty_base_allowed():
    chart = CoordinateSystem([("y", 1, 0), ("z", 2, 0)], name="alg")
    F = single_chart_bundle(chart)
    assert F.degree == 2
    assert validate(F).passed


def test_mixed_parity_is_reported_not_raised():
    """A component of mixed parity fails its parity item; the round trip and
    the cocycles that would substitute it for a coordinate are skipped
    instead of raising."""
    charts = [
        CoordinateSystem([(f"y{i}", 1, 0), (f"z{i}", 2, 1)], name=f"mp{i}")
        for i in range(3)
    ]

    def tmap(i, j):
        y, z = charts[i].var(f"y{i}"), charts[i].var(f"z{i}")
        Y, Z = charts[j].var(f"y{j}"), charts[j].var(f"z{j}")
        mixed = (i, j) == (0, 1)
        fwd = {charts[j][f"y{j}"]: y, charts[j][f"z{j}"]: z + y ** 2 if mixed else z}
        inv = {charts[i][f"y{i}"]: Y, charts[i][f"z{i}"]: Z - Y ** 2 if mixed else Z}
        return TransitionMap(charts[i], charts[j], fwd, inv)

    bundle = GradedBundle(charts, {(i, j): tmap(i, j)
                                   for i in range(3) for j in range(3) if i != j})
    rep = validate(bundle)
    # the other two ways from chart 0 to chart 1 disagree with the mixed law
    assert [i.check_id for i in rep.failures()] == [
        "transition 0->1: parity of z1-component", "cocycle 0->2->1", "cocycle 2->0->1"]
    ids = {i.check_id for i in rep.items}
    assert "transition 0->1: round trip on y0" not in ids
    assert "transition 1->0: round trip on y1" in ids
    assert not any(i.startswith("cocycle 0->1->") for i in ids)
    assert "cocycle 1->0->2" in ids


def _copy_chart(i, chart):
    """A rechart spec: the same coordinates on a chart named ``<name>_c``."""
    return chart.name + "_c", chart.arity, {
        "vars": {v: (v.name, v.weight, v.parity) for v in chart.variables}}


def _counting_rename(keys):
    """A rechart component function that renames each component into the
    new chart and appends the transition's key to ``keys``."""
    def components(comps, other, src, dst, key):
        keys.append(key)
        rename = ChartMap(src["vars"])
        return {dst["vars"][v]: rename(p) for v, p in comps.items()}
    return components


def _reversal_shared(bundle):
    t, back = bundle.transitions[(0, 1)], bundle.transitions[(1, 0)]
    return back.forward is t.inverse and back.inverse is t.forward


def test_rechart_builds_each_direction_once():
    """On a two-chart atlas whose 1->0 is the reversal of 0->1, each
    direction is built once and the result stores 1->0 as the reversal of
    its 0->1, so a chain of constructions keeps sharing."""
    F = degree2_example()
    assert _reversal_shared(F)
    keys = []
    G = rechart(F, _copy_chart, _counting_rename(keys))
    assert keys == [(0, 1), (1, 0)]
    assert G.transitions[(1, 0)].forward is G.transitions[(0, 1)].inverse
    assert _reversal_shared(G)
    assert validate(G).passed
    keys.clear()
    rechart(G, _copy_chart, _counting_rename(keys))
    assert keys == [(0, 1), (1, 0)]
    V = vertical_bundle(F)
    assert _reversal_shared(V) and _reversal_shared(tangent_bundle(F))
    assert _reversal_shared(linear_dual(F))


def test_rechart_builds_distinct_directions_each():
    """Directions held in their own dicts, equal in value to the reversal,
    are each built, with the components the shared atlas gets."""
    F = degree2_example()
    t = F.transitions[(0, 1)]
    own = GradedBundle(F.charts, {
        (0, 1): t,
        (1, 0): TransitionMap(t.target, t.source, dict(t.inverse), dict(t.forward)),
    })
    assert not _reversal_shared(own)
    keys = []
    G = rechart(own, _copy_chart, _counting_rename(keys))
    assert keys == [(0, 1), (1, 0), (1, 0), (0, 1)]
    assert not _reversal_shared(G)
    shared = rechart(F, _copy_chart, _counting_rename([]))
    for key, g in G.transitions.items():
        assert g.forward == shared.transitions[key].forward
        assert g.inverse == shared.transitions[key].inverse


# ------------------------------------------------------------ rejected input
@pytest.mark.parametrize("build, message", [
    (lambda: CoordinateSystem([("x", 0, 0), ("x", 1, 0)], name="dup"),
     "^duplicate coordinate name 'x'$"),
    (lambda: CoordinateSystem([("x", 0, 0), ("v", (0, 1), 0)], name="mixed"),
     r"^mixed weight arities in chart mixed: \{1, 2\}$"),
    (lambda: GradedBundle([CoordinateSystem([("x", 0, 0)], name="one"),
                           CoordinateSystem([("x", (0, 0), 0)], name="two")]),
     r"^charts disagree on grading arity: \{1, 2\}$"),
    (lambda: weight_vector_field(degree2_example().chart, 1),
     "^component 1 out of range for arity 1$"),
    (lambda: weight_vector_field(degree2_example().chart, -1),
     "^component -1 out of range for arity 1$"),
    (lambda: vertical_bundle(single_chart_bundle(CoordinateSystem([("x", 0, 0)], name="pt0"))),
     "^vertical bundle needs degree >= 1$"),
], ids=["duplicate-name", "chart-arity", "bundle-arity", "euler-component",
        "euler-negative-component", "vertical-degree-0"])
def test_malformed_bundle_input_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_validate_reports_missing_components():
    # drop Z from the forward law; the reversed transition then lacks the
    # inverse component of Z
    F = degree2_example()
    A, B = F.charts
    t = F.transitions[(0, 1)]
    short = TransitionMap(A, B, {v: p for v, p in t.forward.items() if v.name != "Z"}, t.inverse)
    rep = validate(GradedBundle([A, B], {(0, 1): short, (1, 0): short.reversed()}))
    # the forward law without Z gets no round trip, whose residual would mix
    # the two charts
    assert [item.check_id for item in rep.failures()] == [
        "transition 0->1: component for Z declared",
        "transition 1->0: inverse component for Z declared",
    ]


def test_validate_skips_cocycles_through_a_missing_component():
    """On three charts, a transition that lacks a component gets no round
    trip and enters no cocycle, in any leg, instead of raising."""
    charts = [CoordinateSystem([(f"x{i}", 0, 0), (f"v{i}", 1, 0)], name=f"mc{i}")
              for i in range(3)]

    def tmap(i, j):
        x, v = charts[i].var(f"x{i}"), charts[i].var(f"v{i}")
        X, V = charts[j].var(f"x{j}"), charts[j].var(f"v{j}")
        fwd = {charts[j][f"x{j}"]: x, charts[j][f"v{j}"]: v}
        if (i, j) == (1, 2):
            del fwd[charts[2]["v2"]]
        return TransitionMap(charts[i], charts[j], fwd,
                             {charts[i][f"x{i}"]: X, charts[i][f"v{i}"]: V})

    bundle = GradedBundle(charts, {(i, j): tmap(i, j)
                                   for i in range(3) for j in range(3) if i != j})
    rep = validate(bundle)
    assert [i.check_id for i in rep.failures()] == ["transition 1->2: component for v2 declared"]
    ids = {i.check_id for i in rep.items}
    assert not any(i.startswith("transition 1->2: round trip") for i in ids)
    assert "transition 2->1: round trip on v2" in ids
    assert sorted(i for i in ids if i.startswith("cocycle")) == [
        "cocycle 0->2->1", "cocycle 2->0->1", "cocycle 2->1->0"]
