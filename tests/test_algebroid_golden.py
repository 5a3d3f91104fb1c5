"""Algebroid-level golden file: every weighted-algebroid construction, field by field.

``tests/golden/algebroids.json`` records, for each construction below, the
carrier and phase-space charts (names, weights, parities), the classification,
and the rendered structure field Q and Hamiltonian P, coordinate by
coordinate in chart order:

* the Lie towers of so(3), sl(2), the Heisenberg algebra and the abelian
  2-dimensional algebra for k = 1..4;
* complete lifts of the structure fields on the parity-reversed total spaces
  of three algebroid data (a Lie algebra, TM and an action algebroid with
  polynomial anchors), with their lifted charts and level maps;
* prolongation algebroids of TM (dim 1..3) and of the action algebroid;
* the epsilon components, raw coefficients and anchors of five algebroids;
* tangent algebroids of T^k M of a shear of the plane for k = 1..3;
* the cotangent algebroids of the linear Poisson structures of so(3) and
  sl(2), with their Poisson data, [P,P] and A1 projection.

Regenerate it, only when a construction is meant to change, with

    PYTHONPATH=src python tests/test_algebroid_golden.py > tests/golden/algebroids.json
"""

import json
import pathlib
import sys

from gradedbundles.superalg import SuperPolynomial, render
from gradedbundles.bundle import CoordinateSystem
from gradedbundles.algebroid import (
    anchor,
    epsilon_components,
    extract_coefficients,
    restrict_to_A1,
)
from gradedbundles.constructions import (
    AlgebroidData,
    PolynomialDiffeo,
    abelian,
    complete_lift,
    cotangent_algebroid,
    heisenberg3,
    higher_tangent,
    lie_tower,
    linear_poisson,
    point_algebroid,
    prolongation_algebroid,
    sl2,
    so3,
    tangent_algebroid,
    tm_algebroid,
)
from gradedbundles.specfile import build_bundle, parse

TESTS_DIR = pathlib.Path(__file__).resolve().parent
SPEC_DIR = TESTS_DIR.parent / "specs"
GOLDEN = TESTS_DIR / "golden" / "algebroids.json"

ALGEBRAS = {"so3": so3, "sl2": sl2, "heisenberg3": heisenberg3, "abelian2": lambda: abelian(2)}


def action_algebroid() -> AlgebroidData:
    """The Heisenberg action on R^3: rho(a) = d/dx, rho(b) = d/dy + x d/dz,
    rho(c) = d/dz and [a, b] = c, so the anchor is polynomial."""
    base = CoordinateSystem([("x", 0, 0), ("y", 0, 0), ("z", 0, 0)], name="r3")
    one = SuperPolynomial.constant(1)
    anchor_data = {("a", "x"): one, ("b", "y"): one, ("b", "z"): base.var("x"),
                   ("c", "z"): one}
    return AlgebroidData(base, ["a", "b", "c"], anchor_data, {("a", "b", "c"): one})


def shear(k):
    """T^k M of the shear (x1, x2) -> (x1 + x2^2, x2)."""
    phi = PolynomialDiffeo.build(
        2, lambda xs: [xs[0] + xs[1] * xs[1], xs[1]], lambda Xs: [Xs[0] - Xs[1] * Xs[1], Xs[1]]
    )
    return higher_tangent(phi, k)


def _chart(chart):
    return {
        "name": chart.name,
        "variables": [[v.name, list(v.weight), v.parity] for v in chart.variables],
    }


def _field(derivation, system):
    return {
        "parity": derivation.parity,
        "weight_shift": list(derivation.weight_shift),
        "components": [
            [v.name, render(derivation.coefficient(v))]
            for v in system.variables
            if not derivation.coefficient(v).is_zero()
        ],
    }


def algebroid(alg):
    return {
        "carrier": _chart(alg.carrier.charts[alg.phase.chart]),
        "phase": _chart(alg.phase.system),
        "kind": alg.kind,
        "Q": _field(alg.q.derivation, alg.phase.system),
        "P": render(alg.hamiltonian.poly),
    }


def lifts(E):
    system, _ = E.pie_system()
    q = E.q_field()
    out = {"pie": _chart(system), "field": _field(q, system)}
    for k in (1, 2, 3):
        lift = complete_lift(q, system, k)
        out[f"complete_lift {k}"] = {
            "system": _chart(lift.system),
            "field": _field(lift.derivation, lift.system),
            "level_of": [[v.name, r, w.name] for (v, r), w in lift.level_of.items()],
        }
    return out


def components(alg):
    eps = epsilon_components(alg)
    p_ai, p_kij = extract_coefficients(alg.q)
    return {
        "epsilon": {
            "system": _chart(eps.system),
            "delta_x": [[n, render(p)] for n, p in eps.delta_x.items()],
            "delta_pi": [[n, render(p)] for n, p in eps.delta_pi.items()],
        },
        "anchor_coefficients": [[*key, render(p)] for key, p in p_ai.items()],
        "bracket_coefficients": [[*key, render(p)] for key, p in p_kij.items()],
        "anchor": [[b.name, render(p)] for b, p in anchor(alg).items()],
    }


def cotangent(c):
    phase, P = linear_poisson(c)
    alg = cotangent_algebroid(phase, P)
    out = algebroid(alg)
    out["poisson_data"] = render(alg.poisson_data)
    out["poisson_residual"] = render(alg.poisson_residual)
    out["a1_field"] = _field(restrict_to_A1(alg.q), phase.system)
    return out


def snapshot():
    out = {}
    for name, c in ALGEBRAS.items():
        for k in (1, 2, 3, 4):
            out[f"lie_tower {name} {k}"] = algebroid(lie_tower(c(), k))
    data = {"point so3": point_algebroid(so3()), "tm 2": tm_algebroid(2),
            "action": action_algebroid()}
    for name, E in data.items():
        out[f"lifts {name}"] = lifts(E)
    for k in (2, 3):
        for dim in (1, 2, 3):
            out[f"prolongation tm {dim} {k}"] = algebroid(prolongation_algebroid(tm_algebroid(dim), k))
        out[f"prolongation action {k}"] = algebroid(prolongation_algebroid(action_algebroid(), k))
    degree2 = build_bundle(parse((SPEC_DIR / "degree2.spec").read_text())).bundle
    for name, alg in (
        ("lie_tower so3 2", lie_tower(so3(), 2)),
        ("lie_tower sl2 3", lie_tower(sl2(), 3)),
        ("prolongation action 2", prolongation_algebroid(action_algebroid(), 2)),
        ("tangent degree2", tangent_algebroid(degree2)),
        ("cotangent so3", cotangent_algebroid(*linear_poisson(so3()))),
    ):
        out[f"components {name}"] = components(alg)
    for k in (1, 2, 3):
        out[f"tangent_algebroid shear T^{k}M"] = algebroid(tangent_algebroid(shear(k)))
    for name in ("so3", "sl2"):
        out[f"cotangent {name}"] = cotangent(ALGEBRAS[name]())
    return out


def dump(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_algebroids_match_golden():
    assert dump(snapshot()) == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(dump(snapshot()))
