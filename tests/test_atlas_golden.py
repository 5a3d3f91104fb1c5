"""Atlas-level golden file: every re-charting construction, component by component.

For each construction on ``degree2.spec``, ``degree3.spec`` and a T^3 M of a
seeded polynomial diffeomorphism of R^2, ``tests/golden/atlas.json`` records
chart names, variable names, weights and parities, and every rendered
transition component (forward and inverse, in chart declaration order).

Regenerate it, only when a construction is meant to change, with

    PYTHONPATH=src python tests/test_atlas_golden.py > tests/golden/atlas.json
"""

import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from gradedbundles.superalg import ZERO, ChartMap, SuperPolynomial, partial, render, substitute
from gradedbundles.bundle import (
    core_submanifold,
    project_tower,
    tangent_bundle,
    vertical_bundle,
)
from gradedbundles.linfun import (
    linear_dual,
    linearise,
    mironian,
    pairing,
    parity_reverse,
    reconstruct,
)
from gradedbundles.constructions import PolynomialDiffeo, cotangent_bundle, higher_tangent
from gradedbundles.specfile import build_bundle, parse

TESTS_DIR = pathlib.Path(__file__).resolve().parent
SPEC_DIR = TESTS_DIR.parent / "specs"
GOLDEN = TESTS_DIR / "golden" / "atlas.json"

COEFFS = [Fraction(n) for n in (1, -1, 2, 3, -2)] + [Fraction(1, 2), Fraction(-1, 3)]


def seeded_t3m(seed=2014):
    """T^3 M for X1 = a1 x1 + b, X2 = a2 x2 + c x1^2 with seeded coefficients."""
    rng = random.Random(seed)
    a1, a2, b, c = (rng.choice(COEFFS) for _ in range(4))

    def forward(xs):
        x1, x2 = xs
        return [x1 * a1 + b, x2 * a2 + x1 * x1 * c]

    def inverse(Xs):
        X1, X2 = Xs
        y1 = (X1 - b) * (1 / a1)
        return [y1, (X2 - y1 * y1 * c) * (1 / a2)]

    return higher_tangent(PolynomialDiffeo.build(2, forward, inverse), 3)


def _chart(chart):
    return {
        "name": chart.name,
        "variables": [[v.name, list(v.weight), v.parity] for v in chart.variables],
    }


def _components(comps, chart):
    return [[v.name, render(comps[v]) if v in comps else None] for v in chart.variables]


def atlas(bundle):
    return {
        "charts": [_chart(c) for c in bundle.charts],
        "transitions": {
            f"{i}->{j}": {
                "forward": _components(t.forward, bundle.charts[j]),
                "inverse": _components(t.inverse, bundle.charts[i]),
            }
            for (i, j), t in sorted(bundle.transitions.items())
        },
    }


def pairing_record(result):
    return {
        "systems": [_chart(s) for s in result.bundle.charts],
        "polynomials": [render(p) for p in result.polynomials],
        "transitions": {
            f"{i}->{j}": _components(t.forward, result.bundle.charts[j])
            for (i, j), t in sorted(result.bundle.transitions.items())
        },
    }


def constructions(F):
    out = {}
    for i in range(1, F.degree):
        out[f"core_submanifold {i}"] = atlas(core_submanifold(F, i))
    for level in range(F.degree + 1):
        out[f"project_tower {level}"] = atlas(project_tower(F, level))
    D = linearise(F)
    dual = linear_dual(F, D)
    out["vertical_bundle"] = atlas(vertical_bundle(F))
    out["tangent_bundle"] = atlas(tangent_bundle(F))
    out["linearise"] = atlas(D)
    out["linearise base_bundle"] = atlas(D.base_bundle())
    out["linear_dual"] = atlas(dual)
    out["mironian"] = atlas(mironian(F, dual))
    out["parity_reverse linearise"] = atlas(parity_reverse(D))
    out["parity_reverse linear_dual"] = atlas(parity_reverse(dual))
    out["reconstruct linearise"] = atlas(reconstruct(D))
    out["cotangent_bundle"] = atlas(cotangent_bundle(F))
    out["pairing"] = pairing_record(pairing(F, dual))
    return out


def bundles():
    out = {
        name: build_bundle(parse((SPEC_DIR / f"{name}.spec").read_text())).bundle
        for name in ("degree2", "degree3")
    }
    out["seeded T^3 M"] = seeded_t3m()
    return out


def snapshot():
    return {name: constructions(F) for name, F in bundles().items()}


def dump(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_atlas_matches_golden():
    assert dump(snapshot()) == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(dump(snapshot()))


def pullback_then_rename(comps, other, src, dst):
    """Dual components by the formula ``contragredient`` replaced: each
    Jacobian entry pulled back along the old components, then renamed."""
    base = ChartMap(src["base"])
    out = {new: base(comps[v]) for v, new in dst["base"].items()}
    for a, pa in dst["dual"].items():
        expr = ZERO
        for b, pb in src["dual"].items():
            entry = partial(other[b], a)
            if not entry.is_zero():
                expr = expr + base(substitute(entry, comps)) * SuperPolynomial.from_var(pb)
        out[pa] = expr
    return out


@pytest.mark.parametrize("construct", [cotangent_bundle, linear_dual])
@pytest.mark.parametrize("name", ["degree2", "degree3", "seeded T^3 M"])
def test_contragredient_equals_pullback_then_rename(name, construct):
    dual = construct(bundles()[name])
    source = dual.provenance.source  # F for the cotangent bundle, D(F) for the dual
    roles = dual.provenance.maps
    maps = [{role: roles[role][i] for role in roles} for i in range(len(dual.charts))]
    for (i, j), t in source.transitions.items():
        new = dual.transitions[(i, j)]
        assert new.forward == pullback_then_rename(t.forward, t.inverse, maps[i], maps[j])
        assert new.inverse == pullback_then_rename(t.inverse, t.forward, maps[j], maps[i])
