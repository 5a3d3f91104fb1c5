"""Provenance golden file: the role maps every re-charting construction records.

For the inputs of ``tests/golden/atlas.json`` (``degree2.spec``,
``degree3.spec`` and the seeded T^3 M), ``tests/golden/provenance.json``
records each construction's provenance tag, the tag of its source, and per
role and chart the map from source key names to new coordinate names, in
map order.  The atlas golden pins the charts and transitions; this file pins
which old coordinate each new one stands for.

Regenerate it, only when a construction's roles are meant to change, with

    PYTHONPATH=src python tests/test_provenance_golden.py > tests/golden/provenance.json
"""

import json
import pathlib
import sys

import pytest

from gradedbundles.bundle import (
    GradedBundle,
    core_submanifold,
    project_tower,
    tangent_bundle,
    vertical_bundle,
)
from gradedbundles.linfun import (
    linear_dual,
    linearise,
    mironian,
    parity_reverse,
    reconstruct,
)
from gradedbundles.constructions import cotangent_bundle

from helpers import run_python_subprocess
from test_atlas_golden import bundles

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "provenance.json"


def provenance(bundle):
    prov = bundle.provenance
    source = prov.source
    return {
        "tag": prov.tag,
        "source": source.provenance.tag if isinstance(source, GradedBundle)
        else type(source).__name__,
        "maps": {
            role: [{key.name: new.name for key, new in m.items()} for m in per_chart]
            for role, per_chart in prov.maps.items()
        },
    }


def constructions(F):
    out = {}
    for i in range(1, F.degree):
        out[f"core_submanifold {i}"] = provenance(core_submanifold(F, i))
    for level in range(F.degree + 1):
        out[f"project_tower {level}"] = provenance(project_tower(F, level))
    D = linearise(F)
    dual = linear_dual(F, D)
    out["vertical_bundle"] = provenance(vertical_bundle(F))
    out["tangent_bundle"] = provenance(tangent_bundle(F))
    out["linearise"] = provenance(D)
    out["linearise base_bundle"] = provenance(D.base_bundle())
    out["linear_dual"] = provenance(dual)
    out["mironian"] = provenance(mironian(F, dual))
    out["parity_reverse linearise"] = provenance(parity_reverse(D))
    out["parity_reverse linear_dual"] = provenance(parity_reverse(dual))
    out["reconstruct linearise"] = provenance(reconstruct(D))
    out["cotangent_bundle"] = provenance(cotangent_bundle(F))
    return out


def snapshot():
    return {name: constructions(F) for name, F in bundles().items()}


def dump(data) -> str:
    # role and key order are part of the record, so keys are not sorted
    return json.dumps(data, indent=1) + "\n"


def test_provenance_matches_golden():
    assert dump(snapshot()) == GOLDEN.read_text()


@pytest.mark.parametrize("seed", ["0", "1", "5"])
def test_provenance_does_not_depend_on_the_hash_seed(seed):
    proc = run_python_subprocess([__file__], seed=seed, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(dump(snapshot()))
