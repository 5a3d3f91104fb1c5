"""Seeded properties of every linear construction on bundles with odd coordinates.

``helpers.random_odd_bundle`` gives two-chart bundles of degree 2 or 3 with
at least two odd coordinates of weight 1, odd and even coordinates of higher
weight, and laws with odd*odd and even*odd terms.  Each property below is
checked on the same 60 seeds, and a failure names the seeds it fails on.
"""

import functools
import random

import pytest

from gradedbundles.bundle import tangent_bundle, validate, vertical_bundle
from gradedbundles.constructions import cotangent_bundle, tangent_algebroid
from gradedbundles.linfun import (
    bundles_structurally_equal,
    embedding_compatibility,
    is_symmetric,
    linear_dual,
    linearise,
    mironian_report,
    pairing,
    parity_reverse,
    reconstruct,
)

from helpers import random_odd_bundle

SEEDS = range(60)


@functools.cache
def corpus():
    return [random_odd_bundle(random.Random(seed), name=f"odd{seed}") for seed in SEEDS]


PROPERTIES = {
    "validate": lambda F: validate(F).passed,
    "linearisation symmetric": lambda F: is_symmetric(linearise(F)),
    "reconstruct round trip": lambda F: bundles_structurally_equal(F, reconstruct(linearise(F))),
    "linear dual validates": lambda F: validate(linear_dual(F)).passed,
    "pairing invariance": lambda F: pairing(F).check_invariance().passed,
    "mironian": lambda F: mironian_report(F).passed,
    "embedding compatibility": lambda F: embedding_compatibility(F).passed,
    "tangent bundle validates": lambda F: validate(tangent_bundle(F)).passed,
    "vertical bundle validates": lambda F: validate(vertical_bundle(F)).passed,
    "cotangent bundle validates": lambda F: validate(cotangent_bundle(F)).passed,
    "tangent algebroid is lie": lambda F: tangent_algebroid(F).kind == "lie",
    "parity reversal symmetric": lambda F: is_symmetric(parity_reverse(linearise(F))),
    "parity reversal involution": lambda F: bundles_structurally_equal(
        linearise(F), parity_reverse(parity_reverse(linearise(F)))),
}


def test_corpus_has_the_promised_shape():
    for F in corpus():
        assert F.degree in (2, 3) and len(F.charts) == 2
        chart = F.charts[0]
        assert sum(1 for v in chart.variables if v.weight == (1,) and v.parity) >= 2
        higher = {v.parity for v in chart.variables if v.weight[0] >= 2}
        assert higher == {0, 1}
        # the parities of the positive-weight factors of each law's terms
        kinds = {tuple(sorted(u.parity for u, _ in m if u.weight[0] > 0))
                 for p in F.transitions[(0, 1)].forward.values() for m in p.monomials()}
        assert (1, 1) in kinds and (0, 1) in kinds


@pytest.mark.parametrize("prop", sorted(PROPERTIES))
def test_odd_corpus_property(prop):
    check = PROPERTIES[prop]
    failing = [seed for seed, F in zip(SEEDS, corpus()) if not check(F)]
    assert not failing, f"{prop} fails on seeds {failing}"
