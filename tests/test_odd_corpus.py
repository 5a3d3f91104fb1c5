"""Seeded properties of every linear construction on bundles with odd coordinates.

``helpers.random_odd_bundle`` gives two-chart bundles of degree 2 or 3 with
at least two odd coordinates of weight 1, odd and even coordinates of higher
weight, and laws with odd*odd and even*odd terms.  Each property below is
checked on the same 60 seeds, and a failure names the seeds it fails on.
The tangent algebroid's properties are checked on the first 12 seeds, and
the odd bracket's laws on its phase space on the first 3.
"""

import functools
import random

import pytest

from gradedbundles.algebroid import anchor
from gradedbundles.bundle import tangent_bundle, validate, vertical_bundle
from gradedbundles.constructions import cotangent_bundle, tangent_algebroid
from gradedbundles.linfun import (
    bundles_structurally_equal,
    embedding_compatibility,
    identity_morphism,
    is_symmetric,
    linear_dual,
    linearise,
    linearise_morphism,
    mironian_report,
    morphisms_equal,
    pairing,
    parity_reverse,
    reconstruct,
)
from gradedbundles.superalg import SuperPolynomial

from helpers import random_odd_bundle, two_pass_linearisation
from test_algebroid import assert_schouten_laws

SEEDS = range(60)


@functools.cache
def corpus():
    return [random_odd_bundle(random.Random(seed), name=f"odd{seed}") for seed in SEEDS]


def linearised_identity_is_the_identity(F):
    D = linearise(F)
    return morphisms_equal(linearise_morphism(identity_morphism(F), D, D), identity_morphism(D))


PROPERTIES = {
    "validate": lambda F: validate(F).passed,
    "linearisation is the two-pass reference": lambda F: bundles_structurally_equal(
        linearise(F), two_pass_linearisation(F)),
    "D(identity) is the identity": linearised_identity_is_the_identity,
    "linearisation symmetric": lambda F: is_symmetric(linearise(F)),
    "reconstruct round trip": lambda F: bundles_structurally_equal(F, reconstruct(linearise(F))),
    "linear dual validates": lambda F: validate(linear_dual(F)).passed,
    "pairing invariance": lambda F: pairing(F).check_invariance().passed,
    "pairing atlas validates": lambda F: validate(pairing(F).bundle).passed,
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


def phase_parities_follow_the_carrier(A):
    """x and pi keep their carrier coordinate's parity, chi and theta flip it."""
    phase = A.phase
    blocks = ((phase.x_of, 0), (phase.pi_of, 0), (phase.chi_of, 1), (phase.theta_of, 1))
    return all(v.parity == (c.parity + shift) % 2
               for block, shift in blocks for c, v in block.items())


def anchor_sends_each_coordinate_to_its_velocity(A):
    maps = A.carrier.provenance.maps
    return anchor(A) == {maps["undotted"][0][v]: SuperPolynomial.from_var(dv)
                               for v, dv in maps["dotted"][0].items()}


ALGEBROID_SEEDS = SEEDS[:12]
ALGEBROID_PROPERTIES = {
    "phase parities follow the carrier": phase_parities_follow_the_carrier,
    "anchor": anchor_sends_each_coordinate_to_its_velocity,
}


@functools.cache
def tangent_algebroids():
    return [tangent_algebroid(F) for F in corpus()[:len(ALGEBROID_SEEDS)]]


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


@pytest.mark.parametrize("prop", sorted(ALGEBROID_PROPERTIES))
def test_odd_corpus_tangent_algebroid_property(prop):
    check = ALGEBROID_PROPERTIES[prop]
    failing = [seed for seed, A in zip(ALGEBROID_SEEDS, tangent_algebroids()) if not check(A)]
    assert not failing, f"{prop} fails on seeds {failing}"


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_odd_bracket_laws_on_the_tangent_phase_space(seed):
    assert_schouten_laws(tangent_algebroids()[seed].phase, random.Random(seed))
