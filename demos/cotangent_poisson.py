"""The cotangent algebroid of a linear Poisson structure.

The dual of a Lie algebra carries its linear Poisson bracket; the cotangent
bundle of that space is then a weighted Lie algebroid, and its weight-one
leg is the classical cotangent Lie algebroid. ``linear_poisson`` writes P
on the phase space of that cotangent bundle, and ``cotangent_algebroid``
builds the algebroid on the same phase space. Perturbing the structure
constants demotes everything to a skew algebroid, detected exactly.
"""

from gradedbundles import (
    StructureConstants,
    cotangent_algebroid,
    linear_poisson,
    render,
    restrict_to_A1,
    so3,
    validate,
    weight_of,
)

phase, P = linear_poisson(so3())
print("carrier is the cotangent bundle, degree", phase.carrier.gl_degree)
print("carrier validates:", validate(phase.carrier).passed)
print("poisson data P =", render(P), "| tri-weight", weight_of(P, 3))

alg = cotangent_algebroid(phase, P)
print("kind:", alg.kind)
print("[P,P] =", render(alg.poisson_residual))

print("\nstructure field:")
for v in phase.xs + phase.thetas:
    c = alg.q.coefficient(v)
    if not c.is_zero():
        print(f"  Q({v.name}) = {render(c)}")

print("\nweight-one leg (the classical picture):")
for v, c in restrict_to_A1(alg.q).action.items():
    print(f"  d({v.name}) = {render(c)}")

broken = StructureConstants(3, {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
                                (1, 2, 1): 1})
bad = cotangent_algebroid(*linear_poisson(broken))
print("\nperturbed constants give kind:", bad.kind)
print("perturbed [P,P] =", render(bad.poisson_residual))
