"""Higher tangent bundles, their linearisation, and prolongations.

Prolongs a plane shear to second order, checks D(T^2 M) = T(TM) on the
nose, then builds the prolongation algebroid of the plane's tangent
algebroid and restricts it back to its weight-one leg.
"""

from gradedbundles import (
    PolynomialDiffeo,
    anchor,
    bundles_structurally_equal,
    higher_tangent,
    is_symmetric,
    linearise,
    prolongation_algebroid,
    render,
    restrict_to_A1,
    tangent_bundle,
    tm_algebroid,
    validate,
)

phi = PolynomialDiffeo.build(
    2,
    lambda xs: [xs[0] + xs[1] ** 2, xs[1]],
    lambda Xs: [Xs[0] - Xs[1] ** 2, Xs[1]],
)
print("shear round-trips exactly:", phi.round_trip_exact())

T2 = higher_tangent(phi, 2)
print("T^2 M validates:", validate(T2).passed)
t = T2.transitions[(0, 1)]
print("second-order transitions (jet coefficients x^(r)/r!):")
for v in T2.charts[1].variables:
    print(f"  {v.name} {v.weight} = {render(t.forward[v])}")

D = linearise(T2)
TT = tangent_bundle(higher_tangent(phi, 1))
names = {}
for i in (1, 2):
    for stem in ("x", "X"):
        names[f"{stem}{i}"] = f"{stem}{i}"
        names[f"{stem}{i}_1"] = f"{stem}{i}_1"
        names[f"d{stem}{i}_1"] = f"d{stem}{i}"
        names[f"d{stem}{i}_2"] = f"d{stem}{i}_1"
print("D(T^2 M) = T(TM) on the nose:",
      bundles_structurally_equal(D, TT, names=lambda n: names[n]))
print("and it is symmetric:", is_symmetric(D))

E = tm_algebroid(2)
alg = prolongation_algebroid(E, 2)
print("\nprolongation of the plane's tangent algebroid:")
print("kind:", alg.kind)
anc = anchor(alg)
for b, p in anc.items():
    print(f"  delta {b.name} -> {render(p)}")
d = restrict_to_A1(alg.q)
print("weight-one leg returns the input field:")
for v, c in d.action.items():
    print(f"  d({v.name}) = {render(c)}")
