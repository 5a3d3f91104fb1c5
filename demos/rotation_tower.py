"""The order-two reduction tower of the rotation group.

Builds the tower over so(3), checks that its structure field squares to
zero, that the Hamiltonian encoding brackets to zero, and that the derived
bracket of sections reproduces the componentwise reduction formula. Then
breaks one structure constant and watches all three verdicts fail together.
"""

from gradedbundles import (
    StructureConstants,
    SuperPolynomial,
    TowerSection,
    anchor,
    lie_tower,
    reduced_bracket,
    render,
    restrict_to_A1,
    so3,
    tower_section_polynomial,
    weighted_lie_algebra_check,
)

tower = lie_tower(so3(), 2)
phase = tower.phase
print("kind:", tower.kind)
print("weighted lie algebra (point base):", weighted_lie_algebra_check(tower))
print("[Q,Q] = 0:", tower.check.residual.is_zero())
pp = phase.schouten(tower.hamiltonian.poly, tower.hamiltonian.poly)
print("[P,P] = 0:", pp.is_zero())

print("\nstructure field coefficients:")
for v in phase.xs + phase.thetas:
    c = tower.q.coefficient(v)
    if not c.is_zero():
        print(f"  Q({v.name}) = {render(c)}")

d = restrict_to_A1(tower.q)
print("\nweight-one leg (the fibrewise differential):")
for v, c in d.action.items():
    print(f"  d({v.name}) = {render(c)}")

anc = anchor(tower)
print("\nanchor sends (X, Y, Z) to (X, Z):")
for b, p in anc.items():
    print(f"  delta {b.name} -> {render(p)}")

one = SuperPolynomial.constant(1)
y3 = phase.var("y3_1")
s1 = TowerSection({"1": one}, {("2", 1): y3})
s2 = TowerSection({"2": one}, {("1", 1): phase.var("y2_1"),
                               ("3", 1): phase.var("y1_1")})
out = reduced_bracket(tower, s1, s2)
print("\nreduced bracket of two sections:")
for n, p in out.Y.items():
    print(f"  Y {n} = {render(p)}")
for (n, r), p in out.Z.items():
    print(f"  Z {n} {r} = {render(p)}")
derived = phase.derived_bracket(tower_section_polynomial(tower, s1),
                                tower_section_polynomial(tower, s2), tower.hamiltonian.poly)
print("matches the derived bracket:",
      tower_section_polynomial(tower, out) == derived)

broken = StructureConstants(3, {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
                                (1, 2, 1): 1})
bad = lie_tower(broken, 2)
bad_pp = bad.phase.schouten(bad.hamiltonian.poly, bad.hamiltonian.poly)
print("\nperturbed constants:", "jacobi holds" if broken.satisfies_jacobi
      else "jacobi fails")
print("perturbed kind:", bad.kind)
print("perturbed [P,P] =", render(bad_pp))
