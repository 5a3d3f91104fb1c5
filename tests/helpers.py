"""Shared generators for randomized exact tests.

Random bundles are built with exactly invertible transition data: identity
base maps, diagonal-times-shear linear blocks and arbitrary polynomial
correction tensors, with the inverse produced by weight-ascending back
substitution and re-verified by validation.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
from fractions import Fraction

from gradedbundles.superalg import (
    EVEN,
    ODD,
    SuperPolynomial,
    ZERO,
    linear_combination,
    substitute,
)
from gradedbundles.bundle import (
    CoordinateSystem,
    GradedBundle,
    restrict,
    two_chart_bundle,
    validate,
    vertical_bundle,
)
from gradedbundles.linfun import GLBundle, GradedMorphism
from gradedbundles.constructions import StructureConstants, TowerSection, prolongation_roles

ONE = SuperPolynomial.constant(1)

NONZERO = [Fraction(n) for n in (1, -1, 2, 3, -2)] + [Fraction(1, 2), Fraction(-1, 3)]
SMALL = [Fraction(n) for n in (-2, -1, 0, 1, 2, 3)] + [Fraction(1, 2), Fraction(-3, 2)]

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

# The acceptance gate's shipped commands: (spec file under specs/, CLI args).
SHIPPED_COMMANDS = [
    ("degree2.spec", ["validate"]),
    ("degree2.spec", ["linearise"]),
    ("degree2.spec", ["dual"]),
    ("degree2.spec", ["mironian"]),
    ("degree2.spec", ["embed"]),
    ("degree3.spec", ["linearise"]),
    ("degree3.spec", ["dual"]),
    ("so3-tower.spec", ["check-q"]),
    ("sl2-tower.spec", ["check-q"]),
    ("heisenberg-tower.spec", ["check-q"]),
    ("bracket-so3.spec", ["bracket"]),
    ("t2m-shear.spec", ["construct", "tk"]),
    ("prolong-tm.spec", ["construct", "prolong"]),
    ("cotangent-so3.spec", ["construct", "cotangent"]),
]


def run_python_subprocess(args, seed=None, timeout=60):
    """Run ``python *args`` in a scrubbed child process.

    The child sees only ``PATH``, ``PYTHONPATH`` (this checkout's ``src``)
    and, when ``seed`` is given, ``PYTHONHASHSEED``; so it always runs the
    source tree under test, never an installed copy, and nothing else in
    the parent's environment can reach it.  A child that outlives
    ``timeout`` seconds raises ``subprocess.TimeoutExpired``.
    """
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC_DIR)}
    if seed is not None:
        env["PYTHONHASHSEED"] = seed
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout,
    )


def run_cli_subprocess(args, seed=None, timeout=60):
    """Run ``python -m gradedbundles.cli *args`` as ``run_python_subprocess``."""
    return run_python_subprocess(["-m", "gradedbundles.cli", *args], seed, timeout)


def rational(rng):
    return rng.choice(SMALL)


def rational_nonzero(rng):
    return rng.choice(NONZERO)


def base_poly(rng, base_vars, max_deg=2, terms=2):
    """Random polynomial in weight-zero variables."""
    p = SuperPolynomial.constant(rational(rng))
    for _ in range(rng.randrange(terms + 1)):
        m = SuperPolynomial.constant(rational_nonzero(rng))
        for _ in range(rng.randrange(1, max_deg + 1)):
            if base_vars:
                m = m * SuperPolynomial.from_var(rng.choice(base_vars))
        p = p + m
    return p


def weighted_monomials(vars_weights, target, max_factors=4):
    """All multisets of positive-weight variables with the given total."""
    out = []
    vars_weights = [(v, w) for v, w in vars_weights if w > 0]

    def rec(idx, remaining, acc, factors):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if idx >= len(vars_weights) or factors >= max_factors:
            return
        v, w = vars_weights[idx]
        rec(idx + 1, remaining, acc, factors)
        if w <= remaining:
            rec(idx, remaining - w, acc + [v], factors + 1)

    rec(0, target, [], 0)
    return out


def homogeneous_poly(rng, chart, weight, base_deg=1, terms=3):
    """Random weight-homogeneous polynomial on an arity-1 chart."""
    base_vars = list(chart.base)
    if weight == 0:
        return base_poly(rng, base_vars, max_deg=base_deg)
    choices = weighted_monomials(
        [(v, sum(v.weight)) for v in chart.variables], weight
    )
    if not choices:
        return ZERO
    p = ZERO
    for _ in range(rng.randrange(1, terms + 1)):
        m = SuperPolynomial.constant(rational_nonzero(rng))
        for v in rng.choice(choices):
            m = m * SuperPolynomial.from_var(v)
        for _ in range(rng.randrange(base_deg + 1)):
            if base_vars:
                m = m * SuperPolynomial.from_var(rng.choice(base_vars))
        p = p + m
    return p


# ------------------------------------------------------- invertible blocks
def _matmul(A, B):
    n = len(A)
    return [
        [sum((A[i][k] * B[k][j] for k in range(n)), start=ZERO) for j in range(n)]
        for i in range(n)
    ]


def invertible_block(rng, d, base_vars):
    """A pair (T, Tinv) of polynomial d x d matrices with T Tinv = 1."""
    diag = [rational_nonzero(rng) for _ in range(d)]
    T = [[SuperPolynomial.constant(diag[i]) if i == j else ZERO for j in range(d)]
         for i in range(d)]
    Tinv = [[SuperPolynomial.constant(1 / diag[i]) if i == j else ZERO
             for j in range(d)] for i in range(d)]
    if d > 1:
        for _ in range(rng.randrange(2)):
            i, j = rng.sample(range(d), 2)
            p = base_poly(rng, base_vars, max_deg=1, terms=1)
            E = [[ONE if a == b else ZERO for b in range(d)] for a in range(d)]
            Einv = [[ONE if a == b else ZERO for b in range(d)] for a in range(d)]
            E[i][j] = p
            Einv[i][j] = -p
            T = _matmul(E, T)
            Tinv = _matmul(Tinv, Einv)
    return T, Tinv


def random_bundle(rng, degree, block_dims=None, base_dim=1, name="rnd"):
    """A validated two-chart graded bundle with random transitions.

    Base maps are the identity; each weight block transforms by an exactly
    invertible linear block plus random corrections in lower weights.
    """
    block_dims = block_dims or {w: rng.randrange(1, 3) for w in range(1, degree + 1)}
    specs_a = [(f"x{i}", 0, EVEN) for i in range(1, base_dim + 1)]
    specs_b = [(f"X{i}", 0, EVEN) for i in range(1, base_dim + 1)]
    for w in range(1, degree + 1):
        for i in range(1, block_dims[w] + 1):
            specs_a.append((f"y{w}_{i}", w, EVEN))
            specs_b.append((f"Y{w}_{i}", w, EVEN))
    A = CoordinateSystem(specs_a, name=f"{name}_a")
    B = CoordinateSystem(specs_b, name=f"{name}_b")

    forward = {f"X{i}": A.var(f"x{i}") for i in range(1, base_dim + 1)}
    inverse = {f"x{i}": B.var(f"X{i}") for i in range(1, base_dim + 1)}
    # A-variable -> its expression over chart B, filled weight by weight
    solved = {A[f"x{i}"]: B.var(f"X{i}") for i in range(1, base_dim + 1)}
    base_a = list(A.base)

    lower = []
    for w in range(1, degree + 1):
        d = block_dims[w]
        T, Tinv = invertible_block(rng, d, base_a)
        corrections = []
        monos = weighted_monomials([(v, sum(v.weight)) for v in lower], w)
        monos = [m for m in monos if len(m) >= 2]
        for j in range(d):
            corr = ZERO
            if monos:
                for _ in range(rng.randrange(3)):
                    m = SuperPolynomial.constant(rational_nonzero(rng))
                    for v in rng.choice(monos):
                        m = m * SuperPolynomial.from_var(v)
                    if rng.randrange(2):
                        m = m * base_poly(rng, base_a, max_deg=1, terms=1)
                    corr = corr + m
            corrections.append(corr)
            comp = corr
            for i in range(d):
                comp = comp + T[j][i] * A.var(f"y{w}_{i + 1}")
            forward[f"Y{w}_{j + 1}"] = comp
        for i in range(d):
            expr = ZERO
            for j in range(d):
                corr_b = substitute(corrections[j], solved)
                expr = expr + substitute(Tinv[i][j], solved) * (
                    B.var(f"Y{w}_{j + 1}") - corr_b
                )
            inverse[f"y{w}_{i + 1}"] = expr
            solved[A[f"y{w}_{i + 1}"]] = expr
        lower.extend(A[f"y{w}_{i + 1}"] for i in range(d))

    bundle = two_chart_bundle(A, B, forward, inverse)
    rep = validate(bundle)
    assert rep.passed, f"generator produced an invalid bundle:\n{rep}"
    return bundle


def random_odd_bundle(rng, name="odd"):
    """A validated two-chart graded bundle of degree 2 or 3 with odd coordinates.

    Weight 1 has two or three odd coordinates and one or two even ones, and
    each higher weight an odd and an even one, sometimes a third of either
    parity, in a shuffled declaration order.  Base maps are the identity.
    Each parity block of a weight transforms by an exactly invertible linear
    block, and each coordinate of weight w >= 2 gains one to three distinct
    products of lower-weight coordinates of its parity, the first with an
    odd factor: odd*odd for an even coordinate, even*odd for an odd one.
    The inverse is solved by back substitution, weight by weight.
    """
    degree = rng.choice((2, 3))
    blocks = {1: [ODD] * rng.randrange(2, 4) + [EVEN] * rng.randrange(1, 3)}
    for w in range(2, degree + 1):
        blocks[w] = [ODD, EVEN] + [rng.choice((ODD, EVEN))] * rng.randrange(2)
    names = {}  # weight -> [(name, parity)]
    specs_a, specs_b = [("x1", 0, EVEN)], [("X1", 0, EVEN)]
    for w, parities in blocks.items():
        rng.shuffle(parities)
        count = {ODD: 0, EVEN: 0}
        names[w] = []
        for par in parities:
            count[par] += 1
            n = f"{'o' if par else 'y'}{w}_{count[par]}"
            names[w].append((n, par))
            specs_a.append((n, w, par))
            specs_b.append((n.upper(), w, par))
    A = CoordinateSystem(specs_a, name=f"{name}_a")
    B = CoordinateSystem(specs_b, name=f"{name}_b")

    forward, inverse = {"X1": A.var("x1")}, {"x1": B.var("X1")}
    # A-variable -> its expression over chart B, filled weight by weight
    solved = {A["x1"]: B.var("X1")}
    base_a, lower = list(A.base), []
    for w in range(1, degree + 1):
        monos = [m for m in weighted_monomials([(v, v.weight[0]) for v in lower], w)
                 if len(m) >= 2 and all(m.count(v) == 1 for v in m if v.parity)]
        corrections = {}
        for n, par in names[w]:
            fits = [m for m in monos if sum(v.parity for v in m) % 2 == par]
            terms = [rng.choice([m for m in fits if any(v.parity for v in m)])] if fits else []
            rest = [m for m in fits if m not in terms]
            terms += rng.sample(rest, min(len(rest), rng.randrange(3)))
            corrections[n] = ZERO
            for m in terms:
                t = SuperPolynomial.constant(rational_nonzero(rng))
                for v in m:
                    t = t * SuperPolynomial.from_var(v)
                corrections[n] += t * A.var("x1") if rng.randrange(2) else t
        for par in (ODD, EVEN):
            group = [n for n, p in names[w] if p == par]
            T, Tinv = invertible_block(rng, len(group), base_a)
            for j, n in enumerate(group):
                forward[n.upper()] = corrections[n] + linear_combination(
                    (1, T[j][i] * A.var(m)) for i, m in enumerate(group))
            for i, n in enumerate(group):
                solved[A[n]] = inverse[n] = linear_combination(
                    (1, substitute(Tinv[i][j], solved)
                     * (B.var(m.upper()) - substitute(corrections[m], solved)))
                    for j, m in enumerate(group))
        lower.extend(A[n] for n, _ in names[w])

    bundle = two_chart_bundle(A, B, forward, inverse)
    rep = validate(bundle)
    assert rep.passed, f"generator produced an invalid bundle:\n{rep}"
    return bundle


def two_pass_linearisation(F: GradedBundle) -> GLBundle:
    """D(F) as the paper defines it, the reference for ``linearise``: the
    vertical bundle V(F) with its top-weight undotted coordinates
    projected out."""
    return restrict(vertical_bundle(F), lambda v: v.weight[0] < F.degree, "ref", cls=GLBundle)


def random_morphism(rng, src: GradedBundle, dst: GradedBundle) -> GradedMorphism:
    """A random weight-preserving morphism between chart-0 systems."""
    comps = {}
    for v in dst.chart.variables:
        comps[v] = homogeneous_poly(rng, src.chart, sum(v.weight), base_deg=1)
    phi = GradedMorphism(src, dst, comps)
    phi.validate()
    return phi


def vector_bundle_tangent(t=Fraction(2), base_dim=1) -> GLBundle:
    """The tangent bundle of a vector bundle E with constant fibre block t,
    as a graded-linear bundle of degree two.  Not symmetric unless E = TM."""
    specs_a = [(f"x{i}", (0, 0), EVEN) for i in range(1, base_dim + 1)]
    specs_a += [("y", (1, 0), EVEN)]
    specs_a += [(f"dx{i}", (0, 1), EVEN) for i in range(1, base_dim + 1)]
    specs_a += [("dy", (1, 1), EVEN)]
    specs_b = [(s[0].upper(), s[1], s[2]) for s in specs_a]
    A = CoordinateSystem(specs_a, name="te_a", arity=2)
    B = CoordinateSystem(specs_b, name="te_b", arity=2)
    forward = {f"X{i}": A.var(f"x{i}") for i in range(1, base_dim + 1)}
    forward["Y"] = A.var("y") * t
    forward.update(
        {f"DX{i}": A.var(f"dx{i}") for i in range(1, base_dim + 1)}
    )
    forward["DY"] = A.var("dy") * t
    inverse = {f"x{i}": B.var(f"X{i}") for i in range(1, base_dim + 1)}
    inverse["y"] = B.var("Y") * (1 / t)
    inverse.update(
        {f"dx{i}": B.var(f"DX{i}") for i in range(1, base_dim + 1)}
    )
    inverse["dy"] = B.var("DY") * (1 / t)
    return two_chart_bundle(A, B, forward, inverse, cls=GLBundle)


def random_antisym_constants(rng, dim) -> StructureConstants:
    c = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            for k in range(1, dim + 1):
                v = rational(rng)
                if v:
                    c[(i, j, k)] = v
    return StructureConstants(dim, c)


def random_nonjacobi_constants(rng, dim=3) -> StructureConstants:
    # every antisymmetric bracket in dimension < 3 satisfies jacobi
    assert dim >= 3, "no jacobi violations exist below dimension 3"
    while True:
        c = random_antisym_constants(rng, dim)
        if not c.satisfies_jacobi:
            return c


def random_tower_section(rng, tower, degree=None) -> TowerSection:
    """Random polynomial section of a reduction tower, possibly mixed degree."""
    phase = tower.phase
    data, _ = prolongation_roles(tower)
    names = data.fiber_names
    base = [v for v in phase.system.variables if v.weight[1] == 0 and v.weight[2] == 0]
    base_chart_like = [(v, v.weight[0]) for v in base]
    Y = {}
    Z = {}
    for n in names:
        if rng.randrange(2):
            Y[n] = _phase_poly(rng, base, degree)
        for r in range(1, tower.carrier.gl_degree):
            if rng.randrange(2):
                Z[(n, r)] = _phase_poly(rng, base, degree)
    if not Y and not Z:
        Y[names[0]] = SuperPolynomial.constant(rational_nonzero(rng))
    return TowerSection(Y, Z)


def _phase_poly(rng, base_vars, weight=None):
    if weight is None:
        p = SuperPolynomial.constant(rational(rng))
        for _ in range(rng.randrange(3)):
            m = SuperPolynomial.constant(rational_nonzero(rng))
            for _ in range(rng.randrange(1, 3)):
                m = m * SuperPolynomial.from_var(rng.choice(base_vars))
            p = p + m
        return p
    choices = weighted_monomials([(v, v.weight[0]) for v in base_vars], weight)
    if not choices:
        return ZERO
    p = ZERO
    for _ in range(rng.randrange(1, 3)):
        m = SuperPolynomial.constant(rational_nonzero(rng))
        for v in rng.choice(choices):
            m = m * SuperPolynomial.from_var(v)
        p = p + m
    return p


def homogeneous_section_poly(rng, tower, degree):
    """A homogeneous degree-r section polynomial over a tower phase space."""
    phase = tower.phase
    base = [v for v in phase.system.variables if v.weight[1] == 0 and v.weight[2] == 0]
    out = ZERO
    for pi in phase.pis:
        need = degree - 1 - pi.weight[0]
        if need < 0:
            continue
        coeff = (
            SuperPolynomial.constant(rational(rng))
            if need == 0
            else _phase_poly(rng, base, need)
        )
        out = out + coeff * SuperPolynomial.from_var(pi)
    return out
