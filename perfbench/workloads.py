"""Seeded inputs, tasks and independent checks of the three workloads.

``jets`` and ``towers`` call the engine in this process; ``cli`` runs the
command-line front end as child processes, so this module only writes its
spec files and checks what the children print.  Engine functions are
always looked up on their module at call time (``constructions.lie_tower``
rather than a name imported once), so the wrappers that the traced run
installs on those modules see every call the benchmark makes.

Each check returns a list of problems; an empty list means the output is
right.  The checks compare against :mod:`refalg`, which shares no code with
the engine.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from refalg import (
    Dual,
    Poly,
    Series,
    antisymmetric_closure,
    change_basis,
    engine_poly_value,
    gl2_constants,
    inverse_matrix,
    read_rendered,
    satisfies_jacobi,
    series_one,
    spec_expression,
)

JETS_DIM = 3
JETS_K = 3
JETS_PER_ROUND = 4

TOWERS_DIM = 4
TOWERS_K = 3
TOWERS_PER_ROUND = 6

CLI_TK_K = 2
CLI_TOWER_K = 3
CLI_BRACKET_K = 2

# The acceptance gate's shipped commands (tests/test_acceptance.py).
SHIPPED = [
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


def _rng(workload, seed):
    # str seeds go through sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _nonzero(rng):
    return Fraction(rng.choice((1, -1)) * rng.choice((1, 2, 3)), rng.choice((1, 2, 3)))


def _point(rng, names):
    return {n: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for n in names}


def _engine():
    import gradedbundles.bundle
    import gradedbundles.constructions
    import gradedbundles.linfun
    import gradedbundles.superalg

    return gradedbundles


# -------------------------------------------------------------------- jets
def triangular_diffeo(rng):
    """A polynomial diffeomorphism of R^3 with fixed support and its inverse.

    X1 = a1 x1 + b,  X2 = a2 x2 + c1 x1^2,  X3 = a3 x3 + c2 x1 x2 + c3 x2^2;
    the inverse is solved by back substitution.
    """
    a = [_nonzero(rng) for _ in range(3)]
    b = _nonzero(rng)
    c = [_nonzero(rng) for _ in range(3)]
    x1, x2, x3 = (Poly.var(f"x{i}") for i in (1, 2, 3))
    X1, X2, X3 = (Poly.var(f"X{i}") for i in (1, 2, 3))
    forward = [
        x1 * a[0] + b,
        x2 * a[1] + x1 * x1 * c[0],
        x3 * a[2] + x1 * x2 * c[1] + x2 * x2 * c[2],
    ]
    y1 = (X1 - b) * (1 / a[0])
    y2 = (X2 - y1 * y1 * c[0]) * (1 / a[1])
    y3 = (X3 - y1 * y2 * c[1] - y2 * y2 * c[2]) * (1 / a[2])
    return forward, [y1, y2, y3]


def _jet_names(stem, dim, k):
    return [f"{stem}{i}" for i in range(1, dim + 1)] + [
        f"{stem}{i}_{r}" for r in range(1, k + 1) for i in range(1, dim + 1)
    ]


@dataclass
class JetsInput:
    forward: list
    inverse: list
    point_src: dict
    point_dst: dict
    phi: object = None


def jets_inputs(seed):
    gb = _engine()
    one = gb.superalg.SuperPolynomial.constant(1)
    rng = _rng("jets", seed)
    out = []
    for _ in range(JETS_PER_ROUND):
        fwd, inv = triangular_diffeo(rng)
        inp = JetsInput(fwd, inv, _point(rng, _jet_names("x", JETS_DIM, JETS_K)),
                        _point(rng, _jet_names("X", JETS_DIM, JETS_K)))
        inp.phi = gb.constructions.PolynomialDiffeo.build(
            JETS_DIM,
            lambda xs, f=fwd: [p.evaluate({f"x{i + 1}": x for i, x in enumerate(xs)}, one)
                               for p in f],
            lambda Xs, g=inv: [p.evaluate({f"X{i + 1}": x for i, x in enumerate(Xs)}, one)
                               for p in g],
        )
        out.append(inp)
    return out


def jets_task(inp):
    """higher_tangent -> validate -> linearise -> is_symmetric -> linear_dual
    -> pairing with check_invariance -> tangent_algebroid."""
    gb = _engine()
    tk = gb.constructions.higher_tangent(inp.phi, JETS_K)
    valid = gb.bundle.validate(tk).passed
    lin = gb.linfun.linearise(tk)
    symmetric = gb.linfun.is_symmetric(lin)
    dual = gb.linfun.linear_dual(tk, lin)
    invariant = gb.linfun.pairing(tk, dual).check_invariance().passed
    kind = gb.constructions.tangent_algebroid(tk).kind
    return {"tk": tk, "valid": valid, "lin": lin, "symmetric": symmetric,
            "dual": dual, "invariant": invariant, "kind": kind}


def _check_jet_components(components, maps, src, dst, point):
    """The t^r coefficient of phi_i(sum_r x_r t^r) is the X{i}_r component."""
    problems = []
    expected = set(_jet_names(dst, JETS_DIM, JETS_K))
    if set(components) != expected:
        return [f"components {sorted(components)} differ from {sorted(expected)}"]
    series = {
        f"{src}{j}": Series([point[f"{src}{j}"]]
                            + [point[f"{src}{j}_{r}"] for r in range(1, JETS_K + 1)])
        for j in range(1, JETS_DIM + 1)
    }
    for i, phi_i in enumerate(maps, 1):
        coeffs = phi_i.evaluate(series, series_one(JETS_K)).c
        for r in range(JETS_K + 1):
            name = f"{dst}{i}" if r == 0 else f"{dst}{i}_{r}"
            got = engine_poly_value(components[name], point, Fraction(1))
            if got != coeffs[r]:
                problems.append(f"{name}: engine {got}, power series {coeffs[r]}")
    return problems


def check_jets(inp, out):
    problems = [msg for ok, msg in (
        (out["valid"], "validate(T^k M) failed"),
        (out["symmetric"], "linearise(T^k M) is not symmetric"),
        (out["invariant"], "pairing is not invariant"),
        (out["kind"] == "lie", f"tangent algebroid kind is {out['kind']!r}"),
    ) if not ok]
    t = out["tk"].transitions[(0, 1)]
    problems += _check_jet_components({v.name: p for v, p in t.forward.items()},
                                      inp.forward, "x", "X", inp.point_src)
    problems += _check_jet_components({v.name: p for v, p in t.inverse.items()},
                                      inp.inverse, "X", "x", inp.point_dst)
    for lin_chart, dual_chart in zip(out["lin"].charts, out["dual"].charts):
        want = {"p" + v.name: (JETS_K - 1 - v.weight[0], 1)
                for v in lin_chart.variables if v.weight[1] == 1}
        got = {v.name: tuple(v.weight) for v in dual_chart.variables if v.weight[1] == 1}
        if got != want:
            problems.append(f"dual bi-weights {got} differ from {want}")
    return problems


# ------------------------------------------------------------------ towers
# A fixed dense unimodular basis u_i of gl(2): lower times upper unitriangular.
_L = [[Fraction(int(j <= i)) for j in range(4)] for i in range(4)]
GL2_BASIS = [[sum((_L[i][m] * _L[j][m] for m in range(4)), Fraction(0)) for j in range(4)]
             for i in range(4)]


def gl2_in_random_basis(rng):
    """gl(2) constants in the seeded rational basis f_i = d_i u_i.

    Rescaling one fixed basis keeps the support of the constants fixed, so
    only the rational coefficient values vary with the seed.
    """
    d = [_nonzero(rng) for _ in range(4)]
    B = [[GL2_BASIS[a][i] * d[i] for i in range(4)] for a in range(4)]
    return change_basis(gl2_constants(), 4, B, inverse_matrix(B))


def random_non_jacobi(rng, dim):
    """Dense seeded antisymmetric constants that violate Jacobi."""
    while True:
        c = antisymmetric_closure({
            (i, j, k): _nonzero(rng)
            for i in range(1, dim + 1) for j in range(i + 1, dim + 1)
            for k in range(1, dim + 1)
        })
        if not satisfies_jacobi(c, dim):
            return c


def tower_section(rng, dim, k):
    """(Y, Z) of fixed support with seeded coefficients, as reference Polys."""
    y = lambda n, r: Poly.var(f"y{n}_{r}")
    Y, Z = {}, {}
    for n in range(1, dim + 1):
        m = n % dim + 1
        Y[str(n)] = _nonzero(rng) + y(n, 1) * _nonzero(rng)
        if k > 2:
            Y[str(n)] = Y[str(n)] + y(m, 1) * y(n, 2) * _nonzero(rng)
        Z[(str(n), 1)] = y(m, 1) * _nonzero(rng)
        for r in range(2, k):
            Z[(str(n), r)] = y(n, 1) * y(m, 1) * _nonzero(rng) + _nonzero(rng)
    return Y, Z


def engine_section(tower, sec):
    gb = _engine()
    phase = tower.phase
    one = gb.superalg.SuperPolynomial.constant(1)
    values = {v.name: phase.var(v.name) for v in phase.xs}
    Y, Z = sec
    return gb.constructions.TowerSection(
        {n: p.evaluate(values, one) for n, p in Y.items()},
        {key: p.evaluate(values, one) for key, p in Z.items()},
    )


@dataclass
class TowerCase:
    constants: dict          # full antisymmetric c^k_{ij}, reference side
    sections: tuple          # two reference (Y, Z) sections
    point: dict
    engine_constants: object = None
    engine_sections: tuple = ()


def towers_inputs(seed):
    gb = _engine()
    rng = _rng("towers", seed)
    template = None
    out = []
    for _ in range(TOWERS_PER_ROUND):
        pair = []
        for c in (gl2_in_random_basis(rng), random_non_jacobi(rng, TOWERS_DIM)):
            secs = (tower_section(rng, TOWERS_DIM, TOWERS_K),
                    tower_section(rng, TOWERS_DIM, TOWERS_K))
            names = [f"y{n}_{r}" for n in range(1, TOWERS_DIM + 1) for r in range(1, TOWERS_K)]
            case = TowerCase(c, secs, _point(rng, names))
            case.engine_constants = gb.constructions.StructureConstants(
                TOWERS_DIM, {key: v for key, v in c.items() if key[0] < key[1]})
            if template is None:
                template = gb.constructions.lie_tower(case.engine_constants, TOWERS_K)
            # phase-space variables compare by value, so sections built on
            # one tower of this shape serve every tower of the same shape
            case.engine_sections = tuple(engine_section(template, s) for s in secs)
            pair.append(case)
        out.append(tuple(pair))
    return out


def towers_task(pair):
    """For a Jacobi and a non-Jacobi tower: lie_tower, the reduced bracket of
    two sections and the derived bracket -[[s1,P],s2] it must equal."""
    gb = _engine()
    out = []
    for case in pair:
        tower = gb.constructions.lie_tower(case.engine_constants, TOWERS_K)
        s1, s2 = case.engine_sections
        reduced = gb.constructions.reduced_bracket(tower, s1, s2)
        phase = tower.phase
        encode = gb.constructions.tower_section_polynomial
        derived = -phase.schouten(phase.schouten(encode(tower, s1), tower.hamiltonian.poly),
                                  encode(tower, s2))
        agrees = (encode(tower, reduced) - derived).is_zero()
        out.append({"kind": tower.kind, "reduced": reduced, "agrees": agrees})
    return out


def _along(Z, f, point):
    """(Z f)(point): the eps part of f at point + Z(point) eps."""
    at = {name: Dual(x) for name, x in point.items()}
    for (n, r), zc in Z.items():
        at[f"y{n}_{r}"] = Dual(point[f"y{n}_{r}"], zc.evaluate(point, Fraction(1)))
    return f.evaluate(at, Dual(1)).b


def componentwise_bracket_at(c, dim, s1, s2, point):
    """([Y1,Y2] + Z1(Y2) - Z2(Y1), Z1 Z2 - Z2 Z1) evaluated at a point."""
    (Y1, Z1), (Y2, Z2) = s1, s2
    zero = Poly()
    at = lambda p: p.evaluate(point, Fraction(1))
    Y = {}
    for ci in range(1, dim + 1):
        cn = str(ci)
        val = sum((v * at(Y1.get(str(a), zero)) * at(Y2.get(str(b), zero))
                   for (a, b, k), v in c.items() if k == ci), Fraction(0))
        Y[cn] = (val + _along(Z1, Y2.get(cn, zero), point)
                 - _along(Z2, Y1.get(cn, zero), point))
    Z = {key: _along(Z1, Z2.get(key, zero), point) - _along(Z2, Z1.get(key, zero), point)
         for key in {*Z1, *Z2}}
    return Y, Z


def check_towers(pair, outs):
    problems = []
    for case, out in zip(pair, outs):
        jacobi = satisfies_jacobi(case.constants, TOWERS_DIM)
        if (out["kind"] == "lie") != jacobi:
            problems.append(f"kind {out['kind']!r} but Jacobi {'holds' if jacobi else 'fails'}")
        if not out["agrees"]:
            problems.append("reduced bracket differs from the derived bracket")
        Y, Z = componentwise_bracket_at(case.constants, TOWERS_DIM, *case.sections,
                                        case.point)
        reduced = out["reduced"]
        for got, want in ((reduced.Y, Y), (reduced.Z, Z)):
            for key in set(got) | set(want):
                value = (engine_poly_value(got[key], case.point, Fraction(1))
                         if key in got else Fraction(0))
                if value != want.get(key, Fraction(0)):
                    problems.append(f"reduced bracket component {key}: engine {value}, "
                                    f"componentwise {want.get(key, 0)}")
    return problems


# --------------------------------------------------------------------- cli
@dataclass
class CliCommand:
    label: str
    argv: list
    kind: str                     # text, json or hostile
    bracket: dict | None = None   # expected reduced bracket, for bracket specs


def _constants_spec(c, dim, k):
    lines = ["[structure lie-tower]", f"k = {k}", f"dim = {dim}"]
    for (i, j, m), v in sorted(c.items()):
        if i < j:
            lines.append(f"c {i} {j} {m} = {spec_expression(Poly.const(v))}")
    return lines


def _tk_spec(rng):
    fwd, inv = triangular_diffeo(rng)
    lines = ["[structure tk]", f"k = {CLI_TK_K}", f"dim = {JETS_DIM}"]
    lines += [f"forward {i} = {spec_expression(p)}" for i, p in enumerate(fwd, 1)]
    lines += [f"inverse {i} = {spec_expression(p)}" for i, p in enumerate(inv, 1)]
    return lines


def _degree3_spec(rng):
    """Two charts (x,y,z,w) and (X,Y,Z,W) of weights 0..3, seeded corrections."""
    a = [_nonzero(rng) for _ in range(3)]
    e = [_nonzero(rng) for _ in range(4)]
    x, y, z, w = (Poly.var(n) for n in "xyzw")
    X, Y, Z, W = (Poly.var(n) for n in "XYZW")
    fwd = {"X": x, "Y": y * a[0], "Z": z * a[1] + y * y * x * e[0],
           "W": w * a[2] + z * y * x * e[1] + y * y * y * (x * e[3] + e[2])}
    iy = Y * (1 / a[0])
    iz = (Z - iy * iy * X * e[0]) * (1 / a[1])
    iw = (W - iz * iy * X * e[1] - iy * iy * iy * (X * e[3] + e[2])) * (1 / a[2])
    inv = {"x": X, "y": iy, "z": iz, "w": iw}
    lines = ["[bundle]", "arity = 1", "degree = 3", "", "[chart A]"]
    lines += [f"{n} = weight {wt}" for wt, n in enumerate("xyzw")]
    lines += ["", "[chart B]"] + [f"{n} = weight {wt}" for wt, n in enumerate("XYZW")]
    lines += ["", "[map A -> B]"] + [f"{n} = {spec_expression(p)}" for n, p in fwd.items()]
    lines += ["", "[map B -> A]"] + [f"{n} = {spec_expression(p)}" for n, p in inv.items()]
    return lines


def bracket_reference(c, dim, s1, s2):
    """The componentwise reduced bracket as exact reference polynomials."""
    (Y1, Z1), (Y2, Z2) = s1, s2
    zero = Poly()

    def along(Z, f):
        return sum((zc * f.diff(f"y{n}_{r}") for (n, r), zc in Z.items()), Poly())

    out = {}
    for ci in range(1, dim + 1):
        cn = str(ci)
        comp = sum((Y1.get(str(a), zero) * Y2.get(str(b), zero) * v
                    for (a, b, k), v in c.items() if k == ci), Poly())
        comp = comp + along(Z1, Y2.get(cn, zero)) - along(Z2, Y1.get(cn, zero))
        if comp.terms:
            out[f"Y {cn}"] = comp
    for (n, r) in sorted({*Z1, *Z2}):
        comp = along(Z1, Z2.get((n, r), zero)) - along(Z2, Z1.get((n, r), zero))
        if comp.terms:
            out[f"Z {n} {r}"] = comp
    return out


def _section_spec(name, sec):
    Y, Z = sec
    lines = [f"[section {name}]"]
    lines += [f"Y {n} = {spec_expression(p)}" for n, p in sorted(Y.items())]
    lines += [f"Z {n} {r} = {spec_expression(p)}" for (n, r), p in sorted(Z.items())]
    return lines


HOSTILE = {
    # 3000 nested parentheses in a [map] line: the recursive parser overflows
    "hostile-deep-parens.spec": (["validate"], [
        "[chart A]", "x = weight 0", "y = weight 1", "",
        "[chart B]", "X = weight 0", "Y = weight 1", "",
        "[map A -> B]", "X = " + "(" * 3000 + "x" + ")" * 3000, "Y = y", "",
        "[map B -> A]", "x = X", "y = Y",
    ]),
    # c^7_{12} in dimension 2
    "hostile-index.spec": (["check-q"], [
        "[structure lie-tower]", "k = 2", "dim = 2", "c 1 2 7 = 1",
    ]),
    # a non-integer component key in a tk structure
    "hostile-tk-key.spec": (["construct", "tk"], [
        "[structure tk]", "k = 2", "dim = 1", "forward one = x1", "inverse 1 = X1",
    ]),
}


def cli_commands(seed, root: Path, workdir: Path):
    """Write the seeded spec files and return one round of commands."""
    rng = _rng("cli", seed)
    workdir.mkdir(parents=True, exist_ok=True)
    specs = root / "specs"
    cmds = [CliCommand(" ".join(cmd) + " " + name, [*cmd, "--spec", str(specs / name)], "text")
            for name, cmd in SHIPPED]

    def write(name, lines):
        path = workdir / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    tk = write("gen-tk.spec", _tk_spec(rng))
    cmds.append(CliCommand("construct tk gen-tk.spec", ["construct", "tk", "--spec", tk], "text"))
    tower = write("gen-gl2-tower.spec",
                  _constants_spec(gl2_in_random_basis(rng), TOWERS_DIM, CLI_TOWER_K))
    cmds.append(CliCommand("check-q gen-gl2-tower.spec",
                           ["check-q", "--spec", tower, "--format", "json"], "json"))
    deg3 = write("gen-degree3.spec", _degree3_spec(rng))
    cmds.append(CliCommand("dual gen-degree3.spec", ["dual", "--spec", deg3], "text"))
    cmds.append(CliCommand("validate gen-degree3.spec",
                           ["validate", "--spec", deg3, "--format", "json"], "json"))
    c = gl2_in_random_basis(rng)
    s1 = tower_section(rng, TOWERS_DIM, CLI_BRACKET_K)
    s2 = tower_section(rng, TOWERS_DIM, CLI_BRACKET_K)
    bracket = write("gen-bracket.spec", _constants_spec(c, TOWERS_DIM, CLI_BRACKET_K) + [""]
                    + _section_spec("s1", s1) + [""] + _section_spec("s2", s2))
    cmds.append(CliCommand("bracket gen-bracket.spec", ["bracket", "--spec", bracket], "text",
                           bracket=bracket_reference(c, TOWERS_DIM, s1, s2)))
    for name, (cmd, lines) in HOSTILE.items():
        cmds.append(CliCommand(" ".join(cmd) + " " + name,
                               [*cmd, "--spec", write(name, lines)], "hostile"))
    return cmds


_RESULT_RE = re.compile(r"^INFO  result (Y \S+|Z \S+ \d+) = (.*)$")
_LOCATED_RE = re.compile(r"line \d+")


def hostile_handled(exit_code, stderr):
    """A hostile spec is handled when it exits 2 with a located error."""
    return exit_code == 2 and bool(_LOCATED_RE.search(stderr))


def check_cli(cmd, exit_code, stdout, stderr):
    if cmd.kind == "hostile":
        return []
    if exit_code != 0:
        return [f"{cmd.label}: exit {exit_code}: {stderr.strip()[-300:]}"]
    problems = []
    if cmd.kind == "json":
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return [f"{cmd.label}: JSON output does not parse: {exc}"]
        verdicts = [c["verdict"] for c in doc["checks"]]
        if doc["result"] != "PASS" or "FAIL" in verdicts:
            problems.append(f"{cmd.label}: not every verdict is PASS")
        return problems
    lines = stdout.splitlines()
    if not lines or lines[-1] != "result: PASS" or any(l.startswith("FAIL") for l in lines):
        problems.append(f"{cmd.label}: not every verdict is PASS")
    if cmd.bracket is not None:
        got = {}
        for line in lines:
            m = _RESULT_RE.match(line)
            if m:
                got[m.group(1)] = read_rendered(m.group(2))
        if got.keys() != cmd.bracket.keys() or any(
                got[key] != cmd.bracket[key] for key in got):
            problems.append(f"{cmd.label}: result lines differ from the componentwise bracket")
    return problems
