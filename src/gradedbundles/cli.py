"""Command-line front end: parse a spec file, run one check, emit a report.

Exit codes: 0 when every verdict passes, 1 when any check fails, 2 on parse or usage
errors.  ``parse_args`` reads argv off the ``COMMANDS`` and ``CONSTRUCTS`` tables, so
start-up loads no argparse.  ``main`` names each command's report; a command that reads
the declared bundle validates it first and, on a failure, reports only its failed items.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .bundle import CoordinateSystem, validate
from .linfun import (
    embedding_compatibility,
    holonomic_assignment,
    is_symmetric,
    linear_dual,
    linearise,
    mironian,
    mironian_report,
    pairing,
)
from .algebroid import anchor, restrict_to_A1, weighted_lie_algebra_check
from .constructions import (
    AlgebroidData,
    AntisymmetryConflict,
    PolynomialDiffeo,
    StructureConstants,
    TowerSection,
    _diffeo_charts,
    cotangent_algebroid,
    higher_tangent,
    lie_tower,
    linear_poisson,
    prolongation_algebroid,
    prolongation_blocks,
    prolongation_roles,
    reduced_bracket,
    tangent_algebroid,
    tower_section_polynomial,
)
from .report import Report, render_json, render_text
from .specfile import (
    MAX_DIM,
    MAX_K,
    SpecDocument,
    SpecError,
    SpecSyntaxError,
    build_bundle,
    int_entry,
    parse,
    parse_expression,
    plain_int,
    structure_entries,
)
from .superalg import render as render_poly
from .superalg import weight_of

def _weight_str(w):
    return "(" + ", ".join(str(c) for c in w) + ")"


def _emit_transitions(report: Report, b, label: str):
    for (i, j), t in sorted(b.transitions.items()):
        if i > j:
            continue
        for v in b.charts[j].variables:
            report.info(
                f"{label} {i}->{j}: {v.name} = {render_poly(t.forward[v])}",
                weights=_weight_str(v.weight),
            )


# ------------------------------------------------------- structure builders
def _scalar(e) -> Fraction:
    return parse_expression(e.value, {}, e.line, e.col).constant_term()


def _index(e, word: str, dim: int) -> int:
    """The index ``word`` of entry ``e``, an integer in 1..dim written in plain
    decimal, so that two keys name the same index only if they are spelt alike."""
    i = plain_int(word, f"index {word!r} is not", e.line, 1)
    if not 1 <= i <= dim:
        raise SpecSyntaxError(f"index {i} is outside 1..{dim}", e.line, 1)
    return i


def _located_conflict(build, entry_of):
    """``build()``, with an antisymmetry conflict reported at the line of
    ``entry_of[key]``, the entry whose data key conflicts."""
    try:
        return build()
    except AntisymmetryConflict as exc:
        raise SpecSyntaxError(str(exc), entry_of[exc.key].line, 1) from None


def build_constants(section) -> tuple[StructureConstants, int]:
    grouped = structure_entries(section)
    dim = int_entry(section, "dim", 0, MAX_DIM)
    k = int_entry(section, "k", 1, MAX_K)
    c = {}
    entry_of = {}
    for e in grouped.get("c", []):
        key = tuple(_index(e, x, dim) for x in e.key[1:])
        c[key] = _scalar(e)
        entry_of[key] = e
    return _located_conflict(lambda: StructureConstants(dim, c), entry_of), k


def build_tk(section, min_k: int = 1) -> tuple[PolynomialDiffeo, int]:
    """The diffeomorphism of a ``tk`` structure and its ``k``; the algebroid
    of T^(k-1)M needs ``min_k = 2``."""
    grouped = structure_entries(section)
    dim = int_entry(section, "dim", 1, MAX_DIM)
    k = int_entry(section, "k", min_k, MAX_K)
    src, dst = _diffeo_charts(dim)
    fwd = {}
    inv = {}
    for side, chart, comps in (("forward", src, fwd), ("inverse", dst, inv)):
        for e in grouped.get(side, []):
            comps[_index(e, e.key[1], dim)] = parse_expression(e.value, chart, e.line, e.col)
    missing = [i for i in range(1, dim + 1) if i not in fwd or i not in inv]
    if missing:
        raise SpecSyntaxError(f"tk structure misses components {missing}", section.line, 1)
    phi = PolynomialDiffeo(
        src, dst,
        {dst.variables[i - 1]: fwd[i] for i in range(1, dim + 1)},
        {src.variables[i - 1]: inv[i] for i in range(1, dim + 1)},
    )
    return phi, k


def _distinct_names(grouped, word):
    """The names of the ``word`` entry, each at most once, and the entry."""
    e = grouped.get(word, [None])[0]
    names = e.value.split() if e else []
    for i, n in enumerate(names):
        if n in names[:i]:
            raise SpecSyntaxError(f"{word} name {n!r} appears twice", e.line, e.col)
    return names, e


def build_prolong_data(section) -> tuple[AlgebroidData, int]:
    grouped = structure_entries(section)
    k = int_entry(section, "k", 2, MAX_K)
    base_names, base_entry = _distinct_names(grouped, "base")
    fiber_names, _ = _distinct_names(grouped, "fiber")
    if not fiber_names:
        raise SpecSyntaxError("prolong structures need a fiber entry", section.line, 1)
    declared = {name for b in prolongation_blocks(fiber_names, k) for name, _, _ in b.values()}
    for n in base_names:
        if n in declared:
            raise SpecSyntaxError(
                f"base name {n!r} clashes with a coordinate of the prolongation",
                base_entry.line, base_entry.col)
    base = CoordinateSystem([(n, 0, 0) for n in base_names], name="base")
    anchor_data = {}
    for e in grouped.get("anchor", []):
        _, f, x = e.key
        if f not in fiber_names or x not in base:
            raise SpecSyntaxError(f"unknown anchor indices {f!r}, {x!r}",
                                  e.line, 1)
        anchor_data[(f, x)] = parse_expression(e.value, base, e.line, e.col)
    bracket_data = {}
    entry_of = {}
    for e in grouped.get("bracket", []):
        _, a, b, c = e.key
        for nm in (a, b, c):
            if nm not in fiber_names:
                raise SpecSyntaxError(f"unknown fiber name {nm!r}", e.line, 1)
        bracket_data[(a, b, c)] = parse_expression(e.value, base, e.line, e.col)
        entry_of[(a, b, c)] = e
    data = _located_conflict(
        lambda: AlgebroidData(base, fiber_names, anchor_data, bracket_data), entry_of)
    return data, k


def build_tower_section(section, tower) -> TowerSection:
    """``Y a`` and ``Z a r`` entries: fibre indices a in 1..dim, levels r in
    1..k-1."""
    data, roles = prolongation_roles(tower)
    names, k, x_of = data.fiber_names, tower.carrier.gl_degree, tower.phase.x_of
    base_names = {x_of[y].name: x_of[y] for y in roles["y"].values()}
    Y = {}
    Z = {}
    for e in section.entries:
        name = names[_index(e, e.key[1], len(names)) - 1]
        comps, key = (Y, name) if e.key[0] == "Y" else (Z, (name, _index(e, e.key[2], k - 1)))
        comps[key] = parse_expression(e.value, base_names, e.line, e.col)
    return TowerSection(Y, Z)


def _tangent_structure(doc: SpecDocument, section):
    return ("structure: canonical tangent algebroid of the declared bundle",
            tangent_algebroid(_declared_bundle(doc)), None)


def _lie_tower_structure(doc: SpecDocument, section):
    c, k = build_constants(section)
    return f"structure: lie-tower, dim {c.dim}, k {k}", lie_tower(c, k), c


def _prolong_structure(doc: SpecDocument, section):
    data, k = build_prolong_data(section)
    return f"structure: prolongation, k {k}", prolongation_algebroid(data, k), data


def _cotangent_structure(doc: SpecDocument, section):
    c, k = build_constants(section)
    if k != 2:
        e = structure_entries(section)["k"][0]
        raise SpecSyntaxError("cotangent-linear structures fix k = 2", e.line, e.col)
    return (f"structure: cotangent of a linear Poisson space, dim {c.dim}",
            cotangent_algebroid(*linear_poisson(c)), c)


def _tk_structure(doc: SpecDocument, section):
    phi, k = build_tk(section, min_k=2)
    return (f"structure: tangent algebroid of T^{k - 1}M",
            tangent_algebroid(higher_tangent(phi, k - 1)), phi)


# Structure kind -> builder of (info line, algebroid, source data) from the
# document and its structure section; None is a document without one.
STRUCTURES = {
    None: _tangent_structure,
    "lie-tower": _lie_tower_structure,
    "prolong": _prolong_structure,
    "cotangent-linear": _cotangent_structure,
    "tk": _tk_structure,
}


def _structure(doc: SpecDocument, kind: str, usage: str):
    """The document's first structure section, which must be of ``kind``."""
    section = doc.first("structure")
    if section is None:
        raise SpecSyntaxError(usage, 1, 1)
    if section.args[0] != kind:
        raise SpecSyntaxError(usage, section.line, 1)
    return section


# ------------------------------------------------------------------ commands
class _InvalidBundle(Exception):
    """Raised with the FAIL items of a declared bundle that fails validation."""


def _declared_bundle(doc: SpecDocument):
    """The document's bundle, which must pass validation."""
    bundle = build_bundle(doc).bundle
    failures = validate(bundle).failures()
    if failures:
        raise _InvalidBundle(failures)
    return bundle


def cmd_validate(doc: SpecDocument, report: Report):
    bs = build_bundle(doc)
    report.info(f"bundle: degree {bs.bundle.degree}, arity {bs.bundle.arity}, "
                f"{len(bs.bundle.charts)} charts")
    if bs.declared_degree is not None:
        report.add("declared degree matches", bs.declared_degree == bs.bundle.degree)
    report.merge_validation(validate(bs.bundle))


def cmd_linearise(doc: SpecDocument, report: Report):
    D = linearise(_declared_bundle(doc))
    _emit_transitions(report, D, "D(F)")
    report.merge_validation(validate(D), prefix="D(F) ")
    report.add("linearisation is symmetric", is_symmetric(D))


def cmd_dual(doc: SpecDocument, report: Report):
    F = _declared_bundle(doc)
    dual = linear_dual(F)
    _emit_transitions(report, dual, "D*(F)")
    report.merge_validation(validate(dual), prefix="D*(F) ")
    pr = pairing(F, dual)
    report.info(
        f"pairing delta* = {render_poly(pr.polynomial)}",
        weights=_weight_str(weight_of(pr.polynomial, 2)),
    )
    report.merge_validation(pr.check_invariance())


def cmd_mironian(doc: SpecDocument, report: Report):
    F = _declared_bundle(doc)
    dual = linear_dual(F)
    _emit_transitions(report, mironian(F, dual), "Mi(F)")
    report.merge_validation(mironian_report(F, dual))


def cmd_embed(doc: SpecDocument, report: Report):
    F = _declared_bundle(doc)
    D = linearise(F)
    holo = holonomic_assignment(D, 0)
    for dv in D.charts[0].variables:
        if dv in holo:
            report.info(f"iota*({dv.name}) = {render_poly(holo[dv])}")
    report.merge_validation(embedding_compatibility(F, D))


def cmd_check_q(doc: SpecDocument, report: Report):
    section = doc.first("structure")
    info, alg, _ = STRUCTURES[section.args[0] if section else None](doc, section)
    report.info(info)
    report.info(f"kind = {alg.kind}")
    report.merge_validation(alg.check.report)
    if weighted_lie_algebra_check(alg):
        report.info("carrier is a weighted lie algebra (no weight-zero coordinates)")


def cmd_bracket(doc: SpecDocument, report: Report):
    section = _structure(doc, "lie-tower", "bracket documents declare a lie-tower structure")
    info, tower, _ = STRUCTURES["lie-tower"](doc, section)
    report.info(info)
    sections = doc.all("section")
    if len(sections) != 2:
        extra = sections[2] if len(sections) > 2 else section
        raise SpecSyntaxError("bracket documents need exactly two sections", extra.line, 1)
    s1, s2 = (build_tower_section(s, tower) for s in sections)
    out = reduced_bracket(tower, s1, s2)
    for n in sorted(out.Y):
        report.info(f"result Y {n} = {render_poly(out.Y[n])}")
    for (n, r) in sorted(out.Z):
        report.info(f"result Z {n} {r} = {render_poly(out.Z[(n, r)])}")
    if not out.Y and not out.Z:
        report.info("result = 0")
    phase = tower.phase
    p1, p2 = (tower_section_polynomial(tower, s) for s in (s1, s2))
    derived = phase.derived_bracket(p1, p2, tower.hamiltonian.poly)
    report.zero("reduced bracket agrees with the derived bracket",
                tower_section_polynomial(tower, out) - derived)


def _construct_tangent(doc: SpecDocument, section, report: Report):
    _, alg, _ = STRUCTURES[None](doc, section)
    report.info(f"carrier: {len(alg.carrier.chart)} coordinates, "
                f"degree {alg.carrier.gl_degree}")
    report.merge_validation(validate(alg.carrier), prefix="carrier ")
    report.add("kind = lie", alg.kind == "lie")
    for b, p in anchor(alg).items():
        report.info(f"anchor delta_{b.name} = {render_poly(p)}")


def _construct_cotangent(doc: SpecDocument, section, report: Report):
    _, alg, c = STRUCTURES["cotangent-linear"](doc, section)
    report.info(f"poisson data P = {render_poly(alg.poisson_data)}")
    report.zero("[P,P] = 0", alg.poisson_residual)
    report.merge_validation(alg.check.report)
    report.add("kind matches jacobi verdict",
               (alg.kind == "lie") == c.satisfies_jacobi)


def _construct_tk(doc: SpecDocument, section, report: Report):
    phi, k = build_tk(section)
    tk = higher_tangent(phi, k)
    _emit_transitions(report, tk, f"T^{k}M")
    report.merge_validation(validate(tk), prefix=f"T^{k}M ")
    report.add("linearisation is symmetric", is_symmetric(linearise(tk)))


def _construct_lie_tower(doc: SpecDocument, section, report: Report):
    _, alg, c = STRUCTURES["lie-tower"](doc, section)
    jacobi = c.satisfies_jacobi
    report.info(f"jacobi verdict on constants: {'holds' if jacobi else 'fails'}")
    report.merge_validation(alg.check.report)
    report.add("kind matches jacobi verdict", (alg.kind == "lie") == jacobi)
    report.add("weighted lie algebra", weighted_lie_algebra_check(alg))


def _construct_prolong(doc: SpecDocument, section, report: Report):
    _, alg, data = STRUCTURES["prolong"](doc, section)
    is_lie = data.is_lie
    report.info(f"input data lie verdict: {is_lie}")
    report.merge_validation(alg.check.report)
    report.add("kind matches the input lie verdict", (alg.kind == "lie") == is_lie)
    d_eps = restrict_to_A1(alg.q)
    for v in sorted(d_eps.action, key=lambda u: u.index):
        report.info(f"d_eps({v.name}) = {render_poly(d_eps.action[v])}")


# construct target -> (structure kind it needs, report writer), in the
# order of the command line's choices; the tangent target reads the bundle.
CONSTRUCTS = {
    "tangent": (None, _construct_tangent),
    "cotangent": ("cotangent-linear", _construct_cotangent),
    "tk": ("tk", _construct_tk),
    "lie-tower": ("lie-tower", _construct_lie_tower),
    "prolong": ("prolong", _construct_prolong),
}


def cmd_construct(doc: SpecDocument, report: Report, what: str):
    kind, construct = CONSTRUCTS[what]
    usage = f"construct {what} needs a {kind} structure"
    section = _structure(doc, kind, usage) if kind is not None else None
    construct(doc, section, report)


# ---------------------------------------------------------------------- main
COMMANDS = {
    "validate": cmd_validate,
    "linearise": cmd_linearise,
    "dual": cmd_dual,
    "mironian": cmd_mironian,
    "embed": cmd_embed,
    "check-q": cmd_check_q,
    "bracket": cmd_bracket,
    "construct": cmd_construct,
}


USAGE = "usage: gradedbundles COMMAND [TARGET] --spec PATH [--format text|json]"


def _pick(word, choices, what: str) -> str:
    """``word`` if it is one of ``choices``, else a usage fault naming them."""
    if word not in choices:
        given = f"no {what}" if word is None else f"unknown {what} {word!r}"
        raise ValueError(f"{given}; choose from {'|'.join(choices)}")
    return word


def parse_args(argv) -> tuple[str, str | None, str, str]:
    """``(command, target, spec, format)`` of ``argv`` read as ``USAGE``, else ValueError: the
    target and each option once, in any order, an option as ``--opt value`` or ``--opt=value``."""
    command = _pick(argv[0] if argv else None, COMMANDS, "command")
    words, opts, rest = [], {}, iter(argv[1:])
    for word in rest:
        name, eq, value = word.partition("=")
        if not word.startswith("-"):
            words.append(word)
        elif _pick(name, ("--spec", "--format"), "option") in opts:
            raise ValueError(f"option {name} is repeated")
        else:
            opts[name] = value if eq else next(rest, None)
    target = (_pick(words.pop(0) if words else None, CONSTRUCTS, "target")
              if command == "construct" else None)
    if words:
        raise ValueError(f"unexpected word {words[0]!r}")
    if opts.get("--spec") is None:
        raise ValueError("option --spec needs a PATH")
    fmt = _pick(opts.get("--format", "text"), ("text", "json"), "format")
    return command, target, opts["--spec"], fmt


def _read(path: str) -> str:
    """The text of the spec file ``path``, less a leading byte-order mark,
    or a located SpecError if it is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the error's offset counts from after a byte-order mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise SpecSyntaxError(f"{path} is not valid UTF-8", line) from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(f"{USAGE}\n\nCOMMAND  {'|'.join(COMMANDS)}\nTARGET   {'|'.join(CONSTRUCTS)}")
        return 0
    try:
        command, target, spec, fmt = parse_args(argv)
    except ValueError as exc:  # a usage fault
        print(USAGE, f"error: {exc}", sep="\n", file=sys.stderr)
        return 2
    report = Report(command if target is None else f"{command} {target}")
    try:
        doc = parse(_read(spec))
        if target is None:
            COMMANDS[command](doc, report)
        else:
            cmd_construct(doc, report, target)
    except (OSError, SpecError) as exc:  # an unreadable or malformed spec file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _InvalidBundle as exc:  # the bundle's failures, and nothing built on it
        report.items = exc.args[0]
    except Exception as exc:  # construction failures surface as verdicts
        report.items = []
        report.add(f"construction failed: {exc}", False)
    out = render_text(report) if fmt == "text" else render_json(report)
    sys.stdout.write(out)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
