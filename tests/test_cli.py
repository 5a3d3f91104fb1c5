import io
import json
import pathlib
import sys

import pytest

from gradedbundles import cli, specfile
from gradedbundles.bundle import CoordinateSystem
from gradedbundles.constructions import AlgebroidData, prolongation_algebroid
from gradedbundles.linfun import (
    bundles_structurally_equal,
    is_symmetric,
    linearise,
    parity_reverse,
    reconstruct,
    symmetry_report,
)
from gradedbundles.superalg import Variable
from gradedbundles.specfile import (
    MAX_COORDINATES,
    MAX_DIM,
    MAX_EXPONENT,
    MAX_K,
    MAX_NESTING,
    MAX_TERMS,
    SpecSyntaxError,
    UnknownVariableError,
    WeightArityMismatchError,
    build_bundle,
    parse,
    parse_expression,
)
from helpers import run_cli_subprocess

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"

SHIPPED = {
    "degree2.spec": ["validate", "linearise", "dual", "mironian", "embed"],
    "degree3.spec": ["validate", "linearise", "dual", "mironian", "embed"],
    "so3-tower.spec": ["check-q", ("construct", "lie-tower")],
    "sl2-tower.spec": ["check-q", ("construct", "lie-tower")],
    "heisenberg-tower.spec": ["check-q"],
    "bracket-so3.spec": ["bracket"],
    "t2m-shear.spec": [("construct", "tk"), "check-q"],
    "prolong-tm.spec": [("construct", "prolong"), "check-q"],
    "cotangent-so3.spec": [("construct", "cotangent"), "check-q"],
}


def run_cli(args):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(args)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def spec_args(name, command):
    args = [command] if isinstance(command, str) else list(command)
    return args + ["--spec", str(SPEC_DIR / name)]


def test_shipped_specs_exit_zero():
    for name, commands in SHIPPED.items():
        for command in commands:
            code, out = run_cli(spec_args(name, command))
            assert code == 0, f"{name} {command} failed:\n{out}"
            assert out.endswith("result: PASS\n")


def test_json_format_field_names():
    code, out = run_cli(spec_args("so3-tower.spec", "check-q") + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "PASS"
    assert payload["command"] == "check-q"
    for item in payload["checks"]:
        assert set(item) == {"check_id", "verdict", "residual", "weights"}


def test_failing_document_exits_one(tmp_path):
    bad = tmp_path / "broken.spec"
    bad.write_text(
        "[structure lie-tower]\nk = 2\ndim = 3\n"
        "c 1 2 3 = 1\nc 2 3 1 = 1\nc 3 1 2 = 1\nc 1 2 1 = 1\n"
    )
    code, out = run_cli(["check-q", "--spec", str(bad)])
    assert code == 1
    assert "FAIL" in out and "result: FAIL" in out


def test_invalid_bundle_exits_one(tmp_path):
    doc = tmp_path / "badbundle.spec"
    doc.write_text(
        "[bundle]\narity = 1\n"
        "[chart a]\nx = weight 0\ny = weight 1\n"
        "[chart b]\nX = weight 0\nY = weight 1\n"
        "[map a -> b]\nX = x\nY = 2*y\n"
        "[map b -> a]\nx = X\ny = Y\n"  # wrong inverse
    )
    code, out = run_cli(["validate", "--spec", str(doc)])
    assert code == 1
    assert "round trip" in out


# Odd Z of weight 2 and even y of weight 1, so the law Z = z + y^2 mixes
# parities; degree2-wrong-inverse.spec fails its round trips instead.
MIXED_PARITY = (
    "[bundle]\narity = 1\n"
    "[chart a]\ny = weight 1\nz = weight 2 odd\n"
    "[chart b]\nY = weight 1\nZ = weight 2 odd\n"
    "[map a -> b]\nY = y\nZ = z + y^2\n"
    "[map b -> a]\ny = Y\nz = Z - Y^2\n"
)
BUNDLE_COMMANDS = [["validate"], ["linearise"], ["dual"], ["mironian"], ["embed"],
                   ["check-q"], ["construct", "tangent"]]


@pytest.mark.parametrize("command", BUNDLE_COMMANDS, ids=["-".join(c) for c in BUNDLE_COMMANDS])
@pytest.mark.parametrize("fault,faulty_items", [
    ("mixed-parity", ["FAIL  transition 0->1: parity of Z-component  :: parity mixed, expected 1",
                      "FAIL  transition 1->0: parity of z-component  :: parity mixed, expected 1"]),
    ("wrong-inverse", ["FAIL  transition 0->1: round trip on z  :: -1/80*y^2 - 1/80*x*y^2",
                       "FAIL  transition 1->0: round trip on Z  :: -1/144*Y^2 - 1/144*X*Y^2"]),
])
def test_commands_that_read_the_bundle_stop_on_its_failures(tmp_path, command, fault,
                                                            faulty_items):
    if fault == "mixed-parity":
        spec = tmp_path / "mixed.spec"
        spec.write_text(MIXED_PARITY)
    else:
        spec = SPEC_DIR / "degree2-wrong-inverse.spec"
    code, out = run_cli([*command, "--spec", str(spec)])
    assert code == 1, out
    assert "construction failed" not in out
    lines = out.splitlines()
    assert lines[0] == f"command: {' '.join(command)}"
    items = [l for l in lines if not l.startswith(("command:", "convention:", "result:"))]
    if command == ["validate"]:
        assert set(faulty_items) <= set(items)
    else:
        assert items == faulty_items
    assert lines[-1] == "result: FAIL"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_engine_failure_report_names_the_construct_target(monkeypatch, fmt):
    def broken(doc, section, report):
        raise RuntimeError("writer broke")

    monkeypatch.setitem(cli.CONSTRUCTS, "tangent", (None, broken))
    code, out = run_cli(spec_args("degree2.spec", ("construct", "tangent")) + ["--format", fmt])
    assert code == 1
    if fmt == "text":
        assert out.splitlines()[0] == "command: construct tangent"
        assert "FAIL  construction failed: writer broke" in out
    else:
        payload = json.loads(out)
        assert payload["command"] == "construct tangent"
        assert [i["check_id"] for i in payload["checks"]] == ["construction failed: writer broke"]


def test_bracket_at_order_three(tmp_path):
    doc = tmp_path / "bracket3.spec"
    doc.write_text(
        "[structure lie-tower]\nk = 3\ndim = 3\n"
        "c 1 2 3 = 1\nc 2 3 1 = 1\nc 3 1 2 = 1\n"
        "[section a]\nY 1 = y2_2\nZ 2 1 = y3_1\nZ 1 2 = y1_1*y2_1\n"
        "[section b]\nY 2 = 1\nZ 3 2 = y1_2\n"
    )
    code, out = run_cli(["bracket", "--spec", str(doc)])
    assert code == 0
    assert "reduced bracket agrees with the derived bracket" in out


def test_bracket_of_a_section_with_itself_prints_zero(tmp_path):
    doc = tmp_path / "self.spec"
    doc.write_text(TOWER + "[section a]\nY 1 = 1\n[section b]\nY 1 = 1\n")
    code, out = run_cli(["bracket", "--spec", str(doc)])
    assert code == 0
    assert out.endswith("INFO  structure: lie-tower, dim 1, k 2\nINFO  result = 0\n"
                        "PASS  reduced bracket agrees with the derived bracket\nresult: PASS\n")


def test_parse_error_exits_two(tmp_path):
    doc = tmp_path / "syntax.spec"
    doc.write_text("[chart a]\nx weight 0\n")
    code, _ = run_cli(["validate", "--spec", str(doc)])
    assert code == 2
    missing = tmp_path / "nope.spec"
    code, _ = run_cli(["validate", "--spec", str(missing)])
    assert code == 2


def test_unknown_variable_location():
    text = (
        "[bundle]\narity = 1\n"
        "[chart a]\nx = weight 0\ny = weight 1\n"
        "[chart b]\nX = weight 0\nY = weight 1\n"
        "[map a -> b]\nX = x\nY = y + q\n"
        "[map b -> a]\nx = X\ny = Y\n"
    )
    doc = parse(text)
    with pytest.raises(UnknownVariableError) as err:
        build_bundle(doc)
    assert err.value.line == 11 and err.value.col is not None
    assert "q" in str(err.value)


def test_weight_arity_mismatch():
    text = "[bundle]\narity = 1\n[chart a]\nx = weight (0, 1)\n"
    with pytest.raises(WeightArityMismatchError):
        build_bundle(parse(text))


def test_unknown_section_rejected():
    with pytest.raises(SpecSyntaxError):
        parse("[nonsense]\nk = 1\n")


def test_unknown_bundle_key_rejected():
    with pytest.raises(SpecSyntaxError):
        parse("[bundle]\ncolour = blue\n")


def _canonical(doc):
    return [
        (s.kind, s.args, tuple((e.key, e.value) for e in s.entries))
        for s in doc.sections
    ]


def test_parse_render_parse_idempotent():
    for name in SHIPPED:
        text = (SPEC_DIR / name).read_text()
        doc = parse(text)
        again = parse(doc.render())
        assert _canonical(doc) == _canonical(again)
        assert doc.render() == again.render()


def test_expression_grammar(tmp_path):
    doc = tmp_path / "expr.spec"
    doc.write_text(
        "[bundle]\narity = 1\n"
        "[chart a]\nx = weight 0\ny = weight 1\nz = weight 2\n"
        "[chart b]\nX = weight 0\nY = weight 1\nZ = weight 2\n"
        "[map a -> b]\nX = x\nY = -y\nZ = z + 1/2*y^2*(1 - x + x^2)\n"
        "[map b -> a]\nx = X\ny = -Y\nz = Z - 1/2*Y^2*(1 - X + X^2)\n"
    )
    code, out = run_cli(["validate", "--spec", str(doc)])
    assert code == 0


# Two odd coordinates a, b of weight 1: Z = z + a*b linearises to
# dZ = dz + a*db - b*da, which is symmetric only with graded signs.
ODD_WEIGHT_ONE = {name: (SPEC_DIR / f"odd-{name}.spec").read_text()
                  for name in ("degree2", "degree3")}


@pytest.mark.parametrize("name", sorted(ODD_WEIGHT_ONE))
def test_odd_coordinates_of_one_weight_linearise_symmetric(tmp_path, name):
    text = ODD_WEIGHT_ONE[name]
    doc = tmp_path / "odd.spec"
    doc.write_text(text)
    code, out = run_cli(["linearise", "--spec", str(doc)])
    assert code == 0, out
    assert "PASS  linearisation is symmetric\n" in out
    F = build_bundle(parse(text)).bundle
    assert bundles_structurally_equal(F, reconstruct(linearise(F)))


@pytest.mark.parametrize("name", sorted(ODD_WEIGHT_ONE))
def test_odd_coordinates_of_one_weight_keep_the_pairing_invariant(tmp_path, name):
    # delta* pairs each fibre coordinate with its dual in the order the
    # contragredient transition is written for, so odd pairs keep their sign
    doc = tmp_path / "odd.spec"
    doc.write_text(ODD_WEIGHT_ONE[name])
    code, out = run_cli(["dual", "--spec", str(doc)])
    assert code == 0, out
    assert "PASS  transition 0->1: pairing invariance\n" in out
    assert "PASS  transition 1->0: pairing invariance\n" in out
    if name == "degree2":
        assert "delta* = a*pda + b*pdb + 2*z*pdz" in out


def test_odd_parity_reversal_is_symmetric_and_an_involution():
    # dW has the terms of the lift of x*a*b*y, such as x*a*y*db with the odd
    # base factor x*a*y, whose sign Pi changes
    D = linearise(build_bundle(parse(ODD_WEIGHT_ONE["degree3"])).bundle)
    P = parity_reverse(D)
    assert is_symmetric(P), [item.check_id for item in symmetry_report(P).failures()]
    assert bundles_structurally_equal(D, parity_reverse(P))


def test_minimal_degree1_document():
    doc = parse(
        "[bundle]\narity = 1\n[chart only]\nx = weight 0\ny = weight 1\n"
    )
    bs = build_bundle(doc)
    assert len(bs.bundle.chart.variables) == 2
    assert bs.bundle.degree == 1


def test_determinism_two_inprocess_runs():
    for name, commands in SHIPPED.items():
        cmd = commands[0]
        _, out1 = run_cli(spec_args(name, cmd))
        _, out2 = run_cli(spec_args(name, cmd))
        assert out1 == out2


def test_determinism_across_hash_seeds():
    name, cmd = "bracket-so3.spec", "bracket"
    outputs = set()
    for seed in ("0", "1", "2"):
        proc = run_cli_subprocess(
            [cmd, "--spec", str(SPEC_DIR / name)], seed=seed
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# ------------------------------------------------------- the argv grammar
DEGREE2 = str(SPEC_DIR / "degree2.spec")
T2M = str(SPEC_DIR / "t2m-shear.spec")

USAGE_FAULTS = {
    "no command": [],
    "unknown command": ["validat", "--spec", DEGREE2],
    "option before the command": ["--spec", DEGREE2, "validate"],
    "unknown target": ["construct", "tkk", "--spec", T2M],
    "missing target": ["construct", "--spec", T2M],
    "missing --spec": ["validate"],
    "missing --spec value": ["validate", "--spec"],
    "missing --format value": ["validate", "--spec", DEGREE2, "--format"],
    "unknown option": ["validate", "--spec", DEGREE2, "--verbose"],
    "abbreviated option": ["validate", "--sp", DEGREE2],
    "short unknown option": ["validate", "-s", DEGREE2],
    "stray word": ["validate", "--spec", DEGREE2, "extra"],
    "stray word after a target": ["construct", "tk", "tk", "--spec", T2M],
    "bad --format": ["validate", "--spec", DEGREE2, "--format", "xml"],
    "bad --format=": ["validate", "--spec", DEGREE2, "--format=yaml"],
    "repeated --spec": ["validate", "--spec", DEGREE2, "--spec", DEGREE2],
    "repeated --format": ["validate", "--spec", DEGREE2, "--format", "text", "--format=text"],
}


@pytest.mark.parametrize("argv", USAGE_FAULTS.values(), ids=USAGE_FAULTS)
def test_usage_faults_exit_two_with_a_usage_line(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: gradedbundles COMMAND")
    assert error.startswith("error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["validate", "-h"],
                                  ["construct", "--help", "--spec", T2M]])
def test_help_exits_zero(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.startswith(cli.USAGE + "\n")
    assert "check-q" in captured.out and "lie-tower" in captured.out


EQUIVALENT_ARGV = [
    (["validate", "--spec", DEGREE2], ["validate", f"--spec={DEGREE2}"]),
    (["validate", "--spec", DEGREE2, "--format", "json"],
     ["validate", "--format", "json", "--spec", DEGREE2]),
    (["validate", "--spec", DEGREE2, "--format", "json"],
     ["validate", "--format=json", f"--spec={DEGREE2}"]),
    (["construct", "tk", "--spec", T2M], ["construct", "--spec", T2M, "tk"]),
    (["construct", "tk", "--spec", T2M, "--format", "json"],
     ["construct", "--format", "json", "tk", "--spec", T2M]),
]


@pytest.mark.parametrize("canonical, variant", EQUIVALENT_ARGV,
                         ids=[" ".join(v[:1] + v[-1:]) for _, v in EQUIVALENT_ARGV])
def test_argv_variants_print_the_canonical_report(canonical, variant):
    assert run_cli(variant) == run_cli(canonical)
    assert run_cli(canonical)[0] == 0


def test_parse_args_returns_the_four_fields():
    assert cli.parse_args(["construct", "--format=json", "tk", "--spec", "f"]) == (
        "construct", "tk", "f", "json")
    assert cli.parse_args(["dual", "--spec=a=b"]) == ("dual", None, "a=b", "text")


def test_module_entry_point_reads_sys_argv():
    proc = run_cli_subprocess(["construct", "--spec", T2M, "tk"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(["construct", "tk", "--spec", T2M])[1]
    proc = run_cli_subprocess(["construct", "--spec", T2M])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: ") and "error: no target" in proc.stderr
    proc = run_cli_subprocess(["--help"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: ")


def test_spec_file_with_a_byte_order_mark_reads_as_without_it(tmp_path, capsys):
    doc = tmp_path / "bom.spec"
    doc.write_bytes(b"\xef\xbb\xbf" + (SPEC_DIR / "degree2.spec").read_bytes())
    report = run_cli(["validate", "--spec", str(doc)])
    assert report == run_cli(spec_args("degree2.spec", "validate"))
    assert report[0] == 0
    # a fault after the mark is located as in the same file without it
    doc.write_bytes(b"\xef\xbb\xbf[chart a]\nx = weight 0\n\xe9\n")
    assert run_cli(["validate", "--spec", str(doc)]) == (2, "")
    assert capsys.readouterr().err == f"error: {doc} is not valid UTF-8 at line 3\n"


def test_spec_file_that_is_not_utf8_exits_two_located(tmp_path, capsys):
    doc = tmp_path / "latin1.spec"
    doc.write_bytes(b"[chart a]\nx = weight 0\n# caf\xe9\ny = weight 1\n")
    code = cli.main(["validate", "--spec", str(doc)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {doc} is not valid UTF-8 at line 3\n"


# ------------------------------------------------ hostile specs: exit 2, located
TWO_CHARTS = (
    "[chart a]\nx = weight 0\ny = weight 1\n"
    "[chart b]\nX = weight 0\nY = weight 1\n"
)


def run_cli_hostile(tmp_path, capsys, args, text):
    """Run a command on ``text``; it must exit 2 with a located error."""
    doc = tmp_path / "hostile.spec"
    doc.write_text(text)
    code = cli.main([*args, "--spec", str(doc)])
    captured = capsys.readouterr()
    assert code == 2, captured.out + captured.err
    assert captured.out == ""
    assert "at line" in captured.err
    return captured.err


def test_deep_parentheses_exit_two(tmp_path, capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    err = run_cli_hostile(tmp_path, capsys, ["validate"], TWO_CHARTS + (
        f"[map a -> b]\nX = {deep}\nY = y\n[map b -> a]\nx = X\ny = Y\n"
    ))
    assert "nests deeper than" in err and "line 8" in err


def test_deep_unary_minus_exit_two(tmp_path, capsys):
    err = run_cli_hostile(tmp_path, capsys, ["validate"], TWO_CHARTS + (
        f"[map a -> b]\nX = {'-' * 3000}x\nY = y\n[map b -> a]\nx = X\ny = Y\n"
    ))
    assert "nests deeper than" in err and "line 8" in err


def test_nesting_within_the_limit_parses():
    depth = MAX_NESTING - 1
    names = {"x": Variable("a", "x", (0,), 0, 0)}
    p = parse_expression("(" * depth + "x" + ")" * depth, names, 1, 1)
    assert p == parse_expression("x", names, 1, 1)


def test_tk_key_not_an_integer_exit_two(tmp_path, capsys):
    err = run_cli_hostile(tmp_path, capsys, ["construct", "tk"],
                          "[structure tk]\nk = 2\ndim = 1\n"
                          "forward one = x1\ninverse 1 = X1\n")
    assert "'one' is not an integer" in err and "line 4" in err


def test_tk_key_out_of_range_exit_two(tmp_path, capsys):
    err = run_cli_hostile(tmp_path, capsys, ["construct", "tk"],
                          "[structure tk]\nk = 2\ndim = 1\n"
                          "forward 1 = x1\ninverse 2 = X1\n")
    assert "index 2 is outside 1..1" in err and "line 5" in err


def test_exponent_above_limit_exit_two(tmp_path, capsys):
    err = run_cli_hostile(tmp_path, capsys, ["validate"], TWO_CHARTS + (
        f"[map a -> b]\nX = (1 + x)^{MAX_EXPONENT + 1}\nY = y\n"
        "[map b -> a]\nx = X\ny = Y\n"
    ))
    assert f"exceeds the limit of {MAX_EXPONENT}" in err and "line 8" in err


def test_exponent_at_limit_parses():
    names = {"x": Variable("a", "x", (0,), 0, 0)}
    p = parse_expression(f"(1 + x)^{MAX_EXPONENT}", names, 1, 1)
    assert len(p.terms) == MAX_EXPONENT + 1


def test_overlong_numeral_exit_two(tmp_path, capsys):
    err = run_cli_hostile(tmp_path, capsys, ["validate"], TWO_CHARTS + (
        f"[map a -> b]\nX = x + {'9' * 6000}\nY = y\n"
        "[map b -> a]\nx = X\ny = Y\n"
    ))
    assert "numeral is too long" in err and "line 8" in err


def test_duplicate_map_section_rejected(tmp_path, capsys):
    text = TWO_CHARTS + (
        "[map a -> b]\nX = x\nY = 2*y\n"
        "[map a -> b]\nX = x\nY = 3*y\n"
        "[map b -> a]\nx = X\ny = 1/3*Y\n"
    )
    with pytest.raises(SpecSyntaxError) as err:
        build_bundle(parse(text))
    assert err.value.line == 10 and "duplicate map a -> b" in str(err.value)
    run_cli_hostile(tmp_path, capsys, ["validate"], text)


def test_duplicate_map_component_rejected():
    text = TWO_CHARTS + (
        "[map a -> b]\nX = x\nY = 2*y\nY = 3*y\n"
        "[map b -> a]\nx = X\ny = 1/3*Y\n"
    )
    with pytest.raises(SpecSyntaxError) as err:
        build_bundle(parse(text))
    assert err.value.line == 10 and "duplicate entry 'Y' in map a -> b" in str(err.value)


@pytest.mark.parametrize("command", ["validate", "dual"])
def test_repeated_chart_coordinate_exit_two(tmp_path, capsys, command):
    text = "[bundle]\narity = 1\n[chart a]\nx = weight 0\ny = weight 1\ny = weight 1\n"
    with pytest.raises(SpecSyntaxError) as err:
        build_bundle(parse(text))
    assert err.value.line == 6
    message = run_cli_hostile(tmp_path, capsys, [command], text)
    assert "duplicate entry 'y' in chart a" in message and "line 6" in message


TK_ONE = "forward 1 = x1\ninverse 1 = X1\n"


@pytest.mark.parametrize("command, text, message", [
    (["check-q"], "[structure lie-tower]\nk = 0\ndim = 1\n", "'k' must be at least 1"),
    (["check-q"], "[structure lie-tower]\nk = -1\ndim = 1\n", "'k' must be at least 1"),
    (["construct", "tk"], "[structure tk]\nk = 0\ndim = 1\n" + TK_ONE,
     "'k' must be at least 1"),
    (["construct", "tk"], "[structure tk]\nk = 2\ndim = 0\n", "'dim' must be at least 1"),
    (["check-q"], "[structure tk]\nk = 1\ndim = 1\n" + TK_ONE, "'k' must be at least 2"),
    (["construct", "prolong"],
     "[structure prolong]\nk = 1\nbase = x1\nfiber = e1\nanchor e1 x1 = 1\n",
     "'k' must be at least 2"),
], ids=["lie-tower-k0", "lie-tower-k-1", "tk-k0", "tk-dim0", "tk-algebroid-k1", "prolong-k1"])
def test_structure_value_below_minimum_exit_two(tmp_path, capsys, command, text, message):
    err = run_cli_hostile(tmp_path, capsys, command, text)
    line = 3 if "dim' " in message else 2
    assert message in err and f"line {line}" in err


def tk_text(k, dim):
    return f"[structure tk]\nk = {k}\ndim = {dim}\n" + "".join(
        f"forward {i} = x{i}\ninverse {i} = X{i}\n" for i in range(1, dim + 1))


def prolong_text(k):
    return f"[structure prolong]\nk = {k}\nbase = x1\nfiber = e1\nanchor e1 x1 = 1\n"


def constants_text(kind, k, dim):
    return f"[structure {kind}]\nk = {k}\ndim = {dim}\nc 1 2 3 = 1\n"


# Each structure kind at its bounds on dim and k: one value at the bound,
# which runs, and one above it, a located exit 2.
AT_BOUND = [
    (["check-q"], constants_text("lie-tower", MAX_K, MAX_DIM)),
    (["construct", "lie-tower"], constants_text("lie-tower", MAX_K, MAX_DIM)),
    (["construct", "cotangent"], constants_text("cotangent-linear", 2, MAX_DIM)),
    # T^k M of R^dim at both bounds takes seconds, so each bound is met alone
    (["construct", "tk"], tk_text(MAX_K, 2)),
    (["construct", "tk"], tk_text(2, MAX_DIM)),
    (["check-q"], tk_text(MAX_K, MAX_DIM)),
    (["construct", "prolong"], prolong_text(MAX_K)),
]


@pytest.mark.parametrize("command, text", AT_BOUND, ids=[
    "lie-tower", "construct-lie-tower", "cotangent", "tk-k", "tk-dim", "tk-algebroid",
    "prolong"])
def test_structure_at_its_bounds_runs(tmp_path, command, text):
    doc = tmp_path / "bound.spec"
    doc.write_text(text)
    code, out = run_cli([*command, "--spec", str(doc)])
    assert code == 0, out


K_OVER = f"'k' {MAX_K + 1} exceeds the limit of {MAX_K} at line 2,"
DIM_OVER = f"'dim' {MAX_DIM + 1} exceeds the limit of {MAX_DIM} at line 3,"


@pytest.mark.parametrize("command, text, message", [
    (["check-q"], constants_text("lie-tower", MAX_K + 1, 3), K_OVER),
    (["check-q"], constants_text("lie-tower", 2, MAX_DIM + 1), DIM_OVER),
    (["construct", "cotangent"], constants_text("cotangent-linear", 2, MAX_DIM + 1), DIM_OVER),
    (["construct", "tk"], tk_text(MAX_K + 1, 1), K_OVER),
    (["construct", "tk"], tk_text(2, MAX_DIM + 1), DIM_OVER),
    (["check-q"], tk_text(MAX_K + 1, 1), K_OVER),
    (["construct", "prolong"], prolong_text(MAX_K + 1), K_OVER),
], ids=["lie-tower-k", "lie-tower-dim", "cotangent-dim", "tk-k", "tk-dim", "tk-algebroid-k",
        "prolong-k"])
def test_structure_above_its_bounds_exit_two(tmp_path, capsys, command, text, message):
    assert message in run_cli_hostile(tmp_path, capsys, command, text)


def test_every_coordinate_of_the_prolongation_clashes_with_a_base_name(tmp_path, capsys):
    # the names are read off the built carrier, so a renamed coordinate
    # must still meet the located error, not a failed construction
    data = AlgebroidData(CoordinateSystem([("x", 0, 0)], name="base"), ["e", "f"], {}, {})
    names = [v.name for v in prolongation_algebroid(data, 3).carrier.chart.variables][1:]
    assert len(names) == 10
    for n in names:
        text = f"[structure prolong]\nk = 3\nbase = {n}\nfiber = e f\n"
        err = run_cli_hostile(tmp_path, capsys, ["check-q"], text)
        assert f"base name {n!r} clashes with a coordinate of the prolongation at line 3" in err


def identity_charts_text(n):
    """Two charts of n weight-1 coordinates and the identity maps between them."""
    names = [f"x{i}" for i in range(1, n + 1)]
    return "".join((
        "[chart A]\n", *(f"{v} = weight 1\n" for v in names),
        "[chart B]\n", *(f"{v.upper()} = weight 1\n" for v in names),
        "[map A -> B]\n", *(f"{v.upper()} = {v}\n" for v in names),
        "[map B -> A]\n", *(f"{v} = {v.upper()}\n" for v in names)))


def test_charts_at_the_coordinate_bound_run(tmp_path):
    doc = tmp_path / "bound.spec"
    doc.write_text(identity_charts_text(MAX_COORDINATES))
    code, out = run_cli(["validate", "--spec", str(doc)])
    assert code == 0, out


def test_a_coordinate_past_the_bound_exits_two(tmp_path, capsys):
    # the first chart's header is line 1, so its coordinate past the bound
    # sits on line MAX_COORDINATES + 2
    text = identity_charts_text(MAX_COORDINATES + 1)
    err = run_cli_hostile(tmp_path, capsys, ["validate"], text)
    assert (f"[chart A] declares more than {MAX_COORDINATES} coordinates"
            f" at line {MAX_COORDINATES + 2}, column 1") in err


def test_dimension_30_lie_tower_constructs_in_time(tmp_path):
    # with the dense Jacobi loop, O(dim^5), this took about two minutes
    doc = tmp_path / "tower30.spec"
    doc.write_text(constants_text("lie-tower", 2, 30))
    proc = run_cli_subprocess(["construct", "lie-tower", "--spec", str(doc)], timeout=30)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "INFO  jacobi verdict on constants: holds" in proc.stdout


COTANGENT_K3 = "# k is fixed\n[structure cotangent-linear]\ndim = 1\nk = 3\n"
TK_MISSING = "[structure tk]\nk = 2\ndim = 2\nforward 1 = x1\ninverse 1 = X1\nforward 2 = x2\n"
TOWER = "[structure lie-tower]\nk = 2\ndim = 1\n"
NOT_C_DIM_K = "not one of ['c', 'dim', 'k']"
ONE_CHART = "[chart a]\nx = weight 0\ny = weight 1\n"


@pytest.mark.parametrize("command, text, message, line", [
    (["check-q"], COTANGENT_K3, "cotangent-linear structures fix k = 2", 4),
    (["construct", "cotangent"], COTANGENT_K3, "cotangent-linear structures fix k = 2", 4),
    (["check-q"], "\n[structure lie-tower]\ndim = 2\n", "missing 'k' entry", 2),
    (["check-q"], TK_MISSING, "tk structure misses components [2]", 1),
    (["construct", "tk"], TK_MISSING, "tk structure misses components [2]", 1),
    (["construct", "prolong"], "[structure prolong]\nk = 2\nbase = x1\n",
     "prolong structures need a fiber entry", 1),
    (["bracket"], TOWER + "[section s1]\nY 1 = 1\n",
     "bracket documents need exactly two sections", 1),
    (["bracket"], TOWER + "[section s1]\nY 1 = 1\n[section s2]\nY 1 = 1\n[section s3]\nY 1 = 1\n",
     "bracket documents need exactly two sections", 8),
    (["bracket"], "# not a tower\n" + TK_MISSING, "bracket documents declare a lie-tower structure", 2),
    (["construct", "lie-tower"], "# not a tower\n" + TK_MISSING,
     "construct lie-tower needs a lie-tower structure", 2),
    (["construct", "tk"], COTANGENT_K3, "construct tk needs a tk structure", 2),
    (["check-q"], TOWER + "bogus = 7\n", f"unknown lie-tower entry 'bogus', {NOT_C_DIM_K}", 4),
    (["check-q"], TOWER + "cc 2 3 1 = 1\n",
     f"unknown lie-tower entry 'cc 2 3 1', {NOT_C_DIM_K}", 4),
    (["construct", "cotangent"], "[structure cotangent-linear]\nk = 2\ndim = 1\nforward 1 = 1\n",
     f"unknown cotangent-linear entry 'forward 1', {NOT_C_DIM_K}", 4),
    (["construct", "tk"], tk_text(2, 1) + "c 1 2 3 = 1\n",
     "unknown tk entry 'c 1 2 3', not one of ['dim', 'forward', 'inverse', 'k']", 6),
    (["construct", "prolong"], prolong_text(2) + "dim = 1\n",
     "unknown prolong entry 'dim', not one of ['anchor', 'base', 'bracket', 'fiber', 'k']", 6),
    (["check-q"], constants_text("lie-tower", 2, 3) + "c 1 2 3 = 2\n",
     "duplicate entry 'c 1 2 3' in structure lie-tower", 5),
    (["construct", "tk"], tk_text(2, 1) + "forward 1 = 2*x1\n",
     "duplicate entry 'forward 1' in structure tk", 6),
    (["construct", "prolong"], prolong_text(2) + "anchor e1 x1 = 2\n",
     "duplicate entry 'anchor e1 x1' in structure prolong", 6),
    (["check-q"], TOWER + "k = 3\n", "duplicate entry 'k' in structure lie-tower", 4),
    (["construct", "lie-tower"], TOWER + "dim = 4\n",
     "duplicate entry 'dim' in structure lie-tower", 4),
    (["construct", "prolong"], "[structure prolong]\nk = 2\nbase = x x\nfiber = e\n",
     "base name 'x' appears twice", 3),
    (["check-q"], "[structure prolong]\nk = 2\nbase = x\nfiber = e e\n",
     "fiber name 'e' appears twice", 4),
    (["check-q"], "[structure prolong]\nk = 2\nbase = ye_1\nfiber = e\n",
     "base name 'ye_1' clashes with a coordinate of the prolongation", 3),
    (["check-q"], TOWER + "k 9 = 3\n", "entry 'k 9' in structure lie-tower should read 'k'", 4),
    (["construct", "lie-tower"], TOWER + "dim x = 7\n",
     "entry 'dim x' in structure lie-tower should read 'dim'", 4),
    (["construct", "prolong"], prolong_text(2) + "base y = z\n",
     "entry 'base y' in structure prolong should read 'base'", 6),
    (["check-q"], constants_text("lie-tower", 2, 3) + "c 01 2 3 = 5\n",
     "index '01' is not written in plain decimal", 5),
    (["construct", "tk"], tk_text(2, 1) + "forward 01 = 2*x1\n",
     "index '01' is not written in plain decimal", 6),
    (["validate"], "[bundle]\ndegree = 1\ndegree = 2\n" + ONE_CHART,
     "duplicate entry 'degree' in bundle", 3),
    (["validate"], "[bundle]\ndegree = 1\n" + ONE_CHART + "[bundle]\ndegree = 2\n",
     "duplicate bundle section", 6),
    (["validate"], "# A\n[bundle degree]\ndegree = 2\n" + ONE_CHART,
     "[bundle] headers take no name", 2),
    (["check-q"], TOWER + "[structure tk]\nk = 2\ndim = 1\n",
     "duplicate structure section", 4),
    (["validate"], ONE_CHART + "[map a -> a]\nx = x\ny = 2*y\n",
     "map a -> a maps a chart to itself", 4),
    (["validate"], TWO_CHARTS + "[map a -> b]\nX = x\nY = 2*y\n[map b -> a]\nx = X\n"
     "y = 1/2*Y\n[map a -> a]\nx = x\ny = 3*y\n", "map a -> a maps a chart to itself", 13),
], ids=["check-q-cotangent-k3", "construct-cotangent-k3", "missing-k", "check-q-tk-missing",
        "construct-tk-missing", "prolong-no-fiber", "bracket-one-section",
        "bracket-three-sections", "bracket-other-kind", "construct-lie-tower-other-kind",
        "construct-tk-other-kind", "unknown-word", "unknown-c", "unknown-cotangent",
        "unknown-tk", "unknown-prolong", "repeated-c", "repeated-forward", "repeated-anchor",
        "repeated-k", "repeated-dim", "repeated-base-name", "repeated-fiber-name",
        "base-name-clash", "word-after-k", "word-after-dim", "word-after-base",
        "zero-padded-c", "zero-padded-forward", "repeated-bundle-key", "second-bundle",
        "bundle-header-word",
        "second-structure", "one-chart-self-map", "two-chart-self-map"])
def test_structure_errors_name_their_line(tmp_path, capsys, command, text, message, line):
    err = run_cli_hostile(tmp_path, capsys, command, text)
    assert f"{message} at line {line}," in err


@pytest.mark.parametrize("text, message, line", [
    (TOWER.replace("dim = 1", "dim = 2") + "c 1 2 1 = 1\nc 2 1 1 = 2\n",
     "antisymmetry conflict at (2, 1, 1)", 5),
    (TOWER.replace("dim = 1", "dim = 2") + "c 1 1 2 = 1\n",
     "antisymmetry conflict at (1, 1, 2)", 4),
    ("[structure prolong]\nk = 2\nbase = x\nfiber = a b\n"
     "bracket a b b = x\nbracket b a b = 1\n",
     "bracket data not antisymmetric at ('b', 'a', 'b')", 6),
], ids=["lie-tower-conflict", "lie-tower-diagonal", "prolong-conflict"])
def test_conflicting_structure_data_names_its_entry(tmp_path, capsys, text, message, line):
    err = run_cli_hostile(tmp_path, capsys, ["check-q"], text)
    assert f"{message} at line {line}," in err


MAPS = "[map a -> b]\nX = x\nY = 2*y\n[map b -> a]\nx = X\ny = 1/2*Y\n"


def bad_y(expression):
    """TWO_CHARTS and its maps with ``expression`` as the image of Y, line 9."""
    return TWO_CHARTS + MAPS.replace("Y = 2*y", f"Y = {expression}")


# One document per rejection in the parser, the bundle builder and the
# structure builders that the other tests do not reach, with its message and
# line; the next six are the [bundle] section's bounds and integers of a
# [bundle] or [structure] section not written in plain decimal, and the last
# five weights and numerals of a chart or map that are not plain ASCII
# decimal integers, then two indices of structure constants.
@pytest.mark.parametrize("command, text, message, line", [
    (["validate"], "# a\n[ ]\n", "empty section header", 2),
    (["validate"], "[bundle]\n = 1\n", "empty key", 2),
    (["validate"], ONE_CHART + "[chart]\n", "[chart NAME] headers need exactly one name", 4),
    (["validate"], ONE_CHART + "[map a b]\n", "map sections are '[map SRC -> DST]'", 4),
    (["check-q"], "[structure foo]\n", "structure kind must be one of", 1),
    (["validate"], bad_y("y $ 2"), "cannot read expression near ' $ 2'", 9),
    (["validate"], bad_y("(2*y"), "expected ')'", 9),
    (["validate"], bad_y("2 y"), "unexpected 'y'", 9),
    (["validate"], bad_y("y^x"), "exponent must be a natural number", 9),
    (["validate"], bad_y("1/0*y"), "bad rational literal", 9),
    (["validate"], bad_y("*y"), "unexpected '*'", 9),
    (["validate"], "[chart a]\nx = weight 0\ny = wt 1\n",
     "chart entries read 'name = weight W [odd|even]', got 'wt 1'", 3),
    (["validate"], "[bundle]\narity = one\n" + ONE_CHART, "'arity' must be an integer", 2),
    (["validate"], "[bundle]\ndegree = 1\n", "documents with bundle commands need charts", 1),
    (["validate"], ONE_CHART + "[map a -> c]\nX = x\n", "unknown chart 'c'", 4),
    (["validate"], TWO_CHARTS + "[chart c]\nz = weight 0\n",
     "desk-scale documents carry one or two charts", 1),
    (["validate"], TWO_CHARTS + "[map a -> b]\nX = x\nY = y\n",
     "two-chart documents need maps a -> b and b -> a", 1),
    (["check-q"], "[structure lie-tower]\nk = two\ndim = 1\n", "'k' must be an integer", 2),
    (["check-q"], prolong_text(2) + "bracket e1 e2 e1 = 1\n", "unknown fiber name 'e2'", 6),
    (["bracket"], ONE_CHART, "bracket documents declare a lie-tower structure", 1),
    (["linearise"], "[bundle]\narity = 0\n[chart a]\n", "'arity' must be at least 1", 2),
    (["validate"], "[bundle]\ndegree = -1\n" + ONE_CHART, "'degree' must be at least 0", 2),
    (["validate"], "[bundle]\narity = 0_1\n" + ONE_CHART,
     "'arity' must be written in plain decimal", 2),
    (["validate"], "[bundle]\ndegree = +1\n" + ONE_CHART,
     "'degree' must be written in plain decimal", 2),
    (["construct", "tk"], tk_text("0_2", 1), "'k' must be written in plain decimal", 2),
    (["construct", "tk"], tk_text(2, 1).replace("dim = 1", "dim = +1"),
     "'dim' must be written in plain decimal", 3),
    (["validate"], TWO_CHARTS.replace("y = weight 1", "y = weight \u0661") + MAPS,
     "chart entries read 'name = weight W [odd|even]', got 'weight \u0661'", 3),
    (["validate"], "[bundle]\narity = 2\n[chart a]\nx = weight (0, 0)\n"
     "y = weight (\u0661, 0)\n",
     "chart entries read 'name = weight W [odd|even]', got 'weight (\u0661, 0)'", 5),
    (["validate"], TWO_CHARTS.replace("y = weight 1", "y = weight 01") + MAPS,
     "weight '01' must be written in plain decimal", 3),
    (["validate"], bad_y("\u0662*y"), "cannot read expression near '\u0662*y'", 9),
    (["validate"], "[bundle]\narity = 2\n[chart a]\nx = weight (0, 0)\ny = weight (1 2)\n",
     "weight '1 2' must be an integer", 5),
    (["check-q"], "[structure lie-tower]\nk = 2\ndim = 2\nc 1 2 7 = 1\n",
     "index 7 is outside 1..2", 4),
    (["check-q"], "[structure lie-tower]\nk = 2\ndim = 2\nc 1 two 1 = 1\n",
     "'two' is not an integer", 4),
], ids=["empty-header", "empty-key", "chart-header", "map-header", "structure-kind",
        "unreadable", "unclosed", "trailing-token", "exponent", "zero-denominator",
        "leading-operator", "weight-entry", "arity-word", "no-charts", "unknown-chart",
        "three-charts", "one-map", "k-word", "unknown-fiber", "bracket-no-structure",
        "arity-zero", "degree-negative", "arity-underscore", "degree-plus", "k-underscore",
        "dim-plus", "arabic-indic-weight", "arabic-indic-weight-tuple", "zero-padded-weight",
        "arabic-indic-numeral", "weight-without-comma", "c-index-out-of-range", "c-index-word"])
def test_spec_rejections_name_their_line(tmp_path, capsys, command, text, message, line):
    err = run_cli_hostile(tmp_path, capsys, command, text)
    assert message in err and f"at line {line}," in err


def test_structure_kinds_agree():
    # a kind the parser accepts but the CLI cannot build would surface as a
    # failed construction instead of a spec error
    assert set(cli.STRUCTURES) - {None} == specfile._STRUCTURE_KINDS
    assert all(kind in cli.STRUCTURES for kind, _ in cli.CONSTRUCTS.values())


# ---------------------------------------------- [section] keys of bracket specs
SO3_K2 = "[structure lie-tower]\nk = 2\ndim = 3\nc 1 2 3 = 1\nc 2 3 1 = 1\nc 3 1 2 = 1\n"


def bracket_sections(first):
    return SO3_K2 + f"[section s1]\n{first}\n[section s2]\nY 2 = 1\n"


def test_section_level_not_an_integer_exit_two(tmp_path, capsys):
    err = run_cli_hostile(tmp_path, capsys, ["bracket"], bracket_sections("Z 2 one = 1"))
    assert "'one' is not an integer" in err and "line 8" in err


def test_section_fibre_index_out_of_range_exit_two(tmp_path, capsys):
    err = run_cli_hostile(tmp_path, capsys, ["bracket"], bracket_sections("Y 9 = 1"))
    assert "index 9 is outside 1..3" in err and "line 8" in err


def test_section_z_fibre_index_out_of_range_exit_two(tmp_path, capsys):
    err = run_cli_hostile(tmp_path, capsys, ["bracket"], bracket_sections("Z 9 1 = 1"))
    assert "index 9 is outside 1..3" in err and "line 8" in err


def test_section_level_out_of_range_exit_two(tmp_path, capsys):
    err = run_cli_hostile(tmp_path, capsys, ["bracket"], bracket_sections("Z 2 5 = 1"))
    assert "index 5 is outside 1..1" in err and "line 8" in err


def test_section_duplicate_key_exit_two(tmp_path, capsys):
    err = run_cli_hostile(tmp_path, capsys, ["bracket"],
                          bracket_sections("Y 1 = 1\nY 1 = 2"))
    assert "duplicate entry 'Y 1' in section s1" in err and "line 9" in err


def test_poisson_section_is_unknown_exit_two(tmp_path, capsys):
    err = run_cli_hostile(tmp_path, capsys, ["validate"],
                          TWO_CHARTS + "[poisson]\nP = 0\n")
    assert "unknown section kind 'poisson'" in err and "line 7" in err


# -------------------------------------------------- expression size while parsing
FOUR = {n: Variable("a", n, (0,), 0, i) for i, n in enumerate("xyzw")}


def test_product_above_term_bound_exit_two(tmp_path, capsys):
    err = run_cli_hostile(tmp_path, capsys, ["validate"], TWO_CHARTS + (
        "[map a -> b]\nX = (1 + x + y)^16 * (1 + x + y)^16\nY = y\n"
        "[map b -> a]\nx = X\ny = Y\n"
    ))
    assert f"more than {MAX_TERMS} terms" in err and "line 8" in err


def test_nested_power_above_term_bound_rejected():
    with pytest.raises(SpecSyntaxError) as err:
        parse_expression("x + ((x + y + z)^8)^2", FOUR, 3, 5)
    assert err.value.line == 3 and f"more than {MAX_TERMS} terms" in str(err.value)


def test_degree_64_power_exits_two_in_time(tmp_path):
    # without the bound this spec ran for more than a minute
    doc = tmp_path / "hostile.spec"
    doc.write_text(
        "[chart a]\nx = weight 0\ny = weight 0\nz = weight 0\nw = weight 0\n"
        "[chart b]\nX = weight 0\n"
        "[map a -> b]\nX = x + ((x + y + z + w)^16)^4\n"
        "[map b -> a]\nx = X\ny = X\nz = X\nw = X\n"
    )
    proc = run_cli_subprocess(["validate", "--spec", str(doc)], timeout=30)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert f"more than {MAX_TERMS} terms" in proc.stderr and "line 9" in proc.stderr


def test_square_of_a_large_power_rejected():
    with pytest.raises(SpecSyntaxError) as err:
        parse_expression("(x + y + z + w)^16 * (x + y + z + w)^16", FOUR, 1, 1)
    assert f"more than {MAX_TERMS} terms" in str(err.value)


def test_power_within_term_bound_parses():
    p = parse_expression("(x + y + z + w)^16", FOUR, 1, 1)
    assert len(p.terms) == 969 <= MAX_TERMS
