"""Golden reports: each shipped command's stdout, byte for byte.

``tests/golden/<spec stem>.<command words joined by '-'>.<txt|json>`` holds
the report of one acceptance-gate command, or of one command in
``EXTRA_COMMANDS``, in ``--format text`` or ``--format json``.  The reports
of ``FAILING_SPECS`` pin FAIL items with their residuals, and exit 1.  Any
change to the algebra core, the constructions or the renderers must leave
these files byte-identical.  Each case runs in a fresh interpreter under its
own ``PYTHONHASHSEED``, so set iteration order cannot leak into a report
unnoticed.
"""

import pathlib

import pytest

from helpers import SHIPPED_COMMANDS, run_cli_subprocess

TESTS_DIR = pathlib.Path(__file__).resolve().parent
SPEC_DIR = TESTS_DIR.parent / "specs"
GOLDEN_DIR = TESTS_DIR / "golden"
HASH_SEEDS = ("0", "1", "7", "42", "1234")
# The golden files of tests/test_atlas_golden.py, tests/test_algebroid_golden.py
# and tests/test_provenance_golden.py, and the directory of the demos' stdout,
# which tests/test_bench_contract.py pins.
STRUCTURE_GOLDENS = {"atlas.json", "algebroids.json", "provenance.json", "demos"}

# Commands pinned beyond the acceptance gate.
EXTRA_COMMANDS = [
    ("degree2.spec", ["construct", "tangent"]),
    ("degree3.spec", ["construct", "tangent"]),
    ("so3-tower.spec", ["construct", "lie-tower"]),
    ("degree3.spec", ["validate"]),
    ("degree3.spec", ["mironian"]),
    ("degree3.spec", ["embed"]),
    ("degree2.spec", ["check-q"]),
    ("t2m-shear.spec", ["check-q"]),
    ("prolong-tm.spec", ["check-q"]),
    ("cotangent-so3.spec", ["check-q"]),
    ("nonjacobi-tower.spec", ["check-q"]),
    ("nonjacobi-tower.spec", ["construct", "lie-tower"]),
    ("nonjacobi-cotangent.spec", ["construct", "cotangent"]),
    ("degree2-wrong-inverse.spec", ["validate"]),
    ("odd-degree2.spec", ["linearise"]),
    ("odd-degree2.spec", ["dual"]),
    ("odd-degree3.spec", ["linearise"]),
    ("odd-degree3.spec", ["dual"]),
    ("odd-degree2.spec", ["construct", "tangent"]),
    ("odd-degree3.spec", ["construct", "tangent"]),
]
# Specs whose reports pin FAIL items and their residuals; they exit 1.
FAILING_SPECS = {"nonjacobi-tower.spec", "nonjacobi-cotangent.spec",
                 "degree2-wrong-inverse.spec"}

CASES = [
    (name, command, fmt, ext)
    for name, command in SHIPPED_COMMANDS + EXTRA_COMMANDS
    for fmt, ext in (("text", "txt"), ("json", "json"))
]


def golden_path(name, command, ext):
    return GOLDEN_DIR / f"{name[:-len('.spec')]}.{'-'.join(command)}.{ext}"


def test_every_golden_file_has_a_case():
    expected = {golden_path(n, c, e).name for n, c, _, e in CASES} | STRUCTURE_GOLDENS
    assert {p.name for p in GOLDEN_DIR.iterdir()} == expected


@pytest.mark.parametrize(
    "name,command,fmt,ext", CASES,
    ids=[f"{n[:-len('.spec')]}-{'-'.join(c)}-{f}" for n, c, f, _ in CASES],
)
def test_report_matches_golden(name, command, fmt, ext):
    seed = HASH_SEEDS[CASES.index((name, command, fmt, ext)) % len(HASH_SEEDS)]
    proc = run_cli_subprocess(
        [*command, "--spec", str(SPEC_DIR / name), "--format", fmt], seed=seed
    )
    assert proc.returncode == (1 if name in FAILING_SPECS else 0), proc.stdout + proc.stderr
    assert proc.stdout.encode() == golden_path(name, command, ext).read_bytes()
