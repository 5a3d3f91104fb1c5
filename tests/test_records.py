"""The engine's record classes and what the CLI loads at start-up.

Records (``Report``, ``Provenance``, ``Section``, ``WeightedAlgebroid``, ...)
are plain classes with hand-written constructors, so importing the CLI
loads neither ``dataclasses`` nor the ``inspect`` machinery it pulls in,
and ``json`` is loaded only to render ``--format json``.  The CLI reads its
command line itself, so a text-mode command loads neither ``argparse`` nor
the ``gettext`` and ``locale`` modules that argparse pulls in.
"""

import pathlib

import pytest

from gradedbundles.algebroid import WeightedAlgebroid
from gradedbundles.bundle import Provenance
from gradedbundles.constructions import StructureConstants, lie_tower
from gradedbundles.report import Report
from gradedbundles.specfile import Entry, Section
from gradedbundles.superalg import EVEN, Variable
from helpers import run_python_subprocess

SPEC = pathlib.Path(__file__).resolve().parent.parent / "specs" / "degree2.spec"

START_UP_SCRIPT = """
import sys
HEAVY = ("argparse", "dataclasses", "gettext", "inspect", "json", "locale")
from gradedbundles.cli import main
print(sorted(m for m in HEAVY if m in sys.modules))
code = main(["validate", "--spec", sys.argv[1]])
print(sorted(m for m in HEAVY if m in sys.modules), code)
"""


def test_cli_start_up_loads_no_dataclasses_inspect_or_json():
    proc = run_python_subprocess(["-c", START_UP_SCRIPT, str(SPEC)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[] 0"


def test_mutable_defaults_are_fresh_per_instance():
    a, b = Report(), Report()
    a.add("check", True)
    assert b.items == [] and a.items is not b.items
    p, q = Provenance(), Provenance()
    p.maps["role"] = []
    assert q.maps == {} and (q.tag, q.source) == ("declared", None)
    s, t = Section("chart", ("A",)), Section("chart", ("B",))
    s.entries.append(Entry(("x",), "weight 0", 1, 1))
    assert t.entries == [] and t.line == 0


def test_records_take_their_fields_by_keyword():
    c = StructureConstants(dim=3, c={(1, 2, 3): 1})
    assert c.value(2, 1, 3) == -1
    alg = lie_tower(c, 2)
    assert (alg.poisson_data, alg.poisson_residual) == (None, None)
    assert alg.carrier.provenance.source.constants is c
    P = alg.hamiltonian.poly
    copy = WeightedAlgebroid(alg.phase, alg.q, poisson_data=P)
    assert copy.poisson_data is P and copy.poisson_residual is None
    again = WeightedAlgebroid.from_q(alg.q, poisson_residual=P)
    assert again.kind == alg.kind and again.poisson_residual is P
    report = Report(command="validate", items=[])
    assert report.command == "validate" and report.passed


def test_variable_is_immutable():
    v = Variable("u", "x", (0,), EVEN, 0)
    before = hash(v)
    with pytest.raises(AttributeError):
        v.name = "y"
    with pytest.raises(AttributeError):
        v._hash = 0
    with pytest.raises(AttributeError):
        del v.weight
    assert v.name == "x" and hash(v) == before == hash(("u", "x", (0,), EVEN, 0))
