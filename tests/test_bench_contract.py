"""The names the benchmark binds to, and the demos, stay alive.

``perfbench/tracer.py`` wraps every public function of the engine's modules
and the methods listed in its ``METHODS``, looked up through
``cls.__dict__[attr]``; ``TIMED`` names the functions whose inclusive time it
reports.  A rename in the engine would break the benchmark only when it
runs, so these tests load the tracer by path and check both tables against
the live engine.  The benchmark's ``workloads.SHIPPED`` must name the
acceptance gate's commands, ``helpers.SHIPPED_COMMANDS``.  The demos run as
scripts on this checkout's ``src`` and print, byte for byte, their pinned
stdout ``tests/golden/demos/<name>.txt``.  The benchmark's own checks
(``perfbench/selftest.py``) run as a script too; they read ``p.terms`` and
build polynomials through the public constructor.  One seeded round of the jets and towers
tasks passes the benchmark's independent checks, which compare the engine
with ``perfbench/refalg.py``, and a traced round, with the tracer installed
in this process, reaches every ``TIMED`` function.  A demo prints the same
bytes under every hash seed.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from helpers import SHIPPED_COMMANDS, run_python_subprocess

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_GOLDEN_DIR = ROOT / "tests" / "golden" / "demos"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer in tracer.LAYERS:
        importlib.import_module(f"gradedbundles.{layer}")
    return tracer


def test_every_traced_method_resolves():
    tracer = load_tracer()
    targets = list(tracer.Tracer()._targets())
    methods = {(owner.__name__, attr) for _, _, owner, attr, _ in targets if owner is not None}
    expected = {key for table in tracer.METHODS.values() for key in table}
    assert methods == expected


def test_every_timed_key_names_a_live_public_function():
    tracer = load_tracer()
    keys = {key for _, key, _, _, _ in tracer.Tracer()._targets()}
    assert tracer.TIMED <= keys, sorted(tracer.TIMED - keys)


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded by path for one test."""
    # workloads.py imports its sibling refalg.py as a top-level module
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_runs_the_acceptance_gate_commands(workloads):
    assert workloads.SHIPPED == SHIPPED_COMMANDS


@pytest.mark.parametrize("name", ["jets", "towers"])
def test_benchmark_tasks_pass_the_independent_checks(workloads, name):
    inputs = getattr(workloads, f"{name}_inputs")(1)
    task, check = getattr(workloads, f"{name}_task"), getattr(workloads, f"check_{name}")
    for inp in inputs:
        assert check(inp, task(inp)) == []


def test_traced_tasks_time_every_timed_function(workloads, capsys):
    # the tracer wraps the engine in place, as a traced benchmark run does,
    # and each TIMED function is reached by one task or the CLI
    tracer = load_tracer()
    from gradedbundles import cli

    jets, towers = workloads.jets_inputs(1)[0], workloads.towers_inputs(1)[0]
    tr = tracer.Tracer()
    tr.install([workloads])
    try:
        for task, item in ((workloads.jets_task, jets), (workloads.towers_task, towers)):
            with tr.task():
                task(item)
        with tr.task():
            code = cli.main(["validate", "--spec", str(ROOT / "specs" / "degree2.spec")])
    finally:
        tr.uninstall()
    assert code == 0, capsys.readouterr().err
    assert sorted(key for key in tracer.TIMED if not tr.counts[key]) == []


def test_benchmark_selftest_passes():
    proc = run_python_subprocess([str(ROOT / "perfbench" / "selftest.py")], timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_demo_golden_has_a_demo():
    assert sorted(p.name for p in DEMO_GOLDEN_DIR.iterdir()) == [f"{d.stem}.txt" for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python_subprocess([str(demo)], timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.encode() == (DEMO_GOLDEN_DIR / f"{demo.stem}.txt").read_bytes()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_does_not_depend_on_the_hash_seed(demo):
    # under seed 5 a set of section keys once iterated in another order
    outputs = set()
    for seed in ("0", "1", "5"):
        proc = run_python_subprocess([str(demo)], seed=seed, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
