"""The whole engine on the frozen reference core, against the live core.

``reference_core`` completes the frozen ``reference_superalg`` to the
``superalg`` API by textbook formulas.  Run as a script with ``reference``,
this module installs it as ``gradedbundles.superalg`` before the package is
imported, then prints as one JSON object every golden CLI report (with its
exit code), the stdout of every demo, the three structure goldens built in
``tests/``, the outputs of one seed of the ``jets`` and ``towers``
benchmark workloads and the duals of the first seeds of
``helpers.random_odd_bundle``.  With ``live`` it prints the same from the
live core.  The test runs both in subprocesses, so this process's modules
are untouched, and compares them byte for byte; the live run must
reproduce the goldens.
"""

import ast
import contextlib
import io
import json
import pathlib
import random
import re
import runpy
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
UPPER_LAYERS = [p for p in sorted((ROOT / "src" / "gradedbundles").glob("*.py"))
                if p.stem != "superalg"]
# module with snapshot() and dump(), and the golden file it writes
STRUCTURES = {"test_atlas_golden": "atlas.json", "test_algebroid_golden": "algebroids.json",
              "test_provenance_golden": "provenance.json"}
# one seed of each in-process benchmark workload and the first seeds of the
# random odd bundles; these have no golden file
BENCH_SEED = 1
ODD_SEEDS = range(3)
SEEDED = (f"jets seed {BENCH_SEED}", f"towers seed {BENCH_SEED}",
          *(f"odd seed {seed}" for seed in ODD_SEEDS))


def superalg_imports():
    """The names the upper layers import from ``superalg``."""
    names = set()
    for path in UPPER_LAYERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "superalg":
                names.update(alias.name for alias in node.names)
    return names


def run_all() -> dict[str, str]:
    from gradedbundles import bundle, cli
    from test_golden import CASES, SPEC_DIR, golden_path

    # the module the engine's layers bound, to show which core ran
    out = {"core": bundle.ChartMap.__module__}
    for name, command, fmt, ext in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([*command, "--spec", str(SPEC_DIR / name), "--format", fmt])
        out[golden_path(name, command, ext).name] = f"exit {code}\n{buf.getvalue()}"
    for demo in sorted((ROOT / "demos").glob("*.py")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            runpy.run_path(str(demo), run_name="__main__")
        out[f"demos/{demo.stem}.txt"] = buf.getvalue()
    for module, golden in STRUCTURES.items():
        m = __import__(module)
        out[golden] = m.dump(m.snapshot())
    records = [jets_records(), towers_records(), *map(odd_record, ODD_SEEDS)]
    out.update(zip(SEEDED, map(json.dumps, records)))
    return out


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def jets_records():
    """T^k M of each jets input, its linearisation, dual and pairing, and the
    tangent algebroid's verdict; its carrier's atlas is read after the
    verdict, so its transitions are built then, as they would be after the
    benchmark's task."""
    from gradedbundles import constructions, linfun
    from test_atlas_golden import atlas, pairing_record

    workloads = _workloads()
    records = []
    for inp in workloads.jets_inputs(BENCH_SEED):
        tk = constructions.higher_tangent(inp.phi, workloads.JETS_K)
        lin = linfun.linearise(tk)
        dual = linfun.linear_dual(tk, lin)
        algebroid = constructions.tangent_algebroid(tk)
        records.append({"T^k M": atlas(tk), "linearise": atlas(lin), "linear_dual": atlas(dual),
                        "pairing": pairing_record(linfun.pairing(tk, dual)),
                        "kind": algebroid.kind})
        records[-1]["carrier"] = atlas(algebroid.carrier)
    return records


def towers_records():
    """Each towers case's verdict, Hamiltonian and reduced bracket, and
    whether it equals the derived bracket."""
    from gradedbundles.constructions import lie_tower
    from gradedbundles.superalg import render

    workloads = _workloads()
    records = []
    for pair in workloads.towers_inputs(BENCH_SEED):
        for case, out in zip(pair, workloads.towers_task(pair)):
            tower = lie_tower(case.engine_constants, workloads.TOWERS_K)
            reduced = out["reduced"]
            records.append({"kind": out["kind"], "agrees": out["agrees"],
                            "hamiltonian": render(tower.hamiltonian.poly),
                            "Y": {n: render(p) for n, p in sorted(reduced.Y.items())},
                            "Z": {f"{n} {r}": render(p) for (n, r), p in sorted(reduced.Z.items())}})
    return records


def odd_record(seed):
    """The random odd bundle of ``seed``: its linearisation D(F), dual D*(F)
    and pairing with its invariance report, and the parity reversals of D(F)
    and D*(F)."""
    from gradedbundles import linfun
    from gradedbundles.report import render_text
    from helpers import random_odd_bundle
    from test_atlas_golden import atlas, pairing_record

    F = random_odd_bundle(random.Random(seed), name=f"odd{seed}")
    lin = linfun.linearise(F)
    dual = linfun.linear_dual(F, lin)
    result = linfun.pairing(F, dual)
    return {"linearise": atlas(lin), "linear_dual": atlas(dual),
            "pairing": pairing_record(result),
            "invariance": render_text(result.check_invariance()),
            "parity_reverse D": atlas(linfun.parity_reverse(lin)),
            "parity_reverse D*": atlas(linfun.parity_reverse(dual))}


def test_reference_core_covers_every_superalg_import():
    import reference_core
    from gradedbundles.superalg import SuperPolynomial

    assert sorted(n for n in superalg_imports() if not hasattr(reference_core, n)) == []
    # and every method of the live polynomial that the upper layers call
    source = "".join(path.read_text() for path in UPPER_LAYERS)
    called = {a for a in vars(SuperPolynomial) if not a.startswith("_")
              and re.search(rf"\.{a}\(", source)}
    assert sorted(a for a in called if not hasattr(reference_core.SuperPolynomial, a)) == []


def test_engine_on_the_frozen_core_matches_the_live_core():
    from helpers import run_python_subprocess

    runs = {}
    for core in ("live", "reference"):
        proc = run_python_subprocess([__file__, core], seed="0", timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[core] = json.loads(proc.stdout)
    live, ref = runs["live"], runs["reference"]
    assert (live.pop("core"), ref.pop("core")) == ("gradedbundles.superalg", "reference_core")
    for name, text in live.items():
        if name in SEEDED:
            continue
        expected = GOLDEN_DIR / name
        body = text.split("\n", 1)[1] if text.startswith("exit ") else text
        assert body == expected.read_text(), name
    assert list(ref) == list(live)
    assert [name for name in live if ref[name] != live[name]] == []


if __name__ == "__main__":
    if sys.argv[1] == "reference":
        import reference_core

        sys.modules["gradedbundles.superalg"] = reference_core
        import gradedbundles

        # a submodule already in sys.modules is not bound on its package,
        # and the benchmark's workloads read gradedbundles.superalg
        gradedbundles.superalg = reference_core
    sys.stdout.write(json.dumps(run_all()))
