"""The benchmark's own tests: every check accepts the engine's real output
and rejects a planted wrong result.

    python3 perfbench/selftest.py

Run from the root of a gradedbundles checkout.  The file name keeps it out of
the repository's pytest collection; it uses only the standard library.
"""

import contextlib
import io
import sys
import unittest
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from gradedbundles import cli as engine_cli  # noqa: E402
from gradedbundles.superalg import SuperPolynomial  # noqa: E402


def bump_first_coefficient(p):
    """The same polynomial with one coefficient changed by one."""
    terms = dict(p.terms)
    m = sorted(terms, key=repr)[0]
    terms[m] += 1
    return SuperPolynomial(terms)


def run_cli(cmd):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = engine_cli.main(cmd.argv)
    return code, out.getvalue(), err.getvalue()


class JetsChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inp = workloads.jets_inputs(0)[0]

    def setUp(self):
        self.out = workloads.jets_task(self.inp)

    def test_accepts_engine_output(self):
        self.assertEqual(workloads.check_jets(self.inp, self.out), [])

    def test_rejects_changed_forward_coefficient(self):
        t = self.out["tk"].transitions[(0, 1)]
        var = next(v for v in t.forward if v.name == "X2_1")
        t.forward[var] = bump_first_coefficient(t.forward[var])
        problems = workloads.check_jets(self.inp, self.out)
        self.assertTrue(any("X2_1" in p for p in problems), problems)

    def test_rejects_changed_inverse_coefficient(self):
        t = self.out["tk"].transitions[(0, 1)]
        var = next(v for v in t.inverse if v.name == "x3_3")
        t.inverse[var] = bump_first_coefficient(t.inverse[var])
        problems = workloads.check_jets(self.inp, self.out)
        self.assertTrue(any("x3_3" in p for p in problems), problems)

    def test_rejects_dual_on_wrong_bundle(self):
        # the dual of T^{k-1}M has the wrong bi-weights for T^k M
        gb = workloads._engine()
        low = gb.constructions.higher_tangent(self.inp.phi, workloads.JETS_K - 1)
        self.out["dual"] = gb.linfun.linear_dual(low)
        problems = workloads.check_jets(self.inp, self.out)
        self.assertTrue(any("bi-weights" in p for p in problems), problems)

    def test_rejects_each_flipped_verdict(self):
        for key, bad in (("valid", False), ("symmetric", False),
                         ("invariant", False), ("kind", "skew")):
            out = dict(self.out, **{key: bad})
            self.assertEqual(len(workloads.check_jets(self.inp, out)), 1, key)


class TowersChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pair = workloads.towers_inputs(0)[0]

    def setUp(self):
        self.outs = workloads.towers_task(self.pair)

    def test_accepts_engine_output(self):
        self.assertEqual([o["kind"] for o in self.outs], ["lie", "skew"])
        self.assertEqual(workloads.check_towers(self.pair, self.outs), [])

    def test_rejects_flipped_jacobi_verdict(self):
        for i, flipped in enumerate(("skew", "lie")):
            outs = [dict(o) for o in self.outs]
            outs[i]["kind"] = flipped
            problems = workloads.check_towers(self.pair, outs)
            self.assertTrue(any("Jacobi" in p for p in problems), problems)

    def test_rejects_changed_bracket_component(self):
        reduced = self.outs[0]["reduced"]
        reduced.Y["2"] = bump_first_coefficient(reduced.Y["2"])
        problems = workloads.check_towers(self.pair, self.outs)
        self.assertTrue(any("component 2" in p for p in problems), problems)

    def test_rejects_derived_bracket_mismatch(self):
        self.outs[1]["agrees"] = False
        problems = workloads.check_towers(self.pair, self.outs)
        self.assertTrue(any("derived" in p for p in problems), problems)

    def test_componentwise_formula_is_independent_of_the_engine(self):
        # antisymmetry of the reference bracket at a point
        case = self.pair[0]
        s1, s2 = case.sections
        y12, z12 = workloads.componentwise_bracket_at(
            case.constants, workloads.TOWERS_DIM, s1, s2, case.point)
        y21, z21 = workloads.componentwise_bracket_at(
            case.constants, workloads.TOWERS_DIM, s2, s1, case.point)
        self.assertEqual({k: -v for k, v in y21.items()}, y12)
        self.assertEqual({k: -v for k, v in z21.items()}, z12)


class CliChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = run.Cli(0, ROOT)
        cls.cmds = {c.label: c for c in cls.bench.items}

    def cmd(self, prefix):
        return next(c for label, c in self.cmds.items() if label.startswith(prefix))

    def test_accepts_every_non_hostile_command(self):
        for cmd in self.bench.items:
            if cmd.kind != "hostile":
                code, out, err = run_cli(cmd)
                self.assertEqual(workloads.check_cli(cmd, code, out, err), [], cmd.label)

    def test_rejects_changed_bracket_result(self):
        cmd = self.cmd("bracket gen-bracket")
        code, out, err = run_cli(cmd)
        lines = out.splitlines()
        i = next(i for i, l in enumerate(lines) if l.startswith("INFO  result Y 1 = "))
        lines[i] += " + 1"
        problems = workloads.check_cli(cmd, code, "\n".join(lines) + "\n", err)
        self.assertTrue(any("componentwise" in p for p in problems), problems)

    def test_rejects_fail_verdict_and_exit_code(self):
        cmd = self.cmd("construct tk gen-tk")
        code, out, err = run_cli(cmd)
        self.assertTrue(workloads.check_cli(cmd, code, out.replace("PASS", "FAIL", 1), err))
        self.assertTrue(workloads.check_cli(cmd, 1, out, err))

    def test_rejects_unparsable_json(self):
        cmd = self.cmd("check-q gen-gl2-tower")
        code, out, err = run_cli(cmd)
        problems = workloads.check_cli(cmd, code, out[:-3], err)
        self.assertTrue(any("JSON" in p for p in problems), problems)

    def test_rejects_stdout_that_changes_between_repeats(self):
        cmd = self.cmd("validate degree2")
        code, out, err = run_cli(cmd)
        stats = run.Stats()
        for text in (out, out, out.replace("convention:", "convention: ", 1)):
            child = run.Child(code, text, err, "", 0.1, 0.1, 1000, 0.0)
            self.bench._record(stats, cmd, child, (1.0, 1.0))
        self.assertEqual(len(stats.problems), 1, stats.problems)
        self.assertIn("differs between repeats", stats.problems[0])

    def test_hostile_spec_counts_only_a_located_exit_2(self):
        self.assertTrue(workloads.hostile_handled(2, "error: bad index at line 4, column 1"))
        self.assertFalse(workloads.hostile_handled(2, "error: bad index"))
        self.assertFalse(workloads.hostile_handled(1, "at line 4"))


class Reference(unittest.TestCase):
    def test_rendered_polynomials_read_back(self):
        from gradedbundles.bundle import CoordinateSystem
        from gradedbundles.superalg import render

        from refalg import Poly, read_rendered

        chart = CoordinateSystem([("y1_1", 0, 0), ("y2_1", 0, 0)])
        x, y = Poly.var("y1_1"), Poly.var("y2_1")
        p = x * x * Fraction(-3, 2) + x * y * 5 - 7 + y
        engine = p.evaluate({v.name: chart.var(v.name) for v in chart.variables},
                            SuperPolynomial.constant(1))
        self.assertEqual(read_rendered(render(engine)), p)


if __name__ == "__main__":
    unittest.main()
