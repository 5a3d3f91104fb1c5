"""Deterministic verdict reports with text and JSON renderings.

``Report`` is the one report type: the CLI commands fill it, and so do the
library checks (``validate``, ``symmetry_report``, ``check_invariance``,
...), whose reports a command folds in with ``merge_validation``.
``Report.zero`` owns the residual rule of every identity the engine checks:
PASS when the residual polynomial is zero, else FAIL showing it.  Both
renderers print the fixed ``CONVENTIONS``.
"""

from __future__ import annotations

from .superalg import render

CONVENTIONS = (
    "coefficients: exact rationals",
    "derivatives: left convention",
    "odd bracket normalisation: (x,chi) = (pi,theta) = +1",
    "derived bracket: -[[s1,P],s2]",
    "jet normalisation: weight-r velocity = x^(r)/r!",
    "lie algebra field: Q(xi^c) = -1/2 c^c_ab xi^a xi^b",
)


class ReportItem:
    def __init__(self, check_id: str, verdict: str, residual: str = "", weights: str = ""):
        self.check_id = check_id
        self.verdict = verdict  # PASS / FAIL / INFO
        self.residual = residual
        self.weights = weights


class Report:
    def __init__(self, command: str = "", items: list[ReportItem] | None = None):
        self.command = command
        self.items = [] if items is None else items

    def add(self, check_id: str, ok: bool, residual: str = "", weights: str = ""):
        self.items.append(
            ReportItem(check_id, "PASS" if ok else "FAIL", residual, weights)
        )

    def zero(self, check_id: str, residual):
        """PASS when the polynomial ``residual`` is zero, else FAIL showing it."""
        ok = residual.is_zero()
        self.add(check_id, ok, "" if ok else render(residual))

    def info(self, check_id: str, value: str = "", weights: str = ""):
        self.items.append(ReportItem(check_id, "INFO", value, weights))

    def merge_validation(self, rep: "Report", prefix: str = ""):
        """Append the items of another report, their ids prefixed."""
        self.items.extend(
            ReportItem(prefix + i.check_id, i.verdict, i.residual, i.weights) for i in rep.items
        )

    @property
    def passed(self) -> bool:
        return all(i.verdict != "FAIL" for i in self.items)

    def failures(self) -> list[ReportItem]:
        return [i for i in self.items if i.verdict == "FAIL"]

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


def render_text(report: Report) -> str:
    lines = [f"command: {report.command}"]
    for c in CONVENTIONS:
        lines.append(f"convention: {c}")
    for item in report.items:
        line = f"{item.verdict:4}  {item.check_id}"
        if item.residual:
            line += f"  :: {item.residual}"
        if item.weights:
            line += f"  [weights {item.weights}]"
        lines.append(line)
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    # imported here: text mode, the default, never loads json
    import json

    payload = {
        "command": report.command,
        "conventions": list(CONVENTIONS),
        "checks": [
            {
                "check_id": i.check_id,
                "verdict": i.verdict,
                "residual": i.residual,
                "weights": i.weights,
            }
            for i in report.items
        ],
        "result": "PASS" if report.passed else "FAIL",
    }
    return json.dumps(payload, indent=2) + "\n"
