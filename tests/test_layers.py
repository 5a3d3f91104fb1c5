"""The package's layering: each module imports only from the modules below it.

Every import statement of a module counts, wherever it stands: at the top,
inside a function or under ``if TYPE_CHECKING:``.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gradedbundles"
LAYERS = ["superalg", "report", "bundle", "linfun", "algebroid", "constructions", "specfile",
          "cli"]


def package_imports(module: str) -> list[tuple[str, int]]:
    """The package modules ``module`` imports, each with its line."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.append((node.module.split(".")[0], node.lineno))
            elif node.level == 1:
                out += [(alias.name, node.lineno) for alias in node.names]
            elif node.module and node.module.startswith("gradedbundles."):
                out.append((node.module.split(".")[1], node.lineno))
        elif isinstance(node, ast.Import):
            out += [(alias.name.split(".")[1], node.lineno) for alias in node.names
                    if alias.name.startswith("gradedbundles.")]
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_lower_layers(module):
    upward = [f"{module}.py:{line} imports {name}" for name, line in package_imports(module)
              if LAYERS.index(name) >= LAYERS.index(module)]
    assert not upward
