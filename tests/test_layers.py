"""The package's layering: each module imports only from the modules below it.

Every import statement of a module counts, wherever it stands: at the top,
inside a function or under ``if TYPE_CHECKING:``.  The names the package
exports are pinned as well.
"""

import ast
import pathlib
import types

import pytest

import gradedbundles

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


# the names ``import gradedbundles`` exports; a removal or addition shows here
PUBLIC_API = [
    "AlgebroidData", "AlgebroidHamiltonian", "AlgebroidSection", "ChartMap",
    "CoordinateMismatch", "CoordinateSystem", "Derivation", "GLBundle", "GradedBundle",
    "GradedMorphism", "HomologicalField", "IllDefinedProjection", "MalformedQ",
    "NonlinearFiber", "NotALinearisation", "NotSymmetric", "OddPhaseSpace",
    "OddPoissonSpace", "ParityMismatch", "PolynomialDiffeo", "Provenance",
    "StructureConstants", "SuperPolynomial", "TowerSection", "TransitionMap", "Variable",
    "WeightViolation", "WeightedAlgebroid", "abelian", "algebroid_from_coefficients",
    "anchor", "apply", "bundles_structurally_equal", "check_weighted_algebroid",
    "commutator", "complete_lift", "compose_morphisms", "contragredient",
    "core_submanifold", "cotangent_algebroid", "cotangent_bundle", "derived_bracket",
    "embedding_compatibility", "epsilon_components", "extract_coefficients",
    "heisenberg3", "higher_tangent", "holonomic_embedding", "identity_morphism",
    "is_symmetric", "lie_tower", "linear_dual", "linear_poisson", "linearise",
    "linearise_morphism", "mironian", "mironian_report", "p_from_q", "pairing",
    "parity_reverse", "partial", "partial_right", "point_algebroid",
    "project_tower", "prolongation_algebroid", "prolongation_roles", "q_from_p", "rechart",
    "reconstruct", "reduced_bracket", "render", "restrict", "restrict_to_A1",
    "rho_hat", "single_chart_bundle", "sl2", "so3", "substitute", "symmetry_report",
    "tangent_algebroid", "tangent_bundle", "tm_algebroid", "tower_section_polynomial",
    "two_chart_bundle", "validate", "vertical_bundle", "weight_of", "weight_vector_field",
    "weighted_lie_algebra_check",
]


def test_public_api():
    assert sorted(name for name, obj in vars(gradedbundles).items()
                  if not name.startswith("_") and not isinstance(obj, types.ModuleType)) \
        == PUBLIC_API
