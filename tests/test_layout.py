"""Guard against test-only code: every public function, class or method of
the package is named somewhere in the package besides its definition, or is
listed in TEST_ONLY as a reference that only the tests call."""

import ast
import re
from collections import Counter
from pathlib import Path

import magschro

SRC = Path(magschro.__file__).parent

TEST_ONLY = {
    "emit": "config serialization, the inverse of parse in the roundtrip test",
    "full_field": "one snapshot on the full grid, the oracle for the snapshot export",
    "prepare_smooth_initial": "states in D(A^k), the inverse-iteration fixture",
    "vanishes_on": "the potential's support predicate, checked against its samples",
    "hermitian_residual": "skew-adjointness oracle for the assembled generators",
    "dissipativity_margin": "dissipativity oracle for the assembled generators",
    "flat_index": "grid multi-index to flat node index, for hand-built fixtures",
    "check_green_identity": "discrete magnetic Green formula, the oracle for the assembled stiffness",
    "poincare_constant": "the discrete Poincare constant of acceptance criterion 5",
    "consistency_residual": "finite-difference oracle for the radial multiplier field",
    "observed_ratio": "one state's observed energy, the Rayleigh oracle for the Gramian",
    "resolvent_solve": "one resolvent solve with identity residuals, the resolvent oracle",
    "refinement_trend": "grid-refinement trend of resolvent norms (planned CLI home)",
    "spectral_distance_norms": "1/dist(i mu, spectrum), the normal-operator oracle (planned CLI home)",
    "derivative_consistency": "finite-difference oracle for weight gradients and Hessians",
}


def _public_definitions(tree):
    """Public top-level functions and classes, and public methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name


def unreferenced_public_names():
    """Public names whose every occurrence in the package is a definition."""
    texts = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    defined = Counter(name for text in texts for name in _public_definitions(ast.parse(text)))
    return {name for name, count in defined.items()
            if sum(len(re.findall(rf"\b{name}\b", text)) for text in texts) <= count}


def test_public_names_are_used_or_listed():
    found = unreferenced_public_names()
    grown = sorted(found - set(TEST_ONLY))
    assert not grown, (
        f"public names that only their definitions mention: {grown}; give each a "
        "caller (a CLI kind with a verdict) or delete it")
    stale = sorted(set(TEST_ONLY) - found)
    assert not stale, f"TEST_ONLY names now used by the package: {stale}"
