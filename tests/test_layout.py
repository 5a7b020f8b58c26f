"""The library imports from scipy only what its estimators run on.

Quadrature and root finding serve the test oracles under tests/; an import
of scipy.integrate or scipy.optimize in src/npinfer means an oracle has
moved back into the library.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "npinfer"

ALLOWED = {("scipy.special", "ndtri"), ("scipy.linalg", "lapack"), ("scipy.linalg", "LinAlgError")}


def _scipy_imports(path):
    """(module, name) of every scipy import in the file, in-function ones included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.startswith("scipy"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            yield from ((node.module, alias.name) for alias in node.names)


def test_library_imports_only_ndtri_and_lapack_from_scipy():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no modules under {SRC}"
    unexpected = [
        f"{path.name}: {module}.{name}"
        for path in files
        for module, name in _scipy_imports(path)
        if (module, name) not in ALLOWED
    ]
    assert not unexpected
