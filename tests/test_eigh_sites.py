"""Only two functions of the package call a dense symmetric eigensolver.

``linalg.sym_eigendecompose`` factors K/n and ``synthetic.psd_eigh`` factors
a covariance; every other eigendecomposition must go through one of them, so
the conventions (descending K/n spectrum, one PSD tolerance) live in one
place each. This parses each module under ``src/kmse`` with ``ast`` and lists
the function around each call of ``eigh`` or ``eigvalsh``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kmse"
ALLOWED = {("linalg.py", "sym_eigendecompose"), ("synthetic.py", "psd_eigh")}
SOLVERS = {"eigh", "eigvalsh"}


def eigensolver_sites(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing function qualified name, line) of each eigensolver call."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in SOLVERS:
                    sites.append((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(tree, ())
    return sites


def test_eigensolvers_called_only_by_the_two_factorizations():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, line in eigensolver_sites(tree):
            if (path.name, scope) not in ALLOWED:
                stray.append(f"{path.name}:{line} in {scope}")
    assert not stray, f"eigensolver calls outside the shared factorizations: {', '.join(stray)}"


def test_detects_calls_in_methods_and_at_module_level():
    tree = ast.parse(
        "import numpy as np\n"
        "from scipy.linalg import eigh\n"
        "class A:\n"
        "    def f(self, m):\n"
        "        return np.linalg.eigvalsh(m)\n"
        "def g(m):\n"
        "    return eigh(m)\n"
        "np.linalg.eigh(np.eye(2))\n"
        "np.linalg.eig(np.eye(2))\n"
    )
    assert eigensolver_sites(tree) == [("A.f", 5), ("g", 7), ("<module>", 8)]
