"""Only two functions of the package call a dense symmetric eigensolver, and
one calls a Cholesky factorization.

``linalg.sym_eigendecompose`` factors K/n and ``synthetic.psd_eigh`` factors
a covariance; every other eigendecomposition must go through one of them, so
the conventions (descending K/n spectrum, one PSD tolerance) live in one
place each. ``linalg.spd_factor`` is the one Cholesky site, so every SPD
solve shares its checks and its definiteness error. This parses each module
under ``src/kmse`` with ``ast`` and lists the function around each call of
``eigh`` or ``eigvalsh`` (or of ``cho_factor`` or ``cholesky``).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kmse"
ALLOWED = {("linalg.py", "sym_eigendecompose"), ("synthetic.py", "psd_eigh")}
SOLVERS = {"eigh", "eigvalsh"}
CHOLESKY_ALLOWED = {("linalg.py", "spd_factor")}
CHOLESKY = {"cho_factor", "cholesky"}


def call_sites(tree: ast.Module, solvers=SOLVERS) -> list[tuple[str, int]]:
    """(enclosing function qualified name, line) of each call of ``solvers``."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in solvers:
                    sites.append((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(tree, ())
    return sites


def stray_sites(solvers, allowed) -> list[str]:
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, line in call_sites(tree, solvers):
            if (path.name, scope) not in allowed:
                stray.append(f"{path.name}:{line} in {scope}")
    return stray


def test_eigensolvers_called_only_by_the_two_factorizations():
    stray = stray_sites(SOLVERS, ALLOWED)
    assert not stray, f"eigensolver calls outside the shared factorizations: {', '.join(stray)}"


def test_cholesky_called_only_by_spd_factor():
    stray = stray_sites(CHOLESKY, CHOLESKY_ALLOWED)
    assert not stray, f"Cholesky calls outside linalg.spd_factor: {', '.join(stray)}"


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
    assert call_sites(tree) == [("A.f", 5), ("g", 7), ("<module>", 8)]


def test_detects_cholesky_calls():
    tree = ast.parse(
        "import numpy as np\n"
        "import scipy.linalg\n"
        "def f(m):\n"
        "    return scipy.linalg.cho_factor(m)\n"
        "np.linalg.cholesky(np.eye(2))\n"
        "scipy.linalg.cho_solve((np.eye(2), True), np.ones(2))\n"
    )
    assert call_sites(tree, CHOLESKY) == [("f", 4), ("<module>", 5)]
