"""Only two functions of the package call a dense symmetric eigensolver, and
one calls a Cholesky factorization.

``linalg.sym_eigendecompose`` factors K/n and ``synthetic.psd_eigh`` factors
a covariance; every other eigendecomposition must go through one of them, so
the conventions (descending K/n spectrum, one PSD tolerance) live in one
place each. ``linalg.spd_factor`` is the one Cholesky site, so every SPD
solve shares its checks and its definiteness error; its only callers are
``estimators.iterated_tikhonov_weights``, which also makes the fixed
Tikhonov solve, and ``linalg.solve_spd``. This parses each module
under ``src/kmse`` with ``ast`` and lists the function around each call of
``eigh`` or ``eigvalsh`` (or of ``cho_factor`` or ``cholesky``).

Every call into ``scipy.linalg`` must also sit inside a ``with
_ONE_BLAS_THREAD:`` block, which runs scipy's OpenBLAS on one thread; an
unscoped call would wake scipy's thread pool next to numpy's.

Two more rules have one site each: ``errors.require_positive`` is the one
"positive and finite" parameter check, and ``filters.two_term_steps`` is the
one caller of ``nu_method_coefficients``, the nu-method step schedule.

Selectors read a ladder only through ``selection._check_ladder``: no module
indexes ``ladder[0]`` to guess a family, and no function in ``selection``
but the check reads the varied field (``lam``, ``iters`` or ``threshold``)
of a spec. The one other read is the fixed solve count of an iterated
Tikhonov ladder, ``last.iters`` in ``loocv_select_lambda``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kmse"
ALLOWED = {("linalg.py", "sym_eigendecompose"), ("synthetic.py", "psd_eigh")}
SOLVERS = {"eigh", "eigvalsh"}
CHOLESKY_ALLOWED = {("linalg.py", "spd_factor")}
CHOLESKY = {"cho_factor", "cholesky"}
SPD_FACTOR_ALLOWED = {("estimators.py", "iterated_tikhonov_weights"), ("linalg.py", "solve_spd")}


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


SCOPE = "_ONE_BLAS_THREAD"


def _dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def unscoped_scipy_linalg_calls(tree: ast.Module) -> list[int]:
    """Lines of calls into ``scipy.linalg`` outside a ``with SCOPE:`` block."""
    prefixes = {"scipy.linalg"}  # modules whose attributes are scipy.linalg's
    names = set()  # functions imported from scipy.linalg
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("scipy.linalg") and alias.asname:
                    prefixes.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module.startswith("scipy.linalg"):
                    names.add(bound)
                elif node.module == "scipy" and alias.name == "linalg":
                    prefixes.add(bound)
    lines = []

    def visit(node, scoped):
        for child in ast.iter_child_nodes(node):
            inside = scoped or (
                isinstance(child, ast.With)
                and any(_dotted(item.context_expr) == SCOPE for item in child.items)
            )
            if isinstance(child, ast.Call) and not scoped:
                name = _dotted(child.func)
                if name is not None and (
                    name in names or any(name.startswith(p + ".") for p in prefixes)
                ):
                    lines.append(child.lineno)
            visit(child, inside)

    visit(tree, False)
    return lines


def test_eigensolvers_called_only_by_the_two_factorizations():
    stray = stray_sites(SOLVERS, ALLOWED)
    assert not stray, f"eigensolver calls outside the shared factorizations: {', '.join(stray)}"


def test_cholesky_called_only_by_spd_factor():
    stray = stray_sites(CHOLESKY, CHOLESKY_ALLOWED)
    assert not stray, f"Cholesky calls outside linalg.spd_factor: {', '.join(stray)}"


def test_spd_factor_called_only_by_iterated_tikhonov_and_solve_spd():
    stray = stray_sites({"spd_factor"}, SPD_FACTOR_ALLOWED)
    assert not stray, f"spd_factor calls outside its two callers: {', '.join(stray)}"


def test_positive_and_finite_check_written_only_in_errors():
    sites = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "must be positive and finite" in path.read_text(encoding="utf-8")]
    assert sites == ["errors.py"]


def test_nu_coefficients_called_only_by_two_term_steps():
    stray = stray_sites({"nu_method_coefficients"}, {("filters.py", "two_term_steps")})
    assert not stray, f"step schedules outside filters.two_term_steps: {', '.join(stray)}"


VARIED_FIELDS = {"lam", "iters", "threshold"}
FIELD_READS_ALLOWED = {("loocv_select_lambda", "iters")}


def field_reads(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(enclosing function, field, line) of each ``x.lam``, ``x.iters`` or
    ``x.threshold`` and of each ``ladder[0]``, listed as field "ladder[0]"."""
    reads = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            where = ".".join(scope) or "<module>"
            if isinstance(child, ast.Attribute) and child.attr in VARIED_FIELDS:
                reads.append((where, child.attr, child.lineno))
            if (isinstance(child, ast.Subscript) and _dotted(child.value) == "ladder"
                    and isinstance(child.slice, ast.Constant) and child.slice.value == 0):
                reads.append((where, "ladder[0]", child.lineno))
            visit(child, scope)

    visit(tree, ())
    return reads


def test_no_module_guesses_a_family_from_ladder_0():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        stray += [f"{path.name}:{line} in {scope}"
                  for scope, field, line in field_reads(tree) if field == "ladder[0]"]
    assert not stray, f"ladder[0] reads: {', '.join(stray)}"


def test_only_the_ladder_check_reads_the_varied_field_in_selection():
    tree = ast.parse((PACKAGE / "selection.py").read_text(encoding="utf-8"))
    stray = [f"selection.py:{line} reads {field} in {scope}"
             for scope, field, line in field_reads(tree)
             if scope != "_check_ladder" and (scope, field) not in FIELD_READS_ALLOWED]
    assert not stray, ", ".join(stray)


def test_detects_field_reads_and_ladder_0():
    tree = ast.parse(
        "def f(ladder, spec):\n"
        "    first = ladder[0]\n"
        "    return spec.lam, ladder[-1].threshold, spec.eta\n"
        "class A:\n"
        "    def g(self, ladder):\n"
        "        return [s.iters for s in ladder]\n"
    )
    assert field_reads(tree) == [
        ("f", "ladder[0]", 2), ("f", "lam", 3), ("f", "threshold", 3), ("A.g", "iters", 6)
    ]


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


def test_scipy_linalg_called_only_on_one_blas_thread():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        stray += [f"{path.name}:{line}" for line in unscoped_scipy_linalg_calls(tree)]
    assert not stray, f"scipy.linalg calls outside {SCOPE}: {', '.join(stray)}"


def test_detects_unscoped_scipy_linalg_calls():
    tree = ast.parse(
        "import scipy.linalg\n"
        "import scipy.linalg as sla\n"
        "from scipy import linalg as spl\n"
        "from scipy.linalg import cho_solve\n"
        "from .linalg import spd_factor\n"
        "def f(m, b):\n"
        "    with _ONE_BLAS_THREAD:\n"
        "        x = scipy.linalg.cho_factor(m)\n"
        "        cho_solve(x, b)\n"
        "    sla.cho_factor(m)\n"
        "    spl.lapack.dpotrf(m)\n"
        "    spd_factor(m)\n"
        "    return cho_solve(x, b)\n"
        "try:\n"
        "    scipy.linalg.cholesky(m)\n"
        "except scipy.linalg.LinAlgError:\n"
        "    pass\n"
    )
    assert unscoped_scipy_linalg_calls(tree) == [10, 11, 13, 15]

