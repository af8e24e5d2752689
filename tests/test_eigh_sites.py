"""Only two functions of the package call a dense symmetric eigensolver, and
one calls a Cholesky factorization.

``linalg.sym_eigendecompose`` factors K/n and ``synthetic.psd_eigh`` factors
a covariance; every other eigendecomposition must go through one of them, so
the conventions (descending K/n spectrum, one PSD tolerance) live in one
place each. ``linalg.spd_factor`` is the one Cholesky site, so every SPD
solve shares its checks and its definiteness error; its only caller is
``estimators.iterated_tikhonov_weights``, which also makes the fixed
Tikhonov solve. This parses each module under ``src/kmse`` with ``ast``
and lists the function around each call of ``eigh`` or ``eigvalsh`` (or of
``cho_factor`` or ``cholesky``).

Every call into ``scipy.linalg`` must also sit inside a ``with
_ONE_BLAS_THREAD:`` block, which runs scipy's OpenBLAS on one thread; an
unscoped call would wake scipy's thread pool next to numpy's.

Five more rules have one site each: ``errors.require_positive`` is the one
"positive and finite" parameter check, ``filters.two_term_steps`` is the
one caller of ``nu_method_coefficients``, the nu-method step schedule, and
``kernels.normalize_gram`` is the one constructor of ``NormalizedGram``, so
kappa^2, the largest K_ii of the Gram matrix, is measured in one place.
``selection._result`` is the one constructor of ``SelectionResult``, so every
selector picks the first least score of the ladder it was given, and
``kernels.NormalizedGram.spectrum`` is the one place that clamps eigenvalues
of K/n at zero (a ``clip`` or ``maximum`` call reading ``eigenvalues``).

Each family's closed-form retention is written once, in
``filters.retention_matrix``: no other function of the filter modules
(``filters``, ``estimators``, ``selection``) writes a ratio x / (x + y), a
complement of a power 1 - w ** t or a ``where(comparison, value, 0.0)``.
``theory``'s scalar rate formulas are not filters and are not checked.
``selection`` fits no candidate: it neither imports nor calls
``estimators.fit_spec`` or ``estimators.two_term_path``, so the oracle scores
a ladder from the spectrum alone.

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
SPD_FACTOR_ALLOWED = {("estimators.py", "iterated_tikhonov_weights")}


def call_sites(tree: ast.Module, solvers=SOLVERS, accept=None) -> list[tuple[str, int]]:
    """(enclosing function qualified name, line) of each call of ``solvers``
    for which ``accept(call)`` holds, when ``accept`` is given."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in solvers and (accept is None or accept(child)):
                    sites.append((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(tree, ())
    return sites


def stray_sites(solvers, allowed, accept=None) -> list[str]:
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, line in call_sites(tree, solvers, accept):
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


def test_spd_factor_called_only_by_iterated_tikhonov():
    stray = stray_sites({"spd_factor"}, SPD_FACTOR_ALLOWED)
    assert not stray, f"spd_factor calls outside its one caller: {', '.join(stray)}"


def test_positive_and_finite_check_written_only_in_errors():
    sites = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "must be positive and finite" in path.read_text(encoding="utf-8")]
    assert sites == ["errors.py"]


def test_nu_coefficients_called_only_by_two_term_steps():
    stray = stray_sites({"nu_method_coefficients"}, {("filters.py", "two_term_steps")})
    assert not stray, f"step schedules outside filters.two_term_steps: {', '.join(stray)}"


def test_normalized_gram_built_only_by_normalize_gram():
    stray = stray_sites({"NormalizedGram"}, {("kernels.py", "normalize_gram")})
    assert not stray, f"NormalizedGram built outside kernels.normalize_gram: {', '.join(stray)}"


def test_selection_result_built_only_by_result():
    stray = stray_sites({"SelectionResult"}, {("selection.py", "_result")})
    assert not stray, f"SelectionResult built outside selection._result: {', '.join(stray)}"


def test_detects_selection_result_constructions():
    tree = ast.parse(
        "from kmse import selection\n"
        "def _result(ladder, scores):\n"
        "    return SelectionResult(ladder[0], [], 'LOOCV')\n"
        "def gcv(ladder):\n"
        "    return selection.SelectionResult(chosen=ladder[-1], score_path=[], score_kind='GCV')\n"
        "isinstance(None, SelectionResult)\n"
    )
    assert call_sites(tree, {"SelectionResult"}) == [("_result", 3), ("gcv", 5)]


CLAMPS = {"clip", "maximum"}


def reads_eigenvalues(call: ast.Call) -> bool:
    """Whether a call reads an ``eigenvalues`` attribute, as argument or receiver."""
    return any(isinstance(node, ast.Attribute) and node.attr == "eigenvalues"
               for node in ast.walk(call))


def test_eigenvalues_clamped_only_in_the_spectrum():
    allowed = {("kernels.py", "NormalizedGram.spectrum")}
    stray = stray_sites(CLAMPS, allowed, reads_eigenvalues)
    assert not stray, f"eigenvalues clamped outside NormalizedGram.spectrum: {', '.join(stray)}"


def test_detects_eigenvalue_clamps():
    tree = ast.parse(
        "import numpy as np\n"
        "class NormalizedGram:\n"
        "    def spectrum(self, eig):\n"
        "        return np.clip(eig.eigenvalues, 0.0, None)\n"
        "def f(kbar, evals):\n"
        "    a = np.maximum(kbar.spectrum.eigenvalues * 2.0, 0.0)\n"
        "    b = kbar.spectrum.eigenvalues.clip(0.0)\n"
        "    return a, b, np.clip(evals, 0.0, None), np.maximum(kbar.n, 1)\n"
    )
    assert call_sites(tree, CLAMPS, reads_eigenvalues) == [
        ("NormalizedGram.spectrum", 4), ("f", 6), ("f", 7)]


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



FILTER_MODULES = ("filters.py", "estimators.py", "selection.py")
RETENTION_ALLOWED = {("filters.py", "retention_matrix")}


def retention_forms(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(enclosing function, form, line) of each closed-form retention: a
    "ratio" x / (x + y) with x a name or attribute (a numeric numerator is a
    resolvent or a shrink factor), a "complement" 1 - w ** t, or a "where"
    of a comparison whose last argument is the constant 0.0."""
    forms = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            where = ".".join(scope) or "<module>"
            if isinstance(child, ast.BinOp):
                left, right = child.left, child.right
                if (isinstance(child.op, ast.Div) and isinstance(left, (ast.Name, ast.Attribute))
                        and isinstance(right, ast.BinOp) and isinstance(right.op, ast.Add)
                        and ast.dump(right.left) == ast.dump(left)):
                    forms.append((where, "ratio", child.lineno))
                if (isinstance(child.op, ast.Sub) and isinstance(left, ast.Constant)
                        and left.value == 1 and isinstance(right, ast.BinOp)
                        and isinstance(right.op, ast.Pow)):
                    forms.append((where, "complement", child.lineno))
            if (isinstance(child, ast.Call) and len(child.args) == 3
                    and _dotted(child.func) in ("where", "np.where")
                    and isinstance(child.args[0], ast.Compare)
                    and isinstance(child.args[2], ast.Constant) and child.args[2].value == 0.0):
                forms.append((where, "where", child.lineno))
            visit(child, scope)

    visit(tree, ())
    return forms


def test_retention_written_only_in_retention_matrix():
    stray = []
    for name in FILTER_MODULES:
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        stray += [f"{name}:{line} {form} in {scope}" for scope, form, line in retention_forms(tree)
                  if (name, scope) not in RETENTION_ALLOWED]
    assert not stray, f"closed-form retention outside filters.retention_matrix: {', '.join(stray)}"


def test_selection_fits_no_candidate():
    tree = ast.parse((PACKAGE / "selection.py").read_text(encoding="utf-8"))
    fits = {"fit_spec", "two_term_path"}
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name in fits]
    assert not imported and not call_sites(tree, fits), (imported, call_sites(tree, fits))


def test_detects_retention_forms():
    tree = ast.parse(
        "import numpy as np\n"
        "def f(g, p, s, w):\n"
        "    a = g / (g + p)\n"
        "    b = s.lam / (g + s.lam)\n"
        "    c = 1.0 / (1.0 + p)\n"
        "    d = 1.0 - (1.0 - s.eta * g) ** s.iters\n"
        "    e = (1.0 - g / p) ** 2\n"
        "    return np.where(g >= p, 1.0, 0.0), np.where(w, 1.0, 0.0)\n"
        "class A:\n"
        "    def g(self, x, y):\n"
        "        return 1 - (x / (x + y)) ** 3\n"
    )
    assert retention_forms(tree) == [
        ("f", "ratio", 3), ("f", "complement", 6), ("f", "where", 8),
        ("A.g", "complement", 11), ("A.g", "ratio", 11),
    ]
