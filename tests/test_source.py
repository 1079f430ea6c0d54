"""Rules that every module of the package source keeps."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "zonofit"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _closeness_calls_without_rtol(tree):
    """Line numbers of allclose/isclose calls in tree that pass no rtol= keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name in ("allclose", "isclose") and not any(k.arg == "rtol" for k in node.keywords):
            yield node.lineno


def test_closeness_calls_set_rtol():
    # numpy's default rtol=1e-5 widens an atol= bound by 1e-5 times the values
    # compared, so a tolerance written as absolute is silently relative too
    assert SOURCES
    bad = [f"{p.name}:{line}" for p in SOURCES
           for line in _closeness_calls_without_rtol(ast.parse(p.read_text()))]
    assert bad == []


def test_rule_finds_calls_without_rtol():
    tree = ast.parse("np.allclose(a, b, atol=1e-9)\nisclose(a, b)\n"
                     "numpy.isclose(a, b, rtol=0.0, atol=1e-9)\nx.allclose(a, b, rtol=0)\n")
    assert list(_closeness_calls_without_rtol(tree)) == [1, 2]


def _tolerance_sites(tree):
    """(line, what) of each float literal with 0 < |x| < 1e-6 that is neither
    in a module-level assignment nor a parameter default, and of each
    max(1.0, ...) call, in tree."""
    named = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            named.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                named.update(map(id, ast.walk(default)))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and type(node.value) is float
                and 0.0 < abs(node.value) < 1e-6 and id(node) not in named):
            yield node.lineno, "literal"
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "max"
                and node.args and isinstance(node.args[0], ast.Constant)
                and type(node.args[0].value) is float and node.args[0].value == 1.0):
            yield node.lineno, "max(1.0, ...)"


def test_tolerances_are_named_and_relative():
    # a roundoff tolerance is a named level times the magnitude of its data
    # (zonofit.bodies): an inline literal or a max(1.0, scale) floor makes
    # the same check answer differently for a body and a scaled copy of it
    bad = [f"{p.name}:{line} {what}" for p in SOURCES
           for line, what in _tolerance_sites(ast.parse(p.read_text()))]
    assert bad == []


def test_rule_finds_inline_tolerances():
    tree = ast.parse(
        "TOL = 1e-9\n"
        "def f(x, tol=1e-12, *, atol=2e-7):\n"
        "    return x > -1e-9 * max(1.0, abs(x)) and x < max(1, 2) + 0.5\n"
        "y = f(1e-3)\n"
        "z = g(lambda t=3e-8: t, 4e-10)\n"
        "max(1.0, s)\n"
        "def h():\n"
        "    LOCAL = 1e-12\n"
    )
    assert sorted(_tolerance_sites(tree)) == [
        (3, "literal"), (3, "max(1.0, ...)"), (6, "max(1.0, ...)"), (8, "literal")]


SUP_SEARCH_NAMES = {"golden_section_max", "SUP_GRID_SIZE", "SUP_ANGLE_TOL"}


def _names_used(tree, names):
    """(line, name) of each identifier, attribute or import of a name in
    `names` in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in names:
            yield node.lineno, name


def test_sup_search_lives_in_metrics():
    # every sup over angles goes through metrics.sup_grid and
    # metrics.refine_sup, so the grid size, tolerance and golden search that
    # make up the search appear in no other module
    bad = [f"{p.name}:{line} {name}" for p in SOURCES if p.name != "metrics.py"
           for line, name in _names_used(ast.parse(p.read_text()), SUP_SEARCH_NAMES)]
    assert bad == []


def test_rule_finds_sup_search_names():
    tree = ast.parse(
        "from .metrics import SUP_ANGLE_TOL, hausdorff_distance\n"
        "x = metrics.golden_section_max(f, a, b, tol)\n"
        "y = 2 * SUP_GRID_SIZE\n"
        "z = refine_sup(f, sup_grid(4), i, v)  # golden_section_max\n"
        "import zonofit.metrics as m; m.SUP_GRID_SIZE\n"
    )
    assert sorted(_names_used(tree, SUP_SEARCH_NAMES)) == [
        (1, "SUP_ANGLE_TOL"), (2, "golden_section_max"), (3, "SUP_GRID_SIZE"),
        (5, "SUP_GRID_SIZE")]


def test_offset_scan_has_one_interpolant_formula():
    # between two face directions the kernel's H_z is the one sinusoid
    # through the node values, in the grid pass and in the sup refinement
    # alike, so approx.py sums no faces with einsum
    tree = ast.parse((PACKAGE / "approx.py").read_text())
    assert list(_names_used(tree, {"einsum"})) == []


def test_rule_finds_einsum():
    tree = ast.parse(
        "hz = np.einsum('pi,ip->p', s, alpha)\n"
        "from numpy import einsum, einsum_path\n"
        "h = z.feret(e)  # einsum\n"
        "f = numpy.einsum\n"
    )
    assert sorted(_names_used(tree, {"einsum"})) == [(1, "einsum"), (2, "einsum"),
                                                      (4, "einsum")]


def test_face_lengths_come_from_the_stencil():
    # every face length is bodies.face_lengths, the three-point stencil, so
    # no module solves with the Feret matrix; circulant.py defines it and the
    # package's export list re-exports it as the tests' reference
    bad = [f"{p.name}:{line}" for p in SOURCES if p.name not in ("circulant.py", "__init__.py")
           for line, _ in _names_used(ast.parse(p.read_text()), {"feret_matrix"})]
    assert bad == []


def test_rule_finds_feret_matrix():
    tree = ast.parse(
        "from .circulant import CirculantMatrix, feret_matrix\n"
        "alpha = feret_matrix(n).solve(h)\n"
        "F = circulant.feret_matrix(4)\n"
        "a = face_lengths(h, g)  # not feret_matrix\n"
        "names = ['feret_matrix']\n"
    )
    assert sorted(_names_used(tree, {"feret_matrix"})) == [
        (1, "feret_matrix"), (2, "feret_matrix"), (3, "feret_matrix")]


def _integer_type_checks(tree):
    """(line, function) of each isinstance(..., (int, np.integer)) call in tree,
    function being the name of the innermost enclosing def (None at module level)."""
    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2 and isinstance(node.args[1], ast.Tuple)):
            names = {ast.unparse(e) for e in node.args[1].elts}
            if {"int", "np.integer"} <= names:
                yield node.lineno, func
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    return list(visit(tree, None))


def test_counts_go_through_require_count():
    # one rule for counts: an integer parameter is checked by
    # bodies.require_count, so no module writes its own integer type test
    bad = [f"{p.name}:{line}" for p in SOURCES
           for line, func in _integer_type_checks(ast.parse(p.read_text()))
           if (p.name, func) != ("bodies.py", "require_count")]
    assert bad == []


def test_rule_finds_integer_type_checks():
    tree = ast.parse(
        "def f(n):\n"
        "    if not isinstance(n, (int, np.integer)) or n < 2:\n"
        "        raise ValueError(n)\n"
        "def require_count(name, value, least):\n"
        "    return isinstance(value, (np.integer, int, float))\n"
        "ok = isinstance(x, int) or isinstance(x, (float, np.floating))\n"
        "class C:\n"
        "    def g(self, k):\n"
        "        return [isinstance(k, (int, np.integer)) for _ in ()]\n"
    )
    assert _integer_type_checks(tree) == [(2, "f"), (5, "require_count"), (9, "g")]


def _finite_checks_of_other_records(tree):
    """Line numbers of require_finite calls in tree that take an attribute of
    a name other than self, such as m.mean."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name != "require_finite":
            continue
        for arg in node.args + [k.value for k in node.keywords]:
            if (isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name)
                    and arg.value.id != "self"):
                yield node.lineno
                break


def test_records_are_checked_where_built():
    # a record checks its own fields when it is built (bodies.require_finite
    # in its __init__), so no function re-checks a record it was given
    bad = [f"{p.name}:{line}" for p in SOURCES
           for line in _finite_checks_of_other_records(ast.parse(p.read_text()))]
    assert bad == []


def test_rule_finds_finite_checks_of_other_records():
    tree = ast.parse(
        "require_finite(mean=m.mean, second=m.second)\n"
        "require_finite(r=self.r, x=x)\n"
        "require_finite(m.second)\n"
        "bodies.require_finite(v=other.v)\n"
        "check(mean=m.mean)\n"
        "require_finite(a=np.asarray(m.a), b=x.y.z)\n"
    )
    assert list(_finite_checks_of_other_records(tree)) == [1, 3, 4]


def _finiteness_checks(tree):
    """(line, function) of each all(isfinite(...)) or isfinite(...).all() in
    tree, function being the name of the innermost enclosing def (None at
    module level)."""
    def name(f):
        return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)

    def is_isfinite(node):
        return isinstance(node, ast.Call) and name(node.func) == "isfinite"

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and name(node.func) == "all" and (
                (node.args and is_isfinite(node.args[0]))
                or (isinstance(node.func, ast.Attribute) and is_isfinite(node.func.value))):
            yield node.lineno, func
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    return list(visit(tree, None))


def test_finiteness_goes_through_require_finite():
    # one rule for finite values: bodies.require_finite checks them and
    # words the error, so no module spells out its own test and message
    bad = [f"{p.name}:{line}" for p in SOURCES
           for line, func in _finiteness_checks(ast.parse(p.read_text()))
           if (p.name, func) != ("bodies.py", "require_finite")]
    assert bad == []


def test_rule_finds_finiteness_checks():
    tree = ast.parse(
        "def f(h):\n"
        "    if not np.all(np.isfinite(h)):\n"
        "        raise ValueError(h)\n"
        "def require_finite(**values):\n"
        "    return all(isfinite(x) for x in values)\n"
        "ok = numpy.isfinite(x).all() and np.isfinite(y)\n"
        "z = np.all(np.abs(x) < 1) or np.max(x, where=np.isfinite(x))\n"
        "class C:\n"
        "    def g(self, k):\n"
        "        return [np.all(np.isfinite(k)) for _ in ()]\n"
    )
    assert _finiteness_checks(tree) == [(2, "f"), (6, None), (10, "g")]


def _scoped_calls(tree, wanted):
    """(line, scope) of each call in tree that wanted(call) accepts, scope
    being the name of the outermost enclosing class or def (None at module
    level)."""
    def visit(node, scope):
        if scope is None and isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                               ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and wanted(node):
            yield node.lineno, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return list(visit(tree, None))


def _fft_calls(tree):
    """(line, scope) of each call of an FFT function in tree."""
    return _scoped_calls(tree, lambda call: "fft" in ast.unparse(call.func))


def _v_alpha_min_calls(tree):
    """(line, scope) of each minimum taken of a v_alpha attribute in tree:
    x.v_alpha.min() or a min/amin call whose first argument is x.v_alpha."""
    def wanted(call):
        func = ast.unparse(call.func)
        return func.endswith(".v_alpha.min") or (
            func.split(".")[-1] in ("min", "amin") and bool(call.args)
            and ast.unparse(call.args[0]).endswith(".v_alpha"))

    return _scoped_calls(tree, wanted)


def test_psd_rule_lives_in_central_face_moments():
    # the spectrum of Circ(v) of a face second-moment vector is computed and
    # floored in CentralFaceMoments alone; the NNLS fit meets it as a constraint
    tree = ast.parse((PACKAGE / "process.py").read_text())
    assert [(line, scope) for line, scope in _fft_calls(tree)
            if scope != "CentralFaceMoments"] == []


def test_rule_finds_fft_calls():
    tree = ast.parse(
        "class CentralFaceMoments:\n"
        "    def __init__(self, v):\n"
        "        self.lam = np.fft.fft(v).real\n"
        "def central_nnls(u):\n"
        "    return np.fft.fft(u[fold]).real\n"
        "lam = fft.rfft(v)\n"
        "def f(v):\n"
        "    from numpy.fft import ifft\n"
        "    return ifft(v) + np.cos(v)  # fft\n"
    )
    assert _fft_calls(tree) == [(3, "CentralFaceMoments"), (5, "central_nnls"),
                                (6, None), (9, "f")]


def test_nonnegativity_rule_lives_in_central_face_moments():
    # v >= 0 is decided where the record is built, after its eigenvalue
    # clip; no caller tests a record's lags again to pick another route
    bad = [f"{p.name}:{line}" for p in SOURCES
           for line, scope in _v_alpha_min_calls(ast.parse(p.read_text()))
           if (p.name, scope) != ("process.py", "CentralFaceMoments")]
    assert bad == []


def test_rule_finds_v_alpha_minima():
    tree = ast.parse(
        "class CentralFaceMoments:\n"
        "    def __init__(self, v):\n"
        "        self.ok = self.v_alpha.min() >= 0.0\n"
        "def central_from_feret(m):\n"
        "    if central is None or central.v_alpha.min() < 0.0:\n"
        "        return np.min(c.v_alpha) + min(c.v_alpha, key=abs)\n"
        "lowest = np.amin(record.v_alpha, axis=0)\n"
        "fine = v.min() + c.v_alpha.max() + min(0.0, c.v_alpha[0])\n"
    )
    assert _v_alpha_min_calls(tree) == [(3, "CentralFaceMoments"),
                                        (5, "central_from_feret"),
                                        (6, "central_from_feret"),
                                        (6, "central_from_feret"), (7, None)]


def _solver_option_reads(tree):
    """Line numbers of each read of an attribute named solver in tree."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "solver"
                and isinstance(node.ctx, ast.Load)):
            yield node.lineno


def test_estimate_route_is_a_function_of_the_input():
    # the table's grid picks the estimator; --solver is parsed for older
    # scripts and ignored, so no module reads it
    bad = [f"{p.name}:{line}" for p in SOURCES
           for line in _solver_option_reads(ast.parse(p.read_text()))]
    assert bad == []


def test_rule_finds_solver_option_reads():
    tree = ast.parse(
        'if not regular and args.solver != "nnls":\n'
        '    raise ParameterError("use --solver nnls")\n'
        'report = {"solver": "linear" if regular else "nnls"}\n'
        'p.add_argument("--solver", choices=["linear", "nnls"])\n'
        'report = {"command": "estimate", "solver": args.solver}\n'
        'self.solver = None\n'
    )
    assert sorted(_solver_option_reads(tree)) == [1, 5]


def _import_time_scipy_imports(tree):
    """Line numbers of the imports of scipy or of a scipy module in tree that
    run when the module is imported: those outside every function body."""
    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name.split(".")[0] == "scipy" for name in names):
            yield node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child)

    return list(visit(tree))


def test_scipy_is_imported_where_it_is_called():
    # importing scipy's modules takes longer than most commands take to run,
    # so importing zonofit loads numpy alone: the one function that calls a
    # scipy routine imports it in its body
    bad = [f"{p.name}:{line}" for p in SOURCES
           for line in _import_time_scipy_imports(ast.parse(p.read_text()))]
    assert bad == []


def test_rule_finds_import_time_scipy_imports():
    tree = ast.parse(
        "import scipy\n"
        "from scipy.special import ndtri\n"
        "import numpy as np, scipy.optimize as opt\n"
        "def f():\n"
        "    import scipy.optimize\n"
        "    from scipy import integrate\n"
        "class C:\n"
        "    from scipy.linalg import qr\n"
        "    def g(self):\n"
        "        return lambda: __import__('scipy')\n"
        "if True:\n"
        "    import scipy.sparse\n"
        "from .scipy import x\n"
        "import scipyx, numpy.scipy\n"
    )
    assert _import_time_scipy_imports(tree) == [1, 2, 3, 8, 12]


#: (module, outermost def) of the only np.errstate scopes: the overflow
#: helper that every Feret evaluation feeding a computation goes through,
#: the two moment reductions, entered in the worker threads that run them,
#: and the standard errors of the face moments
ERRSTATE_SITES = {("bodies.py", "feret_values"), ("simulate.py", "chunk_state"),
                  ("simulate.py", "reduce_states"), ("process.py", "central_from_feret")}


def _errstate_calls(tree):
    """(line, scope) of each errstate call in tree."""
    return _scoped_calls(tree, lambda call: ast.unparse(call.func).split(".")[-1] == "errstate")


def test_one_overflow_rule():
    # values that overflow are rejected by name where they are computed, so
    # numpy's warnings are silenced at those sites alone, never around a
    # caller's copy of the check
    bad = [f"{p.name}:{line} {scope}" for p in SOURCES
           for line, scope in _errstate_calls(ast.parse(p.read_text()))
           if (p.name, scope) not in ERRSTATE_SITES]
    assert bad == []


def test_rule_finds_errstate_calls():
    tree = ast.parse(
        "def cmd_simulate(args):\n"
        "    def blocks():\n"
        "        with np.errstate(over='ignore'):\n"
        "            yield h\n"
        "with numpy.errstate(invalid='ignore'), errstate(all='raise'):\n"
        "    pass\n"
        "class C:\n"
        "    def f(self):\n"
        "        return np.seterr(all='ignore')  # errstate\n"
        "np.errstate\n"
    )
    assert _errstate_calls(tree) == [(3, "cmd_simulate"), (5, None), (5, None)]
