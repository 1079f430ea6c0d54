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
