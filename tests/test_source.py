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
