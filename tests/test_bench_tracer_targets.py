"""The benchmark's tracer wraps zonofit functions and methods by name.

A rename or deletion in the library would make `perfbench/run.py --trace 1`
fail at start-up or lose a span silently, so every name the tracer lists must
still resolve.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, name", [entry[:2] for entry in tracer.FUNCTIONS])
def test_function_targets_resolve(module, name):
    assert callable(getattr(importlib.import_module("zonofit." + module), name, None))


@pytest.mark.parametrize("module, cls_name, method",
                         [entry[:3] for entry in tracer.METHODS])
def test_method_targets_resolve(module, cls_name, method):
    # as the tracer matches them: classes defined in the module that define
    # the method themselves, any such class for "*"
    mod = importlib.import_module("zonofit." + module)
    owners = [c.__name__ for c in vars(mod).values()
              if isinstance(c, type) and c.__module__ == mod.__name__
              and method in vars(c)]
    assert cls_name in owners or (cls_name == "*" and owners)
