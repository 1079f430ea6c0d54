"""In-memory span recorder that wraps zonofit's layer functions at run time.

Nothing under `src/` changes: `Tracer` replaces module attributes (including
names other modules imported by value, such as `zonofit.cli.cinf_approximate`)
and class methods (`feret`, `solve`, `vertices`) with recording wrappers while
it is installed, and restores the originals on exit.  A span records its name,
start, end, parent span and op id; a layer's self time is its span's duration
minus the durations of its direct children, which are disjoint because every
op runs on one thread.
"""

import functools
import os
import sys
import time
from array import array

import numpy as np


def _angles(args, result):
    return "zonotopes.feret.angles", int(np.size(result))


def _samples(args, result):
    return "simulate.feret_sample_block.samples", int(len(result))


def _csv_bytes(args, result):
    return "serialize.read_sample_csv.bytes", os.path.getsize(args[0])


def _table_bytes(args, result):
    return "cli.sample_table.bytes", os.path.getsize((args[0].out) + ".csv")


#: (module, function, span name, counter) for plain functions
FUNCTIONS = [
    ("metrics", "sup_over_angles", "metrics.sup_over_angles", None),
    ("metrics", "golden_section_max", "metrics.golden_section_max", None),
    ("metrics", "hausdorff_distance", "metrics.hausdorff_distance", None),
    ("metrics", "diameter", "metrics.diameter", None),
    ("metrics", "perimeter_cauchy", "metrics.perimeter_cauchy", None),
    ("approx", "c0_approximate", "approx.c0_approximate", None),
    ("approx", "cinf_approximate", "approx.offset_scan", None),
    ("approx", "worst_offset", "approx.offset_scan", None),
    ("approx", "offset_distances", "approx.offset_scan", None),
    ("simulate", "feret_sample_block", "simulate.feret_sample_block", _samples),
    ("simulate", "estimate_process_moments", "simulate.estimate_process_moments", None),
    ("simulate", "empirical_moments", "simulate.empirical_moments", None),
    ("simulate", "pipeline_estimate", "simulate.pipeline_estimate", None),
    ("process", "central_from_feret", "process.central_from_feret", None),
    ("process", "isotropize_moments", "process.isotropize_moments", None),
    ("process", "stationarity_diagnostic", "process.stationarity_diagnostic", None),
    ("process", "central_nnls", "process.central_nnls", None),
    ("process", "existence_check", "process.existence_check", None),
    ("nnls", "nnls", "nnls.nnls", None),
    ("serialize", "read_sample_csv", "serialize.read_sample_csv", _csv_bytes),
    ("serialize", "dumps", "serialize.dumps", None),
    ("serialize", "write_json", "serialize.write_json", None),
    ("cli", "cmd_approximate", "cli.cmd_approximate", None),
    ("cli", "cmd_sweep", "cli.cmd_sweep", None),
    ("cli", "cmd_estimate", "cli.cmd_estimate", None),
    ("cli", "cmd_simulate", "cli.cmd_simulate", _table_bytes),
]

#: (module, class or "*" for every class defining the method, method, span, counter)
METHODS = [
    ("bodies", "*", "feret", "bodies.feret", None),
    ("zonotopes", "Zonotope", "feret", "zonotopes.feret", _angles),
    ("zonotopes", "Zonotope", "vertices", "zonotopes.vertices", None),
    ("circulant", "CirculantMatrix", "solve", "circulant.solve", None),
]


class Tracer:
    """Spans and counters of the ops run between `begin_op` and `end_op`.

    Use as a context manager around the traced passes: entering patches the
    zonofit modules, leaving restores them.  Outside an op the wrappers pass
    straight through without recording.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        #: op kind per op id
        self.op_kinds = []
        #: (op kind, counter name) -> total
        self.counts = {}
        self._stack = []
        self._op = -1
        self._kind = None
        self._patches = []

    # recording -----------------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def add(self, counter, value):
        key = (self._kind, counter)
        self.counts[key] = self.counts.get(key, 0) + value

    def begin_op(self, kind):
        self._op = len(self.op_kinds)
        self._kind = kind
        self.op_kinds.append(kind)
        self._root = self._open("op." + kind)

    def end_op(self):
        self._close(self._root)
        self._op = -1
        self._kind = None

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._kind is None:
                return fn(*args, **kwargs)
            i = tracer._open(name)
            tracer.add(name + ".calls", 1)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.add(name + ".failures", 1)
                raise
            finally:
                tracer._close(i)
            if counter is not None:
                tracer.add(*counter(args, result))
            return result

        return traced

    # patching ------------------------------------------------------------

    def __enter__(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "zonofit" or key.startswith("zonofit.")) and m]
        for mod_name, fn_name, span, counter in FUNCTIONS:
            fn = getattr(sys.modules["zonofit." + mod_name], fn_name)
            wrapper = self._wrap(fn, span, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth, span, counter in METHODS:
            mod = sys.modules["zonofit." + mod_name]
            classes = [c for c in vars(mod).values()
                       if isinstance(c, type) and c.__module__ == mod.__name__]
            for cls in classes:
                if (cls_name == "*" or cls.__name__ == cls_name) and meth in vars(cls):
                    original = vars(cls)[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(original, span, counter))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        return False

    # results -------------------------------------------------------------

    def self_times(self):
        """{(op kind, span name): [calls, self seconds]} over every recorded span."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        own = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(dur))
        ops = np.frombuffer(self.op, dtype=np.int32)
        kinds = sorted(set(self.op_kinds))
        kind_of_op = np.array([kinds.index(k) for k in self.op_kinds])
        key = kind_of_op[ops] * len(self.names) + name_id
        size = len(kinds) * len(self.names)
        calls = np.bincount(key, minlength=size)
        total = np.bincount(key, weights=own, minlength=size)
        out = {}
        for k in np.flatnonzero(calls):
            kind, nid = divmod(int(k), len(self.names))
            out[(kinds[kind], self.names[nid])] = [int(calls[k]), float(total[k])]
        return out

    def save(self, path):
        """Write every span as compressed numpy arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            op_kind=np.array(self.op_kinds),
        )
