"""Span recorder that wraps library functions at their module attributes.

Calls that look a function up on its module at call time (``_optim.x``,
``_kernels.x``, ``np.linalg.x``, ``sciopt.x``, and bare calls inside the
defining module, which read the module globals) go through the wrapper.
Names bound earlier with ``from ... import`` do not, so no number is
claimed for them.

Spans are strictly nested (one thread), so a span's self time is its
duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# layer -> (module, traced functions); layer names are the metric prefixes
LAYERS = {
    "capacity": ("holevo_lab.capacity",
                 ("chi_capacity", "brute_force_capacity", "chi_function")),
    "additivity": ("holevo_lab.additivity", ("joint_capacity",)),
    "optim": ("holevo_lab._optim",
              ("maximize_chi_weights", "maximize_chi_weights_bloch", "radius_sup",
               "pure_ascent", "project_simplex_halfspace", "hhat_qubit",
               "hhat_isometry_search", "batch_outputs_pure")),
    "kernels": ("holevo_lab._kernels", ("relent_pairwise",)),
    "linalg": ("numpy.linalg", ("eigh", "eigvalsh")),
    "scipy": ("scipy.optimize", ("linprog", "minimize")),
}

TRACED = tuple(f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns)
ROOT = "op"
NAMES = (ROOT,) + TRACED
_ID = {name: i for i, name in enumerate(NAMES)}
_PAIRS = _ID["kernels.relent_pairwise"]
_WEIGHTS = _ID["optim.maximize_chi_weights"]
_EIG = (_ID["linalg.eigh"], _ID["linalg.eigvalsh"])


class Tracer:
    """In-memory spans: name id, parent index, start and end times."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.pairs = 0
        self._stack = [-1]
        self._saved = []

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, *args):
        """Run fn(*args) inside a root span."""
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name_id: int, orig):
        def traced(*args, **kwargs):
            if name_id == _PAIRS:
                self.pairs += np.shape(args[0])[0] * np.shape(args[1])[0]
            idx = self._open(name_id)
            try:
                return orig(*args, **kwargs)
            finally:
                self._close(idx)
        traced.__wrapped__ = orig
        return traced

    def __enter__(self):
        for layer, (modname, fns) in LAYERS.items():
            mod = importlib.import_module(modname)
            for fn in fns:
                orig = getattr(mod, fn)
                self._saved.append((mod, fn, orig))
                setattr(mod, fn, self._wrap(_ID[f"{layer}.{fn}"], orig))
        return self

    def __exit__(self, *exc):
        for mod, fn, orig in reversed(self._saved):
            setattr(mod, fn, orig)
        self._saved.clear()
        return False

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Name ids, parent indices, start and end times of every span."""
        n = len(self.name)
        return (np.frombuffer(self.name, dtype=np.int32, count=n),
                np.frombuffer(self.parent, dtype=np.int32, count=n),
                np.frombuffer(self.start, dtype=np.float64, count=n),
                np.frombuffer(self.end, dtype=np.float64, count=n))

    def summary(self) -> dict:
        """Per traced function: calls, total s, self s; plus the counters."""
        names, parents, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(names))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_t = dur - child
        out = {}
        for i, name in enumerate(NAMES):
            sel = names == i
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(self_t[sel].sum())}
        eig = np.isin(names, _EIG) & has_parent
        out["eig_calls_in_weights"] = int(np.sum(names[parents[eig]] == _WEIGHTS))
        out["pairs"] = int(self.pairs)
        return out

    def save(self, path: str) -> None:
        names, parents, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(NAMES), name=names, parent=parents,
                            start=start, end=end)


def span_problems(names, parents, start, end) -> list[str]:
    """What is wrong with a span tree; empty when every span closed, every
    root is an operation, every other span lies inside its parent, and no
    two children of one parent overlap."""
    problems = []
    idx = np.arange(len(names))
    root = parents < 0
    if np.any(end < start):
        problems.append(f"{int(np.sum(end < start))} span(s) end before they start")
    if np.any(root != (names == _ID[ROOT])):
        problems.append("a root span that is not an operation, or an operation with a parent")
    kids = idx[~root]
    par = parents[kids]
    if np.any(par >= kids):
        problems.append("a parent index that does not point to an earlier span")
        return problems
    if np.any((start[kids] < start[par]) | (end[kids] > end[par])):
        problems.append("a span that is not inside its parent")
    order = np.lexsort((start, parents))
    same = parents[order][1:] == parents[order][:-1]
    if np.any(same & (start[order][1:] < end[order][:-1])):
        problems.append("two spans with one parent that overlap")
    return problems
