"""Outside-in tracing of the library's layers.

The tracer wraps each layer's public functions from outside the package:
it rebinds the wrapper in every ``polydecomp`` module namespace that binds
the function (``right_factor`` lives in ``decompose`` and ``oddmonoid``,
``rational_roots`` in ``roots``, ``classify`` and ``cusp``) and sets the
``Polynomial`` methods on the class itself, under every attribute name
that holds them (``__rmul__`` is ``__mul__``).  ``uninstall`` puts every
original back.

Each call made inside an op is a span: name, start, end, parent span and
the op (request) it belongs to.  Calls outside an op, such as those of the
correctness checks, are not recorded.  Spans stay in memory, in flat
arrays, until the run ends.  A span's self time is its duration minus the
durations of its children.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# Module -> traced functions; dotted names are methods of a class.
LAYERS = {
    "parsing": ("parse", "format_poly"),
    "poly": (
        "Polynomial.compose",
        "Polynomial.__mul__",
        "Polynomial.__divmod__",
        "Polynomial.shift_arg",
        "compose_all",
    ),
    "roots": ("rational_roots", "squarefree_decomposition", "poly_gcd", "count_real_roots"),
    "decompose": (
        "right_factor",
        "is_indecomposable",
        "complete_decomposition",
        "enumerate_classes",
        "canonicalize",
    ),
    "classify": ("classify_shape", "critical_value_polynomial", "invariants_of_factors"),
    "chebyshev": ("chebyshev",),
    "cusp": (
        "cusp_report",
        "max_decompositions",
        "enumerate_A_decompositions",
        "admissible_shifts",
        "classify_CD",
    ),
    "oddmonoid": ("decompose_in_O", "is_irreducible_in_O", "adjust_to_odd", "classify_odd_swap"),
}
# The lru-cached functions, as (module, name).
CACHED = (
    ("decompose", "enumerate_classes"),
    ("decompose", "is_indecomposable"),
    ("oddmonoid", "is_irreducible_in_O"),
    ("chebyshev", "chebyshev"),
)
# Functions whose non-None returns are counted as accepts.
ACCEPTS = ("decompose.right_factor",)
OP = "op"


def module(name: str):
    """A polydecomp submodule.  ``polydecomp.chebyshev`` as a package
    attribute is the function, which shadows the submodule."""
    return sys.modules[f"polydecomp.{name}"]


def cached_functions():
    return [getattr(module(m), f) for m, f in CACHED]


class Tracer:
    def __init__(self):
        self.names = [OP] + [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.accepts = [0] * len(self.names)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        self.name.append(name_id)
        self.parent.append(parent)
        self.op.append(self.op[parent] if parent >= 0 else idx)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_op(self, fn, arg):
        """Run one op inside a root span."""
        idx = self._open(0)
        try:
            return fn(arg)
        finally:
            self._close(idx)

    def _wrap(self, name_id: int, fn):
        count_accepts = self.names[name_id] in ACCEPTS
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:  # outside an op, e.g. in its check
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count_accepts and result is not None:
                tracer.accepts[name_id] += 1
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__wrapped__ = fn
        return traced

    # -- install and restore --------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "polydecomp" or key.startswith("polydecomp."))
        ]
        for name_id, full in enumerate(self.names[1:], start=1):
            mod_name, _, attr = full.partition(".")
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(module(mod_name), cls_name)
                original, owners = vars(cls)[meth], [cls]
            else:
                original, owners = getattr(module(mod_name), attr), namespaces
            wrapper = self._wrap(name_id, original)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._bind(owner, key, wrapper)

    def _bind(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    # -- summaries ------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return [dur[i] - child[i] for i in range(n)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, self seconds and accepts."""
        out = {name: {"calls": 0, "self_s": 0.0, "accepts": 0} for name in self.names}
        for name_id, s in zip(self.name, self.self_times()):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["self_s"] += s
        for name_id, n in enumerate(self.accepts):
            out[self.names[name_id]]["accepts"] = n
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, names first."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.name)):
                fh.write(
                    f"[{i},{self.op[i]},{self.parent[i]},{self.name[i]},"
                    f"{self.start[i]!r},{self.end[i]!r}]\n"
                )
