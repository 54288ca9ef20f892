"""Spans around the calls into each `kep` module, recorded from outside.

The tracer wraps the public functions of the seven layers (`cli`,
`invariants`, `dirlimit`, `intmat`, `abgroup`, `groupoid`, `selfsim`) plus
the private steps that ROADMAP names as stages (the limit route's fixed
sublattice and exact solve, and JSON emission).  Modules import
each other's names with `from .x import y`, so a wrapped function is
rebound in every `kep.*` module that holds it; `IntMatrix.__matmul__` and
the `Graph` edge listings are wrapped on their classes.  A target that the
library no longer has is reported by `targets_missing`, and the traced run
refuses to start, so that a rename cannot pass for a saving.

Each call becomes a span (id, parent id, name, start, duration, self time),
kept in compact arrays in memory and written out by `write_spans` after the
run.  Self time is the duration minus the time covered by child spans.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter

# Span name -> (module, attribute) of a module-level function.
FUNCTIONS = {
    "cli.main": ("kep.cli", "main"),
    "cli.parse_input": ("kep.cli", "parse_input"),
    "cli.emit": ("kep.cli", "_emit"),
    "invariants.analyze": ("kep.invariants", "analyze"),
    "invariants.compare": ("kep.invariants", "compare"),
    "invariants.homology": ("kep.invariants", "homology"),
    "invariants.ktheory": ("kep.invariants", "ktheory"),
    "invariants.sft_homology": ("kep.invariants", "sft_homology"),
    "invariants.limit_route_homology": ("kep.invariants", "limit_route_homology"),
    "invariants.hk_check": ("kep.invariants", "hk_check"),
    "dirlimit.eventual_kernel": ("kep.dirlimit", "eventual_kernel"),
    "dirlimit.fixed_sublattice": ("kep.dirlimit", "_fixed_sublattice"),
    "dirlimit.solve_exact": ("kep.dirlimit", "_solve_exact"),
    "dirlimit.ker_one_minus_shift": ("kep.dirlimit", "ker_one_minus_shift"),
    "dirlimit.coker_one_minus_shift": ("kep.dirlimit", "coker_one_minus_shift"),
    "intmat.snf": ("kep.intmat", "snf"),
    "intmat.det": ("kep.intmat", "det"),
    "intmat.hnf": ("kep.intmat", "hnf"),
    "intmat.kernel_basis": ("kep.intmat", "kernel_basis"),
    "abgroup.from_cokernel": ("kep.abgroup", "from_cokernel"),
    "abgroup.kernel_group": ("kep.abgroup", "kernel_group"),
    "abgroup.direct_sum": ("kep.abgroup", "direct_sum"),
    "groupoid.classify": ("kep.groupoid", "classify"),
    "groupoid.refine_slice": ("kep.groupoid", "refine_slice"),
    "groupoid.compose_slices": ("kep.groupoid", "compose_slices"),
    "groupoid.invert_slice": ("kep.groupoid", "invert_slice"),
    "groupoid.slices_equal": ("kep.groupoid", "slices_equal"),
    "selfsim.is_pseudo_free": ("kep.selfsim", "is_pseudo_free"),
    "selfsim.kappa_edge": ("kep.selfsim", "kappa_edge"),
    "selfsim.kappa_path": ("kep.selfsim", "kappa_path"),
    "selfsim.kappa_path_preimage": ("kep.selfsim", "kappa_path_preimage"),
}

# Span name -> (module, class, method), wrapped on the class.
METHODS = {
    "intmat.matmul": ("kep.intmat", "IntMatrix", "__matmul__"),
    "selfsim.out_edges": ("kep.selfsim", "Graph", "out_edges"),
    "selfsim.edges": ("kep.selfsim", "Graph", "edges"),
}

LAYERS = ("cli", "invariants", "dirlimit", "intmat", "abgroup", "groupoid", "selfsim")


def _matrix_bits(m) -> int:
    return max((abs(x).bit_length() for x in m.entries), default=0)


class Tracer:
    """Records spans and per-name aggregates while installed."""

    def __init__(self):
        self.names = list(FUNCTIONS) + list(METHODS)
        index = {name: i for i, name in enumerate(self.names)}
        k = len(self.names)
        self.calls = [0] * k
        self.total_s = [0.0] * k  # inclusive, outermost call of a name only
        self.self_s = [0.0] * k
        self._active = [0] * k
        self._stack: list[list] = []  # [span id, start, child time] per open span
        self._next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("h")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.span_self = array("d")
        self.snf_peak_bits = 0
        self.edges_listed = 0
        self.pseudo_free_kappa_calls = 0
        self._pf = index["selfsim.is_pseudo_free"]
        self._edges = index["selfsim.edges"]
        self._hooks = {
            index["intmat.snf"]: self._on_snf,
            index["selfsim.out_edges"]: self._on_out_edges,
            index["selfsim.edges"]: self._on_edges,
            index["selfsim.kappa_edge"]: self._on_kappa_edge,
        }
        self._restore: list[tuple[object, str, object]] = []
        self.t0 = perf_counter()

    def _on_snf(self, result) -> None:
        bits = max(_matrix_bits(result.U), _matrix_bits(result.D), _matrix_bits(result.V))
        if bits > self.snf_peak_bits:
            self.snf_peak_bits = bits

    # Edge objects handed to callers: those of every `out_edges` call made
    # outside an `edges` call, plus those of every outermost `edges` call,
    # however `edges` builds its list.
    def _on_out_edges(self, result) -> None:
        if not self._active[self._edges]:
            self.edges_listed += len(result)

    def _on_edges(self, result) -> None:
        if self._active[self._edges] == 1:
            self.edges_listed += len(result)

    def _on_kappa_edge(self, result) -> None:
        if self._active[self._pf]:
            self.pseudo_free_kappa_calls += 1

    def _wrap(self, idx: int, fn):
        stack = self._stack
        active = self._active
        hook = self._hooks.get(idx)

        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0, 0.0]
            stack.append(frame)
            active[idx] += 1
            start = frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(result)
                return result
            finally:
                dur = perf_counter() - start
                stack.pop()
                active[idx] -= 1
                own = dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                self.calls[idx] += 1
                self.self_s[idx] += own
                if not active[idx]:
                    self.total_s[idx] += dur
                self.span_id.append(span)
                self.span_parent.append(parent)
                self.span_name.append(idx)
                self.span_start.append(start - self.t0)
                self.span_dur.append(dur)
                self.span_self.append(own)

        return traced

    @staticmethod
    def _originals() -> dict[str, object]:
        """Span name -> the function to wrap, or None where the loaded
        library lacks it."""
        out = {}
        for name, (module, attr) in FUNCTIONS.items():
            out[name] = getattr(importlib.import_module(module), attr, None)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(module), cls_name, None)
            out[name] = vars(cls).get(attr) if isinstance(cls, type) else None
        return {name: fn if callable(fn) else None for name, fn in out.items()}

    def targets_missing(self) -> list[str]:
        """Names of the traced targets that the loaded library lacks."""
        return [f"{name} ({'.'.join(FUNCTIONS.get(name) or METHODS[name])})"
                for name, fn in self._originals().items() if fn is None]

    def install(self) -> None:
        """Wrap every target; each must exist (see `targets_missing`)."""
        originals = self._originals()
        modules = [m for name, m in sys.modules.items() if name == "kep" or name.startswith("kep.")]
        for name in FUNCTIONS:
            original = originals[name]
            wrapper = self._wrap(self.names.index(name), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            self._restore.append((cls, attr, originals[name]))
            setattr(cls, attr, self._wrap(self.names.index(name), originals[name]))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def snapshot(self) -> list[int]:
        """Call counts per name, to attribute calls to one request."""
        return list(self.calls)

    def get(self, name: str, field: str) -> float:
        i = self.names.index(name)
        return {"calls": self.calls, "s": self.total_s, "self_s": self.self_s}[field][i]

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in zip(self.names, self.self_s) if name.split(".")[0] == layer)

    def write_spans(self, path) -> None:
        """Gzipped, one tab-separated line per span in order of completion."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tdur_s\tself_s\n")
            names = self.names
            for row in zip(self.span_id, self.span_parent, self.span_name,
                           self.span_start, self.span_dur, self.span_self):
                out.write(f"{row[0]}\t{row[1]}\t{names[row[2]]}\t{row[3]:.6f}\t{row[4]:.6f}\t{row[5]:.6f}\n")
