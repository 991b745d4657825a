"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``nablatc`` module from
outside: it replaces every module attribute that refers to a target
function, so calls through the aliases under which ``operators``,
``identities``, ``taylor``, ``laplace``, ``suite`` and ``cli`` import each
other's functions are recorded too.  Spans (name, start, end, parent, op)
stay in memory until the run ends; counts of work done are recorded at the
same boundaries.  The library itself is not modified.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict


def _count_gl_coefficients(counts, args, kwargs, result):
    counts["special.gl_coefficients.terms"] += result.length


def _count_gl_tempered(counts, args, kwargs, result):
    n = result.grid.horizon
    counts["operators.gl_tempered.points"] += n
    counts["operators.gl_tempered.macs"] += n * (n + 1) // 2


def _count_nlt(counts, args, kwargs, result):
    counts["laplace.nlt.terms_used"] += result.terms_used
    counts["laplace.nlt.converged"] += int(result.converged)


def _count_convolve(counts, args, kwargs, result):
    n = result.grid.horizon
    counts["laplace.convolve.macs"] += n * (n + 1) // 2


def _count_fde_solve(counts, args, kwargs, result):
    n = result.grid.horizon
    counts["laplace.fde_solve.macs"] += n * (n - 1) // 2


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def _count_read_csv(counts, args, kwargs, result):
    counts["signals.read_signal_csv.bytes"] += os.path.getsize(_path_arg(args, kwargs))


def _count_write_csv(counts, args, kwargs, result):
    counts["signals.write_signal_csv.bytes"] += os.path.getsize(_path_arg(args, kwargs))


TAYLOR_FUNCTIONS = (
    "tempered_op_taylor_future",
    "tempered_op_taylor_current",
    "tempered_op_taylor_initial",
    "taylor_series_initial",
    "reconstruct_initial",
)

#: (module, function) -> counter called with the arguments and the result.
TARGETS = {
    ("special", "rising_over_gamma"): None,
    ("special", "gl_coefficients"): _count_gl_coefficients,
    ("operators", "gl_tempered"): _count_gl_tempered,
    ("operators", "nabla_n_tempered"): None,
    ("operators", "rl_tempered"): None,
    ("operators", "caputo_tempered"): None,
    **{("taylor", f): None for f in TAYLOR_FUNCTIONS},
    ("laplace", "nlt"): _count_nlt,
    ("laplace", "convolve"): _count_convolve,
    ("laplace", "ml_function"): None,
    ("laplace", "fde_solve"): _count_fde_solve,
    ("signals", "read_signal_csv"): _count_read_csv,
    ("signals", "write_signal_csv"): _count_write_csv,
}


def _targets():
    import nablatc.identities as identities

    checkers = {("identities", f): None for f in identities.__all__ if f.startswith("check_")}
    return {**TARGETS, **checkers}


class Tracer:
    """Records nested spans around the wrapped library functions.

    Single-threaded by design: the benchmark drives one client in one
    process, so a plain stack gives each span its parent.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._name_index: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_index[name]
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "nablatc" or n.startswith("nablatc.")]
        for (mod_name, fn_name), counter in _targets().items():
            original = getattr(sys.modules[f"nablatc.{mod_name}"], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def to_dict(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, separators=(",", ":"))


def merge(dumps: list[dict]) -> dict:
    """Concatenate span dumps (each keeps its own parent indices)."""
    names: list[str] = []
    index: dict[str, int] = {}
    spans: list[list] = []
    counts: dict[str, int] = defaultdict(int)
    for d in dumps:
        base = len(spans)
        remap = []
        for n in d["names"]:
            if n not in index:
                index[n] = len(names)
                names.append(n)
            remap.append(index[n])
        for name_id, start, end, parent, op in d["spans"]:
            spans.append([remap[name_id], start, end, parent + base if parent >= 0 else -1, op])
        for k, v in d["counts"].items():
            counts[k] += v
    return {"names": names, "spans": spans, "counts": dict(counts)}


def summarize(dump: dict) -> dict[str, dict[str, float]]:
    """Per function name: call count and self time.

    Self time is the span's duration minus the durations of its direct
    children; spans nest strictly because one thread records them.
    """
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name_id, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(dump["names"][name_id], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
    return out
