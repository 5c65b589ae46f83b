"""Span tracer that the traced benchmark run wraps around each layer's public calls.

The tracer patches module attributes of the installed package for the length
of one traced pass: every module of ``sheetcrystal`` that holds the original
function gets the wrapper, so calls between layers (``cli`` calling
``duality``, ``verification`` calling ``oracle``) are seen too.  Each call
records a span ``(name, start, end, parent span, operation, failed, scale)``
in memory; :meth:`Tracer.write` puts them in a CSV file when the run ends.
``scale`` is the factor that takes the operation's times to the reference
pace (see ``pace.py``); derived durations are multiplied by it.

A target that no longer exists is listed in :attr:`Tracer.missing` and
skipped, so renaming a function breaks the per-layer numbers, not the run.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (span name, module, attribute, per-call counter: (args, result) -> {name: count})
TARGETS = (
    ("electrostatics.solve_sheets", "sheetcrystal.electrostatics", "solve_sheets", None),
    ("duality.ground_state", "sheetcrystal.duality", "ground_state_from_electrostatics", None),
    ("duality.residuals", "sheetcrystal.duality", "schrodinger_residuals", None),
    ("oracle.find_bound_states", "sheetcrystal.oracle", "find_bound_states",
     lambda args, result: {"oracle.states_found": len(result)}),
    ("oracle.expectations", "sheetcrystal.oracle", "expectation_potential_numeric", None),
    ("oracle.expectations", "sheetcrystal.oracle", "expectation_kinetic_numeric", None),
    ("closedform.psi", "sheetcrystal.closedform", "psi", None),
    ("closedform.normalization_constant", "sheetcrystal.closedform", "normalization_constant", None),
    ("wavefunction.values", "sheetcrystal.wavefunction", "PiecewiseExpWavefunction.values",
     lambda args, result: {"wavefunction.values.points": int(np.size(result))}),
    ("verification.run_verification", "sheetcrystal.verification", "run_verification",
     lambda args, result: {"verification.checks_failed": sum(not row.passed for row in result.checks)}),
    ("cli.main", "sheetcrystal.cli", "main", None),
)

NAME, START, END, PARENT, OP, FAILED, SCALE = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.op_names: list[str] = []
        self._first_span = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, len(self.op_names) - 1, True, 1.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[FAILED] = False
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return traced

    def begin_op(self, name: str) -> None:
        """Attribute the spans that follow to operation ``name``."""
        self.op_names.append(name)
        self._first_span = len(self.spans)

    def end_op(self, scale: float) -> None:
        """Set the reference-pace factor of the spans of the current operation."""
        for span in self.spans[self._first_span:]:
            span[SCALE] = scale

    def install(self) -> None:
        """Patch every target; record the ones that cannot be found."""
        package = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "sheetcrystal"]
        for name, module_name, attribute, count in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if not callable(original):
                label = f"{module_name}.{attribute}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            wrapper = self._wrap(name, original, count)
            holders = [owner] if isinstance(owner, type) else package
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id,name,start,end,parent,op,failed,scale\n")
            for i, s in enumerate(self.spans):
                out.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{self.op_names[s[OP]]},"
                          f"{int(s[FAILED])},{s[SCALE]!r}\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_totals(spans: list[list]) -> dict[str, float]:
    """calls, busy_s, self_s and failed per span name, plus oracle.map_calls.

    Busy time is the union of a name's span intervals; self time is each
    span's duration minus the durations of its direct children.  Times are
    scaled to the reference pace with each span's operation factor.
    """
    intervals = defaultdict(list)
    child_time = defaultdict(float)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        intervals[s[NAME], s[OP], s[SCALE]].append((s[START], s[END]))
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    for i, s in enumerate(spans):
        name = s[NAME]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (s[END] - s[START] - child_time[i]) * s[SCALE]
        out[f"{name}.failed"] += s[FAILED]
        if name == "duality.ground_state":
            parent = s[PARENT]
            while parent >= 0 and not spans[parent][NAME].startswith("oracle."):
                parent = spans[parent][PARENT]
            out["oracle.map_calls"] += parent >= 0
    for (name, _, scale), pairs in intervals.items():
        out[f"{name}.busy_s"] += _union_length(pairs) * scale
    return out
