"""Outside-in span recording around lpai's public functions.

The recorder replaces every binding of each traced function in every loaded
lpai module namespace with a wrapper that records a span (name, start, end,
parent).  Nothing inside lpai changes; calls that reach a function through
any module's global name pass through the wrapper.  ``_exactsum`` is not
wrapped: it runs thousands of times per operation and a wrapper would
distort the timing, so its time lands in the self time of its callers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module under lpai, function) -> metric prefix; metric names may not start
# with "_", so _kernels is reported as "kernels"
TRACED = {
    ("core", "validate_sequence"): "core.validate_sequence",
    ("geometry", "closure_check"): "geometry.closure_check",
    ("geometry", "parse_geometry"): "geometry.parse_geometry",
    ("phase", "total_phase"): "phase.total_phase",
    ("phase", "proper_time_difference"): "phase.proper_time_difference",
    ("phase", "recoil_double_sum"): "phase.recoil_double_sum",
    ("phase", "gravito_recoil_phase"): "phase.gravito_recoil_phase",
    ("phase", "laser_phase"): "phase.laser_phase",
    ("kinematics", "gravity_trajectory"): "kinematics.gravity_trajectory",
    ("clock", "beat"): "clock.beat",
    ("clock", "per_state_phase"): "clock.per_state_phase",
    ("oracle", "convergence_study"): "oracle.convergence_study",
    ("oracle", "oracle_report"): "oracle.oracle_report",
    ("_kernels", "march_rk4"): "kernels.march_rk4",
    ("cli", "main"): "cli.main",
}
MARCH = "kernels.march_rk4"


def march_work(args) -> tuple[int, int]:
    """Computed work of one march_rk4 call: grid nodes, and bytes of its four inputs and two outputs."""
    steps = len(args[0])
    return steps + 1, 8 * (4 * steps + 2 * (steps + 1))


class Recorder:
    """Spans of the current operation plus per-name totals over all operations."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start_ns, end_ns, parent index], in call order
        self.stack: list[int] = []
        self.nodes = 0
        self.bytes = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == MARCH:
                nodes, moved = march_work(args)
                self.nodes += nodes
                self.bytes += moved
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def install(recorder: Recorder):
    """Wrap every binding of the traced functions; returns a function that undoes it."""
    wrapped = {}
    for (module, func), name in TRACED.items():
        original = getattr(importlib.import_module(f"lpai.{module}"), func)
        wrapped[id(original)] = (original, recorder.wrap(name, original))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "lpai" and not modname.startswith("lpai."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))

    def restore() -> None:
        for module, attr, value in patched:
            setattr(module, attr, value)

    return restore


def self_times(spans) -> dict[str, list[int]]:
    """Per name: [calls, self ns], where self time is a span minus its direct children.

    Spans are (name, start, end, parent index or -1) and nest properly, as
    they do in one thread, so a span's children never overlap.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = {}
    for (name, start, end, _), inner in zip(spans, child_ns):
        entry = out.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += end - start - inner
    return out
