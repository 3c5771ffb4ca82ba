"""The benchmark's client process: one fresh interpreter, one thread.

run.py starts it as ``python3 perfbench/worker.py --root DIR --workload W
--seed N --seconds S --mode setup|plain|trace [--quick]``.  It imports lpai
from DIR/src, builds the workload's inputs, runs the warm-up calls and
prints ``ready``; run.py times set-up up to that line.  In ``setup`` mode it
stops there.  Otherwise it runs whole rounds over the inputs until
``--seconds`` have passed and the workload's minimum operation count is met,
then prints one JSON line: per-operation latencies, the first output on each
input, counts of operations that raised or disagreed with that first output,
and its peak resident set.  ``trace`` mode wraps lpai's functions first
(see spans.py) and reports per-layer totals instead of the plain metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import calibration
import spans as spanlib
import workloads as wl

KEEP_SPANS = 20000  # raw spans written out per traced run; totals cover every span


def geometry_path(root: Path, index: int) -> Path:
    return root / "perfbench" / "out" / "work" / f"geometry-{index}.txt"


def child_env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


class Workload:
    """Inputs, the timed call and the warm-up of one workload."""

    def __init__(self, lpai, name: str, seed: int, sizes: wl.Sizes, root: Path, cli_in_process: bool):
        self.name = name
        # whether operations run in this process; cli-session starts processes
        # unless its argument vectors go to lpai.cli.main in-process
        self.in_process = name != "cli-session" or cli_in_process
        specs = wl.make_specs(name, seed, sizes)
        if name in ("beat-builders", "beat-long"):
            self.inputs = [wl.build_beat_args(lpai, s) for s in specs]
            self.call = lambda args: wl.beat_op(lpai, args)
            warm = self.inputs[: 4 if name == "beat-builders" else 1]  # each geometry once
        elif name == "oracle-convergence":
            self.inputs = [wl.build_oracle_args(lpai, s) for s in specs]
            self.call = lambda args: wl.oracle_op(lpai, args)
            warm = self.inputs[:1]
        else:
            self.inputs = []
            for i, s in enumerate(specs):
                path = geometry_path(root, i)
                path.parent.mkdir(parents=True, exist_ok=True)
                seq = lpai.PulseSequence(tuple(lpai.Pulse(*p) for p in s["check"]["pulses"]))
                path.write_text(lpai.serialize_geometry(seq), encoding="utf-8")
                self.inputs.append(wl.cli_argvs(s, str(path)))
            env = child_env(root)
            self.root, self.env = root, env
            self.call = self._main_in_process if cli_in_process else (lambda argvs: self._processes(argvs, root, env))
            self.lpai = lpai
            warm = []
            self._processes([self.inputs[0][1]], root, env)  # one `check` process
        for args in warm:
            self.call(args)

    @staticmethod
    def _processes(argvs, root: Path, env: dict) -> tuple:
        out = []
        for argv in argvs:
            r = subprocess.run(
                [sys.executable, "-m", "lpai.cli", *argv], capture_output=True, cwd=root, env=env
            )
            out.append((r.returncode, r.stdout.decode("utf-8")))
        return tuple(out)

    def _main_in_process(self, argvs) -> tuple:
        out = []
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.lpai.cli.main(argv)
            out.append((code, buf.getvalue()))
        return tuple(out)


def _key(out):
    """Bitwise identity of an output: floats by their hex form, so nan and -0.0 compare exactly."""
    return tuple(x.hex() if isinstance(x, float) else x for x in out)


def _calibrate() -> int:
    """Nanoseconds per calibration unit, measured now."""
    t0 = time.perf_counter_ns()
    for _ in range(calibration.UNITS):
        calibration.unit()
    return (time.perf_counter_ns() - t0) // calibration.UNITS


def timed_loop(work: Workload, seconds: float, at_least: int, after_op=None) -> dict:
    """Whole rounds over the inputs; each latency comes with its calibration scale (calibration.py)."""
    inputs = work.inputs
    n = len(inputs)
    latency: list[int] = []
    between: list[int] = []  # index of the calibration made before each operation
    first: list = [None] * n
    bad = [0] * n
    count = [0] * n
    errors: dict[int, str] = {}
    clock = time.perf_counter_ns
    if work.in_process:
        calibrate, nominal, every = _calibrate, calibration.NOMINAL_UNIT_NS, calibration.EVERY_NS
    else:
        calibrate = lambda: calibration.process_ns(work.root, work.env)
        nominal, every = calibration.NOMINAL_PROCESS_NS, 0
    deadline = time.perf_counter() + seconds
    calibrations = [calibrate()]
    since = 0
    while True:
        for i, args in enumerate(inputs):
            t0 = clock()
            try:
                out = work.call(args)
            except Exception as exc:  # an lpai error fails this operation; the run goes on
                t1 = clock()
                out = None
                errors.setdefault(i, repr(exc))
            else:
                t1 = clock()
            latency.append(t1 - t0)
            between.append(len(calibrations) - 1)
            since += t1 - t0
            if since >= every:
                calibrations.append(calibrate())
                since = 0
            if after_op is not None:
                after_op()
            count[i] += 1
            if out is None:
                bad[i] += 1
            elif first[i] is None:
                first[i] = out
            elif _key(out) != _key(first[i]):
                bad[i] += 1
                errors.setdefault(i, "output differs from the first output on this input")
        if len(latency) >= at_least and time.perf_counter() >= deadline:
            break
    if since:
        calibrations.append(calibrate())
    return {
        "latency_ns": latency,
        # each operation is scaled by the mean of the two calibrations around it
        "scale": [2 * nominal / (calibrations[j] + calibrations[j + 1]) for j in between],
        "first": first,
        "bad": bad,
        "count": count,
        "errors": {str(i): e for i, e in errors.items()},
    }


def traced_run(work: Workload, seconds: float, at_least: int, spans_out: Path) -> dict:
    recorder = spanlib.Recorder()
    totals: dict[str, list[int]] = {}
    kept: list = []
    ops = [0]

    def after_op() -> None:
        for name, (calls, self_ns) in spanlib.self_times(recorder.spans).items():
            entry = totals.setdefault(name, [0, 0])
            entry[0] += calls
            entry[1] += self_ns
        if len(kept) < KEEP_SPANS:
            base = len(kept)
            kept.extend(
                {"op": ops[0], "name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3] + base if s[3] >= 0 else -1}
                for s in recorder.spans
            )
        ops[0] += 1
        recorder.spans.clear()

    restore = spanlib.install(recorder)
    try:
        result = timed_loop(work, seconds, at_least, after_op)
    finally:
        restore()
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    with spans_out.open("w", encoding="utf-8") as fh:
        for s in kept:
            fh.write(json.dumps(s) + "\n")

    peaks = []
    tracemalloc.start()
    try:
        for args in work.inputs[:8]:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            work.call(args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    result.update(layers=totals, nodes=recorder.nodes, bytes=recorder.bytes,
                  traced_peak_bytes=statistics.median(peaks))
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "plain", "trace"), required=True)
    p.add_argument("--spans-out")
    p.add_argument("--quick", action="store_true")
    a = p.parse_args()
    root = Path(a.root)
    sizes = wl.QUICK if a.quick else wl.FULL
    at_least = 1 if a.quick else wl.min_ops(a.workload)

    import lpai
    import lpai.cli

    cli_in_process = a.mode == "trace" and a.workload == "cli-session"
    work = Workload(lpai, a.workload, a.seed, sizes, root, cli_in_process)
    print("ready", flush=True)
    if a.mode == "setup":
        return 0

    if a.mode == "plain":
        result = timed_loop(work, a.seconds, at_least)
    else:
        if cli_in_process:
            # the plain run times whole processes; this untraced in-process pass
            # is the baseline for the tracing overhead on cli-session
            untraced = timed_loop(work, a.seconds / 2.0, 1)
            untraced_s = sum(untraced["latency_ns"]) / 1e9
        result = traced_run(work, a.seconds, at_least, Path(a.spans_out))
        if cli_in_process:
            result["untraced_ops_s"] = len(untraced["latency_ns"]) / untraced_s
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if a.workload == "cli-session" else resource.RUSAGE_SELF)
    result["max_rss_kb"] = usage.ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
