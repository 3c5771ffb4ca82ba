"""The benchmark's span recorder still finds every lpai function it wraps.

perfbench/spans.py wraps lpai functions by (module, name) from outside and
reads the step array of every march_rk4 call from its first argument.  A
rename or a changed signature in lpai would silently drop spans from traced
benchmark runs, and a march that bypasses march_rk4 would drop its work from
the trace, so this test loads the recorder from its path, without importing
the benchmark package, and checks all three.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from lpai import (
    GravityEnv,
    InitialConditions,
    OracleConfig,
    Species,
    _kernels,
    build_rbi_double_loop,
    oracle,
)
from lpai.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_an_lpai_callable():
    spans = load_spans()
    assert spans.TRACED
    for module, func in spans.TRACED:
        target = getattr(importlib.import_module(f"lpai.{module}"), func, None)
        assert callable(target), f"lpai.{module}.{func}"


def test_march_rk4_takes_the_step_array_first():
    spans = load_spans()
    assert ("_kernels", "march_rk4") in spans.TRACED
    first = next(iter(inspect.signature(_kernels.march_rk4).parameters))
    assert first == "h"
    h = [0.1] * 7
    args = (h, h, [0.005] * 7, [(2, 4, 3.0)], 9.81, 0.0, 1.0)
    z, v = _kernels.march_rk4(*args)
    nodes, moved = spans.march_work(args)
    assert nodes == len(z) == len(v)
    assert moved == 8 * (4 * len(h) + 2 * nodes)


STUDY_WIDTHS = (4e-4, 2e-4, 1e-4, 5e-5)


# each entry is called through lpai.oracle, whose binding the recorder wraps
def run_report(seq, species, env, ics, shape):
    oracle.oracle_report(seq, species, env, ics, OracleConfig(1e-6, 100, shape))


def run_study(seq, species, env, ics, shape):
    oracle.convergence_study(
        seq, species, env, ics, STUDY_WIDTHS, steps_per_segment=100, pulse_shape=shape
    )


# both shapes march one step per segment: the recorder sees both
@pytest.mark.parametrize(
    "run, entry, widths, marches, shape",
    [
        # the branch sum, the branch-difference system and the pulse-free launch
        pytest.param(run_report, "oracle.oracle_report", (1e-6,), 3, "cosine", id="report"),
        # per width the branch sum and the branch difference; no oracle_report
        pytest.param(run_study, "oracle.convergence_study", STUDY_WIDTHS, 2, "cosine", id="study"),
        pytest.param(
            run_report, "oracle.oracle_report", (1e-6,), 3, "tophat", id="report-tophat"
        ),
        pytest.param(
            run_study, "oracle.convergence_study", STUDY_WIDTHS, 2, "tophat", id="study-tophat"
        ),
    ],
)
def test_every_oracle_march_goes_through_march_rk4(run, entry, widths, marches, shape):
    spans = load_spans()
    seq = build_rbi_double_loop(1e7, 0.1)
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        run(seq, Species(1.443157e-25), GravityEnv(9.81), InitialConditions(0.1), shape)
    finally:
        restore()
    counts = {name: calls for name, (calls, _) in spans.self_times(recorder.spans).items()}
    assert counts[entry] == 1
    assert counts.get("oracle.oracle_report", 0) == (entry == "oracle.oracle_report")
    assert counts["kernels.march_rk4"] == marches * len(widths)
    nodes = [len(oracle._layout(seq, OracleConfig(w, 100, shape)).ts) for w in widths]
    assert recorder.nodes == marches * sum(nodes)


def test_a_scan_runs_one_beat_per_row(capsys):
    spans = load_spans()
    steps = 200
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        code = main(
            [
                "scan", "--geometry", "rbi-sym", "--k", "1e7", "--Tprime", "0.01",
                "--mass", "1.443157e-25", "--g", "9.81", "--omega", "2.696928e15",
                "--vary", "T", "--from", "0.01", "--to", "0.4", "--steps", str(steps),
            ]
        )
    finally:
        restore()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) > steps
    counts = {name: calls for name, (calls, _) in spans.self_times(recorder.spans).items()}
    for name in (
        "clock.beat", "core.validate_sequence", "geometry.closure_check", "phase.recoil_double_sum"
    ):
        assert counts[name] == steps, name
    assert "phase.total_phase" not in counts
