"""Self-tests of the benchmark: inputs, span arithmetic, reference checks, short runs.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpai
import lpai.cli
import refcheck
import spans as spanlib
import workloads as wl

ROOT = Path(__file__).resolve().parents[2]


def _linspace(a, b, n):
    return [float(x) for x in np.linspace(a, b, n)]


def _flipped(x: float) -> float:
    return -x


def _one_ulp(x: float) -> float:
    return math.nextafter(x, math.inf)


# --- seeded inputs -------------------------------------------------------------


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_reproduces_inputs(workload):
    assert wl.make_specs(workload, 7) == wl.make_specs(workload, 7)
    assert wl.make_specs(workload, 7) != wl.make_specs(workload, 8)


@pytest.mark.parametrize("workload", ["beat-long", "oracle-convergence"])
def test_random_sequences_are_closed_with_fixed_size(workload):
    sizes = {len(s["pulses"]) for s in wl.make_specs(workload, 3)}
    assert len(sizes) == 1
    for spec in wl.make_specs(workload, 3):
        seq = wl.build_sequence(lpai, spec)
        assert lpai.closure_check(seq, lpai.Species(spec["mass"])).closed


def test_builder_inputs_cycle_through_the_four_geometries():
    specs = wl.make_specs("beat-builders", 1)
    assert len(specs) == wl.FULL.builder_inputs
    assert [s["geometry"] for s in specs[:4]] == list(wl.GEOMETRIES)


def test_min_ops_leave_ten_samples_beyond_the_tail():
    for workload, p in wl.TAIL_PERCENTILE.items():
        n = wl.min_ops(workload)
        beyond = n - math.ceil(p / 100.0 * n)
        assert beyond >= 10, (workload, n, beyond)


# --- spans ------------------------------------------------------------------------


def test_self_time_on_a_synthetic_call_tree():
    tree = [
        ("a", 0, 100, -1),
        ("b", 10, 40, 0),
        ("c", 15, 25, 1),
        ("c", 30, 32, 1),
        ("b", 50, 70, 0),
        ("a", 200, 210, -1),
    ]
    got = spanlib.self_times(tree)
    assert got == {"a": [2, 100 - 30 - 20 + 10], "b": [2, (30 - 10 - 2) + 20], "c": [2, 12]}
    total = sum(v[1] for v in got.values())
    assert total == 100 + 10  # self times of a tree add up to its roots


def test_traced_beat_counts_and_restore():
    original = lpai.beat
    recorder = spanlib.Recorder()
    restore = spanlib.install(recorder)
    try:
        assert lpai.beat is not original and lpai.clock.beat is not original
        seq = lpai.build_rbi_double_loop(1.8e10, 0.3)
        lpai.beat(seq, lpai.ClockPair(1.443157e-25, 2.7e15), lpai.GravityEnv(9.81), lpai.InitialConditions())
    finally:
        restore()
    assert lpai.beat is original and lpai.clock.beat is original
    counts = {k: v[0] for k, v in spanlib.self_times(recorder.spans).items()}
    assert counts["core.validate_sequence"] == 9
    assert counts["geometry.closure_check"] == 3
    assert counts["phase.recoil_double_sum"] == 3
    assert counts["kinematics.gravity_trajectory"] == 12
    assert counts["clock.beat"] == 1


def test_traced_convergence_study_marches_sixteen_times():
    spec = wl.make_specs("oracle-convergence", 2, wl.QUICK)[0]
    seq, species, env, ics, widths, steps = wl.build_oracle_args(lpai, spec)
    recorder = spanlib.Recorder()
    restore = spanlib.install(recorder)
    try:
        lpai.convergence_study(seq, species, env, ics, widths, steps_per_segment=steps)
    finally:
        restore()
    counts = {k: v[0] for k, v in spanlib.self_times(recorder.spans).items()}
    assert counts["kernels.march_rk4"] == 16
    assert counts["oracle.oracle_report"] == 4
    assert counts["phase.recoil_double_sum"] == 4
    assert recorder.nodes > 0 and recorder.bytes == 8 * (6 * recorder.nodes - 4 * 16)


# --- reference checks -------------------------------------------------------------


def _beat_case(spec):
    seq, clock, env, ics = wl.build_beat_args(lpai, spec)
    out = dict(zip(refcheck.BEAT_FIELDS, wl.beat_op(lpai, (seq, clock, env, ics))))
    parts = {
        "S": lpai.recoil_double_sum(seq),
        "gravito": lpai.gravito_recoil_phase(seq, env, ics),
        "laser": lpai.laser_phase(seq),
        "delta_tau_no_gravity": lpai.beat(
            seq, clock, lpai.GravityEnv(0.0), lpai.InitialConditions()
        ).delta_tau,
    }
    return refcheck.BeatReference(spec), out, parts


BEAT_SPECS = wl.make_specs("beat-builders", 5, wl.QUICK)[:8] + wl.make_specs("beat-long", 5, wl.QUICK)[:1]


@pytest.mark.parametrize("spec", BEAT_SPECS, ids=lambda s: s.get("geometry", "long"))
def test_beat_check_accepts_lpai_and_rejects_one_ulp_or_sign(spec):
    ref, out, parts = _beat_case(spec)
    assert refcheck.check_beat(ref, out, parts) == []
    for bad in (_one_ulp, _flipped):
        for name in out:
            assert refcheck.check_beat(ref, {**out, name: bad(out[name])}, parts), (bad, name)
        for name in parts:
            assert refcheck.check_beat(ref, out, {**parts, name: bad(parts[name])}), (bad, name)


def test_exact_recoil_sum_is_correctly_rounded_on_an_offset_grid():
    # three pulses whose pair terms cancel in real arithmetic but not in floats
    pulses = [(0.1, 3.0, 0.0, 0.0, 0.0), (0.3, -6.0, 0.0, 0.0, 0.0), (0.7, 3.0, 0.0, 0.0, 0.0)]
    exact = refcheck.exact_recoil_sum(pulses)
    seq = lpai.PulseSequence(tuple(lpai.Pulse(*p) for p in pulses))
    assert refcheck.same_bits(lpai.recoil_double_sum(seq), float(exact))


def _oracle_case():
    spec = wl.make_specs("oracle-convergence", 4, wl.QUICK)[0]
    args = wl.build_oracle_args(lpai, spec)
    seq, species = args[0], args[1]
    parts = {"S": lpai.recoil_double_sum(seq), "delta_tau": lpai.proper_time_difference(seq, species)}
    return spec, wl.oracle_op(lpai, args), parts


def test_oracle_check_accepts_lpai_and_rejects_sign_flips_and_bad_closed_forms():
    spec, out, parts = _oracle_case()
    assert refcheck.check_oracle(spec, out, parts) == []
    for i, value in enumerate(out):
        assert refcheck.check_oracle(spec, out[:i] + (_flipped(value),) + out[i + 1 :], parts), i
    n = len(spec["widths"])
    for block in (0, 2 * n + 1):  # a width one ulp off is not the requested width
        w = out[block]
        assert refcheck.check_oracle(spec, out[:block] + (_one_ulp(w),) + out[block + 1 :], parts)
    for name in parts:
        for bad in (_one_ulp, _flipped):
            assert refcheck.check_oracle(spec, out, {**parts, name: bad(parts[name])}), name
    slowed = list(out)
    slowed[n + 2], slowed[n + 3] = slowed[n + 3], slowed[n + 2]  # residuals no longer decrease
    assert refcheck.check_oracle(spec, tuple(slowed), parts)


def _cli_case():
    spec = wl.make_specs("cli-session", 9, wl.QUICK)[0]
    path = ROOT / "perfbench" / "out" / "test-geometry.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    seq = lpai.PulseSequence(tuple(lpai.Pulse(*p) for p in spec["check"]["pulses"]))
    path.write_text(lpai.serialize_geometry(seq), encoding="utf-8")
    results = []
    for argv in wl.cli_argvs(spec, str(path)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lpai.cli.main(argv)
        results.append((code, buf.getvalue()))
    return spec, results


def _edits(name: str, text: str):
    """Copies of one CLI output with a single result number one ulp off or sign-flipped."""
    if name in ("simulate", "oracle"):
        doc = json.loads(text)
        fields = (
            [("phase", k) for k in doc["phase"]] + [("beat", k) for k in doc["beat"]]
            if name == "simulate"
            else [("oracle", k) for k in ("delta_tau_numeric", "delta_tau_closed", "rel_residual", "total_phase_numeric")]
        )
        for block, key in fields:
            for bad in (_one_ulp, _flipped):
                changed = json.loads(text)
                changed[block][key] = bad(doc[block][key])
                yield f"{key} {bad.__name__}", json.dumps(changed, indent=2) + "\n"
        changed = json.loads(text)
        changed["oracle" if name == "oracle" else "phase"]["gravito_recoil_numeric" if name == "oracle" else "gravito_recoil"] *= -1.0
        yield "gravito sign", json.dumps(changed, indent=2) + "\n"
        return
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("#") or line.startswith("closed") or line.startswith("T,"):
            continue
        cells = line.split() if name == "check" else line.rstrip("\n").split(",")
        for j, cell in enumerate(cells):
            if j == 0 and name == "check":
                continue
            value = float(cell)
            for bad in (_one_ulp, _flipped):
                new = list(cells)
                new[j] = f"{bad(value):.16e}"
                joined = (f"{new[0]}  {new[1]}" if name == "check" else ",".join(new)) + "\n"
                yield f"line {i} cell {j} {bad.__name__}", "".join(lines[:i] + [joined] + lines[i + 1 :])


def test_cli_check_accepts_lpai_and_rejects_any_result_one_ulp_off_or_flipped():
    spec, results = _cli_case()
    assert refcheck.check_cli(spec, results, _linspace) == []
    edits = 0
    for i, name in enumerate(("simulate", "check", "oracle", "scan")):
        code, text = results[i]
        for label, changed_text in _edits(name, text):
            if changed_text == text:  # -0.0 printed as 0 cannot be flipped in text
                continue
            changed = list(results)
            changed[i] = (code, changed_text)
            assert refcheck.check_cli(spec, changed, _linspace), (name, label)
            edits += 1
    assert edits > 100
    bad_exit = [(3, text) if i == 2 else (code, text) for i, (code, text) in enumerate(results)]
    assert refcheck.check_cli(spec, bad_exit, _linspace)


# --- whole runs ---------------------------------------------------------------------


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _benchmark_names(key):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc[key]}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_short_mode_runs_every_workload_with_every_check(workload):
    r = _run(["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", "0", "--quick"], ROOT)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _benchmark_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_short_traced_run_reports_every_layer_metric():
    r = _run(["--workload", "cli-session", "--seed", "3", "--seconds", "0.3", "--trace", "1", "--quick"], ROOT)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == _benchmark_names("per_layer")
    assert result["metrics"]["cli.main.calls_per_op"]["value"] == 4.0


def test_fails_without_lpai_sources():
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        r = _run(["--workload", "beat-builders", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert r.returncode != 0
    assert r.stdout == ""
