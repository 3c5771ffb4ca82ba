"""Benchmark for lpai: one named workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload beat-builders --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run.  The last line of standard output is the result
object; the line before it is the environment block.  Every distinct input
is checked against references computed apart from lpai (refcheck.py); an
operation whose input fails a check, that raises, or whose output differs
from the first output on the same input counts as failed.  The exit code is
0 when every operation passed, 1 when some failed and 2 when the checkout has
no lpai sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

import calibration
import refcheck
import spans as spanlib
import workloads as wl
from worker import child_env

HERE = Path(__file__).resolve().parent


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git without leaving it; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, lpai) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "lpai": lpai.__version__,
    }


def start_worker(root: Path, a, mode: str, spans_out: Path | None = None) -> tuple[float, dict | None]:
    """Run one worker; returns (seconds from start to its ``ready`` line, its result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(root), "--workload", a.workload,
        "--seed", str(a.seed), "--seconds", str(a.seconds), "--mode", mode,
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    if a.quick:
        cmd.append("--quick")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed (exit {proc.returncode}, first line {line!r})")
    return ready, (json.loads(rest.splitlines()[-1]) if mode != "setup" else None)


def import_ms(root: Path, samples: int) -> float:
    """Median wall time of a fresh interpreter that only imports lpai.cli."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lpai.cli"], cwd=root, env=child_env(root), check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


# --- checks ---------------------------------------------------------------------


def input_failures(lpai, workload: str, specs: list[dict], first: list) -> list[list[str]]:
    """Reference-check failures of every distinct input, from its first output."""
    import numpy

    out = []
    for spec, result in zip(specs, first):
        if result is None:
            out.append(["every operation on this input raised"])
        elif workload in ("beat-builders", "beat-long"):
            seq, clock, env, ics = wl.build_beat_args(lpai, spec)
            parts = {
                "S": lpai.recoil_double_sum(seq),
                "gravito": lpai.gravito_recoil_phase(seq, env, ics),
                "laser": lpai.laser_phase(seq),
                "delta_tau_no_gravity": lpai.beat(
                    seq, clock, lpai.GravityEnv(0.0), lpai.InitialConditions(0.0, 0.0)
                ).delta_tau,
            }
            got = dict(zip(refcheck.BEAT_FIELDS, result))
            out.append(refcheck.check_beat(refcheck.BeatReference(spec), got, parts))
        elif workload == "oracle-convergence":
            seq, species = wl.build_sequence(lpai, spec), lpai.Species(spec["mass"])
            parts = {"S": lpai.recoil_double_sum(seq), "delta_tau": lpai.proper_time_difference(seq, species)}
            out.append(refcheck.check_oracle(spec, tuple(result), parts))
        else:
            linspace = lambda a, b, n: [float(x) for x in numpy.linspace(a, b, n)]
            out.append(refcheck.check_cli(spec, [tuple(r) for r in result], linspace))
    return out


# --- metrics --------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled_latencies_ms(res: dict) -> list[float]:
    """Operation latencies in ms at the nominal calibration speed (see calibration.py), ascending."""
    return sorted(t * f / 1e6 for t, f in zip(res["latency_ns"], res["scale"]))


def plain_metrics(workload: str, setups: list[float], res: dict) -> dict:
    lat_ms = scaled_latencies_ms(res)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "throughput_ops_s": metric(len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "latency_tail_ms": metric(percentile(lat_ms, wl.TAIL_PERCENTILE[workload]), "ms"),
        "peak_rss_mb": metric(res["max_rss_kb"] / 1024.0, "MB"),
    }


def layer_metrics(res: dict, cli_import_ms: float) -> dict:
    ops = len(res["latency_ns"])
    out = {}
    for name in spanlib.TRACED.values():
        calls, self_ns = res["layers"].get(name, (0, 0))
        out[f"{name}.calls_per_op"] = metric(calls / ops, "count")
        out[f"{name}.self_ms_per_op"] = metric(self_ns / 1e6 / ops, "ms")
    out[f"{spanlib.MARCH}.nodes_per_op"] = metric(res["nodes"] / ops, "count")
    out[f"{spanlib.MARCH}.bytes_per_op"] = metric(res["bytes"] / ops, "B")
    out["oracle.traced_peak_mb"] = metric(res["traced_peak_bytes"] / 2**20, "MB")
    out["cli.import_ms"] = metric(cli_import_ms, "ms")
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="small inputs, for the benchmark's own tests")
    a = p.parse_args()

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "lpai" / "__init__.py").is_file():
        print(f"error: no lpai sources under {src}; run from the root of an lpai checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import lpai

    if Path(lpai.__file__).resolve().parent != src / "lpai":
        print(f"error: imported lpai from {lpai.__file__}, not from {src}", file=sys.stderr)
        return 2

    sizes = wl.QUICK if a.quick else wl.FULL
    out_dir = root / "perfbench" / "out"
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    if a.trace:
        _, res = start_worker(root, a, "trace", out_dir / f"{a.workload}-seed{a.seed}.spans.jsonl")
        metrics = layer_metrics(res, import_ms(root, sizes.setup_samples))
    else:
        setups, raw_setups = [], []
        for i in range(sizes.setup_samples):
            reference = calibration.process_ns(root, child_env(root))
            ready, res = start_worker(root, a, "plain" if i == sizes.setup_samples - 1 else "setup")
            raw_setups.append(ready)
            setups.append(ready * calibration.NOMINAL_PROCESS_NS / reference)
        metrics = plain_metrics(a.workload, setups, res)

    specs = wl.make_specs(a.workload, a.seed, sizes)
    fails = input_failures(lpai, a.workload, specs, res["first"])
    failed = sum(n if f else b for f, n, b in zip(fails, res["count"], res["bad"]))
    attempted = sum(res["count"])
    messages = {str(i): f for i, f in enumerate(fails) if f}
    for i, e in res["errors"].items():
        messages.setdefault(i, []).append(e)
    for i, f in sorted(messages.items(), key=lambda kv: int(kv[0]))[:10]:
        print(f"# input {i} failed: {'; '.join(f[:3])}", file=sys.stderr)

    env = environment(root, lpai)
    raw_ms = sorted(x / 1e6 for x in res["latency_ns"])
    extra = {
        "tail_percentile": wl.TAIL_PERCENTILE[a.workload],
        "distinct_inputs": len(specs),
        "raw_throughput_ops_s": len(raw_ms) / (sum(raw_ms) / 1e3),
        "raw_latency_p50_ms": statistics.median(raw_ms),
        "calibration_scale": statistics.median(res["scale"]),
    }
    if not a.trace:
        extra["raw_setup_s"] = statistics.median(raw_setups)
    if a.trace:
        extra["traced_ops_s"] = len(raw_ms) / (sum(raw_ms) / 1e3)
        extra["traced_scaled_ops_s"] = len(raw_ms) / (sum(scaled_latencies_ms(res)) / 1e3)
        if "untraced_ops_s" in res:
            extra["untraced_in_process_ops_s"] = res["untraced_ops_s"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{tag}.json").write_text(
        json.dumps({"env": env, "info": extra, "failures": messages, **result}, indent=1) + "\n"
    )
    print("# env " + json.dumps(env))
    print("# info " + json.dumps(extra))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
