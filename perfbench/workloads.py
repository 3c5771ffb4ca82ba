"""Seeded inputs and the timed operation of each workload.

The worker imports this module to build lpai inputs and time operations;
run.py imports it to rebuild the same input specs from the seed and check the
worker's outputs.  A spec is plain numbers drawn from ``random.Random`` seeded
with the workload name and the seed, so the same seed gives the same inputs on
every machine; lpai objects are built from specs only through lpai's public
types and builders.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("beat-builders", "beat-long", "oracle-convergence", "cli-session")
GEOMETRIES = ("mzi", "rbi-sym", "rbi-asym", "rbi-double")


@dataclass(frozen=True)
class Sizes:
    """Input counts and operation sizes; ``QUICK`` shrinks them for the self-tests."""

    builder_inputs: int = 1024
    long_pulses: int = 100
    long_inputs: int = 8
    oracle_pulses: int = 6
    oracle_steps: int = 4000
    oracle_inputs: int = 4
    cli_inputs: int = 4
    cli_file_pulses: int = 8
    scan_rows: int = 500
    setup_samples: int = 5


FULL = Sizes()
QUICK = Sizes(
    builder_inputs=32,
    long_pulses=20,
    long_inputs=2,
    oracle_steps=400,
    oracle_inputs=2,
    cli_inputs=1,
    scan_rows=20,
    setup_samples=2,
)

# Tail percentile per workload.  Each keeps at least ten samples beyond it at
# the workload's minimum operation count; higher percentiles spread too much
# from run to run on a shared machine (perfbench/README.md).
TAIL_PERCENTILE = {
    "beat-builders": 90.0,
    "beat-long": 90.0,
    "oracle-convergence": 90.0,
    "cli-session": 75.0,
}


def min_ops(workload: str) -> int:
    """Operations a run completes at least, so the tail has ten samples beyond it."""
    return math.ceil(10.0 / (1.0 - TAIL_PERCENTILE[workload] / 100.0) - 1e-9)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _clock_env(rng: random.Random) -> dict:
    """Clock mass and splitting, gravity and launch: Li-7 to Yb-174 masses, optical splittings."""
    return {
        "mass": _log_uniform(rng, 1.2e-26, 2.9e-25),
        "omega": rng.uniform(0.5e15, 3.0e15),
        "g": rng.uniform(0.5, 10.0),
        "z0": rng.uniform(-1.0, 1.0),
        "v0": rng.uniform(-5.0, 5.0),
    }


def _builder_spec(rng: random.Random, geometry: str) -> dict:
    return {
        "geometry": geometry,
        "k": _log_uniform(rng, 1.0e7, 2.0e10),
        "T": rng.uniform(0.05, 0.5),
        # both Ramsey-Borde geometries get a pause, so three in four operations
        # have four pulses and the median and tail sit inside that mode
        "Tp": rng.uniform(0.01, 0.2) if geometry in ("rbi-sym", "rbi-asym") else 0.0,
        **_clock_env(rng),
    }


def random_closed_pulses(
    rng: random.Random, n: int, *, k_scale: float, gap: tuple[float, float]
) -> list[tuple[float, float, float, float, float]]:
    """Pulses (t, k_upper, k_lower, phi_upper, phi_lower) with vanishing kick moments 0 and 1.

    The first n-2 differential wave numbers are free draws and the last two
    are solved from the closure system.  Both branches carry common-mode
    kicks and every pulse carries laser phases.
    """
    times = [0.0]
    for _ in range(n - 1):
        times.append(times[-1] + rng.uniform(*gap))
    dk = [rng.uniform(-k_scale, k_scale) for _ in range(n - 2)]
    head = math.fsum(dk)
    head_t = math.fsum(t * d for t, d in zip(times, dk))
    t_a, t_b = times[-2], times[-1]
    dk_b = (t_a * head - head_t) / (t_b - t_a)
    dk += [-head - dk_b, dk_b]
    pulses = []
    for t, d in zip(times, dk):
        common = rng.uniform(-k_scale, k_scale)
        pulses.append(
            (t, d + common, common, rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        )
    return pulses


def _long_spec(rng: random.Random, sizes: Sizes) -> dict:
    pulses = random_closed_pulses(rng, sizes.long_pulses, k_scale=1.0e7, gap=(1.0e-3, 1.0e-2))
    return {"pulses": pulses, **_clock_env(rng)}


def _oracle_spec(rng: random.Random, sizes: Sizes) -> dict:
    pulses = random_closed_pulses(rng, sizes.oracle_pulses, k_scale=1.0e7, gap=(0.05, 0.2))
    spacing = min(b[0] - a[0] for a, b in zip(pulses[:-1], pulses[1:]))
    w0 = spacing / 50.0
    return {
        "pulses": pulses,
        "widths": [w0, w0 / 2.0, w0 / 4.0, w0 / 8.0],
        "steps": sizes.oracle_steps,
        **_clock_env(rng),
    }


def _cli_spec(rng: random.Random, sizes: Sizes, index: int) -> dict:
    sim = _builder_spec(rng, GEOMETRIES[index % 4])
    orc = _builder_spec(rng, GEOMETRIES[(index + 1) % 4])
    orc["sigma"] = orc["T"] * 1.0e-6
    scan = _builder_spec(rng, GEOMETRIES[(index + 2) % 4])
    t_from = rng.uniform(0.01, 0.05)
    scan.update({"from": t_from, "to": t_from + rng.uniform(0.1, 0.4), "steps": sizes.scan_rows})
    file_pulses = random_closed_pulses(rng, sizes.cli_file_pulses, k_scale=1.0e7, gap=(0.02, 0.1))
    return {
        "simulate": sim,
        "check": {"pulses": file_pulses, "mass": _clock_env(rng)["mass"]},
        "oracle": orc,
        "scan": scan,
    }


def make_specs(workload: str, seed: int, sizes: Sizes = FULL) -> list[dict]:
    """The distinct inputs of one run; operations cycle over them in whole rounds."""
    rng = _rng(workload, seed)
    if workload == "beat-builders":
        return [_builder_spec(rng, GEOMETRIES[i % 4]) for i in range(sizes.builder_inputs)]
    if workload == "beat-long":
        return [_long_spec(rng, sizes) for _ in range(sizes.long_inputs)]
    if workload == "oracle-convergence":
        return [_oracle_spec(rng, sizes) for _ in range(sizes.oracle_inputs)]
    if workload == "cli-session":
        return [_cli_spec(rng, sizes, i) for i in range(sizes.cli_inputs)]
    raise ValueError(f"unknown workload {workload!r}")


# --- building lpai inputs ----------------------------------------------------


def build_sequence(lpai, spec: dict):
    """lpai PulseSequence for a spec, through the builders or Pulse/PulseSequence."""
    if "pulses" in spec:
        return lpai.PulseSequence(tuple(lpai.Pulse(*p) for p in spec["pulses"]))
    g, k, T, Tp = spec["geometry"], spec["k"], spec["T"], spec["Tp"]
    if g == "mzi":
        return lpai.build_mzi(k, T)
    if g == "rbi-sym":
        return lpai.build_rbi_symmetric(k, T, Tp)
    if g == "rbi-asym":
        return lpai.build_rbi_asymmetric(k, T, Tp)
    if g == "rbi-double":
        return lpai.build_rbi_double_loop(k, T)
    raise ValueError(f"unknown geometry {g!r}")


def build_env(lpai, spec: dict):
    return lpai.GravityEnv(spec["g"]), lpai.InitialConditions(spec["z0"], spec["v0"])


def build_beat_args(lpai, spec: dict) -> tuple:
    env, ics = build_env(lpai, spec)
    return build_sequence(lpai, spec), lpai.ClockPair(spec["mass"], spec["omega"]), env, ics


def build_oracle_args(lpai, spec: dict) -> tuple:
    env, ics = build_env(lpai, spec)
    return build_sequence(lpai, spec), lpai.Species(spec["mass"]), env, ics, spec["widths"], spec["steps"]


def cli_argvs(spec: dict, geometry_path: str) -> list[list[str]]:
    """Argument vectors of one cli-session operation, in the order they run."""

    def geo(s: dict) -> list[str]:
        out = ["--geometry", s["geometry"], "--k", repr(s["k"]), "--T", repr(s["T"])]
        if s["Tp"]:
            out += ["--Tprime", repr(s["Tp"])]
        return out

    def env(s: dict) -> list[str]:
        return ["--mass", repr(s["mass"]), "--g", repr(s["g"]), "--z0", repr(s["z0"]), "--v0", repr(s["v0"])]

    sim, orc, scan = spec["simulate"], spec["oracle"], spec["scan"]
    scan_geo = ["--geometry", scan["geometry"], "--k", repr(scan["k"])]
    if scan["Tp"]:
        scan_geo += ["--Tprime", repr(scan["Tp"])]
    return [
        ["simulate", *geo(sim), *env(sim), "--omega", repr(sim["omega"]), "--format", "json"],
        ["check", "--geometry", f"file:{geometry_path}", "--mass", repr(spec["check"]["mass"])],
        ["oracle", *geo(orc), *env(orc), "--sigma", repr(orc["sigma"]), "--format", "json"],
        [
            "scan", *scan_geo, *env(scan), "--omega", repr(scan["omega"]),
            "--vary", "T", "--from", repr(scan["from"]), "--to", repr(scan["to"]),
            "--steps", str(scan["steps"]),
        ],
    ]


# --- operations ---------------------------------------------------------------


def beat_op(lpai, args) -> tuple:
    s = lpai.beat(*args)
    return (s.p_a, s.p_b, s.p_combined, s.envelope, s.carrier_phase, s.delta_tau)


def oracle_op(lpai, args) -> tuple:
    seq, species, env, ics, widths, steps = args
    out: list[float] = []
    for shape in ("tophat", "cosine"):
        study = lpai.convergence_study(
            seq, species, env, ics, widths, steps_per_segment=steps, pulse_shape=shape
        )
        out += [*study.widths, *study.residuals, study.fitted_exponent]
    return tuple(out)
