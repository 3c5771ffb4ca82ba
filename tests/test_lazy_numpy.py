"""Short-sequence closed forms, the simulate/check/scan commands and the oracle
run without numpy.

numpy is imported by the array paths only: long sequences and dumps.  A scan
of a builder geometry spaces its grid in plain floats, as np.linspace would,
and runs short sequences only; the oracle marches and integrates one step
per segment in plain floats, for both window shapes, and fits a sweep's
exponent by a closed-form least-squares slope.  Each check runs in a fresh
interpreter, since this test process has numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpai
from lpai import _exactsum, serialize_geometry

from _helpers import random_closed_sequence

SRC = Path(__file__).resolve().parents[1] / "src"

SHORT = """
import contextlib, io, sys
import lpai
import lpai.cli
from lpai import (
    ClockPair, GravityEnv, InitialConditions, Species, beat, build_mzi, build_rbi_asymmetric,
    build_rbi_double_loop, build_rbi_symmetric, closure_check, total_phase,
)

clock, species = ClockPair(1.443157e-25, 2.696928e15), Species(1.443157e-25)
env, ics = GravityEnv(9.81), InitialConditions(0.4, -1.3)
for seq in (
    build_mzi(1.6e7, 0.1),
    build_rbi_symmetric(1.6e7, 0.1, 0.05),
    build_rbi_asymmetric(1.6e7, 0.1, 0.05),
    build_rbi_double_loop(1.6e7, 0.1),
):
    beat(seq, clock, env, ics)
    total_phase(seq, species, env, ics)
    closure_check(seq, species)
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(lpai.cli.main([
        "simulate", "--geometry", "rbi-asym", "--k", "1.6e7", "--T", "0.1", "--Tprime", "0.05",
        "--mass", "1.443157e-25", "--g", "9.81", "--omega", "2.696928e15",
    ]))
    codes.append(lpai.cli.main(["check", "--geometry", "file:" + sys.argv[1]]))
    for clock in ([], ["--omega", "2.696928e15"]):
        codes.append(lpai.cli.main([
            "scan", "--geometry", "rbi-double", "--k", "1.6e7", "--vary", "T",
            "--from", "0", "--to", "0.2", "--steps", "50", "--mass", "1.443157e-25", *clock,
        ]))
assert codes == [0, 0, 0, 0], codes
print("numpy" in sys.modules)
"""

LONG = """
import sys
from pathlib import Path
from lpai import ClockPair, GravityEnv, InitialConditions, beat, parse_geometry

seq = parse_geometry(Path(sys.argv[1]).read_text(encoding="utf-8"))
beat(seq, ClockPair(1.443157e-25, 2.696928e15), GravityEnv(9.81), InitialConditions())
print("numpy" in sys.modules)
"""


ORACLE = """
import contextlib, io, sys
import lpai.cli
from lpai import (
    GravityEnv, InitialConditions, OracleConfig, Species, build_mzi, build_rbi_asymmetric,
    build_rbi_double_loop, build_rbi_symmetric, convergence_study, oracle_report,
    proper_time_numeric,
)

species, env, ics = Species(1.443157e-25), GravityEnv(9.81), InitialConditions(0.4, -1.3)
for seq in (
    build_mzi(1.6e7, 0.1),
    build_rbi_symmetric(1.6e7, 0.1, 0.05),
    build_rbi_asymmetric(1.6e7, 0.1, 0.05),
    build_rbi_double_loop(1.6e7, 0.1),
):
    for shape in ("tophat", "cosine"):
        oracle_report(seq, species, env, ics, OracleConfig(1e-6, pulse_shape=shape))
        proper_time_numeric(seq, species, env, ics, OracleConfig(1e-6, pulse_shape=shape))
        convergence_study(seq, species, env, ics, [1e-4, 1e-5], pulse_shape=shape)
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for fmt in ("text", "json", "csv"):
        codes.append(lpai.cli.main([
            "oracle", "--geometry", "rbi-asym", "--k", "1.8e10", "--T", "0.325",
            "--mass", "1.443157e-25", "--g", "9.81", "--format", fmt,
            *(sys.argv[1:] or ["--sigma", "1e-6"]),
        ]))
assert codes == [0, 0, 0], codes
print("numpy" in sys.modules)
"""


STAR = """
import lpai
from lpai import *
print(sorted(set(lpai.__all__) - set(globals())))
"""


def run_fresh(script: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, check=True,
    ).stdout


def numpy_loaded(script: str, geometry: Path) -> bool:
    return {"True\n": True, "False\n": False}[run_fresh(script, str(geometry))]


def closed_file(tmp_path: Path, n_pulses: int) -> Path:
    seq = random_closed_sequence(np.random.default_rng(5), n_pulses, k_scale=1e7)
    path = tmp_path / f"closed-{n_pulses}.geom"
    path.write_text(serialize_geometry(seq), encoding="utf-8")
    return path


def test_builders_simulate_and_check_do_not_load_numpy(tmp_path):
    assert not numpy_loaded(SHORT, closed_file(tmp_path, 8))


def test_a_long_beat_loads_numpy(tmp_path):
    assert numpy_loaded(LONG, closed_file(tmp_path, _exactsum._ARRAY_MIN_PULSES))


def test_a_beat_one_pulse_shorter_does_not(tmp_path):
    assert not numpy_loaded(LONG, closed_file(tmp_path, _exactsum._ARRAY_MIN_PULSES - 1))


@pytest.mark.parametrize(
    "extra",
    [
        [],
        ["--sigma", "1e-6", "--shape", "cosine"],
        # the exponent fit over three residuals above the floor
        ["--sweep-sigma", "3.25e-4", "3.25e-5", "3.25e-6"],
        ["--sweep-sigma", "3.25e-4", "3.25e-5", "3.25e-6", "--shape", "cosine"],
    ],
    ids=["tophat", "cosine", "sweep", "cosine-sweep"],
)
def test_no_oracle_entry_point_loads_numpy(extra):
    assert run_fresh(ORACLE, *extra) == "False\n"


def test_every_public_name_resolves():
    assert [name for name in lpai.__all__ if not hasattr(lpai, name)] == []


def test_star_import_binds_every_public_name():
    assert run_fresh(STAR) == "[]\n"
