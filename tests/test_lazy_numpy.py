"""Short-sequence closed forms and the simulate/check commands run without numpy.

numpy is imported by the array paths only: long sequences, scans, dumps and
the oracle.  Each check runs in a fresh interpreter, since this test process
has numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from lpai import serialize_geometry

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
assert codes == [0, 0], codes
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


def numpy_loaded(script: str, geometry: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", script, str(geometry)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    return {"True\n": True, "False\n": False}[out]


def closed_file(tmp_path: Path, n_pulses: int) -> Path:
    seq = random_closed_sequence(np.random.default_rng(5), n_pulses, k_scale=1e7)
    path = tmp_path / f"closed-{n_pulses}.geom"
    path.write_text(serialize_geometry(seq), encoding="utf-8")
    return path


def test_builders_simulate_and_check_do_not_load_numpy(tmp_path):
    assert not numpy_loaded(SHORT, closed_file(tmp_path, 8))


def test_a_twelve_pulse_beat_loads_numpy(tmp_path):
    assert numpy_loaded(LONG, closed_file(tmp_path, 12))
