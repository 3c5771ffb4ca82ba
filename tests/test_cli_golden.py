"""Golden outputs of `lpai simulate`, `check` and `oracle`: stdout, stderr and exit code.

tests/golden/cli.json was written by running this module as a script
(`PYTHONPATH=src python tests/test_cli_golden.py`) before the numba path, the
gravity-gradient stepper and the per-type serializers were removed, so every
case but the oracle ones pins the output they produced.  The oracle cases were
regenerated since, at rounding level, four times: when free flight took one
Simpson pair, when a call formed one raised-cosine profile, when top-hat
windows took one Simpson pair, and when the marches read step weights formed
once per grid, the proper time marched the branch sum and its Simpson sum
ended at the last window.  They were regenerated once more when every
segment was integrated in closed form: top-hat outputs moved at rounding
level, cosine ones by the RK4 and Simpson error of 100 steps, the report
lost its steps and the fitted exponent its numpy fit.  Cases run with
tests/golden as the working
directory, which keeps the `file:` paths in the manifests fixed.  Regenerate
the file only for a change that is meant to alter these outputs, and say so
in CHANGES.md.
"""

import os
from pathlib import Path

import pytest

from test_scan_golden import load_golden, run_main, write_golden

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

SR = ("--mass", "1.443157e-25")
OMEGA = ("--omega", "2.696928e15")
GRAVITY = ("--g", "9.81", "--z0", "0.4", "--v0", "-1.3")
MZI = ("--geometry", "mzi", "--k", "1e7", "--T", "0.4")
RBI_SYM = ("--geometry", "rbi-sym", "--k-in-km", "580", "--T", "0.3", "--Tprime", "0.01")
PHASES_FILE = ("--geometry", "file:laser-phases.geom")
OPEN_FILE = ("--geometry", "file:open.geom")
ORACLE_MZI = ("oracle", "--geometry", "mzi", "--k", "1e7", "--T", "0.1", *SR, *GRAVITY,
              "--sigma", "1e-6")
ORACLE_RBI = ("oracle", *RBI_SYM, *SR, "--g", "9.81", "--sigma", "3e-7", "--shape", "cosine")
SWEEP_FITTED = ("oracle", "--geometry", "rbi-asym", "--k", "1.8e10", "--T", "0.325", *SR,
                "--g", "9.81", "--sweep-sigma", "3.25e-4", "3.25e-5", "3.25e-6")
# every residual of this sweep sits below the 1e-12 floor, so no exponent is fitted
SWEEP_UNFITTED = ("oracle", "--geometry", "mzi", "--k", "1e7", "--T", "0.1", *SR, "--g", "9.81",
                  "--sweep-sigma", "1e-4", "5e-5", "2.5e-5")

CASES = {
    **{f"simulate-{fmt}": ("simulate", *MZI, *SR, *GRAVITY, "--format", fmt)
       for fmt in ("text", "json", "csv")},
    **{f"simulate-omega-{fmt}": ("simulate", *RBI_SYM, *SR, *GRAVITY, *OMEGA, "--format", fmt)
       for fmt in ("text", "json", "csv")},
    "simulate-file-phases-text": ("simulate", *PHASES_FILE, *SR, *GRAVITY),
    "simulate-file-phases-omega-json": ("simulate", *PHASES_FILE, *SR, *GRAVITY, *OMEGA,
                                        "--format", "json"),
    "simulate-file-phases-csv": ("simulate", *PHASES_FILE, "--mass", "1e-25", "--format", "csv"),
    "simulate-smallest-mass": ("simulate", "--geometry", "rbi-asym", "--k", "1e7", "--T", "0.1",
                               "--mass", "5e-324"),
    **{f"check-closed-{fmt}": ("check", "--geometry", "rbi-double", "--k", "1e7", "--T", "0.1",
                               "--format", fmt)
       for fmt in ("text", "json")},
    **{f"check-open-{fmt}": ("check", *OPEN_FILE, "--mass", "1e-25", "--format", fmt)
       for fmt in ("text", "json")},
    **{f"oracle-tophat-{fmt}": (*ORACLE_MZI, "--format", fmt) for fmt in ("text", "json", "csv")},
    **{f"oracle-cosine-{fmt}": (*ORACLE_RBI, "--format", fmt) for fmt in ("text", "json", "csv")},
    "oracle-sweep-json": (*SWEEP_FITTED, "--format", "json"),
    "oracle-sweep-csv": (*SWEEP_FITTED, "--format", "csv"),
    "oracle-sweep-unfitted-json": (*SWEEP_UNFITTED, "--format", "json"),
    "oracle-sweep-unfitted-csv": (*SWEEP_UNFITTED, "--format", "csv"),
    "oracle-residual-above-tol": ("oracle", "--geometry", "rbi-asym", "--k", "1.8e10",
                                  "--T", "0.325", *SR, "--g", "9.81", "--sigma", "1e-2",
                                  "--tol", "1e-9"),
    "oracle-without-sigma": ("oracle", "--geometry", "mzi", "--k", "1e7", "--T", "0.1", *SR),
}


def run_in_golden_dir(argv):
    cwd = os.getcwd()
    os.chdir(GOLDEN.parent)
    try:
        return run_main(argv)
    finally:
        os.chdir(cwd)


def test_every_case_has_a_golden_output():
    assert sorted(load_golden(GOLDEN)) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name):
    golden = load_golden(GOLDEN)[name]
    assert golden["argv"] == list(CASES[name])
    result = run_in_golden_dir(CASES[name])
    assert result == {key: golden[key] for key in ("exit", "stdout", "stderr")}


if __name__ == "__main__":
    write_golden(GOLDEN, CASES, run_in_golden_dir)
