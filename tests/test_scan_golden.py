"""Golden outputs of `lpai scan`: stdout, stderr and exit code, byte for byte.

tests/golden/scan.json was written by running this module as a script
(`PYTHONPATH=src python tests/test_scan_golden.py`) before the scan was
batched, so every case pins the row-by-row output.  Regenerate it only for a
change that is meant to alter scan output, and say so in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from lpai.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "scan.json"

SR = ("--mass", "1.443157e-25")
OMEGA = ("--omega", "2.696928e15")
GRAVITY = ("--g", "9.81", "--z0", "0.4", "--v0", "-1.3")

CASES = {
    "T-mzi": ("--geometry", "mzi", "--k", "1e7", *SR, *GRAVITY,
              "--vary", "T", "--from", "0.05", "--to", "0.4", "--steps", "8"),
    "T-mzi-omega": ("--geometry", "mzi", "--k", "1e7", *SR, *GRAVITY, *OMEGA,
                    "--vary", "T", "--from", "0.05", "--to", "0.4", "--steps", "8"),
    "T-rbi-sym": ("--geometry", "rbi-sym", "--k-in-km", "580", *SR, "--g", "9.81",
                  "--vary", "T", "--from", "0.01", "--to", "0.3", "--steps", "6"),
    "T-rbi-sym-omega": ("--geometry", "rbi-sym", "--k-in-km", "580", *SR, "--g", "9.81",
                        *OMEGA, "--vary", "T", "--from", "0.01", "--to", "0.3", "--steps", "6"),
    "T-rbi-sym-pause": ("--geometry", "rbi-sym", "--k", "1e7", "--Tprime", "0.05", *SR,
                        *GRAVITY, "--vary", "T", "--from", "0.02", "--to", "0.25", "--steps", "7"),
    "T-rbi-sym-pause-omega": ("--geometry", "rbi-sym", "--k", "1e7", "--Tprime", "0.05", *SR,
                              *GRAVITY, *OMEGA,
                              "--vary", "T", "--from", "0.02", "--to", "0.25", "--steps", "7"),
    "T-rbi-asym": ("--geometry", "rbi-asym", "--k", "1.6e7", "--mass", "1e-25", *GRAVITY,
                   "--vary", "T", "--from", "0.1", "--to", "0.5", "--steps", "5"),
    "T-rbi-asym-omega": ("--geometry", "rbi-asym", "--k", "1.6e7", "--mass", "1e-25", *GRAVITY,
                         "--omega", "1e15",
                         "--vary", "T", "--from", "0.1", "--to", "0.5", "--steps", "5"),
    "T-rbi-asym-pause": ("--geometry", "rbi-asym", "--k", "1e7", "--Tprime", "0.03", *SR,
                         *GRAVITY, "--vary", "T", "--from", "0.05", "--to", "0.35", "--steps", "6"),
    "T-rbi-asym-pause-omega": ("--geometry", "rbi-asym", "--k", "1e7", "--Tprime", "0.03", *SR,
                               *GRAVITY, *OMEGA,
                               "--vary", "T", "--from", "0.05", "--to", "0.35", "--steps", "6"),
    "T-rbi-double-from-zero": ("--geometry", "rbi-double", "--k", "1e7", *SR, *GRAVITY,
                               "--vary", "T", "--from", "0", "--to", "0.4", "--steps", "5"),
    "T-rbi-double-from-zero-omega": ("--geometry", "rbi-double", "--k-in-km", "580", *SR,
                                     *GRAVITY, *OMEGA,
                                     "--vary", "T", "--from", "0", "--to", "0.4", "--steps", "5"),
    # eta = 1.0100...: an optical splitting leaves eta at exactly 1.0
    "T-rbi-asym-pause-large-splitting": ("--geometry", "rbi-asym", "--k", "1e4", "--Tprime", "0.02",
                                         "--mass", "1e-30", "--omega", "1.7e20",
                                         "--vary", "T", "--from", "0.01", "--to", "0.3",
                                         "--steps", "7"),
    "k-rbi-double-large-splitting": ("--geometry", "rbi-double", "--T", "0.05", "--mass", "1e-30",
                                     "--omega", "1.7e20", *GRAVITY,
                                     "--vary", "k", "--from", "1e3", "--to", "3e4", "--steps", "4"),
    "T-with-zero-k": ("--geometry", "mzi", "--k", "0", *SR, *OMEGA,
                      "--vary", "T", "--from", "0.1", "--to", "0.2", "--steps", "3"),
    "k-mzi": ("--geometry", "mzi", "--T", "0.1", *SR, *GRAVITY,
              "--vary", "k", "--from", "1e6", "--to", "8e6", "--steps", "5"),
    "k-mzi-omega": ("--geometry", "mzi", "--T", "0.1", *SR, *GRAVITY, *OMEGA,
                    "--vary", "k", "--from", "1e6", "--to", "8e6", "--steps", "5"),
    "k-rbi-asym-pause-through-zero": ("--geometry", "rbi-asym", "--T", "0.1", "--Tprime", "0.02",
                                      *SR, *GRAVITY,
                                      "--vary", "k", "--from=-1e7", "--to", "1e7", "--steps", "5"),
    "k-rbi-sym-pause-through-zero-omega": ("--geometry", "rbi-sym", "--T", "0.1",
                                           "--Tprime", "0.02", *SR, *GRAVITY, *OMEGA,
                                           "--vary", "k", "--from=-1e7", "--to", "1e7",
                                           "--steps", "5"),
    "k-with-zero-T": ("--geometry", "rbi-double", "--T", "0", *SR,
                      "--vary", "k", "--from", "1e6", "--to", "2e6", "--steps", "3"),
    "steps-1": ("--geometry", "rbi-double", "--k", "1e7", *SR, "--g", "9.81",
                "--vary", "T", "--from", "0.1", "--to", "0.1", "--steps", "1"),
    "steps-1-omega": ("--geometry", "rbi-sym", "--T", "0.2", *SR, *OMEGA,
                      "--vary", "k", "--from", "1.5e7", "--to", "3e7", "--steps", "1"),
    "error-builder": ("--geometry", "mzi", "--k", "1e7", *SR,
                      "--vary", "T", "--from=-0.1", "--to", "0.1", "--steps", "3"),
    "error-builder-omega": ("--geometry", "rbi-asym", "--k", "1e7", *SR, *OMEGA,
                            "--vary", "T", "--from=-0.1", "--to", "0.1", "--steps", "3"),
    "error-open-row": ("--geometry", "rbi-asym", "--k", "1e300", "--mass", "1e-25", *OMEGA,
                       "--vary", "T", "--from", "0.1", "--to", "0.2", "--steps", "2"),
    "error-after-good-rows": ("--geometry", "mzi", "--k", "1e7", *SR,
                              "--vary", "T", "--from", "0.1", "--to", "1.7e308", "--steps", "3"),
    # Row 0 passes (mzi's exact S is 0), row 1 fails in the closure moments
    # and row 2 in validation: the first failing row in grid order decides.
    "error-first-failing-row": ("--geometry", "mzi", "--k", "1e155", "--mass", "1e-25",
                                "--vary", "T", "--from", "0.1", "--to", "1.7e308", "--steps", "3",
                                "--omega", "1e15"),
    # Row 0 passes (mzi's exact S is 0) and the builder refuses row 1, whose
    # 2T overflows; the name stays because the test id carries it.
    "error-recoil-sum-before-validation": ("--geometry", "mzi", "--k", "1e155", "--mass", "1e-25",
                                           "--vary", "T", "--from", "0.1", "--to", "1.7e308",
                                           "--steps", "2"),
}


def run_main(argv):
    """Exit code, stdout and stderr of lpai.cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_case(argv):
    return run_main(["scan", *argv])


def load_golden(path=GOLDEN):
    return json.loads(path.read_text(encoding="utf-8"))


def write_golden(path, cases, run):
    """Run every case and write {name: {argv, exit, stdout, stderr}} to path."""
    outputs = {name: {"argv": list(argv), **run(argv)} for name, argv in cases.items()}
    path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def test_every_case_has_a_golden_output():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_scan_output_is_byte_identical(name):
    golden = load_golden()[name]
    assert golden["argv"] == list(CASES[name])
    result = run_case(CASES[name])
    assert result == {key: golden[key] for key in ("exit", "stdout", "stderr")}


if __name__ == "__main__":
    write_golden(GOLDEN, CASES, run_case)
