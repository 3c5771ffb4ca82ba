"""Command-line behavior: exit codes, manifests, formats, determinism."""

import hashlib
import json
import math
import tracemalloc
from datetime import datetime
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpai
from lpai import cli, oracle
from lpai import (
    GravityEnv,
    InitialConditions,
    Species,
    build_mzi,
    build_rbi_double_loop,
    gravity_trajectory,
    sample,
    serialize_geometry,
    total_phase,
)
from lpai.cli import main
from test_cli_golden import CASES as CLI_CASES
from test_cli_golden import GOLDEN as CLI_GOLDEN
from test_cli_golden import run_in_golden_dir
from test_scan_golden import CASES as SCAN_CASES
from test_scan_golden import GOLDEN as SCAN_GOLDEN
from test_scan_golden import load_golden

SR_MASS = "1.443157e-25"

GOLDEN_RUNS = [
    *((CLI_GOLDEN, name, argv) for name, argv in CLI_CASES.items()),
    *((SCAN_GOLDEN, name, ("scan", *argv)) for name, argv in SCAN_CASES.items()),
]
GOLDEN_OUTPUTS = {path: load_golden(path) for path in (CLI_GOLDEN, SCAN_GOLDEN)}

ORACLE_MZI = (
    "oracle", "--geometry", "mzi", "--k", "1e7", "--T", "0.1", "--mass", SR_MASS, "--g", "9.81",
)
# one run of each command, run in each format it offers
STAMPED = {
    "simulate": (
        ("simulate", "--geometry", "mzi", "--k", "1e7", "--T", "0.4", "--mass", SR_MASS),
        ("text", "json", "csv"),
    ),
    "scan": (
        ("scan", "--geometry", "mzi", "--k", "1e7", "--mass", SR_MASS, "--vary", "T",
         "--from", "0.1", "--to", "0.2", "--steps", "2"),
        ("csv",),
    ),
    "check": (("check", "--geometry", "mzi", "--k", "1e7", "--T", "0.4"), ("text", "json")),
    "oracle": ((*ORACLE_MZI, "--sigma", "1e-6"), ("text", "json", "csv")),
    "oracle-sweep": ((*ORACLE_MZI, "--sweep-sigma", "1e-4", "5e-5"), ("text", "json", "csv")),
}
STAMPED_RUNS = [
    pytest.param(argv, fmt, id=f"{name}-{fmt}")
    for name, (argv, formats) in STAMPED.items()
    for fmt in formats
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def manifest_params(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("# parameter."):
            key, _, value = line[len("# parameter.") :].partition(" = ")
            out[key] = value
    return out


class TestSimulate:
    BASE = (
        "simulate", "--geometry", "mzi", "--k", "1e7", "--T", "0.4",
        "--mass", SR_MASS, "--g", "9.81",
    )

    def test_text_output_with_manifest(self, capsys):
        code, out, _ = run(capsys, *self.BASE)
        assert code == 0
        assert "# command = simulate" in out
        assert f"# version = {lpai.__version__}" in out
        assert "total_phase" in out
        assert manifest_params(out)["k"] == "10000000.0"

    def test_json_output_matches_the_api(self, capsys):
        code, out, _ = run(capsys, *self.BASE, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        expected = total_phase(
            build_mzi(1e7, 0.4), Species(1.443157e-25), GravityEnv(9.81), InitialConditions()
        )
        assert payload["phase"]["total_phase"] == expected.total_phase
        assert payload["manifest"]["command"] == "simulate"
        assert payload["manifest"]["deterministic"] is True

    def test_csv_output_has_one_row(self, capsys):
        code, out, _ = run(capsys, *self.BASE, "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "delta_tau", "recoil_phase", "gravito_recoil", "laser_phase", "total_phase",
        ]
        assert len(rows) == 1

    def test_omega_adds_the_beat_block(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--geometry", "rbi-double", "--k-in-km", "1200",
            "--T", "0.325", "--mass", SR_MASS, "--omega", "2.696928e15",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert "beat" in payload
        assert set(payload["beat"]) == {
            "p_a", "p_b", "p_combined", "envelope", "carrier_phase", "delta_tau",
        }

    def test_k_in_km_resolves_against_the_reference_wavenumber(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--geometry", "rbi-double", "--k-in-km", "580",
            "--T", "0.35", "--mass", SR_MASS,
        )
        assert code == 0
        assert manifest_params(out)["k"] == "8700000000.0"
        assert manifest_params(out)["k_in_km"] == "580.0"

    def test_k_flags_are_mutually_exclusive(self, capsys):
        code, _, err = run(capsys, *self.BASE, "--k-in-km", "100")
        assert code == 1
        assert "mutually exclusive" in err

    def test_builder_without_T_is_an_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--geometry", "mzi", "--k", "1e7", "--mass", SR_MASS
        )
        assert code == 1
        assert "--T" in err

    def test_builder_without_k_is_an_error(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--geometry", "mzi", "--T", "0.4", "--mass", SR_MASS
        )
        assert (code, out) == (1, "")
        assert err == "error: geometry 'mzi' needs --k or --k-in-km\n"

    def test_a_ground_state_mass_that_rounds_to_zero_is_refused_as_a_splitting(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--geometry", "mzi", "--k", "1e7", "--T", "0.1",
            "--mass", "1e-323", "--omega", "1.2000373463725388e-272",
        )
        assert (code, out) == (1, "")
        assert err == "error: splitting too large: the ground-state mass would not be positive\n"

    def test_unknown_builder_is_an_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--geometry", "sagnac", "--k", "1e7", "--T", "0.4",
            "--mass", SR_MASS,
        )
        assert code == 1

    def test_geometry_file_matches_the_builder(self, capsys, tmp_path):
        path = tmp_path / "g.geom"
        path.write_text(serialize_geometry(build_mzi(1e7, 0.4)), encoding="utf-8")
        code, out_file, _ = run(
            capsys, "simulate", "--geometry", f"file:{path}", "--mass", SR_MASS,
            "--g", "9.81", "--format", "json",
        )
        code2, out_builder, _ = run(capsys, *self.BASE, "--format", "json")
        assert code == code2 == 0
        assert json.loads(out_file)["phase"] == json.loads(out_builder)["phase"]

    def test_missing_geometry_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--geometry", f"file:{tmp_path}/absent.geom",
            "--mass", SR_MASS,
        )
        assert code == 1
        assert "cannot read" in err

    def test_malformed_geometry_file(self, capsys, tmp_path):
        path = tmp_path / "bad.geom"
        path.write_text("pulse 0.0 bogus 0.0\n", encoding="utf-8")
        code, _, err = run(
            capsys, "simulate", "--geometry", f"file:{path}", "--mass", SR_MASS
        )
        assert code == 1
        assert "geometry error" in err
        assert "line 1" in err or "bogus" in err

    @pytest.mark.parametrize(
        "flags, given",
        [
            (("--T", "1", "--Tprime", "1e-17"), "T = 1.0, Tprime = 1e-17"),  # T + Tp == T
            (("--T", "1e308"), "T = 1e+308, Tprime = 0.0"),  # 2T overflows
        ],
        ids=["pause-below-resolution", "overflowing-times"],
    )
    def test_arguments_without_a_valid_pulse_train_exit_with_one(self, capsys, flags, given):
        code, out, err = run(
            capsys, "simulate", "--geometry", "rbi-sym", "--k", "1e7", *flags, "--mass", "1e-25"
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: rbi-sym at k = 10000000.0, {given} has no valid pulse train")
        assert "pulse 2" not in err

    def test_open_geometry_exits_with_two(self, capsys, tmp_path):
        path = tmp_path / "open.geom"
        path.write_text("pulse 0.0 1.0 0.0\npulse 1.0 1.0 0.0\n", encoding="utf-8")
        code, _, err = run(
            capsys, "simulate", "--geometry", f"file:{path}", "--mass", SR_MASS
        )
        assert code == 2
        assert "open geometry" in err

    def test_trajectory_dump(self, capsys, tmp_path):
        dump = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, *self.BASE, "--dump-trajectory", str(dump), "--dump-dt", "0.1"
        )
        assert code == 0
        header, rows = parse_csv(dump.read_text(encoding="utf-8"))
        assert header == ["t", "z1", "v1", "z2", "v2", "zg"]
        assert rows[0][0] == 0.0
        assert rows[-1][0] == pytest.approx(0.8)

    def test_trajectory_dump_rows_equal_sample(self, capsys, tmp_path):
        dump = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "simulate", "--geometry", "rbi-double", "--k", "1e7", "--T", "0.25",
            "--mass", SR_MASS, "--g", "9.81", "--z0", "1.0", "--v0", "-0.5",
            "--dump-trajectory", str(dump), "--dump-dt", "0.001",
        )
        assert code == 0
        seq = build_rbi_double_loop(1e7, 0.25)
        species, env, ics = Species(float(SR_MASS)), GravityEnv(9.81), InitialConditions(1.0, -0.5)
        _, rows = parse_csv(dump.read_text(encoding="utf-8"))
        assert len(rows) == 1001
        for t, z1, v1, z2, v2, _ in rows:
            assert (z1, v1) == sample(seq, 1, species, env, ics, t)
            assert (z2, v2) == sample(seq, 2, species, env, ics, t)

    @pytest.mark.parametrize(
        "argv, rows, digest",
        [
            (  # the grid lands on t_end = 0.25
                (
                    "--geometry", "rbi-asym", "--k", "1.6e7", "--T", "0.1", "--Tprime", "0.05",
                    "--z0", "0.4", "--v0", "-1.3", "--dump-dt", "0.001",
                ),
                251,
                "135462d0a12eed4f8885e9b313d1001290bc2df7e82de05a8e3a8dc37633e442",
            ),
            (  # 0.999 is the last grid row, then a row at t_end = 1.0
                (
                    "--geometry", "rbi-double", "--k", "1e7", "--T", "0.25",
                    "--z0", "1.0", "--v0", "-0.5", "--dump-dt", "0.003",
                ),
                335,
                "00f88e8382570f08f78eb5da1cb1cc468593083c4844d28682aadbd434ea7969",
            ),
        ],
        ids=["on-grid-end", "t-end-row"],
    )
    def test_trajectory_dump_bytes_are_pinned(self, capsys, tmp_path, argv, rows, digest):
        dump = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "simulate", *argv, "--mass", SR_MASS, "--g", "9.81",
            "--dump-trajectory", str(dump),
        )
        assert code == 0
        data = dump.read_bytes()
        assert len(parse_csv(data.decode("utf-8"))[1]) == rows
        assert hashlib.sha256(data).hexdigest() == digest

    def test_trajectory_dump_of_a_sequence_ending_before_zero_is_an_error(
        self, capsys, tmp_path
    ):
        path = tmp_path / "neg.geom"
        path.write_text(
            "pulse -0.6 1e7 0\npulse -0.4 -1e7 1e7\npulse -0.2 0 -1e7\n", encoding="utf-8"
        )
        dump = tmp_path / "out.csv"
        code, out, err = run(
            capsys, "simulate", "--geometry", f"file:{path}", "--mass", "1e-25",
            "--dump-trajectory", str(dump), "--dump-dt", "0.01",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "before" in err
        assert not dump.exists()

    def test_trajectory_dump_over_the_row_budget_is_an_error(self, capsys, tmp_path):
        dump = tmp_path / "t.csv"
        code, out, err = run(
            capsys, *self.BASE, "--dump-trajectory", str(dump), "--dump-dt", "1e-12"
        )
        assert code == 1
        assert err.startswith("error: ") and "rows" in err
        assert out == ""
        assert not dump.exists()

    def test_non_finite_results_exit_with_three(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--geometry", "rbi-asym", "--k", "1e7", "--T", "0.1",
            "--Tprime", "0.05", "--mass", "5e-324", "--format", "json",
        )
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: ") and "delta_tau" in err

    def test_an_overflowing_exact_sum_exits_with_three(self, capsys):
        # S = -2 k^2 T is just beyond the float range
        code, out, err = run(
            capsys, "simulate", "--geometry", "rbi-asym", "--k", "3e153", "--T", "10",
            "--Tprime", "0.05", "--mass", "1e-25",
        )
        assert (code, out) == (3, "")
        assert err == (
            "numeric failure: recoil double sum S overflows: its magnitude is at least "
            "2**1024 s/m^2\n"
        )

    def test_a_stamped_run_writes_one_stamp_to_both_manifests(self, capsys, tmp_path):
        dump = tmp_path / "dump.csv"
        code, out, _ = run(
            capsys, *self.BASE, "--stamp", "--dump-trajectory", str(dump), "--dump-dt", "0.1"
        )
        assert code == 0
        stamps = [
            [line for line in text.splitlines() if line.startswith("# stamp = ")]
            for text in (out, dump.read_text(encoding="utf-8"))
        ]
        assert len(stamps[0]) == 1 and stamps[0] == stamps[1]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--geometry", "rbi-asym", "--k", "1e155", "--T", "0.1", "--Tprime", "0.05"),
             "recoil double sum S overflows: its magnitude is at least 2**1027 s/m^2"),
            (("--geometry", "rbi-asym", "--k", "1e155", "--T", "0.1", "--Tprime", "0.05",
              "--omega", "1e15"),
             "recoil double sum S overflows: its magnitude is at least 2**1027 s/m^2"),
            (("--geometry", "mzi", "--k", "1e7", "--T", "8.5e307"),
             "closure moment sum(t^2 dk) overflows: its magnitude is at least 2**2070 s^2/m"),
        ],
        ids=["recoil-sum", "recoil-sum-omega", "closure-moments"],
    )
    def test_an_exact_sum_of_opposite_infinities_exits_with_three(self, capsys, flags, message):
        # In floats the products of these sums overflow to infinities of both
        # signs; the exact sums lie beyond the float range.
        code, out, err = run(capsys, "simulate", *flags, "--mass", "1.4e-25")
        assert (code, out) == (3, "")
        assert err == f"numeric failure: {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [(("--k", "1e7", "--T", "10", "--g", "1e308"),
          "gravito-recoil sum of dk * z_g has a factor that is not finite")],
        ids=["gravito-recoil-sum"],
    )
    def test_an_unreadable_sum_of_a_closed_mzi_exits_with_three(self, capsys, flags, message):
        code, out, err = run(capsys, "simulate", "--geometry", "mzi", *flags, "--mass", "1e-25")
        assert (code, out) == (3, "")
        assert err == f"numeric failure: {message}\n"

    def test_a_closed_mzi_at_the_edge_of_the_float_range_is_simulated(self, capsys):
        # At k = 1e301 the Dekker splits of the gravito-recoil products
        # overflow; that sum, S and the moments are still finite.
        code, out, _ = run(
            capsys, "simulate", "--geometry", "mzi", "--k", "1e301", "--T", "0.1",
            "--mass", "1e-25", "--g", "9.81", "--format", "json",
        )
        assert code == 0
        phase = json.loads(out)["phase"]
        seq, env = build_mzi(1e301, 0.1), GravityEnv(9.81)
        exact = sum(
            Fraction(p.delta_k) * Fraction(gravity_trajectory(env, InitialConditions(), p.t)[0])
            for p in seq.pulses
        )
        assert phase["delta_tau"] == 0.0
        assert phase["gravito_recoil"] == phase["total_phase"] == float(exact)

    def test_an_overflowing_laser_sum_exits_with_three(self, capsys, tmp_path):
        path = tmp_path / "phases.geom"
        path.write_text(
            "pulse 0.0 1e7 0.0 1e308 -1e308\npulse 0.1 -1e7 1e7\npulse 0.2 0.0 -1e7\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "simulate", "--geometry", f"file:{path}", "--mass", "1e-25")
        assert (code, out) == (3, "")
        assert err == (
            "numeric failure: laser phase sum overflows: its magnitude is at least 2**1024 rad\n"
        )

    def test_trajectory_dump_needs_a_step(self, capsys, tmp_path):
        code, _, err = run(capsys, *self.BASE, "--dump-trajectory", str(tmp_path / "t.csv"))
        assert code == 1
        assert "--dump-dt" in err


class TestScan:
    def test_sweep_over_T_with_a_degenerate_origin(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--geometry", "rbi-asym", "--k", "1e7", "--vary", "T",
            "--from", "0", "--to", "0.2", "--steps", "3", "--mass", SR_MASS,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "T", "delta_tau", "recoil_phase", "gravito_recoil", "laser_phase", "total_phase",
        ]
        assert rows[0] == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert rows[1][1] != 0.0

    def test_clock_sweep_envelope_crosses_ninety_percent(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--geometry", "rbi-double", "--k-in-km", "580",
            "--vary", "T", "--from", "0", "--to", "0.4", "--steps", "5",
            "--mass", SR_MASS, "--omega", "2.696928e15",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["T", "delta_tau", "envelope", "carrier_phase", "P"]
        envelopes = [row[2] for row in rows]
        assert envelopes[0] == 1.0
        assert all(a > b for a, b in zip(envelopes, envelopes[1:]))
        assert envelopes[3] > 0.9 > envelopes[4]  # T = 0.3 and T = 0.4

    def test_quadratic_wavenumber_scaling(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--geometry", "rbi-asym", "--T", "0.1", "--vary", "k",
            "--from", "1e6", "--to", "8e6", "--steps", "4", "--mass", SR_MASS,
        )
        assert code == 0
        _, rows = parse_csv(out)
        ks = np.array([row[0] for row in rows])
        dtaus = np.abs([row[1] for row in rows])
        slope = np.polyfit(np.log(ks), np.log(dtaus), 1)[0]
        assert slope == pytest.approx(2.0, abs=1e-6)

    def test_single_point_scan_matches_simulate(self, capsys):
        args = ("--geometry", "rbi-double", "--k", "1e7", "--mass", SR_MASS, "--g", "9.81")
        code, out_scan, _ = run(
            capsys, "scan", *args, "--vary", "T", "--from", "0.1", "--to", "0.1", "--steps", "1"
        )
        code2, out_sim, _ = run(capsys, "simulate", *args, "--T", "0.1", "--format", "csv")
        assert code == code2 == 0
        _, scan_rows = parse_csv(out_scan)
        _, sim_rows = parse_csv(out_sim)
        assert scan_rows[0][1] == sim_rows[0][0]   # delta_tau
        assert scan_rows[0][5] == sim_rows[0][4]   # total_phase

    @pytest.mark.parametrize(
        "extra",
        [
            ("--steps", "0"),
            ("--from", "2.0", "--to", "1.0", "--steps", "3"),
        ],
        ids=["zero-steps", "reversed-range"],
    )
    def test_empty_ranges_are_rejected(self, capsys, extra):
        base = [
            "scan", "--geometry", "mzi", "--k", "1e7", "--vary", "T",
            "--from", "0.0", "--to", "1.0", "--steps", "3", "--mass", SR_MASS,
        ]
        base_map = dict(zip(base[1::2], base[2::2]))
        for key, value in zip(extra[::2], extra[1::2]):
            base_map[key] = value
        argv = ["scan"]
        for key, value in base_map.items():
            argv += [key, value]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "empty scan range" in err

    SCAN = (
        "scan", "--geometry", "mzi", "--k", "1e7", "--mass", "1e-25",
        "--vary", "T", "--from", "0.01", "--to", "0.1",
    )

    @pytest.mark.parametrize(
        "start, stop, refused",
        [("0.1", "inf", "--to must be finite, got inf"),
         ("-inf", "0.1", "--from must be finite, got -inf"),
         ("nan", "0.1", "--from must be finite, got nan")],
    )
    def test_non_finite_range_ends_are_refused(self, capsys, start, stop, refused):
        code, out, err = run(
            capsys, "scan", "--geometry", "mzi", "--k", "1e7", "--mass", "1.4e-25",
            "--vary", "T", f"--from={start}", f"--to={stop}", "--steps", "3",
        )
        assert (code, out, err) == (1, "", f"error: {refused}\n")

    def test_rows_are_held_as_their_csv_lines(self, tmp_path):
        # each row keeps its ~140-character line and its grid value, about
        # 240 bytes; rows kept as floats and then joined took about 700
        def traced_peak(steps):
            argv = [
                "scan", "--geometry", "rbi-double", "--k", "1.6e7", "--mass", "1.4e-25",
                "--vary", "T", "--from", "0.01", "--to", "0.5", "--steps", str(steps),
                "--output", str(tmp_path / "scan.csv"),
            ]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(100)
        # the first scan of a size grows CPython's tuple free lists, which
        # a later scan finds full: run the larger one before the measured pair
        traced_peak(2500)
        # above ~1500 rows the rows outweigh the fixed working set of a block
        assert (traced_peak(2500) - traced_peak(1500)) / 1000 < 400

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--vary", "T"), "geometry 'rbi-asym' needs --k or --k-in-km"),
            (("--vary", "k"), "geometry 'rbi-asym' needs --T"),
        ],
        ids=["T-without-k", "k-without-T"],
    )
    def test_a_scan_without_its_fixed_parameter_is_refused(self, capsys, flags, message):
        code, out, err = run(
            capsys, "scan", "--geometry", "rbi-asym", *flags, "--from", "0.01", "--to", "0.2",
            "--steps", "3", "--mass", SR_MASS,
        )
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_an_unknown_geometry_is_refused_before_any_row(self, capsys):
        # every row of this grid is degenerate, so no row calls a builder
        code, out, err = run(
            capsys, "scan", "--geometry", "bogus", "--k", "1e7", "--mass", "1e-25",
            "--vary", "T", "--from", "0", "--to", "0", "--steps", "2",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: unknown geometry 'bogus'; expected one of mzi, rbi-sym, rbi-asym or rbi-double\n"
        )

    def test_steps_over_the_row_budget_are_refused(self, capsys):
        code, out, err = run(capsys, *self.SCAN, "--steps", str(cli.MAX_SCAN_ROWS + 1))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "row budget" in err

    def test_the_row_budget_itself_is_allowed(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SCAN_ROWS", 4)
        code, out, _ = run(capsys, *self.SCAN, "--steps", "4")
        assert code == 0
        assert len(parse_csv(out)[1]) == 4
        code, out, err = run(capsys, *self.SCAN, "--steps", "5")
        assert (code, out) == (1, "")
        assert "row budget of 4" in err

    @pytest.mark.parametrize("clock", [(), ("--omega", "0")], ids=["phase", "beat"])
    def test_non_finite_rows_exit_with_three(self, capsys, clock):
        code, out, err = run(
            capsys, "scan", "--geometry", "rbi-asym", "--k", "1e7", "--Tprime", "0.05",
            "--mass", "5e-324", "--vary", "T", "--from", "0", "--to", "0.1", "--steps", "2",
            *clock,
        )
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: ")


@st.composite
def scan_ranges(draw):
    """--from <= --to anywhere in the finite floats, often subnormal or only a
    few ulps apart, where the step underflows to zero."""
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e-320, 1e-320)
    start, stop = sorted((draw(finite), draw(finite)))
    if draw(st.booleans()):
        stop = start
        for _ in range(draw(st.integers(0, 4))):
            stop = math.nextafter(stop, math.inf)
        if not math.isfinite(stop):
            stop = start
    return start, stop


@given(ends=scan_ranges(), steps=st.integers(1, 3) | st.integers(1, 1500))
@example(ends=(-0.0, -0.0), steps=1)  # 0*delta + start is 0.0, not start
@example(ends=(-1.7e308, 1.7e308), steps=1)  # 0*inf: nan
@example(ends=(-1.7e308, 1.7e308), steps=5)  # an infinite step
@example(ends=(0.0, 2e-323), steps=1000)  # the step underflows to zero
@settings(max_examples=300, deadline=None)
def test_scan_grid_is_numpys_linspace_bit_for_bit(ends, steps):
    # Ranges wider than the float range give inf and nan values, and numpy
    # warns about them.
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linspace(*ends, steps).tolist()
    assert [float.hex(v) for v in cli._linspace(*ends, steps)] == [float.hex(v) for v in want]


class TestCheck:
    def test_closed_geometry_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--geometry", "mzi", "--k", "1e7", "--T", "0.4")
        assert code == 0
        assert "closed" in out

    def test_overflowing_closure_moments_exit_with_three(self, capsys):
        code, out, err = run(capsys, "check", "--geometry", "mzi", "--k", "1e7", "--T", "8.5e307")
        assert (code, out) == (3, "")
        assert err == (
            "numeric failure: closure moment sum(t^2 dk) overflows: its magnitude is at least "
            "2**2070 s^2/m\n"
        )

    def test_mzi_at_k_1e301_is_reported_closed(self, capsys):
        code, out, _ = run(
            capsys, "check", "--geometry", "mzi", "--k", "1e301", "--T", "0.1", "--format", "json"
        )
        assert code == 0
        closure = json.loads(out)["closure"]
        assert closure["closed"] is True
        assert (closure["moment0"], closure["moment1"]) == (0.0, 0.0)
        assert closure["moment2"] == float(2 * Fraction(1e301) * Fraction(0.1) ** 2)

    def test_open_geometry_fails_with_two(self, capsys, tmp_path):
        path = tmp_path / "open.geom"
        path.write_text("pulse 0.0 1.0 0.0\npulse 1.0 1.0 0.0\n", encoding="utf-8")
        code, out, _ = run(capsys, "check", "--geometry", f"file:{path}", "--format", "json")
        assert code == 2
        assert json.loads(out)["closure"]["closed"] is False

    def test_json_report_fields(self, capsys):
        code, out, _ = run(
            capsys, "check", "--geometry", "rbi-double", "--k", "1e7", "--T", "0.1",
            "--format", "json",
        )
        assert code == 0
        closure = json.loads(out)["closure"]
        assert set(closure) == {
            "delta_z_final", "delta_v_final", "moment0", "moment1", "moment2", "closed",
        }
        assert closure["closed"] is True


class TestOracle:
    BASE = (
        "oracle", "--geometry", "rbi-asym", "--k", "1.8e10", "--T", "0.325",
        "--mass", SR_MASS, "--g", "9.81",
    )

    def test_single_width_report(self, capsys):
        code, out, _ = run(capsys, *self.BASE, "--sigma", "3.25e-7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"]["rel_residual"] <= 1e-6

    @pytest.mark.parametrize(
        "flags",
        [("--k", "1e7", "--mass", "5e-324"), ("--k", "1e7", "--mass", "1e-300"),
         ("--k", "1e300", "--mass", "1.4e-25")],
        ids=["subnormal-mass", "tiny-mass", "huge-k"],
    )
    def test_values_beyond_the_float_range_are_numeric_failures(self, capsys, flags):
        # a numpy warning would be raised here: pytest turns warnings into errors
        code, out, err = run(
            capsys, "oracle", "--geometry", "mzi", "--T", "0.1", "--sigma", "0.01", *flags
        )
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: ") and err.count("\n") == 1

    def test_a_proper_time_whose_product_overflows_is_reported(self, capsys):
        # At 1e-183 kg, -0.5 * dv * (v1 + v2) overflows before its division
        # by c**2, while the integrand itself is near 1e291; the relative
        # residual does not depend on the mass
        argv = (
            "oracle", "--geometry", "rbi-asym", "--k", "1e7", "--T", "0.1", "--g", "0",
            "--sigma", "1e-6", "--format", "json",
        )
        residuals = []
        for mass in ("1e-183", "1e-25"):
            code, out, _ = run(capsys, *argv, "--mass", mass)
            assert code == 0
            residuals.append(json.loads(out)["oracle"]["rel_residual"])
        assert residuals[0] == pytest.approx(6.25e-7, rel=1e-6)
        assert residuals[0] == pytest.approx(residuals[1], rel=1e-8)

    def test_a_launch_height_near_the_float_range_prints_strict_json(self, capsys):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        code, out, _ = run(
            capsys, "oracle", "--geometry", "mzi", "--k", "1e7", "--T", "0.1", "--mass", SR_MASS,
            "--g", "0", "--z0", "1.5e301", "--sigma", "1e-6", "--format", "json",
        )
        assert code == 0
        report = json.loads(out, parse_constant=refuse)["oracle"]
        assert report["gravito_recoil_numeric"] == 0.0

    def test_a_window_average_beyond_the_float_range_exits_with_three(self, capsys):
        # the launch at 1.7976e308 m rises past the float range inside the first window
        code, out, err = run(
            capsys, "oracle", "--geometry", "mzi", "--k", "1e7", "--T", "0.1", "--mass", SR_MASS,
            "--g", "0", "--z0", "1.7976e308", "--v0", "8e307", "--sigma", "1e-2",
        )
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: oracle gravito-recoil sum of k * window average")
        assert err.count("\n") == 1

    def test_a_sweep_never_forms_the_window_averages(self, capsys):
        # a sweep integrates the proper time only, which z0 does not enter
        def residuals(z0):
            code, out, _ = run(
                capsys, "oracle", "--geometry", "mzi", "--k", "1e7", "--T", "0.1",
                "--mass", SR_MASS, "--g", "0", "--z0", z0, "--sweep-sigma", "1e-4", "5e-5",
                "--format", "json",
            )
            assert code == 0
            return json.loads(out)["residuals"]

        assert residuals("1e308") == residuals("0")

    def test_a_step_whose_square_overflows_is_one_line_of_numeric_failure(self, capsys):
        # a numpy overflow warning would be raised here: pytest turns warnings into errors
        code, out, err = run(
            capsys, "oracle", "--geometry", "rbi-asym", "--k", "1e7", "--T", "1e300",
            "--mass", "1e-25", "--sigma", "1e290", "--g", "9.81",
        )
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: ") and err.count("\n") == 1

    def test_tight_tolerance_exits_with_three(self, capsys):
        code, _, _ = run(capsys, *self.BASE, "--sigma", "3.25e-7", "--tol", "1e-12")
        assert code == 3

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_a_tolerance_below_zero_or_nan_is_refused(self, capsys, tol):
        # rel_residual is about 2e-3 at this width
        code, out, err = run(capsys, *self.BASE, "--sigma", "1e-2", "--tol", tol)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --tol")

    def test_an_infinite_tolerance_never_fails(self, capsys):
        code, _, _ = run(capsys, *self.BASE, "--sigma", "1e-2", "--tol", "inf")
        assert code == 0

    def test_sigma_is_required_without_a_sweep(self, capsys):
        code, _, err = run(capsys, *self.BASE)
        assert code == 1
        assert "--sigma" in err

    def test_oversized_sigma_is_a_config_error(self, capsys):
        code, _, err = run(capsys, *self.BASE, "--sigma", "0.2")
        assert code == 1
        assert "half the minimum" in err

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    def test_a_window_that_rounds_to_empty_is_a_config_error(self, capsys, shape):
        # pulses at 0, 1 and 2 s: 1 + 0.4 ulp(1) rounds back to 1
        sigma = repr(0.4 * math.ulp(1.0))
        code, out, err = run(
            capsys, "oracle", "--geometry", "mzi", "--k", "1e7", "--T", "1", "--mass", SR_MASS,
            "--sigma", sigma, "--shape", shape,
        )
        assert (code, out) == (1, "")
        assert err.startswith("oracle config error:")
        assert f"pulse_width {sigma} is below the time resolution at t = 1.0" in err

    def test_sweep_reports_the_fitted_exponent(self, capsys):
        code, out, _ = run(
            capsys, *self.BASE, "--sweep-sigma", "3.25e-4", "3.25e-5", "3.25e-6"
        )
        assert code == 0
        assert "# fitted_exponent = " in out

    def test_sweep_without_a_fit_prints_strict_json(self, capsys):
        # every residual sits below the floor, so no exponent is fitted
        argv = (
            "oracle", "--geometry", "mzi", "--k", "1e7", "--T", "0.1",
            "--mass", SR_MASS, "--g", "9.81", "--sweep-sigma", "1e-4", "5e-5", "2.5e-5",
        )
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        assert json.loads(out, parse_constant=reject)["fitted_exponent"] is None
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "# fitted_exponent = nan" in out

    def test_increasing_sweep_is_rejected(self, capsys):
        code, _, err = run(capsys, *self.BASE, "--sweep-sigma", "1e-6", "1e-5")
        assert code == 1
        assert "decreasing" in err

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("width", [("--sigma", "3.25e-7"), ("--sweep-sigma", "1e-4", "1e-5")])
    def test_the_oracle_refuses_steps(self, capsys, tmp_path, shape, width):
        # every segment is integrated in closed form: there are no steps to set
        path = tmp_path / "out"
        code, out, err = run(
            capsys, *self.BASE, "--shape", shape, "--steps", "100", *width, "--output", str(path)
        )
        assert (code, out, err) == (1, "", "error: unrecognized arguments: --steps 100\n")
        assert not path.exists()

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    def test_the_report_is_the_librarys_with_no_steps(self, capsys, shape):
        report = lpai.oracle_report(
            lpai.build_rbi_asymmetric(1.8e10, 0.325), Species(float(SR_MASS)), GravityEnv(9.81),
            InitialConditions(), lpai.OracleConfig(3.25e-7, pulse_shape=shape),
        )
        code, out, _ = run(
            capsys, *self.BASE, "--sigma", "3.25e-7", "--shape", shape, "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert "steps" not in doc["manifest"]["parameters"] and "steps" not in doc["oracle"]
        assert doc["oracle"] == json.loads(json.dumps(report.as_report()))

class TestHarness:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 1

    def test_bad_float_flag(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--geometry", "mzi", "--k", "fast", "--T", "0.4",
            "--mass", SR_MASS,
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value", [("--z0", "-5e-05"), ("--v0", "-1e3"), ("--z0", "-.5e1")]
    )
    def test_a_negative_value_in_any_float_spelling_is_read_as_a_value(self, capsys, flag, value):
        argv = ("simulate", "--geometry", "mzi", "--k", "1e7", "--T", "0.1", "--mass", SR_MASS)
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, *argv, f"{flag}={value}")

    def test_a_negative_width_in_a_sweep_is_a_config_error(self, capsys):
        code, out, err = run(capsys, *ORACLE_MZI, "--sweep-sigma", "1e-4", "-5e-5")
        assert (code, out) == (1, "")
        assert err.startswith("oracle config error: pulse_width must be positive")

    def test_a_dash_word_after_a_flag_is_still_an_option(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--geometry", "mzi", "--k", "1e7", "--T", "0.1",
            "--mass", SR_MASS, "--z0", "-x",
        )
        assert (code, out) == (1, "")
        assert err == "error: argument --z0: expected one argument\n"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert lpai.__version__ in capsys.readouterr().out

    def test_outputs_are_byte_identical_without_a_stamp(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = (
            "simulate", "--geometry", "mzi", "--k", "1e7", "--T", "0.4",
            "--mass", SR_MASS, "--g", "9.81",
        )
        assert main([*args, "--output", str(a)]) == 0
        assert main([*args, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stamp_adds_a_manifest_line(self, capsys, tmp_path):
        path = tmp_path / "stamped.txt"
        args = (
            "simulate", "--geometry", "mzi", "--k", "1e7", "--T", "0.4",
            "--mass", SR_MASS, "--stamp", "--output", str(path),
        )
        assert main(list(args)) == 0
        text = path.read_text(encoding="utf-8")
        assert "# stamp = " in text
        assert "# deterministic = false" in text
        assert main([*args, "--format", "json"]) == 0
        manifest = json.loads(path.read_text(encoding="utf-8"))["manifest"]
        assert "stamp" in manifest
        assert manifest["deterministic"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--geometry", "mzi", "--k", "1e7", "--T", "0.4", "--output", "{bad}"),
            (
                "scan", "--geometry", "mzi", "--k", "1e7", "--vary", "T", "--from", "0.1",
                "--to", "0.2", "--steps", "2", "--output", "{bad}",
            ),
            (
                "simulate", "--geometry", "mzi", "--k", "1e7", "--T", "0.4",
                "--dump-trajectory", "{bad}", "--dump-dt", "0.1",
            ),
        ],
        ids=["simulate-output", "scan-output", "dump-trajectory"],
    )
    def test_unwritable_output_path_is_an_error(self, capsys, tmp_path, argv):
        bad = str(tmp_path / "absent" / "x.csv")
        code, out, err = run(
            capsys, *(a.format(bad=bad) for a in argv), "--mass", SR_MASS
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write ")
        assert "Traceback" not in err

    def test_output_flag_writes_the_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "simulate", "--geometry", "mzi", "--k", "1e7", "--T", "0.4",
            "--mass", SR_MASS, "--format", "json", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text(encoding="utf-8"))["manifest"]["format"] == "json"


class TestOneWriter:
    """Every output goes through one writer: the same bytes to --output, one stamp per run."""

    @pytest.mark.parametrize(
        "golden, name, argv", GOLDEN_RUNS, ids=[f"{g.stem}-{n}" for g, n, _ in GOLDEN_RUNS]
    )
    def test_output_flag_writes_the_golden_stdout_to_the_file(
        self, tmp_path, golden, name, argv
    ):
        want = GOLDEN_OUTPUTS[golden][name]
        path = tmp_path / "out"
        result = run_in_golden_dir([*argv, "--output", str(path)])
        assert result == {"exit": want["exit"], "stdout": "", "stderr": want["stderr"]}
        # a run that fails before its output is written leaves no file
        written = path.read_bytes().decode("utf-8") if path.exists() else ""
        assert written == want["stdout"]

    @pytest.mark.parametrize("argv, fmt", STAMPED_RUNS)
    def test_a_stamp_is_the_one_difference_from_an_unstamped_run(self, capsys, argv, fmt):
        code, plain, _ = run(capsys, *argv, "--format", fmt)
        stamped_code, stamped, _ = run(capsys, *argv, "--format", fmt, "--stamp")
        assert code == stamped_code == 0
        if fmt == "json":
            assert stamped.count('"stamp"') == 1
            doc = json.loads(stamped)
            stamp = doc["manifest"].pop("stamp")
            assert doc["manifest"]["deterministic"] is False
            doc["manifest"]["deterministic"] = True
            assert doc == json.loads(plain)
        else:
            lines = stamped.splitlines(keepends=True)
            stamps = [line for line in lines if line.startswith("# stamp = ")]
            assert len(stamps) == 1
            lines.remove(stamps[0])
            unstamped = plain.replace("# deterministic = true\n", "# deterministic = false\n")
            assert "".join(lines) == unstamped != plain
            stamp = stamps[0][len("# stamp = ") :].rstrip("\n")
        assert datetime.fromisoformat(stamp).tzinfo is not None

    def test_a_stamped_manifest_keeps_its_order(self, capsys):
        argv = STAMPED["simulate"][0]
        code, text, _ = run(capsys, *argv, "--stamp")
        assert code == 0
        header = [line.partition(" = ")[0] for line in text.splitlines() if line.startswith("# ")]
        names = [f"# parameter.{name}" for name in sorted(manifest_params(text))]
        assert header == ["# command", "# version", "# format", "# deterministic", *names, "# stamp"]
        assert "# deterministic = false" in text.splitlines()
        code, out, _ = run(capsys, *argv, "--stamp", "--format", "json")
        assert code == 0
        manifest = json.loads(out)["manifest"]
        keys = ["command", "version", "format", "deterministic", "parameters", "stamp"]
        assert list(manifest) == keys and manifest["deterministic"] is False


# The refusal cases: each argv gives one flag outside its run's read set, or
# gives scan a file: geometry, which scan does not take.
PHASES_FILE = f"file:{CLI_GOLDEN.parent / 'laser-phases.geom'}"
# each command's flags beside --geometry: the builder flags that mzi and
# rbi-double read, then the rest
READ_SET_RUNS = {
    "simulate": (("--k", "1e7", "--T", "0.1"), ("--mass", "1e-25")),
    "check": (("--k", "1e7", "--T", "0.1"), ()),
    "oracle": (("--k", "1e7", "--T", "0.1"), ("--mass", "1e-25", "--sigma", "1e-6")),
    "scan": (
        ("--k", "1e7"),
        ("--mass", "1e-25", "--vary", "T", "--from", "0.1", "--to", "0.2", "--steps", "2"),
    ),
}
BUILDER_FLAGS = (("--k", "5"), ("--k-in-km", "2"), ("--T", "3"), ("--Tprime", "0.3"))
REFUSALS = {
    **{
        f"{command}-{geometry}-Tprime": (
            (command, "--geometry", geometry, *builder, *rest, "--Tprime", "0.3"),
            f"--Tprime is not read with geometry {geometry!r}",
        )
        for command, (builder, rest) in READ_SET_RUNS.items()
        for geometry in ("mzi", "rbi-double")
    },
    **{
        f"{command}-file-{flag[2:]}": (
            (command, "--geometry", PHASES_FILE, *READ_SET_RUNS[command][1], flag, value),
            f"{flag} is not read with geometry {PHASES_FILE!r}",
        )
        for command in ("simulate", "check", "oracle")
        for flag, value in BUILDER_FLAGS
    },
    "scan-file": (
        ("scan", "--geometry", PHASES_FILE, *READ_SET_RUNS["scan"][1]),
        f"unknown geometry {PHASES_FILE!r}; expected one of mzi, rbi-sym, rbi-asym or rbi-double",
    ),
    # the grid sets the varied parameter
    **{
        f"scan-vary-{vary}-{flag}": (
            ("scan", "--geometry", "mzi", *fixed, "--vary", vary, "--from", "0.1", "--to", "0.2",
             "--steps", "2", "--mass", "1e-25", f"--{flag}", value),
            f"--{flag} is not read with --vary {vary}",
        )
        for vary, fixed, flag, value in (
            ("T", ("--k", "1e7"), "T", "5"),
            ("k", ("--T", "0.1"), "k", "-5"),
            ("k", ("--T", "0.1"), "k-in-km", "2"),
        )
    },
    # a sweep sets its own widths and reports residuals without a limit
    **{
        f"oracle-sweep-{flag}": (
            ("oracle", "--geometry", "rbi-asym", "--k", "1.8e10", "--T", "0.325", "--mass",
             SR_MASS, "--sweep-sigma", "3.25e-4", "3.25e-5", f"--{flag}", value),
            f"--{flag} is not read with --sweep-sigma",
        )
        for flag, value in (("sigma", "1e-2"), ("tol", "1e-30"))
    },
    "simulate-dump-dt": (
        ("simulate", "--geometry", "mzi", "--k", "1e7", "--T", "0.4", "--mass", SR_MASS,
         "--dump-dt", "0.1"),
        "--dump-dt is not read without --dump-trajectory",
    ),
    # two runs that used to exit 0 with flags that never entered the result
    "file-k-and-T": (
        ("simulate", "--geometry", PHASES_FILE, "--k", "5", "--T", "3", "--mass", "1e-25"),
        f"--k is not read with geometry {PHASES_FILE!r}",
    ),
    "mzi-Tprime": (
        ("simulate", "--geometry", "mzi", "--k", "1e7", "--T", "0.4", "--Tprime", "0.3",
         "--mass", "1e-25"),
        "--Tprime is not read with geometry 'mzi'",
    ),
}


def flag_names(argv):
    """The parameter name of each flag in argv: --k-in-km is k_in_km, --from=-1 is from."""
    return {a[2:].partition("=")[0].replace("-", "_") for a in argv if a.startswith("--")}


def read_defaults(argv):
    """The parameters a golden run reads without their flags: defaults, and k from --k-in-km."""
    names, command = flag_names(argv), argv[0]
    defaults = {"mass"} if command == "check" else {"g", "z0", "v0"}
    if command == "oracle":
        defaults |= {"shape"} | (set() if "sweep_sigma" in names else {"tol"})
    if argv[argv.index("--geometry") + 1] in ("rbi-sym", "rbi-asym"):
        defaults.add("Tprime")
    if "k_in_km" in names:
        defaults.add("k")
    return defaults - names


class TestReadSet:
    """A run reads one set of flags: it refuses the rest, and its manifest lists the set."""

    @pytest.mark.parametrize("argv, message", REFUSALS.values(), ids=REFUSALS.keys())
    def test_a_flag_outside_the_read_set_is_refused(self, capsys, tmp_path, argv, message):
        path = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not path.exists()

    @pytest.mark.parametrize(
        "golden, name, argv", GOLDEN_RUNS, ids=[f"{g.stem}-{n}" for g, n, _ in GOLDEN_RUNS]
    )
    def test_the_manifest_lists_what_the_run_read(self, golden, name, argv):
        stdout = GOLDEN_OUTPUTS[golden][name]["stdout"]
        if not stdout:  # a failed run writes no manifest
            return
        if stdout.startswith("{"):
            params = json.loads(stdout)["manifest"]["parameters"]
        else:
            params = manifest_params(stdout)
        names = flag_names(argv) - {"format", "output", "stamp"}
        assert set(params) == names | read_defaults(argv)
