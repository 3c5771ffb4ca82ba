"""Command-line behavior: exit codes, manifests, formats, determinism."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import lpai
from lpai import cli
from lpai import (
    GravityEnv,
    InitialConditions,
    Species,
    build_mzi,
    build_rbi_double_loop,
    sample,
    serialize_geometry,
    total_phase,
)
from lpai.cli import main

SR_MASS = "1.443157e-25"


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
                "87422a45586dfb7cd0886148178457b2a64f834d77ed077e4fb9de73fa7ec848",
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
        # above ~1500 rows the rows outweigh the fixed working set of a block
        assert (traced_peak(2500) - traced_peak(1500)) / 1000 < 400

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

    def test_geometry_files_cannot_be_scanned(self, capsys, tmp_path):
        path = tmp_path / "g.geom"
        path.write_text(serialize_geometry(build_mzi(1e7, 0.4)), encoding="utf-8")
        code, _, err = run(
            capsys, "scan", "--geometry", f"file:{path}", "--vary", "T",
            "--from", "0", "--to", "1", "--steps", "2", "--mass", SR_MASS,
        )
        assert code == 1


class TestCheck:
    def test_closed_geometry_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--geometry", "mzi", "--k", "1e7", "--T", "0.4")
        assert code == 0
        assert "closed" in out

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
        "--mass", SR_MASS, "--g", "9.81", "--steps", "100",
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

    def test_sweep_reports_the_fitted_exponent(self, capsys):
        code, out, _ = run(
            capsys, *self.BASE, "--sweep-sigma", "3.25e-4", "3.25e-5", "3.25e-6"
        )
        assert code == 0
        assert "# fitted_exponent = " in out

    def test_sweep_without_a_fit_prints_strict_json(self, capsys):
        # all but one residual sit below the floor, so no exponent is fitted
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

    @pytest.mark.parametrize("flag", [("--sigma", "1e-2"), ("--tol", "1e-30")])
    def test_sweep_refuses_a_single_width_flag(self, capsys, flag):
        code, out, err = run(capsys, *self.BASE, *flag, "--sweep-sigma", "3.25e-4", "3.25e-5")
        assert code == 1
        assert out == ""
        assert err == f"error: {flag[0]} cannot be combined with --sweep-sigma\n"

    def test_increasing_sweep_is_rejected(self, capsys):
        code, _, err = run(capsys, *self.BASE, "--sweep-sigma", "1e-6", "1e-5")
        assert code == 1
        assert "decreasing" in err

    @pytest.mark.parametrize("width", [("--sigma", "3.25e-7"), ("--sweep-sigma", "1e-4", "1e-5")])
    def test_grid_over_the_node_budget_is_refused(self, capsys, width):
        # 5 segments of 4e6 steps: 2e7 nodes, about 2 GB
        code, out, err = run(capsys, *self.BASE, "--steps", "4000000", *width)
        assert code == 1
        assert out == ""
        assert "error:" in err and "grid nodes" in err


class TestHarness:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 1

    def test_bad_float_flag(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--geometry", "mzi", "--k", "fast", "--T", "0.4",
            "--mass", SR_MASS,
        )
        assert code == 1

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
