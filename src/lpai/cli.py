"""Command-line front end.

Subcommands:

  simulate   phase decomposition (and beat signal with --omega) for a geometry
  scan       sweep T or k over a grid, one CSV row per point
  check      phase-space closure report
  oracle     finite-pulse-width numeric comparison against the closed form

Exit codes: 0 success, 1 flag/parse/config error, 2 geometry open in phase
space, 3 numeric failure (oracle residual above tolerance, accuracy or
consistency errors, a nan or infinite result).

Every output embeds a run manifest: '#'-prefixed key = value lines in text
and CSV, a "manifest" object in JSON.  Outputs are byte-identical for
identical invocations; --stamp opts into a timestamp line in the manifest.
Numeric flags are SI; --k-in-km gives the wave number as a multiple of
K_MAGIC = 1.5e7 /m and the manifest records the resolved SI value.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from . import __version__, constants
from .clock import BeatSignal, beat, beat_rows
from .core import ClockPair, GravityEnv, InitialConditions, PulseSequence, Species
from .errors import (
    GeometryParseError,
    InternalConsistencyError,
    NonFiniteResultError,
    OpenSequenceError,
    OracleAccuracyError,
    OracleConfigError,
)
from .geometry import (
    build_mzi,
    build_rbi_asymmetric,
    build_rbi_double_loop,
    build_rbi_symmetric,
    closure_check,
    parse_geometry,
)
from .kinematics import trajectory_table
from .phase import phase_rows, total_phase

_BUILDERS = ("mzi", "rbi-sym", "rbi-asym", "rbi-double")
# Grid points one scan may ask for, checked before the grid is allocated.
# The rows are formed in fixed blocks and each is held as its CSV line until
# the last one is in.  Peak RSS of `scan --geometry rbi-double --omega 1e15`
# (x86-64, Python 3.11, numpy 2.4): 30 MB at one row, 52 MB at 1e5 rows and
# 246 MB at this budget.
MAX_SCAN_ROWS = 1_000_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2) here
        raise _UsageError(message)


@dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded in every output."""

    command: str
    parameters: dict
    version: str = __version__
    output_format: str = "text"
    stamp: str | None = None

    def as_dict(self) -> dict:
        out = {
            "command": self.command,
            "version": self.version,
            "format": self.output_format,
            "deterministic": self.stamp is None,
            "parameters": dict(sorted(self.parameters.items())),
        }
        if self.stamp is not None:
            out["stamp"] = self.stamp
        return out

    def header_lines(self) -> list[str]:
        lines = [
            f"# command = {self.command}",
            f"# version = {self.version}",
            f"# format = {self.output_format}",
            f"# deterministic = {str(self.stamp is None).lower()}",
        ]
        for key, value in sorted(self.parameters.items()):
            lines.append(f"# parameter.{key} = {value}")
        if self.stamp is not None:
            lines.append(f"# stamp = {self.stamp}")
        return lines


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--geometry",
        required=True,
        help=f"one of {', '.join(_BUILDERS)}, or file:<path>",
    )
    p.add_argument("--k", type=float, help="wave number transfer (1/m)")
    p.add_argument(
        "--k-in-km",
        type=float,
        dest="k_in_km",
        help=f"wave number as a multiple of {constants.K_MAGIC:g} /m",
    )
    p.add_argument("--T", type=float, dest="t_sep", help="pulse separation (s)")
    p.add_argument("--Tprime", type=float, dest="t_pause", default=0.0, help="pause (s)")


def _add_environment_flags(p: argparse.ArgumentParser, *, require_mass: bool) -> None:
    p.add_argument("--mass", type=float, required=require_mass, default=None, help="rest mass (kg)")
    p.add_argument("--g", type=float, default=0.0, help="gravitational acceleration (m/s^2)")
    p.add_argument("--z0", type=float, default=0.0, help="initial position (m)")
    p.add_argument("--v0", type=float, default=0.0, help="initial velocity (m/s)")


def _add_output_flags(p: argparse.ArgumentParser, formats=("text", "json", "csv")) -> None:
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--output", help="write here instead of stdout")
    p.add_argument("--stamp", action="store_true", help="include a timestamp in the manifest")


def build_parser() -> _Parser:
    parser = _Parser(prog="lpai", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="phase decomposition for one geometry")
    _add_geometry_flags(sim)
    _add_environment_flags(sim, require_mass=True)
    sim.add_argument("--omega", type=float, default=None, help="clock splitting (rad/s); enables beat output")
    sim.add_argument("--dump-trajectory", dest="dump_trajectory", help="write t,z1,v1,z2,v2,zg CSV here")
    sim.add_argument("--dump-dt", dest="dump_dt", type=float, default=None, help="sampling step for the dump (s)")
    _add_output_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    scan = sub.add_parser("scan", help="sweep T or k, one CSV row per grid point")
    _add_geometry_flags(scan)
    _add_environment_flags(scan, require_mass=True)
    scan.add_argument("--omega", type=float, default=None, help="clock splitting (rad/s); beat columns")
    scan.add_argument("--vary", choices=("T", "k"), required=True)
    scan.add_argument("--from", dest="start", type=float, required=True)
    scan.add_argument("--to", dest="stop", type=float, required=True)
    scan.add_argument("--steps", type=int, required=True, help="number of grid points")
    _add_output_flags(scan, formats=("csv",))
    scan.set_defaults(func=cmd_scan)

    chk = sub.add_parser("check", help="phase-space closure report")
    _add_geometry_flags(chk)
    chk.add_argument("--mass", type=float, default=1.0, help="rest mass (kg); closure itself is mass-free")
    _add_output_flags(chk, formats=("text", "json"))
    chk.set_defaults(func=cmd_check)

    orc = sub.add_parser("oracle", help="numeric comparison against the closed form")
    _add_geometry_flags(orc)
    _add_environment_flags(orc, require_mass=True)
    orc.add_argument("--sigma", type=float, default=None, help="pulse width (s)")
    orc.add_argument("--steps", type=int, default=400, help="integration steps per grid segment")
    orc.add_argument("--shape", choices=("tophat", "cosine"), default="tophat")
    orc.add_argument(
        "--tol", type=float, default=None,
        help="relative residual limit, default 1e-6 (exit 3 above it; single width only)",
    )
    orc.add_argument(
        "--sweep-sigma",
        dest="sweep_sigma",
        type=float,
        nargs="+",
        default=None,
        help="decreasing widths for a convergence study",
    )
    _add_output_flags(orc, formats=("text", "json", "csv"))
    orc.set_defaults(func=cmd_oracle)

    return parser


def _resolve_k(args) -> tuple[float | None, dict]:
    if args.k is not None and args.k_in_km is not None:
        raise _UsageError("--k and --k-in-km are mutually exclusive")
    if args.k_in_km is not None:
        k = args.k_in_km * constants.K_MAGIC
        return k, {"k": k, "k_in_km": args.k_in_km}
    if args.k is not None:
        return args.k, {"k": args.k}
    return None, {}


def _build_sequence(name: str, k: float, t_sep: float, t_pause: float) -> PulseSequence:
    if name == "mzi":
        return build_mzi(k, t_sep)
    if name == "rbi-sym":
        return build_rbi_symmetric(k, t_sep, t_pause)
    if name == "rbi-asym":
        return build_rbi_asymmetric(k, t_sep, t_pause)
    if name == "rbi-double":
        return build_rbi_double_loop(k, t_sep)
    raise _UsageError(f"unknown geometry {name!r}; expected one of {', '.join(_BUILDERS)} or file:<path>")


def _resolve_sequence(args) -> tuple[PulseSequence, dict]:
    """Sequence plus the manifest parameters describing where it came from."""
    geo = args.geometry
    if geo.startswith("file:"):
        path = geo[len("file:") :]
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise _UsageError(f"cannot read geometry file {path!r}: {exc}") from exc
        return parse_geometry(text), {"geometry": geo}
    k, k_params = _resolve_k(args)
    if k is None:
        raise _UsageError(f"geometry {geo!r} needs --k or --k-in-km")
    if args.t_sep is None:
        raise _UsageError(f"geometry {geo!r} needs --T")
    params = {"geometry": geo, "T": args.t_sep, "Tprime": args.t_pause, **k_params}
    return _build_sequence(geo, k, args.t_sep, args.t_pause), params


def _environment(args) -> tuple[Species, GravityEnv, InitialConditions, dict]:
    species = Species(args.mass)
    env = GravityEnv(args.g)
    ics = InitialConditions(args.z0, args.v0)
    return species, env, ics, {"mass": args.mass, "g": args.g, "z0": args.z0, "v0": args.v0}


def _stamp(args) -> str | None:
    if not args.stamp:
        return None
    return datetime.now(timezone.utc).isoformat()


def _emit(text: str, output: str | None) -> None:
    _emit_lines([text], output)


def _emit_lines(lines: Iterable[str], output: str | None) -> None:
    """Write the lines, each ending in a newline, one after another without joining them."""
    if output is None:
        sys.stdout.writelines(lines)
    else:
        try:
            with open(output, "w", encoding="utf-8") as f:
                f.writelines(lines)
        except OSError as exc:
            raise _UsageError(f"cannot write {output!r}: {exc}") from exc


def _text_block(manifest: RunManifest, body: str) -> str:
    return "\n".join(manifest.header_lines()) + "\n" + body + "\n"


def _csv_head(manifest: RunManifest, columns: list[str]) -> list[str]:
    """The manifest lines and the column line of a CSV output, newline-terminated."""
    return [f"{line}\n" for line in (*manifest.header_lines(), ",".join(columns))]


def _csv_line(row: Iterable[float]) -> str:
    return ",".join(_fmt(x) for x in row) + "\n"


def _csv_block(manifest: RunManifest, columns: list[str], rows: list[list[float]]) -> str:
    return "".join(_csv_head(manifest, columns)) + "".join(_csv_line(row) for row in rows)


def _json_block(manifest: RunManifest, payload: dict) -> str:
    return json.dumps({"manifest": manifest.as_dict(), **payload}, indent=2) + "\n"


def cmd_simulate(args) -> int:
    seq, geo_params = _resolve_sequence(args)
    species, env, ics, env_params = _environment(args)
    params = {**geo_params, **env_params}

    breakdown = total_phase(seq, species, env, ics)
    signal: BeatSignal | None = None
    if args.omega is not None:
        params["omega"] = args.omega
        signal = beat(seq, ClockPair(args.mass, args.omega), env, ics)

    manifest = RunManifest(
        command="simulate", parameters=params, output_format=args.format, stamp=_stamp(args)
    )

    if args.dump_trajectory is not None:
        if args.dump_dt is None:
            raise _UsageError("--dump-trajectory needs --dump-dt")
        table = trajectory_table(seq, species, env, ics, args.dump_dt)
        dump_manifest = RunManifest(
            command="simulate --dump-trajectory",
            parameters={**params, "dump_dt": args.dump_dt},
            output_format="csv",
            stamp=_stamp(args),
        )
        # Rows become lists of floats a block at a time and each line is
        # written as it is formed: the table is the only full copy held.
        rows = (row for i in range(0, len(table), 4096) for row in table[i : i + 4096].tolist())
        head = _csv_head(dump_manifest, ["t", "z1", "v1", "z2", "v2", "zg"])
        _emit_lines(itertools.chain(head, map(_csv_line, rows)), args.dump_trajectory)

    if args.format == "json":
        payload = {"phase": asdict(breakdown)}
        if signal is not None:
            payload["beat"] = asdict(signal)
        _emit(_json_block(manifest, payload), args.output)
    elif args.format == "csv":
        phase_fields = asdict(breakdown)
        columns = list(phase_fields)
        row = list(phase_fields.values())
        if signal is not None:
            beat_fields = asdict(signal)
            columns += list(beat_fields)
            row += list(beat_fields.values())
        _emit(_csv_block(manifest, columns, [row]), args.output)
    else:
        body = breakdown.as_table()
        if signal is not None:
            beat_fields = asdict(signal)
            width = max(len(name) for name in beat_fields)
            beat_lines = [
                f"{name:<{width}}  {_fmt(value):>23}" for name, value in beat_fields.items()
            ]
            body += "\n" + "\n".join(beat_lines)
        _emit(_text_block(manifest, body), args.output)
    return 0


def _scan_columns(clock_mode: bool, vary: str) -> list[str]:
    if clock_mode:
        return [vary, "delta_tau", "envelope", "carrier_phase", "P"]
    return [vary, "delta_tau", "recoil_phase", "gravito_recoil", "laser_phase", "total_phase"]


def cmd_scan(args) -> int:
    import numpy as np

    if args.geometry.startswith("file:"):
        raise _UsageError("scan varies builder parameters; geometry files are fixed")
    if args.steps < 1:
        raise _UsageError(f"empty scan range: --steps {args.steps}")
    if args.steps > MAX_SCAN_ROWS:
        raise _UsageError(f"--steps {args.steps} exceeds the scan row budget of {MAX_SCAN_ROWS}")
    for flag, value in (("--from", args.start), ("--to", args.stop)):
        if not math.isfinite(value):
            raise _UsageError(f"{flag} must be finite, got {value!r}")
    if args.stop < args.start:
        raise _UsageError(f"empty scan range: --from {args.start} exceeds --to {args.stop}")
    species, env, ics, env_params = _environment(args)
    k, k_params = _resolve_k(args)

    if args.vary == "T":
        if k is None:
            raise _UsageError("scan over T needs --k or --k-in-km")
        grid_params = k_params
    else:
        if args.t_sep is None:
            raise _UsageError("scan over k needs --T")
        grid_params = {"T": args.t_sep}

    def build(k_here: float, t_sep: float) -> PulseSequence:
        return _build_sequence(args.geometry, k_here, t_sep, args.t_pause)

    values = np.linspace(args.start, args.stop, args.steps).tolist()
    if args.vary == "T":
        grid = ((k, value) for value in values)
    else:
        grid = ((value, args.t_sep) for value in values)
    clock_mode = args.omega is not None
    # Each row becomes its CSV line as it arrives, and nothing is written
    # before the last one: a failing row leaves stdout empty.  None is the
    # degenerate corner of the sweep: no kicks, no dephasing.
    if clock_mode:
        signals = beat_rows(build, grid, ClockPair(args.mass, args.omega), env, ics)
        lines = [
            _csv_line(
                [value, 0.0, 1.0, 0.0, 1.0] if b is None
                else [value, b.delta_tau, b.envelope, b.carrier_phase, b.p_combined]
            )
            for value, b in zip(values, signals)
        ]
    else:
        breakdowns = phase_rows(build, grid, species, env, ics)
        lines = [
            _csv_line(
                [value] + [0.0] * 5 if b is None
                else [
                    value, b.delta_tau, b.recoil_phase, b.gravito_recoil, b.laser_phase,
                    b.total_phase,
                ]
            )
            for value, b in zip(values, breakdowns)
        ]

    params = {
        **grid_params,
        **env_params,
        "Tprime": args.t_pause,
        "geometry": args.geometry,
        "vary": args.vary,
        "from": args.start,
        "to": args.stop,
        "steps": args.steps,
    }
    if clock_mode:
        params["omega"] = args.omega
    manifest = RunManifest(command="scan", parameters=params, output_format="csv", stamp=_stamp(args))
    head = _csv_head(manifest, _scan_columns(clock_mode, args.vary))
    _emit_lines(itertools.chain(head, lines), args.output)
    return 0


def cmd_check(args) -> int:
    seq, geo_params = _resolve_sequence(args)
    report = closure_check(seq, Species(args.mass))
    manifest = RunManifest(
        command="check",
        parameters={**geo_params, "mass": args.mass},
        output_format=args.format,
        stamp=_stamp(args),
    )
    if args.format == "json":
        _emit(_json_block(manifest, {"closure": asdict(report)}), args.output)
    else:
        entries = asdict(report)
        width = max(len(name) for name in entries)
        lines = []
        for name, value in entries.items():
            shown = _fmt(value) if isinstance(value, float) else str(value).lower()
            lines.append(f"{name:<{width}}  {shown}")
        _emit(_text_block(manifest, "\n".join(lines)), args.output)
    return 0 if report.closed else 2


def cmd_oracle(args) -> int:
    from .oracle import OracleConfig, convergence_study, oracle_report

    if args.sweep_sigma is not None:
        # a sweep sets its own widths and reports residuals without a limit
        for flag, value in (("--sigma", args.sigma), ("--tol", args.tol)):
            if value is not None:
                raise _UsageError(f"{flag} cannot be combined with --sweep-sigma")
    tol = 1e-6 if args.tol is None else args.tol
    # nan would pass every `residual > tol` test and never exit 3
    if not tol >= 0.0:
        raise _UsageError(f"--tol must be a non-negative number, got {tol!r}")
    seq, geo_params = _resolve_sequence(args)
    species, env, ics, env_params = _environment(args)

    if args.sweep_sigma is not None:
        study = convergence_study(
            seq, species, env, ics, args.sweep_sigma,
            steps_per_segment=args.steps, pulse_shape=args.shape,
        )
        params = {
            **geo_params, **env_params,
            "steps": args.steps, "shape": args.shape,
            "sweep_sigma": ",".join(repr(w) for w in study.widths),
        }
        manifest = RunManifest(
            command="oracle", parameters=params, output_format=args.format, stamp=_stamp(args)
        )
        if args.format == "json":
            payload = {
                "widths": list(study.widths),
                "residuals": list(study.residuals),
                # nan (fewer than two residuals above the floor) is not JSON
                "fitted_exponent": (
                    study.fitted_exponent if math.isfinite(study.fitted_exponent) else None
                ),
                "floor": study.floor,
            }
            _emit(_json_block(manifest, payload), args.output)
        else:
            rows = [[w, r] for w, r in zip(study.widths, study.residuals)]
            block = _csv_block(manifest, ["sigma", "rel_residual"], rows)
            block += f"# fitted_exponent = {_fmt(study.fitted_exponent)}\n"
            _emit(block, args.output)
        return 0

    if args.sigma is None:
        raise _UsageError("oracle needs --sigma (or --sweep-sigma)")
    cfg = OracleConfig(pulse_width=args.sigma, steps_per_segment=args.steps, pulse_shape=args.shape)
    result = oracle_report(seq, species, env, ics, cfg)
    params = {
        **geo_params, **env_params,
        "sigma": args.sigma, "steps": args.steps, "shape": args.shape, "tol": tol,
    }
    manifest = RunManifest(
        command="oracle", parameters=params, output_format=args.format, stamp=_stamp(args)
    )
    if args.format == "json":
        _emit(_json_block(manifest, {"oracle": result.as_report()}), args.output)
    elif args.format == "csv":
        columns = [
            "sigma", "delta_tau_numeric", "delta_tau_closed", "rel_residual",
            "gravito_recoil_numeric", "total_phase_numeric",
        ]
        row = [
            result.sigma, result.delta_tau_numeric, result.delta_tau_closed,
            result.residual_vs_closed_form, result.gravito_recoil_numeric,
            result.total_phase_numeric,
        ]
        _emit(_csv_block(manifest, columns, [row]), args.output)
    else:
        entries = result.as_report()
        width = max(len(name) for name in entries)
        lines = [f"{name:<{width}}  {value}" for name, value in entries.items()]
        _emit(_text_block(manifest, "\n".join(lines)), args.output)
    return 3 if result.residual_vs_closed_form > tol else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GeometryParseError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 1
    except OracleConfigError as exc:
        print(f"oracle config error: {exc}", file=sys.stderr)
        return 1
    except OpenSequenceError as exc:
        print(f"open geometry: {exc}", file=sys.stderr)
        return 2
    except (OracleAccuracyError, InternalConsistencyError, NonFiniteResultError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
