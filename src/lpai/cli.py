"""Command-line front end.

Subcommands:

  simulate   phase decomposition (and beat signal with --omega) for a geometry
  scan       sweep T or k over a grid, one CSV row per point
  check      phase-space closure report
  oracle     finite-pulse-width numeric comparison against the closed form

Exit codes: 0 success, 1 flag/parse/config error, 2 geometry open in phase
space, 3 numeric failure (oracle residual above tolerance, accuracy or
consistency errors, a nan or infinite result, an exact sum whose partial
sums overflow).

Each output is one run manifest plus one payload, written by one writer:
'#'-prefixed key = value lines then the payload lines in text and CSV, a
"manifest" object next to the payload fields in JSON.  Outputs are
byte-identical for identical invocations; --stamp opts into a timestamp
line in the manifest, taken once per run, so the --dump-trajectory file
shares it.  Numeric flags are SI; --k-in-km gives the wave number as a
multiple of K_MAGIC = 1.5e7 /m and the manifest records the resolved SI
value.  Flags that a run would not use are refused (exit 1): --sigma or
--tol with --sweep-sigma, --T with `scan --vary T`, --k or --k-in-km with
`scan --vary k`, and --dump-dt without --dump-trajectory.
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
from typing import Callable, Iterable

from . import __version__, constants
from .clock import beat
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
    _fmt,
    build_mzi,
    build_rbi_asymmetric,
    build_rbi_double_loop,
    build_rbi_symmetric,
    closure_check,
    parse_geometry,
)
from .kinematics import trajectory_table
from .phase import total_phase

# Each builder is called as builder(k, T, Tprime).
_BUILDERS = {
    "mzi": lambda k, t_sep, t_pause: build_mzi(k, t_sep),
    "rbi-sym": build_rbi_symmetric,
    "rbi-asym": build_rbi_asymmetric,
    "rbi-double": lambda k, t_sep, t_pause: build_rbi_double_loop(k, t_sep),
}
# Grid points one scan may ask for, checked before the grid is allocated.
# The rows are formed one at a time and each is held as its CSV line until
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
    output_format: str = "text"
    stamp: str | None = None

    def as_dict(self) -> dict:
        out = {
            "command": self.command,
            "version": __version__,
            "format": self.output_format,
            "deterministic": self.stamp is None,
            "parameters": dict(sorted(self.parameters.items())),
        }
        if self.stamp is not None:
            out["stamp"] = self.stamp
        return out

    def header_lines(self) -> list[str]:
        """as_dict as '# key = value' lines, one '# parameter.<name> = ...' per parameter."""
        fields = self.as_dict()
        fields["deterministic"] = str(fields["deterministic"]).lower()
        lines = []
        for key, value in fields.items():
            if key == "parameters":
                lines += [f"# parameter.{name} = {v}" for name, v in value.items()]
            else:
                lines.append(f"# {key} = {value}")
        return lines


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


def _build_sequence(name: str) -> Callable[[float, float, float], PulseSequence]:
    """The builder of a geometry name, refused here when there is none."""
    try:
        return _BUILDERS[name]
    except KeyError:
        raise _UsageError(
            f"unknown geometry {name!r}; expected one of {', '.join(_BUILDERS)} or file:<path>"
        ) from None


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
    return _build_sequence(geo)(k, args.t_sep, args.t_pause), params


def _environment(args) -> tuple[Species, GravityEnv, InitialConditions, dict]:
    species = Species(args.mass)
    env = GravityEnv(args.g)
    ics = InitialConditions(args.z0, args.v0)
    return species, env, ics, {"mass": args.mass, "g": args.g, "z0": args.z0, "v0": args.v0}


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


def _write(
    command: str, params: dict, output_format: str, stamp: str | None, payloads: dict, output
) -> None:
    """Write one output: its run manifest, then the payload of the manifest's format.

    payloads maps each format the command offers to its payload: the JSON
    fields beside the manifest, or the text or CSV lines after it.
    """
    manifest = RunManifest(command, params, output_format, stamp)
    payload = payloads[output_format]
    if output_format == "json":
        lines = [json.dumps({"manifest": manifest.as_dict(), **payload}, indent=2) + "\n"]
    else:
        lines = itertools.chain((f"{line}\n" for line in manifest.header_lines()), payload)
    _emit_lines(lines, output)


def _table(entries: dict) -> str:
    """One 'name  value' line per entry, the names padded to the longest."""
    width = max(map(len, entries))
    return "\n".join(f"{name:<{width}}  {value}" for name, value in entries.items())


def _csv(columns: list[str], lines: Iterable[str]) -> Iterable[str]:
    """The column line, then the row lines as they come."""
    return itertools.chain([",".join(columns) + "\n"], lines)


def _csv_line(row: Iterable[float]) -> str:
    return ",".join(_fmt(x) for x in row) + "\n"


def cmd_simulate(args) -> tuple[int, dict, dict]:
    if args.dump_trajectory is None and args.dump_dt is not None:
        raise _UsageError("--dump-dt needs --dump-trajectory")
    if args.dump_trajectory is not None and args.dump_dt is None:
        raise _UsageError("--dump-trajectory needs --dump-dt")
    seq, geo_params = _resolve_sequence(args)
    species, env, ics, env_params = _environment(args)
    params = {**geo_params, **env_params}

    breakdown = total_phase(seq, species, env, ics)
    payload = {"phase": asdict(breakdown)}
    if args.omega is not None:
        params["omega"] = args.omega
        payload["beat"] = asdict(beat(seq, ClockPair(args.mass, args.omega), env, ics))

    if args.dump_trajectory is not None:
        table = trajectory_table(seq, species, env, ics, args.dump_dt)
        # Rows become lists of floats a block at a time and each line is
        # written as it is formed: the table is the only full copy held.
        rows = (row for i in range(0, len(table), 4096) for row in table[i : i + 4096].tolist())
        lines = _csv(["t", "z1", "v1", "z2", "v2", "zg"], map(_csv_line, rows))
        _write(
            "simulate --dump-trajectory", {**params, "dump_dt": args.dump_dt}, "csv", args.stamp,
            {"csv": lines}, args.dump_trajectory,
        )

    body = breakdown.as_table()
    if "beat" in payload:
        body += "\n" + _table({name: f"{_fmt(v):>23}" for name, v in payload["beat"].items()})
    # the phase columns, then the beat's; each group has its own delta_tau
    columns = [name for fields in payload.values() for name in fields]
    row = [value for fields in payload.values() for value in fields.values()]
    csv = _csv(columns, [_csv_line(row)])
    return 0, params, {"json": payload, "text": [body + "\n"], "csv": csv}


def _linspace(start: float, stop: float, steps: int) -> list[float]:
    """np.linspace(start, stop, steps).tolist() for floats, bit for bit, without numpy.

    numpy's steps: i*step + start with step = (stop - start)/(steps - 1), or
    i/(steps - 1)*delta + start when step underflows to zero, and the last
    value set to stop; a single value is 0*delta + start.
    """
    delta = stop - start
    div = steps - 1
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:
        values = [i / div * delta + start for i in range(steps)]
    else:
        values = [i * step + start for i in range(steps)]
    values[-1] = stop
    return values


def cmd_scan(args) -> tuple[int, dict, dict]:
    if args.geometry.startswith("file:"):
        raise _UsageError("scan varies builder parameters; geometry files are fixed")
    build = _build_sequence(args.geometry)
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
    if args.vary == "T":
        k, grid_params = _resolve_k(args)
        if k is None:
            raise _UsageError("scan over T needs --k or --k-in-km")
        unused = (("--T", args.t_sep),)
    else:
        if args.t_sep is None:
            raise _UsageError("scan over k needs --T")
        k, grid_params = None, {"T": args.t_sep}
        unused = (("--k", args.k), ("--k-in-km", args.k_in_km))
    # the grid sets the varied parameter, so a fixed value for it would go unused
    for flag, value in unused:
        if value is not None:
            raise _UsageError(f"{flag} cannot be combined with --vary {args.vary}")

    values = _linspace(args.start, args.stop, args.steps)
    if args.omega is None:
        columns = ["delta_tau", "recoil_phase", "gravito_recoil", "laser_phase", "total_phase"]
        degenerate = [0.0] * 5
    else:
        clock = ClockPair(args.mass, args.omega)
        columns = ["delta_tau", "envelope", "carrier_phase", "P"]
        degenerate = [0.0, 1.0, 0.0, 1.0]

    def row(value: float) -> list[float]:
        k_here, t_sep = (k, value) if args.vary == "T" else (value, args.t_sep)
        # A zero parameter is the degenerate corner of the sweep: no kicks and
        # no dephasing, and the builders reject it.
        if k_here == 0.0 or t_sep == 0.0:
            return [value, *degenerate]
        seq = build(k_here, t_sep, args.t_pause)
        if args.omega is None:
            b = total_phase(seq, species, env, ics)
            return [
                value, b.delta_tau, b.recoil_phase, b.gravito_recoil, b.laser_phase, b.total_phase
            ]
        b = beat(seq, clock, env, ics)
        return [value, b.delta_tau, b.envelope, b.carrier_phase, b.p_combined]

    # Each row becomes its CSV line as it is formed, and nothing is written
    # before the last one: a failing row leaves stdout empty.
    lines = [_csv_line(row(value)) for value in values]

    params = {
        **grid_params, **env_params, "Tprime": args.t_pause, "geometry": args.geometry,
        "vary": args.vary, "from": args.start, "to": args.stop, "steps": args.steps,
    }
    if args.omega is not None:
        params["omega"] = args.omega
    return 0, params, {"csv": _csv([args.vary, *columns], lines)}


def cmd_check(args) -> tuple[int, dict, dict]:
    seq, geo_params = _resolve_sequence(args)
    report = asdict(closure_check(seq, Species(args.mass)))
    entries = {
        name: _fmt(v) if isinstance(v, float) else str(v).lower() for name, v in report.items()
    }
    payloads = {"json": {"closure": report}, "text": [_table(entries) + "\n"]}
    return 0 if report["closed"] else 2, {**geo_params, "mass": args.mass}, payloads


def cmd_oracle(args) -> tuple[int, dict, dict]:
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
    params = {**geo_params, **env_params, "steps": args.steps, "shape": args.shape}

    if args.sweep_sigma is not None:
        study = convergence_study(
            seq, species, env, ics, args.sweep_sigma,
            steps_per_segment=args.steps, pulse_shape=args.shape,
        )
        params["sweep_sigma"] = ",".join(repr(w) for w in study.widths)
        fit = study.fitted_exponent
        # nan (fewer than two residuals above the floor) is not JSON
        payload = {**asdict(study), "fitted_exponent": fit if math.isfinite(fit) else None}
        rows = map(_csv_line, zip(study.widths, study.residuals))
        fitted = f"# fitted_exponent = {_fmt(fit)}\n"
        # a sweep's text output is its CSV table
        table = list(_csv(["sigma", "rel_residual"], [*rows, fitted]))
        return 0, params, {"json": payload, "text": table, "csv": table}

    if args.sigma is None:
        raise _UsageError("oracle needs --sigma (or --sweep-sigma)")
    cfg = OracleConfig(pulse_width=args.sigma, steps_per_segment=args.steps, pulse_shape=args.shape)
    result = oracle_report(seq, species, env, ics, cfg)
    params.update(sigma=args.sigma, tol=tol)
    report = result.as_report()
    # one column per float field of the report; steps, shape and the
    # closure residual pair are in the manifest or not a single number
    fields = {name: v for name, v in report.items() if isinstance(v, float)}
    payloads = {
        "json": {"oracle": report},
        "text": [_table(report) + "\n"],
        "csv": _csv(list(fields), [_csv_line(fields.values())]),
    }
    return 3 if result.residual_vs_closed_form > tol else 0, params, payloads


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # one run, one stamp in every manifest it writes
        args.stamp = datetime.now(timezone.utc).isoformat() if args.stamp else None
        # each command gives its exit code, manifest parameters and payloads
        code, params, payloads = args.func(args)
        _write(args.subcommand, params, args.format, args.stamp, payloads, args.output)
        return code
    except GeometryParseError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 1
    except OracleConfigError as exc:
        print(f"oracle config error: {exc}", file=sys.stderr)
        return 1
    except OpenSequenceError as exc:
        print(f"open geometry: {exc}", file=sys.stderr)
        return 2
    except (
        OracleAccuracyError, InternalConsistencyError, NonFiniteResultError, OverflowError
    ) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
