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

Each output is one run manifest plus one payload, written by _write, which
holds the manifest's format: '#'-prefixed key = value lines then the
payload lines in text and CSV, a "manifest" object next to the payload
fields in JSON.  Outputs are byte-identical for identical invocations;
--stamp opts into a timestamp line in the manifest, taken once per run, so
the --dump-trajectory file shares it.  Numeric flags are SI; --k-in-km
gives the wave number as a multiple of K_MAGIC = 1.5e7 /m and the manifest
records the resolved SI value.  Each run reads one set of flags, and its
manifest records exactly that set.  The geometry decides the builder flags:
mzi and rbi-double read --k and --T, rbi-sym and rbi-asym also --Tprime, a
file:<path> none, and scan takes no file.  The mode then removes flags:
`scan --vary X` X's flag, --sweep-sigma --sigma and --tol, and --dump-dt
is read only with --dump-trajectory.  A given flag outside the set, or a
missing one that the set needs, exits 1 before anything is computed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Iterable

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

# Each builder with the parameters it reads, in the order it takes them.
_BUILDERS = {
    "mzi": (build_mzi, ("k", "T")),
    "rbi-sym": (build_rbi_symmetric, ("k", "T", "Tprime")),
    "rbi-asym": (build_rbi_asymmetric, ("k", "T", "Tprime")),
    "rbi-double": (build_rbi_double_loop, ("k", "T")),
}
# A read parameter whose flag is not given takes its default here, or is
# refused with its message here.  Every other flag is required or has a
# default in argparse, or selects a mode by being given (--omega,
# --sweep-sigma, --dump-trajectory).
_DEFAULTS = {"Tprime": 0.0, "tol": 1e-6}
_NEEDS = {
    "k": "geometry {geometry!r} needs --k or --k-in-km",
    "T": "geometry {geometry!r} needs --T",
    "sigma": "oracle needs --sigma (or --sweep-sigma)",
    "dump_dt": "--dump-trajectory needs --dump-dt",
}
# argparse destinations that say where and how to write, not what to compute
_NOT_PARAMETERS = ("subcommand", "func", "format", "output", "stamp", "dump_trajectory")
# Grid points one scan may ask for, checked before the grid is allocated.
# The rows are formed one at a time and each is held as its CSV line until
# the last one is in.  Peak RSS of `scan --geometry rbi-double --omega 1e15`
# (x86-64, Python 3.11, numpy 2.4): 30 MB at one row, 52 MB at 1e5 rows and
# 246 MB at this budget.
MAX_SCAN_ROWS = 1_000_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent: it would take -5e-05 for an option
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str) -> None:  # argparse would exit(2) here
        raise _UsageError(message)


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--geometry",
        required=True,
        help="mzi or rbi-double (read --k and --T), rbi-sym or rbi-asym (read --k, --T and "
        "--Tprime), or file:<path> (reads no builder flag; not for scan)",
    )
    p.add_argument("--k", type=float, help="wave number transfer (1/m)")
    p.add_argument(
        "--k-in-km", type=float, help=f"wave number as a multiple of {constants.K_MAGIC:g} /m"
    )
    p.add_argument("--T", type=float, help="pulse separation (s)")
    p.add_argument(
        "--Tprime", type=float, help="pause (s), read by rbi-sym and rbi-asym only; default 0"
    )


def _add_environment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mass", type=float, required=True, help="rest mass (kg)")
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
    _add_environment_flags(sim)
    sim.add_argument("--omega", type=float, default=None, help="clock splitting (rad/s); enables beat output")
    sim.add_argument("--dump-trajectory", help="write t,z1,v1,z2,v2,zg CSV here")
    sim.add_argument("--dump-dt", type=float, help="sampling step for the dump (s)")
    _add_output_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    scan = sub.add_parser("scan", help="sweep T or k, one CSV row per grid point")
    _add_geometry_flags(scan)
    _add_environment_flags(scan)
    scan.add_argument("--omega", type=float, default=None, help="clock splitting (rad/s); beat columns")
    scan.add_argument("--vary", choices=("T", "k"), required=True)
    scan.add_argument("--from", type=float, required=True)
    scan.add_argument("--to", type=float, required=True)
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
    _add_environment_flags(orc)
    orc.add_argument("--sigma", type=float, default=None, help="pulse width (s)")
    orc.add_argument("--shape", choices=("tophat", "cosine"), default="tophat")
    orc.add_argument(
        "--tol", type=float, default=None,
        help="relative residual limit, default 1e-6 (exit 3 above it; single width only)",
    )
    orc.add_argument(
        "--sweep-sigma",
        type=float,
        nargs="+",
        default=None,
        help="decreasing widths for a convergence study",
    )
    _add_output_flags(orc, formats=("text", "json", "csv"))
    orc.set_defaults(func=cmd_oracle)

    return parser


def _read(args) -> dict:
    """The run's parameters: each flag of its read set, given or defaulted.

    The geometry decides the builder flags, then the mode removes flags.  A
    given flag outside the set, or a missing one that the set needs, is
    refused before anything is computed.
    """
    command, geo = args.subcommand, args.geometry
    values = {n: v for n, v in vars(args).items() if v is not None and n not in _NOT_PARAMETERS}
    if geo in _BUILDERS:
        reads = _BUILDERS[geo][1]
    elif geo.startswith("file:") and command != "scan":
        reads = ()
    else:
        kinds = [*_BUILDERS] if command == "scan" else [*_BUILDERS, "file:<path>"]
        raise _UsageError(
            f"unknown geometry {geo!r}; expected one of {', '.join(kinds[:-1])} or {kinds[-1]}"
        )
    # each parameter that the run does not read, with what leaves it unread
    unread = dict.fromkeys({"k", "T", "Tprime"}.difference(reads), f"with geometry {geo!r}")
    if command == "scan":
        unread[args.vary] = f"with --vary {args.vary}"
    if "sweep_sigma" in values:
        unread.update(sigma="with --sweep-sigma", tol="with --sweep-sigma")
    if getattr(args, "dump_trajectory", None) is None:
        unread["dump_dt"] = "without --dump-trajectory"
    for name in values:
        context = unread.get("k" if name == "k_in_km" else name)
        if context is not None:
            raise _UsageError(f"--{name.replace('_', '-')} is not read {context}")
    if "k_in_km" in values:
        if "k" in values:
            raise _UsageError("--k and --k-in-km are mutually exclusive")
        values["k"] = values["k_in_km"] * constants.K_MAGIC
    offered = vars(args).keys() - unread.keys()
    for name, message in _NEEDS.items():
        if name in offered and name not in values:
            raise _UsageError(message.format(geometry=geo))
    return {**{n: v for n, v in _DEFAULTS.items() if n in offered}, **values}


def _sequence(params: dict) -> PulseSequence:
    """The run's sequence: built from its parameters, or parsed from its file."""
    geo = params["geometry"]
    if geo in _BUILDERS:
        build, reads = _BUILDERS[geo]
        return build(*(params[name] for name in reads))
    path = geo[len("file:") :]
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise _UsageError(f"cannot read geometry file {path!r}: {exc}") from exc
    return parse_geometry(text)


def _environment(params: dict) -> tuple[Species, GravityEnv, InitialConditions]:
    ics = InitialConditions(params["z0"], params["v0"])
    return Species(params["mass"]), GravityEnv(params["g"]), ics


def _write(
    command: str, params: dict, output_format: str, stamp: str | None, payloads: dict, output
) -> None:
    """Write one output: its run manifest, then the payload of the manifest's format.

    The manifest is command, version, format, deterministic (no stamp), the
    parameters by name (a list as its comma-joined reprs) and any stamp: the
    "manifest" object beside the JSON payload fields, or '# key = value' and
    '# parameter.<name> = value' lines before the text and CSV payload lines,
    written as they come.  payloads maps each format offered to its payload.
    """
    manifest = {
        "command": command,
        "version": __version__,
        "format": output_format,
        "deterministic": stamp is None,
        "parameters": {
            name: ",".join(map(repr, v)) if isinstance(v, list) else v
            for name, v in sorted(params.items())
        },
    }
    if stamp is not None:
        manifest["stamp"] = stamp
    payload = payloads[output_format]
    if output_format == "json":
        lines = [json.dumps({"manifest": manifest, **payload}, indent=2) + "\n"]
    else:
        header = []
        for key, value in manifest.items():
            if key == "parameters":
                header += [f"# parameter.{name} = {v}\n" for name, v in value.items()]
            else:  # deterministic is spelled as in JSON: true or false
                header.append(f"# {key} = {json.dumps(value) if key == 'deterministic' else value}\n")
        lines = itertools.chain(header, payload)
    if output is None:
        sys.stdout.writelines(lines)
        return
    try:
        with open(output, "w", encoding="utf-8") as f:
            f.writelines(lines)
    except OSError as exc:
        raise _UsageError(f"cannot write {output!r}: {exc}") from exc


def _table(entries: dict) -> str:
    """One 'name  value' line per entry, the names padded to the longest."""
    width = max(map(len, entries))
    return "\n".join(f"{name:<{width}}  {value}" for name, value in entries.items())


def _csv(columns: list[str], lines: Iterable[str]) -> Iterable[str]:
    """The column line, then the row lines as they come."""
    return itertools.chain([",".join(columns) + "\n"], lines)


def _csv_line(row: Iterable[float]) -> str:
    return ",".join(map(_fmt, row)) + "\n"


def cmd_simulate(args, params: dict) -> tuple[int, dict]:
    seq = _sequence(params)
    species, env, ics = _environment(params)
    breakdown = total_phase(seq, species, env, ics)
    payload = {"phase": asdict(breakdown)}
    if "omega" in params:
        payload["beat"] = asdict(beat(seq, ClockPair(params["mass"], params["omega"]), env, ics))

    if args.dump_trajectory is not None:
        rows = trajectory_table(seq, species, env, ics, params["dump_dt"])
        lines = _csv(["t", "z1", "v1", "z2", "v2", "zg"], map(_csv_line, rows))
        _write(
            "simulate --dump-trajectory", params, "csv", args.stamp, {"csv": lines},
            args.dump_trajectory,
        )

    body = breakdown.as_table()
    if "beat" in payload:
        body += "\n" + _table({name: f"{_fmt(v):>23}" for name, v in payload["beat"].items()})
    # the phase columns, then the beat's; each group has its own delta_tau
    columns = [name for fields in payload.values() for name in fields]
    row = [value for fields in payload.values() for value in fields.values()]
    csv = _csv(columns, [_csv_line(row)])
    return 0, {"json": payload, "text": [body + "\n"], "csv": csv}


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


def cmd_scan(args, params: dict) -> tuple[int, dict]:
    build, reads = _BUILDERS[params["geometry"]]  # _read refused every other geometry
    vary, start, stop, steps = params["vary"], params["from"], params["to"], params["steps"]
    if steps < 1:
        raise _UsageError(f"empty scan range: --steps {steps}")
    if steps > MAX_SCAN_ROWS:
        raise _UsageError(f"--steps {steps} exceeds the scan row budget of {MAX_SCAN_ROWS}")
    for flag, value in (("--from", start), ("--to", stop)):
        if not math.isfinite(value):
            raise _UsageError(f"{flag} must be finite, got {value!r}")
    if stop < start:
        raise _UsageError(f"empty scan range: --from {start} exceeds --to {stop}")
    species, env, ics = _environment(params)

    values = _linspace(start, stop, steps)
    if "omega" not in params:
        columns = ["delta_tau", "recoil_phase", "gravito_recoil", "laser_phase", "total_phase"]
        degenerate = [0.0] * 5
    else:
        clock = ClockPair(params["mass"], params["omega"])
        columns = ["delta_tau", "envelope", "carrier_phase", "P"]
        degenerate = [0.0, 1.0, 0.0, 1.0]

    def row(value: float) -> list[float]:
        point = {**params, vary: value}
        # A zero parameter is the degenerate corner of the sweep: no kicks and
        # no dephasing, and the builders reject it.
        if point["k"] == 0.0 or point["T"] == 0.0:
            return [value, *degenerate]
        seq = build(*(point[name] for name in reads))
        if "omega" not in params:
            b = total_phase(seq, species, env, ics)
            return [
                value, b.delta_tau, b.recoil_phase, b.gravito_recoil, b.laser_phase, b.total_phase
            ]
        b = beat(seq, clock, env, ics)
        return [value, b.delta_tau, b.envelope, b.carrier_phase, b.p_combined]

    # Each row becomes its CSV line as it is formed, and nothing is written
    # before the last one: a failing row leaves stdout empty.
    lines = [_csv_line(row(value)) for value in values]
    return 0, {"csv": _csv([vary, *columns], lines)}


def cmd_check(args, params: dict) -> tuple[int, dict]:
    report = asdict(closure_check(_sequence(params), Species(params["mass"])))
    entries = {
        name: _fmt(v) if isinstance(v, float) else str(v).lower() for name, v in report.items()
    }
    payloads = {"json": {"closure": report}, "text": [_table(entries) + "\n"]}
    return 0 if report["closed"] else 2, payloads


def cmd_oracle(args, params: dict) -> tuple[int, dict]:
    from .oracle import OracleConfig, convergence_study, oracle_report

    # nan would pass every `residual > tol` test and never exit 3
    if not params.get("tol", 0.0) >= 0.0:
        raise _UsageError(f"--tol must be a non-negative number, got {params['tol']!r}")
    seq = _sequence(params)
    species, env, ics = _environment(params)

    if "sweep_sigma" in params:
        study = convergence_study(
            seq, species, env, ics, params["sweep_sigma"], pulse_shape=params["shape"]
        )
        fit = study.fitted_exponent
        # nan (fewer than two residuals above the floor) is not JSON
        payload = {**asdict(study), "fitted_exponent": fit if math.isfinite(fit) else None}
        rows = map(_csv_line, zip(study.widths, study.residuals))
        fitted = f"# fitted_exponent = {_fmt(fit)}\n"
        # a sweep's text output is its CSV table
        table = list(_csv(["sigma", "rel_residual"], [*rows, fitted]))
        return 0, {"json": payload, "text": table, "csv": table}

    cfg = OracleConfig(pulse_width=params["sigma"], pulse_shape=params["shape"])
    result = oracle_report(seq, species, env, ics, cfg)
    report = result.as_report()
    # one column per float field of the report; the shape and the closure
    # residual pair are in the manifest or not a single number
    fields = {name: v for name, v in report.items() if isinstance(v, float)}
    payloads = {
        "json": {"oracle": report},
        "text": [_table(report) + "\n"],
        "csv": _csv(list(fields), [_csv_line(fields.values())]),
    }
    return 3 if result.residual_vs_closed_form > params["tol"] else 0, payloads


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # what the run reads is what its manifest records
        params = _read(args)
        # one run, one stamp in every manifest it writes
        args.stamp = datetime.now(timezone.utc).isoformat() if args.stamp else None
        # each command gives its exit code and payloads
        code, payloads = args.func(args, params)
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
