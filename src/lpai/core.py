"""Core data types for branch-dependent light-pulse interferometry.

Conventions used throughout the package:

* SI units everywhere; phases in radians; actions are always divided by hbar.
* An interferometer has two branches.  Branch 1 is the "upper" arm, branch 2
  the "lower" arm, and every signed difference is branch 1 minus branch 2.
* A pulse at time ``t`` transfers momentum ``hbar*k`` to a branch and imprints
  the laser phase ``phi`` on it.  Kicks take effect immediately *after* the
  pulse time, so sampling a trajectory exactly at a pulse time returns the
  pre-kick state.
* Equal pulse times are rejected rather than merged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

from . import constants
from .errors import NonFiniteResultError


def _finite(x: float) -> bool:
    try:
        return isinstance(x, (int, float)) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _plain_floats(obj, names: tuple[str, ...]) -> None:
    """Store numpy real scalars in the named fields as Python floats.

    float() is exact for them.  Kept as numpy scalars they would fail
    _finite, and under NumPy 2 promotion np.float32 * 134217729.0 stays
    float32, which would run the Dekker splits in single precision.  No
    numpy scalar can exist before numpy is imported, so without numpy in
    sys.modules there is nothing to convert and numpy stays unloaded.
    """
    np = sys.modules.get("numpy")
    if np is None:
        return
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, (np.floating, np.integer)):
            object.__setattr__(obj, name, float(value))


@dataclass(frozen=True)
class Species:
    """A structureless atom of fixed rest mass."""

    mass: float  # kg
    label: str = ""

    def __post_init__(self) -> None:
        _plain_floats(self, ("mass",))
        if not (_finite(self.mass) and self.mass > 0.0):
            raise ValueError(f"mass must be positive and finite, got {self.mass!r}")


def compton_frequency(species: Species) -> float:
    """Rest-energy angular frequency m c^2 / hbar in rad/s."""
    return species.mass * constants.C**2 / constants.HBAR


@dataclass(frozen=True)
class ClockPair:
    """Two internal states of one atom, split in energy by hbar*splitting_omega.

    The excited state "a" and ground state "b" carry rest masses
    ``mean_mass +/- delta_m/2`` with ``delta_m = hbar*splitting_omega/c**2``.
    ``eta = 1/(1 - (delta_m/(2*mean_mass))**2)`` is the exact correction that
    relates the state-resolved phases to mean-mass quantities; it is 1.0
    exactly for a vanishing splitting.  The constructor refuses a pair whose
    rounded ``mass_b`` is not positive: both state masses are positive and finite.
    """

    mean_mass: float        # kg
    splitting_omega: float  # rad/s, >= 0
    label: str = ""

    def __post_init__(self) -> None:
        _plain_floats(self, ("mean_mass", "splitting_omega"))
        if not (_finite(self.mean_mass) and self.mean_mass > 0.0):
            raise ValueError(f"mean_mass must be positive and finite, got {self.mean_mass!r}")
        if not (_finite(self.splitting_omega) and self.splitting_omega >= 0.0):
            raise ValueError(
                f"splitting_omega must be non-negative and finite, got {self.splitting_omega!r}"
            )
        # 0.5 * delta_m can round up for a subnormal delta_m, leaving mass_b 0.0 below
        # delta_m = 2 mean_mass; delta_m <= hbar max float / c^2 ~ 2e257 kg keeps mass_a finite
        if not self.mass_b > 0.0:
            raise ValueError(
                "splitting too large: the ground-state mass would not be positive"
            )

    @property
    def delta_m(self) -> float:
        """Rest-mass difference hbar*splitting_omega/c^2 in kg."""
        return constants.HBAR * self.splitting_omega / constants.C**2

    @property
    def mass_a(self) -> float:
        """Excited-state mass, kg."""
        return self.mean_mass + 0.5 * self.delta_m

    @property
    def mass_b(self) -> float:
        """Ground-state mass, kg."""
        return self.mean_mass - 0.5 * self.delta_m

    @property
    def eta(self) -> float:
        x = self.delta_m / (2.0 * self.mean_mass)
        return 1.0 / (1.0 - x * x)

    def state_species(self, state: str) -> Species:
        if state == "a":
            return Species(self.mass_a, label=f"{self.label}|a" if self.label else "a")
        if state == "b":
            return Species(self.mass_b, label=f"{self.label}|b" if self.label else "b")
        raise ValueError(f"state must be 'a' or 'b', got {state!r}")


_PULSE_FIELDS = ("t", "k_upper", "k_lower", "phi_upper", "phi_lower")


@dataclass(frozen=True)
class Pulse:
    """One light pulse: its time, per-branch wave numbers and laser phases.

    ``k_upper``/``k_lower`` are the momentum transfers divided by hbar (1/m)
    that branch 1 / branch 2 receive; zero means the branch is not addressed.
    This is a plain container: its fields are checked when a
    :class:`PulseSequence` is built, and :func:`validate_sequence` reports
    the findings instead of raising.  Numpy scalars are stored as Python
    floats.
    """

    t: float          # s
    k_upper: float    # 1/m
    k_lower: float    # 1/m
    phi_upper: float = 0.0  # rad
    phi_lower: float = 0.0  # rad

    def __post_init__(self) -> None:
        _plain_floats(self, _PULSE_FIELDS)

    @property
    def delta_k(self) -> float:
        return self.k_upper - self.k_lower


@dataclass(frozen=True)
class PulseSequence:
    """An ordered pulse train plus the interferometer duration.

    ``duration`` defaults to the last pulse time.  ``name`` is an optional
    label carried through the geometry file format; it never affects physics.
    The constructor scans the sequence against its invariants once and keeps
    the violations outside the dataclass fields, so eq, hash, repr and asdict
    do not see them; :func:`validate_sequence` reports them.  The instance
    and its pulses are frozen, so the stored result cannot go stale, and
    ``dataclasses.replace`` builds a new instance that scans again.  An
    element of ``pulses`` without the :class:`Pulse` fields therefore fails
    here, with AttributeError.
    """

    pulses: tuple[Pulse, ...]
    duration: float | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pulses", tuple(self.pulses))
        if self.duration is None:
            last = self.pulses[-1].t if self.pulses else 0.0
            object.__setattr__(self, "duration", last)
        _plain_floats(self, ("duration",))
        object.__setattr__(self, "_violations", _scan(self))

    @property
    def n_pulses(self) -> int:
        return len(self.pulses)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(p.t for p in self.pulses)


@dataclass(frozen=True)
class Violation:
    """One validation finding: the broken rule, the pulse it names, a message."""

    rule: str
    pulse_index: int | None
    message: str


# Rules that make a sequence unusable even for bare kinematics.  "too few
# pulses" is excluded: trajectories and the numeric integrator are well
# defined for zero or one pulse, only interference needs at least two.
STRUCTURAL_RULES = ("non-finite field", "non-monotone times", "duration before last pulse")


def _scan(seq: PulseSequence) -> tuple[Violation, ...]:
    """Every violation of seq: pulses in order, then the sequence-level rules."""
    out: list[Violation] = []
    for i, p in enumerate(seq.pulses):
        for name in _PULSE_FIELDS:
            v = getattr(p, name)
            if not _finite(v):
                out.append(Violation("non-finite field", i, f"pulse {i}: {name} = {v!r}"))
        if i > 0 and _finite(p.t) and _finite(seq.pulses[i - 1].t) and p.t <= seq.pulses[i - 1].t:
            out.append(
                Violation(
                    "non-monotone times",
                    i,
                    f"pulse {i}: t = {p.t!r} does not exceed previous t = {seq.pulses[i-1].t!r}",
                )
            )
    if not _finite(seq.duration):
        out.append(Violation("non-finite field", None, f"duration = {seq.duration!r}"))
    elif seq.pulses and _finite(seq.pulses[-1].t) and seq.duration < seq.pulses[-1].t:
        out.append(
            Violation(
                "duration before last pulse",
                None,
                f"duration {seq.duration!r} < last pulse time {seq.pulses[-1].t!r}",
            )
        )
    if len(seq.pulses) < 2:
        out.append(
            Violation("too few pulses", None, f"{len(seq.pulses)} pulse(s); interference needs >= 2")
        )
    return tuple(out)


def validate_sequence(seq: PulseSequence) -> list[Violation]:
    """Report every violation of the sequence's invariants.

    Never raises; returns an empty list for a valid sequence.  The sequence
    was scanned once, when it was built (pulses in order, sequence-level
    rules afterwards); each call returns a new list of those findings, so a
    caller may change it without affecting the next call.
    """
    return list(seq._violations)


def require_valid(seq: PulseSequence, *, structural_only: bool = False) -> None:
    """Raise ValueError listing all violations; optionally skip the pulse-count rule."""
    bad = validate_sequence(seq)
    if structural_only:
        bad = [v for v in bad if v.rule in STRUCTURAL_RULES]
    if bad:
        detail = "; ".join(f"[{v.rule}] {v.message}" for v in bad)
        raise ValueError(f"invalid pulse sequence: {detail}")


@dataclass(frozen=True)
class GravityEnv:
    """Uniform gravitational environment: acceleration -g along z.

    The field is the same at every height; the closed forms and the numeric
    oracle both rest on that.
    """

    g: float  # m/s^2

    def __post_init__(self) -> None:
        _plain_floats(self, ("g",))
        if not _finite(self.g):
            raise ValueError(f"g must be finite, got {self.g!r}")


@dataclass(frozen=True)
class InitialConditions:
    """Launch position and velocity of the undiffracted trajectory at t = 0."""

    z0: float = 0.0  # m
    v0: float = 0.0  # m/s

    def __post_init__(self) -> None:
        _plain_floats(self, ("z0", "v0"))
        if not (_finite(self.z0) and _finite(self.v0)):
            raise ValueError(f"initial conditions must be finite, got ({self.z0!r}, {self.v0!r})")


@dataclass(frozen=True)
class PhaseBreakdown:
    """Interferometer phase split into its three closed-form contributions.

    ``total_phase = recoil_phase + gravito_recoil + laser_phase`` holds by
    construction (the constructor computes the sum once), with
    ``recoil_phase = compton_frequency * delta_tau``.  ``assemble`` raises
    NonFiniteResultError rather than return a nan or infinite field.
    """

    delta_tau: float       # s, proper-time difference between the branches
    recoil_phase: float    # rad
    gravito_recoil: float  # rad
    laser_phase: float     # rad
    total_phase: float     # rad

    @classmethod
    def assemble(
        cls, delta_tau: float, recoil_phase: float, gravito_recoil: float, laser_phase: float
    ) -> "PhaseBreakdown":
        total = recoil_phase + gravito_recoil + laser_phase
        out = cls(delta_tau, recoil_phase, gravito_recoil, laser_phase, total)
        # total is nan or infinite whenever one of its terms is
        if not (math.isfinite(delta_tau) and math.isfinite(total)):
            raise NonFiniteResultError(f"phase breakdown is not finite: {out}")
        return out

    def as_table(self) -> str:
        units = {
            "delta_tau": "s",
            "recoil_phase": "rad",
            "gravito_recoil": "rad",
            "laser_phase": "rad",
            "total_phase": "rad",
        }
        rows = [(name, f"{value:+.16e}", units[name]) for name, value in asdict(self).items()]
        width = max(len(name) for name, _, _ in rows)
        return "\n".join(f"{name:<{width}}  {val} {unit}" for name, val, unit in rows)
