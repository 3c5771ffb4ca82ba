"""Exception types shared across the package.

The CLI maps these onto exit codes: usage and parse problems exit 1, an open
(non-interfering) geometry exits 2, numeric failures (accuracy, consistency
and non-finite results) exit 3.
"""

from __future__ import annotations


class GeometryParseError(ValueError):
    """Malformed geometry file.

    ``rule`` is a short machine-checkable category: "syntax",
    "non-finite number", "non-monotone times", "duplicate directive" or a
    sequence-validation rule name.  ``line`` and ``column`` are 1-based.
    """

    def __init__(self, message: str, *, line: int, column: int, rule: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.rule = rule


class OpenSequenceError(ValueError):
    """A closed-form phase was requested for a geometry that does not close."""


class OracleConfigError(ValueError):
    """Numeric-oracle configuration violates a precondition."""


class OracleAccuracyError(RuntimeError):
    """The numeric oracle failed its own accuracy self-checks."""


class InternalConsistencyError(RuntimeError):
    """Two redundant computation routes disagreed beyond tolerance."""


class NonFiniteResultError(ArithmeticError):
    """A result came out nan or infinite.

    Raised in place of returning it: a PhaseBreakdown field, delta_tau and
    the recoil phase derived from S, a beat's carrier and half-beat, or the
    oracle's kick amplitude and proper-time integrand.  A mass of 5e-324 kg,
    for one, makes hbar*S/m overflow.
    """
