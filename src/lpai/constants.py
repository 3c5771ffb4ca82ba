"""Physical constants (CODATA 2018) shared across the package.

Functions read ``C`` and ``HBAR`` through this module at call time, so a test
can monkeypatch ``lpai.constants.C`` / ``lpai.constants.HBAR`` to run in
rescaled units.  Production code never overrides them.
"""

C: float = 299792458.0  # speed of light in vacuum, m/s, exact by SI definition
HBAR: float = 1.054571817e-34  # reduced Planck constant, J s

# Reference two-photon wave number for magic-wavelength lattice clocks; the
# CLI flag --k-in-km expresses momentum transfer as a multiple of this value.
K_MAGIC: float = 1.5e7  # 1/m
