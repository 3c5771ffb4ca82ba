"""Release gate: one test per agreed acceptance criterion.

Each test is named ``test_criterion_NN_<slug>`` so the terminal summary hook
in conftest.py can print one pass/fail line per criterion.  The checks here
deliberately overlap the unit suite: they pin the externally agreed numbers
and tolerances, nothing more.
"""

import math

import numpy as np
import pytest

from lpai import (
    ClockPair,
    GeometryParseError,
    GravityEnv,
    InitialConditions,
    OracleConfig,
    Pulse,
    PulseSequence,
    Species,
    beat,
    build_mzi,
    build_rbi_asymmetric,
    build_rbi_double_loop,
    clock_limit_phase,
    compton_frequency,
    constants,
    convergence_study,
    oracle_report,
    parse_geometry,
    proper_time_difference,
    proper_time_numeric,
    serialize_geometry,
    total_phase,
)
from lpai.cli import main as cli_main

from _helpers import float_bits, random_clock, random_closed_sequence

SR_MASS = 1.443157e-25
SR = Species(SR_MASS)
SR_CLOCK = ClockPair(mean_mass=SR_MASS, splitting_omega=2.696928e15)
REST = InitialConditions()
FLAT = GravityEnv(0.0)


def single_photon_dtau(k: float, T: float) -> float:
    """Closed-form proper-time difference of the asymmetric three-pulse loop."""
    return -((constants.HBAR * k / (SR.mass * constants.C)) ** 2) * T


def test_criterion_01_mzi_gravimeter_phase():
    for k in (1e6, 1e7, 1e8):
        for g in (0.0, 1.6, 9.81):
            for T in (0.01, 0.1, 0.5):
                seq = build_mzi(k, T)
                env = GravityEnv(g)
                breakdown = total_phase(seq, SR, env, REST)
                assert breakdown.delta_tau == 0.0

                target = -k * g * T * T
                if g == 0.0:
                    assert breakdown.total_phase == 0.0
                else:
                    assert abs(breakdown.total_phase - target) <= 1e-12 * abs(target)

                cfg = OracleConfig(pulse_width=1e-6 * T)
                report = oracle_report(seq, SR, env, REST, cfg)
                if g == 0.0:
                    recoil_scale = constants.HBAR * k * k * 2.0 * T / SR.mass
                    assert abs(report.total_phase_numeric) <= 1e-6 * recoil_scale
                else:
                    assert abs(report.total_phase_numeric - target) <= 1e-6 * abs(target)


def test_criterion_02_recoil_phase_and_pause_invariance():
    for k in (1.8e10, 1e7):
        base = proper_time_difference(build_rbi_asymmetric(k, 0.25), SR)
        for pause in (0.125, 0.25):
            padded = proper_time_difference(build_rbi_asymmetric(k, 0.25, pause), SR)
            assert float_bits(padded) == float_bits(base)
        assert base == pytest.approx(single_photon_dtau(k, 0.25), rel=1e-12)

    dtau = proper_time_difference(build_rbi_asymmetric(1.8e10, 0.325), SR)
    assert dtau == pytest.approx(single_photon_dtau(1.8e10, 0.325), rel=1e-12)

    cfg = OracleConfig(pulse_width=1e-6 * 0.325)
    report = oracle_report(build_rbi_asymmetric(1.8e10, 0.325), SR, GravityEnv(9.81), REST, cfg)
    assert report.residual_vs_closed_form <= 1e-6


def test_criterion_03_double_loop_isolates_the_recoil_phase():
    k, T = 1e7, 0.1
    seq = build_rbi_double_loop(k, T)
    breakdown = total_phase(seq, SR, GravityEnv(9.81), REST)
    target = 2.0 * single_photon_dtau(k, T) * compton_frequency(SR)
    assert abs(breakdown.total_phase - target) <= 1e-12 * abs(target)

    rng = np.random.default_rng(3)
    for _ in range(100):
        g = rng.uniform(0.5, 50.0)
        ics = InitialConditions(z0=rng.uniform(-10, 10), v0=rng.uniform(-10, 10))
        breakdown = total_phase(seq, SR, GravityEnv(g), ics)
        assert abs(breakdown.gravito_recoil) <= 1e-9 * abs(k * g * T * T)


def test_criterion_04_proper_time_ignores_gravity_and_launch():
    rng = np.random.default_rng(4)
    envs = (GravityEnv(0.0), GravityEnv(9.81), GravityEnv(50.0))
    for _ in range(100):
        seq = random_closed_sequence(rng, k_scale=1e6, with_common_mode=True)
        reference = proper_time_difference(seq, SR)
        bits = {
            float_bits(
                total_phase(
                    seq, SR, env, InitialConditions(rng.uniform(-10, 10), rng.uniform(-10, 10))
                ).delta_tau
            )
            for env in envs
        }
        assert bits == {float_bits(reference)}

        span = seq.duration
        cfg = OracleConfig(pulse_width=1e-6 * span, steps_per_segment=100)
        numeric = [
            proper_time_numeric(
                seq, SR, env, InitialConditions(rng.uniform(-10, 10), rng.uniform(-10, 10)), cfg
            )
            for env in envs
        ]
        k_max = max(max(abs(p.k_upper), abs(p.k_lower)) for p in seq.pulses)
        scale = max(abs(reference), (constants.HBAR * k_max / (SR.mass * constants.C)) ** 2 * span)
        assert max(numeric) - min(numeric) <= 1e-6 * scale
        assert abs(numeric[0] - reference) <= 1e-6 * scale


def test_criterion_05_beat_identity_and_full_dephasing():
    rng = np.random.default_rng(5)
    for _ in range(100):
        seq = random_closed_sequence(rng, with_common_mode=True, with_phases=True)
        clock = random_clock(rng)
        ics = InitialConditions(rng.uniform(-1, 1), rng.uniform(-1, 1))
        signal = beat(seq, clock, GravityEnv(9.81), ics)
        predicted = 0.5 * (1.0 + signal.envelope * math.cos(signal.carrier_phase))
        assert abs(signal.p_combined - predicted) <= 1e-12
        for p in (signal.p_a, signal.p_b, signal.p_combined):
            assert 0.0 <= p <= 1.0

    def detuning(T: float) -> float:
        dtau = proper_time_difference(build_rbi_double_loop(1.8e10, T), SR)
        return SR_CLOCK.eta * SR_CLOCK.splitting_omega * abs(dtau) - math.pi

    lo, hi = 0.1625, 0.325
    assert detuning(lo) < 0.0 < detuning(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if detuning(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t_node = 0.5 * (lo + hi)
    assert abs(detuning(t_node)) <= 1e-9 * math.pi

    signal = beat(build_rbi_double_loop(1.8e10, t_node), SR_CLOCK, FLAT, REST)
    assert abs(signal.envelope) <= 1e-9
    assert signal.p_combined == pytest.approx(0.5, abs=1e-9)


def test_criterion_06_visibility_node_location():
    full, _ = clock_limit_phase(build_rbi_double_loop(1.8e10, 0.325), SR_CLOCK)
    ratio = abs(full) / math.pi
    assert 0.9 <= ratio <= 1.1
    assert ratio == pytest.approx(1.0741, abs=2e-4)


def test_criterion_07_partial_visibility_loss():
    signal = beat(build_rbi_double_loop(8.7e9, 0.35), SR_CLOCK, FLAT, REST)
    loss = 1.0 - signal.envelope
    assert 0.07 <= loss <= 0.13
    assert loss == pytest.approx(0.088748, abs=1e-5)


def test_criterion_08_milliradian_clock_shift():
    full, _ = clock_limit_phase(build_rbi_asymmetric(1.05e9, 0.06), SR_CLOCK)
    milliradians = abs(full) * 1e3
    assert 0.9 <= milliradians <= 1.2
    assert milliradians == pytest.approx(1.05994, abs=1e-4)


def test_criterion_09_mass_ratio_scaling_of_the_beat():
    seq = build_rbi_asymmetric(1e3, 0.4)
    mean_mass = 1e-25
    for ratio in (0.01, 0.1, 0.2):
        clock = ClockPair(
            mean_mass=mean_mass,
            splitting_omega=ratio * mean_mass * constants.C**2 / constants.HBAR,
        )
        full, eta1 = clock_limit_phase(seq, clock)
        assert eta1 != 0.0
        measured = abs(full - eta1) / abs(eta1)
        assert abs(measured - (clock.eta - 1.0)) <= 1e-12


def test_criterion_10_integrator_convergence_rate():
    T = 0.325
    study = convergence_study(
        build_rbi_asymmetric(1.8e10, T),
        SR,
        GravityEnv(9.81),
        REST,
        [T * 1e-3, T * 1e-4, T * 1e-5, T * 1e-6],
    )
    assert all(a > b for a, b in zip(study.residuals, study.residuals[1:]))
    assert 1.0 <= study.fitted_exponent < 1.1


def test_criterion_11_geometry_round_trip_and_exit_codes(tmp_path, capsys):
    specials = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300)
    rng = np.random.default_rng(11)

    def wild(allow_zero=True):
        pool = specials if allow_zero else specials[2:]
        if rng.random() < 0.25:
            return float(pool[rng.integers(len(pool))])
        return math.copysign(10.0 ** rng.uniform(-300.0, 300.0), rng.random() - 0.5)

    for i in range(1000):
        n = int(rng.integers(2, 7))
        gaps = 10.0 ** rng.uniform(-3.0, 1.0, size=n)
        times = np.cumsum(gaps) - gaps[0]
        pulses = tuple(
            Pulse(float(t), wild(), wild(), wild(), wild()) for t in times
        )
        duration = float(times[-1]) + (abs(wild(allow_zero=False)) if i % 3 == 0 else 0.0)
        if not math.isfinite(duration):
            duration = float(times[-1])
        name = f"case-{i}" if i % 2 == 0 else None
        seq = PulseSequence(pulses, duration=duration, name=name)

        back = parse_geometry(serialize_geometry(seq))
        assert back.name == seq.name
        assert float_bits(back.duration) == float_bits(seq.duration)
        assert len(back.pulses) == len(seq.pulses)
        for got, want in zip(back.pulses, seq.pulses):
            for field in ("t", "k_upper", "k_lower", "phi_upper", "phi_lower"):
                assert float_bits(getattr(got, field)) == float_bits(getattr(want, field))

    malformed = [
        ("pulse 0.0 zoom 0.0\n", "syntax"),
        ("pulse 0.0 nan 0.0\n", "non-finite number"),
        ("pulse 1.0 1.0 0.0\npulse 0.5 1.0 0.0\n", "non-monotone times"),
        ("tend 1.0\ntend 2.0\n", "duplicate directive"),
        ("pulse 0.0 1.0 0.0\npulse 2.0 -1.0 0.0\ntend 1.0\n", "duration before last pulse"),
    ]
    for text, rule in malformed:
        with pytest.raises(GeometryParseError) as err:
            parse_geometry(text)
        assert err.value.rule == rule

    bad = tmp_path / "bad.geom"
    bad.write_text("pulse 0.0 zoom 0.0\n", encoding="utf-8")
    open_geom = tmp_path / "open.geom"
    open_geom.write_text("pulse 0.0 1.0 0.0\npulse 1.0 1.0 0.0\n", encoding="utf-8")

    assert cli_main(["check", "--geometry", "mzi", "--k", "1e7", "--T", "0.4"]) == 0
    assert cli_main(["simulate", "--geometry", "mzi", "--k", "1e7", "--mass", "1.443157e-25"]) == 1
    assert cli_main(["simulate", "--geometry", f"file:{bad}", "--mass", "1.443157e-25"]) == 1
    assert cli_main(["check", "--geometry", f"file:{open_geom}"]) == 2
    assert (
        cli_main(
            [
                "oracle", "--geometry", "rbi-asym", "--k", "1.8e10", "--T", "0.325",
                "--mass", "1.443157e-25", "--sigma", "3.25e-4", "--tol", "1e-12",
            ]
        )
        == 3
    )
    capsys.readouterr()
