import dataclasses

import numpy as np
import pytest
import scipy.linalg

from adiabatic_lab.adcheck import (
    _coupling,
    ModelKit,
    c_ar,
    c_tong,
    c_trad,
    c_wu,
    hdot_samples,
    min_gap_noninertial,
    nmr_rotating,
    nmr_rotating_frame,
    oscillating,
    oscillating_noninertial,
    scan_min_gap,
    theorem1_check,
    theorem2_check,
)
from adiabatic_lab.dynamics import Schedule, evolve_unitary, nmr_closed_form_p0
from adiabatic_lab.opalg import SIGMA_X, SIGMA_Y, SIGMA_Z
from oracles import frame_per_node, nmr_lab_schedule, same_bits

W0 = 2 * np.pi * 1.0e4
THETA = 0.03
TAU = 1.0e-3
W1 = W0 * np.tan(THETA)


def nmr_kit(r, n_points=2001):
    return nmr_rotating(W0, W1, r * W0, TAU, n_points=n_points)


# ---------------------------------------------------------------------------
# closed forms of the rotating-drive model


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 3.0])
def test_nmr_c_trad_closed_form(r):
    kit = nmr_kit(r)
    want = 0.5 * abs(r * np.sin(THETA) * np.cos(THETA))
    assert c_trad(kit.frame, hdot_samples(kit)) == pytest.approx(want, rel=1e-4)


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 3.0])
def test_nmr_c_wu_closed_form(r):
    kit = nmr_kit(r, n_points=801)
    want = (
        r * np.sin(THETA) * np.cos(THETA)
        / (2.0 * np.sqrt(1.0 + r**2 * np.cos(THETA) ** 4))
    )
    assert c_wu(kit.frame) == pytest.approx(want, rel=1e-4)


def test_nmr_c_tong_part_a_is_c_trad():
    """Part (a) of c_tong, the largest |<E_m|dH/dt|E_n> / (E_m - E_n)^2|, is
    the traditional condition, and c_tong is at least part (a)."""
    kit = nmr_kit(1.5, n_points=801)
    hdot = hdot_samples(kit)
    part_a = float(np.max(np.abs(_coupling(kit.frame, hdot))))
    assert part_a == pytest.approx(c_trad(kit.frame, hdot), rel=1e-10)
    assert c_tong(kit.frame, hdot) >= part_a


def test_c_ar_scales_with_tau_squared():
    k1 = nmr_rotating(W0, W1, 0.5 * W0, TAU, n_points=801)
    k2 = nmr_rotating(W0, W1, 0.5 * W0, 2 * TAU, n_points=801)
    v1 = c_ar(k1.frame, hdot_samples(k1))
    v2 = c_ar(k2.frame, hdot_samples(k2))
    # dH/dt is tau independent in physical time, so the bound grows as tau^2
    assert v2 / v1 == pytest.approx(4.0, rel=1e-3)


def test_c_ar_custom_gap_profile():
    """c_ar reads its gap from the frame's energies; hand-built frames set
    the gap profile."""
    kit = nmr_kit(0.5, n_points=801)
    hdot = hdot_samples(kit)
    base = c_ar(kit.frame, hdot)
    halved_frame = dataclasses.replace(kit.frame, energies=0.5 * kit.frame.energies)
    halved = c_ar(halved_frame, hdot)
    # the curvature term |H'||H''|/gap^3 dominates this model, so halving
    # the gap multiplies the bound by 8
    assert halved == pytest.approx(8.0 * base, rel=1e-9)
    closed_frame = dataclasses.replace(kit.frame, energies=np.zeros_like(kit.frame.energies))
    with pytest.raises(ValueError, match="positive"):
        c_ar(closed_frame, hdot)


# ---------------------------------------------------------------------------
# oscillating-drive model


def test_oscillating_energies_closed_form():
    r = 0.7
    kit = oscillating(W0, THETA, r * W0, TAU, n_points=801)
    t = kit.frame.grid * TAU
    x = np.tan(THETA) * np.sin(r * W0 * t)
    want = 0.5 * W0 * np.sqrt(1.0 + x * x)
    assert np.max(np.abs(kit.frame.energies[:, 1] - want)) < 1e-8 * W0


def test_noninertial_energies_closed_form():
    r = 0.6
    kit = oscillating_noninertial(W0, THETA, r * W0, TAU, n_points=801)
    t = kit.frame.grid * TAU
    want = 0.5 * W0 * np.sqrt((1 - r) ** 2 + np.tan(THETA) ** 2 * np.sin(r * W0 * t) ** 2)
    assert np.max(np.abs(kit.frame.energies[:, 1] - want)) < 1e-8 * W0


def test_noninertial_refuses_resonance():
    with pytest.raises(ValueError, match="resonant"):
        oscillating_noninertial(W0, THETA, W0, TAU)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
def test_min_gap_closed_form(r):
    """Direct scan of the transformed spectrum against omega0 |1 - r|."""
    want = min_gap_noninertial(W0, r)
    if r == 1.0:
        # the transformed schedule itself, probed by scan (frames refuse it)
        tt = np.tan(THETA)

        def sampler(s):
            t = s * TAU
            amp = 0.5 * W0 * tt * np.sin(r * W0 * t)
            return amp * np.array(
                [[0, np.exp(1j * r * W0 * t)], [np.exp(-1j * r * W0 * t), 0]]
            )

        got = scan_min_gap(Schedule(TAU, sampler), n_points=4001)
        assert got == pytest.approx(0.0, abs=1e-6 * W0)
        assert want == 0.0
    else:
        kit = oscillating_noninertial(W0, THETA, r * W0, TAU, n_points=2001)
        got = 2.0 * np.min(kit.frame.energies[:, 1])
        assert got == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# frame-equivalence checks


def test_theorem1_oscillating_verdicts():
    ok = theorem1_check(oscillating(W0, THETA, 0.1 * W0, TAU, n_points=801))
    assert ok["satisfied"] and ok["max_deviation"] < 0.02
    bad = theorem1_check(oscillating(W0, THETA, W0, TAU, n_points=801))
    assert not bad["satisfied"] and bad["max_deviation"] > 0.1


def test_theorem2_nmr_verdicts():
    ok = theorem2_check(nmr_kit(0.1, n_points=801))
    assert ok["satisfied"] and ok["max_deviation"] < 0.02
    bad = theorem2_check(nmr_kit(1.0, n_points=801))
    assert not bad["satisfied"] and bad["max_deviation"] > 0.1


def test_theorem2_verdict_matches_integration():
    """The propagator-based drift equals the integrated population drift."""
    for r in (0.1, 1.0):
        kit = nmr_kit(r, n_points=801)
        res = theorem2_check(kit)
        traj = evolve_unitary(kit.schedule, kit.frame.vectors[0][:, 0], 4000)
        p_trans = np.abs(
            np.array(
                [
                    np.vdot(kit.frame.vectors[-1][:, 1], traj.final),
                ]
            )
        ) ** 2
        # adiabatic <=> negligible final transition probability
        assert (p_trans[0] < 0.02**2) == res["satisfied"]


def test_theorem2_rejects_drifting_transformed_hamiltonian():
    kit = oscillating(W0, THETA, 0.5 * W0, TAU, n_points=801)
    with pytest.raises(ValueError, match="not constant"):
        theorem2_check(kit)


def test_theorem_checks_need_frame_map():
    """A kit without a frame map, or with a map but not its derivative, is
    refused by both checks."""
    no_map = nmr_rotating_frame(W0, W1, 0.5 * W0, TAU, n_points=801)
    no_dot = dataclasses.replace(nmr_kit(0.5, n_points=401), frame_map_dot=None)
    for kit in (no_map, no_dot):
        with pytest.raises(ValueError, match="^model has no frame map with its derivative$"):
            theorem1_check(kit)
        with pytest.raises(ValueError, match="^model has no frame map with its derivative$"):
            theorem2_check(kit)


def test_rotating_frame_companion_is_static_and_resonance_guarded():
    kit = nmr_rotating_frame(W0, W1, 0.5 * W0, TAU, n_points=801)
    h0 = np.asarray(kit.schedule.at(0.0))
    h1 = np.asarray(kit.schedule.at(0.9))
    assert np.max(np.abs(h0 - h1)) == 0.0
    with pytest.raises(ValueError, match="resonance"):
        nmr_rotating_frame(W0, 0.0, W0, TAU)


def test_survival_probability_closed_form_vs_integration():
    """Bare-state survival under the rotating drive, five drive ratios."""
    for r in (0.1, 0.5, 1.0, 2.0, 3.0):
        w = r * W0
        tau = TAU

        def sampler(s, w=w):
            t = s * tau
            return 0.5 * W0 * np.array(
                [
                    [1.0, np.tan(THETA) * np.exp(-1j * w * t)],
                    [np.tan(THETA) * np.exp(1j * w * t), -1.0],
                ]
            )

        traj = evolve_unitary(Schedule(tau, sampler), np.array([1.0, 0.0]), 1000)
        got = np.abs(traj.states[:, 0]) ** 2
        want = nmr_closed_form_p0(W0, W1, w, traj.times)
        assert np.max(np.abs(got - want)) < 1e-6


# ---------------------------------------------------------------------------
# the scalar closures the array-native kits replaced, kept as the
# bit-for-bit reference: frames node by node as frame_from_functions built
# them (s an np.float64 grid point), samples as Schedule.at took them (s a
# Python float)


def _reference_nmr_rotating(omega0, omega1, omega, tau, n_points):
    theta = np.arctan2(omega1, omega0)
    half, sec = 0.5 * theta, 1.0 / np.cos(theta)
    e_split = 0.5 * omega0 * sec

    def energy_fn(s):
        return np.array([-e_split, e_split])

    def vector_fn(s):
        ph = np.exp(-1j * omega * s * tau)
        return np.array([[-ph * np.sin(half), ph * np.cos(half)], [np.cos(half), np.sin(half)]])

    def dvector_fn(s):
        ph = np.exp(-1j * omega * s * tau)
        return np.array(
            [[1j * omega * ph * np.sin(half), -1j * omega * ph * np.cos(half)], [0.0, 0.0]]
        )

    sampler = nmr_lab_schedule(omega0, omega1, omega, tau).sampler
    return sampler, frame_per_node(tau, n_points, energy_fn, vector_fn, dvector_fn)


def _reference_nmr_rotating_frame(omega0, omega1, omega, tau, n_points):
    detuning = omega0 - omega
    split = 0.5 * np.hypot(detuning, omega1)
    mix = 0.5 * np.arctan2(omega1, detuning)
    ham = 0.5 * detuning * SIGMA_Z + 0.5 * omega1 * SIGMA_X
    vecs = np.array([[-np.sin(mix), np.cos(mix)], [np.cos(mix), np.sin(mix)]], dtype=complex)
    frame = frame_per_node(
        tau,
        n_points,
        lambda s: np.array([-split, split]),
        lambda s: vecs,
        lambda s: np.zeros((2, 2), dtype=complex),
    )
    return (lambda s: ham), frame


def _reference_oscillating(omega0, theta, omega, tau, n_points):
    tt = np.tan(theta)

    def sampler(s):
        x = tt * np.sin(omega * s * tau)
        return 0.5 * omega0 * (SIGMA_Z + x * SIGMA_X)

    def energy_fn(s):
        x = tt * np.sin(omega * s * tau)
        e = 0.5 * omega0 * np.sqrt(1.0 + x * x)
        return np.array([-e, e])

    def mixing(s):
        return np.arctan2(tt * np.sin(omega * s * tau), 1.0)

    def vector_fn(s):
        half = 0.5 * mixing(s)
        return np.array(
            [[-np.sin(half), np.cos(half)], [np.cos(half), np.sin(half)]], dtype=complex
        )

    def dvector_fn(s):
        t = s * tau
        x = tt * np.sin(omega * t)
        dmix_dt = tt * omega * np.cos(omega * t) / (1.0 + x * x)
        half = 0.5 * mixing(s)
        return 0.5 * dmix_dt * np.array(
            [[-np.cos(half), -np.sin(half)], [-np.sin(half), np.cos(half)]], dtype=complex
        )

    return sampler, frame_per_node(tau, n_points, energy_fn, vector_fn, dvector_fn)


def _reference_oscillating_noninertial(omega0, theta, omega, tau, n_points):
    tt = np.tan(theta)
    detuning = omega0 - omega

    def sampler(s):
        t = s * tau
        amp = 0.5 * omega0 * tt * np.sin(omega * t)
        return 0.5 * detuning * SIGMA_Z + amp * (
            np.cos(omega * t) * SIGMA_X - np.sin(omega * t) * SIGMA_Y
        )

    def bloch(s):
        t = s * tau
        amp = 0.5 * omega0 * tt * np.sin(omega * t)
        return np.array([amp * np.cos(omega * t), -amp * np.sin(omega * t), 0.5 * detuning])

    def energy_fn(s):
        r = np.linalg.norm(bloch(s))
        return np.array([-r, r])

    if detuning > 0:

        def vector_fn(s):
            h = bloch(s)
            r = np.linalg.norm(h)
            c = np.sqrt(0.5 * (1.0 + h[2] / r))
            w = (h[0] + 1j * h[1]) / (2.0 * r * c)
            return np.array([[-np.conj(w), c], [c, w]])

    else:

        def vector_fn(s):
            h = bloch(s)
            r = np.linalg.norm(h)
            sn = np.sqrt(0.5 * (1.0 - h[2] / r))
            u = (h[0] - 1j * h[1]) / (2.0 * r * sn)
            return np.array([[-sn, u], [np.conj(u), sn]])

    return sampler, frame_per_node(tau, n_points, energy_fn, vector_fn)


@pytest.mark.parametrize("n_points", [101, 301])
@pytest.mark.parametrize("r", [0.0, 0.25, 2.75])
@pytest.mark.parametrize(
    "kit_fn, reference_fn, drive",
    [
        (nmr_rotating, _reference_nmr_rotating, W1),
        (nmr_rotating_frame, _reference_nmr_rotating_frame, W1),
        (oscillating, _reference_oscillating, THETA),
        (oscillating_noninertial, _reference_oscillating_noninertial, THETA),
    ],
    ids=["nmr", "nmr-rotating-frame", "oscillating", "noninertial"],
)
def test_kits_match_their_scalar_closures(kit_fn, reference_fn, drive, r, n_points):
    kit = kit_fn(W0, drive, r * W0, TAU, n_points=n_points)
    sampler, frame = reference_fn(W0, drive, r * W0, TAU, n_points)
    grid = kit.frame.grid
    want = np.array([np.asarray(sampler(s), dtype=complex) for s in grid.tolist()])
    assert same_bits(kit.schedule.sample(grid), want)
    for name in ("energies", "vectors", "dvectors"):
        assert same_bits(getattr(kit.frame, name), getattr(frame, name)), name


def _expm_z_rotation(omega, tau):
    """The per-node scipy expm z rotation that the closed-form kit maps
    replaced, stacked over an array of s."""

    def frame_map(s):
        return np.array([scipy.linalg.expm(0.5j * omega * x * tau * SIGMA_Z) for x in s.tolist()])

    def frame_map_dot(s):
        return np.array([(0.5j * omega * SIGMA_Z) @ scipy.linalg.expm(0.5j * omega * x * tau * SIGMA_Z)
                         for x in s.tolist()])

    return frame_map, frame_map_dot


@pytest.mark.parametrize("r", [0.0, 0.1, 0.25, 1.0, 2.75])
def test_closed_form_frame_map_matches_expm(r):
    """The closed-form z rotation equals per-node expm under np.array_equal
    (the bytes differ only in the signs of zeros), and the theorem checks
    give the same bits with either map."""
    for kit, check in (
        (oscillating(W0, THETA, r * W0, TAU, n_points=401), theorem1_check),
        (nmr_kit(r, n_points=401), theorem1_check),
        (nmr_kit(r, n_points=401), theorem2_check),
    ):
        expm_kit = ModelKit(kit.schedule, kit.frame, *_expm_z_rotation(r * W0, TAU))
        grid = kit.frame.grid
        assert np.array_equal(kit.frame_map(grid), expm_kit.frame_map(grid))
        assert np.array_equal(kit.frame_map_dot(grid), expm_kit.frame_map_dot(grid))
        got, want = check(kit), check(expm_kit)
        assert set(got) == set(want)
        for key in want:
            assert same_bits(got[key], want[key]), key
