import dataclasses
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eulerblowup.solver as solver
from eulerblowup.functionals import FieldSnapshot, initial_snapshot
from eulerblowup.model import (
    BumpProfile,
    DetectorParams,
    EosParams,
    Geometry,
    GridSpec,
    make_bump_scenario,
    signal_speed,
)
from eulerblowup.criteria import default_family, theorem_context
from eulerblowup.scenarios import PRESETS, certified_linear_tau_case, constant_scenario
from eulerblowup.solver import (
    DT_FLOOR,
    FIRST_ORDER,
    MUSCL,
    BlowupEvent,
    NegativeDensityError,
    SLOPE_THRESHOLD,
    SolverConfig,
    cfl_dt,
    detect_blowup,
    run,
    step,
)

SQRT2 = math.sqrt(2.0)
EOS = EosParams(1.0, 2.0, 1.0)


def bump(geometry, cells=256, extent=2.2, amp_rho=0.01, amp_v=0.02, detector=None):
    return make_bump_scenario(EOS, geometry, 1.0, amp_rho, amp_v, GridSpec(extent, cells), detector)


def constant_snapshot(geometry, rho=1.0, V=0.0, cells=128, extent=2.0):
    centers = GridSpec(extent, cells).centers(geometry)
    return FieldSnapshot(0.0, centers, np.full(cells, float(rho)), np.full(cells, float(V)))


class TestConfigValidation:
    def test_bad_cfl(self):
        with pytest.raises(ValueError):
            SolverConfig(cfl=0.0)
        with pytest.raises(ValueError):
            SolverConfig(cfl=1.5)

    def test_bad_reconstruction(self):
        with pytest.raises(ValueError):
            SolverConfig(reconstruction="weno5")

    def test_bad_times(self):
        with pytest.raises(ValueError):
            SolverConfig(t_end=0.0)
        with pytest.raises(ValueError):
            SolverConfig(snapshot_interval=0.0)

    @pytest.mark.parametrize("max_steps", [0, -3, 2.5, 5.0, True, False, "3", None])
    def test_bad_max_steps(self, max_steps):
        with pytest.raises(ValueError, match="max_steps"):
            SolverConfig(max_steps=max_steps)

    @pytest.mark.parametrize("max_steps", [1, 7, np.int64(4)])
    def test_integer_max_steps(self, max_steps):
        assert SolverConfig(max_steps=max_steps).max_steps == max_steps

    def test_default_reconstruction_is_second_order(self):
        assert SolverConfig().reconstruction == MUSCL


class TestCflDt:
    def test_background_wave_speed(self):
        snap = constant_snapshot(Geometry.cartesian1d())
        dt = cfl_dt(snap, EOS, cfl=0.45)
        assert dt == pytest.approx(0.45 * snap.spacing / SQRT2, rel=1e-12)

    def test_velocity_shrinks_dt(self):
        snap = constant_snapshot(Geometry.cartesian1d(), V=2.0)
        dt = cfl_dt(snap, EOS, cfl=0.45)
        assert dt == pytest.approx(0.45 * snap.spacing / (2.0 + SQRT2), rel=1e-12)

    @pytest.mark.parametrize("value, speed", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf")])
    @pytest.mark.parametrize("field", ["rho", "V"])
    @pytest.mark.parametrize("geom", [Geometry.cartesian1d(), Geometry.radial(3)], ids=lambda g: g.label())
    def test_non_finite_state_raises(self, geom, field, value, speed):
        snap = initial_snapshot(bump(geom))
        getattr(snap, field)[100] = value
        if field == "rho" and value < 0:
            speed = "nan"  # the square root of -inf
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=rf"^the largest signal speed max\(\|V\| \+ c\) of the state is {speed}$"
        ):
            cfl_dt(snap, EOS)

    def test_negative_density_without_a_real_sound_speed_raises(self):
        snap = constant_snapshot(Geometry.cartesian1d())
        snap.rho[40] = -0.05
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="is nan$"):
            cfl_dt(snap, EosParams(1.0, 1.4, 1.0))


class TestStep:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("recon", [FIRST_ORDER, MUSCL])
    @pytest.mark.parametrize("geom", [Geometry.cartesian1d(), Geometry.radial(3)], ids=lambda g: g.label())
    def test_non_finite_velocity_raises(self, geom, recon, value):
        snap = initial_snapshot(bump(geom))
        dt = cfl_dt(snap, EOS)
        snap.V[100] = value
        with pytest.raises(ValueError, match="^the velocity of the state is not finite$"):
            step(snap, EOS, geom, dt, recon)

    def test_constant_state_is_exact_fixed_point(self):
        for geom in (Geometry.cartesian1d(), Geometry.radial(3)):
            snap = constant_snapshot(geom)
            dt = cfl_dt(snap, EOS)
            for _ in range(200):
                snap = step(snap, EOS, geom, dt)
            assert np.all(snap.rho == 1.0)
            assert np.all(snap.V == 0.0)

    def test_dt_validation(self):
        snap = constant_snapshot(Geometry.cartesian1d())
        with pytest.raises(ValueError):
            step(snap, EOS, Geometry.cartesian1d(), 0.0)
        with pytest.raises(ValueError):
            step(snap, EOS, Geometry.cartesian1d(), 100.0)

    def test_strong_radial_outflow_detects_vacuum(self):
        geom = Geometry.radial(3)
        snap = constant_snapshot(geom, rho=0.01, V=5.0)
        with pytest.raises(NegativeDensityError):
            step(snap, EOS, geom, cfl_dt(snap, EOS))

    def test_far_field_ghost_moves_off_background_constant(self):
        # the far-field ghost is always (rho_bar, 0), so a constant state off
        # the background launches waves from the boundary
        geom = Geometry.cartesian1d()
        snap = constant_snapshot(geom, rho=1.2)
        moved = step(snap, EOS, geom, cfl_dt(snap, EOS))
        assert not np.all(moved.rho == 1.2)

    def test_interior_mass_is_conserved_exactly(self):
        geom = Geometry.cartesian1d()
        scen = bump(geom, cells=512)
        snap = initial_snapshot(scen)
        total0 = float(np.sum(snap.rho)) * snap.spacing
        dt = cfl_dt(snap, EOS)
        for _ in range(100):
            snap = step(snap, EOS, geom, dt, reconstruction=MUSCL)
        total = float(np.sum(snap.rho)) * snap.spacing
        assert total == pytest.approx(total0, abs=1e-13)


class TestDetector:
    def test_sharp_velocity_jump_flags_blowup(self):
        geom = Geometry.cartesian1d()
        snap = constant_snapshot(geom)
        snap.V[60:] = 1.0
        event = detect_blowup(snap, EOS, DetectorParams(slope_factor=0.2))
        assert event is not None
        assert event.cause == SLOPE_THRESHOLD
        jump_x = 0.5 * (snap.centers[59] + snap.centers[60])
        assert event.location == pytest.approx(jump_x, abs=2 * snap.spacing)
        assert event.value == pytest.approx(1.0)

    def test_smooth_field_is_quiet(self):
        snap = constant_snapshot(Geometry.cartesian1d())
        assert detect_blowup(snap, EOS, DetectorParams()) is None


class TestRun:
    def test_reference_run_stays_smooth(self):
        trace = run(bump(Geometry.cartesian1d()), SolverConfig(t_end=0.05))
        assert trace.blowup is None
        assert trace.t_detect is None
        assert trace.steps > 0
        assert trace.t_final >= 0.05
        assert trace.snapshots[0].t == 0.0
        times = [s.t for s in trace.snapshots]
        assert times == sorted(times)

    def test_snapshot_interval_is_respected(self):
        trace = run(
            bump(Geometry.cartesian1d()),
            SolverConfig(t_end=0.2, snapshot_interval=0.05),
        )
        assert len(trace.snapshots) >= 5
        # a snapshot lands within one time step after each interval boundary
        dt_max = 0.45 * trace.snapshots[0].spacing / SQRT2
        gaps = np.diff([s.t for s in trace.snapshots])
        assert np.all(gaps <= 0.05 + 2 * dt_max)

    def test_containment_precondition(self):
        with pytest.raises(ValueError, match="contain"):
            run(bump(Geometry.cartesian1d(), extent=1.5), SolverConfig(t_end=1.0))

    def test_isothermal_gas_runs(self):
        # gamma = 1 has no Riemann variable, but the scheme and the detector
        # only need the signal speed sqrt(K)
        scen = make_bump_scenario(
            EosParams(1.0, 1.0, 1.0), Geometry.cartesian1d(), 1.0, 0.01, 0.02, GridSpec(2.2, 128)
        )
        trace = run(scen, SolverConfig(t_end=0.1))
        assert trace.t_final == pytest.approx(0.1)
        assert trace.blowup is None

    def test_max_steps_cap(self):
        trace = run(bump(Geometry.cartesian1d()), SolverConfig(t_end=0.05, max_steps=5))
        assert trace.steps == 5
        assert trace.t_final < 0.05
        assert trace.blowup is None
        # the budget stops the run between snapshots; its final state is kept
        assert [s.t for s in trace.snapshots] == [0.0, trace.t_final]

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("preset", ["ref-1d", "ref-radial3"])
    def test_step_budget_keeps_the_final_state(self, preset, recon):
        trace = assert_run_matches_full_grid(
            PRESETS[preset](256), SolverConfig(t_end=0.1, max_steps=3, reconstruction=recon)
        )
        assert trace.steps == 3 and 0 < trace.t_final < 0.1
        assert [s.t for s in trace.snapshots] == [0.0, trace.t_final]

    def test_dt_floor_keeps_the_final_state(self):
        # the first time steps shrink: a floor between the second and the
        # third stops the run after two steps, between snapshots
        scen = PRESETS["ref-1d"](128)
        every = run(scen, SolverConfig(t_end=0.5, snapshot_interval=1e-9))
        times = [s.t for s in every.snapshots]
        dts = np.diff(times)
        assert dts[2] < dts[1]
        det = dataclasses.replace(scen.detector, dt_floor=0.5 * (dts[1] + dts[2]))
        floored, config = dataclasses.replace(scen, detector=det), SolverConfig(t_end=0.5)
        trace = run(floored, config)
        assert trace.blowup.cause == DT_FLOOR and trace.blowup.t == times[2]
        assert trace.steps == 2 and trace.t_final == times[2]
        snapshots = full_grid_run(floored, config, reference_step)[0]
        assert [s.t for s in trace.snapshots] == [s.t for s in snapshots] == [0.0, trace.t_final]
        for want in (snapshots[-1], every.snapshots[2]):
            assert_bitwise(trace.snapshots[-1].rho, want.rho)
            assert_bitwise(trace.snapshots[-1].V, want.V)

    def test_tiny_snapshot_interval_keeps_every_step(self):
        # the ulp of t is far above 1e-30, so a clock summed interval by
        # interval would never move past the time it just kept
        start = time.perf_counter()
        trace = run(PRESETS["ref-1d"](128), SolverConfig(t_end=0.1, snapshot_interval=1e-30))
        assert time.perf_counter() - start < 1.0
        assert trace.t_final == pytest.approx(0.1) and trace.steps > 0
        assert len(trace.snapshots) == trace.steps + 1

    def test_tiny_sample_interval_samples_every_step(self):
        scen = PRESETS["ref-1d"](128)
        scen = dataclasses.replace(scen, detector=dataclasses.replace(scen.detector, sample_interval=1e-30))
        recorder = theorem_context(scen, default_family(scen.geometry), tau=1.0).recorder()
        start = time.perf_counter()
        trace = run(scen, SolverConfig(t_end=0.1), recorder=recorder)
        assert time.perf_counter() - start < 1.0
        assert trace.series.times.size == trace.steps + 1

    def test_interval_too_small_to_count_is_rejected(self):
        scen = PRESETS["ref-1d"](128)
        with pytest.raises(ValueError, match="^snapshot_interval 5e-324 "):
            run(scen, SolverConfig(t_end=0.1, snapshot_interval=5e-324))
        det = dataclasses.replace(scen.detector, sample_interval=5e-324)
        with pytest.raises(ValueError, match="^detector.sample_interval 5e-324 "):
            run(dataclasses.replace(scen, detector=det), SolverConfig(t_end=0.1))

    def test_certified_case_detects_blowup(self):
        case = certified_linear_tau_case(cells=1024)
        ctx = theorem_context(case.scenario, case.family, case.tau)
        trace = run(case.scenario, SolverConfig(t_end=1.0), recorder=ctx.recorder())
        assert trace.blowup is not None
        assert trace.blowup.cause == SLOPE_THRESHOLD
        assert 0.0 < trace.t_detect < 1.0
        # the functional series must never sample the broken post-detection state
        assert trace.series.times.size >= 3
        assert np.all(trace.series.times < trace.t_detect)

    def test_steep_initial_profile_detects_at_time_zero(self):
        det = DetectorParams(slope_factor=1e-4)
        scen = bump(Geometry.cartesian1d(), amp_v=1.0, detector=det)
        trace = run(scen, SolverConfig(t_end=0.5))
        assert trace.blowup is not None
        assert trace.t_detect == 0.0
        assert trace.steps == 0
        assert len(trace.snapshots) == 1

    @pytest.mark.parametrize("change", [
        {"grid": GridSpec(2.2, 257)},
        {"rho0": BumpProfile(0.01, 1.0, odd=True)},
        {"v0": BumpProfile(0.02, 1.0, odd=False)},
    ], ids=["odd-cells", "odd-density", "even-velocity"])
    def test_1d_run_needs_its_mirror_image(self, change):
        # a 1-D run steps the half-line x > 0 and mirrors it; the scenario
        # must be one that make_bump_scenario builds
        scen = dataclasses.replace(bump(Geometry.cartesian1d()), **change)
        with pytest.raises(ValueError, match="^a 1-D run steps the half-line x > 0: "):
            run(scen, SolverConfig(t_end=0.1))
        # the radial run reflects the origin whatever the count or parity
        radial = dataclasses.replace(bump(Geometry.radial(3)), **change)
        assert run(radial, SolverConfig(t_end=0.01)).t_final == pytest.approx(0.01)

    def test_dt_floor_cause(self):
        det = DetectorParams(dt_floor=1.0)
        scen = bump(Geometry.cartesian1d(), detector=det)
        trace = run(scen, SolverConfig(t_end=0.5))
        assert trace.blowup is not None
        assert trace.blowup.cause == DT_FLOOR


class TestAccuracy:
    def test_acoustic_pulse_travels_at_sound_speed(self):
        # a pure density bump splits into two pulses moving at +-sigma; by
        # sigma*t > R the halves have separated and the right peak sits at sigma*t
        scen = bump(Geometry.cartesian1d(), cells=1024, extent=2.6, amp_rho=0.001, amp_v=0.0)
        trace = run(scen, SolverConfig(t_end=0.9))
        final = trace.snapshots[-1]
        right = final.centers > 0.2
        peak = float(final.centers[right][np.argmax(final.rho[right])])
        assert peak == pytest.approx(SQRT2 * trace.t_final, abs=0.08)

    def test_second_order_beats_first_order(self):
        geom = Geometry.cartesian1d()
        ref = run(bump(geom, cells=4096), SolverConfig(t_end=0.2)).snapshots[-1]

        def err(recon):
            got = run(
                bump(geom, cells=512), SolverConfig(t_end=0.2, reconstruction=recon)
            ).snapshots[-1]
            ref_interp = np.interp(got.centers, ref.centers, ref.rho)
            return float(np.mean(np.abs(got.rho - ref_interp)))

        assert err(MUSCL) < 0.5 * err(FIRST_ORDER)

    def test_cartesian_symmetry_preserved(self):
        trace = run(bump(Geometry.cartesian1d(), cells=512), SolverConfig(t_end=0.1))
        final = trace.snapshots[-1]
        assert np.max(np.abs(final.rho - final.rho[::-1])) < 1e-13
        assert np.max(np.abs(final.V + final.V[::-1])) < 1e-13


# ---------------------------------------------------------------------------
# Reference kernel: the unfused step the fused kernel replaced, kept verbatim
# as a test-only oracle (separate pad, slopes, Rusanov flux and RHS, np.sign
# minmod, plain powers).  The public step must equal it bit for bit.

REFERENCE_FALLBACKS = []  # one entry per reference RHS that took the first-order fallback


def _reference_speed(eos, rho):
    return np.sqrt(eos.K * eos.gamma * rho ** (eos.gamma - 1.0))


def reference_cfl_dt(snap, eos, cfl=0.45):
    speed = np.abs(snap.V) + _reference_speed(eos, snap.rho)
    return float(cfl * snap.spacing / np.max(speed))


def _reference_slopes(u):
    d = np.diff(u)
    sign, size = np.sign(d), np.abs(d)
    return 0.5 * (sign[:-1] + sign[1:]) * np.minimum(size[:-1], size[1:])


def _reference_pad(rho, mom, geometry, eos):
    rb = eos.rho_bar
    if geometry.is_radial:
        rho_p = np.concatenate(([rho[1], rho[0]], rho, [rb, rb]))
        mom_p = np.concatenate(([-mom[1], -mom[0]], mom, [0.0, 0.0]))
    else:
        rho_p = np.concatenate(([rb, rb], rho, [rb, rb]))
        mom_p = np.concatenate(([0.0, 0.0], mom, [0.0, 0.0]))
    return rho_p, mom_p


def _reference_rusanov(rhoL, momL, rhoR, momR, eos):
    vL, vR = momL / rhoL, momR / rhoR
    pL = eos.K * rhoL ** eos.gamma
    pR = eos.K * rhoR ** eos.gamma
    a = np.maximum(np.abs(vL) + _reference_speed(eos, rhoL), np.abs(vR) + _reference_speed(eos, rhoR))
    f1 = 0.5 * (momL + momR) - 0.5 * a * (rhoR - rhoL)
    f2 = 0.5 * (momL * vL + pL + momR * vR + pR) - 0.5 * a * (momR - momL)
    return f1, f2


def _reference_rhs(rho, mom, centers, dx, geometry, eos, reconstruction):
    rho_p, mom_p = _reference_pad(rho, mom, geometry, eos)
    if reconstruction == FIRST_ORDER:
        rL, mL = rho_p[1:-2], mom_p[1:-2]
        rR, mR = rho_p[2:-1], mom_p[2:-1]
    else:
        hr, hm = 0.5 * _reference_slopes(rho_p), 0.5 * _reference_slopes(mom_p)
        rL, mL = rho_p[1:-2] + hr[:-1], mom_p[1:-2] + hm[:-1]
        rR, mR = rho_p[2:-1] - hr[1:], mom_p[2:-1] - hm[1:]
        if rL.min() <= 0 or rR.min() <= 0:
            REFERENCE_FALLBACKS.append(True)
            bad = (rL <= 0) | (rR <= 0)
            rL = np.where(bad, rho_p[1:-2], rL)
            mL = np.where(bad, mom_p[1:-2], mL)
            rR = np.where(bad, rho_p[2:-1], rR)
            mR = np.where(bad, mom_p[2:-1], mR)
    f1, f2 = _reference_rusanov(rL, mL, rR, mR, eos)
    d_rho = -(f1[1:] - f1[:-1]) / dx
    d_mom = -(f2[1:] - f2[:-1]) / dx
    if geometry.is_radial and geometry.ndim > 1:
        r = np.maximum(centers, 0.5 * dx)
        coeff = (geometry.ndim - 1) / r
        d_rho = d_rho - coeff * mom
        d_mom = d_mom - coeff * mom * (mom / rho)
    return d_rho, d_mom


def reference_step(snap, eos, geometry, dt, reconstruction=FIRST_ORDER):
    if not dt > 0:
        raise ValueError("dt must be positive")
    hard_limit = reference_cfl_dt(snap, eos, cfl=1.0)
    if dt > hard_limit * (1.0 + 1e-12):
        raise ValueError(f"dt {dt:g} exceeds the unit-CFL limit {hard_limit:g}")
    rho, mom = snap.rho, snap.rho * snap.V
    dx, centers = snap.spacing, snap.centers
    args = (centers, dx, geometry, eos, reconstruction)
    d1_rho, d1_mom = _reference_rhs(rho, mom, *args)
    rho1 = rho + dt * d1_rho
    mom1 = mom + dt * d1_mom
    if reconstruction == MUSCL:
        if rho1.min() <= 0:
            i = int(np.argmin(rho1))
            raise NegativeDensityError(snap.t + dt, centers[i], rho1[i])
        d2_rho, d2_mom = _reference_rhs(rho1, mom1, *args)
        rho_new = 0.5 * (rho + rho1 + dt * d2_rho)
        mom_new = 0.5 * (mom + mom1 + dt * d2_mom)
    else:
        rho_new, mom_new = rho1, mom1
    if rho_new.min() <= 0:
        i = int(np.argmin(rho_new))
        raise NegativeDensityError(snap.t + dt, centers[i], rho_new[i])
    return FieldSnapshot(t=snap.t + dt, centers=centers, rho=rho_new, V=mom_new / rho_new, spacing=dx)


def outcome(step_fn, *args):
    """The snapshot a step returns, or the type and message of what it raises."""
    with np.errstate(all="ignore"):
        try:
            return step_fn(*args)
        except (ValueError, NegativeDensityError) as exc:
            return type(exc), str(exc)


def assert_same_outcome(snap, eos, geometry, dt, recon):
    got = outcome(step, snap, eos, geometry, dt, recon)
    want = outcome(reference_step, snap, eos, geometry, dt, recon)
    if isinstance(want, tuple):
        assert got == want
        return want
    assert isinstance(got, FieldSnapshot)
    assert got.t == want.t and got.spacing == want.spacing
    assert_bitwise(got.rho, want.rho)
    assert_bitwise(got.V, want.V)
    return want


GAMMAS = (1.0, 1.4, 5.0 / 3.0, 2.0, 3.0)
KERNEL_GEOMETRIES = (Geometry.cartesian1d(), Geometry.radial(1), Geometry.radial(3))


def seeded_state(seed, eos, geometry, cells=96):
    """A rough state off the background, exact background cells at both ends.

    Inside, each cell draws its velocity from a normal sample, +0.0, -0.0
    or +-0.3, and its density from rho_bar or a random value, so that runs
    of equal values give exact zero differences of either sign next to
    non-zero ones, where the minmod slope is a signed zero.
    """
    rng = np.random.default_rng(seed)
    centers = GridSpec(2.0, cells).centers(geometry)
    rho = np.full(cells, eos.rho_bar)
    V = np.zeros(cells)
    inner = slice(cells // 8, cells - cells // 8)
    m = inner.stop - inner.start
    kind = rng.integers(0, 5, m)
    V[inner] = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [np.full(m, 0.0), np.full(m, -0.0), np.full(m, -0.3), np.full(m, 0.3)],
        0.3 * rng.standard_normal(m),
    )
    rho[inner] = np.where(rng.random(m) < 0.4, eos.rho_bar, eos.rho_bar * (1.0 + 0.4 * rng.uniform(-1.0, 1.0, m)))
    return FieldSnapshot(0.25, centers, rho, V)


class TestKernelMatchesReference:
    """The fused step against the test-only reference kernel, bit for bit."""

    @pytest.fixture(autouse=True)
    def stage_two(self, monkeypatch):
        """Whether each reference step that reached stage 2 fell back there; none may.

        The kernel checks its face densities at stage 1 only (see "The
        checks" in the solver's docstring).
        """
        module = sys.modules[__name__]
        rhs, reference = module._reference_rhs, module.reference_step
        fell_back, stage_two = [], []

        def counted_rhs(*args):
            before = len(REFERENCE_FALLBACKS)
            derivative = rhs(*args)
            fell_back.append(len(REFERENCE_FALLBACKS) > before)
            return derivative

        def staged_step(*args):
            fell_back.clear()
            try:
                return reference(*args)
            finally:
                if len(fell_back) == 2:
                    stage_two.append(fell_back[1])

        monkeypatch.setattr(module, "_reference_rhs", counted_rhs)
        monkeypatch.setattr(module, "reference_step", staged_step)
        yield stage_two
        assert not any(stage_two)

    @pytest.mark.parametrize("geom", KERNEL_GEOMETRIES, ids=lambda g: g.label())
    def test_reference_steps_reach_stage_two(self, geom, stage_two):
        for gamma in GAMMAS:
            eos = EosParams(1.3, gamma, 0.8)
            snap = seeded_state(0, eos, geom)
            assert_same_outcome(snap, eos, geom, reference_cfl_dt(snap, eos, 0.45), MUSCL)
        assert len(stage_two) == len(GAMMAS)

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("geom", KERNEL_GEOMETRIES, ids=lambda g: g.label())
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_seeded_states(self, gamma, geom, recon):
        eos = EosParams(1.3, gamma, 0.8)
        for seed in range(8):
            snap = seeded_state(seed, eos, geom)
            dt = reference_cfl_dt(snap, eos, 0.45)
            want = assert_same_outcome(snap, eos, geom, dt, recon)
            assert isinstance(want, FieldSnapshot)
            # a few more steps from the moved state
            for _ in range(3):
                want = assert_same_outcome(want, eos, geom, reference_cfl_dt(want, eos, 0.45), recon)

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("geom", [Geometry.cartesian1d(), Geometry.radial(3)], ids=lambda g: g.label())
    @pytest.mark.parametrize("scale", [1e-310, 3e-308, 1e150])
    def test_extreme_momenta(self, scale, geom, recon):
        # the kernel keeps the Rusanov flux doubled and divides by 2 dx:
        # pin that against the reference's halves where the momenta and
        # their fluxes are subnormal, at the bottom of the normal range, or
        # near the top of the range
        for seed in range(4):
            snap = seeded_state(seed, EOS, geom)
            snap.V *= scale / 0.3
            mom = np.abs(snap.rho * snap.V)
            assert mom.max() > scale / 10 and mom[mom > 0].min() < 10 * scale
            want = assert_same_outcome(snap, EOS, geom, reference_cfl_dt(snap, EOS), recon)
            for _ in range(3):
                if not isinstance(want, FieldSnapshot):
                    break
                want = assert_same_outcome(want, EOS, geom, reference_cfl_dt(want, EOS), recon)

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("geom", KERNEL_GEOMETRIES, ids=lambda g: g.label())
    def test_window_cut_mid_grid(self, geom, recon):
        snap = initial_snapshot(bump(geom, cells=512))
        for a, b in ((100, 300), (0, 257), (255, 512)):
            window = FieldSnapshot(snap.t, snap.centers[a:b], snap.rho[a:b], snap.V[a:b], snap.spacing)
            assert_same_outcome(window, EOS, geom, reference_cfl_dt(snap, EOS), recon)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_first_order_fallback(self, gamma):
        # a non-positive cell drives a limited face density to zero or below
        eos = EosParams(1.0, gamma, 1.0)
        geom = Geometry.cartesian1d()
        snap = seeded_state(3, eos, geom)
        snap.rho[40] = -0.05
        REFERENCE_FALLBACKS.clear()
        assert_same_outcome(snap, eos, geom, 1e-4, MUSCL)
        assert REFERENCE_FALLBACKS

    @pytest.mark.parametrize("nan_at, bad_at", [(None, 44), (40, 50), (60, 44), (0, 44), (95, 44)])
    @pytest.mark.parametrize("geom", KERNEL_GEOMETRIES, ids=lambda g: g.label())
    def test_fallback_decision_with_a_nan_density(self, geom, nan_at, bad_at):
        # densities 3.2, 1, -1.5 limit the right face of the middle cell to
        # -0.1, so the fallback changes it, and with gamma = 3 the negative
        # cell has a real sound speed; the kernel decides the fallback with
        # one reduction over the left and the right face densities, the
        # reference with one per side: a NaN cell puts a NaN on both sides,
        # where neither falls back
        eos = EosParams(1.0, 3.0, 1.0)
        snap = seeded_state(3, eos, geom)
        snap.rho[bad_at - 2:bad_at + 1] = 3.2, 1.0, -1.5
        if nan_at is not None:
            snap.rho[nan_at] = np.nan
        REFERENCE_FALLBACKS.clear()
        assert_same_outcome(snap, eos, geom, 1e-4, MUSCL)
        assert bool(REFERENCE_FALLBACKS) == (nan_at is None)

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    def test_negative_density_error(self, recon):
        geom = Geometry.radial(3)
        snap = constant_snapshot(geom, rho=0.01, V=5.0)
        want = assert_same_outcome(snap, EOS, geom, reference_cfl_dt(snap, EOS), recon)
        assert want[0] is NegativeDensityError

    def test_dt_errors(self):
        geom = Geometry.cartesian1d()
        snap = seeded_state(0, EOS, geom)
        for dt in (0.0, -1.0, 100.0):
            want = assert_same_outcome(snap, EOS, geom, dt, MUSCL)
            assert want[0] is ValueError


# positive densities, log-uniform over [5e-324, 1e300] (2**-1022 and below are
# subnormal), and the ends of that range
_DENSITY = st.one_of(
    st.floats(-1074.0, 996.5).map(lambda e: 2.0 ** e),
    st.sampled_from([5e-324, 1e-323, 2.0 ** -1022, 1e300]),
)
# runs of equal densities give zero slopes next to non-zero ones
_DENSITY_ROW = st.lists(st.tuples(_DENSITY, st.integers(1, 4)), min_size=1, max_size=24).map(
    lambda runs: [rho for rho, k in runs for _ in range(k)]
).filter(lambda row: len(row) >= 2)


class TestFaceLemma:
    """Positive cells and ghosts give positive MUSCL face densities (see "The checks" in the solver's docstring)."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(row=_DENSITY_ROW, rho_bar=_DENSITY, radial=st.booleans())
    def test_positive_cells_give_positive_faces(self, row, rho_bar, radial):
        geom = Geometry.radial(3) if radial else Geometry.cartesian1d()
        n, dx = len(row), 0.1
        ws = solver._Workspace((np.arange(n) + 0.5) * dx, dx, geom, EosParams(1.0, 2.0, rho_bar), MUSCL)
        ws.rho[:] = row
        ws.mom[:] = 0.0
        # the ghosts as _advance writes them: the far field, and in radial
        # geometry the reflection, which _rhs writes
        w = ws.bind(0, n)
        if not radial:
            w.left_ghosts[...] = ws.far_field
        w.right_ghosts[...] = ws.far_field
        with np.errstate(all="ignore"):
            solver._rhs(w, ws, False)
        assert ws.face_rho.size == 2 * (n + 1)
        assert np.all(ws.face_rho > 0), ws.face_rho


def mirrored(half, centers):
    """The whole line of a half-line snapshot on the line's ``centers``: rho
    mirrored, V mirrored and negated."""
    rho = np.concatenate((half.rho[::-1], half.rho))
    return FieldSnapshot(half.t, centers, rho, np.concatenate((0.0 - half.V[::-1], half.V)), half.spacing)


def full_grid_run(scenario, config, step_fn, recorder=None, mirror=True):
    """Oracle for ``run``: the time step and ``step_fn`` over the whole grid.

    Same time step, detector, recorder and snapshot rules as ``run``, but
    every step advances every cell.  In 1-D the cells are the half-line
    x > 0's, stepped in radial-1 geometry, whose origin reflection is the
    mirror face at x = 0; the snapshots, the samples and the detector read
    the whole line mirrored from them.  Without ``mirror`` a 1-D run steps
    every cell of the line.
    """
    eos, det, geometry = scenario.eos, scenario.detector, scenario.geometry
    snap = line = initial_snapshot(scenario)
    mirror = mirror and not geometry.is_radial
    if mirror:
        h = line.centers.size // 2
        geometry = Geometry.radial(1)
        snap = FieldSnapshot(0.0, line.centers[h:], line.rho[h:], line.V[h:], line.spacing)

    def whole(snap):
        return mirrored(snap, line.centers) if mirror else snap

    snapshots = [whole(snap)]
    blowup = detect_blowup(snapshots[0], eos, det)
    if blowup is None and recorder is not None:
        recorder.observe(snapshots[0])
    t, steps = 0.0, 0
    k_snap = k_sample = 1
    next_snap, next_sample = config.snapshot_interval, det.sample_interval
    eps = 1e-12 * config.t_end
    while blowup is None and t < config.t_end - eps and steps < config.max_steps:
        dtc = reference_cfl_dt(snap, eos, config.cfl)
        if dtc < det.dt_floor:
            blowup = BlowupEvent(t=t, cause=DT_FLOOR, location=float("nan"), value=dtc)
            break
        snap = step_fn(snap, eos, geometry, min(dtc, config.t_end - t), config.reconstruction)
        t = snap.t
        steps += 1
        kept = whole(snap)
        blowup = detect_blowup(kept, eos, det)
        if blowup is None and recorder is not None and (t >= next_sample - eps or t >= config.t_end - eps):
            recorder.observe(kept)
            k_sample = max(k_sample + 1, math.floor((t + eps) / det.sample_interval) + 1)
            next_sample = k_sample * det.sample_interval
        if t >= next_snap - eps or t >= config.t_end - eps or blowup is not None:
            snapshots.append(kept)
            k_snap = max(k_snap + 1, math.floor((t + eps) / config.snapshot_interval) + 1)
            next_snap = k_snap * config.snapshot_interval
    if snapshots[-1].t < t:
        snapshots.append(whole(snap))
    series = recorder.series() if recorder is not None else None
    return snapshots, series, blowup, steps, t


def assert_bitwise(a, b):
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_run_matches_full_grid(scen, config):
    family = default_family(scen.geometry)
    trace = run(scen, config, recorder=theorem_context(scen, family, tau=1.0).recorder())
    snapshots, series, blowup, steps, t = full_grid_run(
        scen, config, reference_step, recorder=theorem_context(scen, family, tau=1.0).recorder()
    )
    assert trace.steps == steps
    assert trace.t_final == t
    assert (trace.blowup is None) == (blowup is None)
    if blowup is not None:
        assert trace.blowup.to_dict() == blowup.to_dict()
    assert len(trace.snapshots) == len(snapshots)
    for got, want in zip(trace.snapshots, snapshots):
        assert got.t == want.t
        assert got.spacing == want.spacing
        assert_bitwise(got.centers, want.centers)
        assert_bitwise(got.rho, want.rho)
        assert_bitwise(got.V, want.V)
    for col in ("times", "H", "B", "m", "G"):
        assert_bitwise(getattr(trace.series, col), getattr(series, col))
    return trace


class TestWindowedRun:
    """``run`` steps only the perturbed window; it must equal the full-grid
    loop of the reference kernel."""

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_match_full_grid(self, preset, recon):
        assert_run_matches_full_grid(
            PRESETS[preset](512), SolverConfig(t_end=0.5, reconstruction=recon)
        )

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    def test_certified_general_1d_steps_at_1024_cells(self, recon):
        # at 512 cells this preset trips the detector at t = 0 with no step
        trace = assert_run_matches_full_grid(
            PRESETS["cert-general-1d-exp"](1024), SolverConfig(t_end=0.5, reconstruction=recon)
        )
        assert trace.steps > 0

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("geom", [Geometry.cartesian1d(), Geometry.radial(3)])
    def test_background_only_advances_time(self, geom, recon):
        scen = constant_scenario(geom, cells=128)
        trace = assert_run_matches_full_grid(scen, SolverConfig(t_end=0.2, reconstruction=recon))
        final = trace.snapshots[-1]
        assert trace.t_final == pytest.approx(0.2)
        assert np.all(final.rho == EOS.rho_bar) and np.all(final.V == 0.0)

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    def test_window_reaching_the_grid_edge(self, recon):
        # 16 cells across R = 1 on [-2, 2]: the window hits both ends
        scen = make_bump_scenario(EOS, Geometry.cartesian1d(), 1.0, 0.01, 0.02, GridSpec(2.0, 64))
        trace = assert_run_matches_full_grid(scen, SolverConfig(t_end=0.6, reconstruction=recon))
        final = trace.snapshots[-1]
        off = (final.rho != EOS.rho_bar) | (final.V != 0.0)
        assert off[0] and off[-1]

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    def test_radial_shell_window_starts_at_the_origin(self, recon):
        # a density shell on 0.5 <= r <= 1 leaves quiescent cells at the
        # origin, whose reflection ghost the window must still include
        class Shell(BumpProfile):
            def __call__(self, x):
                return super().__call__(np.asarray(x, dtype=float) - 0.75)

        base = bump(Geometry.radial(3), cells=512)
        scen = dataclasses.replace(base, rho0=Shell(0.01, 0.25))
        snap0 = initial_snapshot(scen)
        assert snap0.rho[0] == EOS.rho_bar and snap0.rho.max() > EOS.rho_bar
        trace = assert_run_matches_full_grid(scen, SolverConfig(t_end=0.5, reconstruction=recon))
        assert trace.snapshots[-1].rho[0] != EOS.rho_bar

    @pytest.mark.parametrize("geom", [Geometry.cartesian1d(), Geometry.radial(3)])
    def test_muscl_step_carries_a_disturbance_two_cells(self, geom):
        # one perturbed cell in the background: the reference MUSCL step
        # changes exactly the cells within two of it, one per stage
        snap = constant_snapshot(geom, cells=64)
        snap.rho[32] += 0.01
        snap.V[32] = 0.01
        moved = reference_step(snap, EOS, geom, reference_cfl_dt(snap, EOS), MUSCL)
        off = np.flatnonzero((moved.rho != EOS.rho_bar) | (moved.V != 0.0))
        assert off.tolist() == list(range(30, 35))

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("geom", [Geometry.cartesian1d(), Geometry.radial(3)])
    def test_two_cell_disturbance_matches_full_grid(self, geom, recon):
        # a bump narrower than a cell leaves one or two perturbed cells, so
        # every step's window is the perturbed range plus the reach alone
        base = bump(geom, cells=128)
        dx = base.grid.spacing(geom)
        scen = dataclasses.replace(base, rho0=BumpProfile(0.01, 0.6 * dx), v0=BumpProfile(0.02, 0.6 * dx, odd=True))
        off = np.flatnonzero(initial_snapshot(scen).rho != EOS.rho_bar)
        assert 1 <= off.size <= 2
        trace = assert_run_matches_full_grid(scen, SolverConfig(t_end=0.3, reconstruction=recon))
        assert trace.steps > 0

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    def test_window_wider_than_2048_cells_at_4096_cells(self, recon):
        # the window's arrays outgrow the sizes the narrower cases exercise
        trace = assert_run_matches_full_grid(
            PRESETS["ref-1d"](4096), SolverConfig(t_end=0.25, reconstruction=recon)
        )
        final = trace.snapshots[-1]
        off = np.flatnonzero((final.rho != EOS.rho_bar) | (final.V != 0.0))
        assert off[-1] - off[0] + 1 > 2048

    def test_window_keeps_the_full_grid_spacing(self):
        snap = initial_snapshot(bump(Geometry.cartesian1d(), cells=512))
        window = FieldSnapshot(snap.t, snap.centers[100:300], snap.rho[100:300], snap.V[100:300], snap.spacing)
        assert window.spacing == snap.spacing
        moved = step(window, EOS, Geometry.cartesian1d(), cfl_dt(snap, EOS), MUSCL)
        assert moved.spacing == snap.spacing


# max |run - line| over rho and V at the snapshots before detection, for
# the 1-D presets at 512-4096 cells (numpy 2.4, x86-64): first order 3.5e-14,
# MUSCL 1.3e-13 on ref-1d and up to 2.3e-2 on the certified data, where the
# whole line does not keep its own mirror symmetry (its rounding asymmetry
# grows about 2.5x per step at the velocity peak): each difference is at most
# 1.12 times the line's own asymmetry max |line - mirror(line)|
LINE_BOUND = {FIRST_ORDER: 1e-13, MUSCL: 5e-2}


class TestMirrorAccuracy:
    """The half-line run against the whole line, every cell of it stepped by
    the reference kernel in 1-D geometry under the same time-step rule."""

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("preset, cells", [
        ("ref-1d", 1024),
        *((name, cells) for name in ("cert-linear-tau-1d", "cert-linear-infinite-1d", "cert-general-1d-exp")
          for cells in (512, 1024, 4096)),
    ])
    def test_half_line_run_matches_the_whole_line(self, preset, cells, recon):
        scen = PRESETS[preset](cells)
        certified = preset.startswith("cert-")
        # the certified presets' horizon is 1; their snapshots every 0.002
        # land several before detection
        config = SolverConfig(t_end=1.0 if certified else 0.5, snapshot_interval=0.002 if certified else 0.05,
                              reconstruction=recon)
        trace = run(scen, config)
        snapshots, _, blowup, steps, t = full_grid_run(scen, config, reference_step, mirror=False)
        bound = LINE_BOUND[recon] if certified else 1e-12
        # the snapshots before either run detects
        end = min((e.t for e in (trace.blowup, blowup) if e is not None), default=math.inf)
        got_before, want_before = ([s for s in snaps if s.t < end] for snaps in (trace.snapshots, snapshots))
        assert len(got_before) == len(want_before) >= (0 if end == 0.0 else 2)
        for got, want in zip(got_before, want_before):
            # the time steps read speeds that differ as the states do (1.4e-9 measured)
            assert got.t == pytest.approx(want.t, rel=1e-7, abs=0.0)
            err = max(np.abs(got.rho - want.rho).max(), np.abs(got.V - want.V).max())
            asymmetry = max(np.abs(want.rho - want.rho[::-1]).max(), np.abs(want.V + want.V[::-1]).max())
            assert err <= bound and err <= 1.5 * asymmetry + 1e-13, (got.t, err, asymmetry)
        if not certified:
            assert trace.blowup is None and blowup is None and trace.steps == steps
            return
        # every certified 1-D point still detects before its horizon, within
        # one step of the whole line: a step is at most cfl dx / sigma
        sigma = signal_speed(scen.eos, scen.eos.rho_bar)
        assert trace.blowup.cause == blowup.cause == SLOPE_THRESHOLD
        assert 0.0 <= trace.t_detect < 1.0
        assert abs(trace.steps - steps) <= 1
        assert abs(trace.t_detect - blowup.t) <= config.cfl * trace.snapshots[0].spacing / sigma


class TestMirrorSymmetry:
    """Every 1-D trace is exactly mirror-symmetric, and its detector event is
    the whole line's."""

    # the lower slope factors make about a third of the runs detect, some at t = 0
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        amp_rho=st.floats(-0.5, 0.5), amp_v=st.floats(-3.0, 3.0), gamma=st.sampled_from([1.4, 2.0, 3.0]),
        recon=st.sampled_from([MUSCL, FIRST_ORDER]), cells=st.sampled_from([80, 128]),
        slope_factor=st.sampled_from([0.005, 0.02, 0.2]),
    )
    def test_snapshots_are_mirror_images(self, amp_rho, amp_v, gamma, recon, cells, slope_factor):
        eos = EosParams(1.0, gamma, 1.0)
        scen = make_bump_scenario(
            eos, Geometry.cartesian1d(), 1.0, amp_rho, amp_v, GridSpec(2.2, cells), DetectorParams(slope_factor)
        )
        trace = run(scen, SolverConfig(t_end=0.3, snapshot_interval=0.02, reconstruction=recon))
        for snap in trace.snapshots:
            # every cell, the zeros included
            assert np.array_equal(snap.rho, snap.rho[::-1])
            assert np.array_equal(snap.V, -snap.V[::-1])
        assert trace.blowup == detect_blowup(trace.snapshots[-1], eos, scen.detector)


def loaded_workspace(preset, cells):
    """A MUSCL workspace for a preset's grid holding its initial (rho, rho*V), and its time step."""
    scen = PRESETS[preset](cells)
    snap = initial_snapshot(scen)
    ws = solver._Workspace(snap.centers, snap.spacing, scen.geometry, scen.eos, MUSCL)
    ws.rho[:] = snap.rho
    ws.mom[:] = snap.rho * snap.V
    return ws, cfl_dt(snap, scen.eos)


class TestWorkspace:
    """The kernel writes every temporary into a workspace sized once."""

    def test_views_are_contiguous_prefixes_of_one_buffer_each(self):
        ws = loaded_workspace("ref-1d", 512)[0]
        ws.bind(0, 300)
        first = {name: getattr(ws, name) for name, *_ in solver._ARRAYS[MUSCL]}
        ws.bind(50, 250)
        for name, view in first.items():
            again = getattr(ws, name)
            assert view.flags.c_contiguous and again.flags.c_contiguous
            assert view.shape[-1] - again.shape[-1] == 100
            assert again.__array_interface__["data"][0] == view.__array_interface__["data"][0]
        views = list(first.values())
        for i, u in enumerate(views):
            assert not any(np.shares_memory(u, w) for w in views[i + 1:] + [ws.U])

    def test_advance_makes_no_window_sized_temporaries(self):
        # a 3000-cell window of a 4096-cell grid holds arrays of 24 KB per row
        ws, dt = loaded_workspace("ref-radial3", 4096)
        solver._advance(ws, 0, 3000, 0.0, dt)
        tracemalloc.start()
        try:
            for k in range(1, 6):
                solver._advance(ws, 0, 3000, k * dt, dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_run_views_are_contiguous_prefixes_of_their_scratch(self):
        ws = loaded_workspace("ref-1d", 512)[0]
        first = ws.bind(0, 300).view
        assert ws.bind(0, 300).view is first
        again = ws.bind(50, 250).view
        assert again.rho.ctypes.data == ws.rho[50:].ctypes.data
        assert again.V.ctypes.data == ws.V[50:].ctypes.data
        assert again.centers.ctypes.data == ws.centers[50:].ctypes.data
        for name, m in (("speed", 300), ("abs_v", 300), ("jumps", 299)):
            view, other = getattr(first, name), getattr(again, name)
            assert view.flags.c_contiguous and other.flags.c_contiguous
            assert (view.size, other.size) == (m, m - 100)
            assert view.ctypes.data == other.ctypes.data
        # |V| and the jumps share a buffer; nothing else the kernel or the
        # state holds does
        assert first.abs_v.ctypes.data == first.jumps.ctypes.data
        ws.bind(0, 512)
        kernel = [getattr(ws, name) for name, *_ in solver._ARRAYS[MUSCL]]
        for u in (first.speed, first.abs_v):
            assert not any(np.shares_memory(u, v) for v in kernel + [ws.U, ws.V, ws.off_all, ws.off_v_all])
        assert not np.shares_memory(first.speed, first.abs_v)

    @pytest.mark.parametrize("preset", ["ref-1d", "ref-radial3"])
    def test_run_step_loop_makes_no_window_sized_temporaries(self, preset, monkeypatch):
        # five whole steps of run, from the second kernel call to the
        # seventh, on a window of about 3700 cells: 29 KB per row; a 1-D
        # run steps half its cells, so it gets twice as many
        kernel, widths, peak = solver._advance, [], []
        cells = 16384 if preset == "ref-1d" else 8192

        def traced(ws, a, b, t, dt):
            widths.append(b - a)
            if len(widths) == 2:
                tracemalloc.start()
            elif len(widths) == 7:
                peak.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            kernel(ws, a, b, t, dt)

        monkeypatch.setattr(solver, "_advance", traced)
        try:
            run(PRESETS[preset](cells), SolverConfig(t_end=0.05, snapshot_interval=1.0, max_steps=8))
        finally:
            tracemalloc.stop()
        assert min(widths) > 3700
        assert peak[0] < min(64 * 1024, 8 * min(widths))

    def test_views_are_recut_iff_the_window_changes(self):
        ws, dt = loaded_workspace("ref-1d", 256)
        dt *= 0.1

        def advance(a, b):
            solver._advance(ws, a, b, 0.0, dt)
            window = ws.window
            # the bound views are cells [a, b) of the workspace's buffer
            assert window.cells.shape == (2, b - a)
            assert window.rho.ctypes.data == ws.U[0, a + 2:].ctypes.data
            assert window.mom.ctypes.data == ws.mom[a:].ctypes.data
            # and so are the cells the time step and the detector read
            assert window.view.rho.ctypes.data == window.rho.ctypes.data
            assert window.view.V.ctypes.data == ws.V[a:].ctypes.data
            assert window.view.speed.size == b - a
            return window, ws.flux, window.view

        def same(views, other):
            return [u is v for u, v in zip(views, other)]

        bound = advance(40, 216)
        assert same(advance(40, 216), bound) == [True, True, True]
        # a new start, end or both recuts every view, at the same width too
        for a, b in ((41, 216), (41, 217), (42, 218)):
            again = advance(a, b)
            assert same(again, bound) == [False, False, False]
            assert same(advance(a, b), again) == [True, True, True]
            bound = again

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("preset", ["constant-1d", "constant-radial3"])
    def test_unperturbed_run_reads_a_two_cell_view(self, preset, recon, monkeypatch):
        # every cell at t = 0 (the half-line's in 1-D), then two background
        # cells at every step
        max_speed, sizes = solver._View.max_speed, []

        def recorded(view, eos):
            sizes.append(view.rho.size)
            return max_speed(view, eos)

        monkeypatch.setattr(solver._View, "max_speed", recorded)
        trace = run(PRESETS[preset](4096), SolverConfig(t_end=0.5, reconstruction=recon))
        assert trace.steps > 1 and trace.blowup is None
        assert sizes == [4096 if trace.scenario.geometry.is_radial else 2048] + [2] * (trace.steps - 1)


class TestRunTimeStep:
    """``run`` hands the kernel its own time step with no unit-CFL rescan of
    the window: the view it bounds the step by holds the window's largest
    speed."""

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("preset", ["ref-1d", "ref-radial3", "cert-linear-tau-1d"])
    def test_view_holds_the_grid_speed_and_jump(self, preset, recon, monkeypatch):
        # a window ends in a background cell on each side that does not meet
        # the grid's edge, so its largest speed and velocity jump are the grid's
        stepped, seen = solver._Workspace.step, []

        def checked(ws, a, b, t, dt):
            view = stepped(ws, a, b, t, dt)
            for i, inner in ((0, a > 0), (-1, b < ws.V.size)):
                assert not inner or (view.rho[i] == ws.eos.rho_bar and view.V[i] == 0.0)
            speed = signal_speed(ws.eos, ws.rho) + np.abs(ws.V)
            assert view.max_speed(ws.eos) == speed.max()
            assert np.abs(np.diff(view.V)).max() == np.abs(np.diff(ws.V)).max()
            seen.append(b - a)
            return view

        monkeypatch.setattr(solver._Workspace, "step", checked)
        trace = run(PRESETS[preset](512), SolverConfig(t_end=0.3, reconstruction=recon))
        assert len(seen) == trace.steps > 0 and min(seen) < 512

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_dt_within_the_window_unit_cfl_limit(self, preset, recon, monkeypatch):
        kernel, seen = solver._advance, []

        def checked(ws, a, b, t, dt):
            rho, mom = ws.U[:, a + 2:b + 2]
            limit = cfl_dt(FieldSnapshot(t, ws.centers[a:b], rho, mom / rho, ws.dx), ws.eos, cfl=1.0)
            assert 0 < dt <= limit
            seen.append(dt)
            kernel(ws, a, b, t, dt)

        monkeypatch.setattr(solver, "_advance", checked)
        trace = run(PRESETS[preset](512), SolverConfig(t_end=0.5, reconstruction=recon))
        # the constant presets have no perturbed cell to step
        assert len(seen) == (0 if preset.startswith("constant") else trace.steps)

    @pytest.mark.parametrize("recon", [MUSCL, FIRST_ORDER])
    @pytest.mark.parametrize("geom", [Geometry.cartesian1d(), Geometry.radial(3)])
    def test_nan_cell_stops_the_run(self, geom, recon):
        # the NaN makes the time step NaN, which the dt guard rejects
        class OneNaN(BumpProfile):
            def __call__(self, x):
                vals = super().__call__(x)
                vals[vals.size // 3] = np.nan
                return vals

        scen = dataclasses.replace(bump(geom, cells=128), rho0=OneNaN(0.01, 1.0))
        assert np.isnan(initial_snapshot(scen).rho).sum() == 1
        with pytest.raises(ValueError, match="^dt must be positive$"):
            run(scen, SolverConfig(t_end=0.5, reconstruction=recon))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_unstepped_half_of_an_unperturbed_1d_line_is_read_at_t0(self, value):
        # a 1-D run steps only the right half; a density of the left half that
        # is not finite still stops it, as it stops a whole-line run: a NaN at
        # the dt guard, an infinity (a zero time step) at the dt floor
        class OneBad(BumpProfile):
            def __call__(self, x):
                vals = super().__call__(x)
                vals[vals.size // 3] = value
                return vals

        scen = dataclasses.replace(bump(Geometry.cartesian1d(), cells=128, amp_v=0.0), rho0=OneBad(0.0, 1.0))
        if np.isnan(value):
            with pytest.raises(ValueError, match="^dt must be positive$"):
                run(scen, SolverConfig(t_end=0.5))
        else:
            trace = run(scen, SolverConfig(t_end=0.5))
            assert trace.stop == DT_FLOOR and trace.blowup.t == 0.0 and trace.steps == 0
