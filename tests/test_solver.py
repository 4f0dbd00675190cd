from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from anisodiff.domain import DomainBox, VelocityField, make_velocity
from anisodiff.errors import ConfigError, InstabilityError
from anisodiff.fields import (ScalarField, bilinear_matrix, fourier_mode, l2_norm_sq,
                              mean_zero_project, random_fourier_sum, sample_many)
from anisodiff import solver as solver_mod
from anisodiff.analysis import fit_decay
from anisodiff.solver import DecaySeries, SolverConfig, run
from conftest import ConstantFlow

MODE_EIGENVALUE = 2.0 * np.pi ** 2  # |k|^2 of sin(pi x) sin(pi y) on [-1,1)^2


def one_step(f, velocity, cfg):
    """The field after one dt: a run that ends after its first step."""
    return run(f, velocity, replace(cfg, t_end=cfg.dt, record_every=1)).final_state


class TestConfigValidation:
    def test_positive_fields(self):
        with pytest.raises(ConfigError):
            SolverConfig(kappa=-1, dt=1e-3, t_end=1.0)
        with pytest.raises(ConfigError):
            SolverConfig(kappa=0.1, dt=0.0, t_end=1.0)
        with pytest.raises(ConfigError):
            SolverConfig(kappa=0.1, dt=1e-3, t_end=-2.0)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            SolverConfig(kappa=0.1, dt=1e-3, t_end=1.0, scheme="magic")

    def test_record_every_bounds(self):
        with pytest.raises(ConfigError):
            SolverConfig(kappa=0.1, dt=1e-3, t_end=1.0, record_every=0)
        with pytest.raises(ConfigError, match="solver.record_every"):
            SolverConfig(kappa=0.1, dt=1e-3, t_end=1.0, record_every=True)
        # a stride longer than the run records t = 0 and the last step
        cfg = SolverConfig(kappa=0.1, dt=0.5, t_end=1.0, record_every=3)
        series = run(fourier_mode(DomainBox(1.0, 1.0, 8, 8)), VelocityField("zero"), cfg)
        assert list(series.times) == [0.0, 1.0]

    def test_cfl_enforced_for_upwind(self, box64, params23):
        vel = make_velocity(params23, 1.0, 1e-3)
        # dt far beyond 1 / max(2k/hx^2 + 2k/hy^2 + |u_x|/hx + |u_y|/hy)
        cfg = SolverConfig(kappa=0.05, dt=0.05, t_end=1.0, scheme="upwind")
        rho = fourier_mode(box64)
        with pytest.raises(ConfigError, match="solver.dt"):
            run(rho, vel, cfg)

    def test_cfl_no_bound_for_semi_lagrangian(self, box64, params23):
        vel = make_velocity(params23, 1.0, 1e-3)
        cfg = SolverConfig(kappa=0.05, dt=0.5, t_end=1.0, record_every=1)
        solver_mod._step_map(box64, vel, cfg)  # no error

    def test_compound_upwind_rejected_before_any_step(self):
        # each of the old per-mechanism bounds, 0.9 * min(h^2/4k, h/|u|), is
        # respected, but advection and diffusion add up: dt * max S = 2.7,
        # a centre weight of -1.7, and the largest admissible dt is dt / 2.7
        box = DomainBox(1.0, 1.0, 32, 32)
        kappa = 0.05
        h = box.hx
        c = 4 * kappa / h  # makes the two old bounds equal
        dt = 0.9 * h * h / (4 * kappa)
        cfg = SolverConfig(kappa=kappa, dt=dt, t_end=200 * dt, scheme="upwind",
                           record_every=1)
        vel = ConstantFlow(c, c)
        with pytest.raises(ConfigError, match="solver.dt") as err:
            run(fourier_mode(box, 4, 4), vel, cfg)
        assert f"needs dt <= {dt / 2.7:.3e}" in str(err.value)

    def test_upwind_bound_is_the_reported_dt(self, box64, params23):
        # just below the dt the error reports, the step map builds; just above, not
        vel = make_velocity(params23, 1.0, 1e-3)

        def step_map(dt):
            cfg = SolverConfig(kappa=0.05, dt=dt, t_end=dt, scheme="upwind",
                               record_every=1)
            return solver_mod._step_map(box64, vel, cfg)

        with pytest.raises(ConfigError, match="solver.dt") as err:
            step_map(0.05)
        bound = float(str(err.value).rsplit("dt <= ", 1)[1])
        P, _ = step_map(bound * (1 - 1e-3))
        assert np.all(P.data >= 0.0)
        with pytest.raises(ConfigError, match="solver.dt"):
            step_map(bound * (1 + 1e-3))


class TestDiffusionStep:
    def test_zero_field_stays_zero(self, box64):
        cfg = SolverConfig(kappa=0.1, dt=1e-2, t_end=1.0)
        zero = mean_zero_project(ScalarField(box64, np.zeros((64, 64))))
        out = one_step(zero, VelocityField("zero"), cfg)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("kappa,dt", [(0.5, 0.1), (0.01, 1e-3)])
    def test_cn_factor_close_to_heat_kernel(self, box64, kappa, dt):
        # one mode: CN multiplies by (1 - a/2)/(1 + a/2), a = kappa |k|^2 dt,
        # which matches exp(-a) to O(a^3)
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=kappa, dt=dt, t_end=1.0)
        out = one_step(rho, VelocityField("zero"), cfg)
        a = kappa * MODE_EIGENVALUE * dt
        measured = out.values[10, 20] / rho.values[10, 20]
        cn = (1 - a / 2) / (1 + a / 2)
        assert measured == pytest.approx(cn, abs=1e-12)
        assert abs(measured - np.exp(-a)) <= a ** 3

    def test_cn_third_order_step_error(self, box64):
        # small a = kappa |k|^2 dt so the O(a^3) term dominates the defect
        rho = fourier_mode(box64, 1, 1)
        kappa = 0.05
        errs = []
        for dt in (0.2, 0.1, 0.05):
            cfg = SolverConfig(kappa=kappa, dt=dt, t_end=1.0, record_every=1)
            out = one_step(rho, VelocityField("zero"), cfg)
            a = kappa * MODE_EIGENVALUE * dt
            errs.append(abs(out.values[5, 7] / rho.values[5, 7] - np.exp(-a)))
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(8.0, rel=0.25)

    def test_requires_mean_zero(self, box64):
        cfg = SolverConfig(kappa=0.1, dt=1e-2, t_end=1.0)
        shifted = fourier_mode(box64)
        shifted.values += 1.0   # the mean is checked on the values run gets
        for raw in (ScalarField(box64, np.ones((64, 64))), shifted):
            with pytest.raises(ConfigError):
                one_step(raw, VelocityField("zero"), cfg)


class TestSemiLagrangianAdvection:
    def test_rigid_translation_integer_cells(self, box64):
        # kappa = 0, constant u, displacement exactly (2, 1) cells: the
        # backward characteristic lands on grid nodes, so the step is a roll
        rho = random_fourier_sum(box64, 3, seed=2)
        dt = 0.1
        cx = 2 * box64.hx / dt
        cy = 1 * box64.hy / dt
        cfg = SolverConfig(kappa=0.0, dt=dt, t_end=1.0)
        out = one_step(rho, ConstantFlow(cx, cy), cfg)
        assert np.allclose(out.values, np.roll(rho.values, (2, 1), axis=(0, 1)),
                           atol=1e-12)
        assert l2_norm_sq(out) == pytest.approx(l2_norm_sq(rho), rel=1e-12)

    def test_generic_translation_small_loss(self, box64):
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=0.0, dt=0.1, t_end=1.0)
        vel = ConstantFlow(0.37 * box64.hx / 0.1, 0.0)
        out = one_step(rho, vel, cfg)
        ratio = l2_norm_sq(out) / l2_norm_sq(rho)
        assert 0.995 <= ratio <= 1.0 + 1e-12

    def test_advection_alone_preserves_norm(self, params23):
        # stream-function stirring without diffusion: semi-Lagrangian
        # dissipation stays under 2% per unit time at default resolution
        box = DomainBox(1.0, 1.0, 128, 128)
        rho = fourier_mode(box, 1, 1)
        vel = make_velocity(params23, 0.5, 1e-3)
        cfg = SolverConfig(kappa=0.0, dt=0.1, t_end=1.0, record_every=1)
        series = run(rho, vel, cfg)
        loss = 1.0 - series.norms_sq[-1] / series.norms_sq[0]
        print(f"\nadvection-only norm loss over t=1: {loss * 100:.2f}%")
        assert loss < 0.02


class TestSemiLagrangianStep:
    """One solver step follows the documented midpoint rule bit for bit."""

    @staticmethod
    def reference_step(f, vel, kappa, dt):
        box = f.box
        xg, yg = box.grid()
        ux, uy = vel.velocity(xg, yg)
        xm = box.wrap_x(xg - 0.5 * dt * ux)
        ym = box.wrap_y(yg - 0.5 * dt * uy)
        uxm, uym = vel.velocity(xm, ym)
        vals = sample_many(f, box.wrap_x(xg - dt * uxm), box.wrap_y(yg - dt * uym))
        kx = 2.0 * np.pi * np.fft.fftfreq(box.nx, d=box.hx)
        ky = 2.0 * np.pi * np.fft.rfftfreq(box.ny, d=box.hy)
        a = 0.5 * kappa * dt * (kx[:, None] ** 2 + ky[None, :] ** 2)
        vh = np.fft.rfft2(vals)
        vh *= (1.0 - a) / (1.0 + a)
        vh[0, 0] = 0.0
        return ScalarField(box, np.fft.irfft2(vh, s=vals.shape))

    @pytest.mark.parametrize("box", [DomainBox(1.0, 1.0, 64, 64),
                                     DomainBox(0.7, 0.7, 24, 24)],
                             ids=["64sq", "nondyadic24"])
    def test_stream_step_matches_midpoint_rule(self, box, params23):
        rho = random_fourier_sum(box, 3, seed=4)
        vel = make_velocity(params23, 1.0, 1e-3)
        cfg = SolverConfig(kappa=0.01, dt=0.05, t_end=1.0)
        out = one_step(rho, vel, cfg)
        ref = self.reference_step(rho, vel, cfg.kappa, cfg.dt)
        assert np.array_equal(out.values, ref.values)


class TestRun:
    def test_heat_decay_against_analytic(self, box128):
        rho = fourier_mode(box128, 1, 1)
        cfg = SolverConfig(kappa=0.01, dt=1e-3, t_end=1.0, record_every=10)
        series = run(rho, VelocityField("zero"), cfg)
        expect = np.exp(-2 * 0.01 * MODE_EIGENVALUE * series.times)
        assert np.max(np.abs(series.norms_sq / series.norms_sq[0] - expect)) < 1e-2

    def test_series_starts_at_initial_norm(self, box64):
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=0.05, dt=1e-2, t_end=0.5, record_every=5)
        series = run(rho, VelocityField("zero"), cfg)
        assert series.times[0] == 0.0
        assert series.norms_sq[0] == pytest.approx(l2_norm_sq(rho), rel=1e-14)
        assert series.dissipation[0] == 0.0

    def test_final_step_recorded(self, box64):
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=0.05, dt=1e-2, t_end=0.25, record_every=7)
        series = run(rho, VelocityField("zero"), cfg)
        assert series.times[-1] == pytest.approx(0.25)
        # interior samples spaced record_every * dt
        assert np.allclose(np.diff(series.times[:-1]), 0.07)

    def test_stride_beyond_the_run_matches_the_run_length(self, box64, params23):
        # 10 steps: a stride of 11 or 1000 samples what a stride of 10 samples
        rho, vel = fourier_mode(box64, 1, 2), make_velocity(params23, 1.0, 1e-3)
        ref = run(rho, vel, SolverConfig(kappa=0.05, dt=1e-2, t_end=0.1, record_every=10))
        for stride in (11, 1000):
            series = run(rho, vel, SolverConfig(kappa=0.05, dt=1e-2, t_end=0.1,
                                                record_every=stride))
            for name in ("times", "norms_sq", "dissipation"):
                assert np.array_equal(getattr(series, name), getattr(ref, name)), name
            assert np.array_equal(series.final_state.values, ref.final_state.values)

    def test_readme_step_recipe_at_the_default_stride(self, box64, params23):
        # README's replacement for anisodiff.step: run with t_end = dt, then
        # .final_state, from a SolverConfig with the default record_every of 10
        cfg = SolverConfig(kappa=0.05, dt=1e-2, t_end=1.0)
        rho, vel = fourier_mode(box64, 1, 2), make_velocity(params23, 1.0, 1e-3)
        series = run(rho, vel, replace(cfg, t_end=cfg.dt))
        assert list(series.times) == [0.0, cfg.dt]
        assert np.array_equal(series.final_state.values, one_step(rho, vel, cfg).values)

    def test_norms_non_increasing(self, box64, params23):
        rho = random_fourier_sum(box64, 3, seed=3)
        vel = make_velocity(params23, 0.5, 1e-3)
        cfg = SolverConfig(kappa=0.02, dt=0.02, t_end=1.0, record_every=1)
        series = run(rho, vel, cfg)
        assert np.all(np.diff(series.norms_sq) <= 1e-12 * series.norms_sq[0])

    @pytest.mark.parametrize("scheme,dt", [("sl_cn", 0.02), ("upwind", 0.005)],
                             ids=["sl_cn", "upwind"])
    def test_mean_preserved_along_run(self, box64, params23, scheme, dt):
        # the upwind matrix does not conserve the mean; its step map projects
        vel = make_velocity(params23, 1.0, 1e-3)
        cfg = SolverConfig(kappa=0.01, dt=dt, t_end=1.0, scheme=scheme)
        f = random_fourier_sum(box64, 2, seed=5)
        for _ in range(20):
            f = one_step(f, vel, cfg)
            assert abs(np.mean(f.values)) <= 1e-10 * np.max(np.abs(f.values))
        series = run(random_fourier_sum(box64, 2, seed=5), vel, cfg)
        final = series.final_state
        assert abs(np.mean(final.values)) <= 1e-10 * np.max(np.abs(final.values))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, bad):
        # a NaN passes the mean-zero check, abs(nan) > tol * nan being False
        box = DomainBox(1.0, 1.0, 16, 16)
        values = fourier_mode(box, 1, 1).values.copy()
        values[3, 5] = bad
        with pytest.raises(ConfigError, match="rho0 must be finite"):
            run(ScalarField(box, values), VelocityField("zero"),
                SolverConfig(kappa=0.1, dt=1e-2, t_end=0.1))

    def test_requires_mean_zero_input(self, box64):
        cfg = SolverConfig(kappa=0.1, dt=1e-2, t_end=0.1)
        with pytest.raises(ConfigError):
            run(ScalarField(box64, np.ones((64, 64))), VelocityField("zero"), cfg)

    def test_accepts_mean_zero_values_without_projection(self, box64):
        # mean-zero by symmetry, built without mean_zero_project
        rho = ScalarField(box64, fourier_mode(box64).values.copy())
        cfg = SolverConfig(kappa=0.1, dt=1e-2, t_end=0.1)
        series = run(rho, VelocityField("zero"), cfg)
        assert series.norms_sq[0] == l2_norm_sq(rho)


class TestEnergyIdentity:
    """(||rho0||^2 - ||rho(t)||^2) / 2 = kappa * integral ||grad rho||^2 ds."""

    def _identity_error(self, series):
        lhs = 0.5 * (series.norms_sq[0] - series.norms_sq[-1])
        rhs = series.dissipation[-1]
        return abs(lhs / rhs - 1.0)

    def test_pure_diffusion(self, box128):
        rho = fourier_mode(box128, 1, 1)
        cfg = SolverConfig(kappa=0.01, dt=1e-3, t_end=1.0, record_every=10)
        err = self._identity_error(run(rho, VelocityField("zero"), cfg))
        print(f"\nenergy identity (u=0) rel error: {err:.2e}")
        assert err < 1e-2

    def test_stream_function_field(self, box128, params23):
        rho = fourier_mode(box128, 1, 1)
        vel = make_velocity(params23, 0.1, 1e-3)
        cfg = SolverConfig(kappa=0.05, dt=1e-3, t_end=1.0, record_every=10)
        err = self._identity_error(run(rho, vel, cfg))
        print(f"\nenergy identity (stream field) rel error: {err:.2e}")
        assert err < 1e-2


class TestRefinement:
    def test_halving_h_and_dt_cuts_error(self):
        # against the exact heat solution; expect >= 3x (second order)
        kappa, t_end = 0.05, 0.2
        errs = []
        for n, dt in ((32, 2e-3), (64, 1e-3)):
            box = DomainBox(1.0, 1.0, n, n)
            rho = fourier_mode(box, 1, 1)
            cfg = SolverConfig(kappa=kappa, dt=dt, t_end=t_end, record_every=10)
            series = run(rho, VelocityField("zero"), cfg)
            exact = np.exp(-2 * kappa * MODE_EIGENVALUE * t_end) * series.norms_sq[0]
            errs.append(abs(series.norms_sq[-1] - exact))
        print(f"\nrefinement errors: {errs[0]:.3e} -> {errs[1]:.3e} "
              f"(ratio {errs[0] / errs[1]:.2f})")
        assert errs[0] / errs[1] >= 3.0


class TestUpwindBackend:
    def test_heat_decay(self, box64):
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=0.01, dt=0.02, t_end=1.0, scheme="upwind",
                           record_every=5)
        series = run(rho, VelocityField("zero"), cfg)
        rate = np.log(series.norms_sq[0] / series.norms_sq[-1]) / series.times[-1]
        assert rate == pytest.approx(2 * 0.01 * MODE_EIGENVALUE, rel=2e-2)

    def test_cross_check_against_semi_lagrangian(self, box64, params23):
        # upwind adds numerical diffusion ~ |u| h / 2, so expect agreement
        # only at the tens-of-percent level on the decay factor
        rho = fourier_mode(box64, 1, 1)
        vel = make_velocity(params23, 0.3, 1e-3)
        t_end = 0.3
        up = run(rho, vel, SolverConfig(kappa=0.05, dt=4e-3, t_end=t_end,
                                        scheme="upwind", record_every=5))
        sl = run(rho, vel, SolverConfig(kappa=0.05, dt=4e-3, t_end=t_end,
                                        record_every=5))
        assert up.norms_sq[-1] == pytest.approx(sl.norms_sq[-1], rel=0.25)
        assert up.norms_sq[-1] < sl.norms_sq[-1]  # extra dissipation


def roll_upwind_step(v, vel, box, kappa, dt):
    """One explicit upwind step written with np.roll: the reference the
    stencil matrix is checked against."""
    ux, uy = vel.velocity(*box.grid())
    hx, hy = box.hx, box.hy
    adv = (np.maximum(ux, 0.0) * (v - np.roll(v, 1, axis=0))
           + np.minimum(ux, 0.0) * (np.roll(v, -1, axis=0) - v)) / hx
    adv += (np.maximum(uy, 0.0) * (v - np.roll(v, 1, axis=1))
            + np.minimum(uy, 0.0) * (np.roll(v, -1, axis=1) - v)) / hy
    lap = (np.roll(v, -1, axis=0) - 2.0 * v + np.roll(v, 1, axis=0)) / hx ** 2
    lap += (np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)) / hy ** 2
    return v + dt * (kappa * lap - adv)


class TestStepMap:
    """The sparse step matrices keep the invariants the schemes rely on."""

    @pytest.mark.parametrize("box", [DomainBox(1.0, 1.0, 64, 64),
                                     DomainBox(0.7, 0.7, 24, 24)],
                             ids=["64sq", "nondyadic24"])
    def test_bilinear_rows_are_convex(self, box, params23):
        x, y = solver_mod._departure_points(box, make_velocity(params23, 1.0, 1e-3), 0.05)
        P = bilinear_matrix(box, x, y)
        assert np.array_equal(np.diff(P.indptr), np.full(box.nx * box.ny, 4))
        assert np.all((P.data >= 0.0) & (P.data <= 1.0))
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 4 * np.finfo(float).eps
        rho = random_fourier_sum(box, 3, seed=4)
        assert np.array_equal(P @ rho.values.ravel(), sample_many(rho, x, y).ravel())

    @pytest.mark.parametrize("box", [DomainBox(1.0, 1.0, 64, 64),
                                     DomainBox(0.7, 1.0, 24, 16)],
                             ids=["64sq", "rect24x16"])
    def test_upwind_matrix_matches_roll_stencil(self, box, params23):
        vel = make_velocity(params23, 0.3, 1e-3)
        cfg = SolverConfig(kappa=0.05, dt=2e-3, t_end=1.0, scheme="upwind")
        P, factor = solver_mod._step_map(box, vel, cfg)
        assert factor[0, 0] == 0.0
        assert np.all(np.delete(factor.ravel(), 0) == 1.0)
        assert np.all(P.data >= 0.0)
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12
        rho = random_fourier_sum(box, 3, seed=4)
        ref = mean_zero_project(ScalarField(box, roll_upwind_step(
            rho.values, vel, box, cfg.kappa, cfg.dt)))
        out = one_step(rho, vel, cfg)
        assert np.max(np.abs(out.values - ref.values)) <= 1e-14 * np.max(np.abs(ref.values))


def scaled_identity(c):
    """A stand-in for solver._step_map whose step multiplies the field by c
    and, like the real one, drops the zero mode."""
    def step_map(box, velocity, cfg):
        factor = np.ones((box.nx, box.ny // 2 + 1))
        factor[0, 0] = 0.0
        return c * sparse.identity(box.nx * box.ny, format="csr"), factor
    return step_map


class TestInstability:
    def test_one_step_breaker(self, box64, monkeypatch):
        # a step map that multiplies by 11 breaks the one-step limit at once
        monkeypatch.setattr(solver_mod, "_step_map", scaled_identity(11.0))
        cfg = SolverConfig(kappa=0.01, dt=0.01, t_end=1.0)
        with pytest.raises(InstabilityError) as err:
            run(fourier_mode(box64, 4, 4), VelocityField("zero"), cfg)
        assert err.value.time == pytest.approx(cfg.dt)
        assert "in one step" in str(err.value)

    def test_slow_blowup_breaker(self, monkeypatch):
        # 1.5x a step stays under the one-step limit, and no sample is
        # recorded before 1.5**12 passes GROWTH_LIMIT**2 = 100
        monkeypatch.setattr(solver_mod, "_step_map", scaled_identity(1.5))
        cfg = SolverConfig(kappa=0.01, dt=0.01, t_end=0.2, record_every=20)
        with pytest.raises(InstabilityError, match="exceeded 100x the initial value") as err:
            run(fourier_mode(DomainBox(1.0, 1.0, 16, 16)), VelocityField("zero"), cfg)
        assert err.value.time == pytest.approx(0.12)


class TestEnergyGrowth:
    """A rising energy series is a numerical failure, not a config error."""

    def test_run_raises_instability(self, box64, monkeypatch):
        # 1.01x per step: below the one-step breaker
        monkeypatch.setattr(solver_mod, "_step_map", scaled_identity(1.01))
        cfg = SolverConfig(kappa=0.01, dt=0.01, t_end=0.5, record_every=5)
        with pytest.raises(InstabilityError) as err:
            run(fourier_mode(box64, 1, 1), VelocityField("zero"), cfg)
        assert err.value.time == pytest.approx(0.05)


class TestDecaySeries:
    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigError):
            DecaySeries(np.array([0.0, 1.0]), np.array([1.0, -0.1]),
                        np.array([0.0, 0.1]))

    @pytest.mark.parametrize("name", ["times", "norms_sq", "dissipation"])
    def test_non_finite_rejected(self, name):
        # a NaN would otherwise drop out of fit_decay's window mask unseen
        columns = dict(times=np.linspace(0.0, 1.0, 4),
                       norms_sq=np.array([1.0, 0.5, 0.2, 0.1]),
                       dissipation=np.array([0.0, 0.2, 0.3, 0.4]))
        columns[name][2] = np.nan
        with pytest.raises(ConfigError, match=f"series.{name}"):
            DecaySeries(**columns)

    def test_times_strictly_increasing(self):
        with pytest.raises(ConfigError):
            DecaySeries(np.array([0.0, 1.0, 1.0]), np.array([1.0, 0.5, 0.4]),
                        np.array([0.0, 0.1, 0.2]))

    def test_csv_format(self, box64):
        rho = fourier_mode(box64, 1, 1)
        cfg = SolverConfig(kappa=0.05, dt=1e-2, t_end=0.2, record_every=5)
        text = run(rho, VelocityField("zero"), cfg).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "t,norm_sq,dissipation"
        assert lines[1].startswith("0.0,")
        assert len(lines) == 1 + 5  # t=0 plus 4 records


class TestAmplitudeTimeScaling:
    """s = A t turns rho_t + A u.grad rho = kappa lap rho into the A = 1
    equation at kappa / A.  Both step maps are built from u dt and kappa dt,
    so for A a power of 2 the run at (A, kappa A, dt / A, t_end / A) has the
    bits of the A = 1 run at (kappa, dt, t_end)."""

    @pytest.mark.parametrize("scheme,dt,t_end,a", [
        ("sl_cn", 0.05, 2.0, 2.0), ("sl_cn", 0.05, 2.0, 0.5), ("sl_cn", 0.05, 2.0, 4.0),
        ("upwind", 0.004, 0.4, 2.0), ("upwind", 0.004, 0.4, 0.5)])
    def test_run_keeps_its_bits(self, box64, params23, scheme, dt, t_end, a):
        rho = random_fourier_sum(box64, seed=0)

        def run_at(amp):
            cfg = SolverConfig(kappa=0.01 * amp, dt=dt / amp, t_end=t_end / amp,
                               scheme=scheme, record_every=1)
            return run(rho, make_velocity(params23, amp, 1e-3), cfg)

        one, scaled = run_at(1.0), run_at(a)
        assert np.array_equal(scaled.times * a, one.times)
        assert np.array_equal(scaled.norms_sq, one.norms_sq)
        assert np.array_equal(scaled.dissipation, one.dissipation)
        assert np.array_equal(scaled.final_state.values, one.final_state.values)
        if scheme == "sl_cn":
            assert fit_decay(scaled).rate / a == fit_decay(one).rate


BOTH, X_ONLY, Y_ONLY = np.s_[::-1, ::-1], np.s_[::-1, :], np.s_[:, ::-1]


class TestMirrorSymmetry:
    """f and g are even, so the stream flow is odd, u(-z) = -u(z): the run from
    rho0(-z) is the point reflection of the run from rho0.  The shear flow
    (A g(y), 0) keeps y -> -y only.  The cell centres of the box are exactly
    symmetric about 0, so the reflected runs differ only in the order of
    their sums; a mirror that is no symmetry of the flow moves the field by
    O(max|rho|)."""

    @pytest.mark.parametrize("scheme,dt,t_end", [("sl_cn", 0.05, 2.0), ("upwind", 0.004, 0.4)])
    @pytest.mark.parametrize("family,mirror,others", [
        ("stream", BOTH, (X_ONLY, Y_ONLY)), ("shear", Y_ONLY, (BOTH, X_ONLY))])
    def test_reflected_start_gives_the_reflected_run(self, box64, params23, family,
                                                     mirror, others, scheme, dt, t_end):
        rho = random_fourier_sum(box64, seed=0)
        vel = VelocityField(family, params23, 1.0, 1e-3)
        cfg = SolverConfig(kappa=0.01, dt=dt, t_end=t_end, scheme=scheme, record_every=1)
        one = run(rho, vel, cfg)
        scale = np.max(np.abs(one.final_state.values))

        def reflected_gap(flip):
            other = run(ScalarField(box64, rho.values[flip]), vel, cfg)
            gap = np.max(np.abs(other.final_state.values[flip] - one.final_state.values))
            return gap / scale, np.max(np.abs(other.norms_sq / one.norms_sq - 1.0))

        assert max(reflected_gap(mirror)) <= 1e-12
        for flip in others:
            assert reflected_gap(flip)[0] > 0.1
