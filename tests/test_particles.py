import numpy as np
import pytest

from anisodiff.domain import AnisotropyParams, DomainBox, VelocityField, make_velocity
from anisodiff.errors import ConfigError
from anisodiff.fields import fourier_mode, random_fourier_sum, sample_many
from anisodiff import particles
from anisodiff.particles import (ParticleEnsemble, _substream, feynman_kac,
                                 make_ensemble, sde_step, variance_integral,
                                 variance_integral_stderr, VarianceMap)
from anisodiff.solver import SolverConfig, run

MODE_EIGENVALUE = 2.0 * np.pi ** 2


def evolve(ens, velocity, t, m, **kw):
    ds = t / m
    for _ in range(m):
        ens = sde_step(ens, velocity, ds, **kw)
    return ens


class TestSdeStep:
    def test_frozen_without_noise_or_drift(self, box64):
        ens = make_ensemble(box64, 100, 0.2, -0.3, kappa=0.0, seed=1)
        out = evolve(ens, VelocityField.zero(), 1.0, 10)
        assert np.array_equal(out.x, ens.x0)
        assert np.array_equal(out.y, ens.y0)
        assert out.elapsed == pytest.approx(1.0)

    def test_constant_drift_backward_shift(self, box64):
        # backward trajectories shift by -c t for a constant field
        c, t = 0.4, 0.75
        ens = make_ensemble(box64, 50, 0.1, 0.0, kappa=0.0, seed=2)
        out = evolve(ens, VelocityField.of_constant(c, 0.0), t, 30)
        dx, dy = out.displacement()
        assert np.allclose(dx, -c * t, atol=1e-12)
        assert np.allclose(dy, 0.0, atol=1e-12)

    def test_literal_signs_flip_the_drift(self, box64):
        c, t = 0.4, 0.5
        ens = make_ensemble(box64, 10, 0.0, 0.0, kappa=0.0, seed=3)
        out = evolve(ens, VelocityField.of_constant(c, 0.0), t, 20,
                     literal_signs=True)
        dx, _ = out.displacement()
        assert np.allclose(dx, +c * t, atol=1e-12)

    def test_brownian_moments(self, box64):
        # u = 0: displacements are exactly N(0, 2 kappa t) per axis
        kappa, t, n = 0.01, 1.0, 20000
        ens = make_ensemble(box64, n, 0.0, 0.0, kappa=kappa, seed=11)
        out = evolve(ens, VelocityField.zero(), t, 100)
        dx, dy = out.displacement()
        target = 2 * kappa * t
        se_mean = np.sqrt(target / n)
        se_var = target * np.sqrt(2.0 / (n - 1))
        for d in (dx, dy):
            assert abs(np.mean(d)) < 3 * se_mean
            assert abs(np.var(d, ddof=1) - target) < 3 * se_var

    def test_positions_stay_wrapped(self, box64):
        ens = make_ensemble(box64, 500, 0.9, 0.9, kappa=0.5, seed=4)
        out = evolve(ens, VelocityField.of_constant(2.0, -3.0), 2.0, 40)
        assert np.all(out.x >= -1.0) and np.all(out.x < 1.0)
        assert np.all(out.y >= -1.0) and np.all(out.y < 1.0)

    def test_determinism(self, box64):
        par = AnisotropyParams(p=2, q=3)
        vel = make_velocity(par, 0.5, 1e-3)
        a = evolve(make_ensemble(box64, 200, 0.1, 0.2, 0.02, seed=7), vel, 0.5, 50)
        b = evolve(make_ensemble(box64, 200, 0.1, 0.2, 0.02, seed=7), vel, 0.5, 50)
        c = evolve(make_ensemble(box64, 200, 0.1, 0.2, 0.02, seed=8), vel, 0.5, 50)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, c.x)

    def test_input_validation(self, box64):
        ens = make_ensemble(box64, 10, 0, 0, 0.1, seed=0)
        with pytest.raises(ConfigError):
            sde_step(ens, VelocityField.zero(), 0.0)
        with pytest.raises(ConfigError):
            sde_step(ens, VelocityField.zero(), 0.1, dW=np.zeros((2, 5)))
        with pytest.raises(ConfigError):
            make_ensemble(box64, 0, 0, 0, 0.1, seed=0)


class TestStrongOrder:
    def test_common_random_numbers_refinement(self, box64):
        # same Brownian path at three resolutions: endpoint differences
        # between successive levels scale like ds (strong order 1)
        par = AnisotropyParams(p=2, q=3)
        vel = make_velocity(par, 0.5, 1e-3)
        kappa, t, n, m_fine = 0.05, 0.5, 400, 80
        rng = np.random.default_rng(99)
        start = rng.uniform(-0.9, 0.9, size=(2, n))
        fine_dw = np.sqrt(t / m_fine) * rng.standard_normal((m_fine, 2, n))

        def integrate(level):  # level 1: ds = t/80, 2: t/40, 4: t/20
            m = m_fine // level
            ens = make_ensemble(box64, n, 0.0, 0.0, kappa, seed=0)
            ens.x[:] = start[0]
            ens.y[:] = start[1]
            ds = t / m
            for k in range(m):
                dw = fine_dw[k * level:(k + 1) * level].sum(axis=0)
                ens = sde_step(ens, vel, ds, dW=dw)
            return ens

        e1, e2, e4 = integrate(1), integrate(2), integrate(4)
        d21 = np.sqrt(np.mean(box64.wrap_x(e2.x - e1.x) ** 2
                              + box64.wrap_y(e2.y - e1.y) ** 2))
        d42 = np.sqrt(np.mean(box64.wrap_x(e4.x - e2.x) ** 2
                              + box64.wrap_y(e4.y - e2.y) ** 2))
        print(f"\nstrong-order refinement: d(2,1)={d21:.3e} d(4,2)={d42:.3e} "
              f"ratio={d42 / d21:.2f}")
        assert 1.3 < d42 / d21 < 3.0


class TestFeynmanKac:
    def test_rejects_degenerate_input(self, box64):
        rho = fourier_mode(box64, 1, 1)
        with pytest.raises(ConfigError):
            feynman_kac(rho, VelocityField.zero(), 1.0, 0.1, 1, 0.1, seed=0)
        with pytest.raises(ConfigError):
            feynman_kac(rho, VelocityField.zero(), 0.0, 0.1, 100, 0.1, seed=0)
        with pytest.raises(ConfigError):
            feynman_kac(rho, VelocityField.zero(), 1.0, 0.1, 100, 2.0, seed=0)

    def test_short_time_limit(self, box64):
        # one tiny step: mean ~ rho0, variance ~ 2 kappa t |grad rho0|^2
        rho = fourier_mode(box64, 1, 1)
        launch = DomainBox(1.0, 1.0, 16, 16)
        mean, vmap = feynman_kac(rho, VelocityField.zero(), t=0.01, kappa=0.05,
                                 n=4000, ds=0.01, seed=5, launch_box=launch)
        rho_at_launch = sample_many(rho, *launch.grid())
        assert np.max(np.abs(mean.values - rho_at_launch)) < 0.02
        assert np.max(vmap.values) < 0.02

    def test_deterministic_trajectories_zero_variance(self, box64):
        par = AnisotropyParams(p=2, q=3)
        vel = make_velocity(par, 0.5, 1e-3)
        rho = fourier_mode(box64, 1, 1)
        launch = DomainBox(1.0, 1.0, 8, 8)
        _, vmap = feynman_kac(rho, vel, t=0.2, kappa=0.0, n=50, ds=0.01,
                              seed=6, launch_box=launch)
        assert np.all(vmap.values == 0.0)

    def test_matches_pde_solver_diffusion_only(self, box64):
        kappa, t = 0.05, 0.3
        rho = fourier_mode(box64, 1, 1)
        launch = DomainBox(1.0, 1.0, 16, 16)
        n = 2000
        mean, vmap = feynman_kac(rho, VelocityField.zero(), t, kappa, n=n,
                                 ds=5e-3, seed=12, launch_box=launch)
        series = run(rho, VelocityField.zero(),
                     SolverConfig(kappa=kappa, dt=2e-3, t_end=t, record_every=10))
        pde_at_launch = sample_many(series.final_state, *launch.grid())
        err = np.sqrt(np.sum((mean.values - pde_at_launch) ** 2)
                      * launch.hx * launch.hy)
        sigma = np.sqrt(variance_integral(vmap) / n)
        print(f"\nFK vs PDE (u=0): L2 err={err:.4f}, pooled sigma={sigma:.4f}")
        assert err <= 3.0 * sigma

    def test_bitwise_determinism(self, box64):
        rho = fourier_mode(box64, 1, 1)
        launch = DomainBox(1.0, 1.0, 8, 8)
        args = dict(t=0.2, kappa=0.05, n=300, ds=0.02, seed=21, launch_box=launch)
        m1, v1 = feynman_kac(rho, VelocityField.zero(), **args)
        m2, v2 = feynman_kac(rho, VelocityField.zero(), **args)
        assert np.array_equal(m1.values, m2.values)
        assert np.array_equal(v1.values, v2.values)

    def test_disjoint_substreams_agree(self, box64):
        rho = fourier_mode(box64, 1, 1)
        launch = DomainBox(1.0, 1.0, 16, 16)
        args = dict(t=0.5, kappa=0.05, n=2000, ds=0.01, launch_box=launch)
        _, va = feynman_kac(rho, VelocityField.zero(), seed=101, **args)
        _, vb = feynman_kac(rho, VelocityField.zero(), seed=202, **args)
        ia, ib = variance_integral(va), variance_integral(vb)
        joint = np.hypot(variance_integral_stderr(va), variance_integral_stderr(vb))
        print(f"\nsubstream check: {ia:.4f} vs {ib:.4f} (3 sigma = {3 * joint:.4f})")
        assert abs(ia - ib) <= 3.0 * joint

    def test_mean_error_shrinks_like_sqrt_n(self, box64):
        # against the exact heat factor: rms error halves when n quadruples
        kappa, t = 0.05, 0.2
        rho = fourier_mode(box64, 1, 1)
        launch = DomainBox(1.0, 1.0, 16, 16)
        exact = np.exp(-kappa * MODE_EIGENVALUE * t) * sample_many(rho, *launch.grid())
        errs = []
        for n in (500, 2000, 8000):
            mean, _ = feynman_kac(rho, VelocityField.zero(), t, kappa, n=n,
                                  ds=5e-3, seed=31, launch_box=launch)
            errs.append(np.sqrt(np.mean((mean.values - exact) ** 2)))
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        print(f"\n1/sqrt(n) scaling: errors {errs[0]:.2e} {errs[1]:.2e} "
              f"{errs[2]:.2e}; ratios {r1:.2f}, {r2:.2f}")
        assert 1.4 < r1 < 2.9
        assert 1.4 < r2 < 2.9

    def test_variance_matches_moment_decomposition(self, box64):
        # unbiased variance == (E[w^2] - E[w]^2) * n/(n-1) on the same draws
        rho = fourier_mode(box64, 1, 1)
        launch = DomainBox(1.0, 1.0, 8, 8)
        n = 500
        mean, vmap = feynman_kac(rho, VelocityField.zero(), t=0.3, kappa=0.05,
                                 n=n, ds=0.01, seed=41, launch_box=launch)
        reconstructed = (vmap.second_moment - mean.values ** 2) * n / (n - 1)
        assert np.allclose(vmap.values, reconstructed, rtol=1e-9, atol=1e-12)


class TestSingleKernel:
    """sde_step and feynman_kac advance particles through one Euler-Maruyama kernel."""

    @pytest.fixture
    def stream_case(self, box64, params23):
        rho = random_fourier_sum(box64, 3, seed=5)
        vel = make_velocity(params23, 0.5, 1e-3)
        launch = DomainBox(1.0, 1.0, 8, 10)
        return rho, vel, launch

    @pytest.mark.parametrize("chunk", [1, 5, 32, 1000])
    def test_feynman_kac_batching_invariant(self, stream_case, monkeypatch, chunk):
        rho, vel, launch = stream_case
        args = dict(t=0.2, kappa=0.05, n=60, ds=0.02, seed=17, launch_box=launch,
                    stream=3)
        ref_mean, ref_var = feynman_kac(rho, vel, **args)
        monkeypatch.setattr(particles, "_POINT_CHUNK", chunk)
        mean, vmap = feynman_kac(rho, vel, **args)
        assert np.array_equal(mean.values, ref_mean.values)
        assert np.array_equal(vmap.values, ref_var.values)
        assert np.array_equal(vmap.second_moment, ref_var.second_moment)
        assert np.array_equal(vmap.var_of_var, ref_var.var_of_var)

    @pytest.mark.parametrize("k", [0, 37, 79])
    def test_sde_step_reproduces_feynman_kac_point(self, stream_case, k):
        rho, vel, launch = stream_case
        t, kappa, n, m, seed, stream = 0.2, 0.05, 400, 10, 23, 1
        mean, vmap = feynman_kac(rho, vel, t, kappa, n, t / m, seed,
                                 launch_box=launch, stream=stream)
        i, j = divmod(k, launch.ny)
        ens = ParticleEnsemble(box=launch, x=np.full(n, launch.x_centers()[i]),
                               y=np.full(n, launch.y_centers()[j]), kappa=kappa,
                               rng_seed=seed, rng=_substream(seed, stream, k))
        ens = evolve(ens, vel, t, m)
        w = sample_many(rho, ens.x, ens.y)
        assert abs(w.mean() - mean.values[i, j]) <= 1e-12
        assert abs(w.var(ddof=1) - vmap.values[i, j]) <= 1e-12


class TestVarianceIntegral:
    def test_zero_map(self):
        box = DomainBox(1.0, 1.0, 8, 8)
        assert variance_integral(VarianceMap(box, np.zeros((8, 8)), 10)) == 0.0

    def test_constant_map_times_area(self):
        box = DomainBox(1.0, 1.0, 8, 8)
        vmap = VarianceMap(box, np.full((8, 8), 0.7), 10)
        assert variance_integral(vmap) == pytest.approx(0.7 * 4.0, rel=1e-12)

    def test_negative_values_rejected(self):
        box = DomainBox(1.0, 1.0, 8, 8)
        with pytest.raises(ConfigError):
            VarianceMap(box, np.full((8, 8), -1.0), 10)

    def test_stderr_requires_moment_data(self):
        box = DomainBox(1.0, 1.0, 8, 8)
        with pytest.raises(ConfigError):
            variance_integral_stderr(VarianceMap(box, np.zeros((8, 8)), 10))

    def test_csv_uses_field_grid_format(self):
        from anisodiff.fields import from_csv
        box = DomainBox(1.0, 1.0, 8, 8)
        vals = np.random.default_rng(0).uniform(0, 1, (8, 8))
        vmap = VarianceMap(box, vals, 10)
        back = from_csv(vmap.to_csv())
        assert back.box == box
        assert np.array_equal(back.values, vals)
