import multiprocessing
import sys

import numpy as np
import pytest

from anisodiff.domain import AnisotropyParams, DomainBox, VelocityField, make_velocity
from anisodiff.errors import ConfigError
from anisodiff.fields import ScalarField, fourier_mode, random_fourier_sum, sample_many
from anisodiff import particles
from anisodiff.particles import (_substream, endpoints, feynman_kac,
                                 variance_integral, variance_integral_stderr,
                                 VarianceMap)
from anisodiff.solver import SolverConfig, run
from conftest import ConstantFlow

MODE_EIGENVALUE = 2.0 * np.pi ** 2
THREADS, PROCESSES = "ThreadPoolExecutor", "ProcessPoolExecutor"


class TestSdeStep:
    """The sde command's trajectories: endpoints, n of them from one point."""

    def test_frozen_without_noise_or_drift(self, box64, monkeypatch):
        generators = []
        monkeypatch.setattr(particles, "_substream", lambda *a: generators.append(a))
        x, y = endpoints(box64, VelocityField("zero"), 0.2, -0.3, 1.0, 0.0, 100, 0.1,
                         seed=1)
        assert generators == []
        assert np.array_equal(x, box64.wrap_x(np.full(100, 0.2)))
        assert np.array_equal(y, box64.wrap_y(np.full(100, -0.3)))

    def test_constant_drift_backward_shift(self, box64):
        # backward trajectories shift by -c t for a constant field
        c, t = 0.4, 0.75
        x, y = endpoints(box64, ConstantFlow(c, 0.0), 0.1, 0.0, t, 0.0, 50, t / 30, seed=2)
        assert np.allclose(box64.wrap_x(x - 0.1), -c * t, atol=1e-12)
        assert np.allclose(box64.wrap_y(y - 0.0), 0.0, atol=1e-12)

    def test_brownian_moments(self, box64):
        # u = 0: displacements are exactly N(0, 2 kappa t) per axis
        kappa, t, n = 0.01, 1.0, 20000
        x, y = endpoints(box64, VelocityField("zero"), 0.0, 0.0, t, kappa, n, t / 100,
                         seed=11)
        target = 2 * kappa * t
        se_mean = np.sqrt(target / n)
        se_var = target * np.sqrt(2.0 / (n - 1))
        for d in (box64.wrap_x(x - 0.0), box64.wrap_y(y - 0.0)):
            assert abs(np.mean(d)) < 3 * se_mean
            assert abs(np.var(d, ddof=1) - target) < 3 * se_var

    def test_positions_stay_wrapped(self, box64):
        vel = ConstantFlow(2.0, -3.0)
        x, y = endpoints(box64, vel, 0.9, 0.9, 2.0, 0.5, 500, 2.0 / 40, seed=4)
        assert np.all(x >= -1.0) and np.all(x < 1.0)
        assert np.all(y >= -1.0) and np.all(y < 1.0)

    def test_determinism(self, box64):
        par = AnisotropyParams(p=2, q=3)
        vel = make_velocity(par, 0.5, 1e-3)
        a, b, c = (endpoints(box64, vel, 0.1, 0.2, 0.5, 0.02, 200, 0.01, seed=seed)
                   for seed in (7, 7, 8))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    @pytest.mark.parametrize("box", [DomainBox(1.0, 1.0, 32, 32),
                                     DomainBox(0.7, 0.7, 24, 24)], ids=["32", "24_L0.7"])
    def test_zero_field_is_one_exact_step(self, box):
        """u = 0: the endpoints are wrap(x0 + sqrt(2 kappa t) z) from the wrapped
        launch, z the first (2, n) draw of substream (seed, 0, 0), whatever ds is."""
        t, kappa, n, seed = 0.4, 0.05, 64, 13
        z = _substream(seed, 0, 0).standard_normal((2, n))
        sig = np.sqrt(2.0 * kappa * t)
        expect_x = box.wrap_x(box.wrap_x(np.full(n, 0.25)) + sig * z[0])
        expect_y = box.wrap_y(box.wrap_y(np.full(n, -0.375)) + sig * z[1])
        for ds in (t, t / 7, t / 30):
            x, y = endpoints(box, VelocityField("zero"), 0.25, -0.375, t, kappa, n, ds,
                             seed)
            assert np.array_equal(x, expect_x), ds
            assert np.array_equal(y, expect_y), ds

    def test_ds_beyond_two_thirds_of_t_is_one_step(self, box64):
        # max(1, round(t / ds)) = 1: every such ds steps once by the whole t
        vel = make_velocity(AnisotropyParams(p=2, q=3), 0.5, 1e-3)
        ref = endpoints(box64, vel, 0.1, 0.2, 0.2, 0.05, 200, 0.2, seed=3)
        for ds in (0.15, 0.3, 2.0):
            x, y = endpoints(box64, vel, 0.1, 0.2, 0.2, 0.05, 200, ds, seed=3)
            assert np.array_equal(x, ref[0]) and np.array_equal(y, ref[1]), ds
        assert particles.time_grid(vel, 0.2, 0.05, 200, 2.0) == (1, 0.2)

    def test_input_validation(self, box64):
        zero = VelocityField("zero")
        for bad in (dict(ds=0.0), dict(n=1), dict(n=0), dict(t=0.0),
                    dict(kappa=-0.1), dict(t=np.inf), dict(t=np.nan), dict(ds=np.nan),
                    dict(kappa=np.nan), dict(kappa=np.inf), dict(n=100.0), dict(n=2.5),
                    dict(seed=1.5), dict(seed=True), dict(seed=-1)):
            args = dict(dict(t=1.0, kappa=0.1, n=10, ds=0.1, seed=0), **bad)
            with pytest.raises(ConfigError):
                endpoints(box64, zero, 0.0, 0.0, **args)


class TestStrongOrder:
    def test_common_random_numbers_refinement(self, box64):
        # same Brownian increments fed to the Euler-Maruyama kernel at three
        # resolutions: endpoint differences between successive levels scale
        # like ds (strong order 1)
        par = AnisotropyParams(p=2, q=3)
        vel = make_velocity(par, 0.5, 1e-3)
        kappa, t, n, m_fine = 0.05, 0.5, 400, 80
        rng = np.random.default_rng(99)
        start = rng.uniform(-0.9, 0.9, size=(2, n))
        fine_dw = np.sqrt(t / m_fine) * rng.standard_normal((m_fine, 2, n))
        sig = np.sqrt(2.0 * kappa)

        def integrate(level):  # level 1: ds = t/80, 2: t/40, 4: t/20
            m = m_fine // level
            x, y = start
            ds = t / m
            for k in range(m):
                dw = fine_dw[k * level:(k + 1) * level].sum(axis=0)
                x, y = particles._em_step(box64, vel, x, y, ds, sig * dw[0], sig * dw[1])
            return x, y

        (x1, y1), (x2, y2), (x4, y4) = integrate(1), integrate(2), integrate(4)
        d21 = np.sqrt(np.mean(box64.wrap_x(x2 - x1) ** 2 + box64.wrap_y(y2 - y1) ** 2))
        d42 = np.sqrt(np.mean(box64.wrap_x(x4 - x2) ** 2 + box64.wrap_y(y4 - y2) ** 2))
        print(f"\nstrong-order refinement: d(2,1)={d21:.3e} d(4,2)={d42:.3e} "
              f"ratio={d42 / d21:.2f}")
        assert 1.3 < d42 / d21 < 3.0


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


STEP_FIELDS = {
    "stream23": make_velocity(AnisotropyParams(p=2, q=3), 0.7, 1e-3),
    "stream1.5_1": make_velocity(AnisotropyParams(p=1.5, q=1), 0.7, 1e-2),
    "shear": VelocityField("shear", AnisotropyParams(p=2, q=3), 0.7),
    "constant": ConstantFlow(0.3, -2.9),
    "zero": VelocityField("zero"),
}


class TestEmStep:
    """_em_step equals the unfused wrap(x - u ds + noise) bit for bit, in new
    arrays, and leaves its inputs as they were."""

    @pytest.mark.parametrize("ds", [0.01, 2.0])   # 2.0: constant's step leaves the fold
    @pytest.mark.parametrize("noisy", [True, False])
    @pytest.mark.parametrize("name", sorted(STEP_FIELDS))
    def test_unfused_bits_and_untouched_inputs(self, name, noisy, ds):
        velocity = STEP_FIELDS[name]
        box = DomainBox(0.7, 1.0, 8, 8)
        rng = np.random.default_rng(5)
        start = rng.uniform(-1.0, 1.0, (2, 3, 50)) * np.array([0.7, 1.0])[:, None, None]
        x, y = start                                   # views of one array
        noise = tuple(0.05 * rng.standard_normal((2, 3, 50))) if noisy else ()
        before = [a.copy() for a in (start, *noise)]
        got_x, got_y = particles._em_step(box, velocity, x, y, ds, *noise)
        for a, b in zip((start, *noise), before):
            assert_same_bits(a, b)
        if velocity.is_zero and not noisy:
            assert got_x is x and got_y is y
            return
        ux, uy = velocity.velocity(x, y)
        want_x, want_y = x - ux * ds, y - uy * ds
        if noisy:
            want_x, want_y = want_x + noise[0], want_y + noise[1]
        assert_same_bits(got_x, box.wrap_x(want_x))
        assert_same_bits(got_y, box.wrap_y(want_y))


class TestFeynmanKac:
    def test_rejects_degenerate_input(self, box64):
        rho = fourier_mode(box64, 1, 1)
        with pytest.raises(ConfigError):
            feynman_kac(rho, VelocityField("zero"), 1.0, 0.1, 1, 0.1, seed=0)
        with pytest.raises(ConfigError):
            feynman_kac(rho, VelocityField("zero"), 0.0, 0.1, 100, 0.1, seed=0)
        with pytest.raises(ConfigError):
            feynman_kac(rho, VelocityField("zero"), 1.0, 0.1, 100, 0.0, seed=0)
        for bad in (np.nan, np.inf):
            values = rho.values.copy()
            values[3, 5] = bad
            with pytest.raises(ConfigError, match="rho0 must be finite"):
                feynman_kac(ScalarField(box64, values), VelocityField("zero"), 0.1, 0.1,
                            10, 0.1, seed=0)

    def test_rejects_launch_box_of_other_extent(self, box64):
        rho = fourier_mode(box64, 1, 1)
        for launch in (DomainBox(0.5, 2.0, 8, 8), DomainBox(1.0, 2.0, 8, 8)):
            with pytest.raises(ConfigError, match="particles.launch_box"):
                feynman_kac(rho, VelocityField("zero"), 0.1, 0.1, 10, 0.1, seed=0,
                            launch_box=launch)

    @pytest.mark.parametrize("kappa", [0.1, 0.0])
    def test_rejects_bad_seed_and_stream(self, kappa, monkeypatch):
        """seed and stream are checked before any draw, at every kappa."""
        generators = []
        monkeypatch.setattr(particles, "_substream", lambda *a: generators.append(a))
        rho = fourier_mode(DomainBox(1.0, 1.0, 8, 8), 1, 1)
        for bad, name in ((dict(seed=1.5), "particles.seed"),
                          (dict(seed=True), "particles.seed"),
                          (dict(seed=-1), "particles.seed"),
                          (dict(stream=-1), "stream"),
                          (dict(stream=2.0), "stream"),
                          (dict(stream=False), "stream")):
            args = dict(dict(seed=0, stream=0), **bad)
            with pytest.raises(ConfigError, match=f"^{name}:"):
                feynman_kac(rho, VelocityField("zero"), 0.1, kappa, 10, 0.1, **args)
        assert generators == []
        monkeypatch.undo()
        feynman_kac(rho, VelocityField("zero"), 0.1, kappa, 10, 0.1,
                    seed=np.int64(3), stream=np.uint8(1))

    def test_short_time_limit(self, box64):
        # one tiny step: mean ~ rho0, variance ~ 2 kappa t |grad rho0|^2
        rho = fourier_mode(box64, 1, 1)
        launch = DomainBox(1.0, 1.0, 16, 16)
        mean, vmap = feynman_kac(rho, VelocityField("zero"), t=0.01, kappa=0.05,
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
        mean, vmap = feynman_kac(rho, VelocityField("zero"), t, kappa, n=n,
                                 ds=5e-3, seed=12, launch_box=launch)
        series = run(rho, VelocityField("zero"),
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
        m1, v1 = feynman_kac(rho, VelocityField("zero"), **args)
        m2, v2 = feynman_kac(rho, VelocityField("zero"), **args)
        assert np.array_equal(m1.values, m2.values)
        assert np.array_equal(v1.values, v2.values)

    def test_disjoint_substreams_agree(self, box64):
        rho = fourier_mode(box64, 1, 1)
        launch = DomainBox(1.0, 1.0, 16, 16)
        args = dict(t=0.5, kappa=0.05, n=2000, ds=0.01, launch_box=launch)
        _, va = feynman_kac(rho, VelocityField("zero"), seed=101, **args)
        _, vb = feynman_kac(rho, VelocityField("zero"), seed=202, **args)
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
            mean, _ = feynman_kac(rho, VelocityField("zero"), t, kappa, n=n,
                                  ds=5e-3, seed=31, launch_box=launch)
            errs.append(np.sqrt(np.mean((mean.values - exact) ** 2)))
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        print(f"\n1/sqrt(n) scaling: errors {errs[0]:.2e} {errs[1]:.2e} "
              f"{errs[2]:.2e}; ratios {r1:.2f}, {r2:.2f}")
        assert 1.4 < r1 < 2.9
        assert 1.4 < r2 < 2.9

    def test_variance_matches_moment_decomposition(self, box64):
        # mean and unbiased variance of rho0 at endpoints redrawn here, one
        # point at a time, from each launch point's own substream: u = 0
        # takes one exact step of the whole time t, whatever ds is
        rho = fourier_mode(box64, 1, 1)
        launch = DomainBox(1.0, 1.0, 8, 8)
        n, t, kappa, m, seed = 500, 0.3, 0.05, 30, 41
        mean, vmap = feynman_kac(rho, VelocityField("zero"), t=t, kappa=kappa,
                                 n=n, ds=t / m, seed=seed, launch_box=launch)
        sig = np.sqrt(2.0 * kappa * t)
        xg, yg = launch.grid()
        expect_mean, expect_var = np.empty(xg.shape), np.empty(xg.shape)
        for k, (x0, y0) in enumerate(zip(xg.ravel(), yg.ravel())):
            z = _substream(seed, 0, k).standard_normal((2, n))
            x = launch.wrap_x(np.full(n, x0) + sig * z[0])
            y = launch.wrap_y(np.full(n, y0) + sig * z[1])
            w = sample_many(rho, x, y)
            expect_mean.flat[k], expect_var.flat[k] = w.mean(), np.var(w, ddof=1)
        assert np.allclose(mean.values, expect_mean, rtol=1e-9, atol=1e-12)
        assert np.allclose(vmap.values, expect_var, rtol=1e-9, atol=1e-12)


class TestTwoPointLaw:
    """A drifted field's increments are fair signs times sig = sqrt(2 kappa ds),
    independent per axis: the simplified weak Euler scheme."""

    FIELD = ConstantFlow(0.3, -0.2)
    KAPPA, T = 0.45, 0.1

    def test_one_step_displacements_are_fair_signs(self, box64):
        n = 4000
        sig = np.sqrt(2.0 * self.KAPPA * self.T)
        x, y = endpoints(box64, self.FIELD, 0.0, 0.0, self.T, self.KAPPA, n, self.T,
                         seed=3)
        dx = box64.wrap_x(x + 0.3 * self.T)       # the drift -c ds added back
        dy = box64.wrap_y(y - 0.2 * self.T)
        for d in (dx, dy):
            assert np.all(np.abs(np.abs(d) - sig) <= 1e-12)
        se = 0.5 / np.sqrt(n)
        for share in (np.mean(dx > 0), np.mean(dy > 0), np.mean((dx > 0) == (dy > 0))):
            assert abs(share - 0.5) <= 3 * se

    def test_mean_is_the_two_point_factor(self, box64):
        """One step: E sin(pi (x0 - c t + xi sig)) = sin(pi (x0 - c t)) cos(pi sig)
        per axis, not the Gaussian's exp(-pi^2 sig^2 / 2)."""
        n = 10_000
        sig = np.sqrt(2.0 * self.KAPPA * self.T)
        launch = DomainBox(1.0, 1.0, 8, 8)
        mean, vmap = feynman_kac(fourier_mode(box64, 1, 1), self.FIELD, self.T,
                                 self.KAPPA, n, self.T, seed=8, launch_box=launch)
        xg, yg = launch.grid()
        shifted = np.sin(np.pi * (xg - 0.3 * self.T)) * np.sin(np.pi * (yg + 0.2 * self.T))
        sigma = np.sqrt(variance_integral(vmap) / n)

        def err(factor):
            return np.sqrt(np.sum((mean.values - factor * shifted) ** 2)
                           * launch.hx * launch.hy)

        two_point = err(np.cos(np.pi * sig) ** 2)
        gaussian = err(np.exp(-MODE_EIGENVALUE * self.KAPPA * self.T))
        print(f"\ntwo-point law: err/sigma {two_point / sigma:.2f} against cos(pi sig)^2, "
              f"{gaussian / sigma:.2f} against the Gaussian factor")
        assert two_point <= 3.0 * sigma
        assert gaussian > 5.0 * sigma


class TestSubstream:
    """Each launch point's generator: SFC64, seeded by (seed, stream, index)."""

    def test_generator_is_keyed_sfc64(self):
        for seed, stream, index in ((0, 0, 0), (17, 3, 79), (2 ** 40, 1, 5)):
            bg = _substream(seed, stream, index).bit_generator
            assert isinstance(bg, np.random.SFC64)
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, index))
            got, want = bg.state, np.random.SFC64(ss).state
            assert np.array_equal(got.pop("state")["state"], want.pop("state")["state"])
            assert got == want

    def test_key_parts_separate_streams(self):
        first = {key: _substream(*key).standard_normal()
                 for key in ((5, 0, 0), (5, 1, 0), (5, 0, 1), (6, 0, 0))}
        assert len(set(first.values())) == len(first)


class TestExactDiffusion:
    """u = 0 takes one exact step of the whole time t: ds does not matter."""

    @pytest.mark.parametrize("box", [DomainBox(1.0, 1.0, 32, 32),
                                     DomainBox(0.7, 0.7, 24, 24)], ids=["32", "24_L0.7"])
    def test_step_size_does_not_change_bits(self, box):
        rho = random_fourier_sum(box, 3, seed=9)
        t = 0.4
        runs = [feynman_kac(rho, VelocityField("zero"), t, 0.05, n=64, ds=ds, seed=13)
                for ds in (t, t / 7, t / 30)]
        (ref_mean, ref_var), *others = runs
        for mean, vmap in others:
            assert np.array_equal(mean.values, ref_mean.values)
            assert np.array_equal(vmap.values, ref_var.values)
            assert np.array_equal(vmap.var_of_var, ref_var.var_of_var)


class InlinePool:
    """A stand-in for feynman_kac's worker pool that runs the initializer,
    then each chunk, in the calling thread, recording each chunk's size."""

    chunk_sizes: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, starts):
        for start in starts:
            result = fn(start)
            self.chunk_sizes.append(len(result[0]))
            yield result


class TestSingleKernel:
    """endpoints and feynman_kac advance particles through one trajectory loop."""

    @pytest.fixture
    def stream_case(self, box64, params23):
        rho = random_fourier_sum(box64, 3, seed=5)
        vel = make_velocity(params23, 0.5, 1e-3)
        launch = DomainBox(1.0, 1.0, 8, 10)
        return rho, vel, launch

    @pytest.mark.parametrize("cap", [60, 300, 1920, 60_000], ids=["1", "5", "32", "1000"])
    def test_feynman_kac_batching_invariant(self, stream_case, monkeypatch, cap):
        """Neither the chunk size nor the worker count changes a bit.  At
        n = 60 the caps give chunks of 1, 5, 32 and 1000 points (the ids); at
        32 the 80 launch points end in a short chunk of 16."""
        rho, vel, launch = stream_case
        args = dict(t=0.2, kappa=0.05, n=60, ds=0.02, seed=17, launch_box=launch,
                    stream=3)
        monkeypatch.setattr(particles, "_cpu_count", lambda: 1)
        ref_mean, ref_var = feynman_kac(rho, vel, **args)
        monkeypatch.setattr(particles, "_CHUNK_TRAJECTORIES", cap)
        for workers in (1, 2, 5):
            monkeypatch.setattr(particles, "_cpu_count", lambda w=workers: w)
            mean, vmap = feynman_kac(rho, vel, **args)
            assert np.array_equal(mean.values, ref_mean.values), workers
            assert np.array_equal(vmap.values, ref_var.values), workers
            assert np.array_equal(vmap.var_of_var, ref_var.var_of_var), workers

    def test_trajectory_cap_sets_the_chunk(self, stream_case, monkeypatch):
        """A chunk holds at most _CHUNK_TRAJECTORIES trajectories: 3 points of
        n = 60 under a cap of 200, so the 80 points end in a chunk of 2."""
        rho, vel, launch = stream_case
        args = dict(t=0.2, kappa=0.05, n=60, ds=0.02, seed=17, launch_box=launch)
        ref_mean, ref_var = feynman_kac(rho, vel, **args)
        for pool in (PROCESSES, THREADS):   # one chunk, or one CPU, runs in threads
            monkeypatch.setattr(particles, pool, InlinePool)
        monkeypatch.setattr(InlinePool, "chunk_sizes", [])
        monkeypatch.setattr(particles, "_CHUNK_TRAJECTORIES", 200)
        mean, vmap = feynman_kac(rho, vel, **args)
        assert sorted(InlinePool.chunk_sizes) == [2] + [3] * 26
        assert np.array_equal(mean.values, ref_mean.values)
        assert np.array_equal(vmap.values, ref_var.values)
        assert np.array_equal(vmap.var_of_var, ref_var.var_of_var)
        # no cap on the points alone: a cap of 60 000 puts all 80 in one chunk
        monkeypatch.setattr(InlinePool, "chunk_sizes", [])
        monkeypatch.setattr(particles, "_CHUNK_TRAJECTORIES", 60_000)
        feynman_kac(rho, vel, **args)
        assert InlinePool.chunk_sizes == [80]

    @pytest.mark.parametrize("field, ds, cap, built_pools", [
        ("stream", 0.02, 1920, [(THREADS, 1), (PROCESSES, 2), (PROCESSES, 3)]),
        ("zero", 0.02, 1920, [(THREADS, 1), (THREADS, 2), (THREADS, 3)]),
        ("stream", 0.2, 1920, [(THREADS, 1), (THREADS, 2), (THREADS, 3)]),
        ("stream", 0.02, 60_000, [(THREADS, 1)] * 3),
    ], ids=["drifted", "zero_field", "one_step", "one_chunk"])
    def test_pool_follows_the_step_count(self, stream_case, monkeypatch, field, ds,
                                         cap, built_pools):
        """A run of more than one step with more than one worker computes its
        chunks in worker processes; a one-step run (zero field, or t <= ds)
        and a one-worker run (one CPU, or one chunk) use worker threads.
        Either pool has min(CPUs, chunks) workers and gives a 1-worker run's
        bits.  A cap of 1920 cuts the 80 points into 3 chunks, 60 000 into 1."""
        rho, vel, launch = stream_case
        vel = vel if field == "stream" else VelocityField("zero")
        args = dict(t=0.2, kappa=0.05, n=60, ds=ds, seed=17, launch_box=launch,
                    stream=2)
        built = []
        for name in (PROCESSES, THREADS):
            class Recording(getattr(particles, name)):
                def __init__(self, max_workers, name=name, **kwargs):
                    built.append((name, max_workers))
                    super().__init__(max_workers, **kwargs)
            monkeypatch.setattr(particles, name, Recording)
        monkeypatch.setattr(particles, "_CHUNK_TRAJECTORIES", cap)
        monkeypatch.setattr(particles, "_cpu_count", lambda: 1)
        ref_mean, ref_var = feynman_kac(rho, vel, **args)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # interleave worker threads finely
        try:
            for workers in (2, 5):
                monkeypatch.setattr(particles, "_cpu_count", lambda w=workers: w)
                mean, vmap = feynman_kac(rho, vel, **args)
                assert np.array_equal(mean.values, ref_mean.values), workers
                assert np.array_equal(vmap.values, ref_var.values), workers
                assert np.array_equal(vmap.var_of_var, ref_var.var_of_var), workers
        finally:
            sys.setswitchinterval(interval)
        assert built == built_pools

    def test_drifted_call_leaves_nothing_behind(self, stream_case, monkeypatch):
        """A call in worker processes joins them, and rebinds no name of the
        module and no attribute of the classes its run is built from: the run
        is inherited by the workers, not pickled (pickling caches
        __slotnames__ on a class)."""
        rho, vel, launch = stream_case
        classes = (DomainBox, VelocityField, ScalarField)
        for cls in classes:
            monkeypatch.delattr(cls, "__slotnames__", raising=False)
        monkeypatch.setattr(particles, "_CHUNK_TRAJECTORIES", 1920)   # 3 chunks
        monkeypatch.setattr(particles, "_cpu_count", lambda: 2)   # a process pool
        before = [dict(vars(obj)) for obj in (particles, *classes)]
        feynman_kac(rho, vel, 0.2, 0.05, n=60, ds=0.02, seed=17, launch_box=launch)
        assert multiprocessing.active_children() == []
        for old, obj in zip(before, (particles, *classes)):
            new = vars(obj)
            assert new.keys() == old.keys(), obj
            assert [k for k in old if new[k] is not old[k]] == [], obj

    def test_endpoints_reproduce_feynman_kac_point(self, stream_case):
        """endpoints draws from feynman_kac's launch point 0 of stream 0."""
        rho, vel, launch = stream_case
        t, kappa, n, m, seed = 0.2, 0.05, 400, 10, 23
        mean, vmap = feynman_kac(rho, vel, t, kappa, n, t / m, seed, launch_box=launch)
        x, y = endpoints(launch, vel, launch.x_centers()[0], launch.y_centers()[0],
                         t, kappa, n, t / m, seed)
        w = sample_many(rho, x, y)
        assert w.mean() == mean.values[0, 0]
        assert abs(w.var(ddof=1) - vmap.values[0, 0]) <= 1e-12


class TestZeroKappa:
    """kappa = 0 runs the same loop: one noise-free trajectory per point."""

    @pytest.mark.parametrize("box", [DomainBox(1.0, 1.0, 32, 32),
                                     DomainBox(0.7, 0.7, 24, 24)], ids=["32", "24_L0.7"])
    @pytest.mark.parametrize("family", ["zero", "stream"])
    def test_matches_noise_free_reference(self, box, family, params23, monkeypatch):
        rho = random_fourier_sum(box, 3, seed=2)
        vel = (VelocityField("zero") if family == "zero"
               else make_velocity(params23, 0.5, 1e-3))
        t, m, n = 0.3, 15, 50
        generators = []
        monkeypatch.setattr(particles, "_substream", lambda *a: generators.append(a))
        mean, vmap = feynman_kac(rho, vel, t, 0.0, n, t / m, seed=3)
        x, y = box.grid()
        for _ in range(m):
            x, y = particles._em_step(box, vel, x, y, t / m)
        w = sample_many(rho, x, y)
        assert generators == []
        assert np.array_equal(mean.values, w)
        assert np.array_equal(vmap.values, np.zeros_like(w))
        assert np.array_equal(vmap.var_of_var, np.zeros_like(w))


@pytest.mark.parametrize("family", ["zero", "stream"])
def test_moments_match_the_endpoint_oracle(params23, family):
    # launch point 0's moments, recomputed from the endpoints that point draws:
    # the mean and unbiased variance keep their bits, and var_of_var is the
    # delta-method formula, m4 / n - m2^2 (n - 3) / (n (n - 1)) with central
    # moments m2 and m4, to rounding
    rho = random_fourier_sum(DomainBox(1.0, 1.0, 32, 32), seed=2)
    launch = DomainBox(1.0, 1.0, 8, 8)
    vel = VelocityField("zero") if family == "zero" else make_velocity(params23, 0.5, 1e-3)
    n, t, ds, kappa, seed = 400, 0.3, 0.02, 0.05, 11
    mean, vmap = feynman_kac(rho, vel, t, kappa, n, ds, seed, launch_box=launch)
    x, y = endpoints(launch, vel, launch.x_centers()[0], launch.y_centers()[0],
                     t, kappa, n, ds, seed)
    w = sample_many(rho, x, y)
    m2, m4 = w.var(), np.mean((w - w.mean()) ** 4)
    expect = m4 / n - m2 * m2 * (n - 3) / (n * (n - 1))
    assert mean.values[0, 0] == w.mean()
    assert vmap.values[0, 0] == m2 * n / (n - 1)
    assert expect > 0.0
    assert abs(vmap.var_of_var[0, 0] - expect) <= 1e-13 * expect


class TestVarianceIntegral:
    def test_zero_map(self):
        box = DomainBox(1.0, 1.0, 8, 8)
        assert variance_integral(VarianceMap(box, np.zeros((8, 8)), np.zeros((8, 8)))) == 0.0

    def test_constant_map_times_area(self):
        box = DomainBox(1.0, 1.0, 8, 8)
        vmap = VarianceMap(box, np.full((8, 8), 0.7), np.zeros((8, 8)))
        assert variance_integral(vmap) == pytest.approx(0.7 * 4.0, rel=1e-12)

    def test_negative_values_rejected(self):
        box = DomainBox(1.0, 1.0, 8, 8)
        with pytest.raises(ConfigError):
            VarianceMap(box, np.full((8, 8), -1.0), np.zeros((8, 8)))


@pytest.mark.parametrize("a", [2.0, 0.25])
def test_amplitude_time_scaling_keeps_the_moments_bits(params23, a):
    # t / A, kappa A and ds / A leave the drift -A u ds and the noise
    # sqrt(2 kappa ds) of every step unchanged, bit for bit for A a power of 2
    rho = random_fourier_sum(DomainBox(1.0, 1.0, 32, 32), seed=0)
    launch = DomainBox(1.0, 1.0, 8, 8)

    def moments_at(amp):
        mean, vmap = feynman_kac(rho, make_velocity(params23, amp, 1e-3), 0.2 / amp,
                                 0.05 * amp, 200, 0.01 / amp, seed=3, launch_box=launch)
        return mean.values, vmap.values, vmap.var_of_var

    for scaled, one in zip(moments_at(a), moments_at(1.0)):
        assert np.array_equal(scaled, one)
