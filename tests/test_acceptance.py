"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The heavy Monte Carlo criteria (7, 8, 10) dominate the
wall time; the whole suite is a desk-scale job (~10 minutes).
"""
import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from anisodiff.analysis import (exponent_report, fdr_check, figure1_exponent,
                                fit_decay, sweep_and_fit, theoretical_exponent)
from anisodiff.cli import main
from anisodiff.domain import (AnisotropyParams, DomainBox, VelocityField,
                              make_velocity)
from anisodiff.fields import fourier_mode, random_fourier_sum, sample_many
from anisodiff.particles import endpoints, feynman_kac, variance_integral
from anisodiff.solver import SolverConfig, run

HEAT_RATE = 4 * np.pi ** 2 * 0.01  # 2 kappa |k|^2 for the (1,1) mode


def _report(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {status} [{time.perf_counter() - t0:6.1f}s] {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def heat_series():
    """Criterion 4/5 shared run: u = 0, sin mode, kappa = 0.01, 128^2,
    dt = 1e-3, t_end = 2."""
    box = DomainBox(1.0, 1.0, 128, 128)
    rho = fourier_mode(box, 1, 1)
    cfg = SolverConfig(kappa=0.01, dt=1e-3, t_end=2.0, record_every=10)
    return run(rho, VelocityField("zero"), cfg)


def test_criterion_01_figure_reproduction(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "figs"
    assert main(["figures", "--out", str(out)]) == 0

    lines = (out / "fig1.csv").read_text().strip().splitlines()
    assert lines[0] == "kappa,blue,red,green"
    worst1 = 0.0
    for ln in lines[1:]:
        k, b, r, g = (float(v) for v in ln.split(","))
        for got, expect in ((b, 2.0 * k ** (2.0 / 5.0)),
                            (r, 1.5 * k ** (3.0 / 7.0)),
                            (g, 1.2 * k ** (4.0 / 9.0))):
            worst1 = max(worst1, abs(got - expect) / expect)
    assert len(lines) == 101

    lines = (out / "fig2.csv").read_text().strip().splitlines()
    assert lines[0] == "p,q,r"
    assert len(lines) == 1 + 30 * 30
    worst2 = 0.0
    for ln in lines[1:]:
        p, q, r = (float(v) for v in ln.split(","))
        expect = 1.5 * 0.1 ** (p * q / (p + q + 2.0))
        worst2 = max(worst2, abs(r - expect) / expect)

    ok = worst1 <= 1e-12 and worst2 <= 1e-12
    _report(1, ok, f"fig1 max rel err {worst1:.2e}, fig2 max rel err {worst2:.2e}",
            t0)


def test_criterion_02_theoretical_exponent_table():
    t0 = time.perf_counter()
    table = {(2, 3): Fraction(6, 7), (3, 4): Fraction(4, 3),
             (4, 5): Fraction(20, 11), (1, 1): Fraction(1, 4)}
    ok = all(theoretical_exponent(p, q) == expect
             and isinstance(theoretical_exponent(p, q), Fraction)
             for (p, q), expect in table.items())
    _report(2, ok, "exact rational table (2,3)->6/7 (3,4)->4/3 (4,5)->20/11 "
                   "(1,1)->1/4", t0)


def test_criterion_03_discrepancy_report():
    t0 = time.perf_counter()
    ok = True
    details = []
    for p, q in ((2, 3), (3, 4), (4, 5)):
        theo = theoretical_exponent(p, q)
        alt = figure1_exponent(p, q)
        text = exponent_report(AnisotropyParams(p=p, q=q))
        ok &= str(theo) in text and str(alt) in text and "MISMATCH" in text
        ok &= theo == Fraction(p * q, p + q + 2) and alt == Fraction(p, p + q)
        ok &= theo != alt
        details.append(f"({p},{q}): {theo} vs {alt}")
    _report(3, ok, "; ".join(details), t0)


def test_criterion_04_heat_oracle(heat_series):
    t0 = time.perf_counter()
    fit = fit_decay(heat_series)
    rel = abs(fit.rate - HEAT_RATE) / HEAT_RATE
    _report(4, rel <= 0.02,
            f"fitted rate {fit.rate:.6f} vs 4 pi^2 kappa = {HEAT_RATE:.6f} "
            f"(rel err {rel:.2e}, tol 2%)", t0)


def test_criterion_05_energy_identity(heat_series):
    t0 = time.perf_counter()
    errs = []
    for t_check in (1.0, 2.0):
        i = int(np.argmin(np.abs(heat_series.times - t_check)))
        assert abs(heat_series.times[i] - t_check) < 1e-9
        lhs = 0.5 * (heat_series.norms_sq[0] - heat_series.norms_sq[i])
        rhs = heat_series.dissipation[i]
        errs.append(abs(lhs / rhs - 1.0))
    ok = all(e <= 1e-2 for e in errs)
    _report(5, ok, f"identity rel err {errs[0]:.2e} at t=1, {errs[1]:.2e} at "
                   f"t=2 (tol 1%)", t0)


def test_criterion_06_brownian_statistics():
    t0 = time.perf_counter()
    box = DomainBox(1.0, 1.0, 128, 128)
    kappa, t, n = 0.01, 1.0, 100_000
    x, y = endpoints(box, VelocityField("zero"), 0.0, 0.0, t, kappa, n, t / 100,
                     seed=60606)
    dx, dy = box.wrap_x(x - 0.0), box.wrap_y(y - 0.0)
    target = 2 * kappa * t
    se_mean = np.sqrt(target / n)
    se_var = target * np.sqrt(2.0 / (n - 1))
    ok = True
    details = []
    for name, d in (("x", dx), ("y", dy)):
        m, v = float(np.mean(d)), float(np.var(d, ddof=1))
        ok &= abs(m) <= 3 * se_mean and abs(v - target) <= 3 * se_var
        details.append(f"{name}: mean {m:+.1e} (3SE {3 * se_mean:.1e}), "
                       f"var {v:.5f} vs {target} (3SE {3 * se_var:.1e})")
    _report(6, ok, "; ".join(details), t0)


@pytest.mark.slow
def test_criterion_07_feynman_kac_agreement():
    t0 = time.perf_counter()
    box = DomainBox(1.0, 1.0, 128, 128)
    launch = DomainBox(1.0, 1.0, 32, 32)
    rho0 = fourier_mode(box, 1, 1)
    kappa, t, n = 0.05, 0.5, 10_000
    cases = {
        "u=0": (VelocityField("zero"), 5e-3, 2024),
        "stream(2,3)": (make_velocity(AnisotropyParams(p=2, q=3), 0.25, 1e-3),
                        2.5e-3, 2025),
    }
    ok = True
    details = []
    for label, (vel, ds, seed) in cases.items():
        mean, vmap = feynman_kac(rho0, vel, t, kappa, n=n, ds=ds, seed=seed,
                                 launch_box=launch)
        series = run(rho0, vel, SolverConfig(kappa=kappa, dt=2e-3, t_end=t,
                                             record_every=10))
        pde_pts = sample_many(series.final_state, *launch.grid())
        err = float(np.sqrt(np.sum((mean.values - pde_pts) ** 2)
                            * launch.hx * launch.hy))
        sigma = float(np.sqrt(variance_integral(vmap) / n))
        ok &= err <= 3.0 * sigma
        details.append(f"{label}: L2 err {err:.4f} <= 3 sigma {3 * sigma:.4f}")
    _report(7, ok, "; ".join(details), t0)


@pytest.mark.slow
def test_criterion_08_fdr_ratio_stability():
    t0 = time.perf_counter()
    box = DomainBox(1.0, 1.0, 128, 128)
    launch = DomainBox(1.0, 1.0, 32, 32)
    rho0 = fourier_mode(box, 1, 1)
    cfg = SolverConfig(kappa=0.05, dt=2e-3, t_end=1.0, record_every=10)
    results = [fdr_check(rho0, VelocityField("zero"), cfg, times=[1.0], n=10_000,
                         ds=0.01, seed=seed, launch_box=launch)[0]
               for seed in (11, 22, 33)]
    ok = True
    for a, b in itertools.combinations(results, 2):
        diff = abs(a.ratio - b.ratio)
        sigma = (a.lhs / a.rhs ** 2) * float(np.hypot(a.rhs_stderr, b.rhs_stderr))
        ok &= diff <= 3.0 * sigma
    ratios = ", ".join(f"{r.ratio:.4f}" for r in results)
    _report(8, ok, f"ratio across seeds: {ratios} (reported, not asserted; "
                   f"pairwise spread within 3 sigma)", t0)


def test_criterion_09_pure_diffusion_sweep_linearity():
    t0 = time.perf_counter()
    box = DomainBox(1.0, 1.0, 128, 128)
    rho = fourier_mode(box, 1, 1)
    kappas = [1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1]
    # kappa * dt held constant: the discrete decay is scale-invariant
    cfg = SolverConfig(kappa=kappas[0], dt=1e-2, t_end=1.0, record_every=1)
    fit = sweep_and_fit(kappas, rho, VelocityField("zero"), cfg,
                        dts=[4e-4 / k for k in kappas],
                        t_ends=[0.07 / k for k in kappas])
    ok = fit.ci95 <= 0.05 and abs(fit.slope - 1.0) <= max(fit.ci95, 1e-6)
    _report(9, ok, f"slope {fit.slope:.6f} +/- {fit.ci95:.2e} (need 1.00, "
                   f"CI <= 0.05)", t0)


@pytest.mark.slow
def test_criterion_10_scaling_law_experiment():
    t0 = time.perf_counter()
    box = DomainBox(1.0, 1.0, 256, 256)
    vel = make_velocity(AnisotropyParams(p=2, q=3), 1.0, 1e-3)
    kappas = [1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1]
    dts = [0.1, 0.1, 0.05, 0.05, 0.05, 0.02, 0.02]
    t_ends = [40.0, 40.0, 20.0, 10.0, 10.0, 5.0, 5.0]
    cfg = SolverConfig(kappa=kappas[0], dt=0.05, t_end=20.0, record_every=1)
    fits = []
    for seed in (0, 1):
        rho = random_fourier_sum(box, max_mode=3, seed=seed)
        fits.append(sweep_and_fit(kappas, rho, vel, cfg, dts=dts,
                                  t_ends=t_ends))
    a, b = fits
    stable = a.ci95 <= 0.1 and b.ci95 <= 0.1
    reproducible = abs(a.slope - b.slope) <= a.ci95 + b.ci95
    detail = (f"measured {a.slope:.3f}+/-{a.ci95:.3f} and "
              f"{b.slope:.3f}+/-{b.ci95:.3f} vs theoretical "
              f"{float(theoretical_exponent(2, 3)):.4f} = 6/7 (side-by-side "
              f"report, agreement not asserted)")
    _report(10, stable and reproducible, detail, t0)


@pytest.mark.slow
def test_criterion_11_manifest_determinism(tmp_path):
    t0 = time.perf_counter()
    configs = {
        "figures": None,
        "pde": {
            "experiment": "pde",
            "domain": {"family": "zero", "nx": 128, "ny": 128},
            "solver": {"kappa": 0.01, "dt": 1e-3, "t_end": 2.0,
                       "record_every": 10},
        },
        "sde": {
            "experiment": "sde",
            "domain": {"family": "zero", "nx": 128, "ny": 128},
            "solver": {"kappa": 0.01, "dt": 0.01, "t_end": 1.0,
                       "record_every": 1},
            "particles": {"n": 100000, "ds": 0.01, "t": 1.0, "seed": 60606},
        },
    }
    ok = True
    details = []
    for name, doc in configs.items():
        first = tmp_path / f"{name}_a"
        second = tmp_path / f"{name}_b"
        argv = [name, "--out", str(first)]
        if doc is not None:
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(doc))
            argv += ["--config", str(cfg_path)]
        assert main(argv) == 0
        assert main(["rerun", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        csvs = sorted(p.name for p in first.glob("*.csv"))
        identical = all((first / c).read_bytes() == (second / c).read_bytes()
                        for c in csvs)
        ok &= identical and bool(csvs)
        details.append(f"{name}: {len(csvs)} csvs byte-identical={identical}")
    _report(11, ok, "; ".join(details), t0)
