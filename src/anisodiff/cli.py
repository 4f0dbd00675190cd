"""Command-line entry point: experiments in, CSV/SVG artifacts out.

Commands
    pde      integrate the drift-diffusion equation, write the decay series
    sde      evolve a particle ensemble, write displacement statistics
    fdr      fluctuation-dissipation check at one or more checkpoints
    sweep    kappa sweep -> rates -> scaling-exponent regression
    figures  the two fixed rate figures (fig1/fig2 CSV + SVG)
    rerun    repeat any command from a previous run's manifest

Exit codes: 0 success, 2 config error, 3 numerical/statistical failure,
4 I/O error.  Every command validates its configuration fully before it
creates or writes any file, and writes only inside its output directory.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (check_checkpoint, exponent_report, exponent_report_csv,
                       fdr_check, figure1_curve, figure2_surface, fit_decay,
                       sweep_and_fit)
from .config import DEFAULTS, RunConfig, build_config, load_config
from .errors import (AnisodiffError, ConfigError, FitWindowError,
                     InstabilityError, InsufficientDecayError, SweepError)
from .fields import to_csv as field_to_csv
from .manifest import ArtifactWriter, load_manifest
from .particles import make_ensemble, sde_step
from .solver import run
from .svgplot import heatmap_svg, line_plot_svg

ENV_OUTPUT_ROOT = "ANISODIFF_OUT"

FIG1_POINTS = 100
FIG2_POINTS = 30


def _resolve_outdir(flag_value, cfg: RunConfig | None, experiment: str) -> Path:
    if flag_value:
        return Path(flag_value)
    if cfg is not None and cfg.doc.get("output", {}).get("dir"):
        return Path(cfg.doc["output"]["dir"])
    root = os.environ.get(ENV_OUTPUT_ROOT, "out")
    return Path(root) / experiment


def _seeds_of(cfg: RunConfig) -> list[int]:
    seeds = []
    if cfg.doc["initial"]["kind"] == "random":
        seeds.append(int(cfg.doc["initial"]["seed"]))
    if cfg.experiment in ("sde", "fdr"):
        seeds.append(int(cfg.doc["particles"]["seed"]))
    return seeds


def cmd_pde(cfg: RunConfig, outdir: Path) -> None:
    t0 = time.perf_counter()
    rho0 = cfg.initial_field()
    series = run(rho0, cfg.velocity, cfg.solver,
                 grad_backend=cfg.doc["solver"]["grad_backend"])
    writer = ArtifactWriter(outdir)
    writer.write_text("decay.csv", series.to_csv())
    writer.write_text("rho_final.csv", field_to_csv(series.final_state))
    writer.write_text("decay.svg", line_plot_svg(
        series.times,
        [("norm_sq", series.norms_sq, "steelblue"),
         ("dissipation", series.dissipation, "firebrick")],
        title="scalar decay", xlabel="t", ylabel="value"))
    lines = [
        f"t_end = {float(series.times[-1])!r}",
        f"norm_sq(0) = {float(series.norms_sq[0])!r}",
        f"norm_sq(t_end) = {float(series.norms_sq[-1])!r}",
        f"dissipation(t_end) = {float(series.dissipation[-1])!r}",
    ]
    try:
        fit = fit_decay(series)
        lines += [
            f"fitted rate = {fit.rate!r} +/- {fit.rate_stderr!r}",
            f"fitted prefactor = {fit.prefactor!r}",
            f"fit window = [{fit.window[0]!r}, {fit.window[1]!r}]",
            f"fit r^2 = {fit.r_squared!r}",
        ]
    except (InsufficientDecayError, FitWindowError) as exc:
        lines.append(f"fit skipped: {exc}")
    writer.write_text("summary.txt", "\n".join(lines) + "\n")
    writer.write_manifest("pde", cfg.doc, time.perf_counter() - t0,
                          _seeds_of(cfg), __version__)


def cmd_sde(cfg: RunConfig, outdir: Path) -> None:
    t0 = time.perf_counter()
    par = cfg.doc["particles"]
    n = int(par["n"])
    t = float(par["t"])
    m = max(1, int(round(t / float(par["ds"]))))
    ds = t / m
    ens = make_ensemble(cfg.box, n, float(par["x0"]), float(par["y0"]),
                        kappa=cfg.solver.kappa, seed=int(par["seed"]))
    for _ in range(m):
        ens = sde_step(ens, cfg.velocity, ds)
    dx, dy = ens.displacement()
    if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dy))):
        raise InstabilityError("sde: non-finite displacement encountered")
    var_dx = float(np.var(dx, ddof=1))
    var_dy = float(np.var(dy, ddof=1))
    target = 2.0 * cfg.solver.kappa * t
    se_var = target * np.sqrt(2.0 / (n - 1)) if target > 0 else 0.0
    rows = ["n,kappa,t,ds,seed,mean_dx,mean_dy,var_dx,var_dy,se_mean,se_var",
            ",".join([str(n), repr(float(cfg.solver.kappa)), repr(t), repr(ds),
                      str(int(par["seed"])),
                      repr(float(np.mean(dx))), repr(float(np.mean(dy))),
                      repr(var_dx), repr(var_dy),
                      repr(float(np.sqrt(target / n)) if target > 0 else 0.0),
                      repr(float(se_var))])]
    writer = ArtifactWriter(outdir)
    writer.write_text("sde.csv", "\n".join(rows) + "\n")
    writer.write_manifest("sde", cfg.doc, time.perf_counter() - t0,
                          _seeds_of(cfg), __version__)


def cmd_fdr(cfg: RunConfig, outdir: Path) -> None:
    t0 = time.perf_counter()
    par = cfg.doc["particles"]
    times = sorted(float(t) for t in par["times"])
    for t in times:
        check_checkpoint(t, cfg.solver.dt)
    rho0 = cfg.initial_field()
    launch = cfg.launch_box()
    rows = ["t,lhs,rhs,ratio"]
    notes = []
    for idx, t in enumerate(times):
        res = fdr_check(rho0, cfg.velocity, cfg.solver.kappa, t,
                        dt=cfg.solver.dt, n=int(par["n"]), ds=float(par["ds"]),
                        seed=int(par["seed"]), record_every=cfg.solver.record_every,
                        launch_box=launch, stream=idx,
                        grad_backend=cfg.doc["solver"]["grad_backend"])
        if not (np.isfinite(res.lhs) and np.isfinite(res.rhs)):
            raise InstabilityError(f"fdr: non-finite estimate at t={t}")
        rows.append(f"{res.t!r},{res.lhs!r},{res.rhs!r},{res.ratio!r}")
        notes.append(f"t = {res.t!r}: rhs stderr = {res.rhs_stderr!r}")
    writer = ArtifactWriter(outdir)
    writer.write_text("fdr.csv", "\n".join(rows) + "\n")
    writer.write_text("fdr_stderr.txt", "\n".join(notes) + "\n")
    writer.write_manifest("fdr", cfg.doc, time.perf_counter() - t0,
                          _seeds_of(cfg), __version__)


def cmd_sweep(cfg: RunConfig, outdir: Path) -> None:
    t0 = time.perf_counter()
    sweep = cfg.doc["sweep"]
    rho0 = cfg.initial_field()
    fit = sweep_and_fit(sweep["kappas"], rho0, cfg.velocity, cfg.solver,
                        params=cfg.params, n_jobs=int(sweep["jobs"]),
                        window=tuple(sweep["window"]),
                        grad_backend=cfg.doc["solver"]["grad_backend"],
                        dts=sweep["dts"], t_ends=sweep["t_ends"])
    writer = ArtifactWriter(outdir)
    writer.write_text("sweep.csv", fit.to_csv())
    writer.write_text("exponent_report.txt", exponent_report(cfg.params, fit))
    writer.write_text("exponent_report.csv", exponent_report_csv(cfg.params, fit))
    line = np.exp(fit.intercept) * fit.kappas ** fit.slope
    writer.write_text("sweep.svg", line_plot_svg(
        fit.kappas,
        [("measured rate", fit.rates, "steelblue"),
         (f"fit slope {fit.slope:.3f}", line, "firebrick")],
        title="decay rate vs kappa", xlabel="kappa", ylabel="rate", logx=True))
    writer.write_manifest("sweep", cfg.doc, time.perf_counter() - t0,
                          _seeds_of(cfg), __version__)


def cmd_figures(cfg: RunConfig, outdir: Path) -> None:
    t0 = time.perf_counter()
    kappas = np.logspace(np.log10(0.01), 0.0, FIG1_POINTS)
    curves = {name: [figure1_curve(float(k), name) for k in kappas]
              for name in ("blue", "red", "green")}
    rows = ["kappa,blue,red,green"]
    for i, k in enumerate(kappas):
        rows.append(f"{float(k)!r},{curves['blue'][i]!r},"
                    f"{curves['red'][i]!r},{curves['green'][i]!r}")
    fig1_csv = "\n".join(rows) + "\n"

    pq = np.linspace(1.0, 5.0, FIG2_POINTS)
    surf = [[figure2_surface(float(p), float(q)) for q in pq] for p in pq]
    rows = ["p,q,r"]
    for i, p in enumerate(pq):
        for j, q in enumerate(pq):
            rows.append(f"{float(p)!r},{float(q)!r},{surf[i][j]!r}")
    fig2_csv = "\n".join(rows) + "\n"

    writer = ArtifactWriter(outdir)
    writer.write_text("fig1.csv", fig1_csv)
    writer.write_text("fig2.csv", fig2_csv)
    writer.write_text("fig1.svg", line_plot_svg(
        kappas,
        [("p=2, q=3", curves["blue"], "blue"),
         ("p=3, q=4", curves["red"], "red"),
         ("p=4, q=5", curves["green"], "green")],
        title="rate curves", xlabel="kappa", ylabel="r(kappa)", logx=True))
    writer.write_text("fig2.svg", heatmap_svg(
        surf, (1.0, 5.0, 1.0, 5.0),
        title="rate surface at kappa = 0.1", xlabel="p", ylabel="q"))
    writer.write_manifest("figures", cfg.doc, time.perf_counter() - t0,
                          [], __version__)


_COMMANDS = {
    "pde": cmd_pde,
    "sde": cmd_sde,
    "fdr": cmd_fdr,
    "sweep": cmd_sweep,
    "figures": cmd_figures,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisodiff",
        description="enhanced-diffusion experiments on anisotropic 2-D boxes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY.PATH=VALUE", help="override a config field")
    p = sub.add_parser("rerun")
    p.add_argument("manifest", help="manifest.json from a previous run")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            payload = load_manifest(args.manifest)
            cfg = build_config(payload["config"])
            experiment = payload["experiment"]
            outdir = Path(args.out)
        else:
            base = {"experiment": args.command} if args.config is None else None
            cfg = load_config(args.config, overrides=args.overrides, base=base)
            if cfg.experiment != args.command:
                raise ConfigError(
                    f"experiment: config says {cfg.experiment!r} but the "
                    f"{args.command!r} command was invoked")
            experiment = args.command
            outdir = _resolve_outdir(args.out, cfg, experiment)
        if outdir.exists() and not outdir.is_dir():
            raise OSError(f"output path {outdir} exists and is not a directory")
        _COMMANDS[experiment](cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InstabilityError, InsufficientDecayError, FitWindowError,
            SweepError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except AnisodiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
