"""Command-line entry point: experiments in, CSV/SVG artifacts out.

Commands
    pde      integrate the drift-diffusion equation, write the decay series
    sde      backward trajectories from one point, write displacement statistics
    fdr      fluctuation-dissipation check at one or more checkpoints
    sweep    kappa sweep -> rates -> scaling-exponent regression
    figures  the two fixed rate figures (fig1/fig2 CSV + SVG)
    rerun    repeat any command from a previous run's manifest

Each `cmd_*` only computes: it takes a validated RunConfig and returns
its artifacts as {file name: text}.  `main` times it, then writes every
artifact and the manifest through one ArtifactWriter, so nothing touches
the disk before the last artifact is computed and all writes stay inside
the output directory.

Exit codes: 0 success, 2 config error, 3 numerical/statistical failure,
4 I/O error; a sweep exits with its first failed kappa run's code.  The
config is validated fully before any compute, but for a sweep kappa's
upwind bound, which that kappa's run checks as it starts.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (FIGURE1_KAPPA_RANGE, FIGURE2_KAPPA, FIGURE2_PQ_RANGE,
                       exponent_report, exponent_report_csv, fdr_check,
                       figure1_curve, figure2_surface, fit_decay, sweep_and_fit)
from .config import RunConfig, load_config
from .errors import (AnisodiffError, ConfigError, FitWindowError,
                     InstabilityError, InsufficientDecayError)
from .fields import to_csv as field_to_csv
from .manifest import ArtifactWriter, csv_text, load_manifest
from .particles import endpoints, time_grid
from .solver import run
from .svgplot import heatmap_svg, line_plot_svg

ENV_OUTPUT_ROOT = "ANISODIFF_OUT"

FIG1_POINTS = 100
FIG2_POINTS = 30


def _resolve_outdir(flag_value, cfg: RunConfig) -> Path:
    root = Path(os.environ.get(ENV_OUTPUT_ROOT, "out"))
    return Path(flag_value or cfg.doc["output"]["dir"] or root / cfg.experiment)


def _seeds_of(cfg: RunConfig) -> list[int]:
    if cfg.experiment == "figures":
        return []
    seeds = []
    if cfg.doc["initial"]["kind"] == "random":
        seeds.append(cfg.doc["initial"]["seed"])
    if cfg.experiment in ("sde", "fdr"):
        seeds.append(cfg.doc["particles"]["seed"])
    return seeds


def cmd_pde(cfg: RunConfig) -> dict[str, str]:
    rho0 = cfg.initial_field()
    series = run(rho0, cfg.velocity, cfg.solver)
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
    return {
        "decay.csv": series.to_csv(),
        "rho_final.csv": field_to_csv(series.final_state),
        "decay.svg": line_plot_svg(
            series.times,
            [("norm_sq", series.norms_sq, "steelblue"),
             ("dissipation", series.dissipation, "firebrick")],
            title="scalar decay", xlabel="t", ylabel="value"),
        "summary.txt": "\n".join(lines) + "\n",
    }


def cmd_sde(cfg: RunConfig) -> dict[str, str]:
    par = cfg.doc["particles"]
    n, t, ds, kappa = par["n"], float(par["t"]), float(par["ds"]), cfg.solver.kappa
    x0, y0 = float(par["x0"]), float(par["y0"])
    x, y = endpoints(cfg.box, cfg.velocity, x0, y0, t, kappa, n, ds, par["seed"])
    dx = cfg.box.wrap_x(x - cfg.box.wrap_x(x0))
    dy = cfg.box.wrap_y(y - cfg.box.wrap_y(y0))
    if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dy))):
        raise InstabilityError("sde: non-finite displacement encountered")
    step = time_grid(cfg.velocity, t, kappa, n, ds)[1]   # the step actually taken
    target = 2.0 * kappa * t
    se_mean = np.sqrt(target / n) if target > 0 else 0.0
    se_var = target * np.sqrt(2.0 / (n - 1)) if target > 0 else 0.0
    row = (n, float(kappa), t, step, par["seed"], np.mean(dx), np.mean(dy),
           np.var(dx, ddof=1), np.var(dy, ddof=1), se_mean, se_var)
    return {"sde.csv": csv_text(
        "n,kappa,t,ds,seed,mean_dx,mean_dy,var_dx,var_dy,se_mean,se_var", [row])}


def cmd_fdr(cfg: RunConfig) -> dict[str, str]:
    """One solver run to the last checkpoint, one Feynman-Kac call per checkpoint."""
    par = cfg.doc["particles"]
    results = fdr_check(cfg.initial_field(), cfg.velocity, cfg.solver, par["times"],
                        n=par["n"], ds=float(par["ds"]), seed=par["seed"],
                        launch_box=cfg.launch_box)
    for res in results:
        if not (np.isfinite(res.lhs) and np.isfinite(res.rhs)):
            raise InstabilityError(f"fdr: non-finite estimate at t={res.t}")
    return {
        "fdr.csv": csv_text("t,lhs,rhs,ratio",
                            [(r.t, r.lhs, r.rhs, r.ratio) for r in results]),
        "fdr_stderr.txt": "".join(f"t = {r.t!r}: rhs stderr = {r.rhs_stderr!r}\n"
                                  for r in results),
    }


def cmd_sweep(cfg: RunConfig) -> dict[str, str]:
    sweep = cfg.doc["sweep"]
    rho0 = cfg.initial_field()
    fit = sweep_and_fit(sweep["kappas"], rho0, cfg.velocity, cfg.solver,
                        window=tuple(sweep["window"]),
                        dts=sweep["dts"], t_ends=sweep["t_ends"])
    line = np.exp(fit.intercept) * fit.kappas ** fit.slope
    return {
        "sweep.csv": fit.to_csv(),
        "exponent_report.txt": exponent_report(cfg.velocity.params, fit),
        "exponent_report.csv": exponent_report_csv(cfg.velocity.params, fit),
        "sweep.svg": line_plot_svg(
            fit.kappas,
            [("measured rate", fit.rates, "steelblue"),
             (f"fit slope {fit.slope:.3f}", line, "firebrick")],
            title="decay rate vs kappa", xlabel="kappa", ylabel="rate", logx=True),
    }


def cmd_figures(cfg: RunConfig) -> dict[str, str]:
    kappas = np.logspace(*np.log10(FIGURE1_KAPPA_RANGE), FIG1_POINTS)
    curves = {name: [figure1_curve(float(k), name) for k in kappas]
              for name in ("blue", "red", "green")}
    pq = np.linspace(*FIGURE2_PQ_RANGE, FIG2_POINTS)
    surf = [[figure2_surface(float(p), float(q)) for q in pq] for p in pq]
    return {
        "fig1.csv": csv_text("kappa,blue,red,green",
                             zip(kappas, curves["blue"], curves["red"], curves["green"])),
        "fig2.csv": csv_text("p,q,r", [(p, q, r) for p, row in zip(pq, surf)
                                       for q, r in zip(pq, row)]),
        "fig1.svg": line_plot_svg(
            kappas,
            [("p=2, q=3", curves["blue"], "blue"),
             ("p=3, q=4", curves["red"], "red"),
             ("p=4, q=5", curves["green"], "green")],
            title="rate curves", xlabel="kappa", ylabel="r(kappa)", logx=True),
        "fig2.svg": heatmap_svg(
            surf, (*FIGURE2_PQ_RANGE, *FIGURE2_PQ_RANGE),
            title=f"rate surface at kappa = {FIGURE2_KAPPA}", xlabel="p", ylabel="q"),
    }


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
            cfg = load_config(base=payload["config"])
            experiment, outdir = payload["experiment"], Path(args.out)
        else:
            cfg = load_config(args.config, overrides=args.overrides,
                              base={"experiment": args.command})
            experiment, outdir = args.command, _resolve_outdir(args.out, cfg)
        if cfg.experiment != experiment:
            raise ConfigError(f"experiment: config says {cfg.experiment!r} but "
                              f"{experiment!r} was requested")
        if outdir.exists() and not outdir.is_dir():
            raise OSError(f"output path {outdir} exists and is not a directory")
        t0 = time.perf_counter()
        artifacts = _COMMANDS[experiment](cfg)
        writer = ArtifactWriter(outdir)
        for name, text in artifacts.items():
            writer.write_text(name, text)
        writer.write_manifest(experiment, cfg.doc, time.perf_counter() - t0,
                              _seeds_of(cfg), __version__)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AnisodiffError as exc:  # every other package error is numerical
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
