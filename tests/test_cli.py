import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from anisodiff import analysis
from anisodiff.analysis import figure1_curve, figure2_surface
from anisodiff.cli import main
from anisodiff.config import DEFAULTS, load_config
from anisodiff.manifest import load_manifest, sha256_file
from anisodiff.particles import feynman_kac, variance_integral
from anisodiff.solver import run

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows)


HEAT_CONFIG = {
    "experiment": "pde",
    "domain": {"family": "zero", "nx": 64, "ny": 64},
    "solver": {"kappa": 0.01, "dt": 1e-3, "t_end": 1.0, "record_every": 10},
}


class TestFigures:
    def test_artifacts_and_values(self, tmp_path):
        out = tmp_path / "figs"
        assert main(["figures", "--out", str(out)]) == 0
        header, rows = read_csv(out / "fig1.csv")
        assert header == ["kappa", "blue", "red", "green"]
        assert rows.shape == (100, 4)
        for k, b, r, g in rows[::17]:
            assert b == figure1_curve(k, "blue")
            assert r == figure1_curve(k, "red")
            assert g == figure1_curve(k, "green")
        assert rows[0, 0] == pytest.approx(0.01, rel=1e-14)
        assert rows[-1, 0] == pytest.approx(1.0, rel=1e-14)

        header, rows = read_csv(out / "fig2.csv")
        assert header == ["p", "q", "r"]
        assert rows.shape == (900, 3)
        for p, q, r in rows[::97]:
            assert r == figure2_surface(p, q)
        assert (out / "fig1.svg").exists()
        assert (out / "fig2.svg").exists()


class TestPde:
    def test_decay_starts_at_initial_norm(self, tmp_path):
        cfg = write_config(tmp_path, HEAT_CONFIG)
        out = tmp_path / "run"
        assert main(["pde", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "decay.csv")
        assert header == ["t", "norm_sq", "dissipation"]
        assert rows[0, 0] == 0.0
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-12)  # ||sin sin||^2
        assert rows[0, 2] == 0.0
        assert (out / "rho_final.csv").exists()
        assert (out / "decay.svg").exists()

    def test_summary_has_heat_rate(self, tmp_path):
        doc = dict(HEAT_CONFIG, solver=dict(HEAT_CONFIG["solver"], t_end=2.0))
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        main(["pde", "--config", cfg, "--out", str(out)])
        summary = (out / "summary.txt").read_text()
        rate_line = [ln for ln in summary.splitlines() if "fitted rate" in ln][0]
        rate = float(rate_line.split("=")[1].split("+/-")[0])
        assert rate == pytest.approx(4 * np.pi ** 2 * 0.01, rel=2e-2)

    def test_malformed_config_exits_2_no_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "nothing"
        assert main(["pde", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

        cfg = write_config(tmp_path, {"solver": {"dt": -1}})
        assert main(["pde", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_energy_growth_exits_3(self, tmp_path, monkeypatch):
        from anisodiff import solver as solver_mod

        # 1.01x per step: below the one-step breaker
        monkeypatch.setattr(solver_mod, "step_operator",
                            lambda box, velocity, cfg: lambda v: 1.01 * v)
        # 200 steps stay below the 100x total-growth breaker
        doc = dict(HEAT_CONFIG, solver=dict(HEAT_CONFIG["solver"], t_end=0.2))
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "grow"
        assert main(["pde", "--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()

    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"solver": {"velocity": 3}})
        assert main(["pde", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_experiment_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, HEAT_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command,doc", [
        ("figures", {}),
        ("sde", {"domain": {"family": "zero", "nx": 32, "ny": 32},
                 "particles": {"n": 100, "ds": 0.01, "t": 0.1, "seed": 7}}),
    ])
    def test_config_without_experiment_runs_the_command(self, tmp_path, command, doc):
        # the command names the experiment that the file leaves out
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "x"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert load_manifest(out / "manifest.json")["experiment"] == command

    def test_set_overrides(self, tmp_path):
        cfg = write_config(tmp_path, HEAT_CONFIG)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["pde", "--config", cfg, "--out", str(out1)])
        main(["pde", "--config", cfg, "--out", str(out2),
              "--set", "solver.kappa=0.02"])
        _, rows1 = read_csv(out1 / "decay.csv")
        _, rows2 = read_csv(out2 / "decay.csv")
        assert rows2[-1, 1] < rows1[-1, 1]  # faster decay at larger kappa

    def test_bad_override_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, HEAT_CONFIG)
        code = main(["pde", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--set", "solver.nonsense=1"])
        assert code == 2

    def test_malformed_particle_field_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, HEAT_CONFIG)
        code = main(["pde", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--set", "particles.n=abc"])
        assert code == 2

    def test_fourier_sum_initial_kind(self, tmp_path):
        doc = dict(HEAT_CONFIG)
        doc["initial"] = {"kind": "sum",
                          "terms": [[1, 1, "ss", 1.0], [2, 2, "cc", 0.3]]}
        doc["solver"] = dict(HEAT_CONFIG["solver"], t_end=0.1)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sum_run"
        assert main(["pde", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "decay.csv")
        # ||sin sin||^2 + 0.09 ||cos cos||^2 = 1 + 0.09 on the unit box
        assert rows[0, 1] == pytest.approx(1.09, abs=1e-10)

    def test_amplitude_scales_fourier_sum(self, tmp_path):
        cfg = write_config(tmp_path, dict(HEAT_CONFIG, initial={
            "kind": "sum", "terms": [[1, 1, "ss", 1.0], [2, 1, "cs", 0.5]]}))
        norms = []
        for amplitude in (1, 2):
            out = tmp_path / f"amp{amplitude}"
            assert main(["pde", "--config", cfg, "--out", str(out),
                         "--set", f"initial.amplitude={amplitude}"]) == 0
            norms.append(read_csv(out / "decay.csv")[1][:, 1])
        assert np.allclose(norms[1], 4.0 * norms[0], rtol=1e-12, atol=0.0)


class TestSde:
    def test_stats_file(self, tmp_path):
        doc = {
            "experiment": "sde",
            "domain": {"family": "zero", "nx": 32, "ny": 32},
            "solver": {"kappa": 0.01, "dt": 1e-2, "t_end": 1.0, "record_every": 1},
            "particles": {"n": 20000, "ds": 0.01, "t": 1.0, "seed": 7},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sde"
        assert main(["sde", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "sde.csv")
        assert header[:5] == ["n", "kappa", "t", "ds", "seed"]
        row = dict(zip(header, rows[0]))
        assert row["ds"] == row["t"]   # a zero field takes one step of the whole t
        assert abs(row["var_dx"] - 0.02) < 3 * row["se_var"]
        assert abs(row["mean_dy"]) < 3 * row["se_mean"]


def count_solver_runs(monkeypatch):
    """Record every solver run started by a command (pde, sweeps, fdr)."""
    from anisodiff import cli as cli_mod

    calls = []
    real = analysis.run

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "run", spy)
    monkeypatch.setattr(cli_mod, "run", spy)
    return calls


class TestFdr:
    def make_doc(self, kappa):
        return {
            "experiment": "fdr",
            "domain": {"family": "stream", "amplitude": 0.5, "nx": 32, "ny": 32},
            "solver": {"kappa": kappa, "dt": 0.01, "t_end": 1.0, "record_every": 1},
            "particles": {"n": 400, "ds": 0.0125, "seed": 5,
                          "times": [0.25, 0.5], "grid_nx": 16, "grid_ny": 16},
        }

    def test_zero_kappa_rows(self, tmp_path):
        cfg = write_config(tmp_path, self.make_doc(0.0))
        out = tmp_path / "fdr0"
        assert main(["fdr", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "fdr.csv")
        assert header == ["t", "lhs", "rhs", "ratio"]
        assert np.all(rows[:, 1] == 0.0)
        assert np.all(rows[:, 2] == 0.0)

    def test_ratio_finite_positive_when_rhs_positive(self, tmp_path):
        cfg = write_config(tmp_path, self.make_doc(0.05))
        out = tmp_path / "fdr"
        assert main(["fdr", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "fdr.csv")
        assert np.all(rows[:, 2] > 0)
        assert np.all(np.isfinite(rows[:, 3])) and np.all(rows[:, 3] > 0)
        assert (out / "fdr_stderr.txt").exists()

    def test_checkpoint_off_solver_grid_exits_2(self, tmp_path, capsys):
        doc = self.make_doc(0.05)
        doc["solver"].update(dt=3e-3, t_end=0.3)   # solver.t_end on the grid
        doc["particles"]["times"] = [1.0]          # 333.33 steps
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "offgrid"
        assert main(["fdr", "--config", cfg, "--out", str(out)]) == 2
        assert "particles.times" in capsys.readouterr().err
        assert not out.exists()

    def test_monte_carlo_blowup_exits_3(self, tmp_path, monkeypatch):
        from anisodiff import cli as cli_mod
        from anisodiff.analysis import FdrResult

        def broken(*args, **kwargs):
            return [FdrResult(t=0.25, lhs=float("nan"), rhs=1.0, ratio=float("nan"),
                              rhs_stderr=0.0)]

        monkeypatch.setattr(cli_mod, "fdr_check", broken)
        cfg = write_config(tmp_path, self.make_doc(0.05))
        assert main(["fdr", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
        assert not (tmp_path / "x").exists()

    def test_ds_beyond_first_checkpoint_runs(self, tmp_path):
        # the first checkpoint is shorter than ds: its particles take one step of t
        doc = self.make_doc(0.05)
        doc["solver"]["dt"] = 0.002
        doc["particles"].update(times=[0.004, 0.5], ds=0.005, n=50, grid_nx=8, grid_ny=8)
        out = tmp_path / "early"
        assert main(["fdr", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        rows = read_csv(out / "fdr.csv")[1]
        assert list(rows[:, 0]) == [0.004, 0.5]
        cfg = load_config(base=doc)
        _, vmap = feynman_kac(cfg.initial_field(), cfg.velocity, 0.004, 0.05, 50, 0.004,
                              5, launch_box=cfg.launch_box, stream=0)
        assert rows[0, 2] == variance_integral(vmap)

    def test_last_checkpoint_shorter_than_record_stride_runs(self, tmp_path):
        # 5 steps at a record stride of 10: the lhs is the run's final sample
        doc = self.make_doc(0.05)
        doc["solver"].update(dt=0.001, record_every=10)
        doc["particles"].update(times=[0.005], ds=0.001, n=50, grid_nx=8, grid_ny=8)
        out = tmp_path / "short"
        assert main(["fdr", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        cfg = load_config(base=doc)
        series = run(cfg.initial_field(), cfg.velocity, replace(cfg.solver, t_end=0.005))
        assert list(series.times) == [0.0, 0.005]
        assert read_csv(out / "fdr.csv")[1][0, 1] == float(series.dissipation[-1])

    def test_upwind_scheme_runs_and_is_recorded(self, tmp_path):
        # the lhs is the dissipation of a run of the configured scheme
        lhs = {}
        for scheme in ("sl_cn", "upwind"):
            doc = self.make_doc(0.05)
            doc["solver"]["scheme"] = scheme
            doc["particles"].update(n=20, times=[0.25], grid_nx=8, grid_ny=8)
            out = tmp_path / scheme
            assert main(["fdr", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 0
            lhs[scheme] = read_csv(out / "fdr.csv")[1][0, 1]
            assert load_manifest(out / "manifest.json")["config"]["solver"]["scheme"] \
                == scheme
            cfg = load_config(base=doc)
            series = run(cfg.initial_field(), cfg.velocity, replace(cfg.solver, t_end=0.25))
            assert lhs[scheme] == float(series.dissipation[-1])
        assert lhs["upwind"] != lhs["sl_cn"]

    def test_one_solver_run_for_all_checkpoints(self, tmp_path, monkeypatch):
        calls = count_solver_runs(monkeypatch)
        cfg = write_config(tmp_path, self.make_doc(0.05))
        out = tmp_path / "fdr"
        assert main(["fdr", "--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == 1 and calls[0][2].t_end == 0.5
        _, rows = read_csv(out / "fdr.csv")
        assert list(rows[:, 0]) == [0.25, 0.5]


SWEEP_DOC = {
    "experiment": "sweep",
    "domain": {"family": "zero", "nx": 32, "ny": 32},
    "solver": {"kappa": 1e-3, "dt": 0.01, "t_end": 1.0, "record_every": 1},
    "sweep": {"kappas": [1e-3, 5e-3, 2e-2, 1e-1],
              "dts": [0.4, 0.08, 0.02, 0.004],
              "t_ends": [70.0, 14.0, 3.5, 0.7]},
}


class TestSweep:
    def test_report_and_csv(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_DOC)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["kappa", "rate", "rate_stderr", "fit_r2"]
        assert rows.shape == (4, 4)
        report = (out / "exponent_report.txt").read_text()
        assert "6/7" in report and "2/5" in report and "MISMATCH" in report
        assert (out / "exponent_report.csv").exists()
        slope = float([ln for ln in report.splitlines()
                       if "measured log-log slope" in ln][0].split(":")[1].split("+/-")[0])
        assert slope == pytest.approx(1.0, abs=1e-5)

    def test_insufficient_decay_exits_3(self, tmp_path):
        doc = dict(SWEEP_DOC)
        doc["sweep"] = {"kappas": [1e-3, 5e-3, 2e-2, 1e-1],
                        "dts": None, "t_ends": None}
        doc["solver"] = {"kappa": 1e-3, "dt": 0.001, "t_end": 0.01,
                         "record_every": 1}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 3

    def test_upwind_dt_too_large_at_one_kappa_exits_2(self, tmp_path, capsys):
        # dt = 0.02 breaks the upwind bound (about 0.0098) at kappa = 0.1 only
        out = tmp_path / "x"
        assert main(["sweep", "--out", str(out), "--set", "domain.nx=32",
                     "--set", "domain.ny=32", "--set", "domain.family=zero",
                     "--set", "solver.scheme=upwind",
                     "--set", "sweep.kappas=[1e-3,5e-3,1e-2,2e-2,1e-1]",
                     "--set", "sweep.dts=[0.4,0.08,0.04,0.02,0.02]",
                     "--set", "sweep.t_ends=[70,14,7,3.5,0.7]"]) == 2
        err = capsys.readouterr().err
        assert "sweep: kappa=0.1: solver.dt" in err
        assert not out.exists()

    def test_bad_window_exits_2_before_compute(self, tmp_path, monkeypatch):
        calls = count_solver_runs(monkeypatch)
        cfg = write_config(tmp_path, SWEEP_DOC)
        out = tmp_path / "x"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--set", "sweep.window=[0.9,0.1]"]) == 2
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("jobs", ["abc", "0", "1.5"])
    def test_bad_jobs_exits_2(self, tmp_path, capsys, jobs):
        # the sweep sizes its process pool from the CPUs it may use, so
        # any sweep.jobs is refused as an unknown field
        cfg = write_config(tmp_path, SWEEP_DOC)
        out = tmp_path / "x"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--set", f"sweep.jobs={jobs}"]) == 2
        assert "config.sweep.jobs: unknown field" in capsys.readouterr().err
        assert not out.exists()


class TestRerunAndDeterminism:
    def test_figures_rerun_byte_identical(self, tmp_path):
        out1 = tmp_path / "f1"
        out2 = tmp_path / "f2"
        main(["figures", "--out", str(out1)])
        assert main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        for name in ("fig1.csv", "fig2.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_pde_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, HEAT_CONFIG)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        main(["pde", "--config", cfg, "--out", str(out1)])
        main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)])
        for name in ("decay.csv", "rho_final.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_sweep_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_DOC)
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        for name in ("sweep.csv", "exponent_report.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_fdr_rerun_byte_identical(self, tmp_path):
        doc = TestFdr().make_doc(0.05)
        doc["particles"]["times"] = [0.25]
        doc["particles"]["n"] = 200
        cfg = write_config(tmp_path, doc)
        out1 = tmp_path / "d1"
        out2 = tmp_path / "d2"
        assert main(["fdr", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert (out1 / "fdr.csv").read_bytes() == (out2 / "fdr.csv").read_bytes()

    def edited_manifest(self, tmp_path, edit):
        out = tmp_path / "f1"
        assert main(["figures", "--out", str(out)]) == 0
        manifest = out / "manifest.json"
        payload = json.loads(manifest.read_text())
        edit(payload["config"])
        manifest.write_text(json.dumps(payload))
        return out, manifest

    def test_missing_section_takes_defaults(self, tmp_path):
        out1, manifest = self.edited_manifest(tmp_path, lambda c: c.pop("sweep"))
        out2 = tmp_path / "f2"
        assert main(["rerun", str(manifest), "--out", str(out2)]) == 0
        for name in ("fig1.csv", "fig2.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_field_exits_2(self, tmp_path):
        _, manifest = self.edited_manifest(
            tmp_path, lambda c: c["solver"].update(bogus=1))
        out2 = tmp_path / "f2"
        assert main(["rerun", str(manifest), "--out", str(out2)]) == 2
        assert not out2.exists()

    def test_removed_grad_backend_field_exits_2(self, tmp_path):
        _, manifest = self.edited_manifest(
            tmp_path, lambda c: c["solver"].update(grad_backend="difference"))
        out2 = tmp_path / "f2"
        assert main(["rerun", str(manifest), "--out", str(out2)]) == 2
        assert not out2.exists()

    def test_removed_jobs_field_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        _, manifest = self.edited_manifest(tmp_path, lambda c: c["sweep"].update(jobs=1))
        assert main(["rerun", str(manifest), "--out", str(out)]) == 2
        assert "config.sweep.jobs: unknown field" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_regularity_tag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        _, manifest = self.edited_manifest(tmp_path, lambda c: c["domain"].update(alpha=1.0))
        assert main(["rerun", str(manifest), "--out", str(out)]) == 2
        assert "config.domain.alpha: unknown field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,named", [
        ('{"experiment": "pde", "config": {}}', "'artifacts'"),
        ('{"experiment": "pde", "artifacts": {}, "config": []}',
         "config must be a JSON object"),
    ], ids=["no-artifacts", "config-list"])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, text, named):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        out = tmp_path / "x"
        assert main(["rerun", str(manifest), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_experiment_must_match_config(self, tmp_path):
        cfg = write_config(tmp_path, dict(HEAT_CONFIG, solver=dict(
            HEAT_CONFIG["solver"], t_end=0.01)))
        out1 = tmp_path / "r1"
        assert main(["pde", "--config", cfg, "--out", str(out1)]) == 0
        manifest = out1 / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["experiment"] = "sde"
        manifest.write_text(json.dumps(payload))
        out2 = tmp_path / "r2"
        assert main(["rerun", str(manifest), "--out", str(out2)]) == 2
        assert not out2.exists()


class TestOutputHandling:
    def test_env_var_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ANISODIFF_OUT", str(tmp_path / "root"))
        assert main(["figures"]) == 0
        assert (tmp_path / "root" / "figures" / "fig1.csv").exists()

    def test_out_path_collides_with_file(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file in the way")
        assert main(["figures", "--out", str(blocker)]) == 4

    def test_writes_confined_to_outdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("ANISODIFF_OUT", raising=False)
        cfg = write_config(tmp_path, HEAT_CONFIG)
        before = {p.name for p in tmp_path.iterdir()}
        main(["pde", "--config", cfg, "--out", str(tmp_path / "only_here")])
        after = {p.name for p in tmp_path.iterdir()}
        assert after - before == {"only_here"}


def readme_artifacts() -> dict[str, set[str]]:
    """command -> artifact file names, from the README's artifact table."""
    table = {}
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] in MANIFEST_CASES:
            table[cells[0]] = set(cells[1].split(", "))
    return table


MANIFEST_CASES = {
    "figures": None,
    "pde": dict(HEAT_CONFIG, solver=dict(HEAT_CONFIG["solver"], t_end=0.1)),
    "sde": {"experiment": "sde", "domain": {"family": "zero", "nx": 32, "ny": 32},
            "particles": {"n": 100, "ds": 0.01, "t": 0.1, "seed": 7}},
    "fdr": dict(TestFdr().make_doc(0.05), particles={
        "n": 50, "ds": 0.0125, "seed": 5, "times": [0.25],
        "grid_nx": 8, "grid_ny": 8}),
    "sweep": SWEEP_DOC,
}


class TestManifest:
    @pytest.mark.parametrize("command", sorted(MANIFEST_CASES))
    def test_manifest_checksums(self, tmp_path, command):
        out = tmp_path / command
        argv = [command, "--out", str(out)]
        if MANIFEST_CASES[command] is not None:
            argv += ["--config", write_config(tmp_path, MANIFEST_CASES[command])]
        assert main(argv) == 0
        manifest = load_manifest(out / "manifest.json")
        assert manifest["experiment"] == command
        assert set(manifest["artifacts"]) == readme_artifacts()[command]
        assert {p.name for p in out.iterdir()} == {*manifest["artifacts"], "manifest.json"}
        for name, digest in manifest["artifacts"].items():
            assert sha256_file(out / name) == digest


# (command, overrides, text the error must contain)
BAD_CONFIGS = [
    ("pde", ["initial.mx=abc"], "initial.mx"),
    ("sweep", ["initial.mx=abc"], "initial.mx"),
    ("fdr", ["initial.mx=abc"], "initial.mx"),
    ("sde", ["particles.x0=abc"], "particles.x0"),
    ("sde", ["particles.seed=abc"], "particles.seed"),
    ("sde", ["particles.seed=-1"], "particles.seed"),
    ("fdr", ["particles.seed=abc"], "particles.seed"),
    ("fdr", ["particles.seed=-1"], "particles.seed"),
    ("sweep", ['sweep.kappas=["a","b","c","d"]'], "'a'"),
    ("sweep", ['sweep.dts=["a","b","c","d","e","f","g"]'], "'a'"),
    ("sde", ["initial.kind=foo"], "initial.kind"),
    ("pde", ["domain.nx=64.5"], "domain.nx"),
    ("pde", ["domain.nx=true"], "domain.nx"),
    ("pde", ["solver.record_every=1.5"], "solver.record_every"),
    ("pde", ["initial.mx=1.5"], "initial.mx"),
    ("pde", ["initial.kind=sum", 'initial.terms=[[1.5,1,"ss",1.0]]'], "initial.terms"),
    ("pde", ["sweep.kappas=[0.01,0.02,0.03,0.05]"], "decade"),
    ("pde", ["initial.amplitude=NaN"], "initial.amplitude"),
    ("sde", ["particles.ds=NaN"], "particles.ds"),
    ("sde", ["particles.t=Infinity"], "particles.t"),
    ("sde", ["particles.ds=0"], "particles.ds"),
    ("pde", ["particles.ds=0"], "particles.ds"),
    ("pde", ["particles.grid_nx=9"], "particles.grid_nx"),
    ("fdr", ["particles.grid_nx=9"], "particles.grid_nx"),
    ("fdr", ["particles.grid_ny=9"], "particles.grid_ny"),
    ("pde", ["solver.grad_backend=difference"], "grad_backend"),
    ("pde", ["domain.p=true"], "domain.p"),
    ("pde", ["solver.kappa=true"], "solver.kappa"),
    ("pde", ["domain.epsilon=NaN"], "domain.epsilon"),
    ("pde", ['solver.kappa="0.02"'], "solver.kappa"),
    ("fdr", ["particles.times=[0.25,true]"], "particles.times"),
    ("pde", ["initial.kind=sum", 'initial.terms=[[1,1,"ss",true]]'], "initial.terms"),
    ("pde", ["output.dir=5"], "output.dir"),
    ("pde", ["output.dir=[1]"], "output.dir"),
    ("pde", ["initial.terms=[[1,1]]"], "initial.terms"),
    ("pde", ["initial.terms=5"], "initial.terms"),
    ("pde", ['initial.terms=[[1,1,"ss",1.0,7]]'], "initial.terms"),
    ("pde", ["initial.terms=[[1,1,5,1.0]]"], "initial.terms"),
    ("pde", ['initial.terms=[[0,1,"ss",1.0]]'], "initial.terms"),
    ("sweep", ["sweep=5"], "config.sweep: expected a section"),
    ("pde", ["solver=5"], "config.solver: expected a section"),
    ("pde", ['solver={"kappa":"x"}'], "solver.kappa"),
    ("pde", ['domain={"nx":64.5}'], "domain.nx"),
    ("sweep", ['sweep={"jobs":2}'], "config.sweep.jobs: unknown field"),
    ("pde", ["solver.kappa.x=1"], "solver.kappa"),
    ("sweep", ["sweep.window=[0.1,0.5,0.9]"], "sweep.window"),
    ("fdr", ["particles.times=[0.25,0.5]", "solver.record_every=10"],
     "particles.times"),
    ("fdr", ["particles.times=[0.25,0.25]"], "particles.times"),
    ("fdr", ["particles.times=[]"], "particles.times"),
    ("fdr", ["particles.times=[0,0.5]"], "particles.times"),
    ("fdr", ["particles.times=[-0.5]"], "particles.times"),
    ("pde", ["solver.kappa"], "solver.kappa"),
    ("sweep", ["sweep.kappas=[0,0.01,0.1,1]"], "sweep.kappas"),
    ("pde", ["domain.nx=9"], "domain.nx"),
    ("pde", ["domain.Lx=-1"], "domain.Lx"),
    ("pde", ["domain.p=-1"], "domain.p"),
    ("pde", ["domain.alpha=0"], "config.domain.alpha: unknown field"),
    ("pde", ["domain.beta=1"], "config.domain.beta: unknown field"),
    ("pde", ["domain.family=stream", "domain.p=0.5", "domain.epsilon=0"], "domain.epsilon"),
    ("pde", ["domain.family=stream", "domain.epsilon=-1"], "domain.epsilon"),
    ("pde", ["domain.family=zero", "domain.epsilon=-1"], "domain.epsilon"),
    ("pde", ["domain.family=shear", "domain.epsilon=-1"], "domain.epsilon"),
    ("pde", ["domain.family=constant"], "domain.family"),
    ("pde", ["initial.kind=random", "initial.max_mode=0"], "initial.max_mode"),
    ("pde", ["initial.kind=random", "initial.max_mode=-2"], "initial.max_mode"),
    ("pde", ["initial.kind=random", "domain.nx=16", "domain.ny=8", "initial.max_mode=5"],
     "initial.max_mode"),
    ("sde", ["initial.kind=random", "initial.max_mode=17"], "initial.max_mode"),
    ("pde", ["initial.max_mode=10000"], "initial.max_mode"),
    ("pde", ["initial.mx=0"], "initial.mx"),
    # a mode past its axis's Nyquist mode vanishes at every cell centre or
    # aliases, whatever initial.kind
    ("pde", ["domain.nx=16", "domain.ny=16", "initial.mx=16"], "initial.mx"),
    ("pde", ["domain.nx=16", "domain.ny=8", "initial.my=5"], "initial.my"),
    ("pde", ["domain.nx=16", "domain.ny=16", "initial.kind=random", "initial.mx=9"],
     "initial.mx"),
    ("pde", ["domain.nx=16", "domain.ny=16", "initial.kind=sum",
             'initial.terms=[[9,1,"cs",1.0]]'], "initial.terms"),
    ("pde", ["domain.nx=16", "domain.ny=8", "initial.kind=sum",
             'initial.terms=[[1,1,"ss",1.0],[8,5,"ss",1.0]]'], "initial.terms"),
    # a cosine factor at its axis's Nyquist mode vanishes at every cell centre
    ("pde", ["domain.nx=16", "domain.ny=8", "initial.kind=sum",
             'initial.terms=[[8,4,"cs",1.0]]'], "initial.terms"),
    ("pde", ["domain.nx=16", "domain.ny=8", "initial.kind=sum",
             'initial.terms=[[1,4,"sc",1.0]]'], "initial.terms"),
    ("pde", ["domain.nx=16", "domain.ny=8", "initial.kind=random", "initial.max_mode=4"],
     "initial.max_mode"),
    ("pde", ["initial.my=0"], "initial.my"),
    ("pde", ["solver.t_end=1", "solver.record_every=1", "solver.dt=0.3"], "solver.t_end"),
    ("pde", ["solver.t_end=1", "solver.record_every=1", "solver.dt=0.4"], "solver.t_end"),
    ("pde", ["solver.t_end=1", "solver.record_every=1", "solver.dt=0.6"], "solver.t_end"),
]


@pytest.mark.parametrize("command,overrides,named", BAD_CONFIGS,
                         ids=[f"{c}-{'-'.join(o)}" for c, o, _ in BAD_CONFIGS])
def test_bad_config_exits_2_before_compute(tmp_path, monkeypatch, capsys,
                                           command, overrides, named):
    calls = count_solver_runs(monkeypatch)
    out = tmp_path / "x"
    argv = [command, "--config", write_config(tmp_path, MANIFEST_CASES[command]),
            "--out", str(out)]
    for assignment in overrides:
        argv += ["--set", assignment]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert calls == [] and not out.exists()


def config_leaves(section=DEFAULTS, path=""):
    for key, value in section.items():
        if isinstance(value, dict):
            yield from config_leaves(value, f"{path}{key}.")
        else:
            yield path + key


@pytest.mark.parametrize("leaf", list(config_leaves()))
def test_every_field_rejects_a_bool(tmp_path, monkeypatch, capsys, leaf):
    # each field's type is its default's in DEFAULTS, and no default is a bool
    calls = count_solver_runs(monkeypatch)
    out = tmp_path / "x"
    assert main(["pde", "--out", str(out), "--set", f"{leaf}=true"]) == 2
    assert leaf in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("ladder,named", [
    ("sweep.dts=[0.4,0.08,0.02,-0.004]", "sweep.dts"),
    ("sweep.dts=[0.4,0.08,0.02,true]", "sweep.dts"),
    ("sweep.t_ends=[70.0,14.0,3.5,0.65]", "sweep.t_ends"),   # 162.5 steps of 0.004
])
def test_bad_sweep_ladder_exits_2_before_any_run(tmp_path, monkeypatch, capsys,
                                                 ladder, named):
    calls = count_solver_runs(monkeypatch)
    pools = []   # the sweep's runs execute in worker processes the spy cannot see
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", lambda **kw: pools.append(kw))
    out = tmp_path / "x"
    assert main(["sweep", "--config", write_config(tmp_path, SWEEP_DOC),
                 "--out", str(out), "--set", ladder]) == 2
    assert named in capsys.readouterr().err
    assert calls == [] and pools == [] and not out.exists()


@pytest.mark.parametrize("section", ["domain={}", "output={}", 'solver={"kappa":0.5}'])
def test_set_whole_section_merges(tmp_path, section):
    # a --set merges like a config file: the section's other fields keep their values
    assert main(["figures", "--out", str(tmp_path / "x"), "--set", section]) == 0


def test_set_section_equals_set_field(tmp_path):
    configs = []
    for assignment in ('solver={"kappa":0.5}', "solver.kappa=0.5"):
        out = tmp_path / str(len(configs))
        assert main(["figures", "--out", str(out), "--set", assignment]) == 0
        configs.append(load_manifest(out / "manifest.json")["config"])
    assert configs[0] == configs[1]
    assert configs[0]["solver"]["kappa"] == 0.5


BIG_INT = "1" * 5000  # more digits than Python converts from a string
DEEP = "[" * 100000 + "]" * 100000  # nested deeper than the parser recurses
# (argv before --out, text of input.json or None, text stderr must contain)
BAD_JSON_CASES = [
    (["pde", "--set", f"solver.kappa={BIG_INT}"], None, "solver.kappa"),
    (["pde", "--set", f"solver.kappa={DEEP}"], None, "solver.kappa"),
    (["pde", "--config", "input.json"], '{"solver": {"kappa": %s}}' % BIG_INT,
     "input.json"),
    (["pde", "--config", "input.json"], DEEP, "input.json"),
    (["rerun", "input.json"], '{"experiment": "pde", "artifacts": {}, '
     '"config": {"solver": {"kappa": %s}}}' % BIG_INT, "input.json"),
    (["rerun", "input.json"], "5", "input.json"),
    (["pde", "--config", "missing.json"], None, "missing.json"),
]


@pytest.mark.parametrize("argv,text,named", BAD_JSON_CASES,
                         ids=["set-long-int", "set-deep", "config-long-int",
                              "config-deep", "manifest-long-int",
                              "manifest-not-object", "config-missing"])
def test_unreadable_json_exits_2(tmp_path, monkeypatch, capsys, argv, text, named):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "input.json").write_text(text)
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not out.exists()


def test_integral_float_reads_as_integer(tmp_path):
    doc = dict(MANIFEST_CASES["sde"], particles=dict(
        MANIFEST_CASES["sde"]["particles"], n=1e2))
    out = tmp_path / "sde"
    assert main(["sde", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    echoed = load_manifest(out / "manifest.json")["config"]["particles"]["n"]
    assert echoed == 100 and isinstance(echoed, int)
    assert read_csv(out / "sde.csv")[1][0, 0] == 100


def test_max_mode_up_to_the_nyquist_mode_runs(tmp_path):
    # a random field has cosine factors on both axes, resolved up to
    # min(nx, ny) // 2 - 1 = 3 on a 16 x 8 grid; the sine factors of mx, my and
    # an ss term reach each axis's own Nyquist mode, nx // 2 = 8 and ny // 2 = 4,
    # and a cc term's cosines one mode less
    out = tmp_path / "sde"
    assert main(["sde", "--config", write_config(tmp_path, MANIFEST_CASES["sde"]),
                 "--out", str(out), "--set", "initial.kind=random", "--set", "domain.nx=16",
                 "--set", "domain.ny=8", "--set", "initial.max_mode=3",
                 "--set", "initial.mx=8", "--set", "initial.my=4",
                 "--set", 'initial.terms=[[8,4,"ss",1.0],[7,3,"cc",1.0]]']) == 0
