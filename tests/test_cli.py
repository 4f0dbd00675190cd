import json
import os

import numpy as np
import pytest

from anisodiff.analysis import figure1_curve, figure2_surface
from anisodiff.cli import main
from anisodiff.manifest import load_manifest, sha256_file


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

    def test_manifest_checksums(self, tmp_path):
        out = tmp_path / "figs"
        main(["figures", "--out", str(out)])
        manifest = load_manifest(out / "manifest.json")
        assert manifest["experiment"] == "figures"
        for name, digest in manifest["artifacts"].items():
            assert sha256_file(out / name) == digest


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

        class Growing:  # 1.01x per step: below the one-step breaker
            def step_values(self, f):
                return 1.01 * f.values

        monkeypatch.setattr(solver_mod, "_make_stepper", lambda *a: Growing())
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
        assert abs(row["var_dx"] - 0.02) < 3 * row["se_var"]
        assert abs(row["mean_dy"]) < 3 * row["se_mean"]


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

    def test_checkpoint_off_solver_grid_exits_2(self, tmp_path):
        doc = self.make_doc(0.05)
        doc["solver"]["dt"] = 3e-3
        doc["particles"]["times"] = [1.0]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "offgrid"
        assert main(["fdr", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_monte_carlo_blowup_exits_3(self, tmp_path, monkeypatch):
        from anisodiff import cli as cli_mod
        from anisodiff.analysis import FdrResult

        def broken(*args, **kwargs):
            return FdrResult(t=0.25, lhs=float("nan"), rhs=1.0, ratio=float("nan"),
                             rhs_stderr=0.0)

        monkeypatch.setattr(cli_mod, "fdr_check", broken)
        cfg = write_config(tmp_path, self.make_doc(0.05))
        assert main(["fdr", "--config", cfg, "--out", str(tmp_path / "x")]) == 3


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
