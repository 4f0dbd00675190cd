import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import anisodiff
from anisodiff.manifest import sha256_file
from anisodiff.cli import main

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifact_digests.py"
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_tool(path=TOOL):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifact_digests_figures_case(tmp_path):
    tool = load_tool()
    lines = tool.case_digests("figures")
    out = tmp_path / "figures"
    assert main(["figures", "--out", str(out)]) == 0
    expect = [f"figures 0 {name} {sha256_file(out / name)}"
              for name in ("fig1.csv", "fig1.svg", "fig2.csv", "fig2.svg")]
    assert lines == expect


def test_artifact_digests_shear_case():
    # the one config that builds domain.family = shear through the command line
    lines = load_tool().case_digests("pde_shear")
    assert [ln.split()[:3] for ln in lines] == [
        ["pde_shear", "0", name]
        for name in ("decay.csv", "decay.svg", "rho_final.csv", "summary.txt")]


def test_artifact_digests_failed_sweep_cases():
    # one failed kappa fails the sweep with that run's exit code, and writes nothing
    tool = load_tool()
    assert tool.case_digests("sweep_upwind_dt_too_large") == ["sweep_upwind_dt_too_large 2 - -"]
    assert tool.case_digests("sweep_one_short_t_end") == ["sweep_one_short_t_end 3 - -"]


def test_public_names_resolve():
    missing = [name for name in anisodiff.__all__ if not hasattr(anisodiff, name)]
    assert missing == []


def test_cli_import_loads_no_scipy_stats():
    # importing scipy.stats costs every command more than the rest of its imports
    code = ("import sys, anisodiff.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_benchmark_span_targets_resolve():
    # the benchmark's --trace rebinds these names; each must exist where it
    # looks, as an attribute defined on the module or class itself
    missing = []
    for layer, modname, path, _ in load_tool(SPANS).TARGETS:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if not callable(vars(owner).get(attr)):
            missing.append(f"{layer}: {modname}.{path}")
    assert missing == []


def test_benchmark_workloads_set_up():
    # each workload's set-up validates its config and builds its fields, so a
    # config field or program name the benchmark uses fails here if it goes
    for name, workload in load_tool(WORKLOADS).WORKLOADS.items():
        assert workload(0).work_per_unit > 0, name
