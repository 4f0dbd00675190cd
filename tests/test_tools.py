import importlib.util
from pathlib import Path

from anisodiff.manifest import sha256_file
from anisodiff.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
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
