"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from anisodiff import cli, domain, fields, particles  # noqa: E402


def _bindings():
    """Every name bound in an anisodiff module or in one of its classes."""
    out = {}
    for module in spans._package_modules():
        for key, val in vars(module).items():
            out[(module.__name__, key)] = val
            if isinstance(val, type) and val.__module__.startswith("anisodiff"):
                for attr, member in vars(val).items():
                    out[(module.__name__, key, attr)] = member
    return out


def _small_fk():
    box = domain.DomainBox(1.0, 1.0, 32, 32)
    rho0 = fields.fourier_mode(box, 1, 1)
    vel = domain.make_velocity(domain.AnisotropyParams(p=2, q=3), 0.25, 1e-3)
    mean, vmap = particles.feynman_kac(rho0, vel, 0.05, 0.05, n=20, ds=0.01, seed=7,
                                       launch_box=domain.DomainBox(1.0, 1.0, 8, 8))
    return mean.values, vmap.values


def _small_fdr(out: Path) -> bytes:
    argv = ["fdr", "--out", str(out)]
    for s in ("domain.family=zero", "domain.nx=32", "domain.ny=32", "solver.kappa=0.05",
              "solver.dt=0.01", "particles.n=20", "particles.ds=0.05",
              "particles.grid_nx=8", "particles.grid_ny=8", "particles.times=[0.1]"):
        argv += ["--set", s]
    assert cli.main(argv) == 0
    return (out / "fdr.csv").read_bytes()


def test_originals_restored_after_traced_run(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    with tracer.patched():
        assert domain.VelocityField.velocity is not before[
            ("anisodiff.domain", "VelocityField", "velocity")]
        assert particles.sample_many is not before[("anisodiff.fields", "sample_many")]
        _small_fk()
        _small_fdr(tmp_path / "fdr")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_restored_when_the_traced_call_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer().patched():
            1 / 0
    assert all(_bindings()[k] is v for k, v in before.items())


def test_traced_outputs_equal_untraced(tmp_path):
    plain_fk = _small_fk()
    plain_fdr = _small_fdr(tmp_path / "plain")
    tracer = spans.Tracer()
    with tracer.patched():
        traced_fk = _small_fk()
        traced_fdr = _small_fdr(tmp_path / "traced")
    for a, b in zip(plain_fk, traced_fk):
        np.testing.assert_array_equal(a, b)
    assert plain_fdr == traced_fdr
    layers = tracer.layer_metrics()[0]
    assert layers["particles.feynman_kac.calls"] == 2
    assert layers["particles.feynman_kac.particle_steps"] == 64 * 20 * (5 + 2)
    assert layers["solver.run.calls"] == 1
    assert layers["cli.main.calls"] == 1


def test_self_times_on_a_synthetic_tree():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("a.1", 1.5, 2.5, 1),
        ("b", 2.0, 4.0, 0),      # overlaps a: the union [1, 4] is covered once
        ("c", 6.0, 7.0, 0),
        ("d", 9.5, 11.0, 0),     # runs past its parent: only [9.5, 10] counts
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx([10.0 - 3.0 - 1.0 - 0.5, 1.0, 1.0, 2.0, 1.0, 1.5])
    nested = tree[:3] + [("c", 6.0, 7.0, 0)]
    assert sum(spans.self_times(nested)) == pytest.approx(10.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    res = {"layers": [{}], "cpus": [1.0], "walls": [2.0], "traced_walls": [2.1],
           "child_peak_rss_mb": 0.0, "work_per_unit": 10, "peak_rss_mb": 50.0}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: u for k, (_, u) in run.per_layer(res).items()} == want_layer
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: u for k, (_, u) in run.end_to_end(res, [1.0]).items()} == want_e2e
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fdr_pooled_check_counts_each_unit_once():
    import workloads
    wl = workloads.FdrHeat(0)
    sigma = 0.001
    for k in range(4):
        for t in wl.TIMES:
            wl._ratios.setdefault(t, {})[k] = (0.5 + 1.5 * sigma, sigma)
    # four units 1.5 sigma off pool to 3 pooled sigma off: within Z_MAX
    assert wl.check_pooled() == (2, 0, [])
    for k in range(4, 16):
        wl._ratios[1.0][k] = (0.5 + 1.5 * sigma, sigma)
    # sixteen pool to 6 pooled sigma off at t=1.0, though each unit passes
    attempted, failed, notes = wl.check_pooled()
    assert (attempted, failed) == (2, 1) and "t=1.0" in notes[0]
    assert "16 units" in notes[0]
    # a traced rerun repeats the seeds of units 0..: it adds no unit
    wl._ratios[1.0][0] = (0.5 + 1.5 * sigma, sigma)
    assert "16 units" in wl.check_pooled()[2][0]
