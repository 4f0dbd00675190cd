"""Span helper: time calls into anisodiff's public functions from outside src/.

`Tracer.patched()` rebinds each traced public name in every `anisodiff.*`
module namespace (and methods on their classes) to a wrapper that records a
span (name, start, end, parent) and adds counts of the work the call was
asked to do, then restores the original objects on exit.  Spans stay in
memory until `dump` writes them out.  Byte counts are computed from array
sizes, not measured.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# bilinear sampling touches x, y (16 B), four grid values (32 B), writes 8 B
SAMPLE_BYTES_PER_POINT = 56


def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_points(sig, args, kwargs, result):
    return {"points": int(np.size(_arg(sig, args, kwargs, "x")))}


def _count_elements(sig, args, kwargs, result):
    name = "x" if "x" in sig.parameters else "y"
    return {"elements": int(np.size(_arg(sig, args, kwargs, name)))}


def _count_samples(sig, args, kwargs, result):
    points = int(np.size(result))
    return {"points": points, "bytes_computed": points * SAMPLE_BYTES_PER_POINT}


def _count_cell_steps(sig, args, kwargs, result):
    rho0 = _arg(sig, args, kwargs, "rho0")
    cfg = _arg(sig, args, kwargs, "cfg")
    return {"cell_steps": rho0.box.nx * rho0.box.ny * cfg.n_steps()}


def _count_particle_steps(sig, args, kwargs, result):
    """Requested work: launch points x n x round(t/ds), whatever the kernel does."""
    get = functools.partial(_arg, sig, args, kwargs)
    box = get("launch_box") or get("rho0").box
    m = max(1, int(round(get("t") / get("ds"))))
    return {"particle_steps": box.nx * box.ny * int(get("n")) * m}


def _count_file_bytes(sig, args, kwargs, result):
    return {"bytes": result.stat().st_size}


# (layer, module, attribute path, counter): the public functions timed
TARGETS = [
    ("domain.velocity", "anisodiff.domain", "VelocityField.velocity", _count_points),
    ("domain.wrap", "anisodiff.domain", "DomainBox.wrap_x", _count_elements),
    ("domain.wrap", "anisodiff.domain", "DomainBox.wrap_y", _count_elements),
    ("fields.sample_many", "anisodiff.fields", "sample_many", _count_samples),
    ("fields.diagnostics", "anisodiff.fields", "grad_norm_sq", None),
    ("fields.diagnostics", "anisodiff.fields", "l2_norm_sq", None),
    ("fields.mean_zero_project", "anisodiff.fields", "mean_zero_project", None),
    ("solver.run", "anisodiff.solver", "run", _count_cell_steps),
    ("particles.feynman_kac", "anisodiff.particles", "feynman_kac",
     _count_particle_steps),
    ("analysis.sweep_and_fit", "anisodiff.analysis", "sweep_and_fit", None),
    ("analysis.fdr_check", "anisodiff.analysis", "fdr_check", None),
    ("analysis.fit_decay", "anisodiff.analysis", "fit_decay", None),
    ("cli.main", "anisodiff.cli", "main", None),
    ("config.load_config", "anisodiff.config", "load_config", None),
    ("manifest.write", "anisodiff.manifest", "ArtifactWriter.write_text",
     _count_file_bytes),
    ("manifest.write", "anisodiff.manifest", "ArtifactWriter.write_manifest",
     _count_file_bytes),
    ("svgplot", "anisodiff.svgplot", "line_plot_svg", None),
    ("svgplot", "anisodiff.svgplot", "heatmap_svg", None),
]
LAYERS = sorted({layer for layer, *_ in TARGETS})


def _empty_metrics() -> dict[str, float]:
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    return out


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "anisodiff" or name.startswith("anisodiff."))]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, unit]
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.unit = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.unit])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if counter is not None:
                for key, val in counter(sig, args, kwargs, result).items():
                    self.counts[(self.unit, f"{name}.{key}")] += val
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Rebind every traced name; restore the originals on exit."""
        saved = []
        try:
            for layer, modname, path, counter in TARGETS:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self.wrap(layer, original, counter)
                if outer:   # a method: the class object is shared by all importers
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in _package_modules():
                    for key, val in list(vars(module).items()):
                        if val is original:
                            saved.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict[int, dict[str, float]]:
        """Per unit: each layer's calls, self time and work counts."""
        own = self_times([span[:4] for span in self.spans])
        out: dict[int, dict[str, float]] = {}
        for (name, *_, unit), self_s in zip(self.spans, own):
            metrics = out.setdefault(unit, _empty_metrics())
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += self_s
        for (unit, key), val in self.counts.items():
            out.setdefault(unit, _empty_metrics())[key] = val
        return out

    def dump(self, path) -> None:
        """Write all spans as JSON: one [name, start, end, parent, unit] each."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "unit"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Self time of each (name, start, end, parent) span: its duration minus
    the part of its interval that its child spans cover."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, run_lo, run_hi = 0.0, None, None
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(end - start - covered)
    return out
