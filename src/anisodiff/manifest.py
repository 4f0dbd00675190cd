"""Run files: the one CSV format, the one JSON file reader, the artifact
writer, run manifests.

Every CSV artifact is built by `csv_text`; every file of a run is written
by one `ArtifactWriter`, whose manifest echoes the config and seeds and
lists each artifact's checksum.  A config file and a manifest are both
read by `read_json_object`.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError

MANIFEST_NAME = "manifest.json"


def csv_text(header: str, rows) -> str:
    """Header line, then one line per row.  Integer cells print with str,
    all others as repr(float(v)): exact round trip, never numpy's repr."""
    lines = [header]
    lines += [",".join(str(v) if isinstance(v, (int, np.integer)) else repr(float(v))
                       for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class ArtifactWriter:
    """Single writer per output directory; tracks checksums as it goes."""

    def __init__(self, outdir: Path):
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.artifacts: dict[str, str] = {}

    def write_text(self, name: str, text: str) -> Path:
        path = self.outdir / name
        path.write_text(text)
        self.artifacts[name] = sha256_file(path)
        return path

    def write_manifest(self, experiment: str, config_doc: dict,
                       duration_s: float, seeds, version: str) -> Path:
        payload = {
            "experiment": experiment,
            "config": config_doc,
            "artifacts": dict(sorted(self.artifacts.items())),
            "duration_s": round(duration_s, 3),
            "library_version": version,
            "seeds": list(seeds),
        }
        path = self.outdir / MANIFEST_NAME
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in file path.  An unreadable file, text that is not
    JSON (any ValueError: syntax, encoding, an integer too long to convert;
    or nesting too deep to parse) or a top level that is not an object is a
    ConfigError naming the file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"{what}: cannot read {path} ({exc})") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what}: {path} is not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{what}: {path} must contain a JSON object")
    return payload


def load_manifest(path: str | Path) -> dict:
    payload = read_json_object(path, "manifest")
    for key in ("experiment", "config", "artifacts"):
        if key not in payload:
            raise ConfigError(f"manifest: missing required key {key!r}")
    if not isinstance(payload["config"], dict):
        raise ConfigError("manifest: config must be a JSON object")
    return payload
