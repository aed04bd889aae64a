"""Run persistence: file digests and tamper-evident manifests."""
from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from . import __version__


class ManifestError(Exception):
    pass


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_text_and_digest(path: str | Path) -> tuple[str, str]:
    """A UTF-8 file's text and the SHA-256 of its bytes, from one read. The
    bytes are dropped on return, so a caller parsing the text holds one copy."""
    data = Path(path).read_bytes()
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def config_hash(config_payload: dict) -> str:
    canonical = json.dumps(config_payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def write_manifest(path: str | Path, *, config_digest: str, files: dict[str, Path],
                   extra: dict | None = None) -> dict:
    """Manifest next to produced files: config hash, tool version, per-file digests."""
    payload = {
        "config_hash": config_digest,
        "created": time.time(),
        "files": {name: sha256_file(p) for name, p in files.items()},
        "tool_version": __version__,
    }
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return payload


def read_manifest(path: str | Path) -> dict:
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ManifestError(f"missing manifest {path}") from None
    except OSError as e:
        raise ManifestError(f"cannot read manifest {path}: {e.strerror or e}") from None
    except ValueError as e:  # not UTF-8, or not JSON
        raise ManifestError(f"corrupt manifest {path}: {e}") from None
    files = manifest.get("files", {}) if isinstance(manifest, dict) else None
    if not isinstance(files, dict) or not all(isinstance(digest, str) for digest in files.values()):
        raise ManifestError(f"corrupt manifest {path}: not an object with a files object of digest strings")
    return manifest


def verify_manifest(manifest: dict, directory: str | Path, known: dict[str, str] | None = None) -> None:
    """Check every digest the manifest claims, taking it from `known` (file
    name -> digest of bytes the caller already read) or else recomputing it;
    mismatches are tampering."""
    for name, digest in manifest.get("files", {}).items():
        actual = (known or {}).get(name)
        if actual is None:
            target = Path(directory) / name
            if not target.is_file():
                raise ManifestError(f"manifest references missing file {name}")
            try:
                actual = sha256_file(target)
            except OSError as e:
                raise ManifestError(f"cannot read {target}, listed in the manifest: {e.strerror or e}") from None
        if actual != digest:
            raise ManifestError(f"digest mismatch for {name}: manifest {digest[:12]}.., file {actual[:12]}..")
