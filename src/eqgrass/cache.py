"""Content-addressed on-disk cache for solver reports.

Reports are stored as byte-stable JSON in files named by a hash of the
parameters and a format version, so stale entries from older releases
simply miss.  Writes go through a temp file and rename, and corrupt
entries are treated as misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from .search import SolveReport

CACHE_ENV_VAR = "EQGRASS_CACHE_DIR"
CACHE_VERSION = 1


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "eqgrass"


def cache_key(k: int, p: int, q: int) -> str:
    # The strategy fields keep the keys of entries written while the
    # strategy was selectable.
    payload = json.dumps(
        {
            "k": k,
            "p": p,
            "q": q,
            "strategy": "closure",
            "depth": None,
            "version": CACHE_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _entry_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.json"


def store(cache_dir: Path, report: SolveReport) -> Path:
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = cache_key(report.k, report.p, report.q)
    path = _entry_path(cache_dir, key)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(report.to_json_bytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load(cache_dir: Path, k: int, p: int, q: int) -> SolveReport | None:
    path = _entry_path(cache_dir, cache_key(k, p, q))
    if not path.exists():
        return None
    try:
        with open(path, "rb") as fh:
            report = SolveReport.from_json(json.loads(fh.read()))
        if (report.k, report.p, report.q) != (k, p, q):
            raise ValueError(f"entry holds (k={report.k}, p={report.p}, q={report.q})")
        return report
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"warning: ignoring corrupt cache entry {path}: {exc}", file=sys.stderr)
        return None
