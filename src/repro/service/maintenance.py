"""Store housekeeping behind ``repro store gc`` and ``repro store migrate``.

``gc`` prunes exactly three classes of garbage, none of which a correct
campaign leaves behind:

* stale ``.tmp-*`` files — a writer crashed between creating its temp
  file and the rename; readers never see these, they only waste space;
* orphaned profile side-cars — a ``.profile.json`` whose parent result
  entry is gone (e.g. removed by an older ``clear`` or by hand).  Fuzz
  documents are standalone by design (their key hashes a replay spec,
  not a campaign job), so *absence of a parent is not garbage* for them;
* corrupt documents — unparseable or non-object JSON of any kind.
  A corrupt result entry already reads as a miss; gc just reclaims it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from .backends import (
    KIND_FUZZ,
    KIND_PROFILE,
    KIND_RESULT,
    DirectoryBackend,
    SqliteBackend,
    classify_filename,
)


@dataclass
class GCReport:
    """What one ``repro store gc`` pass found (and, unless dry, removed)."""

    tmp_removed: int = 0
    orphan_profiles: int = 0
    corrupt: Dict[str, int] = field(default_factory=dict)
    bytes_reclaimed: int = 0
    dry_run: bool = False

    @property
    def total_removed(self) -> int:
        return self.tmp_removed + self.orphan_profiles + sum(self.corrupt.values())

    def to_dict(self) -> dict:
        return {
            "tmp_removed": self.tmp_removed,
            "orphan_profiles": self.orphan_profiles,
            "corrupt": dict(self.corrupt),
            "bytes_reclaimed": self.bytes_reclaimed,
            "total_removed": self.total_removed,
            "dry_run": self.dry_run,
        }


def collect_garbage(backend: DirectoryBackend, dry_run: bool = False) -> GCReport:
    """Prune temp files, orphaned profiles and corrupt documents."""
    report = GCReport(dry_run=dry_run, corrupt={k: 0 for k in (KIND_RESULT, KIND_PROFILE, KIND_FUZZ)})

    def reclaim(path: Path) -> None:
        try:
            report.bytes_reclaimed += path.stat().st_size
        except OSError:
            pass
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                pass

    for tmp in backend.temp_files():
        report.tmp_removed += 1
        reclaim(tmp)

    # One directory walk classifying every document; corruption =
    # unparseable/non-object JSON (read() returning None for a present
    # file).  Collect first, delete after — deleting while iterating a
    # shard listing is fragile.
    corrupt: List[tuple] = []
    profile_keys: List[str] = []
    if backend.root.is_dir():
        for shard in sorted(backend.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                classified = classify_filename(entry.name)
                if classified is None:
                    continue
                kind, key = classified
                if backend.read(kind, key) is None:
                    corrupt.append((kind, key, entry))
                elif kind == KIND_PROFILE:
                    profile_keys.append(key)

    for kind, key, path in corrupt:
        report.corrupt[kind] += 1
        reclaim(path)
        if not dry_run and isinstance(backend, SqliteBackend):
            backend.delete(kind, key)  # keep the index in step

    for key in profile_keys:
        if not backend.contains(KIND_RESULT, key):
            report.orphan_profiles += 1
            reclaim(backend.path_for(KIND_PROFILE, key))
            if not dry_run and isinstance(backend, SqliteBackend):
                backend.delete(KIND_PROFILE, key)

    return report


def migrate_index(root: Path) -> int:
    """(Re)build the sqlite index for a store directory; returns rows.

    Idempotent: safe on a fresh directory store (this *is* the dir →
    sqlite migration), on an existing sqlite store whose index drifted
    (another process wrote through a plain directory backend), and on a
    corrupt index (it is deleted and re-derived from the files).
    """
    return SqliteBackend(Path(root)).rebuild_index()
