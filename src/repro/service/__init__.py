"""Service tier: local store backends, read-only HTTP API, store maintenance.

The campaign layer (PR 2) established the contract — declarative
:class:`~repro.campaign.jobs.Job` specs hashed into content keys, one
JSON document per result, atomic writes, warm re-runs answered without
simulating.  This package promotes that store into a service:

* :mod:`.backends` — two backends over a local store directory: the
  original sharded layout (:class:`~.backends.DirectoryBackend`) and a
  sqlite-indexed variant for O(1) metadata queries over 10k+ entries
  (:class:`~.backends.SqliteBackend`).
* :mod:`.server` — ``repro serve``, a thin, read-only stdlib HTTP API
  answering result/experiment/profile queries straight from the store;
  a warm query executes zero simulations.
* :mod:`.maintenance` — garbage collection and the directory→sqlite
  index migration behind ``repro store``.

Only the backend layer is imported eagerly (the campaign store depends
on it); the server is imported by the CLI on demand::

    from repro.service.server import ReproServer

See ``docs/SERVICE.md`` for the backend matrix, the API routes and the
failure modes.
"""

from .backends import (
    KIND_FUZZ,
    KIND_PROFILE,
    KIND_RESULT,
    KINDS,
    DirectoryBackend,
    EntryMeta,
    SqliteBackend,
    StoreStats,
    open_backend,
)

__all__ = [
    "KIND_FUZZ",
    "KIND_PROFILE",
    "KIND_RESULT",
    "KINDS",
    "DirectoryBackend",
    "EntryMeta",
    "SqliteBackend",
    "StoreStats",
    "open_backend",
]
