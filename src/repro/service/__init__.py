"""Service tier: pluggable store backends, HTTP API, store maintenance.

The campaign layer (PR 2) established the contract — declarative
:class:`~repro.campaign.jobs.Job` specs hashed into content keys, one
JSON document per result, atomic writes, warm re-runs answered without
simulating.  This package promotes that store into a service:

* :mod:`.backends` — the :class:`~.backends.StoreBackend` interface and
  three implementations: the original sharded local directory
  (:class:`~.backends.DirectoryBackend`), a sqlite-indexed variant for
  O(1) metadata queries over 10k+ entries
  (:class:`~.backends.SqliteBackend`), and an HTTP client with a
  read-through local cache (:class:`~.backends.HTTPBackend`).
* :mod:`.server` — ``repro serve``, a thin stdlib HTTP API answering
  result/experiment/profile queries straight from the store; a warm
  query executes zero simulations.
* :mod:`.maintenance` — store statistics, garbage collection and the
  directory→sqlite index migration behind ``repro store``.

Only the backend layer is imported eagerly (the campaign store depends
on it); the server is imported by the CLI on demand::

    from repro.service.server import ReproServer

See ``docs/SERVICE.md`` for the backend matrix, the API routes and the
consistency/caching semantics.
"""

from .backends import (
    KIND_FUZZ,
    KIND_PROFILE,
    KIND_RESULT,
    KINDS,
    DirectoryBackend,
    EntryMeta,
    HTTPBackend,
    SqliteBackend,
    StoreBackend,
    StoreBackendError,
    StoreStats,
    StoreUnavailableError,
    open_backend,
)

__all__ = [
    "KIND_FUZZ",
    "KIND_PROFILE",
    "KIND_RESULT",
    "KINDS",
    "DirectoryBackend",
    "EntryMeta",
    "HTTPBackend",
    "SqliteBackend",
    "StoreBackend",
    "StoreBackendError",
    "StoreStats",
    "StoreUnavailableError",
    "open_backend",
]
