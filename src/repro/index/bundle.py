"""Persistence of the offline phase: index + context as one bundle.

The paper's system builds its disk-based index once and serves many
online queries. This module gives the reproduction the same lifecycle:
:func:`save_offline` writes a directory containing the path store
(record log + directory), the index metadata (L, β, γ,
histograms, build statistics) and the context tables;
:func:`load_offline` reopens it without recomputation, and
:meth:`repro.query.engine.QueryEngine.from_saved` builds a queryable
engine from it.

Every file that is replaced rather than appended to goes through
:func:`repro.storage.atomic_write`: the store commits with the rename
of its ``index.dir``, and ``offline.meta`` — written last — is the
bundle's commit record.

There is one bundle shape: one :class:`DiskPathStore` at the directory
root and one ``offline.meta`` beside it. A bundle of any other format
version (format 5 could keep its stores in ``shard-NN/``
subdirectories), with an unreadable ``offline.meta`` or with a store
that fails its open-time checks is rejected with :class:`IndexError_`
(callers such as :meth:`repro.service.QueryService.open` rebuild over
it).
"""

from __future__ import annotations

import os
import pickle
import shutil

from repro.index.context import ContextInformation
from repro.index.path_index import PathIndex
from repro.storage.kvstore import (
    DISK_STORE_FILENAMES,
    TEMP_SUFFIX,
    DiskPathStore,
    PathStore,
    atomic_write,
)
from repro.utils.errors import IndexError_, StorageError

#: Bundle format version; bump when the pickled layout or the store's
#: file format changes.
FORMAT_VERSION = 6
_META_FILE = "offline.meta"
#: The store file only format v3 had; cleared so no later store sits
#: beside it.
_LEGACY_FILENAMES = ("index.btree",)
#: Prefix of the per-shard store directories formats up to 5 could
#: hold; cleared so a rebuilt bundle never sits beside them.
_LEGACY_SHARD_PREFIX = "shard-"


def _persist_store(store: PathStore, directory: str) -> None:
    """Materialize the index's store under ``directory``.

    If the store is a :class:`DiskPathStore` already living there it is
    flushed in place; otherwise (another location, or an in-memory
    store) its buckets are copied into a fresh store under
    ``directory``.
    """
    os.makedirs(directory, exist_ok=True)
    if isinstance(store, DiskPathStore) and os.path.samefile(
        store.directory, directory
    ):
        store.flush()
        return
    target = DiskPathStore(directory)
    for sequence in store.label_sequences():
        for bucket, payload in store.scan_buckets(sequence, 0):
            target.put_bucket(sequence, bucket, payload)
    target.close()


def clear_offline_artifacts(directory: str) -> None:
    """Remove every offline artifact of earlier builds under ``directory``.

    Deletes the metadata file, the store files (this format's and the
    legacy ``index.btree``), temporaries left by an interrupted commit,
    and the ``shard-NN/`` subdirectories of a format-5 bundle — but
    nothing else, so a user-supplied output directory that happens to
    hold other files is safe. Building into a reused directory without
    clearing first would mix stale and fresh data: a reopened
    :class:`DiskPathStore` keeps its old directory, and sequences that
    no longer exist keep being served.
    """
    if not os.path.isdir(directory):
        return
    for name in (_META_FILE,) + DISK_STORE_FILENAMES + _LEGACY_FILENAMES:
        path = os.path.join(directory, name)
        for stale in (path, path + TEMP_SUFFIX):
            if os.path.exists(stale):
                os.remove(stale)
    for name in os.listdir(directory):
        suffix = name[len(_LEGACY_SHARD_PREFIX):]
        if name.startswith(_LEGACY_SHARD_PREFIX) and suffix.isdigit():
            shutil.rmtree(os.path.join(directory, name), ignore_errors=True)


def save_offline(
    index: PathIndex, context: ContextInformation, directory: str
) -> None:
    """Write the offline phase's artifacts into ``directory``.

    The index's store is persisted by :func:`_persist_store`, and the
    metadata is committed after it.
    """
    _persist_store(index.store, directory)
    meta = {
        "version": FORMAT_VERSION,
        "histograms": index.histograms,
        "max_length": index.max_length,
        "beta": index.beta,
        "gamma": index.gamma,
        "build_stats": index.build_stats,
        "context": (context.sigma, *context.tables()),
    }
    atomic_write(
        os.path.join(directory, _META_FILE),
        pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL),
    )


def load_offline(directory: str) -> tuple:
    """Reopen a bundle written by :func:`save_offline`.

    Returns ``(PathIndex, ContextInformation)``; raises
    :class:`IndexError_` for missing, incompatible or damaged bundles.
    """
    meta_path = os.path.join(directory, _META_FILE)
    if not os.path.exists(meta_path):
        raise IndexError_(f"no offline bundle at {directory!r}")
    with open(meta_path, "rb") as handle:
        try:
            meta = pickle.load(handle)
        except Exception as exc:
            raise IndexError_(
                f"unreadable offline bundle metadata in {directory!r}: {exc}"
            ) from exc
    if not isinstance(meta, dict) or meta.get("version") != FORMAT_VERSION:
        raise IndexError_(
            f"unsupported offline bundle version in {directory!r}"
        )
    try:
        store = DiskPathStore(directory)
    except StorageError as exc:
        raise IndexError_(
            f"damaged path store in offline bundle {directory!r}: {exc}"
        ) from exc
    index = PathIndex(
        store=store,
        max_length=meta["max_length"],
        beta=meta["beta"],
        gamma=meta["gamma"],
        histograms=meta["histograms"],
        build_stats=meta["build_stats"],
    )
    return index, ContextInformation(*meta["context"])
