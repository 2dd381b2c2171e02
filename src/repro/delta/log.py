"""The append-only mutation log.

Every accepted PEG mutation is recorded — as ``(sequence number, op)``
— in a :class:`~repro.storage.recordlog.RecordLog` right after it
applies (:func:`repro.delta.apply_mutations`; a rejected op is never
logged), and the batch is made durable (``fsync``) before
``apply_mutations`` returns: a restarted process warm-starts its engine
from the last offline snapshot, then replays the suffix of the log to
catch up. Sequence numbers make replay idempotent: ``apply_mutations``
skips entries at or below the engine's ``applied_mutation_seq``
high-water mark, so replaying the whole log over an engine that already
saw a prefix (or the whole log twice) is a no-op for the overlap.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from repro.storage.recordlog import RecordLog
from repro.testing import faults
from repro.utils.errors import DeltaError


@dataclass(frozen=True)
class LoggedOp:
    """One log entry: a mutation plus its position in the log."""

    seq: int
    op: object


class MutationLog:
    """Durable, append-only sequence of typed PEG mutations.

    Parameters
    ----------
    path:
        File backing the log. An existing file is reopened and its
        entry count recovered by scanning the (self-delimiting)
        records, so appends continue the sequence.

    Crash safety
    ------------
    A process dying mid-append leaves a *torn* trailing record (partial
    header or short payload). Recovery tolerates it: the scan stops at
    the last complete record, the torn bytes are truncated away so the
    log is appendable again, and :attr:`truncated` is set so callers
    can surface the data loss (exactly the op whose append never
    finished — it had applied only in the process that died). Replay
    therefore always terminates cleanly instead of raising mid-replay.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._log = RecordLog(self.path)
        self._next_seq = 0
        for _offset, _payload in self._log.records(tolerate_truncation=True):
            self._next_seq += 1
        #: Whether recovery found (and discarded) a torn trailing record.
        self.truncated = self._log.truncated_tail
        if self.truncated:
            self._log.truncate_to(self._log.valid_end)

    def __len__(self) -> int:
        return self._next_seq

    def append(self, op) -> int:
        """Record one mutation; returns its sequence number."""
        seq = self._next_seq
        self._log.append(
            pickle.dumps((seq, op), protocol=pickle.HIGHEST_PROTOCOL)
        )
        self._next_seq = seq + 1
        return seq

    def append_all(self, ops) -> list:
        """Record a batch (one flush); returns the sequence numbers."""
        seqs = [self.append(op) for op in ops]
        self.flush()
        return seqs

    def replay(self, after: int = -1) -> list:
        """All logged entries with ``seq > after``, as :class:`LoggedOp`.

        ``after=-1`` (the default) replays the whole log; pass an
        engine's ``applied_mutation_seq`` to fetch only the unseen
        suffix. A torn trailing record (only possible when the file was
        appended to externally after recovery) ends the replay cleanly
        at the last complete entry rather than raising mid-replay.
        """
        faults.check("log.replay")
        entries = []
        for _offset, payload in self._log.records(tolerate_truncation=True):
            try:
                seq, op = pickle.loads(bytes(payload))
            except Exception as exc:
                raise DeltaError(
                    f"corrupt mutation log entry in {self.path!r}: {exc}"
                ) from exc
            if seq > after:
                entries.append(LoggedOp(seq, op))
        if self._log.truncated_tail:
            self.truncated = True
        return entries

    def flush(self) -> None:
        """Make every appended entry durable (flush + ``fsync``)."""
        self._log.sync()

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "MutationLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
