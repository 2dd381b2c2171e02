"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing programming
errors such as ``TypeError``.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ModelError(ReproError):
    """Invalid probabilistic model input (PGD/PEG construction errors).

    Raised for malformed probability distributions, reference sets that do
    not include singletons, references used in edges but never declared,
    and similar modeling mistakes.
    """


class StorageError(ReproError):
    """Failure in the disk-backed storage substrate.

    Raised for an invalid bucket or record pointer and for a store
    directory that is short, corrupt, of another format or points past
    the end of its record log.
    """


class IndexError_(ReproError):
    """Failure in path-index construction or lookup.

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError``.
    """


class QueryError(ReproError):
    """Invalid query input or failure during online query processing."""


class ServiceError(ReproError):
    """Misuse of the query-serving layer (e.g. submitting after close)."""


class ServiceUnavailable(ServiceError):
    """The service cannot admit the request right now.

    Raised when admission stays paused (a live update holding the gate)
    for longer than the service's ``max_admission_wait`` — the caller
    gets a clean, prompt failure instead of an unbounded block and may
    retry once the update settles.
    """


class DeadlineExceeded(ServiceError):
    """A request's deadline passed before its evaluation produced a result.

    Requests carrying a deadline never hang: if the deadline expires
    while the request is still queued, the evaluation is skipped and
    the request's future resolves with this error.
    """


class FaultError(ReproError):
    """An error injected by the fault-injection framework.

    Only ever raised when :mod:`repro.testing.faults` is active, i.e.
    in chaos tests or under ``REPRO_FAULTS``. Deriving from
    :class:`ReproError` means injected faults surface exactly like real
    subsystem failures: as clean typed errors, never as hangs or wrong
    answers.
    """


class NetError(ReproError):
    """Transport-level failure in the network serving tier.

    Connection refusals, resets, dropped connections and short reads on
    the wire protocol. The client retries these (bounded, with backoff)
    because queries are read-only; application errors use
    :class:`RemoteError` and are never retried.
    """


class NetTimeout(NetError):
    """A network request did not complete within its timeout.

    Deliberately *not* retried by the client: the request may have been
    admitted server-side, and the caller should decide whether to spend
    another deadline on it.
    """


class CircuitOpenError(NetError):
    """The client's circuit breaker is open; the request was not sent."""


class RemoteError(NetError):
    """A typed application error returned by the query server.

    ``code`` carries the wire error type (``REJECTED``,
    ``DEADLINE_EXCEEDED``, ``UNAVAILABLE``, ``QUERY_ERROR``,
    ``BAD_REQUEST``, ``INTERNAL``). The server answered — the
    connection is healthy — so the client never retries these.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = str(code)
        self.remote_message = str(message)


class DeltaError(ReproError):
    """Invalid live-update operation against a running engine.

    Raised for mutations addressing unknown entities, edges that do not
    exist, reference sets that collide with existing identity
    components, and other violations of the delta subsystem's
    contracts (see :mod:`repro.delta`).
    """
