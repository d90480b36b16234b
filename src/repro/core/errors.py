"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so that callers can
catch library failures without masking programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when a protocol, context, or failure model is mis-configured.

    Examples include requesting more faulty agents than agents, or pairing an
    action protocol with an information-exchange protocol it does not support.
    """


class FailureModelError(ReproError):
    """Raised when a failure pattern violates the failure model it claims to obey.

    The sending-omissions model ``SO(t)`` requires that only faulty agents omit
    messages and that at most ``t`` agents are faulty; crash failures further
    require omissions to be "suffix closed" per receiver set.
    """


class ProtocolError(ReproError):
    """Raised when an action protocol produces an illegal action.

    For example, deciding twice, deciding a non-binary value, or emitting a
    message not in the information-exchange protocol's alphabet.
    """


class ModelCheckingError(ReproError):
    """Raised when an epistemic formula cannot be evaluated on a system.

    Typical causes: referring to an agent outside the system, or evaluating a
    temporal operator past the system horizon.
    """


class StoreError(ReproError):
    """Raised when the artifact store cannot key, read, or write an artifact.

    Note that a *corrupted* cache entry does not raise: the store treats it as
    a miss (deleting the entry) so cached pipelines degrade to recomputation
    rather than crashing.  This error covers genuine misuse, e.g. asking for a
    content key of an object the canonical hasher has no rule for.
    """


class ServiceError(ReproError):
    """Raised by the job-server subsystem (:mod:`repro.service`).

    Covers malformed wire-format requests (unknown protocol key, bad pattern
    encoding), protocol-level client failures (submitting to a job id that does
    not exist), and a submitted job that finished in the ``failed`` state —
    the *server* survives worker exceptions; the error surfaces on the client
    that asked for the result.
    """


class ServiceTimeout(ServiceError):
    """Raised when a client-side wait (``submit_and_wait``) exceeds its deadline.

    The job keeps running on the server; re-submitting the same request later
    coalesces onto it (or hits the finished artifact) rather than recomputing.
    """


class ServiceUnavailable(ServiceError):
    """Raised when the job queue rejects a submission under backpressure.

    The server maps this to HTTP 503 with a ``Retry-After`` header;
    :attr:`retry_after` is the suggested delay in seconds.  The request was
    *not* enqueued — re-submitting later is safe (content addressing makes the
    retry coalesce or hit the store if someone else got through meanwhile).
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after
