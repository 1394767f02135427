"""Deterministic failpoints for fault injection.

A *failpoint* is a named site in production code -- ``wal.append``,
``checkpoint.write``, ``engine.refine`` -- that calls :func:`hit` on
every pass.  By default that call is a counter bump and nothing more.
A test (or the ``repro fuzz --crash`` fuzzer) *arms* a site on the
installed :class:`FailpointRegistry` with a plan: on the Nth hit, raise
either

- :class:`InjectedFault` -- a transient I/O error.  It derives from
  ``OSError`` so the bounded retry-with-backoff in
  :class:`repro.recovery.manager.RecoveryManager` absorbs it exactly
  like a real filesystem hiccup; or
- :class:`InjectedCrash` -- simulated process death.  It derives from
  ``BaseException`` (not ``Exception``) so no recovery/quarantine
  handler can accidentally swallow it: only the test driver that
  "killed" the process catches it, then recovers from disk the way a
  restarted process would.

A third kind, ``corrupt``, does not raise at all: it asks the site to
flip one deterministic byte of the payload it is about to write, ship,
or read -- planted bit-rot.  Only the sites in :data:`CORRUPT_SITES`
know how to do that (they call :func:`hit_corruptible` instead of
:func:`hit` and act on its boolean), so arming ``corrupt`` anywhere
else is rejected up front.

Because firing is keyed on an exact hit count and nothing else, a
``(site, hit)`` pair replays deterministically: the same seeded
workload crashes at the same instruction every time, which is what lets
the crash fuzzer assert bit-for-bit recovery equivalence.

The registry is process-wide (:func:`get_failpoints`); tests install a
fresh one with :func:`scoped_failpoints` so plans never leak between
cases.  Sites must come from :data:`KNOWN_SITES` -- arming a typo'd
name would silently never fire, so it is rejected up front.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CORRUPT_SITES",
    "FailpointRegistry",
    "FiredFailpoint",
    "InjectedCrash",
    "InjectedFault",
    "KNOWN_SITES",
    "flip_byte",
    "get_failpoints",
    "hit",
    "hit_corruptible",
    "scoped_failpoints",
    "set_failpoints",
]

#: Every instrumented site in the codebase.  The crash fuzzer's scenario
#: table (``repro.testing.crash.SWEEPS``) arms them, and the recovery
#: test suite fails while a site has neither a row there nor a written
#: reason to have none.
#:
#: ``wal.append``        before a WAL record reaches the stream (the
#:                       record is lost entirely);
#: ``wal.append.torn``   mid-write: half the record's bytes land on disk
#:                       before the "process dies" (a torn tail);
#: ``checkpoint.write``  before the checkpoint temp file is written;
#: ``checkpoint.replace`` after the temp file is complete but before the
#:                       atomic ``os.replace`` publishes it;
#: ``engine.refine``     before dependency-driven refinement of an
#:                       ingested batch (WAL has the record, the engine
#:                       never applied it);
#: ``recover.replay``    before a WAL record is re-applied during
#:                       recovery (a crash *during* recovery);
#: ``admission.enqueue`` after a submitted batch is WAL-logged but
#:                       before it enters the admission queue (the
#:                       record is durable, the queue entry is not);
#: ``query.deadline``    at the start of a deadline-budgeted query,
#:                       before the branch state is copied;
#: ``breaker.probe``     before a half-open circuit breaker sends its
#:                       trial batch through the full path;
#: ``replication.ship``  before a sealed-segment/checkpoint shipment is
#:                       handed to a replica's transport (crash = the
#:                       writer dies mid-ship; fault = the shipment is
#:                       lost in transit -- a planted segment drop);
#: ``replication.reorder`` inside the transport send path; a fault
#:                       holds the shipment back so the *next* one is
#:                       delivered first (a planted reorder);
#: ``replication.receive`` before a replica applies a delivered
#:                       shipment (crash = the replica dies mid-apply;
#:                       fault = delivery is deferred -- planted
#:                       replica lag);
#: ``replica.query``     at the start of a replica-served query (fault
#:                       = the replica fails mid-query, which is what
#:                       drives router failover);
#: ``storage.segment_write`` before a snapshot-store segment temp file
#:                       is renamed into place (crash = the process
#:                       dies with a torn segment on disk; the
#:                       previous manifest must stay readable), and
#:                       where a seal fixes that segment's CRC
#:                       (corrupt = one payload byte is flipped after
#:                       the CRC was computed -- planted bit-rot the
#:                       scrubber must find);
#: ``storage.seal``      before each per-file CRC + fsync of sealing a
#:                       store generation and before the manifest
#:                       replace that names it (crash = sealed files
#:                       the readable on-disk manifest does not list);
#: ``wal.segment_read``  when a WAL segment's raw lines are read
#:                       for shipping or scrubbing (corrupt = one byte
#:                       of the read buffer is flipped, so the record
#:                       CRC check downstream must reject it).
KNOWN_SITES = (
    "wal.append",
    "wal.append.torn",
    "checkpoint.write",
    "checkpoint.replace",
    "engine.refine",
    "recover.replay",
    "admission.enqueue",
    "query.deadline",
    "breaker.probe",
    "replication.ship",
    "replication.reorder",
    "replication.receive",
    "replica.query",
    "storage.segment_write",
    "storage.seal",
    "wal.segment_read",
)

#: The sites that know how to corrupt a payload in place (they call
#: :func:`hit_corruptible`); ``arm(kind="corrupt")`` is only legal
#: here.
CORRUPT_SITES = (
    "replication.ship",
    "storage.segment_write",
    "wal.segment_read",
)

_KINDS = ("crash", "fault", "corrupt")


def flip_byte(data: bytes, index: Optional[int] = None) -> bytes:
    """``data`` with one bit of one byte flipped (the middle byte by
    default) -- the canonical planted bit-rot mutation.  Empty input
    is returned unchanged (there is nothing to corrupt)."""
    if not data:
        return data
    if index is None:
        index = len(data) // 2
    index %= len(data)
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


class InjectedFault(OSError):
    """A transient injected I/O fault (retryable, like a real ``OSError``)."""


class InjectedCrash(BaseException):
    """Simulated process death at a failpoint.

    Deliberately a ``BaseException``: quarantine and retry handlers
    catch ``Exception``/``OSError``, so a simulated kill tears through
    them the way ``SIGKILL`` tears through a real process.
    """

    def __init__(self, site: str, hit_number: int) -> None:
        super().__init__(f"injected crash at {site} (hit {hit_number})")
        self.site = site
        self.hit_number = hit_number


@dataclass(frozen=True)
class FiredFailpoint:
    """One firing, recorded for post-mortem assertions."""

    site: str
    kind: str
    hit_number: int


@dataclass
class _Plan:
    kind: str
    hit: int
    once: bool = True


@dataclass
class FailpointRegistry:
    """Armed plans plus per-site hit counters."""

    _plans: Dict[str, _Plan] = field(default_factory=dict)
    hits: Dict[str, int] = field(default_factory=dict)
    fired: List[FiredFailpoint] = field(default_factory=list)

    def arm(self, site: str, kind: str = "crash", hit: int = 1,
            once: bool = True) -> None:
        """Arm ``site`` to raise on its ``hit``-th future-or-past hit.

        ``hit`` counts from the site's current total (sites hit before
        arming still count), so arm before driving the workload.
        ``once`` disarms after the first firing -- the recovered process
        does not crash again, which is what the crash fuzzer wants.
        """
        if site not in KNOWN_SITES:
            raise ValueError(
                f"unknown failpoint site {site!r} "
                f"(choose from {list(KNOWN_SITES)})"
            )
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        if kind == "corrupt" and site not in CORRUPT_SITES:
            raise ValueError(
                f"site {site!r} cannot corrupt its payload "
                f"(choose from {list(CORRUPT_SITES)})"
            )
        if hit < 1:
            raise ValueError("hit is 1-based and must be >= 1")
        self._plans[site] = _Plan(kind=kind, hit=hit, once=once)

    def armed(self, site: str) -> bool:
        return site in self._plans

    def hit_count(self, site: str) -> int:
        return self.hits.get(site, 0)

    def clear(self) -> None:
        self._plans.clear()
        self.hits.clear()
        self.fired.clear()

    def _advance(self, site: str, corruptible: bool) -> Optional[str]:
        """Bump ``site``'s counter; fire any due plan.

        Crash and fault plans raise (exactly like they always have);
        a corrupt plan returns ``"corrupt"`` so the caller can mutate
        its payload in place -- on the first ``corruptible`` pass at or
        after its hit: ``storage.segment_write`` is also passed where
        there is no CRC to rot yet.  Returns ``None`` when nothing
        fired.
        """
        count = self.hits.get(site, 0) + 1
        self.hits[site] = count
        plan = self._plans.get(site)
        if plan is None or count < plan.hit:
            return None
        if plan.kind == "corrupt" and not corruptible:
            return None
        if plan.once:
            del self._plans[site]
        elif count > plan.hit:
            return None
        self.fired.append(FiredFailpoint(site=site, kind=plan.kind,
                                         hit_number=count))
        if plan.kind == "crash":
            raise InjectedCrash(site, count)
        if plan.kind == "fault":
            raise InjectedFault(f"injected transient fault at {site} "
                                f"(hit {count})")
        return "corrupt"

    def hit(self, site: str) -> None:
        """Record one pass through ``site``; raise if a plan says so."""
        self._advance(site, corruptible=False)

    def hit_corruptible(self, site: str) -> bool:
        """Like :meth:`hit`, but reports corrupt-plan firings.

        Returns ``True`` when a ``corrupt`` plan fires on this pass --
        the site must then flip one byte of its payload (usually via
        :func:`flip_byte`).  Crash and fault plans raise exactly as
        they do from :meth:`hit`.
        """
        return self._advance(site, corruptible=True) == "corrupt"


# ----------------------------------------------------------------------
# The process-wide registry
# ----------------------------------------------------------------------
_FAILPOINTS = FailpointRegistry()


def get_failpoints() -> FailpointRegistry:
    return _FAILPOINTS


def set_failpoints(registry: FailpointRegistry) -> FailpointRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _FAILPOINTS
    previous = _FAILPOINTS
    _FAILPOINTS = registry
    return previous


@contextmanager
def scoped_failpoints(registry: Optional[FailpointRegistry] = None):
    """Install a fresh (or given) registry for a ``with`` block."""
    registry = registry if registry is not None else FailpointRegistry()
    previous = set_failpoints(registry)
    try:
        yield registry
    finally:
        set_failpoints(previous)


def hit(site: str) -> None:
    """The instrumentation call production code places at each site."""
    _FAILPOINTS.hit(site)


def hit_corruptible(site: str) -> bool:
    """The instrumentation call for sites that can corrupt a payload.

    ``True`` means an armed ``corrupt`` plan fired: the caller must
    flip one byte of whatever it is about to write, ship, or read.
    """
    return _FAILPOINTS.hit_corruptible(site)
