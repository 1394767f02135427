"""The durable write-ahead log of mutation batches.

Streaming state is *checkpoint + log*: a crash loses neither the rolling
values nor the batches since the last checkpoint, because every
:class:`~repro.graph.mutation.MutationBatch` is appended here **before**
the engine applies it.  Recovery replays the tail (see
:mod:`repro.recovery.manager`).

Layout: append-only JSONL segments under one directory, each named for
the sequence number of its first record (``00000000000000000000.jsonl``)
and rotated every ``segment_records`` appends.  Every append is flushed
and ``fsync``ed before it returns: **acknowledged means durable**, which
is what lets replication ship a record the moment its append returned
(:meth:`WriteAheadLog.segment_views`).  One record per line::

    {"seq": 17, "crc": 2893571305, "batch": {"add_src": [...], ...}}

``crc`` is the CRC32 of the canonical JSON of ``{"seq", "batch"}``, so
bit rot and torn writes are both detected.  On open the final segment's
tail is verified: a partial or corrupt **final** record is the signature
of a crash mid-append and is *truncated* (the record never committed --
the engine never applied it either, so dropping it is lossless); a bad
record anywhere **before** the tail means real corruption and raises
:class:`WALCorruptionError` instead of silently resuming on garbage.

Weights survive exactly: ``json`` serialises floats with ``repr``,
which round-trips IEEE-754 doubles bit-for-bit.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.graph.mutation import MutationBatch
from repro.obs.registry import get_registry
from repro.testing import faults
from repro.testing.faults import InjectedCrash

__all__ = [
    "SegmentView",
    "WALCorruptionError",
    "WriteAheadLog",
    "batch_to_payload",
    "payload_to_batch",
]

_SEGMENT_DIGITS = 20
_SEGMENT_SUFFIX = ".jsonl"


class WALCorruptionError(ValueError):
    """A corrupt record that is *not* explainable as a torn tail."""


def batch_to_payload(batch: MutationBatch) -> Dict:
    """A JSON-safe dict that reconstructs ``batch`` exactly."""
    return {
        "add_src": batch.add_src.tolist(),
        "add_dst": batch.add_dst.tolist(),
        "add_weight": batch.add_weight.tolist(),
        "del_src": batch.del_src.tolist(),
        "del_dst": batch.del_dst.tolist(),
        "grow_to": batch.grow_to,
    }


def payload_to_batch(payload: Dict) -> MutationBatch:
    return MutationBatch(
        add_src=payload["add_src"],
        add_dst=payload["add_dst"],
        add_weight=payload["add_weight"] or None,
        del_src=payload["del_src"],
        del_dst=payload["del_dst"],
        grow_to=payload["grow_to"],
    )


def _record_crc(seq: int, payload: Dict) -> int:
    body = json.dumps({"seq": seq, "batch": payload}, sort_keys=True,
                      separators=(",", ":"))
    return zlib.crc32(body.encode("utf-8"))


def _encode_record(seq: int, payload: Dict) -> str:
    record = {"seq": seq, "crc": _record_crc(seq, payload),
              "batch": payload}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _decode_record(line: str) -> Tuple[int, Dict]:
    """Parse and CRC-check one line; raises ``ValueError`` flavours."""
    record = json.loads(line)
    seq = record["seq"]
    payload = record["batch"]
    if record["crc"] != _record_crc(seq, payload):
        raise ValueError(f"CRC mismatch on record seq={seq}")
    return seq, payload


def _segment_name(first_seq: int) -> str:
    return f"{first_seq:0{_SEGMENT_DIGITS}d}{_SEGMENT_SUFFIX}"


@dataclass
class _Segment:
    path: str
    first_seq: int
    #: Byte offset just past each record: ``ends[i]`` closes record
    #: ``first_seq + i`` (records are contiguous, one per line).
    ends: List[int]

    @property
    def records(self) -> int:
        return len(self.ends)


@dataclass(frozen=True)
class SegmentView:
    """Shipping view of the records ``[first_seq, end_seq)`` one segment
    held when the view was taken -- the open segment included, cut at
    its last *returned* append.

    Records never change once appended, so the view stays valid while
    the segment grows.  ``lines`` are the raw encoded records, CRC
    intact, so a replica can verify them end-to-end with the same
    :func:`_decode_record` the WAL itself uses; they are selected by
    position (record ``i`` of a segment is ``first_seq + i``), so a
    read costs the records asked for, not the segment.
    """

    path: str
    first_seq: int
    end_seq: int
    ends: Sequence[int] = field(default=(), repr=False, compare=False)

    @property
    def records(self) -> int:
        return self.end_seq - self.first_seq

    def lines(self, start_seq: Optional[int] = None,
              end_seq: Optional[int] = None) -> List[str]:
        """Raw lines of records ``[start_seq, end_seq)`` (default: all)."""
        first = self.first_seq
        lo = 0 if start_seq is None else max(0, start_seq - first)
        hi = self.records if end_seq is None else min(self.records,
                                                      end_seq - first)
        if hi <= lo:
            return []
        begin = self.ends[lo - 1] if lo else 0
        with open(self.path, "rb") as stream:
            stream.seek(begin)
            raw = stream.read(self.ends[hi - 1] - begin)
        if faults.hit_corruptible("wal.segment_read"):
            raw = faults.flip_byte(raw)
        text = raw.decode("utf-8", errors="surrogateescape")
        return [part + "\n" for part in text.split("\n")[:-1]]


class WriteAheadLog:
    """Append-only, CRC-guarded, torn-tail-tolerant batch log."""

    def __init__(self, directory: str, segment_records: int = 256) -> None:
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        self.directory = directory
        self.segment_records = segment_records
        os.makedirs(directory, exist_ok=True)
        self._stream = None
        self._open_segment: Optional[_Segment] = None
        self._force_sealed: set = set()
        self.torn_records_truncated = 0
        self._segments = self._scan()
        self.next_seq = (
            self._segments[-1].first_seq + self._segments[-1].records
            if self._segments else 0
        )

    # ------------------------------------------------------------------
    # Opening / verification
    # ------------------------------------------------------------------
    def _segment_paths(self) -> List[Tuple[int, str]]:
        entries = []
        for name in os.listdir(self.directory):
            if not name.endswith(_SEGMENT_SUFFIX):
                continue
            stem = name[: -len(_SEGMENT_SUFFIX)]
            if not stem.isdigit():
                continue
            entries.append((int(stem), os.path.join(self.directory, name)))
        entries.sort()
        return entries

    def _scan(self) -> List[_Segment]:
        """Verify every segment; truncate a torn tail on the last one."""
        segments: List[_Segment] = []
        paths = self._segment_paths()
        expected_seq = None
        for position, (first_seq, path) in enumerate(paths):
            is_last = position == len(paths) - 1
            if expected_seq is not None and first_seq != expected_seq:
                raise WALCorruptionError(
                    f"segment {path} starts at seq {first_seq}, "
                    f"expected {expected_seq}"
                )
            ends = self._verify_segment(path, first_seq,
                                        truncate_tail=is_last)
            if not ends and is_last and segments:
                # The crash happened before the rotated segment received
                # its first complete record; drop the empty file.
                os.remove(path)
                break
            segments.append(_Segment(path=path, first_seq=first_seq,
                                     ends=ends))
            expected_seq = first_seq + len(ends)
        return segments

    def _verify_segment(self, path: str, first_seq: int,
                        truncate_tail: bool) -> List[int]:
        """End offset of every valid record; handle (or reject) a bad
        tail."""
        ends: List[int] = []
        bad: Optional[str] = None
        with open(path, "rb") as stream:
            offset = 0
            for raw in stream:
                offset += len(raw)
                line = raw.decode("utf-8", errors="replace")
                complete = line.endswith("\n")
                try:
                    if not complete:
                        raise ValueError("partial final record")
                    seq, _ = _decode_record(line)
                    if seq != first_seq + len(ends):
                        raise ValueError(
                            f"sequence gap: record says {seq}, "
                            f"expected {first_seq + len(ends)}"
                        )
                except ValueError as exc:
                    bad = str(exc)
                    break
                ends.append(offset)
            else:
                return ends
            if stream.read(1):
                # Valid records follow the bad one: this is not a torn
                # tail, it is corruption in the middle of the log.
                raise WALCorruptionError(
                    f"corrupt record mid-segment in {path} "
                    f"(after {len(ends)} good records): {bad}"
                )
        if not truncate_tail:
            raise WALCorruptionError(
                f"corrupt tail in non-final segment {path}: {bad}"
            )
        with open(path, "r+b") as stream:
            stream.truncate(ends[-1] if ends else 0)
        self.torn_records_truncated += 1
        get_registry().counter("wal.torn_records_truncated").inc()
        return ends

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, batch: MutationBatch) -> int:
        """Durably append one batch; returns its sequence number."""
        seq = self.next_seq
        line = _encode_record(seq, batch_to_payload(batch))
        stream = self._stream_for(seq)
        try:
            faults.hit("wal.append")
            faults.hit("wal.append.torn")
        except InjectedCrash as crash:
            if crash.site == "wal.append.torn":
                # Simulate a kill mid-write: half the record's bytes
                # reach the disk, no newline, no flush-completion.
                stream.write(line[: max(1, len(line) // 2)])
                stream.flush()
            raise
        stream.write(line)
        stream.flush()
        os.fsync(stream.fileno())  # acknowledged => durable
        self.next_seq = seq + 1
        ends = self._open_segment.ends
        ends.append((ends[-1] if ends else 0) + len(line))  # ASCII
        registry = get_registry()
        registry.counter("wal.records_appended").inc()
        registry.gauge("wal.next_seq").set(self.next_seq)
        return seq

    def _stream_for(self, seq: int):
        segment = self._open_segment
        if (segment is None
                or segment.records >= self.segment_records
                or self._stream is None):
            self._roll(seq)
        return self._stream

    def _roll(self, first_seq: int) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        if (self._segments
                and self._segments[-1].records < self.segment_records
                and self._segments[-1].path not in self._force_sealed):
            segment = self._segments[-1]
            if segment.first_seq + segment.records != first_seq:
                raise WALCorruptionError(
                    f"append seq {first_seq} does not continue segment "
                    f"{segment.path}"
                )
        else:
            segment = _Segment(
                path=os.path.join(self.directory, _segment_name(first_seq)),
                first_seq=first_seq, ends=[],
            )
            self._segments.append(segment)
            get_registry().counter("wal.segments_created").inc()
        self._stream = open(segment.path, "a", encoding="utf-8")
        self._open_segment = segment

    # ------------------------------------------------------------------
    # Replay / garbage collection
    # ------------------------------------------------------------------
    def replay(self, start_seq: int = 0
               ) -> Iterator[Tuple[int, MutationBatch]]:
        """Yield ``(seq, batch)`` for every record with seq >= start."""
        for segment in self._segments:
            if segment.first_seq + segment.records <= start_seq:
                continue
            with open(segment.path, encoding="utf-8") as stream:
                for line in stream:
                    if not line.endswith("\n"):
                        break  # torn tail that appeared after our scan
                    seq, payload = _decode_record(line)
                    if seq < start_seq:
                        continue
                    yield seq, payload_to_batch(payload)

    def gc(self, covered_seq: int) -> int:
        """Delete segments whose every record is below ``covered_seq``
        (i.e. already captured by a checkpoint); returns segments
        removed."""
        removed = 0
        keep: List[_Segment] = []
        for segment in self._segments:
            last_in_segment = segment.first_seq + segment.records - 1
            is_open = segment is self._open_segment
            if segment.records and last_in_segment < covered_seq \
                    and not is_open:
                os.remove(segment.path)
                removed += 1
            else:
                keep.append(segment)
        self._segments = keep
        if removed:
            get_registry().counter("wal.segments_collected").inc(removed)
        return removed

    # ------------------------------------------------------------------
    # Shipping / sealing
    # ------------------------------------------------------------------
    def segment_views(self) -> List[SegmentView]:
        """A :class:`SegmentView` of every non-empty segment, oldest
        first, the open one included.

        Each view ends at its segment's last returned append, so a
        record is shippable exactly when it is durable; a torn partial
        line past that point (a crash mid-append) is never part of a
        view.
        """
        return [
            SegmentView(path=segment.path, first_seq=segment.first_seq,
                        end_seq=segment.first_seq + segment.records,
                        ends=segment.ends)
            for segment in self._segments if segment.records
        ]

    def seal_active(self) -> bool:
        """Force the open partial segment sealed (flush + close).

        The next append rolls a fresh segment.  Returns ``True`` if a
        partial segment was actually sealed; a full or absent tail is a
        no-op.  Used by a replica resetting its mirror under an adopted
        checkpoint: once sealed, the superseded tail can be collected.
        """
        if not self._segments:
            return False
        segment = self._segments[-1]
        if (segment.records == 0
                or segment.records >= self.segment_records
                or segment.path in self._force_sealed):
            return False
        self._force_sealed.add(segment.path)
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        self._open_segment = None
        get_registry().counter("wal.segments_sealed").inc()
        return True

    def fast_forward(self, seq: int) -> None:
        """Position an *empty* log at ``seq`` (checkpoint-covered prefix).

        A replica that adopts a checkpoint ahead of its mirror resets
        the mirror to the checkpoint's position: the superseded records
        are garbage-collected first, then the next append opens a
        segment named for ``seq`` -- keeping the scan-time contiguity
        invariant intact.
        """
        if self._segments:
            raise ValueError(
                "fast_forward requires an empty log (gc the covered "
                "segments first)"
            )
        if seq < self.next_seq:
            raise ValueError(
                f"cannot fast-forward backwards ({self.next_seq} -> {seq})"
            )
        self.next_seq = seq

    # ------------------------------------------------------------------
    def segments(self) -> List[str]:
        return [segment.path for segment in self._segments]

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(dir={self.directory!r}, "
            f"segments={len(self._segments)}, next_seq={self.next_seq})"
        )
