"""Background integrity scrubbing for durable state directories.

Every durable artifact this system writes is CRC-guarded -- WAL records
(:mod:`repro.recovery.wal`), checkpoint payloads
(:mod:`repro.runtime.checkpoint`), snapshot-store segment files
(:mod:`repro.graph.storage`) -- but until now those CRCs were only
checked when the artifact happened to be read.  Bit-rot on a segment
nobody reopens sits undetected until the worst moment: a restart, a
failover, a replica bootstrap.  The :class:`IntegrityScrubber` walks a
state directory *proactively*, re-verifying every CRC it can find, and
-- with ``repair=True`` -- heals what it can:

- **Store segments.**  The six canonical arrays of a snapshot are a
  CSR+CSC pair over the *same* edge set, sorted by ``(src, dst)`` and
  ``(dst, src)`` respectively.  Edge keys are unique, so each ordering
  is a permutation-independent total order: a damaged direction can be
  rebuilt **bit-for-bit** from the clean one in heap (a
  :class:`~repro.graph.csr.CSRGraph` built from its edges), and the
  rebuild is proven by comparing its CRC32 against the manifest's
  recorded value before the file is replaced.  Damage
  spanning both directions cannot be rebuilt standalone -- the
  generation is quarantined (files sidelined to ``quarantine/``, the
  manifest entry dropped) so nothing ever silently serves rotten data;
  a replication cluster then heals by re-shipping from the writer
  (:meth:`repro.serving.replication.ReplicationCluster.scrub`).

- **Sealed WAL segments.**  A corrupt record inside history that the
  newest checkpoint already covers is repaired by garbage-collecting
  the covered prefix (recovery never replays it); damage *above* the
  checkpoint is unrepairable standalone and is reported as such.

- **Checkpoints.**  A checkpoint that fails any of its CRCs is
  sidelined; recovery already skips unloadable generations, so
  sidelining only makes the skip explicit and durable.

Results land in a machine-readable ``scrub-report.json`` in the state
directory plus ``scrub.*`` counters, and surface through
``repro scrub [--repair]`` and ``repro replication-status``.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.storage import (
    ARRAY_NAMES,
    StoreError,
    atomic_write,
    verify_segment_file,
    _HEADER_SIZE,
    _pack_header,
)
from repro.obs.registry import get_registry
from repro.recovery.manager import list_checkpoints
from repro.recovery.wal import _decode_record
from repro.runtime.checkpoint import open_checkpoint, read_store_manifest

__all__ = [
    "IntegrityScrubber",
    "ScrubFinding",
    "ScrubReport",
    "scrub_state_dir",
]

_OUT_ARRAYS = ("out_offsets", "out_targets", "out_weights")
_IN_ARRAYS = ("in_offsets", "in_sources", "in_weights")
_REPORT_NAME = "scrub-report.json"


@dataclass
class ScrubFinding:
    """One detected integrity violation (and what repair did about it)."""

    kind: str  # "store" | "wal" | "checkpoint"
    path: str
    detail: str
    snapshot: Optional[str] = None
    array: Optional[str] = None
    first_seq: Optional[int] = None
    repaired: bool = False
    repair: str = ""

    def to_json(self) -> Dict:
        payload = {"kind": self.kind, "path": self.path,
                   "detail": self.detail, "repaired": self.repaired,
                   "repair": self.repair}
        if self.snapshot is not None:
            payload["snapshot"] = self.snapshot
        if self.array is not None:
            payload["array"] = self.array
        if self.first_seq is not None:
            payload["first_seq"] = self.first_seq
        return payload


@dataclass
class ScrubReport:
    """The outcome of one scrub pass over one state directory."""

    root: str
    checked: Dict[str, int] = field(default_factory=dict)
    findings: List[ScrubFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def repaired(self) -> bool:
        """True when every finding was healed (vacuously true when
        the directory was clean)."""
        return all(finding.repaired for finding in self.findings)

    def to_json(self) -> Dict:
        return {
            "root": self.root,
            "ok": self.ok,
            "repaired": self.repaired,
            "checked": dict(self.checked),
            "findings": [finding.to_json() for finding in self.findings],
        }

    def summary(self) -> str:
        checked = sum(self.checked.values())
        if self.ok:
            return f"scrub {self.root}: {checked} artifacts clean"
        healed = sum(1 for finding in self.findings if finding.repaired)
        return (
            f"scrub {self.root}: {len(self.findings)} corruption(s) in "
            f"{checked} artifacts, {healed} repaired"
        )


def _rebuild_direction(num_vertices: int, rebuild_out: bool,
                       offsets: np.ndarray, endpoints: np.ndarray,
                       weights: np.ndarray) -> Dict[str, np.ndarray]:
    """One direction's three arrays, rebuilt from the clean other one
    (``offsets``/``endpoints``/``weights``) by the constructor: it
    sorts both directions canonically and edge keys are unique, so they
    come out bit-for-bit as first written."""
    anchor = np.repeat(np.arange(num_vertices, dtype=np.int64),
                       np.diff(offsets))
    src, dst = (endpoints, anchor) if rebuild_out else (anchor, endpoints)
    arrays = CSRGraph(num_vertices, src, dst, weights).canonical_arrays()
    return {name: arrays[name]
            for name in (_OUT_ARRAYS if rebuild_out else _IN_ARRAYS)}


def _segment_bytes(array: np.ndarray, dtype: str) -> Tuple[bytes, int]:
    data = np.ascontiguousarray(
        array, dtype=np.dtype(dtype)
    ).tobytes()
    return data, zlib.crc32(data) & 0xFFFFFFFF


def _write_segment(path: str, dtype: str, count: int,
                   crc: int, data: bytes) -> None:
    atomic_write(path, _pack_header(dtype, count, crc) + data, fsync=True)


def _open_clean_array(path: str, dtype: str, count: int) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.dtype(dtype))
    return np.memmap(path, dtype=np.dtype(dtype), mode="r",
                     offset=_HEADER_SIZE, shape=(int(count),))


@dataclass
class _StoreGroup:
    """One snapshot generation to scrub: its root, metadata, source."""

    root: str
    snapshot: str
    num_vertices: int
    arrays: Dict[str, Dict]
    source: str  # "manifest" | "reference"


class IntegrityScrubber:
    """Walks one state directory's durable artifacts and re-checks CRCs.

    Parameters
    ----------
    state_dir:
        A writer's or replica's state directory (``wal/`` +
        ``checkpoints/`` + optional quarantine/fence files).
    store_root:
        Where this node's snapshot-store segment files live.  For a
        replica this is its spool (``<dir>/store``); when omitted, the
        roots referenced by manifest-mode checkpoints are used (the
        standalone-writer case).
    """

    def __init__(self, state_dir: str,
                 store_root: Optional[str] = None) -> None:
        self.state_dir = state_dir
        self.store_root = store_root
        self.wal_dir = os.path.join(state_dir, "wal")
        self.ckpt_dir = os.path.join(state_dir, "checkpoints")

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def scan(self, write_report: bool = True) -> ScrubReport:
        report = ScrubReport(root=self.state_dir)
        self._scan_wal(report)
        self._scan_checkpoints(report)
        for group in self._store_groups(report):
            self._scan_store_group(report, group)
        registry = get_registry()
        registry.counter("scrub.segments_checked").inc(
            sum(report.checked.values())
        )
        if report.findings:
            registry.counter("scrub.corruption_found").inc(
                len(report.findings)
            )
        if write_report:
            self.write_report(report)
        return report

    def _wal_segments(self) -> List[Tuple[int, str]]:
        if not os.path.isdir(self.wal_dir):
            return []
        entries = []
        for name in os.listdir(self.wal_dir):
            stem, ext = os.path.splitext(name)
            if ext == ".jsonl" and stem.isdigit():
                entries.append((int(stem),
                                os.path.join(self.wal_dir, name)))
        return sorted(entries)

    def _scan_wal(self, report: ScrubReport) -> None:
        segments = self._wal_segments()
        report.checked["wal_segments"] = len(segments)
        records = 0
        for index, (first_seq, path) in enumerate(segments):
            last = index == len(segments) - 1
            with open(path, "rb") as stream:
                raw = stream.read()
            text = raw.decode("utf-8", errors="surrogateescape")
            parts = text.split("\n")
            body, tail = parts[:-1], parts[-1]
            damaged = None
            for line in body:
                records += 1
                try:
                    _decode_record(line)
                except ValueError as exc:
                    damaged = f"corrupt record: {exc}"
                    break
            if damaged is None and tail and not last:
                # Only the newest segment may carry a torn tail (the
                # normal crash artifact the WAL truncates on open).
                damaged = "unterminated record mid-history"
            if damaged is not None:
                report.findings.append(ScrubFinding(
                    kind="wal", path=path, detail=damaged,
                    first_seq=first_seq,
                ))
        report.checked["wal_records"] = records

    def _scan_checkpoints(self, report: ScrubReport) -> None:
        checkpoints = list_checkpoints(self.ckpt_dir)
        report.checked["checkpoints"] = len(checkpoints)
        for seq, path in checkpoints:
            try:
                open_checkpoint(path)  # every CRC, every structural rule
            except ValueError as exc:
                report.findings.append(ScrubFinding(
                    kind="checkpoint", path=path, first_seq=seq,
                    detail=f"checkpoint payload verification failed: {exc}",
                ))

    def _store_groups(self, report: ScrubReport) -> List[_StoreGroup]:
        groups: Dict[Tuple[str, str], _StoreGroup] = {}
        roots = []
        if self.store_root is not None:
            roots.append(self.store_root)
        # Manifest-mode checkpoints name the snapshots they depend on;
        # resolve them against store_root when given (replica spools
        # hold *copies* -- the recorded root is the writer's).
        for _seq, path in list_checkpoints(self.ckpt_dir):
            try:
                reference = read_store_manifest(path)
            except ValueError:
                continue  # already reported by _scan_checkpoints
            if reference is None:
                continue
            root = self.store_root or reference["root"]
            key = (os.path.abspath(root), reference["snapshot"])
            groups.setdefault(key, _StoreGroup(
                root=root, snapshot=reference["snapshot"],
                num_vertices=int(reference["num_vertices"]),
                arrays={name: dict(meta) for name, meta
                        in reference["arrays"].items()},
                source="reference",
            ))
            if reference["root"] not in roots:
                roots.append(reference["root"])
        # A store manifest, when present, is authoritative for every
        # generation it lists (including ones no checkpoint references
        # yet) -- it also enables quarantine on unrepairable damage.
        for root in roots:
            manifest_path = os.path.join(root, "manifest.json")
            if not os.path.exists(manifest_path):
                continue
            try:
                with open(manifest_path, encoding="utf-8") as stream:
                    manifest = json.load(stream)
            except (OSError, json.JSONDecodeError) as exc:
                report.findings.append(ScrubFinding(
                    kind="store", path=manifest_path,
                    detail=f"unreadable store manifest: {exc}",
                ))
                continue
            for snapshot, entry in manifest.get("snapshots", {}).items():
                key = (os.path.abspath(root), snapshot)
                groups[key] = _StoreGroup(
                    root=root, snapshot=snapshot,
                    num_vertices=int(entry["num_vertices"]),
                    arrays={name: dict(meta) for name, meta
                            in entry["arrays"].items()},
                    source="manifest",
                )
        return [groups[key] for key in sorted(groups)]

    def _scan_store_group(self, report: ScrubReport,
                          group: _StoreGroup) -> None:
        checked = report.checked.setdefault("store_segments", 0)
        for name in ARRAY_NAMES:
            meta = group.arrays.get(name)
            if meta is None:
                continue
            path = os.path.join(group.root, meta["file"])
            report.checked["store_segments"] = checked = checked + 1
            try:
                dtype, count, crc = verify_segment_file(path)
                if (dtype != meta["dtype"]
                        or count != int(meta["count"])
                        or crc != int(meta["crc32"])):
                    raise StoreError(
                        f"segment {path} disagrees with its "
                        f"{group.source} entry"
                    )
            except (OSError, StoreError) as exc:
                report.findings.append(ScrubFinding(
                    kind="store", path=path, detail=str(exc),
                    snapshot=group.snapshot, array=name,
                ))

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def repair(self) -> ScrubReport:
        """Scan, then heal every finding that can be healed standalone.

        The returned (and persisted) report marks each finding with
        what happened; :attr:`ScrubReport.repaired` is the "everything
        healed" bit the CLI turns into an exit code.
        """
        report = self.scan(write_report=False)
        self._repair_stores(report)
        self._repair_wal(report)
        self._repair_checkpoints(report)
        healed = sum(1 for finding in report.findings if finding.repaired)
        if healed:
            get_registry().counter("scrub.repaired").inc(healed)
        self.write_report(report)
        return report

    def _repair_stores(self, report: ScrubReport) -> None:
        store_findings: Dict[Tuple[str, str], List[ScrubFinding]] = {}
        groups = {
            (os.path.abspath(group.root), group.snapshot): group
            for group in self._store_groups(ScrubReport(root=self.state_dir))
        }
        for finding in report.findings:
            if finding.kind == "store" and finding.snapshot is not None:
                root = os.path.abspath(os.path.dirname(finding.path))
                store_findings.setdefault(
                    (root, finding.snapshot), []
                ).append(finding)
        for key, findings in sorted(store_findings.items()):
            group = groups.get(key)
            if group is None:
                continue
            self._repair_store_group(group, findings)

    def _repair_store_group(self, group: _StoreGroup,
                            findings: List[ScrubFinding]) -> None:
        damaged = {finding.array for finding in findings}
        rebuild_out = damaged <= set(_OUT_ARRAYS)
        rebuild_in = damaged <= set(_IN_ARRAYS)
        if not (rebuild_out or rebuild_in):
            self._quarantine_store_group(group, findings)
            return
        clean_names = _IN_ARRAYS if rebuild_out else _OUT_ARRAYS
        clean = {}
        try:
            for name in clean_names:
                meta = group.arrays[name]
                clean[name] = _open_clean_array(
                    os.path.join(group.root, meta["file"]),
                    meta["dtype"], int(meta["count"]),
                )
        except OSError as exc:
            self._quarantine_store_group(
                group, findings, f"clean direction unreadable ({exc}); ")
            return
        rebuilt = _rebuild_direction(
            group.num_vertices, rebuild_out,
            *(clean[name] for name in clean_names))
        # Prove the rebuild is bit-for-bit BEFORE replacing anything:
        # every rebuilt array's CRC must equal the recorded value.
        staged = {}
        for finding in findings:
            meta = group.arrays[finding.array]
            data, crc = _segment_bytes(rebuilt[finding.array],
                                       meta["dtype"])
            if (crc != int(meta["crc32"])
                    or len(data) != int(meta["count"])
                    * np.dtype(meta["dtype"]).itemsize):
                self._quarantine_store_group(
                    group, findings,
                    f"rebuild CRC mismatch on {finding.array}; ")
                return
            staged[finding.array] = (meta, data, crc)
        for name, (meta, data, crc) in staged.items():
            _write_segment(
                os.path.join(group.root, meta["file"]),
                meta["dtype"], int(meta["count"]), crc, data,
            )
        direction = "out" if rebuild_out else "in"
        for finding in findings:
            finding.repaired = True
            finding.repair = (
                f"rebuilt {direction}-direction bit-for-bit from the "
                f"clean {'in' if rebuild_out else 'out'} direction"
            )

    def _quarantine_store_group(self, group: _StoreGroup,
                                findings: List[ScrubFinding],
                                why: str = "") -> None:
        """Sideline a generation that cannot be rebuilt standalone, and
        say so (after ``why``) on each of its findings.

        With a store manifest the entry is dropped too, so nothing can
        open the rotten generation again -- that counts as "handled"
        (the cluster layer re-ships a replacement).  A reference-only
        group (replica spool before its first restore) just sidelines
        the files; the adopting restore then fails loudly and the
        cluster resync re-ships them.
        """
        quarantine_dir = os.path.join(group.root, "quarantine")
        os.makedirs(quarantine_dir, exist_ok=True)
        moved = 0
        for name in ARRAY_NAMES:
            meta = group.arrays.get(name)
            if meta is None:
                continue
            path = os.path.join(group.root, meta["file"])
            if os.path.exists(path):
                os.replace(path, os.path.join(quarantine_dir,
                                              meta["file"]))
                moved += 1
        manifest_path = os.path.join(group.root, "manifest.json")
        if group.source == "manifest" and os.path.exists(manifest_path):
            with open(manifest_path, encoding="utf-8") as stream:
                manifest = json.load(stream)
            manifest.get("snapshots", {}).pop(group.snapshot, None)
            manifest.get("pins", {}).pop(group.snapshot, None)
            if manifest.get("current") == group.snapshot:
                remaining = sorted(manifest.get("snapshots", {}))
                manifest["current"] = remaining[-1] if remaining else None
            atomic_write(
                manifest_path,
                json.dumps(manifest, indent=1, sort_keys=True), fsync=True,
            )
        get_registry().counter("scrub.quarantined").inc()
        for finding in findings:
            finding.repaired = group.source == "manifest"
            finding.repair = (f"{why}quarantined generation {group.snapshot} "
                              f"({moved} files sidelined to {quarantine_dir})")

    def _repair_wal(self, report: ScrubReport) -> None:
        wal_findings = sorted(
            (finding for finding in report.findings
             if finding.kind == "wal" and finding.first_seq is not None),
            key=lambda finding: finding.first_seq,
        )
        if not wal_findings:
            return
        checkpoints = list_checkpoints(self.ckpt_dir)
        ckpt_seq = checkpoints[-1][0] if checkpoints else None
        segments = self._wal_segments()
        bounds = {}
        for index, (first_seq, path) in enumerate(segments):
            end = (segments[index + 1][0]
                   if index + 1 < len(segments) else None)
            bounds[first_seq] = (path, end)
        quarantine_dir = os.path.join(self.wal_dir, "quarantine")
        covered_through = None
        for finding in wal_findings:
            _path, end = bounds.get(finding.first_seq, (None, None))
            if ckpt_seq is not None and end is not None and end <= ckpt_seq:
                covered_through = max(covered_through or 0, end)
                finding.repaired = True
                finding.repair = (
                    f"garbage-collected: history below {end} is covered "
                    f"by checkpoint {ckpt_seq}"
                )
            else:
                finding.repair = (
                    "damage above the newest checkpoint cannot be "
                    "rebuilt standalone; re-ship from a writer or "
                    "accept the loss"
                )
        if covered_through is None:
            return
        os.makedirs(quarantine_dir, exist_ok=True)
        # Contiguity: everything below the highest covered bound goes,
        # clean segments included -- recovery replays from the
        # checkpoint, so this prefix is dead weight anyway.
        for first_seq, (path, _end) in sorted(bounds.items()):
            next_first = bounds[first_seq][1]
            if next_first is not None and next_first <= covered_through:
                os.replace(path, os.path.join(quarantine_dir,
                                              os.path.basename(path)))

    def _repair_checkpoints(self, report: ScrubReport) -> None:
        quarantine_dir = os.path.join(self.ckpt_dir, "quarantine")
        for finding in report.findings:
            if finding.kind != "checkpoint":
                continue
            os.makedirs(quarantine_dir, exist_ok=True)
            os.replace(finding.path, os.path.join(
                quarantine_dir, os.path.basename(finding.path)
            ))
            finding.repaired = True
            finding.repair = (
                "sidelined; recovery falls back to the next loadable "
                "generation"
            )

    # ------------------------------------------------------------------
    def write_report(self, report: ScrubReport) -> str:
        path = os.path.join(self.state_dir, _REPORT_NAME)
        os.makedirs(self.state_dir, exist_ok=True)
        atomic_write(path, json.dumps(report.to_json(), indent=1,
                                      sort_keys=True))
        return path


def scrub_state_dir(state_dir: str, store_root: Optional[str] = None,
                    repair: bool = False) -> ScrubReport:
    """One-shot convenience wrapper (the ``repro scrub`` entry point)."""
    scrubber = IntegrityScrubber(state_dir, store_root=store_root)
    return scrubber.repair() if repair else scrubber.scan()
