"""Streaming JSONL result store with checkpoint/resume and quarantine.

Layout of a campaign directory::

    <dir>/manifest.json      # the spec plus the fully expanded run list
    <dir>/results.jsonl      # one JSON object per completed run
    <dir>/errors.jsonl       # one JSON object per quarantined (failed) run
    <dir>/shard_index.json   # merged stores only: content-hashed segment index

A *shard segment* is a campaign directory whose manifest additionally
carries a ``shard`` block (index / count / total runs / owned run indices,
read only through :meth:`~repro.campaign.sharding.ShardSelector.from_block`);
:meth:`ResultStore.merge` folds any number of sibling segments into one
merged store whose ``results.jsonl`` is byte-identical to a serial run of
the whole campaign, recording every segment's content hash in
``shard_index.json``.  A damaged segment manifest fails the merge with a
:class:`CampaignError` naming the segment and the field.

Results are appended through one persistent handle as runs complete, and
every append is flushed and fsynced before it returns, so an interrupted
campaign loses at most the in-flight runs and a new reader sees each
record at once; :meth:`ResultStore.completed` tolerates a torn final line
when re-reading.
:meth:`ResultStore.finalize` rewrites ``results.jsonl`` in run-index order
through an atomic replace, which makes the finished file byte-identical
regardless of whether the campaign ran serially, in parallel, or across
several resumed sessions.

``errors.jsonl`` follows the same discipline (persistent append handle,
torn-tail repair, atomic finalize) but is *session-scoped*: resuming a
campaign resets it, because every quarantined run is re-dispatched and
either succeeds (no error record) or fails afresh (a new error record).

Corruption tolerance: a torn line written by this store can only ever be
the file's tail (writes are sequential through one handle), but a file can
also be damaged *in the middle* by the storage layer.  Reads therefore
skip any undecodable line and keep the intact records after it, and
:meth:`repair` reports how many lines were dropped instead of silently
truncating everything past the first bad byte.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.campaign.registry import CampaignError
from repro.campaign.sharding import ShardSelector
from repro.campaign.spec import CampaignSpec, RunManifest

MANIFEST_FILE = "manifest.json"
RESULTS_FILE = "results.jsonl"
ERRORS_FILE = "errors.jsonl"
SHARD_INDEX_FILE = "shard_index.json"
SHARD_INDEX_SCHEMA = 1


def _sanitize(value: Any) -> Any:
    """Map non-finite floats to None so the output is strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


def _dumps(record: Dict[str, Any]) -> str:
    """Canonical strict-JSON encoding (sorted keys, compact, NaN/inf -> null).

    ``allow_nan=False`` because a bare ``NaN`` token would make the file
    unreadable for every non-Python JSON consumer.
    """
    return json.dumps(_sanitize(record), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


#: What :func:`_parse_lines` yields for a line that does not parse.
_UNREADABLE = object()


def _parse_lines(path: Path) -> Iterator[Any]:
    """Each non-blank line of ``path`` decoded, or :data:`_UNREADABLE`.

    A line that fails to parse is a torn tail from an interrupted write or
    a corrupted interior line; the lines after it are still decoded.  A
    missing file has no lines.
    """
    if not path.exists():
        return
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                yield _UNREADABLE


def scan_jsonl(path: Path) -> Tuple[List[Dict[str, Any]], int]:
    """(intact records, skipped line count) of a possibly damaged JSONL file.

    Any line that fails to parse is skipped; every intact line after it is
    still returned, so one bad sector never discards the rest of a
    campaign.
    """
    records: List[Dict[str, Any]] = []
    skipped = 0
    for record in _parse_lines(path):
        if record is _UNREADABLE:
            skipped += 1
        else:
            records.append(record)
    return records, skipped


def iter_jsonl(path: Path) -> Iterator[Dict[str, Any]]:
    """Stream the intact records of a JSONL file one line at a time.

    Same corruption tolerance as :func:`scan_jsonl` (undecodable lines are
    skipped) but never materialises the file — this is the read path
    streaming aggregation uses on 10⁵⁺-run stores.
    """
    for record in _parse_lines(path):
        if record is not _UNREADABLE:
            yield record


def file_sha256(path: Path) -> str:
    """Streaming sha256 hexdigest of a file's bytes (empty-file digest if absent)."""
    digest = hashlib.sha256()
    if path.exists():
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


#: A parsed ``shard`` block: ``(selector, total_runs, run_indices)``.
_ShardClaim = Tuple[ShardSelector, int, Tuple[int, ...]]


def _read_manifest(path: Path, where: str) -> Optional[Dict[str, Any]]:
    """The ``manifest.json`` at ``path`` (None if absent), which must be an object."""
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except json.JSONDecodeError as error:
        raise CampaignError(f"{where}: {path.name} is not valid JSON: {error}") from None
    if not isinstance(manifest, dict):
        raise CampaignError(
            f"{where}: {path.name} must be a JSON object, got {type(manifest).__name__}")
    return manifest


def _shard_claim(manifest: Dict[str, Any], where: str) -> Optional[_ShardClaim]:
    """The manifest's parsed ``shard`` block, or None if it has none."""
    if "shard" not in manifest:
        return None
    return ShardSelector.from_block(manifest["shard"], where)


def _shard_label(claim: Optional[_ShardClaim]) -> str:
    """Human spelling of a shard claim (``"2/4"`` or ``"none"``)."""
    return "none" if claim is None else claim[0].label


def _run_index(entry: Any, where: str) -> int:
    """The integer ``run_index`` of a manifest run or a stored record."""
    run_index = entry.get("run_index") if isinstance(entry, dict) else None
    # bool is an int subclass; `true` is never a run index.
    if isinstance(run_index, bool) or not isinstance(run_index, int):
        raise CampaignError(f"{where} has no integer 'run_index'")
    return run_index


@dataclass(frozen=True)
class SegmentInfo:
    """What :meth:`ResultStore.merge` learned about one shard segment."""

    directory: Path
    index: int
    count: int
    run_indices: Tuple[int, ...]
    records: int
    skipped_lines: int
    sha256: str

    def index_entry(self) -> Dict[str, Any]:
        """This segment's row in ``shard_index.json``."""
        return {
            "directory": self.directory.name,
            "index": self.index,
            "records": self.records,
            "first_run_index": self.run_indices[0] if self.run_indices else None,
            "last_run_index": self.run_indices[-1] if self.run_indices else None,
            "skipped_lines": self.skipped_lines,
            "sha256": self.sha256,
        }


@dataclass
class MergeResult:
    """Outcome of :meth:`ResultStore.merge`."""

    directory: Path
    segments: List[SegmentInfo]
    records: int
    total_runs: int
    missing: List[int] = field(default_factory=list)
    errors: int = 0
    merged_sha256: str = ""
    index_path: Optional[Path] = None

    @property
    def complete(self) -> bool:
        return not self.missing


class _AppendFile:
    """One append-only JSONL file behind a persistent handle."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._handle = None

    def append(self, record: Dict[str, Any]) -> None:
        """Write one record and fsync it before returning."""
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(_dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class ResultStore:
    """Disk-backed store for one campaign's manifest, results, and errors.

    Appends go through one persistent file handle per file instead of an
    open/write/close cycle per record, and each one is flushed and fsynced
    before it returns: a finished run is durable, and visible to any
    reader, as soon as it is checkpointed.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.directory / MANIFEST_FILE
        self.results_path = self.directory / RESULTS_FILE
        self.errors_path = self.directory / ERRORS_FILE
        self._results = _AppendFile(self.results_path)
        self._errors = _AppendFile(self.errors_path)
        #: Lines dropped by the most recent :meth:`repair` (per file).
        self.last_repair_skipped: Dict[str, int] = {}

    @classmethod
    def existing(cls, directory: Union[str, Path]) -> "ResultStore":
        """The store of a campaign directory that is already there, for reading.

        Creates nothing: a path that is not a directory raises
        :class:`CampaignError` naming it.
        """
        path = Path(directory)
        if not path.is_dir():
            raise CampaignError(f"campaign directory {path} is not a directory")
        return cls(path)

    # -------------------------------------------------------------- manifest
    def write_manifest(
        self,
        spec: CampaignSpec,
        manifests: Sequence[RunManifest],
        shard: Optional[Dict[str, Any]] = None,
    ) -> None:
        payload = {
            "spec": spec.as_dict(),
            "runs": [manifest.as_dict() for manifest in manifests],
        }
        if shard is not None:
            # A shard segment records its claimed assignment explicitly so a
            # merge audits the segment's records against it.
            payload["shard"] = shard
        self._atomic_write(self.manifest_path, _dumps(payload))

    def load_manifest(self) -> Optional[Dict[str, Any]]:
        return _read_manifest(self.manifest_path,
                              f"campaign directory {self.directory}")

    def check_manifest(
        self,
        spec: CampaignSpec,
        manifests: Optional[Sequence[RunManifest]] = None,
        shard: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Refuse to resume into a directory holding a *different* campaign.

        Comparing the expanded run list as well as the spec matters: scenario
        registry *defaults* are resolved into each manifest but absent from
        the spec, so a changed default would otherwise silently mix records
        from two parameterisations in one results file.
        """
        existing = self.load_manifest()
        if existing is None:
            return
        existing_spec = existing.get("spec")
        if not isinstance(existing_spec, dict):
            raise CampaignError(
                f"campaign directory {self.directory}: manifest field 'spec' "
                "must be an object")
        if existing_spec != spec.as_dict():
            raise CampaignError(
                f"campaign directory {self.directory} already holds campaign "
                f"{existing_spec.get('name')!r} with a different spec; "
                "pass a fresh directory or the matching spec"
            )
        # Shard identity first: "wrong shard" is the actionable message when
        # both it and the (consequent) run-list difference apply.
        existing_shard = _shard_claim(existing, f"campaign directory {self.directory}")
        fresh_shard = (None if shard is None
                       else ShardSelector.from_block(shard, "this session"))
        if existing_shard != fresh_shard:
            raise CampaignError(
                f"campaign directory {self.directory} holds shard "
                f"{_shard_label(existing_shard)} but this session is running "
                f"shard {_shard_label(fresh_shard)}; resume the matching shard "
                "or pass a fresh directory"
            )
        if manifests is not None:
            # Normalise through the same JSON encoding the manifest was
            # written with so tuples/lists etc. compare equal.
            fresh = json.loads(_dumps({"runs": [m.as_dict() for m in manifests]}))
            if existing.get("runs") != fresh["runs"]:
                raise CampaignError(
                    f"campaign directory {self.directory} was produced with "
                    "different resolved run parameters (a scenario default has "
                    "changed?); pass a fresh directory"
                )

    # --------------------------------------------------------------- results
    def append(self, record: Dict[str, Any]) -> None:
        """Append one completed-run record, durably."""
        self._results.append(record)

    def append_error(self, record: Dict[str, Any]) -> None:
        """Quarantine one failed-run record, durably."""
        self._errors.append(record)

    def close(self) -> None:
        """Release the append handles (safe to call repeatedly)."""
        self._results.close()
        self._errors.close()

    def records(self) -> List[Dict[str, Any]]:
        """All intact result records on disk (torn/corrupt lines skipped)."""
        return scan_jsonl(self.results_path)[0]

    def error_records(self) -> List[Dict[str, Any]]:
        """All intact quarantine records on disk."""
        return scan_jsonl(self.errors_path)[0]

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Stream result records in file order without materialising them.

        This is the aggregation read path for fleet-scale stores: a report
        over 10⁵ runs holds one record at a time.  On a finalized (or
        merged) store file order *is* run-index order; on a live store it is
        completion order, exactly like the file itself.
        """
        return iter_jsonl(self.results_path)

    def head_records(self, limit: int) -> List[Dict[str, Any]]:
        """The first ``limit`` intact records (bounded peek, never a full read)."""
        return list(itertools.islice(self.iter_records(), limit))

    def completed(self) -> Dict[int, Dict[str, Any]]:
        """Completed records keyed by run index (last write wins)."""
        return self._by_run_index(self.results_path)

    def _by_run_index(self, path: Path) -> Dict[int, Dict[str, Any]]:
        """The intact records of ``path`` keyed by run index (last write wins).

        A decodable record without an integer ``run_index`` raises a
        :class:`CampaignError` naming the directory and the file.
        """
        where = f"campaign directory {self.directory}: a {path.name} record"
        return {_run_index(record, where): record for record in iter_jsonl(path)}

    def _in_run_order(self, path: Path) -> List[Dict[str, Any]]:
        """The intact records of ``path``, one per run index, in run order."""
        by_index = self._by_run_index(path)
        return [by_index[index] for index in sorted(by_index)]

    def repair(self) -> int:
        """Drop undecodable lines from both JSONL files; returns kept results.

        Must run before appending to a file that may end in a torn line from
        an interrupted write — otherwise the next append would concatenate
        onto the fragment and corrupt that record too.  Interior corruption
        (a damaged line *between* intact ones) is skipped, not truncated at:
        every intact record before and after it survives.  Per-file skip
        counts are reported in :attr:`last_repair_skipped`.
        """
        self.close()  # the atomic replace below would orphan open handles
        self.last_repair_skipped = {}
        kept = 0
        for path in (self.results_path, self.errors_path):
            records, skipped = scan_jsonl(path)
            if path.exists():
                self._write_jsonl(path, records)
            if skipped:
                self.last_repair_skipped[path.name] = skipped
            if path == self.results_path:
                kept = len(records)
        return kept

    def reset_errors(self) -> None:
        """Truncate ``errors.jsonl`` (quarantined runs are being re-dispatched)."""
        self._errors.close()
        if self.errors_path.exists():
            self._atomic_write(self.errors_path, "")

    def finalize(self) -> List[Dict[str, Any]]:
        """Rewrite ``results.jsonl`` sorted by run index; return the records."""
        self._results.close()  # the atomic replace would orphan an open handle
        ordered = self._in_run_order(self.results_path)
        self._write_jsonl(self.results_path, ordered)
        return ordered

    def finalize_errors(self) -> List[Dict[str, Any]]:
        """Rewrite ``errors.jsonl`` sorted by run index; return the records.

        An empty quarantine leaves no file behind, so a clean campaign
        directory looks exactly as it did before quarantine existed.
        """
        self._errors.close()
        ordered = self._in_run_order(self.errors_path)
        self._write_jsonl(self.errors_path, ordered, keep_empty=False)
        return ordered

    # ----------------------------------------------------------------- merge
    def merge(
        self,
        segments: Sequence[Union[str, Path]],
        *,
        allow_partial: bool = False,
    ) -> MergeResult:
        """Fold finalized shard segments into this store, byte-identically.

        Every segment must be a campaign directory whose manifest carries a
        ``shard`` block over the *same* spec and partition shape.  Segments
        are read tolerantly (corrupt lines skipped and reported, inputs
        never mutated — per-segment :meth:`repair` is the fix-up path) and
        the merged ``results.jsonl`` is rewritten in run-index order through
        the same canonical encoding the workers used, so a complete merge is
        byte-identical to a serial run of the whole campaign.  The merged
        manifest carries *no* shard block for the same reason.

        Missing shards or missing runs raise (naming the culprits) unless
        ``allow_partial`` — a partial merge still writes everything it has,
        plus a ``shard_index.json`` recording each segment's content hash.
        A damaged segment manifest always raises, naming the segment and
        the field, before anything is written.
        """
        if not segments:
            raise CampaignError("merge needs at least one shard segment")
        seen_dirs = set()
        parsed: List[Tuple[Path, Dict[str, Any], _ShardClaim]] = []
        for segment in segments:
            directory = Path(segment)
            resolved = directory.resolve()
            if resolved == self.directory.resolve():
                raise CampaignError(
                    f"merge output {self.directory} cannot also be a segment")
            if resolved in seen_dirs:
                raise CampaignError(f"segment {directory} listed twice")
            seen_dirs.add(resolved)
            where = f"segment {directory}"
            manifest = _read_manifest(directory / MANIFEST_FILE, where)
            if manifest is None:
                raise CampaignError(
                    f"{where} has no {MANIFEST_FILE}; "
                    "was the shard run finalized?")
            claim = _shard_claim(manifest, where)
            if claim is None:
                raise CampaignError(
                    f"{where} is not a shard segment "
                    "(manifest has no shard block)")
            if not isinstance(manifest.get("spec"), dict):
                raise CampaignError(f"{where}: manifest field 'spec' must be an object")
            if not isinstance(manifest.get("runs"), list):
                raise CampaignError(f"{where}: manifest field 'runs' must be a list")
            parsed.append((directory, manifest, claim))

        spec_dict = parsed[0][1]["spec"]
        first_shard, total_runs, _claimed = parsed[0][2]
        count = first_shard.count
        seen_indices: Dict[int, Path] = {}
        runs_by_index: Dict[int, Dict[str, Any]] = {}
        infos: List[SegmentInfo] = []
        merged_records: Dict[int, Dict[str, Any]] = {}
        merged_errors: Dict[int, Dict[str, Any]] = {}
        for directory, manifest, (shard, total, claimed) in parsed:
            where = f"segment {directory}"
            if manifest["spec"] != spec_dict:
                raise CampaignError(
                    f"{where} holds a different campaign spec "
                    f"than {parsed[0][0]}")
            if (shard.count, total) != (count, total_runs):
                raise CampaignError(
                    f"{where} has partition shape {shard.count}-way over "
                    f"{total} runs; expected {count}-way over {total_runs}")
            if shard.index in seen_indices:
                raise CampaignError(
                    f"shard {shard.label} appears in both "
                    f"{seen_indices[shard.index]} and {directory}")
            # Same shape and distinct indices make the claims disjoint: the
            # parser ties each claim to its shard's block of the partition.
            seen_indices[shard.index] = directory
            runs = {_run_index(run, f"{where}: manifest runs[{position}]"): run
                    for position, run in enumerate(manifest["runs"])}
            if sorted(runs) != list(claimed):
                raise CampaignError(
                    f"{where}: manifest field 'runs' does not list the runs "
                    f"of shard {shard.label}")
            runs_by_index.update(runs)
            claimed_set = frozenset(claimed)
            records, skipped = scan_jsonl(directory / RESULTS_FILE)
            for record in records:
                run_index = _run_index(record, f"{where}: a {RESULTS_FILE} record")
                if run_index not in claimed_set:
                    raise CampaignError(
                        f"{where} contains run index {run_index} "
                        f"outside its claimed assignment (shard {shard.label})")
                merged_records[run_index] = record
            for error in scan_jsonl(directory / ERRORS_FILE)[0]:
                merged_errors[_run_index(error, f"{where}: an {ERRORS_FILE} record")] = error
            infos.append(SegmentInfo(
                directory=directory,
                index=shard.index,
                count=count,
                run_indices=claimed,
                records=len(records),
                skipped_lines=skipped,
                sha256=file_sha256(directory / RESULTS_FILE),
            ))
        infos.sort(key=lambda info: info.index)

        missing_shards = sorted(set(range(1, count + 1)) - set(seen_indices))
        # A run is missing whether its segment lacks the record or was not
        # passed at all (partial fan-in).
        missing_runs = sorted(set(range(total_runs)) - set(merged_records))
        if not allow_partial:
            if missing_shards:
                raise CampaignError(
                    f"merge is missing shard(s) "
                    f"{', '.join(f'{i}/{count}' for i in missing_shards)}; "
                    "pass their segments or use allow_partial")
            if missing_runs:
                preview = ", ".join(str(i) for i in missing_runs[:8])
                more = "..." if len(missing_runs) > 8 else ""
                raise CampaignError(
                    f"merge is missing {len(missing_runs)} run(s) "
                    f"(run_index {preview}{more}); resume the owning shard(s) "
                    "or use allow_partial")

        existing = self.load_manifest()
        if existing is not None and existing.get("spec") != spec_dict:
            raise CampaignError(
                f"merge output {self.directory} already holds a different "
                "campaign; pass a fresh directory")

        # The merged manifest is the serial manifest: full run list, no
        # shard block — byte-identical to what a serial session writes.
        ordered_runs = [runs_by_index[i] for i in sorted(runs_by_index)]
        self._atomic_write(self.manifest_path,
                           _dumps({"spec": spec_dict, "runs": ordered_runs}))
        self.close()  # the atomic replaces below would orphan open handles
        ordered = [merged_records[i] for i in sorted(merged_records)]
        self._write_jsonl(self.results_path, ordered)
        error_list = [merged_errors[i] for i in sorted(merged_errors)]
        self._write_jsonl(self.errors_path, error_list, keep_empty=False)

        merged_sha = file_sha256(self.results_path)
        index_path = self.directory / SHARD_INDEX_FILE
        index_payload = {
            "schema": SHARD_INDEX_SCHEMA,
            "campaign": spec_dict.get("name"),
            "scenario": spec_dict.get("scenario"),
            "shard_count": count,
            "total_runs": total_runs,
            "merged_records": len(ordered),
            "merged_errors": len(error_list),
            "missing_runs": missing_runs,
            "merged_sha256": merged_sha,
            "segments": [info.index_entry() for info in infos],
        }
        self._atomic_write(index_path,
                           json.dumps(index_payload, indent=2, sort_keys=True)
                           + "\n")
        return MergeResult(
            directory=self.directory,
            segments=infos,
            records=len(ordered),
            total_runs=total_runs,
            missing=missing_runs,
            errors=len(error_list),
            merged_sha256=merged_sha,
            index_path=index_path,
        )

    # --------------------------------------------------------------- helpers
    def _write_jsonl(self, path: Path, records: Sequence[Dict[str, Any]], *,
                     keep_empty: bool = True) -> None:
        """Atomically replace ``path`` with one canonical line per record.

        With ``keep_empty=False`` no records means no file: an existing one
        is removed.
        """
        if records or keep_empty:
            self._atomic_write(path, "".join(_dumps(record) + "\n" for record in records))
        elif path.exists():
            path.unlink()

    def _atomic_write(self, path: Path, content: str) -> None:
        temporary = path.with_suffix(path.suffix + ".tmp")
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(content)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)


def load_results(directory: Union[str, Path]) -> List[Dict[str, Any]]:
    """Convenience: the intact records of a campaign directory, in run order."""
    store = ResultStore.existing(directory)
    return store._in_run_order(store.results_path)


def load_errors(directory: Union[str, Path]) -> List[Dict[str, Any]]:
    """Convenience: the quarantine records of a campaign directory, in run order."""
    store = ResultStore.existing(directory)
    return store._in_run_order(store.errors_path)
