"""Sharding: partition an expanded campaign into independent work units.

A :class:`ShardSelector` names one of ``count`` disjoint partitions of a
campaign's expanded run list.  Because every run is seeded from its stable
run id (:func:`repro.sim.random.derive_seed`), a shard is a *complete*
campaign over its subset: it can run on any box, at any time, resume
independently, and its finalized ``results.jsonl`` segment merges with its
siblings into bytes identical to a serial run of the whole campaign
(:meth:`repro.campaign.store.ResultStore.merge`).

Shard ``I`` of ``K`` owns the I-th of K nearly-equal consecutive blocks of
the expanded order, a pure function of ``(run_index, count)``.

The assignment is recorded in every shard's manifest (the ``shard`` block
of :meth:`ShardSelector.manifest_block`, with explicit ``run_indices``),
and :meth:`ShardSelector.from_block` is the one reader of that block: shard
manifests, resumed segments and merges are all audited through it, so a
damaged or foreign block fails as a :class:`CampaignError` naming the file
and the field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.registry import CampaignError
from repro.campaign.spec import CampaignSpec, RunManifest

#: The fields of a ``shard`` block, as :meth:`ShardSelector.manifest_block`
#: writes them.
_BLOCK_FIELDS = ("index", "count", "total_runs", "run_indices")


def _integer(value: Any, where: str, field: str) -> int:
    """``value`` if it is a JSON integer, else a :class:`CampaignError`."""
    # bool is an int subclass; `true` is never an index or a count.
    if isinstance(value, bool) or not isinstance(value, int):
        raise CampaignError(
            f"{where}: shard field {field!r} must be an integer, "
            f"got {type(value).__name__} {value!r}")
    return value


@dataclass(frozen=True)
class ShardSelector:
    """One shard of a K-way campaign partition (``index`` is 1-based)."""

    index: int
    count: int

    def validate(self) -> None:
        if self.count < 1:
            raise CampaignError("shard count must be >= 1")
        if not 1 <= self.index <= self.count:
            raise CampaignError(
                f"shard index must be in 1..{self.count}, got {self.index}"
            )

    # -------------------------------------------------------------- identity
    @property
    def label(self) -> str:
        """The CLI spelling, e.g. ``"2/4"``."""
        return f"{self.index}/{self.count}"

    def file_stem(self) -> str:
        """Stable, sortable name, e.g. ``"shard-02-of-04"``."""
        width = max(2, len(str(self.count)))
        return f"shard-{self.index:0{width}d}-of-{self.count:0{width}d}"

    @classmethod
    def parse(cls, text: str) -> "ShardSelector":
        """Parse the ``I/K`` CLI form (1-based, e.g. ``--shard 2/4``)."""
        index_text, slash, count_text = text.partition("/")
        try:
            if slash != "/":
                raise ValueError(text)
            selector = cls(int(index_text), int(count_text))
        except ValueError:
            raise CampaignError(
                f"shard must be of the form I/K (e.g. 2/4), got {text!r}"
            ) from None
        selector.validate()
        return selector

    # ------------------------------------------------------------ assignment
    def run_indices(self, total: int) -> List[int]:
        """The global run indices this shard owns, in ascending order."""
        self.validate()
        return list(range(*self._bounds(total)))

    def _bounds(self, total: int) -> Tuple[int, int]:
        """``(start, stop)`` of this shard's block of ``total`` runs."""
        base, remainder = divmod(total, self.count)
        start = (self.index - 1) * base + min(self.index - 1, remainder)
        return start, start + base + (1 if self.index - 1 < remainder else 0)

    def partition(self, manifests: Sequence[RunManifest]) -> List[RunManifest]:
        """The subset of ``manifests`` this shard executes (global indices kept)."""
        owned = self.run_indices(len(manifests))
        return [manifests[index] for index in owned]

    # ----------------------------------------------------------- persistence
    def manifest_block(self, total: int) -> Dict[str, Any]:
        """The ``shard`` block recorded in a segment's ``manifest.json``.

        Carries the *explicit* owned run indices so a merge audits each
        segment's records against the assignment it claimed.
        """
        return {"index": self.index, "count": self.count,
                "total_runs": total, "run_indices": self.run_indices(total)}

    @classmethod
    def from_block(
        cls, block: Any, where: str,
    ) -> Tuple["ShardSelector", int, Tuple[int, ...]]:
        """Read a ``shard`` block: ``(selector, total_runs, run_indices)``.

        The inverse of :meth:`manifest_block`.  The block must carry exactly
        :data:`_BLOCK_FIELDS`, each an integer (``run_indices`` a list of
        them), and ``run_indices`` must be what the selector owns of
        ``total_runs``.  Anything else raises :class:`CampaignError`
        prefixed with ``where`` (the file being read) and naming the field.
        """
        if not isinstance(block, dict):
            raise CampaignError(
                f"{where}: shard block must be an object, "
                f"got {type(block).__name__}")
        unknown = sorted(set(block) - set(_BLOCK_FIELDS))
        if unknown:
            raise CampaignError(f"{where}: unknown shard fields: {unknown}")
        missing = [field for field in _BLOCK_FIELDS if field not in block]
        if missing:
            raise CampaignError(f"{where}: shard block is missing fields: {missing}")
        index, count, total = (_integer(block[field], where, field)
                               for field in _BLOCK_FIELDS[:3])
        if not isinstance(block["run_indices"], list):
            raise CampaignError(
                f"{where}: shard field 'run_indices' must be a list, "
                f"got {type(block['run_indices']).__name__}")
        claimed = tuple(_integer(run_index, where, "run_indices")
                        for run_index in block["run_indices"])
        selector = cls(index, count)
        try:
            selector.validate()
        except CampaignError as error:
            raise CampaignError(f"{where}: {error}") from None
        if total < 0:
            raise CampaignError(
                f"{where}: shard field 'total_runs' must be >= 0, got {total}")
        start, stop = selector._bounds(total)
        # Lengths first: a damaged total must not materialise a huge range.
        if len(claimed) != stop - start or claimed != tuple(range(start, stop)):
            raise CampaignError(
                f"{where}: shard field 'run_indices' is not what shard "
                f"{selector.label} owns of {total} runs")
        return selector, total, claimed


def all_shards(count: int) -> List[ShardSelector]:
    """Selectors for every shard of a K-way partition (validated)."""
    shards = [ShardSelector(index, count) for index in range(1, count + 1)]
    for shard in shards:
        shard.validate()
    return shards


# ----------------------------------------------------------- shard manifests
def write_shard_manifests(
    spec: CampaignSpec,
    directory: Union[str, Path],
    count: int,
) -> List[Tuple[Path, ShardSelector, int]]:
    """Emit one dispatchable shard-manifest JSON file per shard.

    Each file is self-contained — the full campaign spec plus the shard
    block — so ``repro-campaign run <file> --out DIR`` on any box executes
    exactly that partition.  Returns ``(path, selector, runs)`` per shard.
    """
    manifests = spec.expand()
    total = len(manifests)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Tuple[Path, ShardSelector, int]] = []
    for shard in all_shards(count):
        payload = {
            "spec": spec.as_dict(),
            "shard": shard.manifest_block(total),
        }
        path = directory / f"{shard.file_stem()}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        written.append((path, shard, len(shard.run_indices(total))))
    return written


def load_spec_or_shard(
    path: Union[str, Path],
) -> Tuple[CampaignSpec, Optional[ShardSelector]]:
    """Read either a plain campaign spec or a shard-manifest file.

    A shard manifest (written by :func:`write_shard_manifests`) is the
    ``{"spec": ..., "shard": ...}`` envelope; anything else is parsed as a
    bare :class:`CampaignSpec`, returning ``(spec, None)``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise CampaignError(f"cannot read campaign spec {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise CampaignError(
            f"campaign spec {path} is not valid JSON: {error}") from error
    if not isinstance(data, dict):
        raise CampaignError(f"campaign spec {path} must be a JSON object")
    if "spec" in data and "shard" in data:
        spec = CampaignSpec.from_dict(data["spec"])
        where = f"shard manifest {path}"
        shard, total, _claimed = ShardSelector.from_block(data["shard"], where)
        if total != spec.grid_size():
            raise CampaignError(
                f"{where}: shard field 'total_runs' is {total} but the spec "
                f"expands to {spec.grid_size()} runs")
        return spec, shard
    return CampaignSpec.from_dict(data), None
