"""Course content tree: sub-modules, chapters, sections, and typed blocks.

The manifest is a declarative JSON file supplied alongside the logs. Events
join against it by exact block-id equality; events whose ids are absent from
the manifest are still analyzed, the manifest only adds position information.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .events import parse_date


class InputError(Exception):
    """Anticipated bad input (configs, specs, paths, names); exit code 2."""


class ManifestError(InputError, ValueError):
    """Raised for structurally invalid manifest documents."""


def read_json(path: Union[str, Path], error: Callable[[str], Exception]):
    """The value of the UTF-8 JSON config file at ``path``. Text that is not
    JSON, nests deeper than the decoder's stack allows, or holds a string
    with a lone surrogate, which no output file can encode, raises ``error``
    with a message naming the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except (ValueError, RecursionError) as exc:  # ValueError includes the Unicode errors
            raise error(f"{path}: invalid JSON ({exc})")
    return obj


class BlockKind(enum.Enum):
    VIDEO = "video"
    GRADED_PROBLEM = "graded_problem"
    UNGRADED_EXERCISE = "ungraded_exercise"
    CODING_EXERCISE = "coding_exercise"
    TEXT = "text"


@dataclass(frozen=True)
class Block:
    block_id: str
    kind: BlockKind


@dataclass(frozen=True)
class Section:
    name: str
    blocks: tuple[Block, ...]


@dataclass(frozen=True)
class Chapter:
    name: str
    sections: tuple[Section, ...]


@dataclass(frozen=True)
class SubModule:
    name: str
    chapters: tuple[Chapter, ...]


class BlockPosition(NamedTuple):
    submodule: int
    chapter: int
    section: int
    block: int

    @property
    def section_key(self) -> tuple[int, int, int]:
        return (self.submodule, self.chapter, self.section)


@dataclass
class CourseManifest:
    """Immutable after construction; the block index is built eagerly."""

    course_id: str
    course_start: Optional[date]
    submodules: tuple[SubModule, ...]
    _positions: dict = field(init=False, repr=False, compare=False)
    _video_sections: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        positions: dict[str, BlockPosition] = {}
        video_sections = set()
        for pos, block in _walk(self.submodules):
            if block.block_id in positions:
                raise ManifestError(f"duplicate block_id: {block.block_id!r}")
            positions[block.block_id] = pos
            if block.kind is BlockKind.VIDEO:
                video_sections.add(pos.section_key)
        self._positions = positions
        self._video_sections = frozenset(video_sections)

    def locate(self, block_id: str) -> Optional[BlockPosition]:
        """Position of a block in the tree, or ``None`` when unknown."""
        return self._positions.get(block_id)

    def section_of(self, block_id: str) -> Optional[tuple[int, int, int]]:
        pos = self._positions.get(block_id)
        return pos.section_key if pos is not None else None

    def section_has_video(self, section_key: tuple[int, int, int]) -> bool:
        return section_key in self._video_sections

    def iter_blocks(self) -> Iterator[tuple[BlockPosition, Block]]:
        return _walk(self.submodules)


def _walk(submodules) -> Iterator[tuple[BlockPosition, Block]]:
    for si, sub in enumerate(submodules):
        for ci, chapter in enumerate(sub.chapters):
            for ei, section in enumerate(chapter.sections):
                for bi, block in enumerate(section.blocks):
                    yield BlockPosition(si, ci, ei, bi), block


@dataclass(frozen=True)
class ContentCounts:
    """Per-submodule and total block counts by kind."""

    per_submodule: tuple[tuple[str, dict], ...]
    totals: dict

    def total(self, kind: BlockKind) -> int:
        return self.totals[kind]


def content_counts(manifest: CourseManifest) -> ContentCounts:
    totals = {kind: 0 for kind in BlockKind}
    rows = []
    for sub in manifest.submodules:
        counts = {kind: 0 for kind in BlockKind}
        for chapter in sub.chapters:
            for section in chapter.sections:
                for block in section.blocks:
                    counts[block.kind] += 1
                    totals[block.kind] += 1
        rows.append((sub.name, counts))
    return ContentCounts(per_submodule=tuple(rows), totals=totals)


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ManifestError(f"{path}: missing {key!r}")
    return obj[key]


def _parse_block(obj: dict, path: str) -> Block:
    block_id = _require(obj, "block_id", path)
    if not isinstance(block_id, str) or not block_id:
        raise ManifestError(f"{path}: block_id must be a non-empty string")
    kind_raw = _require(obj, "kind", path)
    try:
        kind = BlockKind(kind_raw)
    except ValueError:
        valid = ", ".join(k.value for k in BlockKind)
        raise ManifestError(f"{path}: unknown kind {kind_raw!r} (valid: {valid})")
    return Block(block_id=block_id, kind=kind)


def _objects(obj: dict, key: str, prefix: str) -> Iterator[tuple[str, dict]]:
    """Each item of the list ``obj[key]`` (absent is empty) with its path,
    ``prefix`` then ``key[i]``. Every item must be an object."""
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise ManifestError(f"{prefix}{key} must be a list")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ManifestError(f"{prefix}{key}[{i}]: must be an object")
        yield f"{prefix}{key}[{i}]", item


def parse_manifest(obj: dict) -> CourseManifest:
    """Build a validated manifest from a decoded JSON document."""
    if not isinstance(obj, dict):
        raise ManifestError("manifest must be a JSON object")
    course_id = obj.get("course_id", "")
    if not isinstance(course_id, str):
        raise ManifestError("course_id must be a string")
    course_start = None
    if obj.get("course_start") is not None:
        try:
            course_start = parse_date(obj["course_start"])
        except (TypeError, ValueError):
            raise ManifestError(f"bad course_start: {obj.get('course_start')!r}")

    submodules = []
    for spath, sub in _objects(obj, "submodules", ""):
        chapters = []
        for cpath, chapter in _objects(sub, "chapters", spath + "."):
            sections = []
            for epath, section in _objects(chapter, "sections", cpath + "."):
                blocks = tuple(
                    _parse_block(b, bpath) for bpath, b in _objects(section, "blocks", epath + ".")
                )
                sections.append(Section(name=str(section.get("name", "")), blocks=blocks))
            chapters.append(Chapter(name=str(chapter.get("name", "")), sections=tuple(sections)))
        submodules.append(SubModule(name=str(sub.get("name", "")), chapters=tuple(chapters)))

    return CourseManifest(
        course_id=course_id, course_start=course_start, submodules=tuple(submodules)
    )


def load_manifest(path: Union[str, Path]) -> CourseManifest:
    """Load and validate a manifest JSON file; every error names the file."""
    obj = read_json(path, ManifestError)
    try:
        return parse_manifest(obj)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def manifest_to_dict(manifest: CourseManifest) -> dict:
    """Inverse of :func:`parse_manifest`, for writing manifests back out."""
    return {
        "course_id": manifest.course_id,
        "course_start": manifest.course_start.isoformat() if manifest.course_start else None,
        "submodules": [
            {
                "name": sub.name,
                "chapters": [
                    {
                        "name": chapter.name,
                        "sections": [
                            {
                                "name": section.name,
                                "blocks": [
                                    {"block_id": b.block_id, "kind": b.kind.value}
                                    for b in section.blocks
                                ],
                            }
                            for section in chapter.sections
                        ],
                    }
                    for chapter in sub.chapters
                ],
            }
            for sub in manifest.submodules
        ],
    }
