from __future__ import annotations

import json
import random

import pytest

from edxmine.manifest import (
    Block,
    BlockKind,
    BlockPosition,
    Chapter,
    CourseManifest,
    ManifestError,
    Section,
    SubModule,
    content_counts,
    load_manifest,
    manifest_to_dict,
    parse_manifest,
)
from conftest import random_manifest


class TestContentCounts:
    def test_reference_course_rows_and_totals(self, content_table_manifest):
        counts = content_counts(content_table_manifest)
        name, fundamentals = counts.per_submodule[0]
        assert name == "Fundamentals"
        assert fundamentals[BlockKind.VIDEO] == 160
        assert fundamentals[BlockKind.UNGRADED_EXERCISE] == 56
        assert fundamentals[BlockKind.CODING_EXERCISE] == 54
        assert fundamentals[BlockKind.GRADED_PROBLEM] == 67
        # Totals are the column sums of the four rows.
        assert counts.total(BlockKind.VIDEO) == 442
        assert counts.total(BlockKind.UNGRADED_EXERCISE) == 216
        assert counts.total(BlockKind.CODING_EXERCISE) == 235
        assert counts.total(BlockKind.GRADED_PROBLEM) == 295
        for kind in BlockKind:
            assert counts.total(kind) == sum(row[kind] for _, row in counts.per_submodule)

    def test_empty_manifest(self):
        manifest = CourseManifest(course_id="c", course_start=None, submodules=())
        counts = content_counts(manifest)
        assert counts.per_submodule == ()
        assert all(v == 0 for v in counts.totals.values())

    def test_counts_match_traversal(self):
        rng = random.Random(7)
        for _ in range(25):
            manifest = random_manifest(rng)
            counts = content_counts(manifest)
            for kind in BlockKind:
                expected = sum(1 for _, b in manifest.iter_blocks() if b.kind is kind)
                assert counts.total(kind) == expected

    def test_counts_invariant_under_section_reordering(self):
        rng = random.Random(11)
        manifest = random_manifest(rng)
        reordered = CourseManifest(
            course_id=manifest.course_id,
            course_start=None,
            submodules=tuple(
                SubModule(
                    name=sub.name,
                    chapters=tuple(
                        Chapter(name=ch.name, sections=tuple(reversed(ch.sections)))
                        for ch in reversed(sub.chapters)
                    ),
                )
                for sub in manifest.submodules
            ),
        )
        assert content_counts(manifest).totals == content_counts(reordered).totals


class TestLocateBlock:
    def test_first_block(self):
        manifest = CourseManifest(
            course_id="c",
            course_start=None,
            submodules=(
                SubModule(
                    name="m",
                    chapters=(
                        Chapter(
                            name="c",
                            sections=(Section(name="s", blocks=(Block("b0", BlockKind.VIDEO),)),),
                        ),
                    ),
                ),
            ),
        )
        assert manifest.locate("b0") == BlockPosition(0, 0, 0, 0)

    def test_unknown_id(self, content_table_manifest):
        assert content_table_manifest.locate("nope") is None

    def test_locate_agrees_with_traversal(self):
        rng = random.Random(23)
        for _ in range(25):
            manifest = random_manifest(rng)
            for pos, block in manifest.iter_blocks():
                assert manifest.locate(block.block_id) == pos

    def test_duplicate_id_rejected(self):
        blocks = (Block("dup", BlockKind.VIDEO), Block("dup", BlockKind.TEXT))
        with pytest.raises(ManifestError, match="duplicate"):
            CourseManifest(
                course_id="c",
                course_start=None,
                submodules=(
                    SubModule(
                        name="m",
                        chapters=(
                            Chapter(name="c", sections=(Section(name="s", blocks=blocks),)),
                        ),
                    ),
                ),
            )


class TestLoadManifest:
    def _doc(self):
        return {
            "course_id": "course-v1:X+Y+Z",
            "course_start": "2021-08-23",
            "submodules": [
                {
                    "name": "m1",
                    "chapters": [
                        {
                            "name": "ch1",
                            "sections": [
                                {
                                    "name": "s1",
                                    "blocks": [
                                        {"block_id": "v1", "kind": "video"},
                                        {"block_id": "p1", "kind": "graded_problem"},
                                    ],
                                }
                            ],
                        }
                    ],
                }
            ],
        }

    def test_load(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(self._doc()))
        manifest = load_manifest(path)
        assert manifest.course_id == "course-v1:X+Y+Z"
        assert manifest.course_start.isoformat() == "2021-08-23"
        assert manifest.locate("p1") == BlockPosition(0, 0, 0, 1)

    def test_unknown_kind(self, tmp_path):
        doc = self._doc()
        doc["submodules"][0]["chapters"][0]["sections"][0]["blocks"][0]["kind"] = "quiz"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="unknown kind"):
            load_manifest(path)

    def test_missing_block_id(self):
        doc = self._doc()
        del doc["submodules"][0]["chapters"][0]["sections"][0]["blocks"][0]["block_id"]
        with pytest.raises(ManifestError, match="block_id"):
            parse_manifest(doc)

    def test_duplicate_in_file(self, tmp_path):
        doc = self._doc()
        doc["submodules"][0]["chapters"][0]["sections"][0]["blocks"][1]["block_id"] = "v1"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{nope")
        with pytest.raises(ManifestError, match="invalid JSON"):
            load_manifest(path)

    def test_empty_submodules_valid(self):
        manifest = parse_manifest({"course_id": "c", "submodules": []})
        assert content_counts(manifest).totals[BlockKind.VIDEO] == 0

    def test_round_trip(self):
        manifest = parse_manifest(self._doc())
        again = parse_manifest(manifest_to_dict(manifest))
        assert again.submodules == manifest.submodules
        assert again.course_start == manifest.course_start

    def test_section_has_video(self):
        manifest = parse_manifest(self._doc())
        assert manifest.section_has_video((0, 0, 0))
        assert manifest.section_of("p1") == (0, 0, 0)
