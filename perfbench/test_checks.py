"""Tests of the benchmark's output checks, on small copies of each workload.

    python3 -m pytest perfbench/test_checks.py

Each check must pass on the program's real output and fail on a deliberately
damaged copy of it, so that no check passes vacuously.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from pathlib import Path

import pytest

import checks
import run
import spans
from workloads import ROOT, WORKLOADS, Mining, generate, import_program

SMALL = {
    "campus-vs-mooc": Mining(min_support=0.3, max_len=4),
    "per-user-mining": Mining(per_user=True, split_check_outcome=True, min_support=0.6, max_len=3),
    "noisy-gz": Mining(min_support=0.3, max_len=4),
}


def _edxmine(*args: str) -> str:
    import_program()
    from edxmine.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(list(args)) == 0
    return stdout.getvalue()


class Small:
    """A small copy of one workload, its outputs and its reference."""

    def __init__(self, name: str, base: Path):
        self.wl = WORKLOADS[name].scaled(users_per_class=3, noise_per_kind=25, mining=SMALL[name])
        self.inputs = base / "inputs"
        generate(self.wl, self.inputs)
        logs = [str(self.inputs / f) for f in self.wl.log_files]
        config = ["--run-config", str(self.inputs / "run.json")]
        self.out = base / "out"
        self.validate_stdout = _edxmine("validate", *logs)
        _edxmine("pipeline", *logs, *config, "--out", str(self.out))
        _edxmine("mine", *logs, *config, "--out", str(self.out), *self.wl.mining.args())
        self.clean_out = None
        if self.wl.noise_per_kind:
            self.clean_out = base / "clean_out"
            clean = str(self.inputs / f"{self.wl.corpora[0].stem}.log")
            _edxmine("pipeline", clean, *config, "--out", str(self.clean_out))
        self.ref = checks.Reference(self.wl, self.inputs)

    def damaged(self, tmp_path: Path) -> Path:
        copy = tmp_path / "out"
        shutil.copytree(self.out, copy)
        return copy

    def pipeline_problems(self, out: Path) -> list[str]:
        return checks.check_pipeline(out, self.ref, random.Random(0), self.clean_out)

    def mine_problems(self, out: Path) -> list[str]:
        return checks.check_mine(out, self.ref, random.Random(0))


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def small(request, tmp_path_factory):
    return Small(request.param, tmp_path_factory.mktemp(request.param))


@pytest.fixture
def full_samples(monkeypatch):
    """Recount every pattern and student, so a damaged row is always seen."""
    monkeypatch.setattr(checks, "PATTERN_SAMPLE", 10**9)
    monkeypatch.setattr(checks, "AGGREGATE_SAMPLE", 10**9)


def _rewrite_csv_row(path: Path, match, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    index = next(i for i, line in enumerate(lines) if i > 0 and match(line))
    lines[index] = change(lines[index])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_checks_pass_on_real_output(small):
    assert checks.check_validate(small.validate_stdout, small.ref) == []
    assert small.pipeline_problems(small.out) == []
    assert small.mine_problems(small.out) == []


def test_validate_tally_off_by_one(small):
    total = small.ref.total["lines_read"]
    damaged = small.validate_stdout.replace(f"TOTAL: lines_read={total} ", f"TOTAL: lines_read={total + 1} ")
    assert damaged != small.validate_stdout
    assert checks.check_validate(damaged, small.ref)


def test_one_class_flipped(small, tmp_path):
    out = small.damaged(tmp_path)

    def flip(line):
        cls = line.rsplit(",", 1)[1]
        return line.rsplit(",", 1)[0] + ("," + ("at_risk" if cls != "at_risk" else "studier"))

    _rewrite_csv_row(out / "classifications.csv", lambda line: True, flip)
    problems = small.pipeline_problems(out)
    assert any(p.startswith("classifications:") for p in problems), problems


def test_nan_in_aggregates(small, tmp_path):
    out = small.damaged(tmp_path)
    path = out / "aggregates.jsonl"
    rows = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(rows[0])
    rows[0] = json.dumps(dict(row, mean_first_score=float("nan")), separators=(",", ":"))
    assert "NaN" in rows[0]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    problems = small.pipeline_problems(out)
    assert any("aggregates.jsonl" in p and "non-finite" in p for p in problems), problems


def test_aggregate_value_off(small, tmp_path, full_samples):
    out = small.damaged(tmp_path)
    path = out / "aggregates.jsonl"
    rows = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(rows[-1])
    rows[-1] = json.dumps(dict(row, total_attempts=row["total_attempts"] + 1), separators=(",", ":"))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    problems = small.pipeline_problems(out)
    assert any(p.startswith("aggregates:") and "total_attempts" in p for p in problems), problems


def test_weekly_count_off(small, tmp_path):
    out = small.damaged(tmp_path)

    def bump(line):
        cells = line.split(",")
        cells[-1] = str(int(cells[-1]) + 1)
        return ",".join(cells)

    _rewrite_csv_row(out / "weekly.csv", lambda line: True, bump)
    assert any(p.startswith("weekly:") for p in small.pipeline_problems(out))


def test_pattern_support_off_by_one(small, tmp_path, full_samples):
    out = small.damaged(tmp_path)
    cls = small.ref.labels[sorted(small.ref.labels)[0]]
    path = out / f"patterns_{cls}.csv"
    n = len(small.ref.sequences()[cls])

    def off_by_one(line):
        pattern, count, _, name = line.split(",")
        # Keep relative_support consistent, so only the recount can notice.
        return f"{pattern},{int(count) + 1},{(int(count) + 1) / n!r},{name}"

    _rewrite_csv_row(path, lambda line: ">" in line, off_by_one)
    problems = small.mine_problems(out)
    assert any("counted" in p for p in problems), problems


def test_frequent_pattern_missing(small, tmp_path):
    out = small.damaged(tmp_path)
    cls = small.ref.labels[sorted(small.ref.labels)[0]]
    path = out / f"patterns_{cls}.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:1] + lines[2:]) + "\n", encoding="utf-8")
    problems = small.mine_problems(out)
    assert any("missing" in p for p in problems), problems


def test_noisy_output_must_match_clean(tmp_path):
    small = Small("noisy-gz", tmp_path / "small")
    out = small.damaged(tmp_path)
    path = out / "classifications.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 1))
    problems = small.pipeline_problems(out)
    assert any("differs from the output for the clean corpus" in p for p in problems), problems


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.LAYER_METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
