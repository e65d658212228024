"""Benchmark workloads: their definitions, input generation and fingerprints.

Every input is generated from fixed workload seeds with ``edxmine.synth``
(plus, for ``noisy-gz``, a seeded noise and re-encoding pass written here).
The sha256 of every generated file is recorded in README.md; a run stops
with an error when a generated file differs, because a change to synth's
output changes the workload itself.

Regenerate the fingerprints after a deliberate change to the inputs:

    python3 perfbench/workloads.py --write-fingerprints
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = Path(__file__).resolve().parent / "README.md"
WORK_DIR = ROOT / ".perfbench_work"

ON_CAMPUS = "on_campus:Fall 2021"
ONLINE = "online:2021"
TERM_START = date(2021, 8, 23)
CAMPUS_COURSE = "course-v1:SYN+CS1301+Fall2021"
MOOC_COURSE = "course-v1:SYN+CS1301+MOOC2021"

# Reject categories of noisy-gz, in the order their lines are drawn.
MALFORMED_KINDS = (
    "invalid_json",
    "invalid_utf8",
    "not_object",
    "missing_user",
    "missing_course",
    "missing_timestamp",
)
FILTERED_KINDS = ("other_event_type", "server_source")
OTHER_EVENT_NAMES = (
    "page_close",
    "seq_goto",
    "seq_next",
    "edx.ui.lms.outline.selected",
    "edx.forum.thread.created",
    "textbook.pdf.page.scrolled",
    "Play_Video",
    "problem_reset",
)


@dataclass(frozen=True)
class Corpus:
    """One synth corpus, written as ``<stem>.log`` plus ``<stem>.labels.csv``."""

    stem: str
    seed: int
    users_per_class: int
    pacing: str
    weeks: int
    term_start: date
    course_id: str
    cohort: str


@dataclass(frozen=True)
class Mining:
    per_user: bool = False
    split_check_outcome: bool = False
    min_support: float = 0.05
    max_len: int = 6

    def args(self) -> list[str]:
        out = ["--per-user" if self.per_user else "--per-session"]
        if self.split_check_outcome:
            out.append("--split-check-outcome")
        return out + ["--min-support", repr(self.min_support), "--max-len", str(self.max_len)]


@dataclass(frozen=True)
class Workload:
    name: str
    corpora: tuple[Corpus, ...]
    cohorts: tuple[dict, ...]
    anchors: dict  # cohort label -> the weekly anchor the README's rules give
    mining: Mining
    noise_per_kind: int = 0  # > 0: the corpus is hidden among rejects in one .gz
    noise_seed: int = 0

    @property
    def log_files(self) -> list[str]:
        if self.noise_per_kind:
            return ["noisy.log.gz"]
        return [f"{c.stem}.log" for c in self.corpora]

    def scaled(self, users_per_class: int, noise_per_kind: int, mining: Mining) -> "Workload":
        """A smaller copy of this workload, for the tests of the checks."""
        return replace(
            self,
            corpora=tuple(replace(c, users_per_class=users_per_class) for c in self.corpora),
            noise_per_kind=noise_per_kind if self.noise_per_kind else 0,
            mining=mining,
        )


def _spread(stem: str, seed: int, users_per_class: int) -> Corpus:
    return Corpus(stem, seed, users_per_class, "spread", 15, TERM_START, CAMPUS_COURSE, ON_CAMPUS)


def _workloads() -> dict[str, Workload]:
    campus_only = ({"pattern": ".*", "modality": "on_campus", "term": "Fall 2021"},)
    wls = [
        Workload(
            name="campus-vs-mooc",
            corpora=(
                _spread("campus", 1301, 125),
                Corpus("mooc", 1302, 125, "compressed", 52, date(2021, 1, 1),
                       MOOC_COURSE, ONLINE),
            ),
            cohorts=({"pattern": "MOOC", "modality": "online", "term": "2021"},) + campus_only,
            anchors={ON_CAMPUS: TERM_START, ONLINE: date(2021, 1, 1)},
            mining=Mining(),
        ),
        Workload(
            name="per-user-mining",
            corpora=(_spread("users", 1303, 50),),
            cohorts=campus_only,
            anchors={ON_CAMPUS: TERM_START},
            mining=Mining(per_user=True, split_check_outcome=True, min_support=0.3, max_len=5),
        ),
        Workload(
            name="noisy-gz",
            corpora=(_spread("clean", 1304, 50),),
            cohorts=campus_only,
            anchors={ON_CAMPUS: TERM_START},
            mining=Mining(),
            noise_per_kind=13000,
            noise_seed=1304,
        ),
    ]
    return {w.name: w for w in wls}


# -- generation ----------------------------------------------------------------

def _write_corpus(corpus: Corpus, out_dir: Path) -> None:
    import_program()
    from edxmine.synth import default_corpus_spec, generate_corpus

    spec = default_corpus_spec(
        users_per_class=corpus.users_per_class,
        seed=corpus.seed,
        pacing=corpus.pacing,
        weeks=corpus.weeks,
        term_start=corpus.term_start,
        course_id=corpus.course_id,
    )
    generated = generate_corpus(spec)
    with open(out_dir / f"{corpus.stem}.log", "w", encoding="utf-8") as handle:
        for line in generated.lines:
            handle.write(line + "\n")
    with open(out_dir / f"{corpus.stem}.labels.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["user_id", "class"])
        writer.writerows(generated.labels)


def _reencode(obj: dict, rng: random.Random) -> dict:
    """Rewrite a retained record, in place, in encodings the parser must
    treat as equal to the original."""
    if rng.random() < 0.5:
        del obj["event_type"]  # "name" alone carries the type
    if rng.random() < 0.5:
        for key in ("duration", "currentTime", "grade", "max_grade"):
            if isinstance(obj["event"].get(key), float):
                obj["event"][key] = repr(obj["event"][key])
    if rng.random() < 0.5:
        obj["event"] = json.dumps(obj["event"], separators=(",", ":"))
    if rng.random() < 0.5:
        context = obj.pop("context")
        obj.update(context)  # top-level user_id, course_id, org_id
    if rng.random() < 0.5:
        obj["time"] = obj["time"][:-1] + "+00:00"
    return obj


def _reject(kind: str, obj: dict, line: str, rng: random.Random) -> bytes:
    """One line that the parser must count under ``kind``; ``obj`` is
    ``line`` decoded, and is changed in place."""
    if kind == "invalid_json":
        return line[: rng.randint(1, len(line) - 2)].encode()
    if kind == "invalid_utf8":
        return line.encode().replace(b'"session":"', b'"session":"\xc3\x28', 1)
    if kind == "not_object":
        return json.dumps(rng.choice([[obj["name"], obj["time"]], obj["name"], rng.randint(0, 9999), None])).encode()
    if kind == "missing_user":
        del obj["context"]["user_id"]
    elif kind == "missing_course":
        del obj["context"]["course_id"]
    elif kind == "missing_timestamp":
        if rng.random() < 0.5:
            del obj["time"]
        else:
            obj["time"] = "week " + obj["time"][:10]
    elif kind == "other_event_type":
        obj["name"] = obj["event_type"] = rng.choice(OTHER_EVENT_NAMES)
    elif kind == "server_source":
        obj["event_source"] = "server"
    else:
        raise ValueError(kind)
    return json.dumps(obj, separators=(",", ":")).encode()


def _write_noisy(wl: Workload, out_dir: Path) -> None:
    """Hide the clean corpus among rejects, re-encode it, and gzip the result."""
    rng = random.Random(wl.noise_seed)
    clean = (out_dir / f"{wl.corpora[0].stem}.log").read_text(encoding="utf-8").splitlines()
    rejects = []
    for kind in MALFORMED_KINDS + FILTERED_KINDS:
        for _ in range(wl.noise_per_kind):
            line = rng.choice(clean)
            rejects.append(_reject(kind, json.loads(line), line, rng))
    rng.shuffle(rejects)
    retained = [
        json.dumps(_reencode(json.loads(line), rng), separators=(",", ":")).encode()
        for line in clean
    ]
    # Interleave: retained lines keep their order, rejects land between them.
    slots = sorted(rng.randrange(len(retained) + 1) for _ in rejects)
    out, r = [], 0
    for i, line in enumerate(retained + [None]):
        while r < len(slots) and slots[r] == i:
            out.append(rejects[r])
            r += 1
        if line is not None:
            out.append(line)
    with open(out_dir / "noisy.log.gz", "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as handle:
            handle.write(b"\n".join(out) + b"\n")


def generate(wl: Workload, out_dir: Path) -> None:
    """Write every input of ``wl`` into ``out_dir``."""
    import_program()
    from edxmine.manifest import manifest_to_dict
    from edxmine.synth import default_manifest

    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = default_manifest(course_id=wl.corpora[0].course_id, course_start=TERM_START)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest_to_dict(manifest), indent=1) + "\n", encoding="utf-8"
    )
    run_config = {"manifest": "manifest.json", "cohorts": list(wl.cohorts)}
    (out_dir / "run.json").write_text(json.dumps(run_config, indent=1) + "\n", encoding="utf-8")
    for corpus in wl.corpora:
        _write_corpus(corpus, out_dir)
    if wl.noise_per_kind:
        _write_noisy(wl, out_dir)


def input_files(wl: Workload) -> list[str]:
    names = ["manifest.json", "run.json"]
    for c in wl.corpora:
        names += [f"{c.stem}.log", f"{c.stem}.labels.csv"]
    if wl.noise_per_kind:
        names.append("noisy.log.gz")
    return names


# -- fingerprints ----------------------------------------------------------------

_FP_BEGIN = "<!-- fingerprints:begin -->"
_FP_END = "<!-- fingerprints:end -->"
_FP_LINE = re.compile(r"^([0-9a-f]{64})  (\S+)$")


def file_sha256(path: Path) -> str:
    """sha256 of a file; of its decompressed bytes for ``.gz``, so that another
    zlib build does not count as another workload."""
    digest = hashlib.sha256()
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def recorded_fingerprints() -> dict[str, str]:
    """``<workload>/<file>`` -> sha256, as recorded in README.md."""
    text = README.read_text(encoding="utf-8")
    block = text.split(_FP_BEGIN, 1)[1].split(_FP_END, 1)[0]
    out = {}
    for line in block.splitlines():
        match = _FP_LINE.match(line.strip())
        if match:
            out[match.group(2)] = match.group(1)
    return out


class FingerprintError(Exception):
    """A generated input differs from the one recorded in README.md."""


def ensure_inputs(wl: Workload, work: Path) -> Path:
    """Make ``wl``'s inputs under ``work`` and check them against README.md.

    Inputs left by an earlier run are reused when their fingerprints match;
    otherwise they are generated again, and a mismatch after that is an error.
    """
    inputs = work / "inputs"
    recorded = recorded_fingerprints()

    def mismatches() -> list[str]:
        bad = []
        for name in input_files(wl):
            path = inputs / name
            key = f"{wl.name}/{name}"
            if not path.is_file() or recorded.get(key) != file_sha256(path):
                bad.append(key)
        return bad

    if mismatches():
        generate(wl, inputs)
        bad = mismatches()
        if bad:
            raise FingerprintError(
                "generated inputs differ from the fingerprints in perfbench/README.md: "
                + ", ".join(bad)
            )
    return inputs


def write_fingerprints() -> None:
    """Generate every workload's inputs and record their sha256 in README.md."""
    lines = []
    for wl in WORKLOADS.values():
        inputs = WORK_DIR / wl.name / "inputs"
        generate(wl, inputs)
        for name in input_files(wl):
            lines.append(f"{file_sha256(inputs / name)}  {wl.name}/{name}")
    text = README.read_text(encoding="utf-8")
    head, rest = text.split(_FP_BEGIN, 1)
    tail = rest.split(_FP_END, 1)[1]
    block = "\n```\n" + "\n".join(lines) + "\n```\n"
    README.write_text(head + _FP_BEGIN + block + _FP_END + tail, encoding="utf-8")
    print("\n".join(lines))


class MissingProgramError(Exception):
    """The checkout holds no edxmine sources to benchmark."""


def import_program() -> None:
    """Make the checkout's ``src/edxmine`` importable, or raise."""
    src = ROOT / "src"
    if not (src / "edxmine" / "cli.py").is_file():
        raise MissingProgramError(f"no edxmine sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


WORKLOADS = _workloads()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-fingerprints", action="store_true", required=True,
                        help="generate all inputs and rewrite the README fingerprints")
    parser.parse_args()
    write_fingerprints()
