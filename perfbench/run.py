"""Benchmark of the batch job a researcher runs: edxmine validate, pipeline, mine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Each round runs the three commands on the workload's inputs, one at a time,
each in a fresh interpreter timed after import (child.py), and checks every
output outside the timed part (checks.py). Rounds repeat until ``--seconds``
have passed; each metric is the median over the run's rounds. The last line
of stdout is one JSON object: ``correct``, ``attempted`` and ``failed``
(command runs) and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run (spans.py) with ``--trace 1``.

The workload's inputs are fixed by its own seeds (workloads.py); ``--seed``
chooses which students, patterns and prefixes the checks recompute.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import checks
import spans
from workloads import (
    ROOT,
    WORK_DIR,
    WORKLOADS,
    FingerprintError,
    MissingProgramError,
    Workload,
    ensure_inputs,
    import_program,
)

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9  # fresh interpreters per round that only import and load the config
VALIDATE_REPEATS = 3  # validate is the shortest command; its median needs more samples
CHILD_TIMEOUT_S = 170
END_TO_END_UNITS = {
    "setup_s": "s",
    "lines_per_s": "lines/s",
    "pipeline_s": "s",
    "mine_s": "s",
    "pipeline_rss_mb": "MB",
    "mine_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not proceed."""


class Runner:
    """Runs the commands of one workload in fresh interpreters and checks them."""

    def __init__(self, wl: Workload, work: Path, trace: bool):
        self.wl = wl
        self.work = work
        self.mode = "trace" if trace else "plain"
        self.report = work / "child_report.json"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
        self.logs = [f"inputs/{name}" for name in wl.log_files]
        self.config = ["--run-config", "inputs/run.json"]

    def _child(self, args: list[str]) -> tuple[dict | None, str]:
        self.report.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=self.work, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not self.report.is_file():
            return None, proc.stdout + proc.stderr
        return json.loads(self.report.read_text(encoding="utf-8")), proc.stdout

    def setup(self) -> dict:
        result, output = self._child(["setup", str(self.report), "inputs/run.json"])
        if result is None:
            raise BenchError(f"setup probe failed:\n{output}")
        return result

    def command(self, *args: str) -> tuple[dict | None, str]:
        """Run ``edxmine ARGS``; None when it did not exit 0."""
        result, output = self._child(["cli", str(self.report), self.mode, *args])
        if result is not None and result["rc"] != 0:
            return None, output
        return result, output

    def pipeline(self, out: str, logs: list[str] | None = None) -> tuple[dict | None, str]:
        shutil.rmtree(self.work / out, ignore_errors=True)
        return self.command("pipeline", *(logs or self.logs), *self.config, "--out", out)


def run_round(runner: Runner, ref: checks.Reference, rng: random.Random, clean_out) -> dict:
    """One round: setup probes, then validate (repeated), pipeline and mine,
    each command checked as soon as it ends."""
    wl = runner.wl
    setups = [runner.setup() for _ in range(SETUP_PROBES)]
    out = runner.work / "out"
    steps = [
        ("validate", lambda: runner.command("validate", *runner.logs),
         lambda stdout: checks.check_validate(stdout, ref)),
    ] * VALIDATE_REPEATS + [
        ("pipeline", lambda: runner.pipeline("out"),
         lambda _: checks.check_pipeline(out, ref, rng, clean_out)),
        ("mine", lambda: runner.command("mine", *runner.logs, *runner.config, "--out", "out",
                                        *wl.mining.args()),
         lambda _: checks.check_mine(out, ref, rng)),
    ]
    results: dict[str, list[dict]] = {}
    failed, wrong = 0, False
    for name, step, check in steps:
        result, stdout = step()
        if result is None:
            print(f"{name} failed:\n{stdout}", file=sys.stderr)
            failed += 1
            continue
        problems = check(stdout)
        if problems:
            print(f"{name}: {len(problems)} check(s) failed", file=sys.stderr)
            for problem in problems[:20]:
                print(f"  {problem}", file=sys.stderr)
            failed += 1
            wrong = True
            continue
        results.setdefault(name, []).append(result)
    return {"setups": setups, "results": results, "attempted": len(steps),
            "failed": failed, "wrong": wrong}


def end_to_end(rounds: list[dict], lines_read: int) -> dict[str, float]:
    def median_of(step, key):
        values = [res[key] for r in rounds for res in r["results"].get(step, [])]
        return statistics.median(values) if values else None

    setup = [s["import_s"] + s["load_config_s"] for r in rounds for s in r["setups"]]
    validate_s = median_of("validate", "cpu_s")
    metrics = {
        "setup_s": statistics.median(setup),
        "lines_per_s": lines_read / validate_s if validate_s else None,
        "pipeline_s": median_of("pipeline", "cpu_s"),
        "mine_s": median_of("mine", "cpu_s"),
        "pipeline_rss_mb": median_of("pipeline", "rss_mb"),
        "mine_rss_mb": median_of("mine", "rss_mb"),
    }
    return {k: v for k, v in metrics.items() if v is not None}


def per_layer(rounds: list[dict]) -> tuple[dict[str, float], set[str]]:
    """Medians over rounds; each round's layers come from its first validate,
    its pipeline and its mine."""
    samples: dict[str, list[float]] = {}
    absent: set[str] = set()
    for r in rounds:
        setups = r["setups"]
        values = {
            "setup.import_s": statistics.median(s["import_s"] for s in setups),
            "setup.load_config_s": statistics.median(s["load_config_s"] for s in setups),
        }
        firsts = [results[0] for results in r["results"].values()]
        for step, results in r["results"].items():
            values[f"cli.{step}_s"] = statistics.median(res["cpu_s"] for res in results)
        layer_values, layer_absent = spans.round_metrics([res["trace"] for res in firsts])
        values.update(layer_values)
        absent |= layer_absent
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    return {name: statistics.median(v) for name, v in samples.items()}, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    work = WORK_DIR / wl.name
    try:
        import_program()
        ensure_inputs(wl, work)
    except (MissingProgramError, FingerprintError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    ref = checks.Reference(wl, work / "inputs")
    runner = Runner(wl, work, trace=bool(args.trace))
    rng = random.Random(args.seed)

    clean_out = None
    if wl.noise_per_kind:
        # The same corpus without noise or re-encoding, for the byte-identity check.
        clean_out = work / "clean_out"
        result, output = runner.pipeline("clean_out", [f"inputs/{wl.corpora[0].stem}.log"])
        if result is None:
            print(f"perfbench: pipeline on the clean corpus failed:\n{output}", file=sys.stderr)
            return 1

    rounds = []
    start = monotonic()
    try:
        while not rounds or monotonic() - start < args.seconds:
            rounds.append(run_round(runner, ref, rng, clean_out))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, absent = per_layer(rounds)
        if absent:
            print(f"absent per-layer metrics: {', '.join(sorted(absent))}", file=sys.stderr)
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        metrics = {n: {"value": values[n], "unit": units[n]} for n in units if n in values}
    else:
        values = end_to_end(rounds, ref.lines_read)
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not any(r["wrong"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
