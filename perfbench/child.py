"""One timed edxmine step in a fresh interpreter; run.py starts it.

    python3 child.py setup REPORT RUN_CONFIG
    python3 child.py cli REPORT {plain|trace} EDXMINE_ARGS...

``setup`` measures the CPU time of ``import edxmine.cli`` and of loading the
run config with the manifest it names. ``cli`` imports the CLI, then measures
``edxmine.cli.main``, with the arguments a user would type, in CPU time (user
plus system, all threads) and in wall time. Either writes its figures to
REPORT as JSON. Only ``sys`` and ``time`` are imported before the measured
part, so the import figure includes everything the program pulls in.
"""

import sys
import time


def _peak_rss_kb() -> int:
    # VmHWM belongs to this process image alone. getrusage's ru_maxrss would
    # also carry the peak of the parent that this process was spawned from.
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    mode, report = sys.argv[1], sys.argv[2]
    if mode == "setup":
        start = time.process_time()
        import edxmine.cli

        imported = time.process_time()
        edxmine.cli.load_run_manifest(sys.argv[3])
        result = {"import_s": imported - start, "load_config_s": time.process_time() - imported}
    else:
        import edxmine.cli

        tracer = None
        if sys.argv[3] == "trace":
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        cpu_start = time.process_time()
        start = time.perf_counter()
        rc = edxmine.cli.main(sys.argv[4:])
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        sys.stdout.flush()
        result = {"rc": rc, "wall_s": wall, "cpu_s": cpu, "rss_mb": _peak_rss_kb() / 1024}
        if tracer is not None:
            result["trace"] = tracer.export()
    import json

    with open(report, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
