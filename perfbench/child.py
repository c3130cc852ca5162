"""One workload pass in a fresh interpreter, started by run.py.

Usage: python3 perfbench/child.py --workload W --seed S --dir D --mode M

Modes: ``setup`` stops at the first timed call (a set-up probe), ``run``
makes one untraced pass, ``trace`` makes one pass under the span tracer.
The pass's output, its timings and, when traced, its spans go to ``D``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import make_input, output_name

ROOT = Path(__file__).resolve().parent.parent


def _now() -> float:
    # CLOCK_MONOTONIC is shared across processes, so the parent's spawn
    # stamp and this process's stamps can be subtracted.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)  # all threads, BLAS included
    return usage.ru_utime + usage.ru_stime


def _load_script(path: Path):
    spec = importlib.util.spec_from_file_location("cluster_thresholds", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def prepare(spec: dict, passdir: Path):
    """Write the pass's input files; return (entry, argv, stdout path)."""
    from decohere import cli

    out = passdir / output_name(spec)
    command = spec["command"]
    if command in ("single", "sweep"):
        config = passdir / "config.yaml"
        config.write_text(json.dumps(spec["config"]) + "\n")  # JSON is YAML
        argv = [command, "--config", str(config)]
        if command == "single":
            return cli.main, argv, out
        return cli.main, argv + ["--out", str(out)], passdir / "stdout.txt"
    if command == "verify":
        return cli.main, ["verify", "--max-n", str(spec["max_n"]), "--seed", str(spec["seed"])], out
    script = _load_script(ROOT / "scripts" / "cluster_thresholds.py")
    return script.main, ["--max-n", str(spec["max_n"]), "--out", str(out)], passdir / "stdout.txt"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import decohere

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(decohere)

    spec = make_input(args.workload, args.seed)
    entry, argv, stdout_path = prepare(spec, args.dir)

    result = {"mode": args.mode}
    if args.mode == "setup":
        result["t_first_call"] = _now()
    else:
        error = None
        with open(stdout_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            cpu0 = _cpu()
            t0 = _now()
            try:
                returncode = tracer.run(entry, argv) if tracer else entry(argv)
            except SystemExit as exc:
                returncode = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                returncode, error = 1, traceback.format_exc()
            t1 = _now()
            cpu1 = _cpu()
        result.update(t_first_call=t0, wall_s=t1 - t0, cpu_s=cpu1 - cpu0,
                      returncode=returncode, error=error)
        if tracer:
            result["trace"] = tracer.summary()
            tracer.write_spans(args.dir / "spans.jsonl")
    (args.dir / "child.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
