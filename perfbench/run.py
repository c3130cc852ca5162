"""The decohere benchmark: one workload, measured end to end or traced by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload allcuts_cluster9 --seed 1 --seconds 20 --trace 0

Each pass runs in its own child process (child.py), one at a time, with BLAS
threads at their default. With ``--trace 0`` the run makes untraced passes
while the next one still fits in ``--seconds`` (at least one), then set-up
probes, and reports the end-to-end metrics as medians. With
``--trace 1`` it makes pairs of one untraced and one traced pass and reports
the per-layer metrics, plus the tracing overhead, as medians over pairs.

Every pass's output is checked here, outside the timed region, by
workloads.py, which does not import decohere. The last line of stdout is
the result JSON; the environment and every pass's raw figures go to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>/result.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from tracing import COMPUTED, ENTRY, LAYERS, layer_metrics, per_layer_names
from workloads import WORKLOADS, check_output, make_input, output_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8
MAX_NOTES = 5  # per pass on stderr; result.json keeps them all
RUN_LIMIT_S = 160.0  # every child is killed past this, so the run ends in time

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, passdir: Path, mode: str, deadline: float) -> dict:
    """Run child.py once and reap it with wait4, which gives its peak RSS."""
    passdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(passdir), "--mode", mode]
    with open(passdir / "stderr.txt", "w", encoding="utf-8") as err:
        t_spawn = _now()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        timer = threading.Timer(max(deadline - t_spawn, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"mode": mode, "exit": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    try:
        child = json.loads((passdir / "child.json").read_text())
    except (OSError, ValueError):
        return record
    record["setup_s"] = child["t_first_call"] - t_spawn
    for key in ("wall_s", "cpu_s", "returncode", "error", "trace"):
        if key in child:
            record[key] = child[key]
    return record


def run_pass(workload, seed, spec, passdir, mode, deadline) -> dict:
    """One checked pass; a pass that did not finish fails all its outputs."""
    record = spawn(workload, seed, passdir, mode, deadline)
    finished = record["exit"] == 0 and "wall_s" in record
    returncode = record.get("returncode", 1) if finished else 1
    attempted, failed, notes = check_output(spec, passdir / output_name(spec), seed, returncode)
    if not finished:
        notes.append(f"child exited with {record['exit']}; see {passdir / 'stderr.txt'}")
    if record.get("error"):
        notes.append(record["error"])
    record.update(attempted=attempted, failed=failed, notes=notes, finished=finished, dir=str(passdir))
    return record


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _read(path: str, key: str | None = None) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if key is None:
                    return line.strip()
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _read("/proc/cpuinfo", "model name"),
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "computed_not_measured": sorted(f"{fn}.{c[0]}" for fn, c in COMPUTED.items()),
    }


def measure(workload: str, seed: int, seconds: int, trace: int, outdir: Path) -> tuple[dict, list, list]:
    spec = make_input(workload, seed)
    deadline = _now() + RUN_LIMIT_S
    passes: list[dict] = []
    probes: list[float] = []

    modes = ("run", "trace") if trace else ("run",)
    durations = []
    while True:
        t0 = _now()
        for mode in modes:
            passes.append(run_pass(workload, seed, spec, outdir / f"pass{len(passes)}-{mode}",
                                   mode, deadline))
        durations.append(_now() - t0)
        if not all(p["finished"] for p in passes[-len(modes):]):
            break
        if sum(durations) + statistics.median(durations) > seconds:
            break
        if _now() + statistics.median(durations) > deadline:
            break
    # Probes follow the passes, so that every run probes a machine that has
    # just been loaded the same way: interpreter start is slower then.
    for i in range(0 if trace else SETUP_PROBES):
        if _now() > deadline:
            break
        record = spawn(workload, seed, outdir / f"probe{i}", "setup", deadline)
        if "setup_s" in record:
            probes.append(record["setup_s"])

    ok = [p for p in passes if p["finished"]]
    if trace:
        per_pair = []
        pairs = zip(passes[::2], passes[1::2])
        for untraced, traced in ((u, t) for u, t in pairs if u["finished"] and t["finished"]):
            csv = Path(traced["dir"]) / output_name(spec)
            written = csv.stat().st_size if spec["command"] in ("single", "sweep") else 0
            m = layer_metrics(traced["trace"], written)
            # The module self times must account for the traced wall.
            unaccounted = traced["wall_s"] - sum(m[f"{layer}.self_s"] for layer in (*LAYERS, ENTRY))
            if abs(unaccounted) > 1e-3 + 1e-3 * traced["wall_s"]:
                raise RuntimeError(f"module self times miss {unaccounted:.6f} s "
                                   f"of the traced wall {traced['wall_s']:.6f} s")
            m.update({
                "trace.wall_s": traced["wall_s"],
                "trace.untraced_wall_s": untraced["wall_s"],
                "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
                "trace.spans": traced["trace"]["span_count"],
            })
            per_pair.append(m)
        names = [(name, unit) for name, unit, _ in per_layer_names()]
        values = {name: statistics.median(m[name] for m in per_pair) if per_pair else 0.0
                  for name, _ in names if name != "error_rate"}
    else:
        names = END_TO_END
        values = {key: statistics.median(p[key] for p in ok) if ok else 0.0
                  for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        setups = probes + [p["setup_s"] for p in ok]
        values["setup_s"] = statistics.median(setups) if setups else 0.0

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values["error_rate"] = failed / attempted if attempted else 1.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    result = {"correct": failed == 0 and all(p["finished"] for p in passes),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, passes, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "decohere" / "__init__.py", ROOT / "scripts" / "cluster_thresholds.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a decohere checkout, missing {missing}", file=sys.stderr)
        return 2

    outdir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    result, passes, probes = measure(args.workload, args.seed, args.seconds, args.trace, outdir)
    for p in passes:
        p.pop("trace", None)  # the summary is in the pass directory's child.json
        for note in p["notes"][:MAX_NOTES]:
            print(f"check: {note}", file=sys.stderr)
    (outdir / "result.json").write_text(json.dumps(
        {"environment": env, "setup_probes_s": probes, "passes": passes, "result": result},
        indent=1) + "\n")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
