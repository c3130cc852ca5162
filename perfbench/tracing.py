"""Span tracing of decohere's public functions, from outside the program.

``Tracer.install`` wraps every public function of the layer modules, plus the
``DensityMatrix`` constructor, and rebinds each name wherever callers look it
up: the defining module, every module that imported it, the package and
list attributes such as ``verify.ALL_CHECKS``. Spans (id, parent, name,
start, end, self time, exception) stay in memory until ``write_spans``.

``layer_metrics`` turns the aggregated spans of one traced pass into the
per-layer metrics. It needs no decohere import, so run.py can call it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("states", "linalg", "channel", "negativity", "experiment", "verify")
ENTRY = "entry"

# Functions reported with .calls and .self_s.
TIMED = (
    "states.make_state",
    "states.to_density",
    "linalg.DensityMatrix",
    "linalg.require_hermitian",
    "linalg.partial_transpose",
    "linalg.hermitian_eigenvalues",
    "linalg.partial_trace",
    "linalg.kron",
    "channel.apply_dephasing",
    "channel.dephasing_factors",
    "channel.apply_microscopic_collision",
    "negativity.negativity_oracle",
    "negativity.closed_form",
    "negativity.critical_gamma",
    "experiment.load_config",
    "experiment.run_single",
    "experiment.run_sweep",
    "experiment.write_csv",
)

# The verify suite's properties, by check-function name without "check_".
PROPERTIES = (
    "kron_associativity", "dagger_involution", "partial_trace_preserves_trace",
    "partial_transpose_involution", "eigenvalue_sum_matches_trace",
    "kron_eigenvalue_products", "pt_spectrum_range", "state_normalization",
    "permutation_symmetry", "cluster_against_cz_chain", "collision_unitarity",
    "perp_orthogonality", "dephasing_preserves_density", "dephasing_composition",
    "schedule_aggregation", "micro_reduced_agreement", "phase_irrelevance",
    "ghz_monotonicity", "ghz_formula", "ghz_cut_independence", "w_formula",
    "w_weakest_link", "strict_positivity_persistence", "cluster_formula_grids",
    "cluster_vs_ghz_ordering", "ghz_slope_law",
)

# Work derived from array sizes, not measured: (span name, counter, formula).
# partial_transpose writes a dim x dim complex128 result and builds two
# dim x dim int64 index arrays; dephasing_factors writes the complex128
# factor matrix plus one dense per-qubit factor per qubit (temporaries inside
# numpy expressions are not counted).
COMPUTED = {
    "linalg.partial_transpose": ("bytes_computed", lambda rho: 32 * rho.dim**2),
    "linalg.hermitian_eigenvalues": ("dim3_sum", lambda a: len(a) ** 3),
    "channel.dephasing_factors": ("bytes_computed", lambda n: 16 * 4**n * (n + 1)),
}


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for fn in TIMED:
        out += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower")]
        if fn in COMPUTED:
            counter = COMPUTED[fn][0]
            out.append((f"{fn}.{counter}", "B" if counter.startswith("bytes") else "count", "lower"))
    out += [
        ("channel.dephase_per_oracle", "ratio", "lower"),
        ("negativity.oracle_per_threshold", "ratio", "lower"),
        ("negativity.bracket_errors", "count", "lower"),
        ("experiment.csv_bytes", "B", "lower"),
        ("verify.run_suite.self_s", "s", "lower"),
    ]
    out += [(f"verify.{p}.s", "s", "lower") for p in PROPERTIES]
    out += [(f"{layer}.self_s", "s", "lower") for layer in (*LAYERS, ENTRY)]
    out += [
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("error_rate", "ratio", "lower"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        work = self.work
        counter = COMPUTED.get(name)
        first = next(iter(inspect.signature(fn).parameters)) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((sid, parent, name, start, end, end - start - frame[1], error))
            if counter is not None:
                work[f"{name}.{counter[0]}"] += counter[1](args[0] if args else kwargs[first])
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the layer modules' public functions and rebind every reference."""
        prefix = package.__name__
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{prefix}.{layer}")
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrapped[value] = self.wrap(f"{layer}.{attr}", value)
        density = sys.modules[f"{prefix}.linalg"].DensityMatrix
        density.__init__ = self.wrap("linalg.DensityMatrix", density.__init__)

        for name, module in list(sys.modules.items()):
            if name != prefix and not name.startswith(prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
                elif isinstance(value, list):
                    value[:] = [wrapped.get(v, v) if inspect.isfunction(v) else v for v in value]

    def run(self, fn, *args):
        """Call ``fn`` as the root span of a pass."""
        return self.wrap(ENTRY, fn)(*args)

    def summary(self) -> dict:
        """Per span name: calls, self time, total time and exceptions by type."""
        stats: dict[str, dict] = {}
        for _, _, name, start, end, self_s, error in self.spans:
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": {}})
            s["calls"] += 1
            s["self_s"] += self_s
            s["total_s"] += end - start
            if error:
                s["errors"][error] = s["errors"].get(error, 0) + 1
        return {"spans": stats, "work": dict(self.work), "span_count": len(self.spans)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, self_s, error in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "self_s": self_s,
                                     "error": error}) + "\n")


def layer_metrics(summary: dict, csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without the trace.* comparisons)."""
    spans, work = summary["spans"], summary["work"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for fn in TIMED:
        out[f"{fn}.calls"] = get(fn, "calls")
        out[f"{fn}.self_s"] = get(fn, "self_s")
        if fn in COMPUTED:
            key = f"{fn}.{COMPUTED[fn][0]}"
            out[key] = work.get(key, 0)
    oracle = get("negativity.negativity_oracle", "calls")
    out["channel.dephase_per_oracle"] = ratio(get("channel.apply_dephasing", "calls"), oracle)
    out["negativity.oracle_per_threshold"] = ratio(oracle, get("negativity.critical_gamma", "calls"))
    out["negativity.bracket_errors"] = spans.get("negativity.critical_gamma", {}).get(
        "errors", {}).get("BracketError", 0)
    out["experiment.csv_bytes"] = csv_bytes
    out["verify.run_suite.self_s"] = get("verify.run_suite", "self_s")
    for prop in PROPERTIES:
        out[f"verify.{prop}.s"] = get(f"verify.check_{prop}", "total_s")
    for layer in (*LAYERS, ENTRY):
        out[f"{layer}.self_s"] = sum(
            s["self_s"] for name, s in spans.items() if name.split(".")[0] == layer)
    return out
