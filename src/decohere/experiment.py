"""Experiment configuration and CSV result emission.

A config file is a YAML document with exactly these fields::

    family: ghz | w | cluster
    n_qubits: <int>
    schedule:                 # either the homogeneous form ...
      K: <int>                #   collisions per qubit
      lambda: <float>         #   per-collision strength, in [0, 1]
      phi: <float>            #   optional per-collision phase, default 0
    # ... or explicit per-qubit aggregates:
    # schedule:
    #   gammas: [<float>, ...]
    #   phis: [<float>, ...]  # optional
    cuts: all                 # optional; or a list of cut bitmasks
    sweep:                    # optional
      parameter: lambda | K | n_qubits
      values: [...]           # strictly increasing

Unknown fields anywhere are an error, and so is a key written twice in one
mapping — configs fail fast rather than running something other than what
was written. Cut bitmasks use the external encoding: bit (i-1) set means
qubit i belongs to P1.

Parsing reduces a config to its evaluated points: one for a plain config,
one per sweep value in value order. Each point is the per-qubit
``AggregateDephasing`` of the schedule there (gamma = lambda**K and
Phi = K*phi mod 2*pi for every qubit of the homogeneous form, the listed
values for the explicit form) together with the cuts to report, resolved
for that point's qubit count.

Result rows carry both oracle quantities, read from the family's structured
partial-transpose spectrum (``negativity_reports`` of the family and the
point's aggregate; no density matrix is built). Rows of cluster chains of 2
and 3 qubits also carry ``cluster_negativity_formula`` and its
``abs_error`` against the negativity sum. GHZ and W rows leave both blank:
their structured spectra are their closed forms, so the two would compare
an expression with itself.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Union

import numpy as np
import yaml

from .channel import AggregateDephasing
from .errors import ConfigError, DecohereError
from .negativity import (
    _CLUSTER_FORMULA_QUBITS,
    BipartiteCut,
    _cluster_formula,
    enumerate_cuts,
    negativity_reports,
)
from .states import Family, StateFamily
from .tolerances import MAX_QUBITS

# "cuts: all" refuses to expand beyond this many qubits (511 cuts at 10);
# past that an explicit list is required.
ALL_CUTS_LIMIT = 10
# Largest collision count K a schedule or a K sweep accepts. An integer past
# the float range would make lambda**K raise OverflowError.
MAX_COLLISIONS = 10**9

_FAMILY_NAMES = {f.value: f for f in Family}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config: the state family and its evaluated points.

    Each point pairs the per-qubit aggregate (whose size is the point's
    qubit count) with the cuts to report there. ``sweep`` names the swept
    parameter, or is None for a plain config with exactly one point.
    """

    family: Family
    points: tuple[tuple[AggregateDephasing, tuple[BipartiteCut, ...]], ...]
    sweep: Union[str, None] = None


# --------------------------------------------------------------------------
# Parsing / validation
# --------------------------------------------------------------------------


def _want(data: dict, field: str, where: str):
    if field not in data:
        raise ConfigError(f"{where}: missing required field '{field}'")
    return data[field]


def _no_extras(data: dict, allowed: set, where: str) -> None:
    extras = sorted(set(data) - allowed)
    if extras:
        raise ConfigError(f"{where}: unknown field(s) {extras}; allowed: {sorted(allowed)}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer past the float range
        out = float("inf")
    if not np.isfinite(out):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return out


def _parse_schedule(data, n_qubits: int):
    """The explicit form's aggregate, or the homogeneous form's parameters
    as ``{"n_qubits": ..., "K": ..., "lambda": ..., "phi": ...}``."""
    if not isinstance(data, dict):
        raise ConfigError(f"schedule: expected a mapping, got {type(data).__name__}")
    keys = set(data)
    if "gammas" in keys:
        _no_extras(data, {"gammas", "phis"}, "schedule")
        raw = data["gammas"]
        if not isinstance(raw, list) or len(raw) != n_qubits:
            raise ConfigError(
                f"schedule.gammas: expected a list of {n_qubits} numbers, got {raw!r}"
            )
        gammas = [_as_real(g, f"schedule.gammas[{i}]") for i, g in enumerate(raw)]
        for i, g in enumerate(gammas):
            if not 0.0 <= g <= 1.0:
                raise ConfigError(f"schedule.gammas[{i}]: must be in [0, 1], got {g}")
        raw_phis = data.get("phis", [0.0] * n_qubits)
        if not isinstance(raw_phis, list) or len(raw_phis) != n_qubits:
            raise ConfigError(
                f"schedule.phis: expected a list of {n_qubits} numbers, got {raw_phis!r}"
            )
        phases = [_as_real(p, f"schedule.phis[{i}]") for i, p in enumerate(raw_phis)]
        return AggregateDephasing(np.array(gammas), np.array(phases))

    _no_extras(data, {"K", "lambda", "phi"}, "schedule")
    k = _as_int(_want(data, "K", "schedule"), "schedule.K")
    if not 0 <= k <= MAX_COLLISIONS:
        raise ConfigError(
            f"schedule.K: collision count must be in [0, {MAX_COLLISIONS}], got {k}"
        )
    strength = _as_real(_want(data, "lambda", "schedule"), "schedule.lambda")
    if not 0.0 <= strength <= 1.0:
        raise ConfigError(f"schedule.lambda: must be in [0, 1], got {strength}")
    phase = _as_real(data.get("phi", 0.0), "schedule.phi")
    return {"n_qubits": n_qubits, "K": k, "lambda": strength, "phi": phase}


def _homogeneous(point: dict) -> AggregateDephasing:
    """K collisions of strength lambda and phase phi on each of n_qubits."""
    k = point["K"]
    # One power, not K products as schedule_aggregate forms them: the last
    # bit of gamma differs between the two, and CSV rows carry every bit.
    gamma = point["lambda"] ** k
    phase = k * point["phi"]
    if not np.isfinite(phase):
        raise ConfigError(f"schedule.phi: K * phi = {k} * {point['phi']!r} is not finite")
    return AggregateDephasing.homogeneous(point["n_qubits"], gamma, phase)


def _parse_cuts(data):
    if data == "all":
        return "all"
    if not isinstance(data, list) or not data:
        raise ConfigError(f"cuts: expected 'all' or a nonempty list of bitmasks, got {data!r}")
    return tuple(_as_int(m, f"cuts[{i}]") for i, m in enumerate(data))


def _resolve_cuts(cuts, n_qubits: int) -> tuple[BipartiteCut, ...]:
    if cuts == "all":
        if n_qubits > ALL_CUTS_LIMIT:
            raise ConfigError(
                f"cuts: 'all' would enumerate 2**{n_qubits - 1} - 1 cuts "
                f"for n_qubits={n_qubits}; list the wanted cut bitmasks "
                f"explicitly above {ALL_CUTS_LIMIT} qubits"
            )
        return tuple(enumerate_cuts(n_qubits))
    resolved = {}  # insertion-ordered, so rows follow the listed order
    for mask in cuts:
        try:
            cut = BipartiteCut(n_qubits, mask)
        except DecohereError as exc:
            raise ConfigError(f"cuts: {exc}") from exc
        if cut in resolved:
            raise ConfigError(
                f"cuts: bitmask {mask} duplicates cut {cut.human()} "
                "(a mask and its complement are the same cut)"
            )
        resolved[cut] = None
    return tuple(resolved)


def _parse_sweep(data, schedule) -> tuple[str, tuple]:
    if not isinstance(data, dict):
        raise ConfigError(f"sweep: expected a mapping, got {type(data).__name__}")
    _no_extras(data, {"parameter", "values"}, "sweep")
    parameter = _want(data, "parameter", "sweep")
    if parameter not in ("lambda", "K", "n_qubits"):
        raise ConfigError(
            f"sweep.parameter: expected one of lambda/K/n_qubits, got {parameter!r}"
        )
    if isinstance(schedule, AggregateDephasing):
        raise ConfigError(
            "sweep: sweeping requires the homogeneous schedule form (K/lambda), "
            "not explicit per-qubit lists"
        )
    raw = _want(data, "values", "sweep")
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"sweep.values: expected a nonempty list, got {raw!r}")
    if parameter == "lambda":
        values = tuple(_as_real(v, f"sweep.values[{i}]") for i, v in enumerate(raw))
        for i, v in enumerate(values):
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"sweep.values[{i}]: lambda must be in [0, 1], got {v}")
    else:
        values = tuple(_as_int(v, f"sweep.values[{i}]") for i, v in enumerate(raw))
        low = 0 if parameter == "K" else 2
        high = MAX_COLLISIONS if parameter == "K" else MAX_QUBITS
        for i, v in enumerate(values):
            if not low <= v <= high:
                raise ConfigError(
                    f"sweep.values[{i}]: {parameter} must be in [{low}, {high}], got {v}"
                )
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("sweep.values: must be strictly increasing")
    return parameter, values


def parse_config(data) -> ExperimentConfig:
    """Validate a decoded YAML tree into an ExperimentConfig (fail-fast)."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root: expected a mapping, got {type(data).__name__}")
    _no_extras(data, {"family", "n_qubits", "schedule", "cuts", "sweep"}, "config root")

    raw_family = _want(data, "family", "config root")
    if not isinstance(raw_family, str) or raw_family.lower() not in _FAMILY_NAMES:
        raise ConfigError(
            f"family: expected one of {sorted(_FAMILY_NAMES)}, got {raw_family!r}"
        )
    family = _FAMILY_NAMES[raw_family.lower()]

    n_qubits = _as_int(_want(data, "n_qubits", "config root"), "n_qubits")
    if not 2 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(f"n_qubits: must be in [2, {MAX_QUBITS}], got {n_qubits}")

    schedule = _parse_schedule(_want(data, "schedule", "config root"), n_qubits)
    cuts = _parse_cuts(data.get("cuts", "all"))
    sweep = None
    if data.get("sweep") is not None:
        sweep, values = _parse_sweep(data["sweep"], schedule)

    if isinstance(schedule, AggregateDephasing):
        aggregates = [schedule]
    elif sweep is None:
        aggregates = [_homogeneous(schedule)]
    else:
        aggregates = [_homogeneous({**schedule, sweep: v}) for v in values]
    # Cut-list problems (bad masks, duplicates, 'all' explosion) surface here,
    # at load time, for every evaluated size.
    points = tuple((agg, _resolve_cuts(cuts, agg.n_qubits)) for agg in aggregates)
    return ExperimentConfig(family, points, sweep)


class _UniqueKeyLoader(yaml.SafeLoader):
    """A safe loader that refuses a key written twice in one mapping, which
    plain YAML loading would silently resolve to its last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            try:
                repeated = key in seen
            except TypeError:  # unhashable; the base loader reports it
                continue
            if repeated:
                raise ConfigError(
                    f"repeated key {key!r} at line {key_node.start_mark.line + 1}"
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError, RecursionError) as exc:
        # non-UTF-8 bytes, or nesting deeper than the YAML composer can recurse
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return parse_config(data)


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    family: str
    n_qubits: int
    cut: BipartiteCut
    gammas: tuple[float, ...]
    min_eigenvalue: float
    negativity_sum: float
    formula_value: Union[float, None]
    abs_error: Union[float, None]


def _point_rows(
    kind: Family, agg: AggregateDephasing, cuts: tuple[BipartiteCut, ...]
) -> list[ResultRow]:
    family = StateFamily(kind, agg.n_qubits)
    gammas = tuple(float(g) for g in agg.gamma)
    has_formula = kind is Family.CLUSTER and agg.n_qubits <= _CLUSTER_FORMULA_QUBITS

    rows = []
    for report in negativity_reports((family, agg), cuts):
        formula_value = abs_error = None
        if has_formula:
            # the cut was checked once, by negativity_reports
            formula_value = float(_cluster_formula(agg.gamma, report.cut))
            abs_error = abs(report.negativity_sum - formula_value)
        rows.append(
            ResultRow(
                family=kind.value,
                n_qubits=agg.n_qubits,
                cut=report.cut,
                gammas=gammas,
                min_eigenvalue=report.min_eigenvalue,
                negativity_sum=report.negativity_sum,
                formula_value=formula_value,
                abs_error=abs_error,
            )
        )
    return rows


def _run(config: ExperimentConfig) -> list[ResultRow]:
    rows = []
    for agg, cuts in config.points:
        rows.extend(_point_rows(config.family, agg, cuts))
    return rows


def run_single(config: ExperimentConfig) -> list[ResultRow]:
    """Evaluate one configuration: one row per requested cut, in cut order."""
    if config.sweep is not None:
        raise ConfigError("run_single: config contains a sweep block; use run_sweep")
    return _run(config)


def run_sweep(config: ExperimentConfig) -> list[ResultRow]:
    """Evaluate every sweep point in value order; rows grouped per point."""
    if config.sweep is None:
        raise ConfigError("run_sweep: config has no sweep block; use run_single")
    return _run(config)


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------

CSV_HEADER = [
    "family",
    "n_qubits",
    "cut_bitmask",
    "cut_human",
    "gammas",
    "min_eigenvalue",
    "negativity_sum",
    "formula_value",
    "abs_error",
]


def _fmt(x: Union[float, None]) -> str:
    # repr of a Python float is the shortest decimal that round-trips, which
    # keeps the output diff-stable across runs and platforms.
    return "" if x is None else repr(float(x))


def write_csv(rows, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    gammas = text = None
    for row in rows:
        if row.gammas is not gammas:  # a point's rows share one tuple; not ==, as 0.0 == -0.0
            gammas, text = row.gammas, ";".join(_fmt(g) for g in row.gammas)
        writer.writerow(
            [
                row.family,
                row.n_qubits,
                row.cut.cli_bitmask,
                row.cut.human(),
                text,
                _fmt(row.min_eigenvalue),
                _fmt(row.negativity_sum),
                _fmt(row.formula_value),
                _fmt(row.abs_error),
            ]
        )
