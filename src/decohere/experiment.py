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

Unknown fields anywhere are an error — configs fail fast rather than running
something other than what was written. Cut bitmasks use the external
encoding: bit (i-1) set means qubit i belongs to P1.

Result rows carry both oracle quantities plus the closed form where one
exists. ``abs_error`` compares the formula against the oracle quantity the
formula predicts: the signed minimum eigenvalue for GHZ and W, the
negativity sum for cluster chains (see ``negativity.closed_form``).
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from typing import IO, Union

import numpy as np
import yaml

from .channel import TWO_PI, AggregateDephasing, apply_dephasing
from .errors import ConfigError, DecohereError, FormulaUnavailableError
from .negativity import (
    BipartiteCut,
    closed_form,
    enumerate_cuts,
    negativity_oracle,
)
from .states import Family, StateFamily, make_state, to_density
from .tolerances import MAX_QUBITS

# "cuts: all" refuses to expand beyond this many qubits (511 cuts at 10);
# past that an explicit list is required.
ALL_CUTS_LIMIT = 10

_FAMILY_NAMES = {f.value: f for f in Family}


@dataclass(frozen=True)
class HomogeneousSchedule:
    """Every qubit: ``collisions_per_qubit`` identical collisions."""

    collisions_per_qubit: int
    strength: float
    phase: float = 0.0

    def aggregate(self, n_qubits: int) -> AggregateDephasing:
        gamma = float(self.strength) ** self.collisions_per_qubit
        phase = (self.collisions_per_qubit * self.phase) % TWO_PI
        return AggregateDephasing.homogeneous(n_qubits, gamma, phase)


@dataclass(frozen=True)
class ExplicitSchedule:
    """Directly specified per-qubit aggregates."""

    gammas: tuple[float, ...]
    phases: tuple[float, ...]

    def aggregate(self, n_qubits: int) -> AggregateDephasing:
        if len(self.gammas) != n_qubits:
            raise ConfigError(
                f"schedule.gammas: expected {n_qubits} entries, got {len(self.gammas)}"
            )
        return AggregateDephasing(np.array(self.gammas), np.array(self.phases))


@dataclass(frozen=True)
class SweepSpec:
    parameter: str  # "lambda" | "K" | "n_qubits"
    values: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    family: Family
    n_qubits: int
    schedule: Union[HomogeneousSchedule, ExplicitSchedule]
    cuts: Union[str, tuple[int, ...]] = "all"
    sweep: Union[SweepSpec, None] = None

    def state_family(self) -> StateFamily:
        return StateFamily(self.family, self.n_qubits)

    def resolve_cuts(self) -> list[BipartiteCut]:
        if self.cuts == "all":
            if self.n_qubits > ALL_CUTS_LIMIT:
                raise ConfigError(
                    f"cuts: 'all' would enumerate 2**{self.n_qubits - 1} - 1 cuts "
                    f"for n_qubits={self.n_qubits}; list the wanted cut bitmasks "
                    f"explicitly above {ALL_CUTS_LIMIT} qubits"
                )
            return enumerate_cuts(self.n_qubits)
        cuts = []
        seen = set()
        for mask in self.cuts:
            try:
                cut = BipartiteCut.from_cli_bitmask(self.n_qubits, mask)
            except DecohereError as exc:
                raise ConfigError(f"cuts: {exc}") from exc
            if cut.cli_bitmask in seen:
                raise ConfigError(
                    f"cuts: bitmask {mask} duplicates cut {cut.human()} "
                    "(a mask and its complement are the same cut)"
                )
            seen.add(cut.cli_bitmask)
            cuts.append(cut)
        return cuts


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
        gammas = tuple(_as_real(g, f"schedule.gammas[{i}]") for i, g in enumerate(raw))
        for i, g in enumerate(gammas):
            if not 0.0 <= g <= 1.0:
                raise ConfigError(f"schedule.gammas[{i}]: must be in [0, 1], got {g}")
        raw_phis = data.get("phis", [0.0] * n_qubits)
        if not isinstance(raw_phis, list) or len(raw_phis) != n_qubits:
            raise ConfigError(
                f"schedule.phis: expected a list of {n_qubits} numbers, got {raw_phis!r}"
            )
        phases = tuple(_as_real(p, f"schedule.phis[{i}]") for i, p in enumerate(raw_phis))
        return ExplicitSchedule(gammas, phases)

    _no_extras(data, {"K", "lambda", "phi"}, "schedule")
    k = _as_int(_want(data, "K", "schedule"), "schedule.K")
    if k < 0:
        raise ConfigError(f"schedule.K: collision count cannot be negative, got {k}")
    strength = _as_real(_want(data, "lambda", "schedule"), "schedule.lambda")
    if not 0.0 <= strength <= 1.0:
        raise ConfigError(f"schedule.lambda: must be in [0, 1], got {strength}")
    phase = _as_real(data.get("phi", 0.0), "schedule.phi")
    return HomogeneousSchedule(k, strength, phase)


def _parse_cuts(data):
    if data == "all":
        return "all"
    if not isinstance(data, list) or not data:
        raise ConfigError(f"cuts: expected 'all' or a nonempty list of bitmasks, got {data!r}")
    return tuple(_as_int(m, f"cuts[{i}]") for i, m in enumerate(data))


def _parse_sweep(data, schedule) -> SweepSpec:
    if not isinstance(data, dict):
        raise ConfigError(f"sweep: expected a mapping, got {type(data).__name__}")
    _no_extras(data, {"parameter", "values"}, "sweep")
    parameter = _want(data, "parameter", "sweep")
    if parameter not in ("lambda", "K", "n_qubits"):
        raise ConfigError(
            f"sweep.parameter: expected one of lambda/K/n_qubits, got {parameter!r}"
        )
    if isinstance(schedule, ExplicitSchedule):
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
        high = 10**9 if parameter == "K" else MAX_QUBITS
        for i, v in enumerate(values):
            if not low <= v <= high:
                raise ConfigError(
                    f"sweep.values[{i}]: {parameter} must be in [{low}, {high}], got {v}"
                )
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("sweep.values: must be strictly increasing")
    return SweepSpec(parameter, values)


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
        sweep = _parse_sweep(data["sweep"], schedule)

    config = ExperimentConfig(family, n_qubits, schedule, cuts, sweep)
    # Surface cut-list problems (bad masks, duplicates, 'all' explosion) at
    # load time, for the base size and for every swept size.
    for n in _swept_sizes(config):
        dataclasses.replace(config, n_qubits=n).resolve_cuts()
    return config


def _swept_sizes(config: ExperimentConfig) -> list[int]:
    if config.sweep is not None and config.sweep.parameter == "n_qubits":
        return list(config.sweep.values)
    return [config.n_qubits]


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
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


def _rows_for(config: ExperimentConfig) -> list[ResultRow]:
    family = config.state_family()
    agg = config.schedule.aggregate(config.n_qubits)
    rho = apply_dephasing(to_density(make_state(family)), agg)
    gammas = tuple(float(g) for g in agg.gamma)

    rows = []
    for cut in config.resolve_cuts():
        report = negativity_oracle(rho, cut)
        try:
            value, _, predicts = closed_form(family, agg, cut)
            oracle_side = getattr(report, predicts)
            formula_value: Union[float, None] = float(value)
            abs_error: Union[float, None] = abs(oracle_side - value)
        except FormulaUnavailableError:
            formula_value = None
            abs_error = None
        rows.append(
            ResultRow(
                family=config.family.value,
                n_qubits=config.n_qubits,
                cut=cut,
                gammas=gammas,
                min_eigenvalue=report.min_eigenvalue,
                negativity_sum=report.negativity_sum,
                formula_value=formula_value,
                abs_error=abs_error,
            )
        )
    return rows


def run_single(config: ExperimentConfig) -> list[ResultRow]:
    """Evaluate one configuration: one row per requested cut, in cut order."""
    if config.sweep is not None:
        raise ConfigError("run_single: config contains a sweep block; use run_sweep")
    return _rows_for(config)


def _with_sweep_value(config: ExperimentConfig, value) -> ExperimentConfig:
    parameter = config.sweep.parameter
    if parameter == "n_qubits":
        return dataclasses.replace(config, n_qubits=int(value), sweep=None)
    if parameter == "K":
        schedule = dataclasses.replace(config.schedule, collisions_per_qubit=int(value))
    else:  # lambda
        schedule = dataclasses.replace(config.schedule, strength=float(value))
    return dataclasses.replace(config, schedule=schedule, sweep=None)


def run_sweep(config: ExperimentConfig) -> list[ResultRow]:
    """Evaluate every sweep point in value order; rows grouped per point."""
    if config.sweep is None:
        raise ConfigError("run_sweep: config has no sweep block; use run_single")
    rows = []
    for value in config.sweep.values:
        rows.extend(_rows_for(_with_sweep_value(config, value)))
    return rows


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
    for row in rows:
        writer.writerow(
            [
                row.family,
                row.n_qubits,
                row.cut.cli_bitmask,
                row.cut.human(),
                ";".join(_fmt(g) for g in row.gammas),
                _fmt(row.min_eigenvalue),
                _fmt(row.negativity_sum),
                _fmt(row.formula_value),
                _fmt(row.abs_error),
            ]
        )
