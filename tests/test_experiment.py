import csv
import io
from pathlib import Path

import numpy as np
import pytest
from conftest import ghz_negativity_formula, run_python, w_negativity_formula

from decohere import (
    ConfigError,
    DensityMatrix,
    Family,
    StateFamily,
    apply_dephasing,
    cluster_negativity_formula,
    make_state,
    partial_transpose,
    to_density,
)
from decohere.experiment import (
    CSV_HEADER,
    MAX_COLLISIONS,
    ResultRow,
    load_config,
    parse_config,
    run_single,
    run_sweep,
    write_csv,
)
from decohere import cli, linalg, negativity
from decohere.tolerances import PSD_FLOOR

SQRT2 = np.sqrt(2.0)
GOLDEN = Path(__file__).parent / "data" / "golden"
SINGLE_GOLDENS = ["ghz4", "w4", "cluster4", "cluster8", "w10"]
SWEEP_GOLDENS = ["w5_lambda", "ghz4_k", "ghz_n", "cluster_n"]
# All 255 cuts of a 9-qubit cluster: more rows than one structured kernel
# call holds, so the bytes pin rows computed across a block boundary. Its
# dense route (255 eigensolves at dim 512) is too slow for the dense check.
BLOCK_GOLDENS = ["cluster9"]


def base_config(**overrides):
    data = {
        "family": "ghz",
        "n_qubits": 3,
        "schedule": {"K": 2, "lambda": 0.9},
    }
    data.update(overrides)
    return data


def csv_text(rows):
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


def masks(cuts):
    return [cut.cli_bitmask for cut in cuts]


def dense_rows(config):
    """The rows of ``config`` the long way: the explicit dephased density
    matrix of each point, a full eigensolve of each partial transpose, and
    the cluster closed form on chains of at most 3 qubits."""
    rows = []
    for agg, cuts in config.points:
        family = StateFamily(config.family, agg.n_qubits)
        rho = apply_dephasing(to_density(make_state(family)), agg)
        for cut in cuts:
            eigs = np.linalg.eigvalsh(partial_transpose(rho, cut.cli_bitmask))
            negatives = eigs[eigs < PSD_FLOOR]
            negativity = float(-negatives.sum()) if negatives.size else 0.0
            formula = error = None
            if config.family is Family.CLUSTER and agg.n_qubits <= 3:
                formula = cluster_negativity_formula(agg, cut)
                error = abs(negativity - formula)
            rows.append(
                ResultRow(
                    config.family.value,
                    agg.n_qubits,
                    cut,
                    tuple(float(g) for g in agg.gamma),
                    float(eigs[0]),
                    negativity,
                    formula,
                    error,
                )
            )
    return rows


class TestParsing:
    def test_homogeneous_round_trip(self):
        config = parse_config(base_config(schedule={"K": 2, "lambda": 0.9, "phi": 0.3}))
        assert config.family is Family.GHZ
        assert config.sweep is None
        ((agg, cuts),) = config.points
        # K = 2 collisions on every qubit: gamma = 0.9**2 = 0.81, Phi = 2 * 0.3 = 0.6
        assert np.array_equal(agg.gamma, [0.9**2] * 3)
        assert np.array_equal(agg.phase, [2 * 0.3] * 3)
        assert masks(cuts) == [1, 3, 5]

    def test_explicit_round_trip(self):
        config = parse_config(
            base_config(
                family="cluster",
                schedule={"gammas": [0.5, 0.6, 0.7], "phis": [0.0, 0.1, 0.2]},
                cuts=[1, 3],
            )
        )
        ((agg, cuts),) = config.points
        assert np.array_equal(agg.gamma, [0.5, 0.6, 0.7])
        assert np.array_equal(agg.phase, [0.0, 0.1, 0.2])
        assert masks(cuts) == [1, 3]

    def test_phis_default_to_zero(self):
        config = parse_config(base_config(schedule={"gammas": [0.5, 0.6, 0.7]}))
        assert np.array_equal(config.points[0][0].phase, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "mangle",
        [
            {"family": "bell"},
            {"n_qubits": 1},
            {"n_qubits": 13},
            {"n_qubits": "three"},
            {"schedule": {"K": 2}},
            {"schedule": {"K": -1, "lambda": 0.5}},
            {"schedule": {"K": MAX_COLLISIONS + 1, "lambda": 0.5}},
            {"schedule": {"K": 10**400, "lambda": 0.5}},
            {"schedule": {"K": 2, "lambda": 1.5}},
            {"schedule": {"K": 2, "lambda": -0.1}},
            {"schedule": {"K": True, "lambda": 0.5}},
            {"schedule": {"gammas": [0.5, 0.5]}},
            {"schedule": {"gammas": [0.5, 1.2, 0.5]}},
            {"schedule": {"gammas": [0.5] * 3, "phis": [0.0] * 2}},
            {"schedule": {"K": 1, "lambda": 0.5, "gammas": [0.5] * 3}},
            {"cuts": [0]},
            {"cuts": [7]},
            {"cuts": [1, 6]},
            {"cuts": "some"},
            {"extra_field": 1},
            {"schedule": {"K": 2, "lambda": 0.9, "mu": 1}},
            {"schedule": {"K": 2, "lambda": 0.9, "phi": float("nan")}},
            {"schedule": {"gammas": [0.5] * 3, "phis": [0.1, float("inf"), 0.2]}},
            {"schedule": {"K": 2, "lambda": 0.9, "phi": 10**400}},
        ],
    )
    def test_rejects_malformed(self, mangle):
        with pytest.raises(ConfigError):
            parse_config(base_config(**mangle))

    def test_rejects_non_mapping(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])

    def test_all_cuts_capped(self):
        # caught at parse time: cuts 'all' with 11 qubits means 1023 cuts
        with pytest.raises(ConfigError):
            parse_config(base_config(n_qubits=11, schedule={"K": 1, "lambda": 0.5}))

    def test_sweep_parses(self):
        config = parse_config(
            base_config(sweep={"parameter": "n_qubits", "values": [2, 3, 4]})
        )
        assert config.sweep == "n_qubits"
        assert [agg.n_qubits for agg, _ in config.points] == [2, 3, 4]
        assert [len(cuts) for _, cuts in config.points] == [1, 3, 7]

    @pytest.mark.parametrize(
        "sweep, gammas, phases",
        [
            ({"parameter": "lambda", "values": [0.5, 0.8]}, [0.5**2, 0.8**2], [0.6, 0.6]),
            ({"parameter": "K", "values": [0, 1, 3]}, [1.0, 0.9, 0.9**3], [0.0, 0.3, 3 * 0.3]),
        ],
    )
    def test_sweep_points_are_aggregates(self, sweep, gammas, phases):
        config = parse_config(
            base_config(schedule={"K": 2, "lambda": 0.9, "phi": 0.3}, sweep=sweep)
        )
        assert [agg.gamma[0] for agg, _ in config.points] == gammas
        assert [agg.phase[0] for agg, _ in config.points] == phases

    @pytest.mark.parametrize(
        "sweep",
        [
            {"parameter": "gamma", "values": [0.1, 0.2]},
            {"parameter": "lambda", "values": [0.5, 0.5]},
            {"parameter": "lambda", "values": [0.9, 0.5]},
            {"parameter": "lambda", "values": [0.5, 1.5]},
            {"parameter": "K", "values": [1, 2.5]},
            {"parameter": "n_qubits", "values": [2, 13]},
            {"parameter": "lambda", "values": []},
            {"parameter": "lambda"},
        ],
    )
    def test_rejects_malformed_sweep(self, sweep):
        with pytest.raises(ConfigError):
            parse_config(base_config(sweep=sweep))

    def test_sweep_requires_homogeneous_schedule(self):
        with pytest.raises(ConfigError):
            parse_config(
                base_config(
                    schedule={"gammas": [0.5, 0.5, 0.5]},
                    sweep={"parameter": "lambda", "values": [0.1, 0.2]},
                )
            )

    def test_swept_sizes_validated_against_cuts(self):
        # an n_qubits sweep must keep every listed cut legal at every size
        with pytest.raises(ConfigError):
            parse_config(
                base_config(
                    cuts=[5],
                    sweep={"parameter": "n_qubits", "values": [2, 3]},
                )
            )

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.yaml"))

    def test_load_config_bad_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("family: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_load_config_unhashable_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("family: w\n[1, 2]: 3\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_load_config_merge_key_may_be_overridden(self, tmp_path):
        # a YAML merge supplies defaults that later keys override; no repeat
        path = tmp_path / "merge.yaml"
        path.write_text(
            "family: w\nn_qubits: 2\nschedule: {<<: {K: 1, lambda: 0.8}, lambda: 0.5}\n"
        )
        ((agg, _),) = load_config(str(path)).points
        assert agg.gamma.tolist() == [0.5, 0.5]

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "family: w\nn_qubits: 4\nschedule:\n  K: 1\n  lambda: 0.8\ncuts: [3]\n"
        )
        config = load_config(str(path))
        assert config.family is Family.W
        ((agg, cuts),) = config.points
        assert agg.n_qubits == 4
        assert masks(cuts) == [3]


class TestRunSingle:
    def test_pure_ghz_rows(self):
        config = parse_config(base_config(schedule={"K": 1, "lambda": 1.0}))
        rows = run_single(config)
        assert len(rows) == 3
        for row in rows:
            assert row.family == "ghz"
            assert abs(row.min_eigenvalue - (-0.5)) < 1e-12
            assert row.formula_value is None and row.abs_error is None
        assert [row.cut.cli_bitmask for row in rows] == [1, 3, 5]

    def test_w_balanced_cut_row(self):
        config = parse_config(
            base_config(family="w", n_qubits=4, schedule={"K": 1, "lambda": 1.0}, cuts=[3])
        )
        (row,) = run_single(config)
        assert row.cut.human() == "1,2|3,4"
        assert abs(row.min_eigenvalue - (-0.5)) < 1e-12

    def test_cluster_rows_use_negativity_sum(self):
        config = parse_config(
            base_config(
                family="cluster",
                schedule={"gammas": [0.5, 0.5, 0.5]},
            )
        )
        rows = run_single(config)
        outer = rows[0]
        assert abs(outer.formula_value - 0.0625) < 1e-15
        assert abs(outer.negativity_sum - outer.formula_value) < 1e-10
        # two negative eigenvalues share that sum on the outer cut
        assert -outer.min_eigenvalue < outer.negativity_sum

    def test_cluster_ppt_row_reports_zero_formula(self):
        config = parse_config(
            base_config(family="cluster", n_qubits=2, schedule={"gammas": [0.2, 0.2]})
        )
        (row,) = run_single(config)
        assert row.formula_value == 0.0
        assert row.negativity_sum == 0.0
        assert row.min_eigenvalue > -1e-12
        assert row.abs_error < 1e-12

    def test_formula_blank_when_unavailable(self):
        config = parse_config(
            base_config(family="cluster", n_qubits=4, schedule={"K": 1, "lambda": 0.7})
        )
        rows = run_single(config)
        assert all(row.formula_value is None for row in rows)
        assert all(row.abs_error is None for row in rows)

    def test_only_short_cluster_rows_carry_a_formula(self):
        # the GHZ and W kernels are their closed forms, so their rows carry
        # none; the rows still equal the test-local references on every cut
        rng = np.random.default_rng(27)
        for n in range(2, 11):
            gammas = [float(g) for g in rng.uniform(0.0, 1.0, n)]
            runs = {}
            for family in ("ghz", "w", "cluster"):
                config = parse_config(
                    base_config(family=family, n_qubits=n, schedule={"gammas": gammas})
                )
                [(agg, _)] = config.points
                runs[family] = run_single(config)
            for ghz, w, cluster in zip(*runs.values(), strict=True):
                for row, reference in (
                    (ghz, ghz_negativity_formula(agg)),
                    (w, w_negativity_formula(agg, w.cut)),
                ):
                    assert row.formula_value is None and row.abs_error is None
                    assert abs(row.min_eigenvalue - reference) <= 1e-15
                if n <= 3:
                    assert cluster.formula_value == cluster_negativity_formula(agg, cluster.cut)
                    assert cluster.abs_error == abs(cluster.negativity_sum - cluster.formula_value)
                else:
                    assert cluster.formula_value is None and cluster.abs_error is None

    def test_every_formula_row_within_contract_tolerance(self):
        for family in ("ghz", "w", "cluster"):
            config = parse_config(
                base_config(family=family, schedule={"K": 2, "lambda": 0.85})
            )
            for row in run_single(config):
                if row.abs_error is not None:
                    assert row.abs_error <= 1e-8

    def test_rejects_sweep_config(self):
        config = parse_config(
            base_config(sweep={"parameter": "lambda", "values": [0.1, 0.2]})
        )
        with pytest.raises(ConfigError):
            run_single(config)


class TestRunSweep:
    def test_lambda_sweep_tracks_w_closed_form(self):
        values = [0.2, 0.4, 0.6, 0.8, 1.0]
        config = parse_config(
            base_config(
                family="w",
                n_qubits=4,
                cuts=[3],
                schedule={"K": 1, "lambda": 0.5},
                sweep={"parameter": "lambda", "values": values},
            )
        )
        rows = run_sweep(config)
        assert len(rows) == len(values)
        for lam, row in zip(values, rows):
            assert abs(row.min_eigenvalue - (-(lam**2) / 2)) < 1e-10

    def test_n_sweep_recovers_ghz_decay_slope(self):
        sizes = list(range(2, 9))
        config = parse_config(
            base_config(
                cuts=[1],
                schedule={"K": 1, "lambda": 0.9},
                sweep={"parameter": "n_qubits", "values": sizes},
            )
        )
        rows = run_sweep(config)
        slope = np.polyfit(sizes, [np.log(-row.min_eigenvalue) for row in rows], 1)[0]
        assert abs(slope - np.log(0.9)) < 1e-9

    def test_k_sweep_at_unit_strength_is_flat(self):
        config = parse_config(
            base_config(
                cuts=[1],
                schedule={"K": 1, "lambda": 1.0},
                sweep={"parameter": "K", "values": [1, 2, 3]},
            )
        )
        rows = run_sweep(config)
        assert all(abs(row.min_eigenvalue + 0.5) < 1e-12 for row in rows)

    def test_rejects_plain_config(self):
        with pytest.raises(ConfigError):
            run_sweep(parse_config(base_config()))


class TestNoDensityMatrix:
    @pytest.mark.parametrize("family", ["ghz", "w", "cluster"])
    def test_rows_come_from_the_structured_spectrum(self, family, monkeypatch):
        # building a density matrix or a partial transpose anywhere on the
        # single/sweep path fails this test
        def forbidden(*args, **kwargs):
            raise AssertionError("the CSV path built a density matrix or a partial transpose")

        monkeypatch.setattr(DensityMatrix, "__init__", forbidden)
        monkeypatch.setattr(DensityMatrix, "_unchecked", classmethod(forbidden))
        for module in (linalg, negativity):
            monkeypatch.setattr(module, "partial_transpose", forbidden)
        assert len(run_single(parse_config(base_config(family=family, n_qubits=4)))) == 7
        sweep = base_config(
            family=family, n_qubits=4, sweep={"parameter": "lambda", "values": [0.3, 0.6]}
        )
        assert len(run_sweep(parse_config(sweep))) == 14


class TestBlockedKernelCalls:
    """``_point_rows`` reads all cuts of a point from one kernel call per
    block of ``_BLOCK_VALUES >> n`` rows."""

    @staticmethod
    def spy_on(monkeypatch, kind):
        calls, kernel = [], negativity._SPECTRA[kind]

        def spy(gamma, cuts):
            calls.append((len(cuts), gamma.size))
            return kernel(gamma, cuts)

        monkeypatch.setitem(negativity._SPECTRA, kind, spy)
        return calls

    def test_twelve_qubit_cuts_across_three_blocks(self, monkeypatch):
        rng = np.random.default_rng(12)
        masks = rng.choice(np.arange(1, 2**12 - 1, 2), size=40, replace=False)
        config = parse_config(
            {
                "family": "cluster",
                "n_qubits": 12,
                "schedule": {"gammas": [float(g) for g in rng.uniform(0.6, 0.98, 12)]},
                "cuts": [int(m) for m in masks],
            }
        )
        [(agg, cuts)] = config.points
        calls = self.spy_on(monkeypatch, Family.CLUSTER)
        rows = run_single(config)
        assert calls == [(16, 12), (16, 12), (8, 12)]
        family = StateFamily(Family.CLUSTER, 12)
        for row, cut in zip(rows, cuts, strict=True):
            report = negativity.negativity_oracle((family, agg), cut)
            assert (row.cut, row.min_eigenvalue, row.negativity_sum) == (
                report.cut,
                report.min_eigenvalue,
                report.negativity_sum,
            )

    @pytest.mark.parametrize("family", list(Family))
    def test_calls_per_point(self, family, monkeypatch):
        sweep = base_config(
            family=family.value,
            n_qubits=2,
            cuts="all",
            sweep={"parameter": "n_qubits", "values": [2, 7, 8, 9, 10]},
        )
        calls = self.spy_on(monkeypatch, family)
        run_sweep(parse_config(sweep))
        want = []
        for n in (2, 7, 8, 9, 10):
            cuts, rows = 2 ** (n - 1) - 1, negativity._BLOCK_VALUES >> n
            want += [(rows, n)] * (cuts // rows) + [(cuts % rows, n)] * (cuts % rows > 0)
        assert calls == want
        assert max(k * 2**n for k, n in calls) <= negativity._BLOCK_VALUES


class TestCSV:
    def test_header_exact(self):
        assert CSV_HEADER == [
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
        text = csv_text([])
        assert text == ",".join(CSV_HEADER) + "\n"

    def test_rows_round_trip_through_repr(self):
        config = parse_config(
            base_config(family="cluster", schedule={"gammas": [0.3, 0.7, 0.9]})
        )
        rows = run_single(config)
        parsed = list(csv.reader(io.StringIO(csv_text(rows))))
        assert len(parsed) == 4
        for row, fields in zip(rows, parsed[1:]):
            assert fields[0] == "cluster"
            assert int(fields[1]) == 3
            assert int(fields[2]) == row.cut.cli_bitmask
            assert fields[3] == row.cut.human()
            gammas = tuple(float(g) for g in fields[4].split(";"))
            assert gammas == row.gammas
            assert float(fields[5]) == row.min_eigenvalue
            assert float(fields[6]) == row.negativity_sum
            assert float(fields[7]) == row.formula_value
            assert float(fields[8]) == row.abs_error

    def test_gammas_field_follows_each_point(self):
        # lambda = -0.0 gives gamma -0.0 at K = 1 and 0.0 at K = 2: equal
        # tuples, different reprs, so the field must not be reused by value
        config = parse_config(
            base_config(schedule={"K": 1, "lambda": -0.0}, sweep={"parameter": "K", "values": [1, 2]})
        )
        rows = run_sweep(config)
        assert rows[0].gammas == rows[-1].gammas
        fields = [line[4] for line in csv.reader(io.StringIO(csv_text(rows)))][1:]
        assert fields == [";".join(map(repr, row.gammas)) for row in rows]
        assert fields[0] == "-0.0;-0.0;-0.0" and fields[-1] == "0.0;0.0;0.0"

    def test_blank_fields_for_missing_formula(self):
        config = parse_config(
            base_config(family="cluster", n_qubits=4, schedule={"K": 1, "lambda": 0.7})
        )
        line = csv_text(run_single(config)).splitlines()[1]
        assert line.endswith(",,")

    def test_byte_identical_across_runs(self):
        config = parse_config(
            base_config(
                family="w",
                sweep={"parameter": "lambda", "values": [0.3, 0.6, 0.9]},
            )
        )
        assert csv_text(run_sweep(config)) == csv_text(run_sweep(config))


class TestGoldenCSV:
    """Stored `decohere single` and `decohere sweep` output.

    Refactors of the numerical kernels or of config parsing must reproduce
    these bytes exactly. The CSVs were regenerated twice. First, when the
    rows moved from a dense eigensolve of the dephased density matrix to the
    families' structured partial-transpose spectra: that moved the last bits
    of the floats (at most 1.3e-15, in cluster8), and
    test_rows_match_dense_oracle, committed before the regeneration, checks
    every row against the dense route to 1e-13. Second, when GHZ and W rows
    stopped carrying a closed form (their kernels are those closed forms):
    in the five GHZ and W files only formula_value and abs_error changed, to
    blank. Any other change to these bytes is a regression. The sweep files
    pin the homogeneous gamma = lambda**K and Phi = K*phi mod 2*pi
    arithmetic for lambda, K and n_qubits sweeps; ghz_n is the paper's GHZ
    decay over n = 2..8 at gamma = 0.9**2.
    """

    @pytest.mark.parametrize("name", SINGLE_GOLDENS + SWEEP_GOLDENS)
    def test_rows_match_dense_oracle(self, name):
        # every row of the code under test against the explicit dense route
        config = load_config(str(GOLDEN / f"{name}.yaml"))
        run = run_single if config.sweep is None else run_sweep
        got, want = run(config), dense_rows(config)
        assert len(got) == len(want)
        for row, ref in zip(got, want):
            assert (row.family, row.n_qubits, row.cut, row.gammas) == (
                ref.family,
                ref.n_qubits,
                ref.cut,
                ref.gammas,
            )
            for field in ("min_eigenvalue", "negativity_sum", "formula_value", "abs_error"):
                value, expected = getattr(row, field), getattr(ref, field)
                if expected is None:
                    assert value is None, (row.cut.human(), field)
                else:
                    assert abs(value - expected) <= 1e-13, (row.cut.human(), field)

    @pytest.mark.parametrize("name", SINGLE_GOLDENS + BLOCK_GOLDENS)
    def test_rows_byte_identical(self, name):
        expected = (GOLDEN / f"{name}.csv").read_bytes().decode()
        assert csv_text(run_single(load_config(str(GOLDEN / f"{name}.yaml")))) == expected

    @pytest.mark.parametrize("name", SWEEP_GOLDENS)
    def test_sweep_rows_byte_identical(self, name):
        expected = (GOLDEN / f"{name}.csv").read_bytes().decode()
        assert csv_text(run_sweep(load_config(str(GOLDEN / f"{name}.yaml")))) == expected


class TestCLI:
    def run_cli(self, *args, cwd=None):
        return run_python("-m", "decohere", *args, cwd=cwd)

    def write_yaml(self, tmp_path, text):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        return str(path)

    def test_single_prints_csv(self, tmp_path):
        path = self.write_yaml(
            tmp_path,
            "family: ghz\nn_qubits: 2\nschedule:\n  K: 1\n  lambda: 1.0\n",
        )
        proc = self.run_cli("single", "--config", path)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1].startswith("ghz,2,1,1|2,")
        assert "-0.5" in lines[1]

    def test_sweep_writes_file(self, tmp_path):
        path = self.write_yaml(
            tmp_path,
            "family: ghz\nn_qubits: 2\ncuts: [1]\n"
            "schedule:\n  K: 1\n  lambda: 0.9\n"
            "sweep:\n  parameter: n_qubits\n  values: [2, 3, 4]\n",
        )
        out = tmp_path / "rows.csv"
        proc = self.run_cli("sweep", "--config", path, "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert [line.split(",")[1] for line in lines[1:]] == ["2", "3", "4"]

    def test_single_prints_the_cluster4_golden(self):
        # the console path end to end, as CI runs the installed package
        proc = self.run_cli("single", "--config", str(GOLDEN / "cluster4.yaml"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "cluster4.csv").read_text()

    def test_sweep_writes_the_ghz_decay_golden(self, tmp_path):
        # the paper's GHZ decay over n = 2..8, written with --out
        out = tmp_path / "ghz_n.csv"
        proc = self.run_cli("sweep", "--config", str(GOLDEN / "ghz_n.yaml"), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == (GOLDEN / "ghz_n.csv").read_bytes()

    def test_config_error_exits_2(self, tmp_path):
        path = self.write_yaml(
            tmp_path,
            "family: ghz\nn_qubits: 2\nschedule:\n  K: 1\n  lambda: 1.7\n",
        )
        proc = self.run_cli("single", "--config", path)
        assert proc.returncode == 2
        assert "lambda" in proc.stderr

    @pytest.mark.parametrize(
        "text, key",
        [
            ("family: ghz\nn_qubits: 2\nfamily: w\nschedule:\n  K: 1\n  lambda: 0.9\n", "family"),
            ("family: ghz\nn_qubits: 2\nschedule:\n  K: 1\n  lambda: 0.9\n  lambda: 0.5\n", "lambda"),
        ],
    )
    def test_repeated_key_exits_2(self, tmp_path, text, key):
        # YAML loading alone would keep the last value and run something else
        proc = self.run_cli("single", "--config", self.write_yaml(tmp_path, text))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"decohere: repeated key '{key}'")
        assert proc.stdout == ""

    def test_non_finite_phase_exits_2(self, tmp_path):
        # a NaN phi, and a finite phi whose product with K overflows
        for schedule in (
            "K: 1\n  lambda: 0.9\n  phi: .nan",
            "K: 10\n  lambda: 0.9\n  phi: 1.0e+308",
        ):
            path = self.write_yaml(
                tmp_path, f"family: ghz\nn_qubits: 2\nschedule:\n  {schedule}\n"
            )
            proc = self.run_cli("single", "--config", path)
            assert proc.returncode == 2
            assert "decohere: schedule.phi" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_huge_collision_count_exits_2(self, tmp_path):
        # an integer K past the float range would overflow lambda**K
        path = self.write_yaml(
            tmp_path, f"family: ghz\nn_qubits: 2\nschedule:\n  K: {'9' * 401}\n  lambda: 0.9\n"
        )
        proc = self.run_cli("single", "--config", path)
        assert proc.returncode == 2
        assert "decohere: schedule.K" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "content",
        [b"family: ghz\nn_qubits: 2\n\xff\xfe: 1\n", b"[" * 3000 + b"]" * 3000],
        ids=["not-utf8", "deep-nesting"],
    )
    def test_undecodable_config_exits_2(self, tmp_path, content):
        path = tmp_path / "config.yaml"
        path.write_bytes(content)
        proc = self.run_cli("single", "--config", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"decohere: config file {path}")
        assert "Traceback" not in proc.stderr

    def test_missing_config_file_exits_2(self, tmp_path):
        proc = self.run_cli("single", "--config", str(tmp_path / "absent.yaml"))
        assert proc.returncode == 2
        assert proc.stderr.strip()

    def test_unwritable_output_exits_2(self, tmp_path):
        path = self.write_yaml(
            tmp_path,
            "family: ghz\nn_qubits: 2\ncuts: [1]\n"
            "schedule:\n  K: 1\n  lambda: 0.9\n"
            "sweep:\n  parameter: K\n  values: [1, 2]\n",
        )
        proc = self.run_cli(
            "sweep", "--config", path, "--out", str(tmp_path / "no-dir" / "x.csv")
        )
        assert proc.returncode == 2
        assert proc.stderr.strip()

    def test_unwritable_output_fails_before_any_point_runs(self, tmp_path, monkeypatch, capsys):
        path = self.write_yaml(
            tmp_path,
            "family: ghz\nn_qubits: 2\ncuts: [1]\n"
            "schedule:\n  K: 1\n  lambda: 0.9\n"
            "sweep:\n  parameter: K\n  values: [1, 2]\n",
        )

        def no_run(config):
            raise AssertionError("run_sweep called before --out was opened")

        monkeypatch.setattr(cli, "run_sweep", no_run)
        out = tmp_path / "no-dir" / "x.csv"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"decohere: cannot write {out}")

    def test_sweep_without_sweep_block_leaves_no_file(self, tmp_path):
        path = self.write_yaml(
            tmp_path, "family: ghz\nn_qubits: 2\nschedule:\n  K: 1\n  lambda: 0.9\n"
        )
        out = tmp_path / "x.csv"
        proc = self.run_cli("sweep", "--config", path, "--out", str(out))
        assert proc.returncode == 2
        assert "no sweep block" in proc.stderr
        assert not out.exists()

    def test_missing_subcommand_exits_2(self):
        proc = self.run_cli()
        assert proc.returncode == 2

    def test_verify_small_run_passes(self):
        proc = self.run_cli("verify", "--max-n", "3", "--seed", "11")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
        assert "FAIL" not in proc.stdout

    @pytest.mark.parametrize("bad", ["1", "13"])
    def test_verify_rejects_bad_max_n(self, bad):
        proc = self.run_cli("verify", "--max-n", bad)
        assert proc.returncode == 2

    def test_verify_rejects_negative_seed(self):
        proc = self.run_cli("verify", "--max-n", "2", "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("decohere: --seed")
        assert "Traceback" not in proc.stderr
