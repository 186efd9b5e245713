"""Experiment configs, sweeps, and the analytic-threshold report."""

import json

import numpy as np
import pytest

from expanderlp import (
    GF,
    DomainError,
    bounds_report,
    format_tables,
    repetition,
    resolve_code,
    resolve_graph,
    resolve_instance,
    sample_error_pattern,
)
from expanderlp.harness import CSV_COLUMNS, ExperimentConfig, run_sweep


# -- descriptor strings --------------------------------------------------------------


def test_resolve_graph_builtins():
    assert resolve_graph("complete:3").num_edges == 9
    assert resolve_graph("cycle:4").delta == 2
    g1 = resolve_graph("random:8:3:5")
    g2 = resolve_graph("random:8:3:5")
    assert g1.edges() == g2.edges()


def test_resolve_graph_from_file(tmp_path):
    g = resolve_graph("complete:2")
    path = tmp_path / "square.graph"
    path.write_text(g.to_text())
    assert resolve_graph(f"file:{path}").edges() == g.edges()
    assert resolve_graph(str(path)).edges() == g.edges()


def test_resolve_graph_rejects_unknown():
    with pytest.raises(DomainError):
        resolve_graph("petersen:10")
    with pytest.raises(DomainError):
        resolve_graph("random:8:3")


def test_resolve_code_builtins():
    assert resolve_code("repetition:2:6").dimension == 1
    assert resolve_code("parity:3:4").dimension == 3
    grs = resolve_code("grs:7:6:2")
    assert grs.min_distance()[0] == 5


def test_resolve_code_length_check():
    assert resolve_code("repetition:2:6", length=6).length == 6
    with pytest.raises(DomainError):
        resolve_code("repetition:2:6", length=4)


def test_resolve_code_from_file(tmp_path):
    code = repetition(GF(3), 2)
    path = tmp_path / "rep.code"
    path.write_text(code.to_text())
    assert resolve_code(f"file:{path}").num_codewords == 3


def test_resolve_instance_wires_lengths():
    code = resolve_instance("complete:3", "parity:2:3", "parity:2:3")
    assert code.num_edges == 9
    with pytest.raises(DomainError):
        resolve_instance("complete:3", "parity:2:4", "parity:2:3")


# -- error sampling ------------------------------------------------------------------


def test_sample_error_pattern_weights(k33_parity2, rng):
    c = np.zeros(9, dtype=np.int64)
    for weight in (0, 1, 4, 9):
        y = sample_error_pattern(k33_parity2, c, weight, rng)
        assert int(np.count_nonzero(y != c)) == weight


def test_sample_error_pattern_deterministic(k66_grs):
    c = k66_grs.random_codeword(np.random.default_rng(1))
    a = sample_error_pattern(k66_grs, c, 5, np.random.default_rng(9))
    b = sample_error_pattern(k66_grs, c, 5, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_sample_error_pattern_symbols_in_range(k66_grs, rng):
    c = k66_grs.random_codeword(rng)
    y = sample_error_pattern(k66_grs, c, 10, rng)
    assert y.min() >= 0 and y.max() < 7


# -- sweeps --------------------------------------------------------------------------


def small_config(**overrides):
    base = dict(graph="complete:3", code_a="parity:2:3", code_b="parity:2:3",
                weights=(0, 1), trials=3, seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_sweep_csv_is_reproducible():
    a = run_sweep(small_config())
    b = run_sweep(small_config())
    assert a.csv_text == b.csv_text
    assert a.csv_text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(a.csv_text.splitlines()) == 1 + 2 * 3


def test_sweep_weight_zero_always_succeeds():
    result = run_sweep(small_config())
    for record in result.records:
        if record.weight == 0:
            assert record.decode_status == "codeword"
            assert record.decoded_correct
    assert result.summary["per_weight"]["0"]["decode_success_rate"] == 1.0


def test_sweep_worker_count_does_not_change_results():
    serial = run_sweep(small_config())
    parallel = run_sweep(small_config(workers=2))
    assert serial.csv_text == parallel.csv_text


def test_sweep_different_seeds_differ():
    a = run_sweep(small_config(weights=(3,), trials=6))
    b = run_sweep(small_config(weights=(3,), trials=6, seed=6))
    assert a.csv_text != b.csv_text


def test_sweep_oracle_agreement_checked():
    result = run_sweep(small_config(check_oracle=True))
    for record in result.records:
        assert record.oracle_agreement is True
    cell = result.csv_text.splitlines()[1].split(",")
    assert cell[4] == "true"


def test_sweep_writes_files(tmp_path):
    csv_path = tmp_path / "trials.csv"
    summary_path = tmp_path / "summary.json"
    result = run_sweep(small_config(out_csv=str(csv_path),
                                    out_summary=str(summary_path)))
    assert csv_path.read_text() == result.csv_text
    loaded = json.loads(summary_path.read_text())
    assert loaded["per_weight"]["1"]["trials"] == 3


def test_sweep_summary_carries_analytic_thresholds():
    result = run_sweep(small_config())
    analytic = result.summary["analytic"]
    assert analytic["num_edges"] == 9
    assert analytic["rate_lower_bound"] == pytest.approx(1 / 3)
    assert analytic["distance_lower_bound_edges"] == pytest.approx(4.0)
    assert analytic["core_threshold_edges"] == pytest.approx(0.25)
    # degree-3 repetition-free locals leave no valid orientation cap
    assert analytic["orientation_threshold_edges"] is None
    assert "theta" in analytic["notes"]


def test_sweep_validates_weights():
    with pytest.raises(DomainError):
        run_sweep(small_config(weights=(20,)))
    with pytest.raises(DomainError):
        run_sweep(small_config(trials=0))


@pytest.mark.parametrize("overrides", [dict(weights=(1.5,)), dict(weights=(float("nan"),)),
                                       dict(weights=(-1,)), dict(weights=((0, 1),)),
                                       dict(trials=1.5), dict(trials=-1), dict(trials="3"),
                                       dict(weights=("1",))])
def test_sweep_rejects_weights_and_trials_that_are_not_integers(overrides):
    # weights=[1.5] once failed in np.random.default_rng with a TypeError
    # and trials=1.5 in range()
    with pytest.raises(DomainError):
        run_sweep(small_config(**overrides))


def test_sweep_runs_integer_valued_floats_as_their_integers():
    as_floats = run_sweep(small_config(weights=(0.0, 1.0), trials=3.0))
    assert as_floats.csv_text == run_sweep(small_config()).csv_text
    assert as_floats.summary["config"]["weights"] == [0, 1]
    assert as_floats.summary["config"]["trials"] == 3
    assert list(as_floats.summary["per_weight"]) == ["0", "1"]


def test_sweep_rejects_repeated_weights(tmp_path):
    # [1, 1] once ran every trial twice: the summary reported 4 trials at
    # weight 1 and the CSV held four rows
    csv_path = tmp_path / "out.csv"
    with pytest.raises(DomainError, match="repeat"):
        run_sweep(small_config(weights=(1, 1), trials=2, out_csv=str(csv_path)))
    with pytest.raises(DomainError, match="repeat"):
        run_sweep(small_config(weights=(0, 1, 0)))
    assert not csv_path.exists()


def test_runtime_stays_out_of_csv():
    result = run_sweep(small_config())
    assert "runtime" not in result.csv_text
    assert result.records[0].runtime_ms >= 0.0
    for per_weight in result.summary["per_weight"].values():
        assert per_weight["mean_runtime_ms"] >= 0.0


# -- analytic report and published tables ---------------------------------------------


def test_bounds_report_k33():
    graph = resolve_graph("complete:3")
    code = resolve_code("parity:2:3")
    report = bounds_report(graph, code, code)
    assert report.gamma == pytest.approx(0.0, abs=1e-9)
    assert report.rate_lower_bound == pytest.approx(1 / 3)
    assert report.distance_lower_bound == pytest.approx(4 / 9)
    assert report.distance_bound_positive
    assert report.core_fraction == pytest.approx(1 / 36)
    assert report.orientation_fraction is None
    assert report.theta_a is None


def test_bounds_report_k66_repetition():
    graph = resolve_graph("complete:6")
    code = resolve_code("repetition:2:6")
    report = bounds_report(graph, code, code)
    assert report.theta_a == pytest.approx(2 / 3)
    assert report.orientation_fraction == pytest.approx(1 / 9)
    assert report.core_fraction == pytest.approx(1 / 16)
    assert report.notes == {}


def test_format_tables_shape():
    text = format_tables()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert lines[0].startswith("rate")
    assert len(lines) == 10
    first = lines[1].split()
    assert first[0] == "0.1"
