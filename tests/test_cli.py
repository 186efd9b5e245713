"""Command-line interface: exit codes, JSON payloads, file handling."""

import json
from pathlib import Path

import pytest

from expanderlp.cli import EXIT_DECODE_FAILURE, EXIT_INPUT_ERROR, EXIT_OK, main

INSTANCE = ["--graph", "cycle:2", "--code-a", "repetition:3:2",
            "--code-b", "repetition:3:2"]
K66 = ["--graph", "complete:6", "--code-a", "repetition:2:6",
       "--code-b", "repetition:2:6"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decode_success(capsys):
    code, out, _ = run_cli(capsys, "decode", *INSTANCE, "--received", "0 0 0 1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "codeword"
    assert payload["codeword"] == [0, 0, 0, 0]
    assert payload["distance"] == 1
    assert payload["objective"] == pytest.approx(2.0)


def test_decode_reads_word_file(tmp_path, capsys):
    word = tmp_path / "received.word"
    word.write_text("0 0 0 1\n")
    code, out, _ = run_cli(capsys, "decode", *INSTANCE, "--received", str(word))
    assert code == EXIT_OK
    assert json.loads(out)["distance"] == 1


def test_decode_bad_word_is_input_error(capsys):
    code, _, err = run_cli(capsys, "decode", *INSTANCE, "--received", "0 0 9 1")
    assert code == EXIT_INPUT_ERROR
    assert "error" in err


def test_decode_fractional_optimum_exit_code(monkeypatch, capsys):
    # none of the built-in toy instances produce a fractional optimum, so
    # stub the solver to exercise the failure mapping
    from expanderlp import cli as cli_module
    from expanderlp.lp_decoder import DecodeResult

    def fractional(code, y, int_tol, feas_tol, opt_tol):
        return DecodeResult(status="fractional-failure", codeword=None,
                            raw_f=None, raw_w=None, objective=1.5,
                            lp_iterations=4)

    monkeypatch.setattr(cli_module, "decode", fractional)
    code, out, _ = run_cli(capsys, "decode", *INSTANCE, "--received", "0 0 0 1")
    assert code == EXIT_DECODE_FAILURE
    payload = json.loads(out)
    assert payload["status"] == "fractional-failure"
    assert payload["codeword"] is None
    assert payload["distance"] is None


def test_decode_bad_graph_spec(capsys):
    code, _, err = run_cli(capsys, "decode", "--graph", "donut:4",
                           "--code-a", "repetition:3:2",
                           "--code-b", "repetition:3:2",
                           "--received", "0 0 0 0")
    assert code == EXIT_INPUT_ERROR


def test_decode_takes_an_inline_word_longer_than_a_file_name(capsys):
    # 240 edges: the inline word is 479 characters, past any file-name limit
    code, out, _ = run_cli(capsys, "decode", "--graph", "random:40:6:1",
                           "--code-a", "repetition:2:6", "--code-b", "repetition:2:6",
                           "--received", " ".join(["0"] * 240))
    assert code == EXIT_OK
    assert json.loads(out)["status"] == "codeword"


@pytest.mark.parametrize("position, kind", [(1, "graph"), (3, "code")])
def test_long_garbage_spec_is_unrecognized(position, kind, capsys):
    argv = list(INSTANCE)
    argv[position] = "x" * 300      # --graph or --code-a
    code, _, err = run_cli(capsys, "decode", *argv, "--received", "0 0 0 0")
    assert code == EXIT_INPUT_ERROR
    assert f"unrecognized {kind} spec" in err


def test_decode_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "--out", str(target),
                           "decode", *INSTANCE, "--received", "0 0 0 1")
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["status"] == "codeword"


def test_certify_peel_success(capsys):
    code, out, _ = run_cli(capsys, "certify", *K66,
                           "--sent", " ".join(["0"] * 36),
                           "--received", " ".join(["1"] + ["0"] * 35))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["witness_found"] is True
    assert payload["mode"] == "peel"
    assert payload["epsilon"] == "1/1000000"


def test_certify_core_reported(capsys):
    code, out, _ = run_cli(capsys, "certify", *INSTANCE,
                           "--sent", "0 0 0 0", "--received", "1 0 0 0")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["witness_found"] is False
    assert payload["core"]["edges"] == [0]


def test_certify_epsilon_flag(capsys):
    code, out, _ = run_cli(capsys, "--epsilon", "1/2048", "certify", *K66,
                           "--sent", " ".join(["0"] * 36),
                           "--received", " ".join(["1"] + ["0"] * 35))
    assert code == EXIT_OK
    assert json.loads(out)["epsilon"] == "1/2048"


@pytest.mark.parametrize("epsilon", ["0", "1/2"], ids=["zero", "above-the-bound"])
def test_certify_epsilon_outside_the_proven_range_is_input_error(capsys, epsilon):
    # 1/(2*Delta) = 1/12 on K_{6,6}: an input error, not "no witness"
    code, out, err = run_cli(capsys, "--epsilon", epsilon, "certify", *K66,
                             "--sent", " ".join(["0"] * 36),
                             "--received", " ".join(["0"] * 36))
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert f"epsilon {epsilon} " in err and "1/12" in err


def test_certify_epsilon_dividing_by_zero_is_input_error(capsys):
    code, out, err = run_cli(capsys, "--epsilon", "1/0", "certify", *K66,
                             "--sent", " ".join(["0"] * 36),
                             "--received", " ".join(["0"] * 36))
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: ") and "1/0" in err


@pytest.mark.parametrize("flag", ["--feas-tol", "--opt-tol", "--int-tol"])
def test_decode_nan_tolerance_is_input_error(capsys, flag):
    code, out, err = run_cli(capsys, flag, "nan", "decode", *INSTANCE, "--received", "0 0 0 1")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: ") and "must be finite and >= 0" in err


def test_certify_rejects_non_codeword_sent(capsys):
    code, _, err = run_cli(capsys, "certify", *INSTANCE,
                           "--sent", "0 0 0 1", "--received", "0 0 0 0")
    assert code == EXIT_INPUT_ERROR


def test_core_command(capsys):
    code, out, _ = run_cli(capsys, "core", *INSTANCE,
                           "--sent", "0 0 0 0", "--received", "1 0 0 0")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["terminated_empty"] is False
    assert payload["core_found"] is True
    assert payload["core"]["edges"] == [0]
    assert payload["core"]["zeta_a"] == "1/4"


def test_core_empty_on_clean_word(capsys):
    code, out, _ = run_cli(capsys, "core", *INSTANCE,
                           "--sent", "0 0 0 0", "--received", "0 0 0 0")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["terminated_empty"] is True
    assert payload["core_found"] is False


def test_orient_success(capsys):
    code, out, _ = run_cli(capsys, "orient", "--graph", "complete:3",
                           "--edges", "0,1,2", "--cap-a", "1", "--cap-b", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["oriented"] is True
    assert len(payload["head_side"]) == 3
    assert payload["violations"] == []


def test_orient_failure_payload(capsys):
    code, out, _ = run_cli(capsys, "orient", "--graph", "complete:3",
                           "--edges", "0 1 2", "--cap-a", "1", "--cap-b", "0")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["oriented"] is False
    assert payload["induced_edges"] > payload["capacity"]


def test_scan_command(capsys):
    code, out, _ = run_cli(capsys, "scan", *INSTANCE)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["total_words"] == 81
    assert payload["mismatches"] == []


def test_scan_rejects_oversized_space(capsys):
    code, _, err = run_cli(capsys, "scan", *INSTANCE, "--max-words", "10")
    assert code == EXIT_INPUT_ERROR


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--graph", "complete:6",
                           "--code-a", "repetition:2:6",
                           "--code-b", "repetition:2:6")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["orientation_fraction"] == pytest.approx(1 / 9)
    assert payload["theta_a"] == {"fraction": "2/3", "value": pytest.approx(2 / 3)}


K11 = ["--graph", "complete:1", "--code-a", "repetition:2:1",
       "--code-b", "repetition:2:1"]


def test_bounds_on_k11_notes_the_distance_bound(capsys):
    # K1,1 has gamma = -1, outside the distance bound's [0, 1)
    code, out, _ = run_cli(capsys, "bounds", *K11)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["distance_lower_bound"] is None
    assert payload["distance_bound_positive"] is None
    assert "gamma must lie in [0, 1)" in payload["notes"]["distance_lower_bound"]


def test_sweep_on_k11_writes_its_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "sweep", *K11, "--weights", "0,1", "--trials", "2",
                           "--out-csv", str(csv_path))
    assert code == EXIT_OK
    assert json.loads(out)["analytic"]["distance_lower_bound_edges"] is None
    assert len(csv_path.read_text().splitlines()) == 5


def test_tables_command(capsys):
    code, out, _ = run_cli(capsys, "tables")
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].startswith("rate")
    assert len(lines) == 10


def test_sweep_command(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "--seed", "3", "sweep",
                           "--graph", "complete:3",
                           "--code-a", "parity:2:3", "--code-b", "parity:2:3",
                           "--weights", "0,1", "--trials", "2",
                           "--out-csv", str(csv_path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["per_weight"]["0"]["decode_success_rate"] == 1.0
    assert csv_path.read_text().startswith("weight,trial")


def test_sweep_seed_changes_samples(tmp_path, capsys):
    args = ("sweep", "--graph", "complete:3",
            "--code-a", "parity:2:3", "--code-b", "parity:2:3",
            "--weights", "3", "--trials", "4", "--no-certify")
    _, out_a, _ = run_cli(capsys, "--seed", "1", *args)
    _, out_b, _ = run_cli(capsys, "--seed", "2", *args)
    assert out_a != out_b


def test_sweep_repeated_weight_is_input_error(capsys):
    code, out, err = run_cli(capsys, "sweep", "--graph", "complete:3",
                             "--code-a", "parity:2:3", "--code-b", "parity:2:3",
                             "--weights", "1,1", "--trials", "2")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert "repeat" in err


def test_tables_bad_step_is_input_error(capsys):
    code, out, err = run_cli(capsys, "tables", "--step", "1.5")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert "step" in err


# -- the README examples against their recorded outputs ---------------------------

GOLDEN = json.loads((Path(__file__).parent / "golden" / "readme_cli.json").read_text())


def _without_runtimes(summary):
    for row in summary["per_weight"].values():
        row.pop("mean_runtime_ms")
    return summary


@pytest.mark.parametrize("name", sorted(GOLDEN["cases"]))
def test_readme_example_matches_golden(name, tmp_path, monkeypatch, capsys):
    case = GOLDEN["cases"][name]
    monkeypatch.chdir(tmp_path)
    for filename, text in GOLDEN["files"].items():
        (tmp_path / filename).write_text(text)
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == case["exit"]
    if "summary" in case:
        assert _without_runtimes(json.loads(out)) == case["summary"]
        assert (tmp_path / "runs.csv").read_text() == case["csv"]
    else:
        assert out == case["stdout"]
