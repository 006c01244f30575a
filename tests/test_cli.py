import json
import math
import tracemalloc

import pytest

from chainlock import cli, constructions
from chainlock.cli import main
from chainlock.scenario import scenario_to_json_dict
from chainlock.qcore import beta_quantum, model_from_json_dict, model_to_json_dict
from chainlock.constructions import optimal_model
from chainlock.errors import ConstructionFailedError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_json_line(out, err):
    # a usage error prints nothing on stdout and one {"error": ...} line on stderr
    assert out == ""
    assert len(err.splitlines()) == 1
    assert list(json.loads(err)) == ["error"]


def test_bound_n3(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["alpha_closed"] == 6
    assert data["alpha_bruteforce"] == 6
    assert data["match"] is True
    assert data["witness"]["alice"] == [1, 1, 1]


def test_bound_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "2", "--exhaustive")
    assert code == 0
    assert json.loads(out)["lhv_max"] == 2


def test_bound_usage_error(capsys):
    code, _, err = run_cli(capsys, "bound", "--n", "1")
    assert code == 2
    assert "error" in json.loads(err)
    for threads in ("abc", "0", "-5", "2.0", "inf"):
        code, _, _ = run_cli(capsys, "bound", "--n", "2", "--exhaustive", "--threads", threads)
        assert code == 2


@pytest.mark.parametrize("argv", [["--n", "25"], ["--n", "5", "--exhaustive"]])
def test_bound_past_limit_is_usage_error(capsys, argv):
    # BRUTEFORCE_MAX_N and EXHAUSTIVE_MAX_N are checked before any computation
    code, out, err = run_cli(capsys, "bound", *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "supports n <=" in json.loads(err)["error"]


def test_missing_subcommand_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "bound")  # missing --n
    assert code == 2
    assert_one_json_line(out, err)


def test_dump_scenario(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "3", "--dump-scenario")
    assert code == 0
    data = json.loads(out)
    assert data["signs"][0] == [1, 1, 1]
    assert data["bob_inputs"][1] == [1, 2]


@pytest.mark.parametrize("n", range(2, 13))
def test_dump_scenario_bytes(capsys, n):
    code, out, _ = run_cli(capsys, "bound", "--n", str(n), "--dump-scenario")
    assert code == 0
    assert out == json.dumps(scenario_to_json_dict(n)) + "\n"


def test_dump_scenario_memory_is_bounded(tmp_path):
    # the n=16 term table's two arrays take 7.75 MB; the dump writes them a
    # chunk of rows at a time, never the whole payload as Python lists or text
    path = tmp_path / "scenario.json"
    tracemalloc.start()
    try:
        code = main(["bound", "--n", "16", "--dump-scenario", "--out", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2 ** 20
    assert path.read_text() == json.dumps(scenario_to_json_dict(16)) + "\n"


@pytest.mark.parametrize("n", ["64", "1000"])
def test_dump_scenario_past_limit_is_usage_error(capsys, n):
    # the dump obeys bound's n limit: no empty table at n = 64, no numpy size error
    code, out, err = run_cli(capsys, "bound", "--n", n, "--dump-scenario")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == f"bound --dump-scenario supports n <= 24, got {n}"


def test_dump_scenario_limit_is_checked_before_any_table(capsys):
    # n = 25 would fill 6.6 GB of term tables; it is refused before building one
    tracemalloc.start()
    try:
        code = main(["bound", "--n", "25", "--dump-scenario"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "supports n <= 24" in json.loads(captured.err)["error"]
    assert peak < 2 ** 20


def test_quantum_n2(capsys):
    code, out, _ = run_cli(capsys, "quantum", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["beta"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert data["expected"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert max(data["residuals"]) < 1e-9


@pytest.mark.parametrize("m", [1, 2, 3])
def test_quantum_dump_model_reports_requested_pairs(capsys, m):
    code, out, _ = run_cli(capsys, "quantum", "--n", "2", "--pairs-per-source", str(m),
                           "--dump-model")
    assert code == 0
    data = json.loads(out)
    assert data["model"]["qubits_per_half"] == m
    assert len(data["model"]["bobs"][0][0]) == 4 ** m
    assert data["beta"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)  # printed to 12 digits
    assert max(data["residuals"]) < 1e-9


def test_quantum_n3_reports_failure(capsys):
    code, out, _ = run_cli(capsys, "quantum", "--n", "3")
    assert code == 1
    data = json.loads(out)
    assert data["beta"] == pytest.approx(4 * math.sqrt(2), abs=1e-6)
    assert data["expected"] == pytest.approx(4 * math.sqrt(3), abs=1e-9)
    assert "error" in data


@pytest.mark.parametrize("n", [3, 4])
def test_quantum_dump_model_on_failure(capsys, n):
    # a failed construction still dumps its model, last, as the success path does
    code, out, _ = run_cli(capsys, "quantum", "--n", str(n), "--dump-model")
    assert code == 1
    data = json.loads(out)
    assert list(data) == ["n", "beta", "expected", "residuals", "error", "terms", "model"]
    with pytest.raises(ConstructionFailedError) as exc:
        optimal_model(n)
    assert data["model"] == cli._round12(model_to_json_dict(exc.value.model))
    model = model_from_json_dict(data["model"])  # the dump loads back as a model
    assert cli._round12(model_to_json_dict(model)) == data["model"]
    beta, terms = beta_quantum(model)
    assert beta == pytest.approx(data["beta"], abs=1e-9)
    assert terms == pytest.approx(data["terms"], abs=1e-9)


@pytest.mark.parametrize("n", ["6", "9"])
def test_quantum_past_supported_n_is_usage_error(capsys, n):
    # SUPPORTED_N is checked before any computation, as bound checks its limit
    code, out, err = run_cli(capsys, "quantum", "--n", n)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert f"got {n}" in json.loads(err)["error"]


def test_quantum_over_budget_layout_fails_at_once(capsys):
    # the fit's byte check refuses six pairs per source before drawing a start
    code, out, err = run_cli(capsys, "quantum", "--n", "3", "--pairs-per-source", "6")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "limit is" in json.loads(err)["error"]


@pytest.mark.parametrize("n", ["4", "5"])
def test_quantum_fit_builds_no_state_vector(capsys, monkeypatch, n):
    # the fitter and the contracted beta read only the chain's layout
    from chainlock.qcore import BellChainState
    built = []
    build = BellChainState.amplitudes.func

    def spy(state):
        built.append(state.layout.total_qubits)
        return build(state)

    monkeypatch.setattr(BellChainState, "amplitudes", property(spy))
    constructions._fitted_construction.cache_clear()  # so the fit runs under the spy
    code, out, _ = run_cli(capsys, "quantum", "--n", n)
    assert code == 1
    assert "residuals" in json.loads(out)
    assert all(q <= 6 for q in built)


def test_seesaw_json_and_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "seesaw", "--n", "2", "--restarts", "3",
                           "--seed", "4", "--trace-csv", str(trace))
    assert code == 0
    data = json.loads(out)
    assert len(data["restart_betas"]) == 3
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "restart,iteration,beta"
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_certify_roundtrip(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json_dict(optimal_model(2))))
    code, out, _ = run_cli(capsys, "certify", "--model", str(path))
    assert code == 0
    assert json.loads(out)["certified"] is True
    for tol in ("-1", "0", "nan"):
        code, out, _ = run_cli(capsys, "certify", "--model", str(path), "--tol", tol)
        assert code == 2
        assert out == ""


def test_certify_uncertified_model_exits_1(tmp_path, capsys):
    from chainlock.seesaw import random_model
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json_dict(random_model(2, seed=5))))
    code, out, _ = run_cli(capsys, "certify", "--model", str(path))
    assert code == 1
    assert json.loads(out)["certified"] is False
    for tol in ("inf", "-inf"):  # --tol inf certified this model, exit 0
        code, out, _ = run_cli(capsys, "certify", "--model", str(path), "--tol", tol)
        assert code == 2
        assert out == ""


def test_certify_missing_file(capsys):
    code, _, err = run_cli(capsys, "certify", "--model", "/nonexistent.json")
    assert code == 1
    assert "error" in json.loads(err)


def _bad_entries_model():
    data = model_to_json_dict(optimal_model(2))
    data["alice"][0][0] = [1.0, 0.0]  # a row of numbers, not [re, im] pairs
    return data


def _optimal_n2_with(**fields):
    # int() would accept 2.7, "2" or True and certify a model the file does not describe
    return json.dumps({**model_to_json_dict(optimal_model(2)), **fields})


@pytest.mark.parametrize("text", ["{}", "[1, 2]", json.dumps(_bad_entries_model()),
                                  '{"n": 1e400}', _optimal_n2_with(n=2.7),
                                  _optimal_n2_with(n="2"), _optimal_n2_with(qubits_per_half=1.9),
                                  _optimal_n2_with(qubits_per_half=True)],
                         ids=["empty-object", "list", "row-not-pairs", "n-overflows",
                              "n-float", "n-string", "qubits-float", "qubits-bool"])
def test_certify_malformed_model_exits_1(tmp_path, capsys, text):
    path = tmp_path / "model.json"
    path.write_text(text)  # 1e400 parses as inf, which is not an integer
    code, out, err = run_cli(capsys, "certify", "--model", str(path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])


@pytest.mark.parametrize("entry, message", [(1e200, "not dichotomic"), (math.nan, "non-finite")])
def test_certify_non_finite_model_exits_1(tmp_path, capsys, entry, message):
    # the observable rule names the bad entry, not a later symptom such as a
    # signed edge combination that annihilates the state
    data = model_to_json_dict(optimal_model(2))
    data["alice"][0][0][0] = [entry, 0.0]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "certify", "--model", str(path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert message in json.loads(lines[0])["error"]


def test_sweep_csv_header_and_ratio(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n-min", "2", "--n-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,alpha,beta_opt,ratio,beta_constructed,certified"
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[3]) > 1.0


def test_sweep_json_range_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--n-min", "5", "--n-max", "3")
    assert code == 2
    assert "error" in json.loads(err)


def test_sweep_past_float_range_is_usage_error(capsys):
    from chainlock.nlocal import alpha_closed_form
    from chainlock.soscert import tsirelson_ceiling
    # first n whose row overflows: the ratio at 1021, the ceiling itself at 1025
    tsirelson_ceiling(1020) / alpha_closed_form(1020)
    with pytest.raises(OverflowError):
        tsirelson_ceiling(1021) / alpha_closed_form(1021)
    with pytest.raises(OverflowError):
        tsirelson_ceiling(1025)
    for n_min, n_max in (("2", "1021"), ("1025", "1030"), ("2", str(10 ** 18))):
        code, out, err = run_cli(capsys, "sweep", "--n-min", n_min, "--n-max", n_max,
                                 "--output", "json")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "n=1021" in json.loads(err)["error"]


def test_memory_error_is_one_json_line(capsys, monkeypatch):
    import chainlock.cli as cli

    def exhausted(args):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(cli, "_cmd_seesaw", exhausted)
    code, out, err = run_cli(capsys, "seesaw", "--n", "2")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "Unable to allocate 8.00 TiB for an array"}


@pytest.mark.parametrize("output", ["csv", "json"])
def test_sweep_out_file_matches_stdout(tmp_path, capsys, output):
    argv = ["sweep", "--n-min", "2", "--n-max", "3", "--output", output]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    out_path = tmp_path / "rows.txt"
    code, printed, _ = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert printed == ""
    assert out_path.read_bytes() == out.encode()


def test_sweep_json_output(tmp_path, capsys):
    out_path = tmp_path / "rows.json"
    code, _, _ = run_cli(capsys, "sweep", "--n-min", "2", "--n-max", "2",
                         "--output", "json", "--out", str(out_path))
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert rows[0]["n"] == 2
    assert rows[0]["certified"] is True
    assert rows[0]["beta_constructed"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)


def test_twelve_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "quantum", "--n", "2")
    data = json.loads(out)
    assert data["beta"] == float(f"{2 * math.sqrt(2):.12g}")


def test_seesaw_require_certified_suboptimal(capsys):
    # one restart from this seed converges to a suboptimal point, so the
    # certification gate must fail with exit code 1
    code, out, err = run_cli(capsys, "seesaw", "--n", "2", "--restarts", "1",
                             "--seed", "0", "--require-certified")
    assert code == 1
    assert "error" in json.loads(err)


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CHAINLOCK_THREADS", "2")
    code, out, _ = run_cli(capsys, "bound", "--n", "2", "--exhaustive")
    assert code == 0
    assert json.loads(out)["lhv_max"] == 2
    for bad in ("abc", "0", "-5", "2.0"):
        monkeypatch.setenv("CHAINLOCK_THREADS", bad)
        code, _, err = run_cli(capsys, "bound", "--n", "2", "--exhaustive")
        assert code == 2
        assert "CHAINLOCK_THREADS" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ["quantum", "--n", "2", "--threads", "1"],
    ["seesaw", "--n", "2", "--threads", "1"],
    ["certify", "--model", "model.json", "--threads", "1"],
    ["quantum", "--n", "2", "--construction", "jw"],
    ["quantum", "--n", "2", "--dump-scenario"],
    ["seesaw", "--n", "2", "--dump-scenario"],
    ["quantum", "--n", "2", "--evaluator", "dense"],
    [],
    ["nosuch"],
    ["bound", "--n", "x"],
    ["bound", "--n", "1"],
    ["quantum", "--n", "2.0"],
    ["bound", "--n", "2", "--bogus"],
    ["sweep", "--n-min", "1", "--n-max", "3"],
    ["sweep", "--n-min", "2", "--n-max", "3", "--output", "xml"],
])
def test_removed_options_are_usage_errors(capsys, argv):
    # --threads and --dump-scenario belong to bound alone, and quantum has no
    # --construction or --evaluator; argparse's own errors are JSON lines too
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert_one_json_line(out, err)



@pytest.mark.parametrize("command, option", [
    ("seesaw", "--restarts"), ("seesaw", "--max-iterations"), ("seesaw", "--tol"),
    ("seesaw", "--pairs-per-source"), ("quantum", "--pairs-per-source"),
])
@pytest.mark.parametrize("value", ["0", "-1", "abc", "inf", "nan"])
def test_nonpositive_numbers_are_usage_errors(capsys, command, option, value):
    # rejected while parsing, before any computation starts
    code, out, err = run_cli(capsys, command, "--n", "2", option, value)
    assert code == 2
    assert out == ""
    assert_one_json_line(out, err)


def test_negative_seed_is_usage_error(capsys):
    code, out, _ = run_cli(capsys, "seesaw", "--n", "2", "--seed", "-3")
    assert code == 2
    assert out == ""


def test_seesaw_beyond_dense_limit(capsys):
    # n=6 on the default layout is 36 qubits; the seesaw only contracts
    code, out, _ = run_cli(capsys, "seesaw", "--n", "6", "--restarts", "1",
                           "--max-iterations", "1")
    assert code == 0
    data = json.loads(out)
    assert data["best_model"]["qubits_per_half"] == 3
    assert len(data["trace"]) == 2


@pytest.mark.parametrize("flag", ["--trace-csv", "--out"])
def test_seesaw_unwritable_output_fails_before_optimizing(tmp_path, monkeypatch, capsys, flag):
    # a bad output path is found before the optimization, not after it
    def optimize(*args, **kwargs):
        raise AssertionError("the optimization ran before the outputs were opened")

    monkeypatch.setattr(cli, "seesaw_optimize", optimize)
    path = str(tmp_path / "missing" / "out.txt")
    code, _, err = run_cli(capsys, "seesaw", "--n", "2", flag, path)
    assert code == 1
    assert path in json.loads(err)["error"]


def test_golden_cli_commands(capsys):
    # the benchmark's golden CLI output, byte for byte; {model} stands for the
    # n = 2 optimal model stored beside the golden file.  The set runs twice in
    # one process, from a cold construction cache and then from a warm one.
    from pathlib import Path
    golden = Path(__file__).resolve().parents[1] / "bench" / "golden"
    commands = json.loads((golden / "cli.json").read_text(encoding="utf-8"))["commands"]
    model = str(golden / "model_n2.json")
    assert commands
    constructions._fitted_construction.cache_clear()
    for replay in range(2):
        for command in commands:
            argv = [model if a == "{model}" else a for a in command["argv"]]
            code, out, _ = run_cli(capsys, *argv)
            assert (out, code) == (command["stdout"], command["exit"]), (replay, argv)
    assert constructions._fitted_construction.cache_info().currsize == 2  # (4, 2), (5, 2)
