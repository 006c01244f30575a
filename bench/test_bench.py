"""Self-tests of the benchmark: ``python3 -m pytest bench`` from the repository root.

They show that the output checks can fail, and that BENCHMARK.json names the
metrics the runner prints.
"""
import json

import run
import workloads


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_corrupted_golden_byte_is_a_failed_check():
    golden = json.loads((workloads.GOLDEN / "cli.json").read_text(encoding="utf-8"))
    first = golden["commands"][0]
    first["stdout"] = first["stdout"][:10] + chr(ord(first["stdout"][10]) ^ 1) + first["stdout"][11:]
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "corrupted-cli-golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")

    clean = run.measure([workloads.Cli()], seed=1, seconds=0)
    corrupted = run.measure([workloads.Cli(golden=path)], seed=1, seconds=0)
    assert clean["failed_frac"] == 0
    assert corrupted["failed_frac"] > 0
    assert corrupted["failed_checks"] == ["cli[sweep --n-min 2 --n-max 8].stdout"]


def test_perturbed_expected_constant_is_a_failed_check():
    perturbed = workloads.Seesaw(expected_best=workloads.CRITERION8_BEST + 1e-5)
    res = run.measure([perturbed], seed=workloads.CRITERION8_SEED, seconds=0)
    assert res["failed_frac"] > 0
    assert res["failed_checks"] == ["seesaw.criterion8_constant"]
