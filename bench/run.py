"""chainlock benchmark: one workload per process, every output checked.

    python3 bench/run.py --workload ascent --seed 2024 --seconds 50 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end set, with ``--trace 1`` the per-layer set.  The package is
imported from ``src/`` of the checkout that holds this file, never from an
installed copy.
"""
from __future__ import annotations

import os

# fixed before numpy loads; the workloads use 2x2 to 16x16 matrices and
# 2^20-entry vectors, where BLAS threads only add scheduling noise
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5  # set-ups before every pass, so they sample the whole run

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("scenario.build_bob_input_map.calls", "count"), ("scenario.build_bob_input_map.s", "s"),
    ("scenario.build_encoding.calls", "count"), ("scenario.build_encoding.s", "s"),
    ("nlocal.lhv_exhaustive_max.s", "s"),
    ("nlocal.behavior_from_strategy.calls", "count"), ("nlocal.behavior_from_strategy.s", "s"),
    ("nlocal.beta_of_behavior.calls", "count"), ("nlocal.beta_of_behavior.s", "s"),
    ("nlocal.alpha_bruteforce.s", "s"), ("nlocal.assignment_scores.s", "s"),
    ("nlocal.assignment_scores.bytes", "B"),
    ("qcore.chain_expectation.calls", "count"), ("qcore.chain_expectation.s", "s"),
    ("qcore.bob_slot_matrix.calls", "count"), ("qcore.bob_slot_matrix.s", "s"),
    ("qcore.edge_slot_matrix.calls", "count"), ("qcore.edge_slot_matrix.s", "s"),
    ("qcore.dichotomic_projection.calls", "count"), ("qcore.dichotomic_projection.s", "s"),
    ("qcore.term_values.dense.s", "s"), ("qcore.term_values.contracted.s", "s"),
    ("qcore.correlator_dense.calls", "count"),
    ("qcore.apply_to_slot.calls", "count"), ("qcore.apply_to_slot.s", "s"),
    ("qcore.apply_to_slot.bytes", "B"), ("qcore.reduced_density.s", "s"),
    ("qcore.make_model.calls", "count"), ("qcore.make_model.s", "s"),
    ("qcore.bell_chain_state.bytes", "B"),
    ("soscert.certify.s", "s"), ("soscert.certify.self_s", "s"),
    ("soscert.condition_residuals.s", "s"), ("soscert.omega_values.s", "s"),
    ("constructions.optimal_model.s", "s"),
    ("constructions.fit_bob_observables.calls", "count"),
    ("constructions.fit_bob_observables.s", "s"),
    ("constructions.fit_bob_observables.self_s", "s"),
    ("seesaw.seesaw_optimize.s", "s"), ("seesaw.seesaw_optimize.self_s", "s"),
    ("seesaw.random_model.s", "s"), ("seesaw.sweeps", "count"),
    ("seesaw.capped_restarts", "count"),
    ("cli.main.bound.s", "s"), ("cli.main.certify.s", "s"), ("cli.main.quantum.s", "s"),
    ("cli.main.sweep.s", "s"), ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]


def load_chainlock():
    """Import chainlock afresh from the checkout's src/ (the timed part of set-up)."""
    for key in [k for k in sys.modules if k == "chainlock" or k.startswith("chainlock.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cl = importlib.import_module("chainlock")
    importlib.import_module("chainlock.cli")
    if SRC not in Path(cl.__file__).resolve().parents:
        raise ImportError(f"chainlock was imported from {cl.__file__}, not from {SRC}")
    return cl


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads_reported():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": _blas_threads_reported(),
        "commit": _git_commit(),
        "seed": seed,
        "byte_counts": "computed from array sizes, not measured",
    }


def layer_metrics(tracer: Tracer, iterations: int, traced_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    """Per-layer values per traced iteration (one set-up plus one pass)."""
    agg = tracer.aggregate()
    fixed = {"trace.wall_s": traced_wall, "trace.overhead_s": traced_wall - untraced_wall}
    values = {}
    for name, _ in PER_LAYER:
        if name in fixed:
            values[name] = fixed[name]
        elif name in tracer.counts:
            values[name] = tracer.counts[name] / iterations
        else:
            span, _, field = name.rpartition(".")
            entry = agg.get(span)
            values[name] = entry[field] / iterations if entry else 0
    return values


def measure(parts, seed: int, seconds: float, trace: bool = False) -> dict:
    """Run passes while the next one fits in ``seconds``, each after fresh set-ups.

    A pass runs every part once; at least one pass runs.  Without tracing
    every pass is timed and runs on the last of the ``SETUP_REPEATS`` set-ups
    before it.  With tracing the first pass is timed untraced and every later
    iteration (set-up plus pass) is traced, each part under its own root span.
    """
    setup_times = []

    def set_up():
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cl = load_chainlock()
            inputs = [p.setup(cl, seed) for p in parts]
            setup_times.append(time.perf_counter() - t0)
        return cl, inputs

    cl, inputs = set_up()
    checks = [c for p, inp in zip(parts, inputs) for c in p.heldout(cl, inp)]
    tracer = Tracer() if trace else None

    def one_pass(cl, pass_inputs, traced):
        results, times = [], []
        for p, inp in zip(parts, pass_inputs):
            with tracer.root(p.name) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                results.append(p.run(cl, inp))
                times.append(time.perf_counter() - t0)
        for p, inp, res in zip(parts, pass_inputs, results):
            checks.extend(p.check(cl, inp, res))
        return results, times

    start = time.perf_counter()
    results, times = one_pass(cl, inputs, False)
    part_times, traced_walls = [times], []
    if trace:
        tracer.install()
        try:
            while not traced_walls or time.perf_counter() - start + traced_walls[-1] <= seconds:
                traced_inputs = []
                for p in parts:
                    with tracer.root("setup." + p.name):
                        traced_inputs.append(p.setup(cl, seed))
                results, times = one_pass(cl, traced_inputs, True)
                traced_walls.append(sum(times))
        finally:
            tracer.uninstall()
    else:
        while (time.perf_counter() - start
               + statistics.median(map(sum, part_times)) <= seconds):
            cl, inputs = set_up()
            results, times = one_pass(cl, inputs, False)
            part_times.append(times)

    walls = [sum(times) for times in part_times]
    wall_s = statistics.median(walls)
    extras = {}
    for i, (p, res) in enumerate(zip(parts, results)):
        part_wall = statistics.median(times[i] for times in part_times)
        extras[f"{p.name}.wall_s"] = (part_wall, "s")
        extras.update(p.extras(res, part_wall))
    failed = [name for name, ok in checks if not ok]
    out = {
        "attempted": len(checks),
        "failed": len(failed),
        "failed_frac": len(failed) / len(checks),
        "failed_checks": failed,
        "pass_walls_s": walls,
        "setup_times_s": setup_times,
        "extras": extras,
        "tracer": tracer,
    }
    if trace:
        out["metrics"] = layer_metrics(tracer, len(traced_walls),
                                       statistics.median(traced_walls), wall_s)
        out["traced_walls_s"] = traced_walls
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["metrics"] = {"wall_s": wall_s, "setup_s": statistics.median(setup_times),
                          "peak_rss_mb": rss_mb}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    parts = [cls() for cls in WORKLOADS[args.workload]]
    res = measure(parts, args.seed, args.seconds, trace=bool(args.trace))
    env = environment(args.seed)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in res["metrics"].items()}
    extras = dict(res["extras"])
    extras["failed_frac"] = (res["failed_frac"], "ratio")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if res["tracer"] is not None:
        res["tracer"].write(OUT / f"{stem}-spans.csv")
    record = {"workload": args.workload, "env": env, "metrics": metrics,
              "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
              **{k: res[k] for k in ("attempted", "failed", "failed_checks",
                                     "pass_walls_s", "setup_times_s")}}
    if args.trace:
        record["traced_walls_s"] = res["traced_walls_s"]
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"env": env}))
    for name in res["failed_checks"]:
        print(f"FAILED {name}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    for name, (value, unit) in extras.items():
        print(f"{args.workload} {name} {value!r} {unit} "
              + (f"({res['failed']}/{res['attempted']} checks)" if name == "failed_frac" else ""))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
