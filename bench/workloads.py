"""The benchmark's workloads, their parts, and the checks on their outputs.

A workload is a sequence of parts; one pass runs every part once.  Each part
has ``setup(cl, seed)``, which builds its inputs (timed as set-up),
``run(cl, inputs)``, its share of a pass, and ``check(cl, inputs, result)``,
which returns ``(name, ok)`` pairs.  ``heldout(cl, inputs)`` runs once,
untimed, before the passes.  ``cl`` is the imported ``chainlock`` package;
every call goes through its public functions or ``chainlock.cli.main``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"

# criterion 8 of the acceptance suite; never re-frozen
CRITERION8_SEED = 2024
CRITERION8_BEST = 12.720904074142965
CRITERION8_TOL = 1e-6
CHECK_TOL = 1e-9
MONOTONE_TOL = 1e-10  # as in the test suite's trace checks


class Part:
    name = ""

    def setup(self, cl, seed):
        return {"seed": seed}

    def heldout(self, cl, inputs):
        return []

    def extras(self, result, wall_s):
        """Printed metrics beyond the end-to-end set."""
        return {}


def _seesaw_checks(cl, report, expected_best=None):
    rows = {}
    for restart, _, beta in report.trace:
        rows.setdefault(restart, []).append(beta)
    monotone = all(b >= a - MONOTONE_TOL for betas in rows.values()
                   for a, b in zip(betas, betas[1:]))
    dense, _ = cl.beta_quantum(report.best_model, evaluator="dense")
    checks = [("seesaw.trace_monotone", monotone),
              ("seesaw.best_beta_le_16", report.best_beta <= 16.0),
              ("seesaw.dense_beta_matches", abs(dense - report.best_beta) <= CHECK_TOL)]
    if expected_best is not None:
        checks.append(("seesaw.criterion8_constant",
                       abs(report.best_beta - expected_best) <= CRITERION8_TOL))
    return checks


class Seesaw(Part):
    """Criterion 8: n=4, one qubit per half, 20 restarts.

    The number of sweeps to convergence depends strongly on the restart seed
    (571 to 1541 sweeps over seeds 1..6), so the timed pass always runs
    criterion 8's seed and its work is the same on every run.  ``--seed``
    drives the untimed held-out run, which keeps the seed-independent checks.
    """

    name = "seesaw"
    HELDOUT_RESTARTS = 2

    def __init__(self, expected_best=CRITERION8_BEST):
        self.expected_best = expected_best

    def _config(self, cl, seed, restarts):
        return cl.SeesawConfig(restarts=restarts, seed=seed, qubits_per_half=1)

    def heldout(self, cl, inputs):
        report = cl.seesaw_optimize(4, self._config(cl, inputs["seed"], self.HELDOUT_RESTARTS))
        return [("heldout." + name, ok) for name, ok in _seesaw_checks(cl, report)]

    def run(self, cl, inputs):
        return cl.seesaw_optimize(4, self._config(cl, CRITERION8_SEED, 20))

    def check(self, cl, inputs, report):
        return _seesaw_checks(cl, report, self.expected_best)

    def extras(self, report, wall_s):
        sweeps = len(report.trace) - len(report.restart_betas)
        return {"sweeps": (sweeps, "count"), "sweeps_per_s": (sweeps / wall_s, "1/s"),
                "best_beta": (report.best_beta, "1")}


def random_observable(dim, rng):
    """Sign of the eigenvalues of a complex Gaussian Hermitian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, v = np.linalg.eigh((g + g.conj().T) / 2)
    return (v * np.where(w >= 0, 1.0, -1.0)) @ v.conj().T


def random_chain_model(cl, n, m, rng):
    d = 2 ** m
    alice = [random_observable(d, rng) for _ in range(n)]
    bobs = [[random_observable(d * d, rng) for _ in range(2)] for _ in range(n - 1)]
    charlie = [random_observable(d, rng) for _ in range(n)]
    return cl.make_model(n, alice, bobs, charlie, qubits_per_half=m)


class Oracle(Part):
    """Dense state-vector work: 16 qubits through both evaluators, 20 through certify."""

    name = "oracle"

    def setup(self, cl, seed):
        rng = np.random.default_rng(seed)
        return {"seed": seed, "m4": random_chain_model(cl, 4, 2, rng),
                "m5": random_chain_model(cl, 5, 2, rng)}

    def run(self, cl, inputs):
        dense = cl.qcore.term_values(inputs["m4"], evaluator="dense")
        contracted = cl.qcore.term_values(inputs["m4"], evaluator="contracted")
        return dense, contracted, cl.certify(inputs["m5"])

    def check(self, cl, inputs, result):
        dense, contracted, rep = result
        schwarz = math.sqrt(sum(rep.omega_a)) * math.sqrt(sum(rep.omega_c))
        return [
            ("oracle.dense_vs_contracted", float(np.max(np.abs(dense - contracted))) <= CHECK_TOL),
            ("oracle.beta_le_tau", rep.beta <= rep.tau + CHECK_TOL),
            ("oracle.tau_le_schwarz", rep.tau <= schwarz + CHECK_TOL),
            ("oracle.schwarz_le_ceiling", schwarz <= cl.tsirelson_ceiling(rep.n) + CHECK_TOL),
        ]


class Classical(Part):
    """Behavior-level LHV search at n=4, then the Walsh-Hadamard brute force."""

    name = "classical"

    def run(self, cl, inputs):
        return (cl.lhv_exhaustive_max(4, threads=1), cl.alpha_bruteforce(22),
                [cl.bound_report(n) for n in range(2, 21)])

    def check(self, cl, inputs, result):
        lhv, (brute, _), reports = result
        checks = [("classical.lhv_max", lhv.lhv_max == cl.alpha_closed_form(4) == 12),
                  ("classical.bruteforce_22", brute == cl.alpha_closed_form(22))]
        checks += [(f"classical.bound_report_{r.n}", r.match) for r in reports]
        return checks


CLI_COMMANDS = (
    [["sweep", "--n-min", "2", "--n-max", "8"]]
    + [["quantum", "--n", str(n)] for n in (2, 3, 4, 5)]
    + [["certify", "--model", "{model}"]]
    + [["bound", "--n", str(n)] for n in (2, 3, 10, 20)]
)


class Cli(Part):
    """``chainlock.cli.main`` in-process on a fixed command set, against golden output.

    The golden file holds each command's stdout and exit code, captured at
    the commit where the benchmark was defined.  ``quantum --n 3..5`` exit 1
    by design.  ``{model}`` stands for the n=2 optimal model stored beside
    the golden file.
    """

    name = "cli"

    def __init__(self, golden=GOLDEN / "cli.json"):
        self.golden = Path(golden)

    def setup(self, cl, seed):
        golden = json.loads(self.golden.read_text(encoding="utf-8"))
        model = str(GOLDEN / "model_n2.json")
        commands = [[model if a == "{model}" else a for a in argv] for argv in CLI_COMMANDS]
        return {"seed": seed, "commands": commands, "golden": golden["commands"]}

    def run(self, cl, inputs):
        out = []
        for argv in inputs["commands"]:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cl.cli.main(argv)
            out.append((stdout.getvalue(), code))
        return out

    def check(self, cl, inputs, result):
        checks = [("cli.golden_commands", [g["argv"] for g in inputs["golden"]] == CLI_COMMANDS)]
        for argv, want, (stdout, code) in zip(CLI_COMMANDS, inputs["golden"], result):
            label = "cli[" + " ".join(argv) + "]"
            checks.append((label + ".stdout", stdout == want["stdout"]))
            checks.append((label + ".exit", code == want["exit"]))
        return checks


# Two workloads of two parts each.  A run of one part is too short to average
# over the shared machine's slow and fast phases, which last tens of seconds,
# and the run count allows two long runs per seed but not four.
#   ascent: both coordinate-ascent engines (the seesaw and the constructions
#     fitter behind the CLI), Python loops over tiny qcore contractions and eigh.
#   exact:  the reference routes, dense state vectors and certificates, then
#     the exhaustive LHV search and the Walsh-Hadamard brute force.
WORKLOADS = {"ascent": (Seesaw, Cli), "exact": (Oracle, Classical)}
