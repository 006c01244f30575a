"""Command-line front end: reproducible experiments with JSON/CSV output.

Exit codes: 0 success, 1 computation failure (failed construction, failed
certification, unmet --require-certified, failed allocation), 2 usage error
(bad options, or an n past a command's limit: ``bound --n`` above
BRUTEFORCE_MAX_N, or EXHAUSTIVE_MAX_N with --exhaustive, ``quantum --n`` outside
SUPPORTED_N, ``sweep --n-max`` above SWEEP_MAX_N, where a ratio overflows).
Errors print as single-line JSON objects on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .constructions import SUPPORTED_N, optimal_model
from .errors import CapacityError, ChainlockError, ConstructionFailedError
from .nlocal import (BRUTEFORCE_MAX_N, EXHAUSTIVE_MAX_N, alpha_closed_form, bound_report,
                     lhv_exhaustive_max)
from .qcore import beta_quantum, model_from_json_dict, model_to_json_dict
from .scenario import build_encoding
from .seesaw import SeesawConfig, seesaw_optimize
from .soscert import certify, condition_residuals, tsirelson_ceiling

USAGE_ERROR, COMPUTE_ERROR = 2, 1
_DUMP_CHUNK_ROWS = 4096


def _round12(obj):
    """Recursively round floats to 12 significant digits for stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _json_line(payload) -> str:
    return json.dumps(_round12(payload)) + "\n"


def _emit(payload, out_path: str | None):
    with _output(out_path) as fh:
        fh.write(_json_line(payload))


def _output(out_path: str | None):
    """The file at ``out_path``, opened for writing, or stdout."""
    return open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout)


def _json_rows(rows, shift: int = 0):
    """The JSON list of ``rows + shift`` (a 2-d int array), in pieces of _DUMP_CHUNK_ROWS rows."""
    yield "["
    for lo in range(0, len(rows), _DUMP_CHUNK_ROWS):
        chunk = (rows[lo:lo + _DUMP_CHUNK_ROWS] + shift).tolist()
        yield (", " if lo else "") + json.dumps(chunk)[1:-1]
    yield "]"


def _dump_scenario(n: int, out_path: str | None) -> None:
    """Write ``_emit(scenario_to_json_dict(n), out_path)``'s bytes, a chunk of rows at a time.

    The payload holds only ints, so it needs no rounding, and per-chunk
    ``json.dumps`` keeps the separators of one ``json.dumps`` of the whole.
    """
    table = build_encoding(n)
    with _output(out_path) as fh:
        fh.write(f'{{"n": {n}, "signs": ')
        fh.writelines(_json_rows(table.signs))
        fh.write(', "bob_inputs": ')
        fh.writelines(_json_rows(table.central, 1))
        fh.write("}\n")


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a number > 0, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text}")
    return value


def _cmd_bound(args) -> int:
    command, limit = (("bound --dump-scenario", BRUTEFORCE_MAX_N) if args.dump_scenario
                      else ("bound --exhaustive", EXHAUSTIVE_MAX_N) if args.exhaustive
                      else ("bound", BRUTEFORCE_MAX_N))
    if args.n > limit:
        return _fail(f"{command} supports n <= {limit}, got {args.n}", USAGE_ERROR)
    if args.dump_scenario:
        _dump_scenario(args.n, args.out)
        return 0
    if args.exhaustive:
        threads = args.threads
        if threads is None:
            env = os.environ.get("CHAINLOCK_THREADS") or "1"
            try:
                threads = _positive_int(env)
            except (ValueError, argparse.ArgumentTypeError):
                return _fail(f"CHAINLOCK_THREADS must be an integer >= 1, got {env!r}",
                             USAGE_ERROR)
        report = lhv_exhaustive_max(args.n, threads=threads)
    else:
        report = bound_report(args.n)
    _emit(report.to_json_dict(), args.out)
    return 0


def _cmd_quantum(args) -> int:
    if args.n not in SUPPORTED_N:
        return _fail(f"quantum supports n in {SUPPORTED_N}, got {args.n}", USAGE_ERROR)
    try:
        model = optimal_model(args.n, qubits_per_half=args.pairs_per_source)
    except ConstructionFailedError as err:
        _, terms = beta_quantum(err.model)
        _emit({"n": args.n, "beta": err.beta, "expected": err.expected,
               "residuals": err.residuals, "error": str(err), "terms": terms}, args.out)
        return COMPUTE_ERROR
    beta, terms = beta_quantum(model)
    residuals = condition_residuals(model)
    payload = {"n": args.n, "beta": beta, "expected": tsirelson_ceiling(args.n),
               "terms": terms, "residuals": residuals}
    if args.dump_model:
        payload["model"] = model_to_json_dict(model)
    _emit(payload, args.out)
    return 0


def _cmd_seesaw(args) -> int:
    config = SeesawConfig(
        max_iterations=args.max_iterations, tolerance=args.tol,
        restarts=args.restarts, seed=args.seed,
        optimize_edges=not args.freeze_edges,
        qubits_per_half=args.pairs_per_source)
    # both outputs open before the optimization, so a bad path fails at once
    with (open(args.trace_csv, "w", encoding="utf-8") if args.trace_csv
          else nullcontext()) as trace_fh, _output(args.out) as out_fh:
        report = seesaw_optimize(args.n, config)
        if trace_fh:
            trace_fh.write("restart,iteration,beta\n")
            for r, it, beta in report.trace:
                trace_fh.write(f"{r},{it},{beta:.12g}\n")
        out_fh.write(_json_line(report.to_json_dict()))
    if args.require_certified and not certify(report.best_model).certified:
        return _fail("best seesaw model is not certified", COMPUTE_ERROR)
    return 0


def _cmd_certify(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        model = model_from_json_dict(json.load(fh))
    report = certify(model, tol=args.tol)
    _emit(report.to_json_dict(), args.out)
    return 0 if report.certified else COMPUTE_ERROR


SWEEP_HEADER = "n,alpha,beta_opt,ratio,beta_constructed,certified"
# tsirelson_ceiling(n) / alpha_closed_form(n) overflows an IEEE double from n = 1021
SWEEP_MAX_N = 1020


def sweep_rows(n_min: int, n_max: int) -> list[dict]:
    """One row per n: classical bound, quantum ceiling, and constructed value."""
    rows = []
    for n in range(n_min, n_max + 1):
        alpha = alpha_closed_form(n)
        ceiling = tsirelson_ceiling(n)
        row = {"n": n, "alpha": alpha, "beta_opt": ceiling,
               "ratio": ceiling / alpha, "beta_constructed": None, "certified": None}
        try:
            model = optimal_model(n)
        except CapacityError:  # no construction for this n
            pass
        except ConstructionFailedError as err:
            row["beta_constructed"] = err.beta
            row["certified"] = False
        else:
            row["beta_constructed"], _ = beta_quantum(model)
            row["certified"] = certify(model).certified
        rows.append(row)
    return rows


def _cmd_sweep(args) -> int:
    rows = sweep_rows(args.n_min, args.n_max)
    if args.output == "json":
        _emit(rows, args.out)
        return 0
    lines = [SWEEP_HEADER]
    for row in rows:
        cells = [str(row["n"]), str(row["alpha"]), f"{row['beta_opt']:.12g}",
                 f"{row['ratio']:.12g}",
                 "" if row["beta_constructed"] is None else f"{row['beta_constructed']:.12g}",
                 "" if row["certified"] is None else str(row["certified"]).lower()]
        lines.append(",".join(cells))
    with _output(args.out) as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainlock",
        description="n-locality inequalities on linear-chain networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_n=True):
        if with_n:
            p.add_argument("--n", type=int, required=True, help="number of sources (>= 2)")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_bound = sub.add_parser("bound", help="classical n-local bound")
    add_common(p_bound)
    p_bound.add_argument("--dump-scenario", action="store_true",
                         help="print the scenario encoding as JSON and exit")
    p_bound.add_argument("--exhaustive", action="store_true",
                         help="full deterministic-strategy search (n <= 4)")
    p_bound.add_argument("--threads", type=_positive_int, default=None,
                         help="worker count for --exhaustive, at most the CPU count "
                              "(CHAINLOCK_THREADS as fallback)")
    p_bound.set_defaults(func=_cmd_bound)

    p_quantum = sub.add_parser("quantum", help="explicit quantum model for the ceiling")
    add_common(p_quantum)
    p_quantum.add_argument("--pairs-per-source", type=_positive_int, default=None)
    p_quantum.add_argument("--dump-model", action="store_true",
                           help="include the model matrices in the output")
    p_quantum.set_defaults(func=_cmd_quantum)

    p_seesaw = sub.add_parser("seesaw", help="variational maximization of beta")
    add_common(p_seesaw)
    p_seesaw.add_argument("--restarts", type=_positive_int, default=10)
    p_seesaw.add_argument("--seed", type=_nonnegative_int, default=0)
    p_seesaw.add_argument("--max-iterations", type=_positive_int, default=500)
    p_seesaw.add_argument("--tol", type=_positive_float, default=1e-7)
    p_seesaw.add_argument("--freeze-edges", action="store_true")
    p_seesaw.add_argument("--pairs-per-source", type=_positive_int, default=None)
    p_seesaw.add_argument("--trace-csv", help="write restart,iteration,beta rows")
    p_seesaw.add_argument("--require-certified", action="store_true")
    p_seesaw.set_defaults(func=_cmd_seesaw)

    p_cert = sub.add_parser("certify", help="certificate report for a stored model")
    add_common(p_cert, with_n=False)
    p_cert.add_argument("--model", required=True, help="path to a model JSON file")
    p_cert.add_argument("--tol", type=_positive_float, default=1e-7)
    p_cert.set_defaults(func=_cmd_certify)

    p_sweep = sub.add_parser("sweep", help="alpha vs ceiling across a range of n")
    p_sweep.add_argument("--n-min", type=int, required=True)
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--output", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--out", help="write output to this path instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    n = getattr(args, "n", None)
    if n is not None and n < 2:
        return _fail(f"need n >= 2, got {n}", USAGE_ERROR)
    if args.command == "sweep":
        if not 2 <= args.n_min <= args.n_max:
            return _fail(f"invalid range {args.n_min}..{args.n_max}", USAGE_ERROR)
        if args.n_max > SWEEP_MAX_N:
            return _fail(f"sweep rows overflow a float from n={SWEEP_MAX_N + 1}; "
                         f"need n-max <= {SWEEP_MAX_N}", USAGE_ERROR)
    try:
        return args.func(args)
    except (ChainlockError, ValueError, OSError) as exc:
        return _fail(str(exc), COMPUTE_ERROR)
    except MemoryError as exc:
        return _fail(str(exc) or "out of memory", COMPUTE_ERROR)


if __name__ == "__main__":
    raise SystemExit(main())
