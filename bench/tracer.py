"""Spans around chainlock's public functions, recorded from outside the package.

``Tracer.install`` replaces each target function with a wrapper in every
loaded ``chainlock`` module namespace that holds it, so the wrapper is what
callers actually look up (``chainlock.seesaw.chain_expectation``,
``chainlock.qcore.correlator_dense``, ...).  Spans stay in memory as
``[name, span_id, parent_id, trace_id, start, end]`` rows and are written out
once, at the end of the run.
"""
from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _seesaw_counts(args, kwargs, report):
    """Sweeps (trace rows minus restarts) and restarts stopped by the iteration cap."""
    config = _arg(args, kwargs, 1, "config") or sys.modules["chainlock.seesaw"].SeesawConfig()
    rows = defaultdict(list)
    for restart, _, beta in report.trace:
        rows[restart].append(beta)
    capped = sum(1 for betas in rows.values()
                 if len(betas) - 1 == config.max_iterations
                 and betas[-1] - betas[-2] >= config.tolerance)
    return {"seesaw.sweeps": len(report.trace) - len(rows),
            "seesaw.capped_restarts": capped}


# (module, function, span label or None, counters or None).  Byte counts are
# computed from array sizes, not measured.
TARGETS = [
    ("scenario", "build_bob_input_map", None, None),
    ("scenario", "build_encoding", None, None),
    ("nlocal", "lhv_exhaustive_max", None, None),
    ("nlocal", "behavior_from_strategy", None, None),
    ("nlocal", "beta_of_behavior", None, None),
    ("nlocal", "alpha_bruteforce", None, None),
    # three Walsh-Hadamard transforms, n passes each, reading and writing
    # the 2^n-entry int64 vector
    ("nlocal", "assignment_scores", None,
     lambda a, k, out: {"nlocal.assignment_scores.bytes": 6 * _arg(a, k, 0, "n") * out.nbytes}),
    ("qcore", "chain_expectation", None, None),
    ("qcore", "bob_slot_matrix", None, None),
    ("qcore", "edge_slot_matrix", None, None),
    ("qcore", "dichotomic_projection", None, None),
    ("qcore", "term_values", None, None),
    ("qcore", "correlator_dense", None, None),
    # reads the input amplitudes and writes as many
    ("qcore", "apply_to_slot", None,
     lambda a, k, out: {"qcore.apply_to_slot.bytes": 2 * out.nbytes}),
    ("qcore", "reduced_density", None, None),
    ("qcore", "make_model", None, None),
    ("qcore", "bell_chain_state", None,
     lambda a, k, out: {"qcore.bell_chain_state.bytes": 16 * 2 ** out.layout.total_qubits}),
    ("soscert", "certify", None, None),
    ("soscert", "condition_residuals", None, None),
    ("soscert", "omega_values", None, None),
    ("constructions", "optimal_model", None, None),
    ("constructions", "fit_bob_observables", None, None),
    ("seesaw", "seesaw_optimize", None, _seesaw_counts),
    ("seesaw", "random_model", None, None),
    ("cli", "main", lambda a, k: "cli.main." + _arg(a, k, 0, "argv")[0], None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._traces = 0
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        if self._stack:
            parent = self._stack[-1]
            trace = self.spans[parent][3]
        else:
            parent, trace = None, self._traces
            self._traces += 1
        self._stack.append(sid)
        self.spans.append([name, sid, parent, trace, time.perf_counter(), None])
        return sid

    def _close(self, sid: int):
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span; each one starts a new trace id."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, name, label, counters):
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside a root span, e.g. the output checks
                return fn(*args, **kwargs)
            sid = self._open(label(args, kwargs) if label else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counters:
                for key, value in counters(args, kwargs, out).items():
                    self.counts[key] += value
            return out

        return wrapper

    def install(self):
        """Wrap every TARGETS function in each chainlock namespace that binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "chainlock" or key.startswith("chainlock.")]
        for module, func, label, counters in TARGETS:
            original = getattr(sys.modules[f"chainlock.{module}"], func)
            wrapper = self._wrap(original, f"{module}.{func}", label, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name.

        Self time is a span's duration minus the time its child spans cover.
        A ``qcore.term_values`` span is named by the evaluator that ran under
        it, and every ``cli.main.<command>`` span also counts toward
        ``cli.main``.
        """
        child_time = defaultdict(float)
        child_names = defaultdict(set)
        for name, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
                child_names[parent].add(name)
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, sid, _, _, start, end in self.spans:
            if name == "qcore.term_values":
                dense = "qcore.correlator_dense" in child_names[sid]
                name += ".dense" if dense else ".contracted"
            keys = [name, "cli.main"] if name.startswith("cli.main.") else [name]
            for key in keys:
                entry = out[key]
                entry["calls"] += 1
                entry["s"] += end - start
                entry["self_s"] += end - start - child_time[sid]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,span_id,parent_id,trace_id,start,end\n")
            for name, sid, parent, trace, start, end in self.spans:
                fh.write(f"{name},{sid},{'' if parent is None else parent},"
                         f"{trace},{start!r},{end!r}\n")
