"""Span tracing around calls into the public functions of each `tsk` layer.

Nothing in `tsk` is edited: `Tracer.install` wraps each traced function and
rebinds the wrapper in every loaded `tsk` module that holds the original, so
both `from .x import f` bindings and module-attribute lookups such as
`_backend.pair_sum` go through it. Spans (name, start, end, parent, run id)
stay in memory until `write_spans` is called; `layer_metrics` turns them and
the work counters into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import dataclass

# (module, function) pairs traced; each is reported as "<module>.<function>"
TRACED = (
    ("_backend", "pair_sum"),
    ("_backend", "cd_sweep"),
    ("kme", "inner"),
    ("kme", "embed"),
    ("kme", "exact_gaussian_embedding"),
    ("kme", "gaussian_kme_inner_matrix"),
    ("kme", "gaussian_kme_cross_inner"),
    ("hilbert_kernel", "hk_eval"),
    ("svm", "build_gram"),
    ("svm", "train"),
    ("svm", "decision_values"),
    ("svm", "decision_value"),
    ("svm", "model_to_json"),
    ("svm", "model_from_json"),
    ("rng", "normals"),
    ("rng", "stream"),
    ("synth", "sample_first_stage"),
    ("synth", "sample_second_stage"),
    ("synth", "bayes_risk"),
    ("synth", "bags_from_json"),
    ("whitenoise", "geometric_noise_integrals"),
    ("bounds", "approx_error_estimate"),
    ("bounds", "oracle_rhs"),
    ("experiments", "run_rate_experiment"),
    ("cli", "_cmd_train"),
    ("cli", "_cmd_predict"),
)

# work counters: name -> function(spans, idx, args, result) -> dict of increments,
# where spans[idx] is the span of the call that returned result


def _pair_sum_work(spans, idx, args, result):
    return {"kernel_evals": len(args[0]) * len(args[2])}


def _cd_sweep_work(spans, idx, args, result):
    return {"coord_updates": len(args[1])}


def _inner_work(spans, idx, args, result):
    return {"self_calls": int(args[0] is args[1])}


def _normals_work(spans, idx, args, result):
    shape = args[1]
    n = 1
    for d in shape if isinstance(shape, tuple) else (shape,):
        n *= int(d)
    return {"draws": n}


def _square_work(spans, idx, args, result):
    return {"entries": result.shape[0] * result.shape[1]}


def _gram_work(spans, idx, args, result):
    return {"entries": result.size * result.size}


def _train_work(spans, idx, args, result):
    n = len(result.dual_coefs)
    return {
        "sweeps": result.sweeps,
        "coefs": n,
        "support": int((result.dual_coefs != 0.0).sum()),
        "unconverged": int(not result.converged),
        "kkt_max": result.kkt,
    }


def _decision_value_work(spans, idx, args, result):
    nonzero = int((args[0].dual_coefs != 0.0).sum())
    # the per-target path skips zero coefficients, so every evaluation is useful
    return {"support_evals": nonzero, "useful_evals": nonzero}


def _decision_values_work(spans, idx, args, result):
    targets = len(args[1])
    if any(s.name == "svm.decision_value" and s.parent == idx for s in spans[idx + 1 :]):
        return {"targets": targets}  # counted by the per-target decision_value spans
    # the closed-form path evaluates every support embedding for every target
    model = args[0]
    return {
        "targets": targets,
        "support_evals": len(model.dual_coefs) * targets,
        "useful_evals": int((model.dual_coefs != 0.0).sum()) * targets,
    }


WORK = {
    "_backend.pair_sum": _pair_sum_work,
    "_backend.cd_sweep": _cd_sweep_work,
    "kme.inner": _inner_work,
    "rng.normals": _normals_work,
    "kme.gaussian_kme_inner_matrix": _square_work,
    "kme.gaussian_kme_cross_inner": _square_work,
    "svm.build_gram": _gram_work,
    "svm.train": _train_work,
    "svm.decision_value": _decision_value_work,
    "svm.decision_values": _decision_values_work,
}


def rebind(orig, replacement) -> list:
    """Point every loaded tsk module's binding of orig at replacement.

    Returns (module, attribute, orig) for each binding changed, for undoing.
    """
    changed = []
    for name, mod in list(sys.modules.items()):
        if name == "tsk" or name.startswith("tsk."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, replacement)
                    changed.append((mod, attr, orig))
    return changed


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    run: int


class Tracer:
    """Collects spans and counters; one instance per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.run = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        work = WORK.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.run)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if work is not None:
                self._count(name, work(spans, idx, args, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _count(self, name, increments):
        bucket = self.counts.setdefault(name, {})
        for key, val in increments.items():
            if key.endswith("_max"):
                bucket[key] = max(bucket.get(key, 0.0), val)
            else:
                bucket[key] = bucket.get(key, 0) + val

    def install(self):
        """Wrap every traced function in every loaded tsk module."""
        for mod_name, fn_name in TRACED:
            orig = getattr(sys.modules[f"tsk.{mod_name}"], fn_name)
            self._installed += rebind(orig, self._wrap(f"{mod_name}.{fn_name}", orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()

    def reset(self, run: int):
        self.spans.clear()
        self.counts.clear()
        self.run = run

    def write_spans(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run}) + "\n")

    def busy_and_self(self):
        """Summed span time and self time (span minus its child spans) per name."""
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        child: dict[int, float] = {}
        for s in self.spans:
            d = s.end - s.start
            busy[s.name] = busy.get(s.name, 0.0) + d
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.parent >= 0:
                child[s.parent] = child.get(s.parent, 0.0) + d
        self_s = dict(busy)
        for i, s in enumerate(self.spans):
            self_s[s.name] -= child.get(i, 0.0)
        return busy, self_s, calls


def is_timing(metric: str) -> bool:
    """Timings vary run to run; every other per-layer value must repeat exactly."""
    return metric.endswith("_s") or ".row_s." in metric


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, row_seconds) -> dict:
    """Per-layer values for one traced run; row_seconds are the
    `RateRow.wall_seconds` of a rate sweep (empty for other workloads)."""
    busy, self_s, calls = tracer.busy_and_self()
    c = tracer.counts

    def cnt(name, key):
        return c.get(name, {}).get(key, 0)

    support_evals = cnt("svm.decision_value", "support_evals") + cnt("svm.decision_values", "support_evals")
    useful_evals = cnt("svm.decision_value", "useful_evals") + cnt("svm.decision_values", "useful_evals")
    trains = cnt("svm.train", "coefs")
    rows = sorted(row_seconds)
    out = {
        "backend.cd_sweep.calls": calls.get("_backend.cd_sweep", 0),
        "backend.cd_sweep.coord_updates": cnt("_backend.cd_sweep", "coord_updates"),
        "backend.cd_sweep.busy_s": busy.get("_backend.cd_sweep", 0.0),
        "svm.train.calls": calls.get("svm.train", 0),
        "svm.train.sweeps": cnt("svm.train", "sweeps"),
        "svm.train.busy_s": busy.get("svm.train", 0.0),
        "svm.train.self_s": self_s.get("svm.train", 0.0),
        "svm.train.kkt_max": cnt("svm.train", "kkt_max"),
        "svm.train.sv_frac": _div(cnt("svm.train", "support"), trains),
        "svm.train.unconverged": cnt("svm.train", "unconverged"),
        "backend.pair_sum.calls": calls.get("_backend.pair_sum", 0),
        "backend.pair_sum.kernel_evals": cnt("_backend.pair_sum", "kernel_evals"),
        "backend.pair_sum.busy_s": busy.get("_backend.pair_sum", 0.0),
        "backend.pair_sum.evals_per_s": _div(
            cnt("_backend.pair_sum", "kernel_evals"), busy.get("_backend.pair_sum", 0.0)
        ),
        "kme.inner.calls": calls.get("kme.inner", 0),
        "kme.inner.busy_s": busy.get("kme.inner", 0.0),
        "kme.inner.self_frac": _div(cnt("kme.inner", "self_calls"), calls.get("kme.inner", 0)),
        "kme.exact_gaussian_embedding.calls": calls.get("kme.exact_gaussian_embedding", 0),
        "kme.exact_gaussian_embedding.busy_s": busy.get("kme.exact_gaussian_embedding", 0.0),
        "kme.embed.calls": calls.get("kme.embed", 0),
        "kme.gaussian_kme_inner_matrix.entries": cnt("kme.gaussian_kme_inner_matrix", "entries"),
        "kme.gaussian_kme_inner_matrix.busy_s": busy.get("kme.gaussian_kme_inner_matrix", 0.0),
        "kme.gaussian_kme_cross_inner.entries": cnt("kme.gaussian_kme_cross_inner", "entries"),
        "kme.gaussian_kme_cross_inner.busy_s": busy.get("kme.gaussian_kme_cross_inner", 0.0),
        "hilbert_kernel.hk_eval.calls": calls.get("hilbert_kernel.hk_eval", 0),
        "hilbert_kernel.hk_eval.busy_s": busy.get("hilbert_kernel.hk_eval", 0.0),
        "svm.build_gram.calls": calls.get("svm.build_gram", 0),
        "svm.build_gram.entries": cnt("svm.build_gram", "entries"),
        "svm.build_gram.busy_s": busy.get("svm.build_gram", 0.0),
        "svm.build_gram.self_s": self_s.get("svm.build_gram", 0.0),
        "svm.decision_values.targets": cnt("svm.decision_values", "targets"),
        "svm.decision_values.busy_s": busy.get("svm.decision_values", 0.0),
        "svm.decision_values.self_s": self_s.get("svm.decision_values", 0.0),
        "svm.decision_value.calls": calls.get("svm.decision_value", 0),
        "svm.decision_value.busy_s": busy.get("svm.decision_value", 0.0),
        "svm.decision.useful_frac": _div(useful_evals, support_evals),
        "svm.model_to_json.busy_s": busy.get("svm.model_to_json", 0.0),
        "svm.model_from_json.busy_s": busy.get("svm.model_from_json", 0.0),
        "rng.normals.calls": calls.get("rng.normals", 0),
        "rng.normals.draws": cnt("rng.normals", "draws"),
        "rng.normals.busy_s": busy.get("rng.normals", 0.0),
        "rng.stream.calls": calls.get("rng.stream", 0),
        "rng.stream.busy_s": busy.get("rng.stream", 0.0),
        "synth.sample_first_stage.busy_s": busy.get("synth.sample_first_stage", 0.0),
        "synth.sample_second_stage.calls": calls.get("synth.sample_second_stage", 0),
        "synth.sample_second_stage.busy_s": busy.get("synth.sample_second_stage", 0.0),
        "synth.bayes_risk.busy_s": busy.get("synth.bayes_risk", 0.0),
        "synth.bags_from_json.busy_s": busy.get("synth.bags_from_json", 0.0),
        "whitenoise.geometric_noise_integrals.calls": calls.get("whitenoise.geometric_noise_integrals", 0),
        "whitenoise.geometric_noise_integrals.busy_s": busy.get("whitenoise.geometric_noise_integrals", 0.0),
        "whitenoise.geometric_noise_integrals.self_s": self_s.get("whitenoise.geometric_noise_integrals", 0.0),
        "bounds.approx_error_estimate.self_s": self_s.get("bounds.approx_error_estimate", 0.0),
        "bounds.oracle_rhs.busy_s": busy.get("bounds.oracle_rhs", 0.0),
        "experiments.run_rate_experiment.self_s": self_s.get("experiments.run_rate_experiment", 0.0),
        "experiments.row_s.p50": statistics.median(rows) if rows else 0.0,
        "experiments.row_s.max": rows[-1] if rows else 0.0,
        "cli.train.self_s": self_s.get("cli._cmd_train", 0.0),
        "cli.predict.self_s": self_s.get("cli._cmd_predict", 0.0),
    }
    return out
