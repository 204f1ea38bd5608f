"""Spans and counts at sidalign's module boundaries, recorded from outside.

``Tracer.install()`` replaces each traced public function with a recording
wrapper at every import site inside the package (for example
``sidalign.align.forward`` as well as ``sidalign.mlp.forward``), so calls
between modules are recorded without editing ``src/``. ``uninstall()`` puts
the original objects back. Spans live in flat arrays in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, function) -> span name. Names follow the per-layer metrics.
FUNCTIONS = {
    ("numerics", "length_normalize"): "numerics.length_normalize",
    ("numerics", "cholesky_upper"): "numerics.cholesky_upper",
    ("synth", "generate"): "synth.generate",
    ("synth", "make_trials"): "synth.make_trials",
    ("data", "build_all_profiles"): "data.build_all_profiles",
    ("data", "save_embeddings"): "data.save_embeddings",
    ("data", "load_embeddings"): "data.load_embeddings",
    ("data", "save_trials"): "data.save_trials",
    ("data", "load_trials"): "data.load_trials",
    ("data", "save_scores"): "data.save_scores",
    ("logit", "compute_fusion_transform"): "logit.compute_fusion_transform",
    ("logit", "logit_score_fused_batch"): "logit.fused_batch",
    ("mlp", "forward"): "mlp.forward",
    ("mlp", "backward"): "mlp.backward",
    ("mlp", "adam_step"): "mlp.adam_step",
    ("align", "train"): "align.train",
    ("align", "sample_negative_bank"): "align.sample_negative_bank",
    ("align", "loss_m3"): "align.loss_m3",
    ("align", "map_profiles"): "align.map",
    ("align", "map_runtime"): "align.map",
    ("metrics", "score_trials"): "metrics.score_trials",
    ("metrics", "roc"): "metrics.roc",
    ("metrics", "eer"): "metrics.eer",
    ("metrics", "evaluate"): "metrics.evaluate",
    ("cli", "cmd_synth"): "cli.synth",
    ("cli", "cmd_profile"): "cli.profile",
    ("cli", "cmd_logit_align"): "cli.logit_align",
    ("cli", "cmd_train"): "cli.train",
    ("cli", "cmd_score"): "cli.score",
    ("cli", "cmd_eval"): "cli.eval",
}

# (module, class, method) -> span name.
METHODS = {
    ("align", "PairedData", "__init__"): "align.PairedData",
    ("align", "PairedData", "sample_batch"): "align.sample_batch",
}

MODULES = ("numerics", "data", "synth", "logit", "mlp", "align", "metrics", "cli")

TRAIN_RUNS = ("m1", "m2", "m3", "m3_no_contrastive", "m3_no_anchors")


def train_run_label(config) -> str:
    """Name of an aligner run as the acceptance criteria 5-6 use it."""
    if config.variant == "m3" and config.alpha == 0:
        return "m3_no_contrastive"
    if config.variant == "m3" and config.beta == 0 and config.gamma == 0:
        return "m3_no_anchors"
    return config.variant


def _file_size(path) -> int:
    return os.path.getsize(path)


def _layer_flops(model) -> int:
    return sum(w.shape[0] * w.shape[1] for w in model.weights)


class Tracer:
    """Records spans (name, start, end, parent, request) and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.counters: dict[str, float] = {}
        self.request_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False

    # -- recording --------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def paused(self):
        """Leave calls made inside (correctness checks) out of the trace."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, fn, name, after=None, namer=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, result, tracer.end[idx] - tracer.start[idx])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each module that binds it."""
        if self._patches:
            return
        mods = {m: importlib.import_module(f"sidalign.{m}") for m in MODULES}
        sites = list(mods.values()) + [importlib.import_module("sidalign")]
        for (mod_name, fn_name), span_name in FUNCTIONS.items():
            orig = getattr(mods[mod_name], fn_name)
            wrapped = self._wrap(orig, span_name, AFTER.get(span_name),
                                 NAMERS.get(span_name))
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is orig:
                        self._patches.append((site, attr, orig))
                        setattr(site, attr, wrapped)
        for (mod_name, cls_name, meth), span_name in METHODS.items():
            cls = getattr(mods[mod_name], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, span_name, AFTER.get(span_name)))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for site, attr, orig in reversed(self._patches):
            setattr(site, attr, orig)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
        )


# Counters taken at the same boundaries as the spans.


def _after_generate(t, args, kwargs, result, dur):
    cfg = args[0]
    t.count("synth.generate.records", 2 * cfg.n_speakers
            * (cfg.n_enroll_utts + cfg.n_runtime_utts))
    t.count("synth.generate.incl_s", dur)


def _after_save_embeddings(t, args, kwargs, result, dur):
    t.count("data.save_embeddings.records", len(args[0].records))
    t.count("data.save_embeddings.incl_s", dur)
    t.count("data.bytes_written", _file_size(args[1]))


def _after_load_embeddings(t, args, kwargs, result, dur):
    t.count("data.load_embeddings.records", len(result.records))
    t.count("data.load_embeddings.incl_s", dur)
    t.count("data.bytes_read", _file_size(args[0]))


def _after_save_file(t, args, kwargs, result, dur):
    t.count("data.bytes_written", _file_size(args[1]))


def _after_load_trials(t, args, kwargs, result, dur):
    t.count("data.bytes_read", _file_size(args[0]))


def _after_fused(t, args, kwargs, result, dur):
    t.count("logit.fused_batch.trials", len(result))


def _after_forward(t, args, kwargs, result, dur):
    x = np.asarray(args[1])
    rows = 1 if x.ndim == 1 else x.shape[0]
    t.count("mlp.flop", 2 * rows * _layer_flops(args[0]))


def _after_backward(t, args, kwargs, result, dur):
    dy = np.asarray(args[2])
    rows = 1 if dy.ndim == 1 else dy.shape[0]
    # grad of weights and grad of inputs: two products per layer.
    t.count("mlp.flop", 4 * rows * _layer_flops(args[0]))


def _after_train(t, args, kwargs, result, dur):
    cfg = args[0]
    t.count(f"align.steps.{cfg.variant}", cfg.epochs * cfg.steps_per_epoch)
    t.count(f"align.train_incl_s.{cfg.variant}", dur)


def _after_score_trials(t, args, kwargs, result, dur):
    t.count("metrics.score_trials.trials", len(result.trials))
    t.count("metrics.score_trials.incl_s", dur)


def _after_roc(t, args, kwargs, result, dur):
    t.count("metrics.roc.thresholds", len(result.thresholds))


AFTER = {
    "synth.generate": _after_generate,
    "data.save_embeddings": _after_save_embeddings,
    "data.load_embeddings": _after_load_embeddings,
    "data.save_trials": _after_save_file,
    "data.save_scores": _after_save_file,
    "data.load_trials": _after_load_trials,
    "logit.fused_batch": _after_fused,
    "mlp.forward": _after_forward,
    "mlp.backward": _after_backward,
    "align.train": _after_train,
    "metrics.score_trials": _after_score_trials,
    "metrics.roc": _after_roc,
}

NAMERS = {
    "align.train": lambda args, kwargs: "align.train." + train_run_label(args[0]),
}


# ---------------------------------------------------------------------------
# Deriving per-layer metrics


def span_times(name_id, start, end, parent) -> tuple[np.ndarray, np.ndarray]:
    """Per-span (inclusive, self) durations.

    Self time is the span's duration minus the durations of its direct
    children, which nest inside it.
    """
    name_id = np.asarray(name_id)
    incl = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent)
    child_sum = np.zeros_like(incl)
    has_parent = parent >= 0
    np.add.at(child_sum, parent[has_parent], incl[has_parent])
    return incl, incl - child_sum


def totals_by_name(tracer: Tracer) -> dict[str, dict]:
    """Sum calls, inclusive and self time per span name."""
    n = len(tracer.start)
    ids = np.frombuffer(tracer.name_id, dtype=np.int32)[:n]
    incl, self_t = span_times(
        ids,
        np.frombuffer(tracer.start, dtype=np.float64)[:n],
        np.frombuffer(tracer.end, dtype=np.float64)[:n],
        np.frombuffer(tracer.parent, dtype=np.int32)[:n],
    )
    out = {}
    for nid in np.unique(ids):
        sel = ids == nid
        out[tracer.names[nid]] = {
            "calls": int(np.count_nonzero(sel)),
            "incl": float(incl[sel].sum()),
            "self": float(self_t[sel].sum()),
        }
    return out


# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "numerics.length_normalize.calls": "count",
    "numerics.length_normalize.s": "s",
    "numerics.cholesky_upper.s": "s",
    "synth.generate.s": "s",
    "synth.generate.records_per_s": "records/s",
    "synth.make_trials.s": "s",
    "data.build_all_profiles.s": "s",
    "data.save_embeddings.s": "s",
    "data.save_embeddings.records_per_s": "records/s",
    "data.load_embeddings.s": "s",
    "data.load_embeddings.records_per_s": "records/s",
    "data.load_trials.s": "s",
    "data.save_scores.s": "s",
    "data.bytes_written": "bytes",
    "data.bytes_read": "bytes",
    **{f"align.train.s.{run}": "s" for run in TRAIN_RUNS},
    "align.step_ms.m1": "ms",
    "align.step_ms.m2": "ms",
    "align.step_ms.m3": "ms",
    "align.sample_batch.s": "s",
    "align.sample_negative_bank.s": "s",
    "align.loss_m3.s": "s",
    "align.PairedData.s": "s",
    "align.map.s": "s",
    "mlp.forward.s": "s",
    "mlp.forward.calls": "count",
    "mlp.backward.s": "s",
    "mlp.adam_step.s": "s",
    "mlp.gflop": "GFLOP",
    "mlp.gflop_per_s": "GFLOP/s",
    "logit.compute_fusion_transform.s": "s",
    "logit.fused_batch.s": "s",
    "logit.fused_trials_per_s": "trials/s",
    "metrics.score_trials.s": "s",
    "metrics.score_trials.trials_per_s": "trials/s",
    "metrics.roc.s": "s",
    "metrics.roc.thresholds": "count",
    "metrics.eer.s": "s",
    "metrics.evaluate.s": "s",
    "cli.synth.s": "s",
    "cli.profile.s": "s",
    "cli.logit_align.s": "s",
    "cli.train.s": "s",
    "cli.score.s": "s",
    "cli.eval.s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# Whole operations are reported inclusive of the traced calls they make;
# every other ".s" metric is self time.
INCLUSIVE = ("align.train.", "align.map", "cli.")


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(totals: dict[str, dict], counters: dict[str, float],
                  reps: int) -> dict[str, float]:
    """Per-layer values per repetition, from span totals and counters.

    Metrics of layers the workload never calls are 0.
    """
    def time_of(name):
        t = totals.get(name)
        if t is None:
            return 0.0
        return t["incl"] if name.startswith(INCLUSIVE) else t["self"]

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    c = counters.get
    out = {}
    for metric in PER_LAYER:
        if metric.endswith(".s"):
            out[metric] = time_of(metric[:-2]) / reps
    for run in TRAIN_RUNS:
        out[f"align.train.s.{run}"] = time_of(f"align.train.{run}") / reps
    for variant in ("m1", "m2", "m3"):
        out[f"align.step_ms.{variant}"] = 1000 * _rate(
            c(f"align.train_incl_s.{variant}", 0.0), c(f"align.steps.{variant}", 0.0))
    out["numerics.length_normalize.calls"] = calls("numerics.length_normalize") / reps
    out["mlp.forward.calls"] = calls("mlp.forward") / reps
    out["synth.generate.records_per_s"] = _rate(
        c("synth.generate.records", 0.0), c("synth.generate.incl_s", 0.0))
    for fn in ("save_embeddings", "load_embeddings"):
        out[f"data.{fn}.records_per_s"] = _rate(
            c(f"data.{fn}.records", 0.0), c(f"data.{fn}.incl_s", 0.0))
    out["data.bytes_written"] = c("data.bytes_written", 0.0) / reps
    out["data.bytes_read"] = c("data.bytes_read", 0.0) / reps
    gflop = c("mlp.flop", 0.0) / 1e9
    out["mlp.gflop"] = gflop / reps
    out["mlp.gflop_per_s"] = _rate(
        gflop, time_of("mlp.forward") + time_of("mlp.backward"))
    out["logit.fused_trials_per_s"] = _rate(
        c("logit.fused_batch.trials", 0.0), time_of("logit.fused_batch"))
    out["metrics.score_trials.trials_per_s"] = _rate(
        c("metrics.score_trials.trials", 0.0), c("metrics.score_trials.incl_s", 0.0))
    out["metrics.roc.thresholds"] = c("metrics.roc.thresholds", 0.0) / reps
    out["trace.spans"] = sum(t["calls"] for t in totals.values()) / reps
    return {k: out[k] for k in PER_LAYER if k in out}
