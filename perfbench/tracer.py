"""Traced run: wrappers around the public functions of each layer.

The library modules import each other with ``from x import y``, so every
wrapper is installed where the name is looked up (``evaluation.normalize``,
``evaluation.composite_loss``, ``baselines.fit_logreg``...), not only where
it is defined. Names that a later version of the library no longer has are
skipped, and the metrics that depend on them read 0.

Spans (name, start, end, parent, task id, inside-a-step flag) are kept in
memory and written as JSON lines when the run ends. Tape primitives and
``Tensor`` constructions are too frequent for spans; they are counted and
timed as counters instead, and only inside a training step (inside
``train_model`` or ``fit_logreg``), so per-step counts are exact.
"""
from __future__ import annotations

import functools
import json
import os
import platform
import time

import numpy as np

from biocompass import baselines, data, diffcore, evaluation, model

# primitives reported one by one; every other public Tape method is counted
# in diffcore.prim_calls_per_step only
TIMED_PRIMITIVES = ("matmul", "add_bias", "mul", "scale", "add", "relu",
                    "sigmoid", "softplus", "mse", "bce", "constant")

# per-layer counts that must repeat exactly between two traced runs of the
# same workload and seed
EXACT_COUNTS = (
    "diffcore.tensors_per_step", "diffcore.prim_calls_per_step",
    "diffcore.adam_params_per_step", "evaluation.steps", "data.normalize.calls",
    "baselines.fit_logreg.grad_evals_per_fit",
    "baselines.fit_logreg.forward_passes_per_fit",
)

MODEL_STAGES = {
    "model.pooled_batch": "pooled_batch",
    "model.concepts": "concepts",
    "model.gate": "gate",
    "model.classify": "classify",
    "model.pathway": "predict_pathways",
    "model.projection": "project_concepts",
    "model.aux": "predict_aux",
}
SIDE_HEADS = ("model.pathway", "model.projection", "model.aux")


class Tracer:
    """Installs the layer wrappers and turns what they record into the
    benchmark's per-layer metrics."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, task, in_step]
        self._stack = []
        self.task = 0
        self.step_depth = 0    # > 0 inside train_model or fit_logreg
        self.train_depth = 0
        self.prims = {}        # primitive -> [calls, seconds], inside steps
        self.tensors = 0
        self.tensor_bytes = 0
        self.backward_calls = 0
        self.train_steps = 0
        self.adam_params = 0
        self.fit = None        # counters of the fit_logreg call in progress
        self.fits = []
        self.normalize_keys = []
        self.csv_cells = 0

    # ---- installation -------------------------------------------------

    def install(self) -> None:
        for layer, sites in (
            ("data.load_csv", [(data, "load_csv")]),
            ("data.generate_synthetic", [(data, "generate_synthetic")]),
            ("data.normalize", [(evaluation, "normalize")]),
            ("evaluation.run_ablation", [(evaluation, "run_ablation")]),
            ("evaluation.run_protocol", [(evaluation, "run_protocol")]),
            ("evaluation.train_model", [(evaluation, "train_model")]),
            ("evaluation.compute_metrics", [(evaluation, "compute_metrics"),
                                            (baselines, "compute_metrics")]),
            ("evaluation.roc_auc", [(evaluation, "roc_auc")]),
            ("evaluation.emit_report", [(evaluation, "emit_report")]),
            ("objective.composite_loss", [(evaluation, "composite_loss")]),
            ("diffcore.backward", [(diffcore, "backward")]),
            ("diffcore.zero_grads", [(evaluation, "zero_grads"),
                                     (diffcore, "zero_grads")]),
            ("diffcore.adam_step", [(diffcore.Adam, "step")]),
            ("model.init", [(model.Model, "__init__")]),
            ("model.forward", [(model.Model, "forward")]),
            ("model.predict_proba", [(model.Model, "predict_proba")]),
            *((layer, [(model.Model, attr)])
              for layer, attr in MODEL_STAGES.items()),
            ("baselines.run_baselines", [(baselines, "run_baselines")]),
            ("baselines.fit_logreg", [(baselines, "fit_logreg")]),
            ("baselines.power_iteration_pc1",
             [(baselines, "power_iteration_pc1")]),
            ("baselines.signature_score", [(baselines, "signature_score")]),
        ):
            wrapped = {}
            for owner, attr in sites:
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._span(layer, fn)
                setattr(owner, attr, wrapped[id(fn)])
        for name, fn in list(vars(diffcore.Tape).items()):
            if callable(fn) and not name.startswith("_"):
                setattr(diffcore.Tape, name, self._counted(name, fn))
        self._wrap_tape_init()
        self._wrap_tensor_init()

    def _span(self, layer: str, fn):
        enter = getattr(self, "_enter_" + layer.replace(".", "_"), None)
        leave = getattr(self, "_leave_" + layer.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args, kwargs)
            idx = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.task,
                    self.step_depth > 0]
            spans.append(span)
            stack.append(idx)
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if leave is not None:
                    leave(args, kwargs, result)

        return wrapper

    def _counted(self, name: str, fn):
        counter = self.prims.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.step_depth == 0:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[1] += time.perf_counter() - t0
                counter[0] += 1

        return wrapper

    def _wrap_tape_init(self) -> None:
        orig = diffcore.Tape.__init__

        def init(tape, *args, **kwargs):
            orig(tape, *args, **kwargs)
            if self.fit is not None:
                self.fit["forward_passes"] += 1

        diffcore.Tape.__init__ = init

    def _wrap_tensor_init(self) -> None:
        orig = diffcore.Tensor.__init__

        def init(tensor, *args, **kwargs):
            orig(tensor, *args, **kwargs)
            if self.step_depth:
                self.tensors += 1
                self.tensor_bytes += tensor.data.nbytes

        diffcore.Tensor.__init__ = init

    # ---- layer-specific bookkeeping -------------------------------------

    def _enter_evaluation_train_model(self, args, kwargs):
        self.step_depth += 1
        self.train_depth += 1

    def _leave_evaluation_train_model(self, args, kwargs, result):
        self.step_depth -= 1
        self.train_depth -= 1

    def _enter_data_normalize(self, args, kwargs):
        self.task += 1
        dataset = args[0] if args else kwargs["dataset"]
        train_idx = args[1] if len(args) > 1 else kwargs["train_idx"]
        self.normalize_keys.append(
            (id(dataset), np.asarray(train_idx).tobytes()))

    def _leave_data_load_csv(self, args, kwargs, result):
        if result is None:
            return
        with open(args[0] if args else kwargs["path"]) as f:
            n_cols = f.readline().count(",") + 1
        self.csv_cells += len(result) * n_cols

    def _enter_diffcore_backward(self, args, kwargs):
        self.backward_calls += 1
        if self.train_depth:
            self.train_steps += 1
        if self.fit is not None:
            self.fit["grad_evals"] += 1

    def _enter_diffcore_adam_step(self, args, kwargs):
        self.adam_params += sum(
            1 for p in getattr(args[0], "params", ()) if p.trainable)

    def _enter_baselines_fit_logreg(self, args, kwargs):
        self.task += 1
        self.step_depth += 1
        self.fit = {"grad_evals": 0, "forward_passes": 0}

    def _leave_baselines_fit_logreg(self, args, kwargs, result):
        self.step_depth -= 1
        self.fits.append(self.fit)
        self.fit = None

    # ---- derived metrics ------------------------------------------------

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, start, end, _, _, _) in enumerate(self.spans)]

    def metrics(self, fit_checks: list, traced_wall_s: float,
                untraced_wall_s: float) -> dict:
        """Per-layer metrics; 0 where the workload never calls the layer."""
        totals, calls, step_totals = {}, {}, {}
        self_total = {}
        for (name, start, end, _, _, in_step), own in zip(self.spans,
                                                          self.self_times()):
            totals[name] = totals.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
            self_total[name] = self_total.get(name, 0.0) + own
            if in_step:
                step_totals[name] = step_totals.get(name, 0.0) + end - start

        def ratio(num, den):
            return num / den if den else 0.0

        steps = self.backward_calls

        def us_per_step(seconds):
            return ratio(seconds * 1e6, steps)

        def ms_per_call(name):
            return ratio(totals.get(name, 0.0) * 1e3, calls.get(name, 0))

        out = {
            "diffcore.tensors_per_step": ratio(self.tensors, steps),
            "diffcore.prim_calls_per_step": ratio(
                sum(c for c, _ in self.prims.values()), steps),
            "diffcore.tensor_mb_per_step": ratio(self.tensor_bytes / 1e6,
                                                 steps),
            "diffcore.adam_params_per_step": ratio(self.adam_params,
                                                   self.train_steps),
        }
        for prim in TIMED_PRIMITIVES:
            out[f"diffcore.{prim}.us_per_step"] = us_per_step(
                self.prims.get(prim, (0, 0.0))[1])
        for layer in ("diffcore.backward", "diffcore.adam_step",
                      "diffcore.zero_grads", "model.forward",
                      "objective.composite_loss", *MODEL_STAGES):
            out[f"{layer}.us_per_step"] = us_per_step(
                step_totals.get(layer, 0.0))
        out["model.side_heads.us_per_step"] = sum(
            out.pop(f"{layer}.us_per_step") for layer in SIDE_HEADS)
        out["model.predict_proba.ms_per_call"] = ms_per_call(
            "model.predict_proba")
        out["model.init.ms_per_call"] = ms_per_call("model.init")

        out["evaluation.train_model.self_us_per_step"] = ratio(
            self_total.get("evaluation.train_model", 0.0) * 1e6,
            self.train_steps)
        out["evaluation.steps"] = self.train_steps
        out["evaluation.compute_metrics.ms_per_call"] = ms_per_call(
            "evaluation.compute_metrics")
        out["evaluation.roc_auc.us_per_call"] = 1e3 * ms_per_call(
            "evaluation.roc_auc")
        out["evaluation.emit_report.ms_per_call"] = ms_per_call(
            "evaluation.emit_report")

        load_s = totals.get("data.load_csv", 0.0)
        out["data.load_csv.s"] = load_s
        out["data.load_csv.cells_per_s"] = ratio(self.csv_cells, load_s)
        out["data.normalize.ms_per_call"] = ms_per_call("data.normalize")
        out["data.normalize.calls"] = len(self.normalize_keys)
        out["data.normalize.useful_ratio"] = ratio(
            len(set(self.normalize_keys)), len(self.normalize_keys))
        out["data.generate_synthetic.ms"] = 1e3 * totals.get(
            "data.generate_synthetic", 0.0)

        n_fits = len(fit_checks)
        out["baselines.fit_logreg.s_per_fit"] = ratio(
            totals.get("baselines.fit_logreg", 0.0), n_fits)
        out["baselines.fit_logreg.grad_evals_per_fit"] = ratio(
            sum(f["grad_evals"] for f in self.fits), n_fits)
        out["baselines.fit_logreg.forward_passes_per_fit"] = ratio(
            sum(f["forward_passes"] for f in self.fits), n_fits)
        out["baselines.fit_logreg.converged_ratio"] = ratio(
            sum(f["converged"] for f in fit_checks), n_fits)
        out["baselines.fit_logreg.max_grad_norm"] = max(
            (f["grad_norm"] for f in fit_checks), default=0.0)
        out["baselines.power_iteration_pc1.ms"] = ms_per_call(
            "baselines.power_iteration_pc1")
        out["baselines.signature_score.ms"] = ms_per_call(
            "baselines.signature_score")

        out["bench.tracing_overhead_ratio"] = ratio(traced_wall_s,
                                                    untraced_wall_s)
        return out

    def write(self, path: str, header: dict) -> None:
        """Spans as JSON lines after one header line."""
        with open(path, "w") as f:
            f.write(json.dumps({**header, "exact_counts": list(EXACT_COUNTS)})
                    + "\n")
            for (name, start, end, parent, task, in_step), own in zip(
                    self.spans, self.self_times()):
                f.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "task": task, "in_step": in_step,
                    "self": own}) + "\n")


def host_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "threads": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
