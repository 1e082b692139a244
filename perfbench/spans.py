"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``instrument`` replaces
each public function of interest with a timing wrapper in every ``advreg``
module that holds it by name (modules import functions by name, so patching
the defining module alone would miss most callers). Nothing under ``src/``
is modified.

A span is ``[name, start, end, parent_index, attr]``; times come from
``time.monotonic`` (system-wide on Linux, so they compare with the parent
process's spawn timestamp). Spans stay in memory and are written once, when
the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import os
import sys
import time

TRAIN = ("trainer.train_minmax", "trainer.train_plain")
EXTERNAL = ("attack.train_external_attacker",)
WRITE = ("experiment._write_json", "trainer.TrainTrace.to_csv",
         "experiment._write_histogram_csv", "experiment._write_gencdf_csv")
STEP = ("trainer.attack_inner_step", "trainer.defense_outer_step")
METRICS = ("metrics.model_accuracy", "metrics.per_class_generalization_error",
           "metrics.generalization_cdf", "metrics.distribution_gap")
THEORY = ("theory.harvest_discrete_game", "theory.equilibrium_check")
TO_DICT = ("models.ClassifierModel.to_dict", "models.AttackModel.to_dict")
FROM_DICT = ("models.ClassifierModel.from_dict", "models.AttackModel.from_dict")
MODEL_FILES = ("classifier.json", "attack_model.json", "game_attack_model.json")

# Every file any workload writes to its run directory.
ARTIFACT_FILES = ("report.json", "classifier.json", "attack_model.json",
                  "game_attack_model.json", "split.json", "config.json",
                  "attack_report.json", "trace.csv", "gencdf.csv",
                  "hist_accuracy_members.csv", "hist_accuracy_nonmembers.csv",
                  "hist_entropy_members.csv", "hist_entropy_nonmembers.csv")
PHASES = ("setup", "train", "external_attack", "evaluate", "write")

# Module-level functions to time: span name -> (module, attribute).
FUNCTIONS = {
    "trainer.train_minmax": ("advreg.trainer", "train_minmax"),
    "trainer.train_plain": ("advreg.trainer", "train_plain"),
    "trainer.attack_inner_step": ("advreg.trainer", "attack_inner_step"),
    "trainer.defense_outer_step": ("advreg.trainer", "defense_outer_step"),
    "trainer._epoch_record": ("advreg.trainer", "_epoch_record"),
    "nn.optimizer_step": ("advreg.nn", "optimizer_step"),
    "objectives.attack_gain_grads": ("advreg.objectives", "attack_gain_grads"),
    "objectives.defender_objective_grads": ("advreg.objectives", "defender_objective_grads"),
    "objectives.classification_loss_grads": ("advreg.objectives", "classification_loss_grads"),
    "objectives.inference_gain": ("advreg.objectives", "inference_gain"),
    "models.attack_forward_cached": ("advreg.models", "attack_forward_cached"),
    "models.attack_backward": ("advreg.models", "attack_backward"),
    "attack.train_external_attacker": ("advreg.attack", "train_external_attacker"),
    "attack.attack_report": ("advreg.attack", "attack_report"),
    "metrics.model_accuracy": ("advreg.metrics", "model_accuracy"),
    "metrics.per_class_generalization_error": ("advreg.metrics", "per_class_generalization_error"),
    "metrics.generalization_cdf": ("advreg.metrics", "generalization_cdf"),
    "metrics.distribution_gap": ("advreg.metrics", "distribution_gap"),
    "theory.harvest_discrete_game": ("advreg.theory", "harvest_discrete_game"),
    "theory.equilibrium_check": ("advreg.theory", "equilibrium_check"),
    "data.synth_generate": ("advreg.data", "synth_generate"),
    "data.load_csv": ("advreg.data", "load_csv"),
    "data.split_dataset": ("advreg.data", "split_dataset"),
    "experiment.split_from_dict": ("advreg.experiment", "split_from_dict"),
    "experiment._write_json": ("advreg.experiment", "_write_json"),
    "experiment._write_histogram_csv": ("advreg.experiment", "_write_histogram_csv"),
    "experiment._write_gencdf_csv": ("advreg.experiment", "_write_gencdf_csv"),
    "cli.cmd_train": ("advreg.cli", "cmd_train"),
    "cli.cmd_attack": ("advreg.cli", "cmd_attack"),
    "cli.cmd_evaluate": ("advreg.cli", "cmd_evaluate"),
    "cli._load_json": ("advreg.cli", "_load_json"),
}

# Methods to time: span name -> (module, class, attribute).
METHODS = {
    "models.ClassifierModel.predict": ("advreg.models", "ClassifierModel", "predict"),
    "models.ClassifierModel.to_dict": ("advreg.models", "ClassifierModel", "to_dict"),
    "models.AttackModel.to_dict": ("advreg.models", "AttackModel", "to_dict"),
    "models.ClassifierModel.from_dict": ("advreg.models", "ClassifierModel", "from_dict"),
    "models.AttackModel.from_dict": ("advreg.models", "AttackModel", "from_dict"),
    "data.DataSplit.unknown_members": ("advreg.data", "DataSplit", "unknown_members"),
    "trainer.TrainTrace.to_csv": ("advreg.trainer", "TrainTrace", "to_csv"),
}


class SpanRecorder:
    """In-memory spans of one run; ``run_id`` is stamped on each when written."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def inside(self, names) -> bool:
        return any(self.spans[i][0] in names for i in self._stack)

    def wrap(self, name: str, fn, attr=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = attr(*args, **kwargs) if attr is not None else None
            span = [name, time.monotonic(), 0.0, stack[-1] if stack else -1, tag]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "attr": tag}) + "\n")


def _rebind(old, new) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "advreg" or mod_name.startswith("advreg."):
            for key, value in list(vars(module).items()):
                if value is old:
                    setattr(module, key, new)


def instrument(recorder: SpanRecorder) -> None:
    """Replace every function in FUNCTIONS and METHODS by a timing wrapper."""
    importlib.import_module("advreg.cli")  # loads every advreg module

    def load_path(path, *args, **kwargs):
        return os.path.basename(str(path))

    def dataset_key(model, features, *args, **kwargs):
        # Only predictions outside training are counted per dataset.
        if recorder.inside(TRAIN + EXTERNAL):
            return None
        return hashlib.blake2b(features.tobytes(), digest_size=8).hexdigest()

    for name, (module, attr) in FUNCTIONS.items():
        fn = getattr(importlib.import_module(module), attr)
        tag = load_path if name == "cli._load_json" else None
        _rebind(fn, recorder.wrap(name, fn, tag))
    for name, (module, cls_name, attr) in METHODS.items():
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(recorder.wrap(name, raw.__func__)))
        else:
            tag = dataset_key if attr == "predict" else None
            setattr(cls, attr, recorder.wrap(name, raw, tag))


def percentiles(durations: list[float]) -> tuple[float, float, float]:
    """(p50, pmax, pmax percentile), where pmax is the highest percentile of
    the ladder with at least ten samples beyond it; p50 alone below 20 samples."""
    if not durations:
        return 0.0, 0.0, 0.0
    ordered = sorted(durations)
    n = len(ordered)

    def rank(p):
        return ordered[max(0, math.ceil(p / 100.0 * n) - 1)]

    best = 50.0
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return rank(50.0), rank(best), best


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[list], t_spawn: float, t_end: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run plus its phase seconds."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)

    def duration(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return duration(i) - _covered([(spans[c][1], spans[c][2]) for c in children.get(i, ())])

    def parent(i):
        return spans[spans[i][3]][0] if spans[i][3] != -1 else ""

    def ancestors(i):
        p = spans[i][3]
        while p != -1:
            yield spans[p][0]
            p = spans[p][3]

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def ids(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def total(*names):
        return sum(duration(i) for i in ids(*names))

    out: dict[str, float] = {}

    def step_stats(prefix, durations):
        p50, pmax, pct = percentiles(durations)
        out[f"{prefix}.calls"] = len(durations)
        out[f"{prefix}.p50_ms"] = p50 * 1e3
        out[f"{prefix}.pmax_ms"] = pmax * 1e3
        out[f"{prefix}.pmax_pct"] = pct

    inner = ids("trainer.attack_inner_step")
    step_stats("trainer.attack_inner_step.game",
               [duration(i) for i in inner if parent(i) == "trainer.train_minmax"])
    step_stats("trainer.attack_inner_step.external",
               [duration(i) for i in inner if parent(i) in EXTERNAL])
    step_stats("trainer.defense_outer_step",
               [duration(i) for i in ids("trainer.defense_outer_step")])
    out["trainer.epoch_eval_s"] = total("trainer._epoch_record") + sum(
        duration(i) for i in ids("objectives.inference_gain")
        if parent(i) == "trainer.train_minmax")
    out["trainer.optimizer_step.calls"] = len(ids("nn.optimizer_step"))
    out["trainer.optimizer_step_s"] = total("nn.optimizer_step")

    for name in ("attack_gain_grads", "defender_objective_grads", "classification_loss_grads"):
        calls = ids(f"objectives.{name}")
        out[f"objectives.{name}.calls"] = len(calls)
        out[f"objectives.{name}.self_ms"] = sum(self_time(i) for i in calls) * 1e3
    gain_calls = ids("objectives.attack_gain_grads")
    used = [i for i in gain_calls if parent(i) == "trainer.attack_inner_step"]
    out["objectives.param_grad_use_ratio"] = len(used) / len(gain_calls) if gain_calls else 0.0

    for name in ("attack_forward_cached", "attack_backward"):
        calls = ids(f"models.{name}")
        out[f"models.{name}.calls"] = len(calls)
        out[f"models.{name}.self_ms"] = sum(self_time(i) for i in calls) * 1e3
    out["models.to_dict_s"] = total(*TO_DICT)
    out["models.from_dict_s"] = total(*FROM_DICT)

    reports = ids("attack.attack_report")
    out["attack.external_train_s"] = total(*EXTERNAL)
    out["attack.report_ms"] = total("attack.attack_report") * 1e3
    forwards = sum(1 for i in ids("models.attack_forward_cached")
                   if "attack.attack_report" in ancestors(i))
    out["attack.forward_per_report"] = forwards / len(reports) if reports else 0.0

    out["metrics.eval_s"] = sum(
        duration(i) for i in ids(*METRICS)
        if not any(a in TRAIN + METRICS for a in ancestors(i)))
    out["theory.equilibrium_s"] = total(*THEORY)
    keys = [spans[i][4] for i in ids("models.ClassifierModel.predict") if spans[i][4] is not None]
    out["metrics.predict_calls"] = len(keys)
    out["metrics.predict_sets"] = len(set(keys))

    out["data.generate_s"] = total("data.synth_generate")
    out["data.load_csv_s"] = total("data.load_csv")
    out["data.split_s"] = total("data.split_dataset", "experiment.split_from_dict")
    out["data.unknown_members_ms"] = total("data.DataSplit.unknown_members") * 1e3

    out["cli.train_s"] = total("cli.cmd_train")
    out["cli.attack_s"] = total("cli.cmd_attack")
    out["cli.evaluate_s"] = total("cli.cmd_evaluate")
    out["cli.model_load_s"] = total(*FROM_DICT) + sum(
        duration(i) for i in ids("cli._load_json") if spans[i][4] in MODEL_FILES)

    steps = ids(*STEP)
    first_step = min(spans[i][1] for i in steps) if steps else t_end
    phases = {
        "setup": first_step - t_spawn,
        "train": _covered([(max(spans[i][1], first_step), spans[i][2]) for i in ids(*TRAIN)]),
        "external_attack": _covered([(spans[i][1], spans[i][2]) for i in ids(*EXTERNAL)]),
        "write": _covered([(spans[i][1], spans[i][2]) for i in ids(*WRITE, *TO_DICT)]),
    }
    # Evaluation is the rest of the run after the first step: scoring, metrics
    # and, on the command-line path, the stages reading their inputs back.
    phases["evaluate"] = (t_end - t_spawn) - sum(phases.values())
    return out, phases
