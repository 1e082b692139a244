"""One complete workload run in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Writes a small JSON result (first-step time, end time, peak RSS and, when
traced, the per-layer metrics) next to the run directory; the parent times
the process and checks the run directory's ``report.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

import spans

# Run lengths are reduced from the acceptance fixtures so that one run of
# each workload fits several times into a benchmark run.
GAME = dict(k=10, d=60, per_class=300, flip_prob=0.4, hidden_sizes=[256, 128],
            lam=3.0, outer_epochs=6, attack_steps_per_epoch=124, attacker_epochs=10)
MEMORIZE = dict(k=10, d=60, per_class=300, flip_prob=0.4, hidden_sizes=[256, 128],
                lam=0.0, outer_epochs=200, attacker_epochs=30)
WIDE = dict(k=100, d=600, per_class=30, flip_prob=0.3, hidden_sizes=[1024, 512, 256],
            lam=0.0, outer_epochs=20, attacker_epochs=5)


def _experiment_config(spec: dict, seed: int, run_dir: str):
    from advreg.experiment import ExperimentConfig
    from advreg.trainer import GameConfig

    return ExperimentConfig(
        output_dir=run_dir, run_label="bench", k=spec["k"], d=spec["d"],
        per_class=spec["per_class"], flip_prob=spec["flip_prob"],
        hidden_sizes=list(spec["hidden_sizes"]), attacker_epochs=spec["attacker_epochs"],
        game=GameConfig(lam=spec["lam"], outer_epochs=spec["outer_epochs"],
                        attack_steps_per_epoch=spec.get("attack_steps_per_epoch"),
                        seed=seed),
    )


def run_memorize(seed: int, run_dir: str, inputs_dir: str) -> None:
    """gen-data -> train -> attack -> evaluate through the CLI, in one process.

    The generated CSV and the config file are inputs, so they live next to
    the run directory, not in it.
    """
    from advreg.cli import main

    spec = MEMORIZE
    csv_path = os.path.join(inputs_dir, "data.csv")
    config_path = os.path.join(inputs_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump({
            "output_dir": run_dir, "run_label": "bench", "csv_path": csv_path,
            "k": spec["k"], "hidden_sizes": spec["hidden_sizes"],
            "attacker_epochs": spec["attacker_epochs"],
            "game": {"lam": spec["lam"], "outer_epochs": spec["outer_epochs"], "seed": seed},
        }, fh)
    stages = [
        ["gen-data", "--out", csv_path, "--k", str(spec["k"]), "--d", str(spec["d"]),
         "--per-class", str(spec["per_class"]), "--flip-prob", str(spec["flip_prob"]),
         "--seed", str(seed)],
        ["train", "--config", config_path],
        ["attack", "--config", config_path],
        ["evaluate", "--config", config_path],
    ]
    for argv in stages:
        if main(argv) != 0:
            raise RuntimeError(f"advreg {argv[0]} failed")


def run_workload(workload: str, seed: int, run_dir: str, inputs_dir: str) -> None:
    if workload == "memorize":
        run_memorize(seed, run_dir, inputs_dir)
        return
    from advreg.experiment import run_experiment

    run_experiment(_experiment_config(WORKLOADS[workload], seed, run_dir))


WORKLOADS = {"game": GAME, "memorize": MEMORIZE, "wide": WIDE}


def _mark_first_step(marks: dict) -> None:
    """Record when the first training step starts, then unhook at once."""
    trainer = importlib.import_module("advreg.trainer")
    originals = {name: getattr(trainer, name)
                 for name in ("attack_inner_step", "defense_outer_step")}

    def hook(name):
        def first(*args, **kwargs):
            marks["first_step"] = time.monotonic()
            for key, fn in originals.items():
                setattr(trainer, key, fn)
            return originals[name](*args, **kwargs)
        return first

    for name in originals:
        setattr(trainer, name, hook(name))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--trace", help="write spans here and report per-layer metrics")
    args = parser.parse_args()

    inputs_dir = args.run_dir + ".inputs"
    os.makedirs(args.run_dir)
    os.makedirs(inputs_dir)
    marks: dict = {}
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder(os.path.basename(args.run_dir))
        spans.instrument(recorder)
    else:
        _mark_first_step(marks)

    run_workload(args.workload, args.seed, args.run_dir, inputs_dir)
    end = time.monotonic()

    result = {"end": end, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        result["layers"], result["phase_s"] = spans.layer_metrics(recorder.spans, args.spawned, end)
        result["first_step"] = args.spawned + result["phase_s"]["setup"]
        recorder.write(args.trace)
    else:
        result["first_step"] = marks["first_step"]
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
