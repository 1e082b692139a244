"""Warm microbenchmarks of the nn layer at the workloads' shapes.

Times ``mlp_forward``, ``mlp_backward`` and ``optimizer_step`` (Adam) on nets
built with ``build_classifier`` and ``build_attack_model``. Every timing is
the median of repeated calls after warm-up calls. ``adam_mb`` is computed,
not measured: the bytes an Adam step must at least move, reading parameter,
gradient and both moments and writing back parameter and both moments
(7 float64 arrays, 56 bytes per parameter).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from advreg.models import build_attack_model, build_classifier
from advreg.nn import adam, mlp_backward, mlp_forward, optimizer_step

BATCHES = (32, 64, 1000)
ADAM_BYTES_PER_PARAM = 7 * 8
WARMUP = 2
MIN_REPS = 5
MIN_SECONDS = 0.05


def median_ms(fn) -> float:
    for _ in range(WARMUP):
        fn()
    times = []
    while len(times) < MIN_REPS or sum(times) < MIN_SECONDS:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def nets(rng: np.random.Generator) -> dict:
    """name -> (spec, params, input generator) at the workloads' shapes."""
    game_k = 10
    classifier = build_classifier(60, game_k, [256, 128], seed=0)
    wide = build_classifier(600, 100, [1024, 512, 256], seed=0)
    attack = build_attack_model(game_k, seed=0)

    def binary(width):
        return lambda b: rng.integers(0, 2, size=(b, width)).astype(float)

    def probabilities(b):
        return rng.dirichlet(np.ones(game_k), size=b)

    def one_hot(b):
        return np.eye(game_k)[rng.integers(0, game_k, size=b)]

    def rectified(width):
        return lambda b: np.maximum(rng.normal(size=(b, width)), 0.0)

    common_in = attack.common_branch.spec.input_dim
    return {
        "classifier": (classifier.spec, classifier.params, binary(60)),
        "classifier_wide": (wide.spec, wide.params, binary(600)),
        "prediction_branch": (attack.prediction_branch.spec, attack.prediction_branch.params,
                              probabilities),
        "label_branch": (attack.label_branch.spec, attack.label_branch.params, one_hot),
        "common_branch": (attack.common_branch.spec, attack.common_branch.params,
                          rectified(common_in)),
    }, {
        "attack_net": attack.param_arrays(),
        "classifier": classifier.params.arrays(),
        "classifier_wide": wide.params.arrays(),
    }


def measure() -> dict:
    rng = np.random.default_rng(0)
    forward_nets, adam_models = nets(rng)
    out = {}
    for name, (spec, params, inputs) in forward_nets.items():
        for b in BATCHES:
            x = inputs(b)
            y, cache = mlp_forward(spec, params, x)
            grad = rng.normal(size=y.shape)
            out[f"nn.forward_ms.{name}.b{b}"] = median_ms(lambda: mlp_forward(spec, params, x))
            out[f"nn.backward_ms.{name}.b{b}"] = median_ms(
                lambda: mlp_backward(spec, params, cache, grad))
    for name, arrays in adam_models.items():
        grads = [rng.normal(scale=1e-3, size=a.shape) for a in arrays]
        state = adam(1e-6).fresh()
        out[f"nn.adam_ms.{name}"] = median_ms(lambda: optimizer_step(state, arrays, grads))
        out[f"nn.adam_mb.{name}"] = ADAM_BYTES_PER_PARAM * sum(a.size for a in arrays) / 1e6
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    with open(args.result, "w") as fh:
        json.dump({"layers": measure()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
