"""advreg benchmark: closed loop, one client, one workload run per fresh process.

    python3 perfbench/run.py --workload game --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run of a workload is a child process (``child.py``) started after the
previous one has ended. The seed picks ``DATASETS_PER_RUN`` input seeds;
children cycle through them until ``--seconds`` have passed and every input
seed has run, plus one repeat so that determinism is checked in every run.

``--trace 0`` reports the end-to-end metrics: medians over the children of
run time, set-up time, peak memory and bytes written, and the mean over the
input seeds of the test and attack accuracy from ``report.json``.
``--trace 1`` runs the nn microbenchmark (``micro.py``), then alternates
untraced and traced children on one input seed and reports the per-layer
metrics (medians over the traced children) plus the tracing overhead. Traced
numbers never enter the end-to-end metrics.

Every child's ``report.json`` must hold only finite numbers with every
accuracy in [0, 1], and runs of one input seed must write identical
``report.json`` bytes; otherwise ``correct`` is false. The last line of
standard output is the result as one JSON object; the lines before it give
the environment and each metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("game", "memorize", "wide")
DATASETS_PER_RUN = 3
DEADLINE_S = 170.0  # a run must end within 180 s, whatever --seconds says


# One BLAS thread, within the `nproc` limit: on a small shared box two
# threads made child run times spread about three times wider.
BLAS_THREADS = 1


def nproc() -> int:
    """CPUs this process may run on, as `nproc` prints."""
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
            "blas_threads": BLAS_THREADS, "nproc": nproc(), "cpu": cpu}


def child_env() -> dict:
    threads = str(min(BLAS_THREADS, nproc()))
    # numpy asks for transparent huge pages on large arrays; whether the kernel
    # grants them depends on the box's memory state, which moved the wide
    # workload's peak RSS between 152 and 168 MB from one hour to the next.
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads, NUMPY_MADVISE_HUGEPAGE="0")


def walk(obj, key=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from walk(v, k)
    elif isinstance(obj, list):
        for v in obj:
            yield from walk(v, key)
    else:
        yield key, obj


def check_report(path: Path) -> tuple[str, dict]:
    """sha256 of report.json and the report; raises ValueError if it is bad."""
    data = path.read_bytes()

    def reject(token):
        raise ValueError(f"report.json holds {token}")

    report = json.loads(data, parse_constant=reject)
    for key, value in walk(report):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"report.json: {key} = {value}")
        if "accuracy" in key and not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
            raise ValueError(f"report.json: {key} = {value!r} is not in [0, 1]")
    return hashlib.sha256(data).hexdigest(), report


class Child:
    """Outcome of one child process."""

    def __init__(self, dataset: int):
        self.dataset = dataset
        self.error = None
        self.wall_s = 0.0
        self.result: dict = {}
        self.sha = None
        self.report: dict = {}
        self.file_bytes: dict[str, int] = {}
        self.traced = False

    @property
    def ok(self) -> bool:
        return self.error is None


def run_child(script: str, args: list[str], dataset: int, run_dir: Path | None,
              result: Path, timeout: float) -> Child:
    child = Child(dataset)
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / script), "--result", str(result), *args]
    if run_dir is not None:
        cmd += ["--run-dir", str(run_dir.relative_to(ROOT)), "--spawned", repr(spawned)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        child.error = f"{script} timed out after {timeout:.0f} s"
        return child
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    child.wall_s = time.monotonic() - spawned
    if proc.returncode != 0:
        child.error = f"{script} exited with {proc.returncode}: {err.strip()[-2000:]}"
        return child
    try:
        child.result = json.loads(result.read_text())
        if run_dir is not None:
            child.result["setup_s"] = child.result["first_step"] - spawned
            for path in run_dir.rglob("*"):
                if path.is_file():
                    child.file_bytes[path.name] = path.stat().st_size
            child.sha, child.report = check_report(run_dir / "report.json")
    except (OSError, ValueError, KeyError) as exc:
        child.error = f"{script}: {exc}"
    return child


class Bench:
    """One benchmark run: a workload, a seed and a time budget."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.deadline = self.start + DEADLINE_S
        self.base = ROOT / ".bench_runs" / f"{workload}-s{seed}"
        self.children: list[Child] = []

    def __enter__(self):
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.base, ignore_errors=True)

    def fits(self, minimum: int) -> bool:
        """Whether to start another child."""
        now = time.monotonic()
        if len(self.children) >= minimum and now - self.start >= self.seconds:
            return False
        longest = max((c.wall_s for c in self.children), default=0.0)
        return now + 1.2 * longest < self.deadline

    def workload_child(self, dataset: int, trace: bool) -> Child:
        n = len(self.children)
        run_dir = self.base / f"d{dataset}"
        args = ["--workload", self.workload,
                "--seed", str(self.seed * DATASETS_PER_RUN + dataset)]
        if trace:
            traces = ROOT / ".bench_runs" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            args += ["--trace", str(traces / f"{self.workload}-s{self.seed}-c{n}.jsonl")]
        child = run_child("child.py", args, dataset, run_dir, self.base / f"c{n}.json",
                          self.deadline - time.monotonic())
        child.traced = trace
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(str(run_dir) + ".inputs", ignore_errors=True)
        self.children.append(child)
        return child

    def verdict(self) -> tuple[bool, int, int]:
        attempted = len(self.children)
        failed = sum(not c.ok for c in self.children)
        for n, c in enumerate(self.children):
            state = "ok" if c.ok else f"failed: {c.error}"
            print(f"# child {n} input {c.dataset} traced {int(c.traced)} "
                  f"{c.wall_s:.3f} s {state}", file=sys.stderr)
        hashes: dict[int, set] = {}
        for c in self.children:
            if c.ok and c.sha is not None:
                hashes.setdefault(c.dataset, set()).add(c.sha)
        deterministic = all(len(h) == 1 for h in hashes.values())
        if not deterministic:
            print("# report.json differs between runs of one input seed", file=sys.stderr)
        return failed == 0 and deterministic, attempted, failed

    def end_to_end(self) -> dict:
        while self.fits(DATASETS_PER_RUN + 1):
            self.workload_child(len(self.children) % DATASETS_PER_RUN, trace=False)
        ok = [c for c in self.children if c.ok]
        if not ok:
            return {}
        first = {}
        for c in ok:
            first.setdefault(c.dataset, c.report)
        return {
            "run_s": statistics.median(c.wall_s for c in ok),
            "setup_s": statistics.median(c.result["setup_s"] for c in ok),
            "peak_rss_mb": statistics.median(c.result["maxrss_kb"] * 1024 / 1e6 for c in ok),
            "artifact_mb": statistics.median(sum(c.file_bytes.values()) / 1e6 for c in ok),
            "test_accuracy": statistics.fmean(r["test_accuracy"] for r in first.values()),
            "attack_accuracy": statistics.fmean(r["attack_accuracy"] for r in first.values()),
        }

    def per_layer(self) -> dict:
        micro = run_child("micro.py", [], -1, None, self.base / "micro.json",
                          self.deadline - time.monotonic())
        self.children.append(micro)
        while self.fits(3):
            traced = sum(c.traced for c in self.children)
            untraced = len(self.children) - 1 - traced
            self.workload_child(0, trace=untraced > traced)
        plain = [c for c in self.children[1:] if c.ok and not c.traced]
        traced = [c for c in self.children[1:] if c.ok and c.traced]
        if not (micro.ok and plain and traced):
            return {}
        out = dict(micro.result["layers"])
        for key in traced[0].result["layers"]:
            out[key] = statistics.median(c.result["layers"][key] for c in traced)
        shares = {phase: statistics.median(c.result["phase_s"][phase] / c.wall_s for c in traced)
                  for phase in spans.PHASES}
        for phase, share in shares.items():
            out[f"experiment.phase_share.{phase}"] = share
        out["trace.phase_share_sum"] = sum(shares.values())
        for name in spans.ARTIFACT_FILES:
            out[f"experiment.artifact_mb.{name}"] = statistics.median(
                c.file_bytes.get(name, 0) / 1e6 for c in traced)
        plain_s = statistics.median(c.wall_s for c in plain)
        out["trace.overhead_share"] = (statistics.median(c.wall_s for c in traced) - plain_s) / plain_s
        return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict | None:
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    with Bench(workload, seed, seconds) as bench:
        values = bench.per_layer() if trace else bench.end_to_end()
        correct, attempted, failed = bench.verdict()
    if not values:
        print(f"# {workload}: no run completed", file=sys.stderr)
        return None
    if set(values) != set(listed):
        raise SystemExit(f"metrics disagree with BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(listed))}")
    for name, unit in listed.items():
        print(f"{workload}  {name} = {values[name]:.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in listed.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "advreg" / "__init__.py").is_file():
        print(f"no advreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    print("# env " + json.dumps(environment(), sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
               for w in workloads}
    if any(r is None for r in results.values()):
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
