"""The `udet` benchmark: whole `udet analyze` requests, end to end and per layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload corpus-cli --seed 1 --seconds 20 --trace 0

Load is a closed loop: one client with one request in flight, from this
process, with at most one child process alive at a time.  Every request is
`udet analyze <file> --format json`.

  corpus-cli      the seven frozen corpus files, round-robin, one fresh
                  `python -m udet.cli` process per request (cold: interpreter
                  start, `import udet` and grid builds are paid every time)
  generated-mix   seeded small instances through `udet.cli.main` in a warm
                  worker process; grid-bound (winner statistics, admissible set)
  wide-responses  seeded 2-attribute instances with 9-12 criteria in a warm
                  worker process; response-bound (enumerate, evaluate, render)

With `--trace 0` the last stdout line reports the end-to-end metrics, with
`--trace 1` the per-layer metrics of a separate traced run (see
`bench_trace.py`) plus a scale sweep that is recorded but not reported as a
metric.  Each run writes its full record (environment, digests of inputs and
outputs, failures, spans, sweep) under `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench_checks import OutputChecker
from bench_inputs import (SHAPES, digest, instance_text, rounds, workload_inputs,
                          write_inputs)
from bench_trace import COUNTS, IMPORT, SPAN_NAMES, STARTUP

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus-cli", "generated-mix", "wide-responses")

# One scale-sweep cell: its instance's criteria, and its time and memory budget.
SWEEP_CRITERIA = 2
SWEEP_SECONDS = 4.0
SWEEP_MEMORY_MB = 1024
# Every run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Config:
    """Run sizes.  The smoke configuration runs every path on a handful of
    requests in seconds; it checks the benchmark and measures nothing."""

    # A run holds at least this many timed requests, so ten lie beyond p90.
    # A cold CLI request costs about 0.5 s, so `corpus-cli` stops at ten
    # rounds of its seven files to keep the whole benchmark inside its time.
    # The large requests of `wide-responses` swing most with the load on a
    # shared machine, so it measures eight rounds of its 28 inputs.
    min_requests: dict[str, int] = field(default_factory=lambda: {
        "corpus-cli": 70, "generated-mix": 100, "wide-responses": 224})
    setup_samples: int = 3
    cli_setup_samples: int = 9  # import-only samples are cheap
    import_samples: int = 3
    kernel_samples: int = 3
    max_inputs: int | None = None
    # Scale sweep, traced runs only: one instance per cell, each in its own child.
    sweep_candidates: tuple[int, ...] = (4, 32, 256)
    sweep_attributes: tuple[int, ...] = (2, 5, 10, 20)


FULL = Config()
SMOKE = Config(min_requests=dict.fromkeys(WORKLOADS, 3), setup_samples=1, cli_setup_samples=1,
               import_samples=1, kernel_samples=1, max_inputs=3, sweep_candidates=(4,),
               sweep_attributes=(2,))


class Budget:
    """The deadline of one run; `left()` raises once it has passed."""

    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its time budget")
        return left


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One request in flight: no helper threads in numeric libraries, and a
    # fixed hash seed so set and dict layouts repeat from run to run.
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def worker(budget: Budget, *argv: str, timeout: float | None = None) -> dict:
    """Run `worker.py` to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, argv)]
    proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT,
                          timeout=min(timeout or budget.left(), budget.left()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-800:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def cli_request(budget: Budget, path: Path) -> tuple[float, int, bytes, bytes]:
    """One fresh `python -m udet.cli` process, timed from spawn to exit."""
    cmd = [sys.executable, "-m", "udet.cli", "analyze", str(path), "--format", "json"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT,
                          timeout=budget.left())
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def build() -> None:
    """Byte-compile the program once, so no timed import pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, capture_output=True, env=child_env(), timeout=120)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(backend: str | None) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": backend,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# -- end-to-end runs ------------------------------------------------------


def run_corpus(args, config: Config, budget: Budget, paths: list[tuple[str, Path]],
               trace: bool) -> dict:
    checker = OutputChecker("corpus-cli")
    latencies: list[float] = []
    traced: list[dict] = []
    failed = 0
    attempted = 0
    for _, (name, path) in rounds(paths, args.seed, args.seconds,
                                  0 if trace else config.min_requests["corpus-cli"]):
        elapsed, code, out, err = cli_request(budget, path)
        attempted += 1
        failed += not checker.check(name, code, out, err)
        latencies.append(elapsed)
        if trace:
            start = time.perf_counter()
            res = worker(budget, "cli", "--input", path)
            wall = time.perf_counter() - start
            attempted += 1
            failed += not checker.check(name, res["code"], res["stdout"].encode(),
                                        res["stderr"].encode())
            layers = res["layers"]
            layers[STARTUP] = wall - sum(layers.values())
            traced.append({"name": name, "seconds": wall, "layers": layers,
                           "counts": res["counts"], "spans": res["spans"]})
    result = {"latencies": latencies, "attempted": attempted, "failed": failed,
              "failures": checker.failures[:20], "output_digest": checker.output_digest(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    if trace:
        result["trace"] = {
            "requests": [{"seconds": t["seconds"], "layers": t["layers"]} for t in traced],
            "untraced": latencies,
            "counts": {t["name"]: t["counts"] for t in traced},
            "spans": [[*s[:4], r] for r, t in enumerate(traced) for s in t["spans"]],
        }
    return result


def run_workload(args, config: Config, budget: Budget, input_dir: Path, paths) -> dict:
    if args.workload == "corpus-cli":
        return run_corpus(args, config, budget, paths, bool(args.trace))
    return worker(budget, "serve", "--workload", args.workload, "--inputs", input_dir,
                  "--seed", args.seed, "--seconds", args.seconds,
                  "--min-requests", 0 if args.trace else config.min_requests[args.workload],
                  "--trace", args.trace)


def setup_samples(budget: Budget, count: int, *warm_up: object) -> list[dict]:
    """Fresh-process set-up times: `import udet`, then the warm-up pass when
    `warm_up` names a workload and its inputs."""
    return [worker(budget, "setup", *warm_up) for _ in range(count)]


def end_to_end(args, config: Config, budget: Budget, input_dir: Path,
               paths) -> tuple[dict, dict]:
    in_process = args.workload != "corpus-cli"
    if in_process:
        # The serving worker's own set-up is one of the samples.
        warm_up = ("--workload", args.workload, "--inputs", input_dir)
        samples = setup_samples(budget, config.setup_samples - 1, *warm_up)
    else:
        samples = setup_samples(budget, config.cli_setup_samples)
    result = run_workload(args, config, budget, input_dir, paths)
    setups = [s["setup_s"] for s in samples] + ([result["setup_s"]] if in_process else [])
    lat = result["latencies"]
    metrics = {
        "latency_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1000.0, "ms"),
        "throughput_rps": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "success_rate": ((result["attempted"] - result["failed"]) / result["attempted"],
                         "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    record = {"setup_samples_s": setups, "requests": len(lat),
              "backend": samples[0]["backend"] if samples else result.get("backend")}
    return metrics, dict(result, **record)


# -- traced runs ----------------------------------------------------------


def layer_metrics(trace: dict, imports: list[float], cold: dict[str, list[float]]) -> dict:
    requests = trace["requests"]
    total = sum(r["seconds"] for r in requests)
    metrics = {}
    for name in SPAN_NAMES:
        per_request = [r["layers"].get(name, 0.0) for r in requests]
        if name == IMPORT and not any(per_request):
            p50 = statistics.median(imports)  # in-process: import is set-up only
        else:
            p50 = statistics.median(per_request)
        metrics[f"{name}.p50_ms"] = (p50 * 1000.0, "ms")
        metrics[f"{name}.share"] = (sum(per_request) / total, "ratio")
    for k, values in cold.items():
        metrics[f"kernels.simplex_compositions_cold.k{k}_ms"] = (statistics.median(values), "ms")
    for name in COUNTS:
        metrics[name] = (sum(c.get(name, 0) for c in trace["counts"].values()), "count")
    traced = statistics.median(r["seconds"] for r in requests)
    metrics["trace.request_p50_ms"] = (traced * 1000.0, "ms")
    metrics["trace.overhead_ms"] = ((traced - statistics.median(trace["untraced"])) * 1000.0, "ms")
    return metrics


def sweep(args, config: Config, budget: Budget, directory: Path) -> list[dict]:
    """Per-layer times of one seeded instance per (candidates, attributes)
    cell.  A cell over its time or memory budget is recorded, not dropped."""
    cells = []
    shape = SHAPES["generated-mix"]
    for n in config.sweep_candidates:
        for k in config.sweep_attributes:
            counts = {"candidates": n, "attributes": k, "criteria": SWEEP_CRITERIA}
            path = directory / f"sweep_n{n}_k{k}.udet"
            path.write_text(instance_text(shape, args.seed, n * 100 + k, counts))
            start = time.perf_counter()
            try:
                cell = worker(budget, "cell", "--input", path, "--memory-mb", SWEEP_MEMORY_MB,
                              timeout=SWEEP_SECONDS)
            except subprocess.TimeoutExpired:
                cell = {"status": "over_budget", "reason": "time"}
            except RuntimeError as exc:  # the child died
                cell = ({"status": "over_budget", "reason": "memory"}
                        if "MemoryError" in str(exc) else {"status": "error", "reason": str(exc)})
            cell.update(n=n, k=k, elapsed_s=time.perf_counter() - start)
            cells.append(cell)
    return cells


def traced(args, config: Config, budget: Budget, input_dir: Path,
           paths) -> tuple[dict, dict]:
    samples = setup_samples(budget, config.import_samples)
    imports = [s["import_s"] for s in samples]
    cold: dict[str, list[float]] = {}
    for _ in range(config.kernel_samples):
        for k, ms in worker(budget, "kernels")["cold_ms"].items():
            cold.setdefault(k, []).append(ms)
    result = run_workload(args, config, budget, input_dir, paths)
    metrics = layer_metrics(result["trace"], imports, cold)
    result["sweep"] = sweep(args, config, budget, input_dir)
    result.update(import_samples_s=imports, backend=samples[0]["backend"])
    return metrics, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a handful of requests per path, to test the benchmark")
    args = parser.parse_args(argv)
    config = SMOKE if args.smoke else FULL

    if not (ROOT / "src" / "udet" / "__init__.py").is_file():
        print(f"error: no udet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    budget = Budget(DEADLINE_S)
    build()

    out_dir = ROOT / ".bench_out"
    input_dir = out_dir / "inputs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    inputs = workload_inputs(args.workload, args.seed)[:config.max_inputs]
    paths = list(zip([n for n, _ in inputs], write_inputs(inputs, input_dir)))
    (input_dir / "manifest.json").write_text(json.dumps([n for n, _ in inputs]))

    if args.trace:
        metrics, result = traced(args, config, budget, input_dir, paths)
    else:
        metrics, result = end_to_end(args, config, budget, input_dir, paths)

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and attempted > 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "input_digest": digest([(n, t.encode()) for n, t in inputs]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "environment": environment(result.get("backend")),
        **{k: v for k, v in result.items() if k not in ("attempted", "failed")},
    }
    record_path = out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    record_path.write_text(json.dumps(record))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} requests, "
          f"{failed} failed, output checks {'passed' if correct else 'FAILED'}")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    print(f"  input digest {record['input_digest']}")
    print(f"  output digest {result['output_digest']}")
    print(f"  environment {json.dumps(record['environment'])}")
    for cell in result.get("sweep", ()):
        print(f"  sweep n={cell['n']} k={cell['k']}: {cell['status']} "
              f"in {cell['elapsed_s']:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
