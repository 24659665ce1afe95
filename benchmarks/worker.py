"""Child-process side of the benchmark; `run.py` starts it, one at a time.

Modes (first argument):

  setup   time `import udet`, then the warm-up pass when given inputs
  serve   set up, then run `udet.cli.main` requests in this process
  cli     one traced `udet analyze` request, as a fresh CLI process would run it
  kernels time cold `simplex_compositions` builds per attribute count
  cell    one traced request of the scale sweep, under a memory limit

Each mode prints one JSON object on its last stdout line.  `udet` must come
from the `src/` directory of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from pathlib import Path

from bench_checks import OutputChecker
from bench_inputs import rounds
from bench_trace import IMPORT, MAIN, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
COLD_KERNEL_ATTRIBUTES = (3, 4, 5)


def import_udet() -> float:
    start = time.perf_counter()
    import udet  # noqa: F401
    import udet.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    origin = Path(udet.__file__).resolve()
    if (ROOT / "src") not in origin.parents:
        sys.exit(f"udet was imported from {origin}, not from {ROOT / 'src'}")
    return elapsed


def backend() -> str | None:
    try:
        from udet import _kernels
        return _kernels.active_backend()
    except (ImportError, AttributeError):
        return None


def request(path: Path, tracer: Tracer | None = None) -> tuple[float, int, bytes, bytes]:
    """One `analyze --format json` call through `cli.main`: (seconds, exit
    code, stdout, stderr).  Only the call itself is timed."""
    from udet import cli
    argv = ["analyze", str(path), "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(argv, stdout=out, stderr=err)
        else:
            code = tracer.span(MAIN, cli.main, argv, stdout=out, stderr=err)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a request that raises is a failed request
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue().encode(), err.getvalue().encode()


def traced_request(tracer: Tracer, rid: int, path: Path) -> tuple[float, int, bytes, bytes]:
    """`request` with the layer wrappers installed for its duration."""
    tracer.install()
    tracer.begin(rid)
    try:
        return request(path, tracer)
    finally:
        tracer.uninstall()


def load_inputs(directory: Path) -> list[tuple[str, Path]]:
    names = json.loads((directory / "manifest.json").read_text())
    return [(name, directory / f"{name}.udet") for name in names]


def warm_up(inputs, checker: OutputChecker, tracer: Tracer | None = None):
    """One request per input; returns the time spent in requests and, when
    traced, the per-input counts.  Fills the checker's references."""
    seconds = 0.0
    counts = {}
    for rid, (name, path) in enumerate(inputs):
        if tracer is None:
            elapsed, code, out, err = request(path)
        else:
            elapsed, code, out, err = traced_request(tracer, rid, path)
        seconds += elapsed
        checker.check(name, code, out, err)
        if tracer is not None:
            counts[name] = dict(tracer.counts, **{"cli.output_bytes": len(out)})
    if tracer is not None:
        tracer.spans.clear()
    return seconds, counts


def mode_setup(args) -> dict:
    """Set-up time: the import plus the warm-up requests, not their checks."""
    import_s = import_udet()
    warm_s = 0.0
    if args.inputs is not None:
        warm_s, _ = warm_up(load_inputs(args.inputs), OutputChecker(args.workload))
    return {"setup_s": import_s + warm_s, "import_s": import_s, "backend": backend()}


def mode_serve(args) -> dict:
    import_s = import_udet()
    inputs = load_inputs(args.inputs)
    checker = OutputChecker(args.workload)
    tracer = Tracer() if args.trace else None
    warm_s, counts = warm_up(inputs, checker, tracer)
    setup_s = import_s + warm_s

    latencies: list[float] = []
    traced: list[float] = []
    failed = 0
    for i, (name, path) in rounds(inputs, args.seed, args.seconds, args.min_requests):
        # Traced runs pair each untraced request with a traced one on the
        # same input, alternating which goes first.
        for traced_turn in (False,) if tracer is None else (i % 2 == 0, i % 2 == 1):
            if traced_turn:
                elapsed, code, out, err = traced_request(tracer, i, path)
                traced.append(elapsed)
            else:
                elapsed, code, out, err = request(path)
                latencies.append(elapsed)
            failed += not checker.check(name, code, out, err)

    result = {
        "setup_s": setup_s, "import_s": import_s, "backend": backend(),
        "latencies": latencies, "attempted": len(latencies) + len(traced),
        "failed": failed, "failures": checker.failures[:20],
        "output_digest": checker.output_digest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        per_request = self_times(tracer.spans)
        result["trace"] = {
            "requests": [{"seconds": traced[r], "layers": dict(per_request[r])}
                         for r in range(len(traced))],
            "untraced": latencies,
            "counts": counts,
            "spans": tracer.spans,
        }
    return result


def mode_cli(args) -> dict:
    """Traced single request: the import span, then `cli.main` with spans."""
    tracer = Tracer()
    start = time.perf_counter()
    import_udet()
    tracer.spans.append((IMPORT, start, time.perf_counter(), -1, 0))
    _, code, out, err = traced_request(tracer, 0, args.input)
    counts = dict(tracer.counts, **{"cli.output_bytes": len(out)})
    return {"code": code, "stdout": out.decode(), "stderr": err.decode()[-2000:],
            "layers": dict(self_times(tracer.spans)[0]), "counts": counts,
            "spans": tracer.spans}


def mode_kernels(args) -> dict:
    """Cold grid builds in a fresh process; 0 where the kernel is gone."""
    import_udet()
    out = {}
    try:
        from udet._kernels import simplex_compositions
        from udet.semantics import default_grid_subdivisions
    except ImportError:
        return {"cold_ms": {str(k): 0.0 for k in COLD_KERNEL_ATTRIBUTES}}
    for k in COLD_KERNEL_ATTRIBUTES:
        g = default_grid_subdivisions(k)
        start = time.perf_counter()
        simplex_compositions(g, k)
        out[str(k)] = (time.perf_counter() - start) * 1000.0
    return {"cold_ms": out}


def mode_cell(args) -> dict:
    limit = args.memory_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    import_udet()
    tracer = Tracer()
    elapsed, code, out, err = traced_request(tracer, 0, args.input)
    if code == -1 and b"MemoryError" in err.split(b":")[0]:
        return {"status": "over_budget", "reason": "memory"}
    layers = self_times(tracer.spans)[0]
    return {"status": "ok" if code == 0 else f"exit {code}", "request_s": elapsed,
            "layers_ms": {k: v * 1000.0 for k, v in layers.items()},
            "counts": dict(tracer.counts, **{"cli.output_bytes": len(out)}),
            "stderr": err.decode()[-300:]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "serve", "cli", "kernels", "cell"))
    parser.add_argument("--workload")
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--input", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--min-requests", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--memory-mb", type=int, default=1024)
    args = parser.parse_args()
    modes = {"setup": mode_setup, "serve": mode_serve, "cli": mode_cli,
             "kernels": mode_kernels, "cell": mode_cell}
    result = modes[args.mode](args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
