"""The evfam benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout (the package is
imported from ./src) as a closed loop with one caller, in this process:
each operation starts when the previous one and its output checks are
done.  Every output is checked, and a failed check fails its operation.

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics: ``setup_s`` (median of several set-ups, each a fresh
interpreter's import of numpy and evfam plus input generation and
problem-file writes), ``op_s`` (median time of one operation: an ``evfam
solve`` then ``evfam analyze`` of one problem, or one set-calculus pass)
and ``peak_rss_mb``.  Both times are scaled to the reference speed, see
speed.py.  With ``--trace 1`` each input runs once untraced and once
traced, and the last line reports the per-layer metrics of
perfbench/layers.py, in raw seconds but for the scaled trace.overhead_s.
The line before the last is a JSON record of the machine, raw and scaled
timings with their sample counts and upper percentiles, and the error
rate.  The spans of a traced run are written to
.bench_out/spans-<workload>.jsonl.gz.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS/OpenMP thread: a single caller should not spread over the cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("halfspace-large", "ball-bounce", "set-calculus")
SETUP_REPEATS = 5
MIN_OPS = 2  # so that every run compares the artifacts of a repeat
MAX_MESSAGES = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="minimal inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def _import_package():
    """Imports evfam from ROOT/src, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "evfam" / "__init__.py").is_file():
        raise ImportError(f"no evfam sources under {src}")
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import evfam

    if Path(evfam.__file__).resolve().parent != (src / "evfam").resolve():
        raise ImportError(f"evfam resolved to {evfam.__file__}, not {src}")
    import layers
    import spans
    import speed
    import workloads

    return workloads, layers, spans, speed


def import_seconds():
    """Seconds a fresh interpreter takes to import numpy and the evfam CLI
    from ROOT/src: the start-up cost every user pays."""
    code = ("import time; t = time.perf_counter(); import numpy, evfam.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_facts():
    import numpy

    model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
    }


def timing(samples):
    """Median, sample count and the highest percentile with at least ten
    samples above it (None below eleven samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    upper = None
    if n > 10:
        upper = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "n": n, "upper": upper}


def main(argv=None):
    args = parse_args(argv)
    load_before = os.getloadavg()
    try:
        workloads, layers, spans, speed = _import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES["tiny" if args.tiny else "full"][args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        with speed.SpeedSampler(workload.kernel) as sampler:
            setups = []
            for _ in range(SETUP_REPEATS):
                shutil.rmtree(workdir, ignore_errors=True)
                t0 = time.perf_counter()
                items = workload.setup(args.seed, str(workdir), **size)
                wall = time.perf_counter() - t0 + import_seconds()
                setups.append((t0, t0 + wall, wall))
            result = measure(args, workload, items, layers, spans, sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = result["detail"]
    detail["timings"]["setup_s"] = timing([wall for _, _, wall in setups])
    detail["scaled"]["setup_s"] = timing([wall * sampler.scale(t0, t1) for t0, t1, wall in setups])
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=machine_facts(), load_before=load_before,
                  load_after=os.getloadavg())
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": detail["scaled"]["setup_s"]["median"], "unit": "s"},
            "op_s": {"value": detail["scaled"]["op_s"]["median"], "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(json.dumps(detail, sort_keys=True))
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    print(json.dumps(line, sort_keys=True))
    return 0


def measure(args, workload, items, layers, spans, sampler):
    """The closed loop: runs operations on ``items`` in turn until the next
    one would end past ``--seconds`` (at least MIN_OPS), checking each as it
    completes."""
    recorder = spans.SpanRecorder()
    windows, traced_windows = [], []
    phases, op_counts, digests = {}, {}, {}
    messages = []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        item = items[k % len(items)]
        k += 1
        pair = []
        for traced in ((False, True) if args.trace else (False,)):
            gc.collect()
            region = recorder.installed(layers.LAYERS) if traced else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with region:
                    raw = workload.run(item, recorder if traced else None)
                t1 = time.perf_counter()
                outcome = workload.check(item, raw)
            except Exception as exc:  # a crash fails the operation, not the run
                t1 = time.perf_counter()
                outcome = None
                attempted += 1
                failed += 1
                errors = [f"{type(exc).__name__}: {exc}"]
            else:
                errors = list(outcome.errors)
                for key, digest in outcome.digests.items():
                    if digests.setdefault(key, digest) != digest:
                        errors.append(f"{key}: outputs differ from the first run of this input")
                attempted += outcome.attempted
                failed += len(errors)
            messages.extend(errors[: max(0, MAX_MESSAGES - len(messages))])
            wall = t1 - t0 - sampler.busy(t0, t1)
            pair.append(wall)
            (traced_windows if traced else windows).append((t0, t1, wall))
            if outcome is None:
                continue
            if traced:
                for key, val in outcome.counts.items():
                    op_counts[key] = op_counts.get(key, 0) + val
            else:
                for phase, secs in outcome.phases.items():
                    phases.setdefault(phase, []).extend(secs)
        elapsed = time.perf_counter() - start
        if len(windows) + len(traced_windows) >= MIN_OPS and elapsed + sum(pair) > args.seconds:
            break

    # scaled once the loop is done, so that samples after each operation count
    scaled = [wall * sampler.scale(t0, t1) for t0, t1, wall in windows]
    traced_scaled = [wall * sampler.scale(t0, t1) for t0, t1, wall in traced_windows]
    detail = {
        "timings": {"op_s": timing([w for _, _, w in windows]),
                    "speed_sample_s": timing(sampler.secs),
                    **{f"{p}_s": timing(v) for p, v in phases.items()}},
        "scaled": {"op_s": timing(scaled)},
        "error_rate": failed / attempted,
        "errors": messages,
    }
    result = {"attempted": attempted, "failed": failed, "detail": detail}
    if args.trace:
        detail["timings"]["traced_op_s"] = timing([w for _, _, w in traced_windows])
        detail["scaled"]["traced_op_s"] = timing(traced_scaled)
        untraced = {
            "cli.solve_s": statistics.median(phases.get("solve", [0.0])),
            "cli.analyze_s": statistics.median(phases.get("analyze", [0.0])),
            # each input runs untraced then traced; scaled, so drift cancels
            "trace.overhead_s": statistics.median(
                t - u for u, t in zip(scaled, traced_scaled)),
        }
        result["layers"] = layers.layer_metrics(recorder, len(traced_windows), op_counts, untraced)
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"spans-{args.workload}.jsonl.gz")
    return result


if __name__ == "__main__":
    sys.exit(main())
