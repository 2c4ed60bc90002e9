"""Record a benchmark run as BENCH_<label>.json at the repository root.

    python3 tools/bench_record.py --label NAME --workload W --seed N \
        [--checkout DIR] [--append] [--trace 0|1]
    python3 tools/bench_record.py --label NAME --workload tier-1 \
        [--checkout DIR] [--append]

Runs ``perfbench/run.py`` of a source checkout (this repository unless
``--checkout`` names another, e.g. a clone of an earlier commit) in a
subprocess, for the run length its BENCHMARK.json sets, and keeps the last
two lines it prints: the detail record (timings with their medians and
sample counts, machine facts, the git commit) and the metrics.
``--append`` adds the run to an existing file of the same label, workload
and seed, so that runs of two checkouts can be interleaved.  A ``--trace 0``
run goes to ``runs`` and its end-to-end metrics to ``summary``; a
``--trace 1`` run goes to ``trace_runs`` and its per-layer metrics to
``layers``.  Each summary gives a metric's median and quartiles over the
recorded runs of its kind.

The workload ``tier-1`` instead times one run of the checkout's tier-1
test suite, ``python -m pytest -q --continue-on-collection-errors`` in the
checkout with its ``src`` first on PYTHONPATH, and records its wall time
``tier1_s`` with the ``passed`` and ``failed`` counts of pytest's summary
line (errors count as failed).  ``tier1_scaled_s`` is that wall time scaled
to perfbench's reference speed, as perfbench scales an operation: the
``SpeedSampler`` of this repository's perfbench runs the halfspace-large
workload's kernel in this process while pytest runs.  It takes no seed and
no trace.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# this repository's perfbench scales the tier-1 run of every checkout
PERFBENCH = ROOT / "perfbench"
KEYS = ("workload", "seed", "seconds")
TIER1 = "tier-1"
PYTEST = ("-m", "pytest", "-q", "--continue-on-collection-errors")
# perfbench's machine facts of the checkout, the git commit among them
MACHINE = ("import json, sys; sys.path.insert(0, 'perfbench'); import run; "
           "print(json.dumps(run.machine_facts()))")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--checkout", type=Path, default=ROOT)
    p.add_argument("--append", action="store_true")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == TIER1:
        if args.seed is not None or args.trace:
            p.error("the tier-1 workload takes no --seed and no --trace")
        args.seconds = None
        return args
    if args.seed is None:
        p.error("a perfbench workload needs --seed")
    args.seconds = json.loads((args.checkout / "BENCHMARK.json").read_text())["run_seconds"]
    return args


def _counts(summary_line):
    """The passed and failed counts of pytest's summary line."""
    found = dict.fromkeys(("passed", "failed", "error"), 0)
    for count, outcome in re.findall(r"(\d+) (passed|failed|error)s?\b", summary_line):
        found[outcome] += int(count)
    return found["passed"], found["failed"] + found["error"]


def speed_sampler():
    """perfbench's SpeedSampler with the halfspace-large workload's kernel."""
    for path in (PERFBENCH.parent / "src", PERFBENCH):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import speed
    import workloads
    return speed.SpeedSampler(workloads.WORKLOADS["halfspace-large"].kernel)


def run_tier1(args):
    """The detail record and the metrics of one timed tier-1 run."""
    env = dict(os.environ)
    src = str(args.checkout.resolve() / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    # the sampler ticks in this process, not in pytest's, so no tick time is
    # taken off the wall time, as perfbench takes it off an operation's
    with speed_sampler() as sampler:
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, *PYTEST], cwd=args.checkout, env=env,
                              capture_output=True, text=True)
        t1 = time.perf_counter()
    wall = t1 - t0
    lines = done.stdout.strip().splitlines()
    summary_line = lines[-1] if lines else ""
    passed, failed = _counts(summary_line)
    machine = json.loads(subprocess.run([sys.executable, "-c", MACHINE], cwd=args.checkout,
                                        check=True, capture_output=True, text=True).stdout)
    detail = {"machine": machine, "returncode": done.returncode, "summary_line": summary_line}
    metrics = {"tier1_s": {"value": wall, "unit": "s"},
               "tier1_scaled_s": {"value": wall * sampler.scale(t0, t1), "unit": "s"},
               "passed": {"value": passed, "unit": "count"},
               "failed": {"value": failed, "unit": "count"}}
    return {"detail": detail, "result": {"metrics": metrics}}


def run_bench(args):
    """The detail record and the metrics line of one perfbench run."""
    if args.workload == TIER1:
        return run_tier1(args)
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=args.checkout, check=True, capture_output=True,
                         text=True).stdout
    detail, result = map(json.loads, out.strip().splitlines()[-2:])
    return {"detail": detail, "result": result}


def summarize(runs):
    """Median and quartiles of each metric over the runs.  The quartiles
    interpolate between the runs, so they never lie outside them."""
    values = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    summary = {}
    for name, (unit, xs) in sorted(values.items()):
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
        summary[name] = {"median": statistics.median(xs), "q1": q1, "q3": q3,
                         "n": len(xs), "unit": unit}
    return summary


def main(argv=None):
    args = parse_args(argv)
    path = ROOT / f"BENCH_{args.label}.json"
    head = {key: getattr(args, key) for key in KEYS}
    old = {}
    if args.append and path.is_file():
        old = json.loads(path.read_text())
        if {key: old[key] for key in KEYS} != head:
            print(f"error: {path.name} records another workload, seed or run length",
                  file=sys.stderr)
            return 1
    runs, trace_runs = old.get("runs", []), old.get("trace_runs", [])
    run = run_bench(args)
    (trace_runs if args.trace else runs).append(run)
    machine = run["detail"]["machine"]
    record = {"label": args.label, **head, "commit": machine["git_commit"],
              "machine": machine, "summary": summarize(runs), "runs": runs,
              "layers": summarize(trace_runs), "trace_runs": trace_runs}
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shown = record["layers" if args.trace else "summary"]
    print(json.dumps({name: m["median"] for name, m in shown.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
