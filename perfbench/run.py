"""sfwmkit benchmark: one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it wraps the public functions of every layer and
reports the per-layer metrics, the workload guards and the tracing overhead.
Every run checks each op's output and the physics fingerprint of the
``paper40cm`` preset.  The last line of standard output is the JSON result;
the lines before it name every metric with its unit.  The full record is
written to ``.bench_build/perfbench/``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("design-sweep", "purity-eval", "fit-analysis", "cli-cold")
SETUP_PROBES = 2  # extra fresh interpreters timed for setup_s
REPLAY_OPS = 2  # ops replayed untraced to measure the tracing overhead
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# name -> (unit, better)
END_TO_END = {
    "op_s.p50": ("s", "lower"),
    "op_s.tail": ("s", "lower"),
    "throughput_ops_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal modes, used by the run itself in fresh child interpreters.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_blas_threads():
    """Run BLAS on one thread; children inherit this.  Returns ``nproc``.

    A second BLAS thread made ``purity-eval`` ops a few percent faster, but
    it spins between calls and so keeps a second core busy; with one thread
    a run leaves that core to everything else on the machine.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def set_up(name, trace=False):
    """Import sfwmkit in this interpreter and run the workload's warm-up.

    Returns (workload, seconds from before ``import sfwmkit`` until the
    first op can start).
    """
    start = time.perf_counter()
    import sfwmkit  # noqa: F401  (the import is what is being timed)

    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(name, OUT, trace)
    workload.warm_up()
    return workload, time.perf_counter() - start


def run_ops(workload, seed, seconds, max_ops=None, tracer=None):
    """Closed loop: generate op i's inputs (untimed), run it, check it.

    Ops run in whole cycles of ``workload.cycle`` ops, whose mix of work is
    fixed; another cycle starts only if, at the mean time of the cycles so
    far, it ends within ``seconds``.  The first cycle always runs.  The clock
    runs only while an op runs, so input generation between ops is not
    counted.  With ``max_ops`` exactly that many ops run.  Returns one dict
    per op.
    """
    from workloads import digest

    records = []
    busy = 0.0
    while max_ops is None or len(records) < max_ops:
        i = len(records)
        cycles = i // workload.cycle
        if max_ops is None and cycles and i % workload.cycle == 0 and busy * (cycles + 1) / cycles > seconds:
            break
        inputs = workload.make_input(seed, i)
        cpu = cpu_seconds(workload)
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            output, error = workload.run(inputs), None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = -1
        cpu = cpu_seconds(workload) - cpu
        problems = [error] if error else checked(workload, inputs, output)
        records.append({"op": i, "s": elapsed, "cpu_s": cpu, "digest": digest(output), "problems": problems})
        busy += elapsed
    return records


def checked(workload, inputs, output):
    """The output check's problems; a check that raises is a failed check."""
    try:
        return workload.check(inputs, output)
    except Exception as exc:
        return [f"output check raised {type(exc).__name__}: {exc}"]


def usage(workload):
    """Resource use of whatever runs the ops: this process, or the cli-cold children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF)


def cpu_seconds(workload):
    used = usage(workload)
    return used.ru_utime + used.ru_stime


def tail(durations):
    """(percentile, value): the highest percentile with at least 10 ops beyond it.

    With fewer than 20 ops that percentile lies below the median, so the
    median is reported instead.
    """
    n = len(durations)
    if n < 20:
        return 50.0, statistics.median(durations)
    return 100.0 * (n - 10) / n, sorted(durations)[n - 11]


def run_fresh(args, *extra):
    """Run this script in a fresh interpreter and return its JSON last line."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(command + list(extra), capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"child {extra} failed: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine_record(args, cores):
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": cores,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": args.seed,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def guards(name, rows, records, children):
    """Fail the traced run if the workload stopped exercising its layer."""
    builds = {r["op"]: [] for r in records}
    for row in rows:
        if row[0] == "dispersion.profile_build" and row[1] >= 0:
            builds[row[1]].append(row[5])
    problems = []
    for op, sizes in builds.items():
        if name == "design-sweep" and sizes != [2048]:
            problems.append(f"op {op} built profiles {sizes}, expected exactly one of 2048 points")
        elif name == "purity-eval" and sizes:
            problems.append(f"op {op} built profiles {sizes}, expected none")
        elif name == "fit-analysis" and (not sizes or set(sizes) != {192}):
            problems.append(f"op {op} built profiles of sizes {sorted(set(sizes))}, expected only 192")
    if name == "cli-cold":
        paid = [c for c in children[: len(records)] if c.fresh_import and c.import_s > 0]
        if len(paid) != len(records):
            problems.append(f"{len(paid)} fresh imports for {len(records)} ops")
    return problems


def end_to_end(args, records, setup_s, peak_rss_mb, record):
    """The end-to-end metrics of an untraced run."""
    durations = [r["s"] for r in records]
    setups = [setup_s] + [run_fresh(args, "--setup-probe")["setup_s"] for _ in range(SETUP_PROBES)]
    record["setup_samples_s"] = setups
    metrics = {
        "op_s.p50": statistics.median(durations),
        "op_s.tail": tail(durations)[1],
        "throughput_ops_per_s": len(durations) / sum(durations),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": value, "unit": END_TO_END[name][0]} for name, value in metrics.items()}


def per_layer(args, workload, records, rows, cpu_s, record, problems):
    """The per-layer metrics of a traced run, after its guards and its untraced replay."""
    from tracing import layer_metrics, read_spans, write_spans

    cli_ops = []
    if args.workload == "cli-cold":
        rows = []
        for op, c in enumerate(workload.children[: len(records)]):
            rows += read_spans(c.spans, op, len(rows))
            c.spans.unlink()
            c.spans.with_suffix(".json").unlink()
            cli_ops.append((c.command, c.wall_s, c.import_s, c.child_wall_s))
    write_spans(OUT / f"spans-{args.workload}.csv", rows)
    guard_problems = guards(args.workload, rows, records, getattr(workload, "children", []))
    record["guards"] = guard_problems or "pass"
    problems += [f"guard: {p}" for p in guard_problems]
    # The first ops again, untraced, in a fresh interpreter (cold caches as here).
    replay = run_fresh(args, "--replay", str(min(REPLAY_OPS, len(records))))
    traced = [r["s"] for r in records[: len(replay["s"])]]
    record["tracing_overhead"] = {
        "ops": len(traced),
        "traced_op_s": traced,
        "untraced_op_s": replay["s"],
        "op_s_p50_delta": statistics.median(traced) - statistics.median(replay["s"]),
    }
    if replay["digests"] != [r["digest"] for r in records[: len(replay["digests"])]]:
        problems.append("traced and untraced runs gave different op outputs")
    return layer_metrics(rows, len(records), cpu_s, cli_ops)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sfwmkit" / "__init__.py").is_file():
        print(f"error: no sfwmkit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    cores = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    workload, setup_s = set_up(args.workload, trace=bool(args.trace))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.replay:
        records = run_ops(workload, args.seed, float("inf"), max_ops=args.replay)
        print(json.dumps({"s": [r["s"] for r in records], "digests": [r["digest"] for r in records]}))
        return 0

    import workloads
    from tracing import PER_LAYER, Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    cpu_start = cpu_seconds(workload)
    records = run_ops(workload, args.seed, args.seconds, tracer=tracer)
    cpu_s = cpu_seconds(workload) - cpu_start
    peak_rss_mb = usage(workload).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    record["machine"] = machine_record(args, cores)
    problems = []
    if args.workload == "cli-cold":
        # The same argv must give byte-identical output within a run.
        workload.trace = False
        first = workload.make_input(args.seed, 0)
        records[0]["problems"] += workload.check(first, workload.run(first))
    if tracer is None:
        metrics = end_to_end(args, records, setup_s, peak_rss_mb, record)
    else:
        metrics = per_layer(args, workload, records, tracer.rows(), cpu_s, record, problems)

    fingerprint = workloads.fingerprint()
    record["fingerprint"] = fingerprint
    problems += [f"fingerprint {f['name']} = {f['value']!r}, expected {f['expected']}" for f in fingerprint if not f["ok"]]
    failed = sum(1 for r in records if r["problems"])
    record["ops"] = records
    record["ops_failed_ratio"] = failed / len(records)
    record["tail_percentile"] = tail([r["s"] for r in records])[0]
    record["metrics"] = metrics
    record["problems"] = problems
    correct = failed == 0 and not problems
    with open(OUT / f"record-{args.workload}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    report(record, metrics, {name: moves for name, _, _, moves in PER_LAYER})
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def report(record, metrics, moves):
    """Print every metric by name with its unit, then the run record."""
    machine = record["machine"]
    ops = record["ops"]
    print(f"perfbench {record['workload']}: seed {machine['seed']}, trace {record['trace']}, {len(ops)} ops, "
          f"{sum(1 for r in ops if r['problems'])} failed (ops_failed_ratio {record['ops_failed_ratio']:.3g})")
    for r in ops:
        for p in r["problems"]:
            print(f"  op {r['op']} FAILED: {p}")
    for name, metric in metrics.items():
        note = ""
        if name == "op_s.tail":
            note = f"  (p{record['tail_percentile']:.1f} of {len(ops)} ops)"
        elif name in moves:
            note = f"  [moves: {moves[name]}]"
        print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}{note}")
    if "tracing_overhead" in record:
        o = record["tracing_overhead"]
        print(f"  tracing overhead: op_s.p50 {o['op_s_p50_delta']:+.4g} s over the first {o['ops']} ops")
        print(f"  guards: {record['guards']}")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print("  fingerprint: " + ", ".join(f"{f['name']}={f['value']:.{f['digits']}f} ({'ok' if f['ok'] else 'MISMATCH'})"
                                         for f in record["fingerprint"]))
    for p in record["problems"]:
        print(f"  FAILED: {p}")


if __name__ == "__main__":
    sys.exit(main())
