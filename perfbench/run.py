#!/usr/bin/env python3
"""Benchmark of squashcube: one workload per process, on one thread.

    python3 perfbench/run.py --workload cycles-r3 --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 28

A run builds the workload's inputs from the seed.  It then calls the
workload's operations in turn until the next call would, at its median so
far, end after --seconds, and reports each operation's median.  Every
result is checked against a reference.  A wrong result or an exception is a
failed operation and does not stop the run.

Times are rescaled to the box's reference speed (see Stopwatch); the wall
times are reported next to them.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.  The
lines before it report the same run for a reader.  Each run also writes
perfbench/out/result-<workload>-seed<seed>-trace<t>.json (environment,
exact counts, every time).  A traced run writes its spans to
perfbench/out/trace-<workload>-seed<seed>.json.

--workload all runs the four workloads one after another, each in its own
process, and prints one table of the end-to-end metrics.
"""

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, count, duration, total

# One thread: numpy's BLAS would otherwise start threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ["cycles-r3", "multipartite", "census-7", "bounds-large"]
END_TO_END = {"setup_s": "s", "work_s": "s", "peak_rss_mib": "MiB"}
SETUP_REPEATS = 5

# Set-up as a user pays it: a fresh interpreter imports squashcube and
# builds the workload's inputs.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))"
)

# The speed of a shared box drifts: over consecutive 12 s windows the median
# time of one solve_N(K_{4,3,2}) ranged over 40% (quartile spread), while its
# ratio to the reference loop below ranged over 2.6%.  Every time is
# therefore rescaled: each stretch of a timed call is multiplied by
# REFERENCE_LOOP_S over the loop's median time, measured at both ends of the
# stretch.  During a call a SIGALRM handler ends a stretch every SAMPLE_S
# seconds; the handler's own time is left out.  REFERENCE_LOOP_S is the
# loop's typical median on a 2-core Intel Xeon with CPython 3.11.
REFERENCE_LOOP_S = 0.004
REFERENCE_REPEATS = 9      # loops per speed measurement between calls
SAMPLE_S = 0.5
SAMPLE_REPEATS = 3         # loops per speed measurement inside a call


def reference_loop():
    """Fixed pure-Python work: dict stores and integer arithmetic."""
    table = {}
    acc = 0
    for i in range(20000):
        table[i & 1023] = i
        acc += (i * 2654435761) & 0xFFFF
    return acc


def box_speed(repeats):
    """REFERENCE_LOOP_S over the loop's median time now; below 1 on a slow box."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return REFERENCE_LOOP_S / statistics.median(times)


class Stopwatch:
    """Times calls in wall seconds and in rescaled seconds."""

    def __init__(self):
        self.speed = box_speed(REFERENCE_REPEATS)
        self.wall = self.scaled = 0.0
        self._resumed = None

    def _stretch(self, repeats):
        """Close the stretch of work since _resumed; measure the speed after it."""
        elapsed = time.perf_counter() - self._resumed
        before, self.speed = self.speed, box_speed(repeats)
        self.wall += elapsed
        self.scaled += elapsed * (before + self.speed) / 2

    def _on_alarm(self, signum, frame):
        self._stretch(SAMPLE_REPEATS)
        self._resumed = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)

    def time(self, call):
        """call(); its wall and rescaled seconds are left in .wall and .scaled,
        also when it raises."""
        self.wall = self.scaled = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._resumed = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)
        try:
            return call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._stretch(REFERENCE_REPEATS)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def median(values):
    return statistics.median(values) if values else 0.0


def measure_setup(workload, seed):
    """Wall seconds and rescaled seconds of SETUP_REPEATS fresh set-ups."""
    wall, scaled = [], []
    watch = Stopwatch()
    for _ in range(SETUP_REPEATS):
        proc = watch.time(lambda: subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)],
            capture_output=True, text=True,
        ))
        if proc.returncode != 0:
            fail(f"set-up of {workload} failed:\n{proc.stderr}")
        wall.append(watch.wall)
        scaled.append(watch.scaled)
    return wall, scaled


def import_library():
    if not (SRC / "squashcube" / "__init__.py").is_file():
        fail(f"no squashcube sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import squashcube

    if Path(squashcube.__file__).resolve().parent != (SRC / "squashcube").resolve():
        fail(f"imported squashcube from {squashcube.__file__}, not from {SRC}")


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


class Run:
    """Timings, counts and outcomes of one workload run."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = list(workload.ops())
        self.wall = {op.name: [] for op in self.ops}      # untraced wall seconds
        self.times = {op.name: [] for op in self.ops}     # the same, rescaled
        self.counts = {}
        self.attempted = 0
        self.problems = []                                # (name, message)
        self.layers = []                                  # per traced round: metric -> value
        self.accounting = []                              # per traced round: stage -> figures
        self.watch = Stopwatch()

    def outcome(self, name, problem):
        self.attempted += 1
        if problem is not None:
            self.problems.append((name, problem))

    def attempt(self, op, call):
        """call() for op, timed and checked: (result, problem or None)."""
        try:
            result = self.watch.time(call)
        except Exception:
            return None, traceback.format_exc(limit=3).strip()
        try:
            problem = op.check(result)
        except Exception:
            problem = "check raised: " + traceback.format_exc(limit=3).strip()
        return result, problem

    def untraced_round(self, deadline=None):
        """Every operation once; returns its rescaled times by name.  With a
        deadline, stops before an operation that has run before and would,
        at its median, end after the deadline."""
        round_times = {}
        for op in self.ops:
            past = self.wall[op.name]
            if deadline is not None and past and time.perf_counter() + median(past) > deadline:
                break
            gc.collect()
            result, problem = self.attempt(op, op.run)
            self.wall[op.name].append(self.watch.wall)
            self.times[op.name].append(self.watch.scaled)
            round_times[op.name] = self.watch.scaled
            if problem is None:
                counts = op.counts(result)
                if self.counts.setdefault(op.name, counts) != counts:
                    problem = f"counts {counts} differ from {self.counts[op.name]} earlier"
            self.outcome(op.name, problem)
        return round_times

    def traced_round(self, tracer, untraced_first):
        """The operations untraced and traced, in the given order, then the probes."""
        from workloads import PER_LAYER

        if untraced_first:
            untraced = self.untraced_round()
        lay = dict.fromkeys(PER_LAYER, 0)
        first = len(tracer.spans)
        results, op_spans = {}, {}
        with tracer.span("round"):
            for op in self.ops:
                def traced_call(op=op):
                    with tracer.span("op:" + op.name) as s:
                        op_spans[op.name] = s
                        return op.traced(tracer, lay)

                gc.collect()
                results[op.name], problem = self.attempt(op, traced_call)
                op_spans[op.name]["speed"] = self.watch.scaled / duration(op_spans[op.name])
                self.outcome(op.name, problem)
            if not untraced_first:
                untraced = self.untraced_round()
            with tracer.span("probe") as s:
                try:
                    outcomes = self.watch.time(lambda: self.workload.probe(tracer, lay, results))
                except Exception:
                    outcomes = [("probe", traceback.format_exc(limit=3).strip())]
            s["speed"] = self.watch.scaled / duration(s)
            for name, problem in outcomes:
                self.outcome(name, problem)
        spans = tracer.since(first)
        factor = {}
        for s in spans:
            factor[s["id"]] = s.get("speed") or factor.get(s["parent"], 1.0)
            s["scaled"] = duration(s) * factor[s["id"]]
        layer_times(lay, spans, untraced)
        self.accounting.append(account(self.ops, op_spans, spans, untraced, lay))
        self.layers.append(lay)

    def stage_seconds(self, times):
        """Per end-to-end stage, the sum over its operations of the median time."""
        out = {}
        for op in self.ops:
            out[op.stage] = out.get(op.stage, 0.0) + median(times[op.name])
        return out


def layer_times(lay, spans, untraced):
    """Per-layer times of one traced round, from its spans."""
    for name in ("graphs.bfs_distances", "graphs.automorphisms", "graphs.connected_graphs",
                 "addressing.verify_addressing", "johnson.johnson_addressing",
                 "constructions.one_two_cover", "constructions.induced_embedding",
                 "constructions.random_partition"):
        lay[name + ".s"] = total(spans, name)
    lay["graphs.automorphisms.calls"] = count(spans, "graphs.automorphisms")
    # lower_bound is inertia plus a few integer operations
    lay["spectral.inertia.s"] = total(spans, "spectral.lower_bound")
    lay["spectral.inertia.calls"] = count(spans, "spectral.lower_bound")
    lay["spectral.inertia.s.lowrank"] = total(spans, "spectral.lower_bound", "lowrank")
    lay["spectral.inertia.s.dense"] = total(spans, "spectral.lower_bound", "dense")
    lay["search.setup.s"] = total(spans, "search.setup")
    lay["search.refute.s"] = total(spans, "search.feasible_at_length", "refute")
    lay["search.witness.s"] = total(spans, "search.feasible_at_length", "witness")
    solve_s = total(spans, "search.solve_N")
    if solve_s:
        lay["search.nodes_per_s"] = lay["search.nodes"] / solve_s
    solves = [s["scaled"] * 1e3 for s in spans if s["name"] == "search.solve_N"]
    if len(solves) >= 100:
        cuts = statistics.quantiles(solves, n=100)
        lay["search.solve_N.p50_ms"] = cuts[49]
        lay["search.solve_N.p98_ms"] = cuts[97]
    for name, elapsed in untraced.items():
        if name.startswith("solve:"):
            lay["search.solve_N.s." + name[len("solve:"):]] = elapsed
    if "census" in untraced:
        lay["search.census_overhead.s"] = untraced["census"] - solve_s


def account(ops, op_spans, spans, untraced, lay):
    """Per stage: untraced, traced and child-span seconds of one round, rescaled.

    The tracing overhead is traced minus untraced wall time.  The spans
    directly below the operations account for a stage when the traced time
    they leave uncovered is at most that overhead, plus 1% of the stage.
    """
    children = {}
    for s in spans:
        children[s["parent"]] = children.get(s["parent"], 0.0) + s["scaled"]
    stages = {}
    for op in ops:
        s = op_spans[op.name]
        fig = stages.setdefault(op.stage, {"untraced_s": 0.0, "traced_s": 0.0, "children_s": 0.0})
        fig["untraced_s"] += untraced[op.name]
        fig["traced_s"] += s["scaled"]
        fig["children_s"] += children.get(s["id"], 0.0)
    for fig in stages.values():
        fig["overhead_s"] = fig["traced_s"] - fig["untraced_s"]
        fig["uncovered_s"] = fig["traced_s"] - fig["children_s"]
        fig["accounted"] = fig["uncovered_s"] <= max(fig["overhead_s"], 0.0) + 0.01 * fig["untraced_s"]
    lay["trace.overhead_s"] = sum(f["overhead_s"] for f in stages.values())
    lay["trace.uncovered_s"] = sum(f["uncovered_s"] for f in stages.values())
    return stages


def run_workload(args):
    import_library()
    setup_wall, setup_scaled = measure_setup(args.workload, args.seed)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    run = Run(workload)
    tracer = Tracer() if args.trace else None

    deadline = time.perf_counter() + args.seconds
    rounds = 0
    if tracer is None:
        while len(run.untraced_round(deadline)) == len(run.ops):
            rounds += 1
    else:
        round_times = []
        while True:
            t0 = time.perf_counter()
            run.traced_round(tracer, untraced_first=rounds % 2 == 0)
            rounds += 1
            round_times.append(time.perf_counter() - t0)
            if time.perf_counter() + median(round_times) > deadline:
                break

    stages = run.stage_seconds(run.times)
    failed = len(run.problems)
    record = {
        "env": environment(args),
        "rounds": rounds,
        "setup_s": setup_scaled,
        "setup_wall_s": setup_wall,
        "ops": {
            op.name: {"stage": op.stage, "times_s": run.times[op.name],
                      "wall_s": run.wall[op.name], "median_s": median(run.times[op.name]),
                      "counts": run.counts.get(op.name)}
            for op in run.ops
        },
        "stages_s": stages,
        "stages_wall_s": run.stage_seconds(run.wall),
        "attempted": run.attempted,
        "failed": failed,
        "fail_ratio": failed / run.attempted,
        "problems": run.problems,
    }
    if tracer is None:
        metrics = {
            "setup_s": median(setup_scaled),
            "work_s": sum(stages.values()),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        metrics = {k: median([lay[k] for lay in run.layers]) for k in workloads.PER_LAYER}
        units = workloads.PER_LAYER
        record["layers"] = run.layers
        record["accounting"] = run.accounting
    record["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(OUT / f"result-{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.json")

    report(record, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def report(record, units):
    env = record["env"]
    print(f"# {env['workload']} seed={env['seed']} seconds={env['seconds']} trace={env['trace']} "
          f"rounds={record['rounds']}")
    print(f"# nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} commit={env['commit']}")
    for name, op in record["ops"].items():
        print(f"op {name:16s} median {op['median_s']:.4f} s (wall {median(op['wall_s']):.4f} s) "
              f"over {len(op['times_s'])}  {op['counts']}")
    for stage, seconds in record["stages_s"].items():
        print(f"metric {stage}_s = {seconds:.4f} s (wall {record['stages_wall_s'][stage]:.4f} s)")
    print(f"metric fail_ratio = {record['fail_ratio']:.4f} ({record['failed']}/{record['attempted']})")
    for name, value in record["metrics"].items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for rnd, stages in enumerate(record.get("accounting", ())):
        for stage, fig in stages.items():
            print(f"trace round {rnd} {stage}: untraced {fig['untraced_s']:.4f} s, traced "
                  f"{fig['traced_s']:.4f} s, child spans {fig['children_s']:.4f} s, overhead "
                  f"{fig['overhead_s']:+.4f} s, {'accounted' if fig['accounted'] else 'NOT accounted'}")
    for name, problem in record["problems"]:
        print(f"problem {name}: {problem.splitlines()[-1]}")


def run_all(args):
    """Each workload in its own process, then one table."""
    rows = {}
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            ok = False
            continue
        ok = ok and json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
        with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json") as fh:
            rows[name] = json.load(fh)
    if args.trace == 0 and rows:
        columns = [("setup_s", "s"), ("solve_s", "s"), ("generate_s", "s"), ("census_s", "s"),
                   ("bound_s", "s"), ("partition_s", "s"), ("peak_rss_mib", "MiB"),
                   ("fail_ratio", "ratio"), ("work_s", "s")]
        print("\n" + "workload".ljust(14) + "".join(f"{c}[{u}]".rjust(18) for c, u in columns))
        for name, rec in rows.items():
            values = dict(rec["metrics"])
            values.update({f"{k}_s": v for k, v in rec["stages_s"].items()})
            values["fail_ratio"] = rec["fail_ratio"]
            cells = [f"{values[c]:.4f}" if c in values else "n/a" for c, _ in columns]
            print(name.ljust(14) + "".join(c.rjust(18) for c in cells))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
