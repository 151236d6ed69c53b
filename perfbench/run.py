#!/usr/bin/env python3
"""Benchmark of the entwine library: seeded question streams, every answer
checked.

    python3 perfbench/run.py --workload reports_dense --seed 1 --seconds 16 --trace 0

With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
replays the first cycles of the same stream untraced and then traced, and
reports the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Uses the
standard library only; see perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import calib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3          # setup_s is the median of these
FLOOR_RUNS = 5             # cli.spawn_ms and cli.import_ms are medians
HARD_LIMIT_S = 150         # a run stops here, mid-cycle, to end within 180 s
MIN_BEYOND_TAIL = 10       # questions that must lie beyond the tail percentile


def env_stamp(seed):
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {"python": sys.version.split()[0], "nproc": affinity,
            "git_sha": git_sha(), "seed": seed,
            "loadavg_before": list(os.getloadavg())}


def git_sha():
    """The checkout's commit, read from .git without running git; the
    benchmark's checkout is usually not a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def nearest_rank(values, pct):
    """(value, questions beyond it) at the pct-th percentile, nearest rank."""
    ordered = sorted(values)
    idx = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[idx], len(ordered) - idx - 1


class Pass:
    """One sweep over a question stream: latencies, CPU, problems."""

    def __init__(self):
        self.latencies = []      # raw seconds per question
        self.spans = []          # (start, end) of each question
        self.cpu = []            # raw process CPU seconds per question
        self.slices = []         # reference slices around the questions
        self.busy_s = 0.0
        self.failures = []       # (qid, key, [(kind, message)])
        self.canonical = []
        self.wrong = 0
        self.cycles = 0
        self.stopped_early = False

    @property
    def scaled(self):
        """Question times at nominal host speed (see calib.py)."""
        return [(t1 - t0) * calib.scale(self.slices, t0, t1)
                for t0, t1 in self.spans]


def run_pass(wl, *, seconds=None, cycles=None, recorder=None,
             keep_canonical=False):
    """Ask whole cycles until `seconds` of question time at nominal host
    speed have passed (or exactly `cycles` cycles), so the number of cycles
    does not depend on how busy the host is.  Only `ask` is timed and
    traced; generation and checking happen between questions."""
    p = Pass()
    deadline = T_START + HARD_LIMIT_S
    p.slices.append(calib.reference_slice())
    nominal_s = 0.0
    k = 0
    while (nominal_s < seconds) if cycles is None else (k < cycles):
        for q in wl.cycle(k):
            if time.perf_counter() > deadline:
                p.stopped_early = True
                return p
            if recorder is not None:
                recorder.qid = q.qid
                recorder.active = True
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                answer, error = wl.ask(q), None
            except Exception as exc:  # a question that raises is a failure
                answer, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            c1 = time.process_time()
            if recorder is not None:
                recorder.active = False
            p.slices.append(calib.reference_slice())
            p.latencies.append(t1 - t0)
            p.spans.append((t0, t1))
            p.busy_s += t1 - t0
            nominal_s += (t1 - t0) * calib.scale(p.slices[-8:], t0, t1)
            p.cpu.append(c1 - c0)
            if error is not None:
                problems = [("wrong", f"unexpected exception {error}")]
            else:
                try:
                    problems = wl.check(q, answer)
                except Exception as exc:
                    problems = [("wrong", f"re-check raised "
                                          f"{type(exc).__name__}: {exc}")]
            if problems:
                p.failures.append((q.qid, q.key, problems))
                p.wrong += any(kind == "wrong" for kind, _ in problems)
            if keep_canonical:
                p.canonical.append(None if answer is None
                                   else wl.canonical(q, answer))
        k += 1
        p.cycles = k
    return p


def children_usage():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def end_to_end(wl, seconds, setup_s):
    child_cpu0, _ = children_usage()
    p = run_pass(wl, seconds=seconds)
    n = len(p.latencies)
    scaled = p.scaled
    speed = sum(scaled) / p.busy_s        # nominal over actual host speed
    if wl.name == "cli_batch":
        child_cpu1, rss_mb = children_usage()
        cpu_raw = child_cpu1 - child_cpu0
        cpu_s = cpu_raw * speed
    else:
        cpu_raw = sum(p.cpu)
        cpu_s = sum(c * t_s / t for c, t, t_s in
                    zip(p.cpu, p.latencies, scaled))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail, beyond = nearest_rank(scaled, wl.tail_pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "questions_per_s": (n / sum(scaled), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "cpu_ms_per_question": (cpu_s / n * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw = {
        "raw.questions_per_s": (n / p.busy_s, "1/s"),
        "raw.latency_p50_ms": (statistics.median(p.latencies) * 1000, "ms"),
        "raw.latency_tail_ms": (nearest_rank(p.latencies, wl.tail_pct)[0]
                                * 1000, "ms"),
        "raw.cpu_ms_per_question": (cpu_raw / n * 1000, "ms"),
        "host_speed": (1 / speed, "ratio"),
        "failed_frac": (len(p.failures) / n, "ratio"),
    }
    notes = [f"questions: {n} in {p.cycles} whole cycles, "
             f"{p.busy_s:.2f} s of question time",
             f"latency_tail_ms is p{wl.tail_pct}, "
             f"with {beyond} questions beyond it",
             "times are scaled to nominal host speed (calib.py); raw.* are "
             "unscaled, host_speed is actual over nominal"]
    if beyond < MIN_BEYOND_TAIL:
        notes.append(f"WARNING: fewer than {MIN_BEYOND_TAIL} questions "
                     "beyond the tail percentile")
    return p, metrics, notes, raw


def spawn_floors():
    """Medians of a bare interpreter start and of `import entwine.cli`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    spawn, imp = [], []
    probe = ("import time; t = time.perf_counter(); import entwine.cli; "
             "print(time.perf_counter() - t)")
    for _ in range(FLOOR_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env,
                       cwd=ROOT, timeout=60)
        spawn.append((time.perf_counter() - t0) * 1000)
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             env=env, cwd=ROOT, timeout=60,
                             capture_output=True, text=True).stdout
        imp.append(float(out.strip()) * 1000)
    return statistics.median(spawn), statistics.median(imp)


def traced(wl):
    """Replay the first cycles untraced, then traced; the answers must be
    identical.  Returns (passes, metrics, notes, mismatches)."""
    import spans
    passes = []
    child_cpu_ms = 0.0
    sub = None
    if wl.name == "cli_batch":
        cpu0, _ = children_usage()
        sub = run_pass(wl, cycles=wl.trace_cycles, keep_canonical=True)
        child_cpu_ms = (children_usage()[0] - cpu0) / len(sub.latencies) * 1000
        passes.append(sub)
        wl.in_process = True
    plain = run_pass(wl, cycles=wl.trace_cycles, keep_canonical=True)
    rec = spans.Recorder()
    rec.install()
    try:
        tr = run_pass(wl, cycles=wl.trace_cycles, recorder=rec,
                      keep_canonical=True)
    finally:
        rec.uninstall()
    passes += [plain, tr]
    mismatches = sum(a != b for a, b in zip(plain.canonical, tr.canonical))
    if sub is not None:
        mismatches += sum(a != b for a, b in zip(sub.canonical, tr.canonical))
    spawn_ms, import_ms = spawn_floors()
    # process floors count towards the time a cli_batch user waits
    floor_s = (spawn_ms + import_ms) / 1000 * len(tr.latencies) \
        if sub is not None else 0.0
    layer = rec.summary(tr.busy_s + floor_s)
    layer["cli.spawn_ms"] = spawn_ms
    layer["cli.import_ms"] = import_ms
    layer["cli.child_cpu_ms"] = child_cpu_ms
    layer["share.schema_cli"] = (layer["schema.parse_document.s"]
                                 + layer["schema.dumps.s"] + floor_s) \
        / (tr.busy_s + floor_s)
    layer["trace.overhead_ratio"] = tr.busy_s / plain.busy_s
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.write(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{wl.seed}.jsonl"))
    notes = [f"traced {len(tr.latencies)} questions ({wl.trace_cycles} "
             f"cycle(s)): {plain.busy_s:.2f} s untraced, {tr.busy_s:.2f} s "
             f"traced",
             f"answers differing between traced and untraced: {mismatches}"]
    return passes, layer, notes, mismatches


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "entwine")):
        print(f"perfbench: no library at {SRC}/entwine; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    stamp = env_stamp(args.seed)
    # one core for the whole run (cli_batch children inherit it), so the
    # reference slices time the same core as the questions they bracket
    if hasattr(os, "sched_setaffinity"):
        stamp["pinned_core"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {stamp["pinned_core"]})
    import entwine.cli  # noqa: F401
    import_s = time.perf_counter() - T_START
    cls = workloads.WORKLOADS[args.workload]

    # set-up is repeated and every repetition is bracketed by reference
    # slices, so setup_s is a median at nominal host speed like the rest
    slices = [calib.reference_slice() for _ in range(4)]
    import_s *= calib.scale(slices, T_START, slices[0][0])
    setups = []
    for i in range(SETUP_REPEATS if args.trace == 0 else 1):
        if i:
            wl.close()
        t0 = time.perf_counter()
        wl = cls(args.seed, ROOT)
        wl.prepare()
        wl.cycle(0)
        wl.warm_up()
        t1 = time.perf_counter()
        slices.append(calib.reference_slice())
        setups.append((t1 - t0) * calib.scale(slices, t0, t1))
    setup_s = import_s + statistics.median(setups)

    try:
        if args.trace == 0:
            p, metrics, notes, extra = end_to_end(wl, args.seconds, setup_s)
            passes, mismatches = [p], 0
            shown = dict(metrics, **extra)
        else:
            passes, layer, notes, mismatches = traced(wl)
            metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
            shown = metrics
    finally:
        wl.close()
    stamp["loadavg_after"] = list(os.getloadavg())

    main_pass = passes[-1] if args.trace else passes[0]
    attempted = len(main_pass.latencies)
    failed = len(main_pass.failures)
    correct = all(p.wrong == 0 for p in passes) and mismatches == 0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env: " + json.dumps(stamp))
    for line in notes:
        print(line)
    if any(p.stopped_early for p in passes):
        print(f"WARNING: stopped at the {HARD_LIMIT_S} s limit, mid-cycle")
    for qid, key, problems in main_pass.failures:
        for kind, message in problems:
            print(f"FAILED {qid} {key} [{kind}]: {message}")
    for name, (value, unit) in shown.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                   f"-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"env": stamp, "notes": notes, "result": result,
                   "failures": main_pass.failures}, fh, indent=1)
    print(json.dumps(result))
    return 0


def unit_of(name):
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.startswith(("share.", "trace.")) or name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
