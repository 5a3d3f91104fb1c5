#!/usr/bin/env python3
"""Benchmark of the gradedbundles engine, end to end and layer by layer.

    python3 perfbench/run.py --workload jets|towers|cli --seed N \
        --seconds S --trace 0|1

Run it from the root of a gradedbundles checkout (it reads ``src/`` and
``specs/``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
same object and, for a traced run, one task's spans are written under
``perfbench/out/``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("jets", "towers", "cli")
SETUP_PROBES = 9
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 60
ALLOCATION_COUNTS = ("superalg.fraction_new", "superalg.variable_hash")
# CPU seconds of one calibration() on the reference host (2.1 GHz shared
# cloud host, uncontended); end-to-end times are reported at that speed
CALIBRATION_REF_S = 0.010

END_TO_END = {
    "setup_s": "s",
    "throughput_tasks_per_s": "1/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_task": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "superalg.self_s": "s",
    "superalg.mul.calls": "count",
    "superalg.partial.calls": "count",
    "superalg.substitute.calls": "count",
    "superalg.commutator.calls": "count",
    "superalg.fraction_new.calls": "count",
    "superalg.variable_hash.calls": "count",
    "bundle.self_s": "s",
    "bundle.validate.calls": "count",
    "bundle.validate.s": "s",
    "linfun.self_s": "s",
    "linfun.linearise.s": "s",
    "linfun.linear_dual.s": "s",
    "linfun.pairing.s": "s",
    "linfun.symmetry_report.s": "s",
    "algebroid.self_s": "s",
    "algebroid.check_weighted_algebroid.s": "s",
    "algebroid.schouten.calls": "count",
    "algebroid.schouten.s": "s",
    "constructions.self_s": "s",
    "constructions.higher_tangent.s": "s",
    "constructions.tangent_algebroid.s": "s",
    "constructions.lie_tower.s": "s",
    "constructions.reduced_bracket.s": "s",
    "specfile.self_s": "s",
    "specfile.parse.s": "s",
    "specfile.parse_expression.calls": "count",
    "report.self_s": "s",
    "report.render.s": "s",
    "report.bytes_out": "B",
    "cli.self_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.s": "s",
    "bench.self_s": "s",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------- children
@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    fd3: str
    wall: float       # spawn to reaped, seconds
    cpu: float        # child user+system time plus the parent's own
    maxrss_kb: int
    spawned_at: float


def _read(fd):
    os.lseek(fd, 0, os.SEEK_SET)
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks).decode("utf-8", "replace")


def spawn(args, root, hash_seed):
    """Run ``python args...`` in ``root`` and reap it with its own rusage.

    Output goes to anonymous memory files, so a large report cannot block
    the child on a full pipe.  A child still running after
    CHILD_TIMEOUT_S is killed.
    """
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": str(hash_seed)}
    fds = [os.memfd_create(name) for name in ("stdout", "stderr", "fd3")]
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
    actions += [(os.POSIX_SPAWN_DUP2, fd, target) for fd, target in zip(fds, (1, 2, 3))]
    try:
        c0 = time.process_time()
        t0 = time.monotonic()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                             file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                os.kill(pid, signal.SIGKILL)
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
        wall = time.monotonic() - t0
        cpu = time.process_time() - c0 + usage.ru_utime + usage.ru_stime
        return Child(os.waitstatus_to_exitcode(status), *(_read(fd) for fd in fds),
                     wall, cpu, usage.ru_maxrss, t0)
    finally:
        for fd in fds:
            os.close(fd)


# ------------------------------------------------------------------- stats
def calibration():
    """Wall and CPU seconds of a fixed loop of Fraction and dict arithmetic.

    It uses the standard library only, so no change to the engine moves
    it; it slows down with the host exactly when the tasks do.
    """
    c0 = time.process_time()
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 1500):
        f = Fraction(i, i + 1) * Fraction(3, 7)
        acc += f
        key = (i % 97, "k")
        table[key] = table.get(key, Fraction(0)) + f
    return time.perf_counter() - t0, time.process_time() - c0


class Calibrated:
    """Times a task between two calibration loops."""

    def __init__(self):
        self.last = calibration()

    def scale(self):
        """Factor that turns this moment's seconds into reference seconds,
        for wall time and for CPU time; call it right after the task."""
        now = calibration()
        wall = (self.last[0] + now[0]) / 2
        cpu = (self.last[1] + now[1]) / 2
        self.last = now
        return CALIBRATION_REF_S / wall, CALIBRATION_REF_S / cpu


@dataclass
class Stats:
    walls: list = field(default_factory=list)     # raw task wall times
    scaled: dict = field(default_factory=lambda: defaultdict(list))
    child_rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, label, wall, cpu, scale, failed=False, problems=()):
        """One task; ``label`` names its input, which every round repeats."""
        self.attempted += 1
        self.failed += bool(failed)
        self.walls.append(wall)
        self.scaled[label].append((wall * scale[0], cpu * scale[1]))
        self.problems.extend(problems)

    def per_input(self):
        """Each input's median reference-speed (wall, CPU) over the rounds."""
        return [(statistics.median(w for w, _ in v), statistics.median(c for _, c in v))
                for v in self.scaled.values()]


class Traced:
    """Tracer totals summed over the tasks of one phase of a traced run."""

    def __init__(self):
        self.counts = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.bytes_out = 0
        self.interpreter = []
        self.imports = []
        self.spans = None

    def merge(self, summary):
        for mine, theirs in ((self.counts, summary["counts"]),
                             (self.inclusive, summary["inclusive"]),
                             (self.self_time, summary["self"])):
            for key, value in theirs.items():
                mine[key] += value
        self.bytes_out += summary["bytes_out"]


# --------------------------------------------------------------- workloads
class InProcess:
    """jets and towers: engine calls in this process, one task per input."""

    def __init__(self, name, seed):
        import workloads

        self.name = name
        self.module = workloads
        if name == "jets":
            self.items = workloads.jets_inputs(seed)
            self.task, self.check = workloads.jets_task, workloads.check_jets
        else:
            self.items = workloads.towers_inputs(seed)
            self.task, self.check = workloads.towers_task, workloads.check_towers

    def run_round(self, stats, tracer=None):
        calibrated = Calibrated()
        for index, item in enumerate(self.items):
            c0 = time.process_time()
            t0 = time.perf_counter()
            if tracer is None:
                out = self.task(item)
            else:
                with tracer.task():
                    out = self.task(item)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            stats.add(index, wall, cpu, calibrated.scale(), problems=self.check(item, out))

    def traced_phase(self, stats, seconds, fine):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install([self.module])
        if fine:
            tracer.count_allocations()
        tracer.keep = not fine
        try:
            run_for(lambda: self.run_round(stats, tracer), seconds)
        finally:
            tracer.uninstall()
        traced = Traced()
        traced.merge(tracer.summary())
        traced.spans = tracer.spans
        return traced

    def peak_rss_mb(self, stats):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Cli:
    """Each command a fresh ``python -m gradedbundles.cli``, one at a time."""

    def __init__(self, seed, root):
        import workloads

        self.module = workloads
        self.root = root
        self.seed = seed
        self.items = workloads.cli_commands(seed, root, HERE / "out" / f"specs-{seed}")
        self.first_stdout = {}
        self.rounds = 0

    def _hash_seed(self):
        # a different hash seed each round, so byte-identical repeats also
        # show that no report depends on set or dict hash order
        return (self.seed * 1009 + self.rounds) % 2**32

    def _record(self, stats, cmd, child, scale, traced=False):
        problems = self.module.check_cli(cmd, child.code, child.stdout, child.stderr)
        failed = cmd.kind == "hostile" and not self.module.hostile_handled(
            child.code, child.stderr)
        # traced stdout is compared with traced stdout only: the tracer's
        # frames change where a deep recursion is cut off
        seen = self.first_stdout.setdefault((traced, cmd.label), child.stdout)
        if child.stdout != seen:
            problems.append(f"{cmd.label}: stdout differs between repeats")
        stats.child_rss_kb = max(stats.child_rss_kb, child.maxrss_kb)
        stats.add(cmd.label, child.wall, child.cpu, scale, failed, problems)

    def run_round(self, stats):
        hs = self._hash_seed()
        self.rounds += 1
        calibrated = Calibrated()
        for cmd in self.items:
            child = spawn(["-m", "gradedbundles.cli", *cmd.argv], self.root, hs)
            self._record(stats, cmd, child, calibrated.scale())

    def _traced_round(self, stats, traced, fine):
        hs = self._hash_seed()
        self.rounds += 1
        calibrated = Calibrated()
        for cmd in self.items:
            keep = traced.spans is None and not fine
            child = spawn([str(HERE / "child.py"), "cli", str(int(fine)), str(int(keep)),
                           *cmd.argv], self.root, hs)
            self._record(stats, cmd, child, calibrated.scale(), traced=True)
            summary = json.loads(child.fd3)
            traced.merge(summary)
            traced.interpreter.append(summary["start"] - child.spawned_at)
            traced.imports.append(summary["import_s"])
            if keep:
                traced.spans = summary["spans"]

    def traced_phase(self, stats, seconds, fine):
        traced = Traced()
        run_for(lambda: self._traced_round(stats, traced, fine), seconds)
        return traced

    def peak_rss_mb(self, stats):
        return stats.child_rss_kb / 1024


# ------------------------------------------------------------- measurement
def run_for(round_fn, seconds):
    """Whole rounds until at least ``seconds`` have passed."""
    start = time.monotonic()
    while True:
        round_fn()
        if time.monotonic() - start >= seconds:
            return


def measure_setup(name, seed, root, first_command):
    """Median set-up time of fresh interpreters, after one warm-up.

    Set-up runs from spawning a new interpreter until it has imported what
    the workload needs and made its inputs; for ``cli`` it adds one command
    (the first of the round), which is what fills the bytecode and file
    caches for a user.
    """
    times = []
    calibrated = Calibrated()
    for probe in range(SETUP_PROBES + 1):
        child = spawn([str(HERE / "child.py"), "setup", name, str(seed)], root, seed % 2**32)
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        took = json.loads(child.stdout.splitlines()[-1])["ready"] - child.spawned_at
        if first_command is not None:
            took += spawn(["-m", "gradedbundles.cli", *first_command.argv], root,
                          seed % 2**32).wall
        scale = calibrated.scale()[0]
        if probe:
            times.append(took * scale)
    return statistics.median(times)


def import_probes(root, seed):
    starts, imports = [], []
    for _ in range(IMPORT_PROBES):
        child = spawn([str(HERE / "child.py"), "import"], root, seed % 2**32)
        doc = json.loads(child.stdout)
        starts.append(doc["start"] - child.spawned_at)
        imports.append(doc["import_s"])
    return statistics.median(starts), statistics.median(imports)


def tail_note(stats):
    """Raw task times: the median and the highest percentile with at least
    ten samples beyond it."""
    n = len(stats.walls)
    note = f"raw task time over {n} tasks: median {statistics.median(stats.walls) * 1000:.2f} ms"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            value = statistics.quantiles(stats.walls, n=100)[p - 1] * 1000
            return f"{note}, p{p} {value:.2f} ms"
    return note + ", too few for a tail percentile"


def end_to_end(wl, stats, setup_s):
    """The end-to-end metrics of an untraced run, at reference host speed.

    Each task's wall and CPU time is scaled by CALIBRATION_REF_S over the
    time of the calibration loop run just before and just after it; each
    input (every round repeats the same inputs) then counts with its median
    over the rounds.  Throughput is the rate of a round made of those
    medians; latency is their median over the inputs (for ``cli``, the
    mean over commands, which differ in size).
    """
    per_input = stats.per_input()
    walls = [w for w, _ in per_input]
    latency = statistics.fmean(walls) if isinstance(wl, Cli) else statistics.median(walls)
    return {
        "setup_s": setup_s,
        "throughput_tasks_per_s": len(walls) / sum(walls),
        "latency_p50_ms": latency * 1000,
        "cpu_ms_per_task": statistics.fmean(c for _, c in per_input) * 1000,
        "peak_rss_mb": wl.peak_rss_mb(stats),
    }


def per_layer(wl, seconds, root, seed, phases):
    """Untraced, span and allocation-count phases of a traced run.

    The untraced phase gives the baseline for the tracing overhead; call
    counts and times come from the span phase, the ``Fraction.__new__`` and
    ``Variable.__hash__`` counts from one round with those counters on.  All
    values are per task.
    """
    base, span_stats, fine_stats = Stats(), Stats(), Stats()
    phases += [base, span_stats, fine_stats]
    run_for(lambda: wl.run_round(base), seconds * 0.35)
    spans = wl.traced_phase(span_stats, seconds * 0.35, fine=False)
    fine = wl.traced_phase(fine_stats, 0, fine=True)
    n, n_fine = span_stats.attempted, fine_stats.attempted

    untraced_ms = statistics.fmean(w for w, _ in base.per_input()) * 1000
    traced_ms = statistics.fmean(w for w, _ in span_stats.per_input()) * 1000
    if isinstance(wl, Cli):
        interpreter_s = statistics.fmean(spans.interpreter)
        import_s = statistics.fmean(spans.imports)
    else:
        interpreter_s, import_s = import_probes(root, seed)

    values = {
        "report.bytes_out": spans.bytes_out / n,
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "trace.overhead_pct": (traced_ms / untraced_ms - 1) * 100,
    }
    for name in PER_LAYER:
        stem, _, suffix = name.rpartition(".")
        if suffix == "self_s":
            values[name] = spans.self_time.get(stem, 0.0) / n
        elif suffix == "s":
            values[name] = spans.inclusive.get(stem, 0.0) / n
        elif suffix == "calls" and stem in ALLOCATION_COUNTS:
            values[name] = fine.counts.get(stem, 0) / n_fine
        elif suffix == "calls":
            values[name] = spans.counts.get(stem, 0) / n
    note = (f"tracing: {untraced_ms:.2f} ms per task untraced over {base.attempted}, "
            f"{traced_ms:.2f} ms traced over {n}")
    return values, spans.spans, note


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gradedbundles" / "__init__.py").is_file():
        print("error: run from the root of a gradedbundles checkout "
              "(src/gradedbundles not found)", file=sys.stderr)
        return 2
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # the same seed gives the same set iteration order, hence the same
        # work and exactly repeating counts
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=hash_seed))
    sys.path.insert(1, str(root / "src"))
    (HERE / "out").mkdir(exist_ok=True)

    phases = []
    if args.workload == "cli":
        wl = Cli(args.seed, root)
        first = wl.items[0]
    else:
        wl = InProcess(args.workload, args.seed)
        first = None
        phases.append(Stats())
        wl.run_round(phases[-1])  # warm-up round: checked, not timed

    if args.trace:
        metrics, spans, note = per_layer(wl, args.seconds, root, args.seed, phases)
        units = PER_LAYER
        trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            [dict(zip(("id", "parent", "name", "start", "end"), s)) for s in spans or []]))
    else:
        setup_s = measure_setup(args.workload, args.seed, root, first)
        stats = Stats()
        phases.append(stats)
        run_for(lambda: wl.run_round(stats), args.seconds)
        metrics = end_to_end(wl, stats, setup_s)
        units = END_TO_END
        note = tail_note(stats)

    problems = [p for phase in phases for p in phase.problems]
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(note, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    line = json.dumps(result)
    (HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
