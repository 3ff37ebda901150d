#!/usr/bin/env python3
"""Host-time benchmark of the Distributed Filaments simulator.

    python3 perfbench/run.py --workload jacobi64 --seed 7 --seconds 30 --trace 0

Builds perfbench_driver from source into .bench_build/perfbench (first run only), then runs the
workload, one simulated run per child process, for --seconds seconds. Every answer is checked
against the sequential program (or a closed form), and the virtual counters of every run must
repeat exactly. With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics, from traced runs, untraced runs and the layer probes,
and the per-layer table is printed above it. Host times are CPU seconds scaled to a nominal host
speed by a reference kernel timed on the same CPU between children (see calibrate.h). Host spans
of every child are written to .bench_build/perfbench/spans/. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"

SETUP_REPEATS = 9
MIN_ATTEMPTS = 3
ATTEMPT_TIMEOUT_S = 60
# CPU seconds of one reference-kernel pass on a quiet 4-core 2.1 GHz Xeon host: host times are
# reported as if the host ran the kernel at this speed.
NOMINAL_PASS_S = 0.0070
# Counters that must be identical across every run of one seed, traced or not.
DETERMINISTIC = ("makespan_ns", "sim.events", "net.datagrams", "dsm.faults")

# Per-layer metric -> the end-to-end metric and workload it should move.
MOVES = {
    "sim.events": "wall_s on fs8_diff_co",
    "sim.host_ns_per_event": "wall_s on fs8_diff_co",
    "sim.event_queue_ns": "wall_s on fs8_diff_co",
    "sim.charge_limit_ns.p8": "wall_s on jacobi64; flat on quad8",
    "sim.charge_limit_ns.p64": "wall_s on jacobi64; flat on quad8",
    "sim.medium_busy_s": "makespan_s on fs8_diff_co",
    "dsm.read_hit_ns": "wall_s on jacobi64",
    "dsm.write_hit_ns": "wall_s on fs8_diff_co",
    "dsm.faults": "makespan_s on fs8_diff_co, jacobi64",
    "dsm.page_data_bytes": "makespan_s on fs8_diff_co, jacobi64",
    "dsm.diff_bytes": "makespan_s on fs8_diff_co, jacobi64",
    "dsm.fault_wait_s": "makespan_s on jacobi64",
    "net.datagrams": "makespan_s on fs8_diff_co",
    "net.wire_bytes": "makespan_s on fs8_diff_co",
    "net.frames_coalesced": "makespan_s on fs8_diff_co",
    "net.retransmissions": "makespan_s on fs8_diff_co",
    "net.roundtrip_ns": "wall_s on fs8_diff_co",
    "threads.switch_ns": "wall_s on quad8",
    "threads.create_ns": "wall_s on quad8",
    "core.filaments_run": "wall_s on jacobi64",
    "core.host_ns_per_filament": "wall_s on jacobi64",
    "core.strip_filament_ns": "wall_s on jacobi64",
    "core.fork_join_ns": "wall_s on quad8",
    "core.steal_success": "makespan_s on quad8",
    "core.barrier_wait_s": "makespan_s on jacobi64",
    "obs.trace_overhead": "traced wall_s only; never makespan_s",
    "host.speed": "none: scales every host time of the run",
    "failed_runs": "every metric of this workload",
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (first time) and builds perfbench_driver; raises on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr,
        )
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def driver(args, timeout):
    """Runs one driver step; returns (parsed JSON or None, error text, start ns, end ns)."""
    t0 = time.monotonic_ns()
    try:
        p = subprocess.run([str(DRIVER)] + args, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout}s", t0, time.monotonic_ns()
    t1 = time.monotonic_ns()
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        tail = p.stderr.strip().splitlines()[-3:]
        return None, f"exit code {p.returncode}: {' | '.join(tail)}", t0, t1
    try:
        return json.loads(lines[-1]), "", t0, t1
    except json.JSONDecodeError as e:
        return None, f"unparsable output: {e}", t0, t1


class HostSpeed:
    """Samples of the reference kernel (`perfbench_driver calibrate`), timed between runs."""

    def __init__(self):
        self.samples = []  # (start ns, end ns, CPU seconds of one kernel pass)
        self.sample()

    def sample(self):
        out, err, t0, t1 = driver(["calibrate"], ATTEMPT_TIMEOUT_S)
        if out is None:
            raise RuntimeError(f"reference kernel failed: {err}")
        self.samples.append((t0, t1, out["pass_s"]))

    def factor(self, t0, t1):
        """Nominal over observed kernel speed just before and after [t0, t1]: below 1 when slow."""
        around = [p for _, end, p in self.samples if end <= t0][-1:]
        around += [p for start, _, p in self.samples if start >= t1][:1]
        return NOMINAL_PASS_S / (sum(around) / len(around))


class Runner:
    def __init__(self, opts):
        self.opts = opts
        self.common = ["--workload", opts.workload, "--seed", str(opts.seed)]
        if opts.smoke:
            self.common.append("--smoke")
        self.spans = []  # (label, spans of one child process)
        self.failures = []
        self.signature = None
        self.attempted = 0
        self.last_seconds = 0.0  # wall-clock length of the latest attempt
        self.timed = []  # (kind, host seconds or probe dict, start ns, end ns)
        self.speed = HostSpeed()

    def timed_step(self, args):
        """A driver step whose host time is scaled: the kernel is sampled again right after."""
        result = driver(args, ATTEMPT_TIMEOUT_S)
        self.speed.sample()
        return result

    def reference(self):
        ref, err, _, _ = driver(["reference"] + self.common, ATTEMPT_TIMEOUT_S)
        if ref is None:
            raise RuntimeError(f"reference run failed: {err}")
        self.expect = ["--expect-checksum", repr(ref["checksum"]),
                       "--expect-digest", str(ref["digest"])]

    def setups(self):
        for i in range(SETUP_REPEATS):
            out, err, t0, t1 = self.timed_step(["setup"] + self.common)
            if out is None:
                raise RuntimeError(f"set-up run failed: {err}")
            self.timed.append(("setup", out["host_s"], t0, t1))
            self.spans.append((f"setup{i}", out["spans"]))

    def probes(self):
        out, err, t0, t1 = self.timed_step(["probes"] + (["--smoke"] if self.opts.smoke else []))
        if out is None:
            raise RuntimeError(f"layer probes failed: {err}")
        self.timed.append(("probes", out["probes"], t0, t1))
        self.spans.append(("probes", out["spans"]))

    def attempt(self, traced):
        """One simulated run in a child process; returns its result, or None if it failed."""
        self.attempted += 1
        kind = "traced" if traced else "untraced"
        label = f"{kind}{self.attempted}"
        args = ["attempt"] + self.common + self.expect + (["--trace"] if traced else [])
        out, err, t0, t1 = self.timed_step(args)
        self.last_seconds = (t1 - t0) * 1e-9
        if out is not None and not out["ok"]:
            out, err = None, out["failure"]
        if out is None:
            self.failures.append(f"{label}: {err}")
            return None
        self.spans.append((label, out["spans"]))
        sig = {k: out["makespan_ns"] if k == "makespan_ns" else out["counters"][k]
               for k in DETERMINISTIC}
        if self.signature is None:
            self.signature = sig
        elif sig != self.signature:
            self.failures.append(f"{label}: nondeterministic run: {sig} != {self.signature}")
            return None
        self.timed.append((kind, out["host_s"], t0, t1))
        return out

    def time_left(self, deadline):
        """True while another attempt like the last one still ends before the deadline."""
        return time.monotonic() + self.last_seconds <= deadline

    def scaled(self, kind):
        """Host times of one kind, each scaled to the nominal host speed."""
        return [v * self.speed.factor(t0, t1) for k, v, t0, t1 in self.timed if k == kind]

    def write_spans(self):
        spans_dir = BUILD / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        name = f"{self.opts.workload}-seed{self.opts.seed}-trace{self.opts.trace}.json"
        doc = [{"process": label, "spans": spans} for label, spans in self.spans]
        (spans_dir / name).write_text(json.dumps(doc))

    def self_time_table(self):
        totals = {}
        for _, spans in self.spans:
            for name, (total, own) in benchlib.self_times(spans).items():
                t, o = totals.get(name, (0.0, 0.0))
                totals[name] = (t + total, o + own)
        return totals


def end_to_end(runner, deadline):
    runner.setups()
    runs = []
    while len(runs) + len(runner.failures) < MIN_ATTEMPTS or runner.time_left(deadline):
        out = runner.attempt(traced=False)
        if out is not None:
            runs.append(out)
    if not runs:
        return None
    return {
        "wall_s": benchlib.median(runner.scaled("untraced")),
        "setup_s": benchlib.median(runner.scaled("setup")),
        "peak_rss_mb": benchlib.median([r["peak_rss_mb"] for r in runs]),
        "makespan_s": runs[0]["makespan_s"],
    }


def per_layer(runner, deadline):
    runner.probes()
    plain = traced = 0
    while min(plain, traced) < 1 or runner.time_left(deadline):
        plain += runner.attempt(traced=False) is not None
        traced_out = runner.attempt(traced=True)
        if traced_out is not None:
            traced += 1
            counters = traced_out["counters"]
        if len(runner.failures) >= 2 * MIN_ATTEMPTS and not (plain and traced):
            break
    if not (plain and traced):
        return None
    c = counters
    values = {k: c[k] for k in (
        "sim.events", "sim.medium_busy_s", "dsm.faults", "dsm.page_data_bytes", "dsm.diff_bytes",
        "dsm.fault_wait_s", "net.datagrams", "net.wire_bytes", "net.frames_coalesced",
        "net.retransmissions", "core.filaments_run", "core.barrier_wait_s")}
    values["core.steal_success"] = benchlib.ratio(c["core.steals_succeeded"],
                                                  c["core.steals_attempted"])
    _, probes, t0, t1 = next(t for t in runner.timed if t[0] == "probes")
    values.update({name: ns * runner.speed.factor(t0, t1) for name, ns in probes.items()})
    wall = benchlib.median(runner.scaled("untraced"))
    values["sim.host_ns_per_event"] = benchlib.ratio(wall * 1e9, c["sim.events"])
    values["core.host_ns_per_filament"] = benchlib.ratio(wall * 1e9, c["core.filaments_run"])
    values["obs.trace_overhead"] = benchlib.ratio(benchlib.median(runner.scaled("traced")), wall)
    values["host.speed"] = benchlib.median(
        [runner.speed.factor(t0, t1) for _, _, t0, t1 in runner.timed])
    return values


def print_table(opts, values, units, self_times):
    print(f"per-layer metrics: {opts.workload}, seed {opts.seed} (host metrics from untraced "
          "runs; counters from the traced run)")
    print(f"  {'metric':<26} {'value':>16} {'unit':<6} should move")
    for name, value in values.items():
        print(f"  {name:<26} {value:>16.6g} {units[name]:<6} {MOVES.get(name, '')}")
    print("host spans (CPU seconds, summed over child processes):")
    print(f"  {'span':<32} {'total':>10} {'self':>10}")
    for name, (total, own) in sorted(self_times.items(), key=lambda kv: -kv[1][0]):
        print(f"  {name:<32} {total:>10.4f} {own:>10.4f}")


def measure(opts):
    """Runs the workload on one CPU, sampling the reference kernel between children."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # every child inherits this
    deadline = time.monotonic() + opts.seconds
    runner = Runner(opts)
    runner.reference()
    return runner, (per_layer if opts.trace else end_to_end)(runner, deadline)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    opts = ap.parse_args(argv)

    manifest = benchlib.load_manifest(ROOT / "BENCHMARK.json")
    if opts.workload not in [w["name"] for w in manifest["workloads"]]:
        ap.error(f"unknown workload {opts.workload!r}")
    wanted = manifest["per_layer" if opts.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build()
    runner, values = measure(opts)
    runner.write_spans()
    for f in runner.failures:
        log(f"failed: {f}")

    failed = len(runner.failures)
    correct = values is not None and failed == 0
    values = values or {}
    if opts.trace:
        values["failed_runs"] = failed
    missing = sorted(set(units) - set(values))
    if missing and correct:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    values = {name: values.get(name, 0.0) for name in units}
    if opts.trace:
        print_table(opts, values, units, runner.self_time_table())
    print(benchlib.result_line(correct, runner.attempted, failed, values, units), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.CalledProcessError, benchlib.ManifestError) as e:
        log(f"error: {e}")
        sys.exit(1)
