"""Benchmark for vicalc: end-to-end timings and, traced, per-layer timings.

Run from the root of a checkout (the program is taken from ./src):

    python3 perfbench/run.py --workload heavy_queries --seed 1 --seconds 42 --trace 0

Workloads are described in workloads.py.  One run repeats passes over the
seeded workload until the next pass would overrun --seconds, then prints
as its last stdout line one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are end-to-end figures,
medians over the run's passes; each pass also makes the trivial launches
and the set-up probes, so that those sample the whole run.  With --trace 1
untraced and traced passes alternate and the metrics are per-layer
figures from traced.py.  Every operation is checked by workloads.verdict
before any time counts; a wrong value, an unexpected exit code, a crash
and a timeout each count as a failed operation.  The line before the
result records the machine, the kernel lane, the seed and each pass's
wall time.
"""

import argparse
import inspect
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import SAME_BYTES, TRIVIAL, verdict

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
# `python -m vicalc.cli` exits 0 without running anything (cli.py has no
# __main__ guard), and the `vicalc` script exists only after an install.
LAUNCHER = "import sys; from vicalc.cli import main; sys.exit(main(sys.argv[1:]))"
PROCESS_TIMEOUT_S = 90
# Children still running this long after the start are killed, so a run
# ends within its 180 s budget even when the program hangs.
RUN_LIMIT_S = 165
TRIVIAL_PER_PASS = 10
SETUP_PER_PASS = 5
POOL_PROBE_REPEATS = 5
# The lane every recorded figure so far was measured on.
BASELINE_LANE = "pure"


def child_env():
    """The environment for every process the benchmark starts.

    VI_WORKERS would override --workers, so it is removed.
    """
    env = dict(os.environ)
    env.pop("VI_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs Python children in the benchmark's environment, within the run's deadline."""

    def __init__(self, deadline):
        self.env = child_env()
        self.deadline = deadline

    def __call__(self, args):
        """Run one child to completion: (exit code or None, stdout, stderr, wall s)."""
        start = time.perf_counter()
        timeout = max(1.0, min(PROCESS_TIMEOUT_S, self.deadline - start))
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # pool workers included
            out, err = proc.communicate()
            code = None
        return code, out, err, time.perf_counter() - start


@dataclass
class Pass:
    wall_s: float = 0.0  # the operations' processes only, not the gate
    attempted: int = 0
    passed: int = 0
    slowest_s: float = 0.0
    notes: Counter = field(default_factory=Counter)
    dumps: list = field(default_factory=list)
    trivial_s: list = field(default_factory=list)  # correct trivial launches only
    trivial_failed: int = 0
    setup_s: list = field(default_factory=list)


class Workload:
    """One workload's inputs and its pass, untraced or traced."""

    def __init__(self, name, seed, scratch, launch):
        self.name = name
        self.seed = seed
        self.scratch = scratch
        self.launch = launch
        self._dumps = 0
        modules = "vicalc.cli, vicalc.fusion" if name == "oracle_sweep" else "vicalc.cli"
        self._import_probe = ("import time; t = time.perf_counter(); import %s; "
                              "print(repr(time.perf_counter() - t))" % modules)
        if name == "heavy_queries":
            self.ops = workloads.heavy_ops(seed)
        elif name == "batch_mixed":
            self.jobs = workloads.resolve_expectations(workloads.batch_jobs(seed))
            self.job_file = scratch / "jobs.ndjson"
            self.job_file.write_text("".join(job.line + "\n" for job in self.jobs))
        else:
            import sweep

            self.sweep_size = len(sweep.sweep_queries())
        self._import_time()  # writes the bytecode cache before anything is timed

    def run_pass(self, traced):
        result = Pass()
        getattr(self, "_" + self.name)(traced, result)
        return result

    def measured_pass(self):
        """An untraced pass, then the trivial launches and the set-up probes."""
        result = self.run_pass(False)
        for _ in range(TRIVIAL_PER_PASS):
            code, out, _, wall = self.launch(["-c", LAUNCHER, *TRIVIAL.argv])
            if verdict(TRIVIAL.expect, code, out)[0]:
                result.trivial_s.append(wall)
            else:
                result.trivial_failed += 1
        result.setup_s = [self._import_time() for _ in range(SETUP_PER_PASS)]
        return result

    def _import_time(self):
        """Import time of vicalc.cli (plus vicalc.fusion for the sweep) in a fresh interpreter."""
        code, out, err, _ = self.launch(["-c", self._import_probe])
        if code != 0:
            raise RuntimeError("importing vicalc failed: %s" % err.strip())
        return float(out)

    def _run(self, mode, args, traced, result):
        """Launch one vicalc call (mode "cli") or sweep pass, traced or not."""
        if traced:
            self._dumps += 1
            spans = self.scratch / ("spans-%d.json" % self._dumps)
            argv = [str(HERE / "traced.py"), str(spans), mode, *args]
        elif mode == "cli":
            argv = ["-c", LAUNCHER, *args]
        else:
            argv = [str(HERE / "sweep.py"), *args]
        code, out, err, wall = self.launch(argv)
        result.wall_s += wall
        if traced and spans.is_file():
            result.dumps.append(json.loads(spans.read_text()))
        return code, out, err, wall

    def _heavy_queries(self, traced, result):
        outputs = {}
        for op in self.ops:
            code, out, _, wall = self._run("cli", op.argv, traced, result)
            ok, note = verdict(op.expect, code, out)
            outputs[op.label] = (ok, out)
            result.notes[note] += 1
            if ok:
                result.slowest_s = max(result.slowest_s, wall)
        same = len({outputs[label][1] for label in SAME_BYTES}) == 1
        result.attempted = len(self.ops)
        result.passed = sum(ok and (same or label not in SAME_BYTES)
                            for label, (ok, _) in outputs.items())

    def _batch_mixed(self, traced, result):
        code, out, err, wall = self._run("cli", ["batch", str(self.job_file)], traced, result)
        lines = workloads.split_batch(len(self.jobs), code, out, err)
        result.attempted = len(self.jobs)
        if lines is None:
            return
        for job, (line_code, line_out) in zip(self.jobs, lines):
            ok, note = verdict(job.expect, line_code, line_out)
            result.passed += ok
            result.notes[note] += 1
        result.slowest_s = wall

    def _oracle_sweep(self, traced, result):
        code, out, _, wall = self._run("sweep", [str(self.seed)], traced, result)
        result.attempted = self.sweep_size
        if code != 0:
            return
        try:
            summary = json.loads(out.splitlines()[-1])
        except (ValueError, IndexError):
            return
        if summary.get("attempted") == self.sweep_size:
            result.passed = summary["agreed"]
        result.slowest_s = wall


def pool_startup_s():
    """A tiny query at workers=2 minus workers=1, medians over a few calls.

    0 once evaluate takes no worker count, that is, once the pool is gone.
    """
    from vicalc.engine import InvariantQuery, evaluate

    if "workers" not in inspect.signature(evaluate).parameters:
        return 0.0
    query = InvariantQuery(n=4, k=2, g=0, e=0, monomial=(1, 1, 1, 1), convention="dual")
    times = {1: [], 2: []}
    for _ in range(POOL_PROBE_REPEATS):
        for workers in (1, 2):
            start = time.perf_counter()
            evaluate(query, workers=workers)
            times[workers].append(time.perf_counter() - start)
    return statistics.median(times[2]) - statistics.median(times[1])


def repeat_until(seconds, step):
    """Run step() at least once, and again while another would end in time."""
    results = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - start + (now - before) > seconds:
            return results


# ---------------------------------------------------------------------------
# metrics

def end_to_end(passes):
    median = statistics.median
    trivial_s = [t for p in passes for t in p.trivial_s]
    return {
        "wall_s": (median(p.wall_s for p in passes), "s"),
        "ops_per_s": (median(p.passed / p.wall_s for p in passes), "1/s"),
        "slowest_query_s": (median(p.slowest_s for p in passes), "s"),
        "trivial_call_s": (median(trivial_s) if trivial_s else 0.0, "s"),
        "setup_s": (median(t for p in passes for t in p.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MiB"),
    }


# Spans reported by their call count and self time.
SPAN_METRICS = (
    "backend.subset_power_sum",
    "engine.evaluate",
    "reference",
    "count_max",
    "cyclotomic.reduce",
    "cyclotomic.mul",
    "fusion.correlator",
    "fusion.spectral",
    "symfunc.quantum_product",
    "symfunc.lr_coefficient",
    "cli.build_parser",
    "parabolic",
)


def layer_metrics(result):
    """Per-layer figures of one traced pass, summed over its processes."""
    spans, counters, imports = {}, Counter(), []
    for dump in result.dumps:
        for name, (calls, total, self_s) in dump["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        counts = dict(dump["counters"])
        bits = counts.pop("backend.bound_bits_max", 0)
        counters["backend.bound_bits_max"] = max(counters["backend.bound_bits_max"], bits)
        counters.update(counts)
        imports.append(dump["cli.import_s"])

    def span(name):
        return spans.get(name, [0, 0.0, 0.0])

    out = {}
    for name in SPAN_METRICS:
        out[name + ".calls"] = (span(name)[0], "count")
        out[name + ".self_s"] = (span(name)[2], "s")
    subsets = counters["backend.subset_power_sum.subsets"]
    kernel_self = span("backend.subset_power_sum")[2]
    out.update({
        "backend.subset_power_sum.subsets": (subsets, "count"),
        "backend.subset_power_sum.us_per_subset":
            (kernel_self / subsets * 1e6 if subsets else 0.0, "us"),
        "backend.bound_bits_max": (counters["backend.bound_bits_max"], "bits"),
        "pool.calls": (span("pool")[0], "count"),
        "pool.wait_s": (span("pool")[1], "s"),
        "engine.terms_summed": (counters["engine.terms_summed"], "count"),
        "reference.subsets": (counters["reference.subsets"], "count"),
        "count_max.subsets": (counters["count_max.subsets"], "count"),
        "count_max.sign_disagreements": (result.notes["sign_flip"], "count"),
        "count_max.refused": (result.notes["refused"], "count"),
        "cyclotomic.table_fill_s": (span("cyclotomic.table_fill")[2], "s"),
        "cyclotomic.inverse.calls": (span("cyclotomic.inverse")[0], "count"),
        "fusion.build_s": (span("fusion.build")[1], "s"),
        "cli.execute.self_s": (span("cli.execute")[2], "s"),
        "cli.import_s": (statistics.median(imports) if imports else 0.0, "s"),
    })
    return out


def medians(per_pass):
    """Metric-wise median over passes of {name: (value, unit)} dicts."""
    return {name: (statistics.median(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()}


def traced_metrics(work, seconds):
    """Per-layer metrics from alternating untraced and traced passes."""
    untraced, traced = [], []

    def pair():
        untraced.append(work.run_pass(False))
        traced.append(work.run_pass(True))

    repeat_until(seconds, pair)
    metrics = medians([layer_metrics(p) for p in traced])
    metrics["pool.startup_s"] = (pool_startup_s(), "s")
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                   - statistics.median(p.wall_s for p in untraced), "s")
    return untraced + traced, metrics


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vicalc" / "cli.py").is_file():
        print("perfbench: no vicalc sources under %s; run from the repository root" % SRC,
              file=sys.stderr)
        return 2
    os.environ.pop("VI_WORKERS", None)  # the pool probe runs in this process
    sys.path.insert(0, str(SRC))
    from vicalc import backend

    lane = backend.backend_name()
    if lane != BASELINE_LANE:
        print("perfbench: kernel lane %r differs from the baseline lane %r; do not compare "
              "these figures with runs on another lane" % (lane, BASELINE_LANE), file=sys.stderr)
    launch = Launcher(time.perf_counter() + RUN_LIMIT_S)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        work = Workload(args.workload, args.seed, scratch, launch)
        if args.trace:
            passes, metrics = traced_metrics(work, args.seconds)
        else:
            passes = repeat_until(args.seconds, work.measured_pass)
            metrics = end_to_end(passes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    trivial_ok = sum(len(p.trivial_s) for p in passes)
    attempted = sum(p.attempted + p.trivial_failed for p in passes) + trivial_ok
    failed = attempted - sum(p.passed for p in passes) - trivial_ok
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cpu_count": os.cpu_count(), "python": sys.version.split()[0], "lane": lane,
        "pass_wall_s": [round(p.wall_s, 4) for p in passes], "failed_share": failed / attempted,
        "absent_layers": sorted({name for p in passes for d in p.dumps for name in d["absent"]}),
    }))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
