#!/usr/bin/env python3
"""synlat benchmark: each workload as a closed loop from one client.

    python3 perfbench/run.py --workload algebra|groups|batch|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; synlat is imported from src/.  One
process and one thread send each request after the previous one completes.
A run repeats passes over the workload's fixed request list until --seconds
have gone by (at least MIN_PASSES of them), checks every output, and prints
one row of end-to-end metrics.  Request times are scaled to one reference
machine speed, sampled while they run (see speed.py).  With --trace 1 it
instead makes untraced passes for half the time and traced passes for the
other half, and prints the per-layer metrics and the tracing overhead; the
spans go to perfbench/out/.  The last line of stdout is a JSON object with
the keys correct, attempted, failed and metrics.  See README.md for the
workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5          # fresh processes timed before and again after the passes, for setup_s
# Fewest passes per run.  One pass of algebra or groups takes 12 to 29 s, so
# a second would double the run; batch requests take milliseconds, and a
# median over two passes keeps a stray pause from deciding one's time.
MIN_PASSES = {"algebra": 1, "groups": 1, "batch": 2}
MAX_REPORTED_FAILURES = 20

import speed

if __name__ == "__main__" and "--setup-probe" in sys.argv:  # a setup probe times its start-up from here
    _setup_speed = speed.Speedometer()
    _setup_speed.start()

sys.path.insert(0, str(ROOT / "src"))
try:
    import synlat  # noqa: F401  (fail here, before any output, when the program is missing)
except ImportError as exc:
    sys.exit(f"error: cannot import synlat from {ROOT / 'src'}: {exc}")

from synlat import atoms, regex, syntactic

import checks
import spans
import workloads

clock = time.perf_counter


def _metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


class Pass:
    def __init__(self, wall: float, times: list[float], results: list[tuple], intervals: list[tuple]):
        self.wall = wall
        self.times = times
        self.results = results      # per request: (exit code, stdout, error or None)
        self.intervals = intervals  # per request: (start, end), to scale its time by the machine's speed


def run_pass(requests, tracer: spans.Tracer | None = None, k: int = 0,
             meter: speed.Speedometer | None = None) -> Pass:
    """One pass; with a tracer, each request is a span with id "<pass>.<position>".

    With a speedometer, a request's time leaves out the probes that ran in it.
    """
    times, results, intervals = [], [], []
    start = clock()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = f"{k}.{i}"
            index = tracer.begin(spans.REQUEST)
        probed = meter.spent if meter is not None else 0.0
        t = clock()
        try:
            rc, out = workloads.execute(req)
            err = None
        except Exception as exc:    # a crashing request is counted as failed, the run goes on
            rc, out, err = None, "", f"{type(exc).__name__}: {exc}"
        end = clock()
        times.append(end - t - (meter.spent - probed if meter is not None else 0.0))
        intervals.append((t, end))
        if tracer is not None:
            tracer.end(index, {"render.bytes_out": len(out.encode("utf-8"))})
        results.append((rc, out, err))
    return Pass(clock() - start, times, results, intervals)


class Checker:
    """Checks each pass's outputs; remembers the first pass's digests."""

    def __init__(self, workload: str, seed: int, requests):
        self.workload = workload
        self.requests = requests
        self.reference = _reference(workload, seed, requests)
        self.first: list[str] | None = None
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, p: Pass) -> None:
        digests = []
        for i, (req, (rc, out, err)) in enumerate(zip(self.requests, p.results)):
            d = checks.digest(out)
            digests.append(d)
            reason = err or (f"exit code {rc}" if rc != 0 else None)
            if reason is None and self.reference is not None and not d.startswith(self.reference[i]):
                reason = "stdout differs from the recorded SHA-256"
            if reason is None and self.first is not None and d != self.first[i]:
                reason = "stdout differs from the first pass"
            if reason is None:
                reason = checks.facts(req, out)
            if reason is None and self.first is None and self.workload == "batch":
                reason = checks.well_formed(req.argv, out)
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                if len(self.failures) < MAX_REPORTED_FAILURES:
                    self.failures.append(f"{req.key}: {reason}")
        if self.first is None:
            self.first = digests


def _reference(workload: str, seed: int, requests) -> list[str] | None:
    """Recorded digest (or digest prefix) per request, or None if this seed was not recorded."""
    ref = json.loads((HERE / "reference.json").read_text())[workload]
    if workload == "batch":
        packed = ref["digests"].get(str(seed))
        if packed is None:
            return None
        width = ref["hex_digits"]
        return [packed[i:i + width] for i in range(0, len(packed), width)]
    return [ref[req.key] for req in requests]


def measure(requests, seconds: float, checker: Checker, tracer: spans.Tracer | None = None,
            min_passes: int = 1, scale: bool = False) -> list[Pass]:
    """Passes until `seconds` have gone by, at least `min_passes`.

    With `scale`, the machine's speed is probed throughout, and each pass's
    request times and wall time are scaled to the reference speed; the wall
    time is then the sum of its request times.
    """
    passes = []
    meter = speed.Speedometer() if scale else None
    if meter is not None:
        meter.start()
    try:
        deadline = clock() + seconds
        while len(passes) < min_passes or clock() < deadline:
            p = run_pass(requests, tracer, len(passes), meter)
            checker.check(p)
            p.results = None            # keep only the times, so later passes run on the same heap
            passes.append(p)
        if meter is not None:
            time.sleep(speed.WINDOW)        # probes after the last request, for its window
    finally:
        if meter is not None:
            meter.stop()
    if meter is not None:
        for p in passes:
            p.times = [meter.scaled(a, b, t) for (a, b), t in zip(p.intervals, p.times)]
            p.wall = sum(p.times)
    return passes


def setup_probes(workload: str, seed: int, count: int) -> list[float]:
    """Times from the start of a fresh workload process to its first request.

    Each is scaled to the reference speed by the speed probes the process
    ran from the top of run.py to its first request, less their own time.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(count):
        start = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = clock()
            words = proc.stdout.read().split()
            rc = proc.wait()
        if rc != 0 or line.strip() != b"ready" or len(words) != 2:
            raise RuntimeError(f"setup probe failed with exit code {rc}")
        spent, factor = float(words[0]), float(words[1])
        times.append((ready - start - spent) / factor)
    return times


def end_to_end(requests, passes: list[Pass], setup: list[float]) -> dict[str, float]:
    """Request metrics use each distinct request's median time over the run's passes."""
    per_request = defaultdict(list)
    for p in passes:
        for req, t in zip(requests, p.times):
            per_request[req.key].append(t)
    medians = [statistics.median(v) for v in per_request.values()]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "req_p50_ms": statistics.median(medians) * 1e3,
        "req_p99_ms": statistics.quantiles(medians, n=100, method="inclusive")[98] * 1e3,
        "geomean_ms": statistics.geometric_mean(medians) * 1e3,
        "max_req_s": max(medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _lattice_inputs(requests) -> list[tuple]:
    """(DFA, profile table) of each request that builds a lattice algebra, built untraced."""
    out = []
    for req in requests:
        opts = dict(zip(req.argv[1::2], req.argv[2::2])) if req.argv else {}
        if req.argv and req.argv[0] == "algebra" and opts["--level"] == "lattice":
            dfa = regex.compile_canonical_dfa(regex.parse_regex(opts["--regex"], tuple(opts["--alphabet"])))
            out.append((dfa, atoms.build_profile_table(dfa)))
    return out


def traced(workload: str, seed: int, requests, seconds: float, checker: Checker) -> dict[str, float]:
    """Per-layer metrics of the fastest traced pass, and the tracing overhead.

    After the traced passes, each request that built a lattice algebra is
    repeated once per pass as a with_tables=False call, so that the closure
    is timed apart from the tables.
    """
    untraced = measure(requests, seconds / 2, checker)
    closure_inputs = _lattice_inputs(requests)
    tracer = spans.Tracer()
    tracer.install()
    try:
        passes = measure(requests, seconds / 2, checker, tracer)
        for k in range(len(passes)):
            for j, (dfa, pt) in enumerate(closure_inputs):
                tracer.request = f"{k}.closure{j}"
                index = tracer.begin(spans.CLOSURE)
                syntactic.syntactic_lattice_algebra(pt, dfa, with_tables=False)
                tracer.end(index)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed, **spans.to_json(tracer.spans)}
    (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(doc, separators=(",", ":")))

    k = min(range(len(passes)), key=lambda i: passes[i].wall)
    out = spans.layer_totals(tracer.spans, {f"{k}.{i}" for i in range(len(requests))})
    accounted = sum(v for name, v in out.items() if name.endswith("_s"))
    closure = spans.layer_totals(tracer.spans, {f"{k}.closure{j}" for j in range(len(closure_inputs))})
    out["syntactic.lattice_closure_s"] = closure[spans.CLOSURE + "_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    out["syntactic.semiring_yield"] = ratio(out["syntactic.semiring_elements"], out["syntactic.semiring_pair_ops"])
    out["syntactic.lattice_yield"] = ratio(out["syntactic.lattice_elements"], out["syntactic.lattice_pair_ops"])
    fastest_untraced = min(p.wall for p in untraced)
    out["trace.overhead_frac"] = passes[k].wall / fastest_untraced - 1
    print(f"fastest traced pass: requests {sum(passes[k].times):.6g} s, layer self times and cli.self_s "
          f"{accounted:.6g} s; fastest untraced pass {fastest_untraced:.6g} s")
    return out


def report(workload: str, seed: int, specs, values: dict, checker: Checker, passes: int) -> dict:
    unknown = set(values) - {spec["name"] for spec in specs}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values.get(spec["name"], 0), "unit": spec["unit"]}
    cols = [("workload", workload), ("seed", seed), ("passes", passes), ("attempted", checker.attempted),
            ("failed", checker.failed), ("failed_frac", checker.failed / checker.attempted)]
    cols += [(f"{name}[{m['unit']}]", f"{m['value']:.6g}") for name, m in metrics.items()]
    widths = [max(len(str(k)), len(str(v))) for k, v in cols]
    print("  ".join(str(k).ljust(w) for (k, _), w in zip(cols, widths)))
    print("  ".join(str(v).ljust(w) for (_, v), w in zip(cols, widths)))
    for line in checker.failures:
        print(f"FAILED {line}")
    return {"correct": checker.failed == 0, "attempted": checker.attempted, "failed": checker.failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one after another; one row per workload."""
    rows = []
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if rows:                    # print the header row once
            lines = [line for line in lines if not line.startswith("workload ")]
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        rows.append(json.loads(lines[-1]))
    return 0 if all(row["correct"] for row in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("algebra", "groups", "batch", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        end, spent = clock(), _setup_speed.spent
        time.sleep(speed.WINDOW)            # probes after the set-up, for its window
        _setup_speed.stop()
        print(spent, _setup_speed.factor(_setup_speed.starts[0], end))
        return 0
    if args.workload == "all":
        return run_all(args)

    e2e_specs, layer_specs = _metric_specs()
    requests = workloads.build(args.workload, args.seed)
    checker = Checker(args.workload, args.seed, requests)
    if args.trace:
        values = traced(args.workload, args.seed, requests, args.seconds, checker)
        specs = layer_specs
        passes = checker.attempted // len(requests)
    else:
        setup = setup_probes(args.workload, args.seed, SETUP_PROBES)
        gc.freeze()     # the inputs stay out of the collections a request triggers, as in a fresh process
        measured = measure(requests, args.seconds, checker, min_passes=MIN_PASSES[args.workload], scale=True)
        setup += setup_probes(args.workload, args.seed, SETUP_PROBES)
        values = end_to_end(requests, measured, setup)
        specs = e2e_specs
        passes = len(measured)
    result = report(args.workload, args.seed, specs, values, checker, passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
