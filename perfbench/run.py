#!/usr/bin/env python3
"""Host-cost benchmark of the Haechi simulator, one workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload qos-sweep --seed 11 --seconds 15 --trace 0

It runs whole passes of the workload's cells single-threaded in this
process until ``--seconds`` of CPU time are spent, checks every pass
against pinned digests, and prints one line per metric followed by a
final JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs one untraced pass and then
profiled passes and reports the per-layer metrics, writing its spans to
``.perfbench/`` once at the end.

Host time is CPU time (``time.process_time``): on a shared two-core
host, wall time of identical runs spread up to 13 % where CPU time
stayed within 7 %.  CPU speed itself still drifts with neighbour load,
so ``sim_ops_per_s`` is scaled by the speed of ``reference.py``'s loop,
run right after each cell.
"""

import time

# CPU the interpreter spent before this line: part of every set-up.
_STARTUP_CPU = time.process_time()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench")

#: Set-up is sampled in the run's own process and in this many fresh
#: probe processes; ``setup_s`` is the median.  With one sample per
#: run, 10-run sets spread 0.04-0.31 (IQR over median) on a shared
#: host, and the medians of two sets differed by up to 19 %.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60

#: The reference loop runs right after each untraced cell, for this
#: share of the cell's CPU time; ``sim_ops_per_s`` is scaled by its
#: speed, so host-speed phases that slow both cancel.
REF_SHARE = 0.1
#: About the CPU seconds of one reference loop on the host that measured
#: ``trajectory/0001-baseline.json``; it only scales the figure so it
#: reads in ops per CPU second of that host.
REF_NOMINAL_S = 0.0037

sys.path.insert(0, SRC)

from reference import cpu_per_loop  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Capture, import_modules, scenario_seed,
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources or pins)."""


# ---------------------------------------------------------------------------
# Hooks: first-event mark and object capture, installed from outside
# ---------------------------------------------------------------------------
class Hooks:
    """Wraps a few simulator methods at class level.

    Only calls made once per run or per construction are wrapped
    (``Simulator.run``, ``FluidEngine.run``, cluster ``start``, NIC
    construction), so the timed hot path is the repository's own.  The
    per-WR control counter is added for traced passes only.
    """

    def __init__(self) -> None:
        self.capture = Capture()
        self.first_event = None
        self.on_first_event = None
        self.control_wrs = 0
        self.all_wrs = 0
        self._undo = []

    def begin(self, capture: Capture) -> None:
        self.capture = capture
        self.first_event = None

    def _wrap(self, module: str, cls_name: str, method: str, before) -> None:
        mod = sys.modules.get(module)
        if mod is None:
            return
        cls = getattr(mod, cls_name)
        original = cls.__dict__[method]

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            before(obj, *args)
            return original(obj, *args, **kwargs)

        setattr(cls, method, wrapper)
        self._undo.append((cls, method, original))

    def _mark(self) -> None:
        if self.first_event is None:
            self.first_event = time.process_time()
            if self.on_first_event is not None:
                self.on_first_event()

    def _sim_run(self, sim, *args) -> None:
        if not any(s is sim for s in self.capture.simulators):
            self.capture.simulators.append(sim)
        self._mark()

    def install(self) -> None:
        if "repro.sim.core" not in sys.modules and (
                "repro.fluid.engine" not in sys.modules):
            raise BenchmarkError("workload imported no simulator entry point")
        self._wrap("repro.sim.core", "Simulator", "run", self._sim_run)
        self._wrap("repro.fluid.engine", "FluidEngine", "run",
                   lambda engine, *a: self._mark())
        for module, cls in (("repro.cluster.builder", "Cluster"),
                            ("repro.cluster.multinode", "MultiNodeCluster")):
            self._wrap(module, cls, "start",
                       lambda c, *a: self.capture.clusters.append(c))
        self._wrap("repro.rdma.nic", "RNIC", "__init__",
                   lambda nic, *a: self.capture.nics.append(nic))

    def count_control_wrs(self) -> None:
        """Count control WRs per issue call (traced passes only)."""
        def count(nic, wr, *rest):
            self.all_wrs += 1
            if wr.control:
                self.control_wrs += 1

        for method in ("submit_issue", "submit_issue_at"):
            self._wrap("repro.rdma.nic", "RNIC", method, count)

    def uninstall(self) -> None:
        while self._undo:
            cls, method, original = self._undo.pop()
            setattr(cls, method, original)


# ---------------------------------------------------------------------------
# Spans: kept in memory, written once at the end of a traced run
# ---------------------------------------------------------------------------
class Spans:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records = []

    def add(self, name, start_cpu, end_cpu, parent=None, **attrs) -> int:
        span_id = len(self.records)
        self.records.append({
            "run": self.run_id, "id": span_id, "parent": parent,
            "name": name, "start_cpu": start_cpu, "end_cpu": end_cpu,
            **attrs,
        })
        return span_id

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.records, **extra},
                      fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------
def run_pass(workload, seed, cells, hooks, spans, profiler=None) -> dict:
    """Run every cell once, then check the pass; counts and CPU times."""
    rec = {"ops": 0, "events": 0, "wrs": 0, "run_cpu": 0.0,
           "cell_cpu": 0.0, "cell_wall": 0.0, "ref_s": 0.0}
    results = {}
    pass_id = spans.add("pass", time.process_time(), None)
    for i, cell in enumerate(cells):
        collect0 = time.process_time()
        gc.collect()
        capture = Capture()
        hooks.begin(capture)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        if profiler is None:
            result = cell.run(capture)
        else:
            with profiler:
                result = cell.run(capture)
        cpu1 = time.process_time()
        wall1 = time.perf_counter()
        first = hooks.first_event
        if first is None:
            raise BenchmarkError(f"cell {cell.label} ran no simulated event")
        spans.add("build", cpu0, first, pass_id, cell=cell.label)
        if i == 0:
            # Set-up ends at the first event, less the benchmark's collect.
            rec["setup_end"] = first - (cpu0 - collect0)
        spans.add("run", first, cpu1, pass_id, cell=cell.label)
        rec["run_cpu"] += cpu1 - first
        rec["cell_cpu"] += cpu1 - cpu0
        rec["cell_wall"] += wall1 - wall0
        if profiler is None:
            # Only the cell's result and capture are alive in the loop.
            gc.collect()
            rec["ref_s"] += cpu_per_loop(REF_SHARE * (cpu1 - cpu0)) * (
                cpu1 - cpu0)
        rec["ops"] += cell.ops(result, capture)
        rec["events"] += capture.events()
        rec["wrs"] += capture.wrs()
        results[cell.label] = result
    rec["ref_s"] /= rec["cell_cpu"]
    check0 = time.process_time()
    rec["checks"] = workload.check(seed, results)
    rec["model"] = workload.model(results)
    spans.add("check", check0, time.process_time(), pass_id)
    spans.records[pass_id]["end_cpu"] = time.process_time()
    return rec


def run_passes(workload, seed, cells, hooks, spans, seconds,
               profiler=None):
    """Whole passes until ``seconds`` of CPU time are spent (>= 1 pass)."""
    passes = []
    start = time.process_time()
    while not passes or time.process_time() - start < seconds:
        passes.append(run_pass(workload, seed, cells, hooks, spans,
                               profiler))
    return passes


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------
def setup(workload, spans):
    """Import the workload's modules and install the hooks."""
    cpu0 = time.process_time()
    import_modules(workload.modules)
    spans.add("import", cpu0, time.process_time())
    hooks = Hooks()
    hooks.install()
    return hooks


def setup_figures(import_span, setup_end) -> dict:
    """Set-up CPU of this fresh process, from its start to the first event."""
    import_s = import_span["end_cpu"] - import_span["start_cpu"]
    return {"setup_s": setup_end, "startup_s": _STARTUP_CPU,
            "import_s": import_s,
            "build_s": setup_end - _STARTUP_CPU - import_s}


def setup_probe(workload, cells, hooks, spans) -> int:
    """Probe mode: run the first cell up to its first event, report, exit."""
    def report():
        figures = setup_figures(spans.records[0], time.process_time())
        print(json.dumps(figures), flush=True)
        os._exit(0)

    hooks.on_first_event = report
    cells[0].run(Capture())
    raise BenchmarkError(f"{workload.name} ran no simulated event")


def median_setup(args, own: dict) -> dict:
    """Median set-up figures over this process and the probe processes."""
    samples = [own]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0",
             "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchmarkError(
                f"set-up probe failed ({proc.returncode}): "
                f"{proc.stderr.strip()[-400:]}"
            )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(s[key] for s in samples) for key in own}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def check_summary(passes):
    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c.ok]
    return checks, failed


def host_rates(passes):
    """Per pass: ops per host CPU second, as measured and as normalised."""
    raw = [p["ops"] / p["run_cpu"] for p in passes]
    speed = [p["ref_s"] / REF_NOMINAL_S for p in passes]
    return raw, [r * s for r, s in zip(raw, speed)]


def end_to_end(passes, setup_stats) -> dict:
    raw, rates = host_rates(passes)
    print(f"host_ops_per_s = {statistics.median(raw):.6g} "
          "(as measured, not normalised)")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "sim_ops_per_s": statistics.median(rates),
        "setup_s": setup_stats["setup_s"],
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(untraced, traced, profiler, hooks, setup_stats):
    """``(metrics, self seconds per pass by layer)`` of the traced passes."""
    from layers import OTHER, PACKAGES

    n = len(traced)
    untraced_cpu = sum(p["cell_cpu"] for p in untraced) / len(untraced)
    ops = sum(p["ops"] for p in traced)
    cpu = sum(p["cell_cpu"] for p in traced)
    wall = sum(p["cell_wall"] for p in traced)
    # The profile runs on the fast wall clock; rescale it to CPU time.
    scale = cpu / wall if wall > 0 else 1.0
    self_wall, calls, by_function = profiler.attribute()
    per_pass = cpu / n
    gc_pause = profiler.gc_pause * scale / n
    self_s = {pkg: self_wall.get(pkg, 0.0) * scale / n for pkg in PACKAGES}
    self_s[OTHER] = per_pass - sum(self_s.values()) - gc_pause
    metrics = {f"{layer}.self_s": seconds for layer, seconds in self_s.items()}
    for pkg in PACKAGES:
        metrics[f"{pkg}.calls"] = calls.get(pkg, 0) / n
    metrics["gc.collections"] = profiler.gc_collections / n
    metrics["gc.pause_s"] = gc_pause
    # Against untraced CPU: the profiler inflates everything but pauses.
    metrics["gc.share"] = gc_pause / untraced_cpu
    metrics["sim.events_per_op"] = sum(p["events"] for p in traced) / ops
    metrics["rdma.wrs_per_op"] = sum(p["wrs"] for p in traced) / ops
    metrics["rdma.control_wr_share"] = (
        hooks.control_wrs / hooks.all_wrs if hooks.all_wrs else 0.0
    )
    metrics["faults.checks_per_op"] = (
        by_function.get("injector.py:on_post", 0) / ops
    )
    metrics["ops.per_pass"] = ops / n
    metrics["trace.cpu_s"] = per_pass
    metrics["trace.overhead_x"] = per_pass / untraced_cpu
    for key in ("startup_s", "import_s", "build_s"):
        metrics[f"setup.{key}"] = setup_stats[key]
    return metrics, self_s


def declared_units(kind: str) -> dict:
    try:
        with open(BENCHMARK_JSON) as fh:
            spec = json.load(fh)
    except OSError as err:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {err}") from None
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(metrics, units, checks, failed, model) -> None:
    if set(metrics) != set(units):
        raise BenchmarkError(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"failed_share = {len(failed) / len(checks):.6g} "
          f"({len(failed)} of {len(checks)} checked units)")
    for key, value in model.items():
        print(f"{key} = {value:.6g} (simulated; pinned by the digests)")
    for check in failed:
        print(f"FAILED {check.unit}: {check.detail}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


# ---------------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkError(f"no simulator sources under {SRC}")
    seed = scenario_seed(args.seed)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    spans = Spans(uuid.uuid4().hex[:12])
    hooks = setup(workload, spans)
    cells = workload.cells(seed)
    if args.setup_probe:
        return setup_probe(workload, cells, hooks, spans)

    if not args.trace:
        passes = run_passes(workload, seed, cells, hooks, spans,
                            args.seconds)
        setup_stats = median_setup(
            args, setup_figures(spans.records[0], passes[0]["setup_end"]))
        checks, failed = check_summary(passes)
        emit(end_to_end(passes, setup_stats), units, checks, failed,
             passes[0]["model"])
        return 0

    from layers import LayerProfiler

    untraced = [run_pass(workload, seed, cells, hooks, spans)]
    setup_stats = median_setup(
        args, setup_figures(spans.records[0], untraced[0]["setup_end"]))
    hooks.count_control_wrs()
    profiler = LayerProfiler()
    traced = run_passes(workload, seed, cells, hooks, spans, args.seconds,
                        profiler)
    hooks.uninstall()
    # A traced pass must reproduce the untraced pass's digests exactly.
    reference = {c.unit: c.digest for c in untraced[0]["checks"]}
    for p in traced:
        p["checks"] = [
            c if c.digest == reference.get(c.unit) else dataclasses.replace(
                c, ok=False,
                detail="traced digest differs from the untraced run's",
            )
            for c in p["checks"]
        ]
    checks, failed = check_summary(untraced + traced)
    metrics, self_s = per_layer(untraced, traced, profiler, hooks,
                                setup_stats)
    spans.write(
        os.path.join(TRACE_DIR,
                     f"trace-{args.workload}-{args.seed}-{spans.run_id}.json"),
        {"workload": args.workload, "seed": args.seed,
         "scenario_seed": seed, "metrics": metrics,
         "self_s_per_pass": self_s},
    )
    emit(metrics, units, checks, failed, untraced[0]["model"])
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
