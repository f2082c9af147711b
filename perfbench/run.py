"""The reproduction's benchmark: four workloads, end-to-end metrics with
tracing off, per-layer metrics from a separate traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload packet_fct --seed 0 --seconds 25
    python3 perfbench/run.py --workload results_query --trace 1

Workloads: ``packet_fct``, ``packet_incast``, ``fluid_leafspine``,
``results_query`` (see ``perfbench/METRICS.md`` for what each measures and
why).  Timings are in seconds on a reference host: each measured step's
host seconds are scaled by a speed kernel run around it, each warm burst's
by a read kernel run right before and after it (``SpeedGauge``);
``warm_p99_ms`` is converted by the square root of the run's median step
scale only (the reasons are in ``perfbench/METRICS.md``, "Timing
basis").  Every metric is printed on its own ``#`` line with its unit; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any answer that differs from
its reference makes the run exit 1.

``--trace 1`` runs one fixed pass of the workload untraced and the same
pass again under the deterministic profiler, with spans around the public
entry points the benchmark calls and the program's own spans switched on.
It prints the per-layer metrics and writes the spans and the layer table
to ``.perfbench/trace-<workload>-seed<seed>.json``.

``--record-reference`` re-records ``perfbench/references/<workload>.json``
(simulated counters, or fluid per-cell summaries and step counts) after
checking the run against ``baselines/tiny.json`` where that applies.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    REFERENCE_DIR, REFERENCE_KERNEL_S, REFERENCE_READ_KERNEL_S, ROOT, SRC,
    Tally, percentile, read_kernel_s, speed_kernel_s,
)

WORKLOADS = ("packet_fct", "packet_incast", "fluid_leafspine", "results_query")

# Environment knobs that change simulated results (or which code path
# produces them).  A result cache or store keyed without them would replay
# a different run, so the benchmark refuses to start when one is set.
RESULT_KNOBS = (
    "REPRO_PORT_FAST",
    "REPRO_AQM_PERTURB",
    "REPRO_SCHEDULER",
    "REPRO_FULL",
    "REPRO_STALL_EVENTS",
    "REPRO_FAULT_INJECT",
    "REPRO_CHAOS",
    "REPRO_FIDELITY",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cold_p50_ms", "ms"),
    ("cold_p99_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("warm_p99_ms", "ms"),
    ("queries_per_s", "1/s"),
)

SETUP_PROBES = 4  # fresh interpreters timed after a run, besides this one

# A p99 is taken over consecutive windows of this many samples (so each
# has ten samples beyond it) and the median window is reported: a burst of
# slow requests caused by a neighbour on a shared host then moves one
# window's p99, not the run's.
P99_WINDOW = 1000

# Warm requests in one traced pass (and in its untraced twin).
TRACE_WARM_REQUESTS = 200

WORKDIR = ".perfbench"


def per_layer_metrics() -> List[tuple]:
    """``(name, unit, better)`` of every per-layer metric, report order."""
    from layers import LAYERS, PER_EVENT_LAYERS

    metrics = []
    for layer in LAYERS:
        metrics.append((f"{layer}.self_s", "s", "lower"))
        metrics.append((f"{layer}.calls", "count", "lower"))
    for layer in PER_EVENT_LAYERS:
        metrics.append((f"{layer}.calls_per_event", "calls/event", "lower"))
    metrics += [
        ("sim.events", "count", "lower"),
        ("sim.events_per_s", "1/s", "higher"),
        ("sim.drops", "count", "lower"),
        ("core.marks", "count", "lower"),
        ("tcp.timeouts", "count", "lower"),
        ("fluid.steps", "count", "lower"),
        ("fluid.steps_per_s", "1/s", "higher"),
        ("fluid.calls_per_step", "calls/step", "lower"),
        ("executor.cache_hits", "count", "lower"),
        ("executor.cache_store_s", "s", "lower"),
        ("scenarios.store_append_s", "s", "lower"),
        ("scenarios.store_load_s", "s", "lower"),
        ("service.store_loads", "count", "lower"),
        ("service.cache_hit_ratio", "ratio", "higher"),
        ("service.cache_lookups", "count", "lower"),
        ("service.dispatch_s", "s", "lower"),
        ("service.transport_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.program_spans", "count", "lower"),
    ]
    return metrics


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark of the reproduction (end to end and per layer)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: request order, store synthesis "
                        "and query mix (default 0)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time of one run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run and its per-layer metrics")
    parser.add_argument("--spec-seed-shift", type=int, default=0,
                        help="shift the simulation specs' seeds by this much; "
                        "results are then checked by completion and by "
                        "identical counters across runs instead of against "
                        "the references")
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record perfbench/references/<workload>.json")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def repro_env() -> Dict[str, str]:
    return {k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_")}


def make_workload(name: str, seed: int, workdir: Path, shift: int):
    if name == "results_query":
        from querywork import QueryWorkload

        return QueryWorkload(name, seed, workdir, shift)
    from simwork import FluidWorkload, PacketWorkload

    cls = FluidWorkload if name == "fluid_leafspine" else PacketWorkload
    return cls(name, seed, workdir, shift)


# ------------------------------------------------------------- untraced run


class SpeedGauge:
    """Samples of :func:`speed_kernel_s`, taken by the workload between
    its timed steps: step ``k`` ran between samples ``k`` and ``k + 1``;
    and pairs of samples of :func:`read_kernel_s`, taken right before and
    right after each warm burst of a simulation workload."""

    # Samples on each side of a step that gauge it.  The host's speed also
    # changes within a step, faster than any sample between steps can
    # follow; a median over a few samples follows the host's level without
    # chasing a single sample's noise.
    REACH = 3

    def __init__(self, read_path: Path) -> None:
        self.samples: List[float] = []
        self.read_samples: List[float] = []
        self.read_path = read_path

    def __call__(self) -> None:
        self.samples.append(speed_kernel_s())

    def read(self) -> None:
        self.read_samples.append(read_kernel_s(self.read_path))

    def scales(self) -> List[float]:
        """Per step, the factor that turns its host seconds into seconds
        on the reference host: ``REFERENCE_KERNEL_S`` over the median of
        the ``2 * REACH`` samples nearest the step."""
        reach = self.REACH
        return [
            REFERENCE_KERNEL_S
            / median(self.samples[max(0, k + 1 - reach):k + 1 + reach])
            for k in range(len(self.samples) - 1)
        ]

    def burst_scales(self) -> List[float]:
        """Per warm burst, ``REFERENCE_READ_KERNEL_S`` over the mean of
        the read-kernel samples right before and right after it.  A burst
        lasts well under a second; a wider median mixed the host's level
        over the cold requests around it into the burst's."""
        pairs = self.read_samples
        return [REFERENCE_READ_KERNEL_S / fmean(pairs[k:k + 2])
                for k in range(0, len(pairs) - 1, 2)]

    def step_scales(self, name: str) -> Tuple[List[float], List[float]]:
        """Per step of workload ``name``, the scales of its cold and of its
        warm requests.  A ``results_query`` step is one epoch, its cold
        and warm requests interleaved, so both take the step's scale."""
        if name == "results_query":
            return self.scales(), self.scales()
        return self.scales(), self.burst_scales()


def reference_setup_s(host_setup_s: float) -> float:
    """Set-up seconds on the reference host, gauged right after set-up."""
    return host_setup_s * REFERENCE_KERNEL_S / median(
        speed_kernel_s() for _ in range(3)
    )


def setup_probes(args: argparse.Namespace) -> List[float]:
    """The workload's set-up timed in ``SETUP_PROBES`` fresh interpreters,
    after the measured run (reference seconds)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--spec-seed-shift", str(args.spec_seed_shift), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=170, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
        last = done.stdout.strip().splitlines()[-1]
        samples.append(json.loads(last)["setup_s"])
    return samples


def windowed_p99(samples: List[float]) -> float:
    """Median of the p99s of consecutive ``P99_WINDOW``-sample windows
    (the plain p99 when there are fewer samples than two windows)."""
    windows = max(1, len(samples) // P99_WINDOW)
    size = len(samples) // windows
    return median([percentile(samples[k * size:(k + 1) * size], 99)
                   for k in range(windows)])


def timings(name: str, steps: List[Dict[str, Any]], cold_scales: List[float],
            warm_scales: List[float]) -> Dict[str, Any]:
    """Reduce a measured run's steps to the timing figures, each step's
    cold and warm seconds first multiplied by their scales (reference
    seconds; a ``results_query`` step's wall by its cold scale), but for
    ``warm_p99_ms``.

    A simulation workload's cold requests are cells: each cell counts
    once, with the mean of its cold latencies, so a cell that got one more
    request before the time ran out does not shift the figures.
    ``wall_s`` is the sum of those means (one round), the cold percentiles
    are taken over them, and ``queries_per_s`` is the warm requests
    answered per second.  ``results_query`` pools its requests: the
    percentiles are over every request, ``queries_per_s`` is over all of
    them, and ``wall_s`` is the mean round (store synthesis, daemon start
    and its epochs).

    ``warm_p99_ms`` is taken over host seconds and multiplied by the
    square root of the run's median step scale only.  Warm requests repeat
    one operation, so their slowest hundredth is that operation caught
    while a neighbour holds the core for a few milliseconds: slowed partly
    by the host's level the kernels gauge and partly by contention they
    do not see.  Over the same twenty runs per workload, the square root
    had the smallest worst spread; the full scale or none reached twice
    it on some workload (``METRICS.md``, "Timing basis")."""
    if not len(cold_scales) == len(warm_scales) == len(steps):
        raise ValueError(f"{len(steps)} steps but {len(cold_scales)} cold "
                         f"and {len(warm_scales)} warm gauges")
    warm_host = [x for step in steps for x in step["warm"]]
    warm = [x * scale for step, scale in zip(steps, warm_scales)
            for x in step["warm"]]
    if name == "results_query":
        cold = [x * scale for step, scale in zip(steps, cold_scales)
                for x in step["cold"]]
        rounds = len({step["round"] for step in steps})
        wall = sum(step["wall"] * scale
                   for step, scale in zip(steps, cold_scales)) / rounds
        rate = (len(cold) + len(warm)) / (sum(cold) + sum(warm))
        timed = len(cold) + len(warm)
    else:
        per_cell: Dict[int, List[float]] = {}
        for step, scale in zip(steps, cold_scales):
            per_cell.setdefault(step["cell"], []).append(step["cold"] * scale)
        cold = [fmean(per_cell[cell]) for cell in sorted(per_cell)]
        wall = sum(cold)
        rate = len(warm) / sum(warm)
        rounds = min(len(latencies) for latencies in per_cell.values())
        timed = len(warm)
    cold_ms = [x * 1e3 for x in cold]
    warm_ms = [x * 1e3 for x in warm]
    values = {
        "wall_s": wall,
        "cold_p50_ms": percentile(cold_ms, 50),
        "cold_p99_ms": windowed_p99(cold_ms),
        "warm_p50_ms": percentile(warm_ms, 50),
        "warm_p99_ms": windowed_p99([x * 1e3 for x in warm_host])
        * median(cold_scales) ** 0.5,
        "queries_per_s": rate,
    }
    samples = {
        "wall_s": rounds,
        "cold_p50_ms": len(cold),
        "cold_p99_ms": len(cold),
        "warm_p50_ms": len(warm),
        "warm_p99_ms": len(warm),
        "queries_per_s": timed,
    }
    return {"values": values, "samples": samples}


def end_to_end(args, workload, setup_s: float, tally: Tally) -> Dict[str, Any]:
    gauge = SpeedGauge(workload.workdir / "read-kernel.pkl")
    scaled_setup_s = reference_setup_s(setup_s)
    steps = workload.measure(args.seconds, tally, gauge)
    scales = gauge.scales()
    measured = timings(args.workload, steps,
                       *gauge.step_scales(args.workload))
    setups = [scaled_setup_s] + setup_probes(args)
    values = {
        "setup_s": median(setups),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        **measured["values"],
    }
    samples = {"setup_s": len(setups), **measured["samples"]}
    for name, unit in END_TO_END:
        count = samples.get(name)
        suffix = f"  (n={count:g})" if count is not None else ""
        print(f"# {name} = {values[name]:.6g} {unit}{suffix}")
    print(f"# host_speed = {median(scales):.4g} x reference "
          f"(min {min(scales):.4g}, max {max(scales):.4g}; host seconds "
          "are about the timings above divided by this)")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


# --------------------------------------------------------------- traced run


def fixed_pass(workload, tally: Tally) -> Dict[str, Any]:
    """The same work on every call (see the workloads' ``fixed_pass``)."""
    start = time.perf_counter()
    sim_wall = workload.fixed_pass(tally, TRACE_WARM_REQUESTS)
    return {
        "wall_s": time.perf_counter() - start,
        "sim_wall_s": sim_wall,
        "counters": workload.work_counters(),
        "cold_cache_hits": workload.cold_cache_hits,
    }


def instrument(tracer) -> None:
    """Spans around the public entry points the benchmark's calls reach."""
    from repro.experiments import executor
    from repro.scenarios import campaign
    from repro.service import daemon
    from repro.service.cache import SummaryCache
    from repro.service.client import ServiceClient
    from repro.service.index import StoreIndex

    for owner, attr, name in (
        (executor, "execute_spec", "execute_spec"),
        (executor.ResultCache, "load", "ResultCache.load"),
        (executor.ResultCache, "store", "ResultCache.store"),
        (campaign, "run_campaign", "run_campaign"),
        (campaign.CampaignStore, "append", "CampaignStore.append"),
        (campaign.CampaignStore, "load", "CampaignStore.load"),
        (daemon.ResultsService, "dispatch", "ResultsService.dispatch"),
        (StoreIndex, "get", "StoreIndex.get"),
        (daemon, "run_query", "run_query"),
        (daemon, "render", "render"),
        (SummaryCache, "get", "SummaryCache.get"),
        (SummaryCache, "put", "SummaryCache.put"),
        (ServiceClient, "query", "ServiceClient.query"),
    ):
        tracer.wrap(owner, attr, name)


def traced(args, workload, tally: Tally) -> Dict[str, Any]:
    import cProfile

    from layers import (
        FLUID_LAYERS, PER_EVENT_LAYERS, group_stats, merged_stats,
    )
    from repro.telemetry.hub import Telemetry
    from repro.telemetry.runtime import activate
    from tracing import Tracer

    untraced = fixed_pass(workload, tally)
    workload.verify(tally)
    tracer = Tracer()
    telemetry = Telemetry(metrics=False, profile=False, spans=True)
    instrument(tracer)
    # The daemon's handler threads get a profiler each.
    workload.request_hook = tracer.profiled
    main_profile = cProfile.Profile()
    try:
        with activate(telemetry):
            main_profile.enable()
            try:
                traced_run = fixed_pass(workload, tally)
            finally:
                main_profile.disable()
    finally:
        # Joins the daemon's handler threads, so that each one has handed
        # in its profile before the profiles are merged.
        workload.close()
        tracer.unwrap_all()
        workload.request_hook = None
    workload.verify(tally)
    if traced_run["counters"] != untraced["counters"]:
        tally.record(f"traced counters {traced_run['counters']} differ from "
                     f"untraced {untraced['counters']}")
    layers = group_stats(merged_stats([main_profile] + tracer.profiles))

    counters = dict(untraced["counters"])
    values: Dict[str, float] = {}
    for layer, row in layers.items():
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = row["calls"]
    events = counters.get("sim.events", 0)
    for layer in PER_EVENT_LAYERS:
        values[f"{layer}.calls_per_event"] = (
            layers[layer]["calls"] / events if events else 0.0
        )
    steps = counters.get("fluid.steps", 0)
    sim_wall = untraced["sim_wall_s"]
    values.update({
        "sim.events": events,
        "sim.events_per_s": events / sim_wall if events else 0.0,
        "sim.drops": counters.get("sim.drops", 0),
        "core.marks": counters.get("core.marks", 0),
        "tcp.timeouts": counters.get("tcp.timeouts", 0),
        "fluid.steps": steps,
        "fluid.steps_per_s": steps / sim_wall if steps else 0.0,
        "fluid.calls_per_step": sum(
            layers[layer]["calls"] for layer in FLUID_LAYERS
        ) / steps if steps else 0.0,
        "executor.cache_hits": traced_run["cold_cache_hits"],
        "executor.cache_store_s": tracer.total("ResultCache.store"),
        "scenarios.store_append_s": tracer.total("CampaignStore.append"),
        "scenarios.store_load_s": tracer.total("CampaignStore.load"),
        "service.store_loads": counters.get("service.store_loads", 0),
        "service.cache_hit_ratio": counters.get(
            "service.cache_hit_ratio", 0.0
        ),
        "service.cache_lookups": counters.get("service.cache_lookups", 0),
        "service.dispatch_s": tracer.total("ResultsService.dispatch"),
        "service.transport_s": max(
            0.0,
            tracer.total("ServiceClient.query")
            - tracer.total("ResultsService.dispatch"),
        ),
        "trace.wall_s": traced_run["wall_s"],
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.overhead_s": traced_run["wall_s"] - untraced["wall_s"],
        "trace.spans": len(tracer.spans),
        "trace.program_spans": telemetry.spans.count(),
    })
    if values["executor.cache_hits"]:
        tally.record("cold rounds were answered from the result cache")

    out_dir = ROOT / WORKDIR
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "repro_env": repro_env(),
        "layers": layers,
        "spans": tracer.summary(),
        "program_spans": _program_span_summary(telemetry.spans.to_list()),
        "metrics": values,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"# trace written to {trace_path.relative_to(ROOT)}")

    metrics = {}
    for name, unit, _better in per_layer_metrics():
        value = values[name]
        print(f"# {name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _program_span_summary(roots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-name count and wall seconds of the program's own spans."""
    table: Dict[str, Dict[str, float]] = {}
    stack = list(roots)
    while stack:
        span = stack.pop()
        row = table.setdefault(span["name"], {"count": 0, "wall_s": 0.0})
        row["count"] += 1
        row["wall_s"] += span.get("wall_seconds") or 0.0
        stack.extend(span.get("children", []))
    return table


# --------------------------------------------------------------------- main


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    knobs = [k for k in RESULT_KNOBS if os.environ.get(k, "").strip()]
    if knobs:
        print(f"error: result-changing knobs are set: {', '.join(knobs)}; "
              "unset them to benchmark the default build", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the whole run: the client and the daemon's handler
        # thread hand each request over through the GIL anyway, and a
        # hand-over between two CPUs waits on the other CPU waking up,
        # which on a virtual machine can take milliseconds.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = ROOT / WORKDIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = make_workload(args.workload, args.seed, workdir,
                             args.spec_seed_shift)
    tally = Tally()
    try:
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": reference_setup_s(setup_s)}))
            return 0
        if args.record_reference:
            return record(args, workload)
        print(f"# perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} "
              f"spec_seed_shift={args.spec_seed_shift}")
        print(f"# repro_env = {json.dumps(repro_env(), sort_keys=True)}")
        if args.trace:
            metrics = traced(args, workload, tally)
        else:
            metrics = end_to_end(args, workload, setup_s, tally)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# failed_ratio = {tally.failed / max(1, tally.attempted):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"# mismatch: {problem}")
        print(f"mismatch: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


def record(args, workload) -> int:
    if args.workload == "results_query" or args.spec_seed_shift:
        print("error: references exist only for the simulation workloads "
              "at their reference spec seeds", file=sys.stderr)
        return 2
    reference, tally = workload.record_reference()
    if tally.failed:
        for problem in tally.problems:
            print(f"mismatch: {problem}", file=sys.stderr)
        return 1
    path = REFERENCE_DIR / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"# reference written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
