"""The three simulation workloads: ``packet_fct``, ``packet_incast`` and
``fluid_leafspine``.

Each one has a fixed set of cells, run in rounds.  A round starts with an
empty private result cache (and, for fluid, a fresh campaign store).  A
*cold* request executes the round's next cell through
``Executor(jobs=1)``; after each one the workload makes a fixed number of
*warm* requests, which ask again for what the round has already answered:
the result cache replays the cell (packet) or the campaign store's resume
path skips every settled cell (fluid).  A cold request and its warm burst
make one step; the host's speed is gauged between steps, and right before
and after each burst.

Every answer is checked: packet cells against the tiny golden baseline (FCT
series, bit for bit) and the recorded counters, fluid cells against the
recorded per-cell summaries and step counts, warm answers against the cold
ones.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import REFERENCE_DIR, ROOT, Tally
from repro.experiments.executor import Executor
from repro.experiments.faults import is_failure
from repro.scenarios import campaign
from repro.scenarios.compile import compile_scenario
from repro.scenarios.schema import load_scenario
from repro.validation.grids import build_cells

# Cells timed by each packet workload, as (figure, cell key, spec seed).
# A subset of the tiny validation grid sized so that one round takes a
# few seconds: all four testbed schemes at both fig6 loads, the larger
# fig8 RTT variation and one fig12 ECN# parameter point (packet_fct); the
# fig10 burst and both fig11 fanouts, one scheme each, so that each of
# DCTCP-RED-Tail, CoDel and ECN# is exercised (packet_incast).
PACKET_CELLS: Dict[str, Tuple[Tuple[str, str, int], ...]] = {
    "packet_fct": (
        ("fig6", "load=0.5|scheme=DCTCP-RED-Tail", 21),
        ("fig6", "load=0.5|scheme=DCTCP-RED-AVG", 21),
        ("fig6", "load=0.5|scheme=CoDel", 21),
        ("fig6", "load=0.5|scheme=ECN#", 21),
        ("fig6", "load=0.8|scheme=DCTCP-RED-Tail", 21),
        ("fig6", "load=0.8|scheme=DCTCP-RED-AVG", 21),
        ("fig6", "load=0.8|scheme=CoDel", 21),
        ("fig6", "load=0.8|scheme=ECN#", 21),
        ("fig8", "variation=5|load=0.8|scheme=ECN#", 31),
        ("fig12", "web-search|pst_target=6us", 72),
    ),
    "packet_incast": (
        ("fig10", "scheme=ECN#", 51),
        ("fig11", "fanout=150|scheme=CoDel", 61),
        ("fig11", "fanout=175|scheme=DCTCP-RED-Tail", 61),
    ),
}

FLUID_SCENARIO = "scenarios/leafspine_1024.toml"
# Warm requests after each cold one: a fixed number, so the warm figures
# always weigh the cells alike, sized to about a tenth of the cold request's
# time so the warm samples cover the run instead of a few short bursts.
WARM_PER_COLD = {"packet_fct": 300, "packet_incast": 1000,
                 "fluid_leafspine": 300}
# Every cell is timed at least this often in a measured run.
MIN_ROUNDS = 2


def counters_of(result: Any) -> Dict[str, int]:
    """Simulated counters of one packet result (FCT or microscopic)."""
    if hasattr(result, "query_fcts"):
        return {
            "events": result.events,
            "marks": result.marks,
            "drops": result.drops,
            "timeouts": result.query_timeouts,
            "completed": result.queries_completed,
        }
    return {
        "events": result.events,
        "marks": result.marks,
        "drops": result.drops,
        "timeouts": result.timeouts,
        "completed": result.summary.n_flows,
    }


def metrics_of(result: Any) -> Dict[str, float]:
    """The validation-gated metric map the tiny baseline stores."""
    if hasattr(result, "query_fcts"):
        return result.metrics()
    return result.summary.metrics()


def load_reference(name: str) -> Dict[str, Any]:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def series_mismatch(metrics: Dict[str, float],
                    expected: Dict[str, Any]) -> Optional[str]:
    """How one seed's metrics disagree with the baseline's per-seed series,
    or ``None``.  A series shorter than the cell's seed count skipped the
    seeds where the metric had no qualifying flows, so its values cannot
    be matched by position: the run's value must then be one of them, and
    the run may lack the metric."""
    series = expected["series"]
    for name, values in sorted(series.items()):
        complete = len(values) == expected["seeds"]
        value = metrics.get(name)
        if value is None:
            if complete:
                return f"metric {name} missing; baseline has {values}"
        elif complete and value != values[expected["seed_index"]]:
            return (f"{name} = {value!r} differs from baselines/tiny.json "
                    f"({values[expected['seed_index']]!r})")
        elif not complete and value not in values:
            return (f"{name} = {value!r} is none of baselines/tiny.json's "
                    f"{values!r}")
    extra = sorted(set(metrics) - set(series))
    if extra:
        return f"metrics {extra} are not in baselines/tiny.json"
    return None


def _expected_completions(spec: Any) -> int:
    if spec.kind == "microscopic":
        return dict(spec.extras)["fanout"]
    return spec.n_flows


class CellWorkload:
    """Rounds of cold requests with warm requests interleaved.

    Subclasses set ``cells`` in ``setup`` and provide ``start_round()``,
    ``cold_request(index, tally)`` and ``warm_request(index, tally)``
    (both return seconds) and ``work_counters()``.
    """

    def __init__(self, name: str, seed: int, workdir: Path,
                 spec_seed_shift: int = 0) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.shift = spec_seed_shift
        self.rounds = 0
        self.cold_cache_hits = 0

    def measure(self, seconds: float, tally: Tally,
                gauge: Any) -> List[Dict[str, Any]]:
        """Cold requests round-robin over the cells, each followed by a
        burst of the workload's ``WARM_PER_COLD`` warm requests, until
        ``seconds`` are spent (at least two full rounds).  ``gauge`` (a
        ``run.SpeedGauge``) is called before the first step and after
        every step, and ``gauge.read`` right before and right after every
        burst.  Returns the steps in order: the cell, its cold latency and
        the burst's warm latencies (seconds)."""
        steps: List[Dict[str, Any]] = []
        last: Dict[int, float] = {}
        started = time.perf_counter()
        gauge()
        position = 0
        while True:
            index = position % self.cells
            if index == 0:
                self.start_round()
            latency = self.cold_request(index, tally)
            gauge.read()
            burst_started = time.perf_counter()
            warm = [self.warm_request(index, tally)
                    for _ in range(WARM_PER_COLD[self.name])]
            burst_s = time.perf_counter() - burst_started
            gauge.read()
            steps.append({"cell": index, "cold": latency, "warm": warm})
            last[index] = latency
            gauge()
            position += 1
            upcoming = last.get(position % self.cells, 0.0)
            elapsed = time.perf_counter() - started
            if (position >= MIN_ROUNDS * self.cells
                    and elapsed + upcoming + burst_s > seconds):
                return steps

    def fixed_pass(self, tally: Tally, warm_requests: int) -> float:
        """One full cold round, then ``warm_requests`` warm requests;
        returns the cold round's wall seconds."""
        self.start_round()
        start = time.perf_counter()
        for index in range(self.cells):
            self.cold_request(index, tally)
        wall = time.perf_counter() - start
        for request in range(warm_requests):
            self.warm_request(request % self.cells, tally)
        return wall

    def verify(self, tally: Tally) -> None:
        """Nothing left to check: cells are checked as they answer."""

    def close(self) -> None:
        pass


class PacketWorkload(CellWorkload):
    """``packet_fct`` / ``packet_incast``: tiny-grid cells through the
    executor; warm requests are result-cache replays."""

    def __init__(self, name: str, seed: int, workdir: Path,
                 spec_seed_shift: int = 0) -> None:
        super().__init__(name, seed, workdir, spec_seed_shift)
        self.items: List[Tuple[str, Any]] = []
        self.expected: Dict[str, Dict[str, Any]] = {}
        self.counters: Dict[str, Dict[str, int]] = {}

    def setup(self) -> None:
        grid = {(cell.figure, cell.key): cell for cell in build_cells("tiny")}
        baseline = json.loads(
            (ROOT / "baselines" / "tiny.json").read_text(encoding="utf-8")
        )["figures"]
        reference = load_reference(self.name)
        for figure, key, spec_seed in PACKET_CELLS[self.name]:
            cell = grid[(figure, key)]
            spec = next(s for s in cell.specs if s.seed == spec_seed)
            item = f"{figure}|{key}|seed={spec_seed}"
            if self.shift:
                spec = spec.with_seed(spec.seed + self.shift)
            else:
                self.expected[item] = {
                    "series": baseline[figure]["cells"][key]["metrics"],
                    "seed_index": cell.specs.index(spec),
                    "seeds": len(cell.specs),
                    "counters": reference.get(item),
                }
            self.items.append((item, spec))
        # The workload seed orders the requests; the specs keep the
        # reference seeds unless a spec-seed shift is asked for.
        random.Random(self.seed).shuffle(self.items)
        self.cells = len(self.items)

    def _verify(self, item: str, spec: Any, result: Any) -> Optional[str]:
        """Why ``result`` is wrong for ``item``, or ``None``."""
        if result is None or is_failure(result):
            return f"{item}: run failed: {result!r}"
        got = counters_of(result)
        if self.shift:
            # Unseen seeds have no reference: every flow must finish and
            # every run of the cell must simulate the same thing.
            wanted = self.counters.setdefault(item, got)
            if got != wanted:
                return (f"{item}: counters {got} differ from an earlier run "
                        f"of the same cell {wanted}")
            if got["completed"] != _expected_completions(spec):
                return (f"{item}: {got['completed']} of "
                        f"{_expected_completions(spec)} flows completed")
            return None
        self.counters[item] = got
        expected = self.expected[item]
        error = series_mismatch(metrics_of(result), expected)
        if error is not None:
            return f"{item}: {error}"
        if expected["counters"] is not None and got != expected["counters"]:
            return (f"{item}: counters {got} differ from the reference "
                    f"{expected['counters']}")
        return None

    def start_round(self) -> None:
        """Fresh executors over a private, empty result cache."""
        self.rounds += 1
        cache = self.workdir / f"cache-{self.rounds}"
        self.executor = Executor(jobs=1, cache=True, cache_dir=cache)
        self.replayer = Executor(jobs=1, cache=True, cache_dir=cache)
        self.replays = 0

    def cold_request(self, index: int, tally: Tally) -> float:
        item, spec = self.items[index]
        start = time.perf_counter()
        result = self.executor.run([spec])[0]
        latency = time.perf_counter() - start
        error = self._verify(item, spec, result)
        hits = self.executor.stats.cache_hits
        if error is None and hits:
            error = f"{item}: cold request replayed from the result cache"
        self.cold_cache_hits += hits
        tally.record(error)
        return latency

    def warm_request(self, index: int, tally: Tally) -> float:
        """Replay cell ``index`` from this round's cache."""
        item, spec = self.items[index]
        self.replays += 1
        start = time.perf_counter()
        result = self.replayer.run([spec])[0]
        latency = time.perf_counter() - start
        if self.replayer.stats.cache_hits != self.replays:
            tally.record(f"{item}: warm request missed the result cache")
        elif counters_of(result) != self.counters.get(item):
            tally.record(f"{item}: replayed counters differ from the run")
        else:
            tally.record(None)
        return latency

    def work_counters(self) -> Dict[str, float]:
        """Simulated work of the cell set, for the per-layer report."""
        counters = self.counters.values()
        return {
            "sim.events": sum(c["events"] for c in counters),
            "sim.drops": sum(c["drops"] for c in counters),
            "core.marks": sum(c["marks"] for c in counters),
            "tcp.timeouts": sum(c["timeouts"] for c in counters),
        }

    def record_reference(self) -> Tuple[Dict[str, Any], Tally]:
        for expected in self.expected.values():
            expected["counters"] = None
        tally = Tally()
        self.fixed_pass(tally, 0)
        return dict(sorted(self.counters.items())), tally


class FluidWorkload(CellWorkload):
    """``fluid_leafspine``: the 1024-host fluid scenario through
    ``run_campaign`` into a fresh store, one cell per call (the campaign's
    own resume path, ``max_cells=1``); a warm request resumes the store
    without executing anything (``max_cells=0``), which re-reads it and
    skips every settled cell.  The cells run in the scenario's order, so
    the workload seed does not change this workload."""

    def __init__(self, name: str, seed: int, workdir: Path,
                 spec_seed_shift: int = 0) -> None:
        super().__init__(name, seed, workdir, spec_seed_shift)
        self.results: Dict[str, Dict[str, Any]] = {}
        self.reference: Dict[str, Any] = {}

    def setup(self) -> None:
        scenario = load_scenario(ROOT / FLUID_SCENARIO)
        if self.shift:
            scenario = dataclasses.replace(
                scenario, seed=scenario.seed + self.shift
            )
        self.scenario = scenario
        self.reference = {} if self.shift else load_reference(self.name)
        self.warm_executor = Executor(jobs=1, cache=False)
        self.cells = len(compile_scenario(scenario).cells)

    def start_round(self) -> None:
        self.rounds += 1
        base = self.workdir / f"round-{self.rounds}"
        self.store = campaign.CampaignStore(base / "campaign.jsonl")
        self.executor = Executor(jobs=1, cache=True, cache_dir=base / "cache")
        self.settled = 0

    def cold_request(self, index: int, tally: Tally) -> float:
        start = time.perf_counter()
        result = campaign.run_campaign([self.scenario], store=self.store,
                                       executor=self.executor, max_cells=1)
        latency = time.perf_counter() - start
        hits = self.executor.stats.cache_hits
        self.cold_cache_hits += hits
        if result.executed_cells != 1 or hits:
            tally.record(f"cold request did not execute exactly one cell: "
                         f"{result.summary_line()} cache_hits={hits}")
            return latency
        self.settled += 1
        record = result.records[-1]
        got = {
            "status": record.status,
            "metrics": json.loads(json.dumps(record.metrics)),
            "steps": self.store.load_resources()[-1]["events"],
        }
        wanted = (self.reference or self.results).get(record.cell_key, got)
        if self.reference and record.cell_key not in self.reference:
            tally.record(f"{record.cell_key}: cell is not in the reference")
        elif got["status"] != "ok":
            tally.record(f"{record.cell_key}: cell failed")
        elif got != wanted:
            tally.record(f"{record.cell_key}: cell summary {got} differs "
                         f"from the reference {wanted}")
        else:
            tally.record(None)
        self.results[record.cell_key] = got
        return latency

    def warm_request(self, index: int, tally: Tally) -> float:
        """Resume the round's store; ``index`` plays no part, since every
        settled cell is answered."""
        start = time.perf_counter()
        result = campaign.run_campaign([self.scenario], store=self.store,
                                       executor=self.warm_executor,
                                       max_cells=0)
        latency = time.perf_counter() - start
        if result.executed_cells or result.skipped_cells != self.settled:
            tally.record(f"warm request did not answer the {self.settled} "
                         f"settled cells from the store: "
                         f"{result.summary_line()}")
        else:
            tally.record(None)
        return latency

    def work_counters(self) -> Dict[str, float]:
        return {
            "fluid.steps": sum(c["steps"] for c in self.results.values())
        }

    def record_reference(self) -> Tuple[Dict[str, Any], Tally]:
        self.reference = {}
        self.results = {}
        tally = Tally()
        self.fixed_pass(tally, 0)
        return dict(sorted(self.results.items())), tally
