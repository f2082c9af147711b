"""The ``results_query`` workload: an in-process results daemon on
loopback, driven by a closed loop with one client.

The traffic follows ``benchmarks/perf_service.py``, the repo's own
service benchmark: a store of about 400 settled cells (its default), cold
requests that are summary queries with a distinct token filter each
(``metric``, ``token``, ``scenario``, so every one misses the summary
cache) and warm requests that repeat one metric query (so every one after
the first is served from the summary cache), in equal numbers.

The cells are those of ``scenarios/leafspine_1024.toml``, the campaign
``fluid_leafspine`` runs: its scenario name, its six cell keys and the
metric values recorded for them, scattered by the workload seed.  The
store holds 67 runs of the campaign (402 cells), each under its own
campaign seed, and a writer appends one more run (six cells) per epoch,
so that the store index reloads once per epoch.

The run is a series of identical rounds, each on a fresh store and
daemon, until the measured time is spent, so every round does the same
work however long the run is.  Every body of the first round is compared,
byte for byte, with ``run_query`` + ``render`` run in-process over the
records the store held in that epoch; every later round must give the
same bodies as the first.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import Tally
from repro.scenarios.campaign import CampaignStore, CellRecord
from repro.service.client import ServiceClient
from repro.service.daemon import ResultsService, _make_server
from repro.service.query import Query, render, run_query
from simwork import load_reference

STORE_NAME = "leafspine"
SCENARIO = "leafspine-1024"  # the name in scenarios/leafspine_1024.toml
CAMPAIGN_SEED = 95  # its [run] seed; run k of the store uses seed 95 + k
INITIAL_RUNS = 67  # 402 cells: perf_service.py's default store is 400
# Assumptions, with no measurement in the repo to take them from: one
# campaign run lands per 100 requests, and a round is 10 such epochs.
COLD_PER_EPOCH = 50
WARM_PER_EPOCH = 50
EPOCHS_PER_ROUND = 10
MIN_ROUNDS = 2

Request = Tuple[str, Dict[str, str]]  # (kind, params)
Answer = Tuple[int, Dict[str, str], bytes]  # (epoch, params, body sha256)


class QueryWorkload:
    """Store synthesis, the daemon's lifetime and the closed loop."""

    def __init__(self, name: str, seed: int, workdir: Path,
                 spec_seed_shift: int = 0) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.passes = 0
        self.request_hook = None  # wraps each handler thread's work
        self.server = None
        self.thread: Optional[threading.Thread] = None
        self.store_loads = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cold_cache_hits = 0  # no result cache in this workload
        # The first round's (epoch, params, body digest) answers.
        self.reference: Optional[List[Answer]] = None

    # ---------------------------------------------------------------- setup

    def setup(self) -> None:
        # Cell keys and metric values of the cells fluid_leafspine settles.
        self.cells = sorted(load_reference("fluid_leafspine").items())
        self.metric_names = sorted(
            {name for _, cell in self.cells for name in cell["metrics"]}
        )
        self.open()

    def _run_records(self, run: int) -> List[CellRecord]:
        """One campaign run of the scenario, under campaign seed
        ``CAMPAIGN_SEED + run``: its six cells, each metric scattered by
        up to 10% around the recorded value."""
        rng = self.rng
        seed = CAMPAIGN_SEED + run
        scenario_hash = hashlib.sha256(
            f"{SCENARIO}|seed={seed}".encode()
        ).hexdigest()
        records = []
        for cell_key, cell in self.cells:
            index = len(self.written) + len(records)
            scheme = cell_key.rsplit("scheme=", 1)[1]
            records.append(CellRecord(
                scenario=SCENARIO,
                scenario_hash=scenario_hash,
                cell_key=cell_key,
                component=cell_key.split("|", 1)[0],
                tokens=(f"leafspine|{scheme}|seed={seed}|{index:016x}",),
                status="ok",
                metrics={
                    name: value * (0.9 + 0.2 * rng.random())
                    for name, value in sorted(cell["metrics"].items())
                },
                failures=(),
                git_sha=None,
                version="bench",
                fidelity="fluid",
            ))
        return records

    def open(self) -> None:
        """A fresh store and a daemon bound to an ephemeral loopback port."""
        self.close()
        self.passes += 1
        self.rng = random.Random(self.seed)
        self.written: List[CellRecord] = []
        self.snapshots: List[List[CellRecord]] = []
        # (epoch, params, sha256 of the body): bodies are compared after
        # the run, outside any profiled pass, by digest.
        self.answers: List[Answer] = []
        self.store_loads = self.cache_hits = self.cache_misses = 0
        store_dir = self.workdir / f"stores-{self.passes}"
        self.store = CampaignStore(store_dir / f"{STORE_NAME}.jsonl")
        self._append(INITIAL_RUNS)
        self.service = ResultsService(store_dir)
        self.server = _make_server(self.service, "127.0.0.1", 0)
        if self.request_hook is not None:
            self.server.process_request_thread = self.request_hook(
                self.server.process_request_thread
            )
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            name="results-daemon",
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = ServiceClient(f"http://{host}:{port}")

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
            self.server = None

    def _append(self, runs: int) -> None:
        records: List[CellRecord] = []
        for _ in range(runs):
            run = len(self.written) // len(self.cells)
            batch = self._run_records(run)
            self.written.extend(batch)
            records.extend(batch)
        self.store.append(records)

    # ------------------------------------------------------------------ plan

    def _epoch_plan(self) -> List[Request]:
        """The seeded request mix of one epoch, in perf_service.py's
        shapes: distinct-token summary queries and one repeated metric
        query.  The first repeat after an append misses the cache by
        construction, so it counts as cold."""
        rng = self.rng
        tokens = rng.sample(range(len(self.written)), COLD_PER_EPOCH)
        cold = [
            ("cold", {"metric": self.metric_names[i % len(self.metric_names)],
                      "token": f"{index:016x}", "scenario": SCENARIO})
            for i, index in enumerate(tokens)
        ]
        warm = [("warm", {"metric": self.metric_names[0]})] * WARM_PER_EPOCH
        requests = cold + warm
        rng.shuffle(requests)
        first = requests.index(warm[0])
        requests[first] = ("cold", warm[0][1])
        return requests

    # ------------------------------------------------------------------ loop

    def epochs(self, count: int, tally: Tally,
               gauge: Callable[[], None] = lambda: None,
               opened_s: float = 0.0) -> List[Dict[str, Any]]:
        """Run ``count`` epochs, calling ``gauge`` after each; returns each
        epoch's cold and warm latencies and its wall (the append plus the
        requests, plus ``opened_s`` for the first epoch: the round's store
        synthesis and daemon start).  Body digests are kept for
        :meth:`verify`, which runs the query engine itself and so must run
        outside a profiled pass."""
        steps: List[Dict[str, Any]] = []
        for _ in range(count):
            cold: List[float] = []
            warm: List[float] = []
            start = time.perf_counter()
            self._append(1)
            append_s = time.perf_counter() - start
            # What the daemon must serve in this epoch, ordered the way its
            # index orders records.
            self.snapshots.append(sorted(
                self.written,
                key=lambda r: (r.scenario, r.scenario_hash, r.cell_key,
                               r.tokens),
            ))
            epoch = len(self.snapshots) - 1
            loads_before = self.service.index.store_loads
            for kind, params in self._epoch_plan():
                start = time.perf_counter()
                response = self.client.query(params)
                (cold if kind == "cold" else warm).append(
                    time.perf_counter() - start
                )
                if response.status != 200:
                    tally.record(f"request {params} answered "
                                 f"{response.status}: {response.body[:200]!r}")
                    continue
                self.answers.append(
                    (epoch, params, hashlib.sha256(response.body).digest())
                )
                if kind == "cold":
                    self.cache_misses += 1
                else:
                    self.cache_hits += 1
            loads = self.service.index.store_loads - loads_before
            self.store_loads += loads
            if loads != 1:
                tally.record(f"store reloaded {loads} times after one append")
            steps.append({"cold": cold, "warm": warm,
                          "wall": opened_s + append_s + sum(cold) + sum(warm)})
            opened_s = 0.0
            gauge()
        return steps

    def verify(self, tally: Tally) -> None:
        """Check the round just run: the summary cache's totals against the
        plan's, and each 200 body -- in the first round against an
        in-process run_query + render over the records written by the end
        of its epoch, in later rounds against the first round's body."""
        stats = self.service.cache.stats()
        if (stats["hits"], stats["misses"]) != (self.cache_hits,
                                                self.cache_misses):
            tally.record(
                f"summary cache saw {stats['hits']} hits / "
                f"{stats['misses']} misses; the plan implies "
                f"{self.cache_hits} / {self.cache_misses}"
            )
        answers, self.answers = self.answers, []
        if self.reference is not None:
            for got, want in zip(answers, self.reference):
                tally.record(None if got == want else (
                    f"epoch {got[0]} body for {got[1]} differs from the "
                    "first round's"
                ))
            if len(answers) != len(self.reference):
                tally.record(f"{len(answers)} answers in a round; the first "
                             f"round had {len(self.reference)}")
            return
        expected: Dict[Tuple[int, str], bytes] = {}  # sha256 digests
        for epoch, params, digest in answers:
            key = (epoch, repr(sorted(params.items())))
            want = expected.get(key)
            if want is None:
                query = Query.from_params(params)
                want = hashlib.sha256(render(
                    run_query(self.snapshots[epoch], query,
                              store=query.store),
                    "json",
                )).digest()
                expected[key] = want
            tally.record(None if digest == want else (
                f"epoch {epoch} body for {params} differs from the "
                "in-process answer"
            ))
        self.reference = answers

    def measure(self, seconds: float, tally: Tally,
                gauge: Callable[[], None]) -> List[Dict[str, Any]]:
        """Rounds until ``seconds`` are spent (at least ``MIN_ROUNDS``);
        ``gauge`` is called before the first epoch and after every epoch.
        Returns every epoch (see :meth:`epochs`) tagged with its round."""
        steps: List[Dict[str, Any]] = []
        started = time.perf_counter()
        gauge()
        rounds = 0
        while True:
            # Every round, the first too, on a fresh store and daemon.
            start = time.perf_counter()
            self.open()
            opened_s = time.perf_counter() - start
            for step in self.epochs(EPOCHS_PER_ROUND, tally, gauge, opened_s):
                steps.append({**step, "round": rounds})
            self.verify(tally)
            rounds += 1
            elapsed = time.perf_counter() - started
            # Stop before a round that would not fit in ``seconds``.
            if (rounds >= MIN_ROUNDS
                    and elapsed + elapsed / rounds > seconds):
                return steps

    def fixed_pass(self, tally: Tally, warm_requests: int) -> float:
        """One round on a fresh store and daemon (the mix fixes the warm
        requests); no simulated time, so returns 0."""
        self.open()
        self.epochs(EPOCHS_PER_ROUND, tally)
        return 0.0

    def work_counters(self) -> Dict[str, float]:
        lookups = self.cache_hits + self.cache_misses
        return {
            "service.store_loads": self.store_loads,
            "service.cache_lookups": lookups,
            "service.cache_hit_ratio": self.cache_hits / lookups
            if lookups else 0.0,
        }
