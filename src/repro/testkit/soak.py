"""Seeded chaos soak: a live service under fault injection, refereed
by the differential oracle.

One :class:`ChaosSoak` run is the acceptance experiment of the whole
harness: build a deterministic :class:`~repro.testkit.chaos.FaultPlan`
from a seed, activate it, start a real :class:`SimulationService`
(worker pools, micro-batching, shared trace store, size-capped on-disk
result cache — the full production wiring), then drive the oracle's
canonical request set through it over and over while workers are
killed, shm segments unlink under their readers, cache entries rot on
disk and the cache prunes itself.

The verdict is binary: explicit failures (rejected / failed / timeout)
are *degraded service* and acceptable; an ``ok`` answer that differs
from the chaos-free scalar reference is *silent corruption* and fails
the soak.  The JSON report separates injected faults, degraded
answers and wrong answers, and embeds the full fault schedule — which
is a pure function of the seed, so two soaks with the same seed always
print the identical ``fault_schedule`` section (that is the replay
guarantee; with ``use_processes=False`` and ``concurrency=1`` the
*fired* log replays exactly too).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.testkit.chaos import ChaosController, FaultPlan, FaultSpec
from repro.testkit.oracle import ChannelReport, DifferentialOracle

#: Size cap of the soak's result cache: about four service answers, so
#: every pass takes the cache past it and LRU pruning runs under chaos.
CACHE_MAX_BYTES = 2048


@dataclass
class SoakConfig:
    """Knobs of one chaos soak run.

    Attributes:
        seed: master seed — fixes the fault schedule *and* the
            canonical request set.
        duration_s: keep driving passes until this much wall time has
            elapsed (ignored when ``passes`` is set).
        passes: exact number of request-set passes to drive; setting
            it makes the workload (and with the thread tier, the whole
            fired-fault log) deterministic.
        n_requests: size of the canonical request set.
        worker_kill_rate: P(kill a pool worker) per batch dispatch.
        shm_unlink_rate: P(unlink the shm segment) per store attach.
        manifest_corrupt_rate: P(corrupt the manifest) per store attach.
        cache_corrupt_rate: P(corrupt the entry file) per cache read.
        admission_reject_rate: P(injected admission overflow) per submit.
        slow_worker_rate: P(hold a worker ``slow_worker_s``) per request.
        slow_worker_s: how long a slow worker sleeps.
        request_fail_rate: P(injected exception) per worker request.
        horizon: invocation-index horizon of the fault plan.
        use_processes: process pools (real kills) vs thread pools
            (deterministic unit-test mode; kill faults become no-ops).
        n_shards / workers_per_shard: service topology.
        check_engine: also run the engine channel once at the end.
    """

    seed: int = 0
    duration_s: float = 10.0
    passes: Optional[int] = None
    n_requests: int = 8
    worker_kill_rate: float = 0.1
    shm_unlink_rate: float = 0.1
    manifest_corrupt_rate: float = 0.05
    cache_corrupt_rate: float = 0.1
    admission_reject_rate: float = 0.05
    slow_worker_rate: float = 0.0
    slow_worker_s: float = 0.05
    request_fail_rate: float = 0.0
    horizon: int = 20_000
    use_processes: bool = True
    n_shards: int = 2
    workers_per_shard: int = 2
    check_engine: bool = False

    def fault_specs(self) -> List[FaultSpec]:
        """The armed fault set this config describes (zero rates drop out)."""
        armed = [
            FaultSpec("workers.dispatch", "kill_worker",
                      self.worker_kill_rate),
            FaultSpec("tracestore.shm", "unlink", self.shm_unlink_rate),
            FaultSpec("tracestore.attach", "corrupt",
                      self.manifest_corrupt_rate),
            FaultSpec("cache.entry", "corrupt", self.cache_corrupt_rate),
            FaultSpec("server.admission", "raise",
                      self.admission_reject_rate,
                      exception="AdmissionError"),
            FaultSpec("workers.request", "sleep", self.slow_worker_rate,
                      param=self.slow_worker_s),
            FaultSpec("workers.request", "raise", self.request_fail_rate,
                      exception="RuntimeError"),
        ]
        return [spec for spec in armed if spec.rate > 0]

    def build_plan(self) -> FaultPlan:
        """The deterministic fault plan of this config."""
        return FaultPlan.generate(self.seed, self.fault_specs(),
                                  self.horizon)


@dataclass
class SoakResult:
    """Everything one soak run produced."""

    config: SoakConfig
    passes: int = 0
    wall_time_s: float = 0.0
    channels: List[ChannelReport] = field(default_factory=list)
    chaos_report: dict = field(default_factory=dict)
    service_metrics: dict = field(default_factory=dict)

    @property
    def wrong_answers(self) -> int:
        """Silent corruptions across every pass (must be zero)."""
        return sum(c.wrong for c in self.channels)

    @property
    def passed(self) -> bool:
        """The binary soak verdict."""
        return self.passes > 0 and self.wrong_answers == 0

    def to_json_dict(self) -> dict:
        """The reproducible JSON report of the run."""
        injected = self.chaos_report.get("injected", {})
        degraded = sum(c.degraded for c in self.channels)
        checked = sum(c.checked for c in self.channels)
        return {
            "passed": self.passed,
            "seed": self.config.seed,
            "passes": self.passes,
            "wall_time_s": round(self.wall_time_s, 3),
            "requests_checked": checked,
            "summary": {
                "injected": injected.get("total", 0),
                "degraded": degraded,
                "wrong_answers": self.wrong_answers,
                # Faults the stack absorbed without corrupting any
                # answer (degraded-but-honest counts as recovered).
                "recovered": max(0, injected.get("total", 0)
                                 - self.wrong_answers),
            },
            "channels": [c.to_json_dict() for c in self.channels],
            # Pure function of the seed: byte-identical across replays.
            "fault_schedule": self.chaos_report.get("schedule", {}),
            "injected_by_site": injected.get("by_site", {}),
            "service_metrics": self.service_metrics,
        }


class ChaosSoak:
    """Runs one seeded soak (see module docstring).

    Args:
        config: the soak's knobs.
    """

    def __init__(self, config: Optional[SoakConfig] = None) -> None:
        """See class docstring."""
        self.config = config or SoakConfig()

    async def run(self) -> SoakResult:
        """Execute the soak; always tears chaos and the service down."""
        from repro.runtime.cache import ResultCache
        from repro.service.server import ServiceConfig, SimulationService

        cfg = self.config
        oracle = DifferentialOracle(DifferentialOracle.canonical_requests(
            n=cfg.n_requests, seed=cfg.seed))
        # The yardstick first, before any fault can fire.
        oracle.reference()

        result = SoakResult(config=cfg)
        controller = ChaosController(cfg.build_plan())
        started = time.monotonic()
        with tempfile.TemporaryDirectory(prefix="repro-soak-cache-") \
                as cache_dir:
            # Activate before start() so forked pool workers inherit
            # the exported plan and fire worker-side faults too.
            with controller:
                service = SimulationService(
                    ServiceConfig(
                        n_shards=cfg.n_shards,
                        workers_per_shard=cfg.workers_per_shard,
                        use_processes=cfg.use_processes,
                        share_traces=True,
                        batch_window_s=0.002,
                        default_timeout_s=20.0),
                    cache=ResultCache(Path(cache_dir),
                                      max_bytes=CACHE_MAX_BYTES))
                try:
                    await service.start()
                    while True:
                        result.channels.append(
                            await oracle.check_service(service))
                        result.passes += 1
                        if cfg.passes is not None:
                            if result.passes >= cfg.passes:
                                break
                        elif (time.monotonic() - started >= cfg.duration_s
                              and result.passes >= 2):
                            break
                finally:
                    await service.stop()
                    result.service_metrics = {
                        name: service.metrics.counter(name)
                        for name in ("requests_submitted",
                                     "requests_completed",
                                     "requests_failed",
                                     "requests_rejected",
                                     "requests_timed_out",
                                     "cache_hits",
                                     "cache_put_failures",
                                     "batch_retries",
                                     "batch_failures",
                                     "worker_restarts")}
                if cfg.check_engine:
                    result.channels.append(oracle.check_engine())
                result.chaos_report = controller.report()
        result.wall_time_s = time.monotonic() - started
        return result
