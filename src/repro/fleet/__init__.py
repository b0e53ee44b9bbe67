"""``repro.fleet``: N simulation services behind one logical front door.

SUIT's economics are fleet economics — guardband shaving pays off in
aggregate power across racks of machines, so the serving layer has to
scale horizontally too.  This package promotes the single asyncio
:class:`~repro.service.server.SimulationService` into a fleet:

* :class:`~repro.fleet.ring.ConsistentHashRing` — deterministic
  placement of canonical requests on nodes, keyed on
  ``(cpu, workload)`` so each node's per-process trace caches stay
  hot; removing one of N nodes remaps only
  ~1/N of the key space.
* :class:`~repro.fleet.node.NodeSupervisor` — spawns and drains
  worker-service nodes, either in-process (tests, smoke) or as real
  ``python -m repro serve`` subprocesses.
* :class:`~repro.fleet.gateway.FleetGateway` — the asyncio front-end
  speaking the existing JSON-lines protocol: per-node health checks,
  pooled :class:`~repro.service.client.ServiceClient` connections,
  bounded retry-with-reroute on node failure, and fan-out aggregation
  for the ``metrics`` / ``trace`` verbs.
* :class:`~repro.fleet.autoscale.Autoscaler` — a control loop over
  the nodes' :mod:`repro.obs` signals (queue depth, p95 latency,
  utilization) with hysteresis and min/max bounds.
* :mod:`repro.fleet.loadgen` — the closed+open-loop load harness that
  ramps RPS until SLO violation and writes the ``BENCH_fleet.json``
  breaking-point report.
* :class:`~repro.fleet.soak.FleetSoak` — chaos-over-fleet: kill a
  live node mid-load and let the differential oracle assert the
  gateway rerouted with zero wrong answers.

See ``docs/fleet.md`` for the architecture and operating guide.
"""

from repro.fleet.autoscale import Autoscaler, AutoscalerConfig
from repro.fleet.bench import (
    FleetBenchConfig,
    run_fleet_bench,
    run_fleet_bench_sync,
)
from repro.fleet.gateway import (
    FleetGateway,
    GatewayConfig,
    start_fleet_server,
)
from repro.fleet.loadgen import (
    LoadGenConfig,
    LoadReport,
    LoadStep,
    default_mix,
    run_breaking_point,
    stall_mix,
    write_bench,
)
from repro.fleet.node import NodeConfig, NodeHandle, NodeSupervisor
from repro.fleet.ring import ConsistentHashRing, route_key
from repro.fleet.soak import FleetSoak, FleetSoakConfig, FleetSoakResult

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "ConsistentHashRing",
    "FleetBenchConfig",
    "FleetGateway",
    "FleetSoak",
    "FleetSoakConfig",
    "FleetSoakResult",
    "GatewayConfig",
    "LoadGenConfig",
    "LoadReport",
    "LoadStep",
    "NodeConfig",
    "NodeHandle",
    "NodeSupervisor",
    "default_mix",
    "route_key",
    "run_breaking_point",
    "stall_mix",
    "run_fleet_bench",
    "run_fleet_bench_sync",
    "start_fleet_server",
    "write_bench",
]
