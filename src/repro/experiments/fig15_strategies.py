"""Fig 15: operating strategies compared on the trace simulator.

Runs the event-based Fig 15 simulator with each operating strategy of
Listing 1 — ``fV`` (frequency + voltage switch), ``f`` (frequency
only), ``V`` (voltage only) and ``e`` (user-space emulation) — on
CPU C at the aggressive -97 mV offset, over a workload set spanning the
occupancy spectrum (trap-light 557.xz to trap-heavy network servers).

The strategy ranking is the experiment's claim: ``fV`` dominates on
SPEC-like workloads, while ``e`` collapses on trap-dense ones (the
paper's Nginx/VLC rows lose >90 % performance under emulation).  This
run also exercises every telemetry event class of ``repro.obs`` —
``#DO`` traps, emulate-vs-switch decisions, p-state changes, voltage
settles and timer fires — which is why ``python -m repro trace
fig15_strategies`` uses it as the tracing showcase.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.metrics import SimResult, geomean_change
from repro.core.suit import OperatingPoint, evaluate
from repro.experiments.common import ExperimentResult
from repro.workloads.network import NGINX_PROFILE
from repro.workloads.spec import SPEC_PROFILES

STRATEGIES = ("fV", "f", "V", "e")

#: SPEC subset spanning the efficient-curve occupancy spectrum.
SPEC_SET = ("557.xz", "502.gcc", "525.x264", "520.omnetpp",
            "508.namd", "527.cam4", "521.wrf")

FAST_SPEC_SET = ("557.xz", "502.gcc", "520.omnetpp")

OFFSET = -0.097


def run(seed: int = 0, fast: bool = False) -> ExperimentResult:
    """Regenerate the Fig 15 strategy comparison."""
    result = ExperimentResult(
        experiment_id="fig15",
        title="Operating strategies (fV, f, V, e) on the trace simulator, "
              "CPU C at -97 mV",
    )
    names = FAST_SPEC_SET if fast else SPEC_SET
    profiles = [SPEC_PROFILES[n] for n in names] + [NGINX_PROFILE]

    # One sweep per profile: the trace is compiled once and every
    # strategy replays the shared episode.
    results = evaluate([OperatingPoint("C", p.name, strategy=s,
                                       voltage_offset=OFFSET, seed=seed)
                        for p in profiles for s in STRATEGIES])
    per_strategy: Dict[str, List[SimResult]] = {
        s: results[k::len(STRATEGIES)] for k, s in enumerate(STRATEGIES)}

    result.lines.append(
        "strategy   SPECperf   SPECeff    nginx.perf nginx.eff  traps")
    for strategy in STRATEGIES:
        runs = per_strategy[strategy]
        spec, nginx = runs[:-1], runs[-1]
        spec_perf = geomean_change(r.perf_change for r in spec)
        spec_eff = geomean_change(r.efficiency_change for r in spec)
        traps = sum(r.n_exceptions for r in runs)
        result.lines.append(
            f"{strategy:<10s} {spec_perf * 100:+8.2f}%  "
            f"{spec_eff * 100:+8.2f}%  {nginx.perf_change * 100:+8.2f}%  "
            f"{nginx.efficiency_change * 100:+8.2f}%  {traps:6d}")
        result.add_metric(f"C.{strategy}.SPECperf", spec_perf)
        result.add_metric(f"C.{strategy}.SPECeff", spec_eff)
        result.add_metric(f"C.{strategy}.nginx.eff",
                          nginx.efficiency_change)

    # The paper's qualitative rankings, pinned as booleans (1 = holds):
    # emulation collapses on trap-dense workloads (Table 6 loses >90 %
    # of Nginx performance under ``e``) while every curve-switching
    # strategy stays within normal DVFS territory.
    eff = {s: geomean_change(r.efficiency_change for r in per_strategy[s])
           for s in STRATEGIES}
    nginx_perf = {s: per_strategy[s][-1].perf_change for s in STRATEGIES}
    result.add_metric("emulation_collapses_on_nginx",
                      float(nginx_perf["e"] < -0.5), 1.0, unit="")
    result.add_metric("switching_beats_emulation",
                      float(min(eff["fV"], eff["f"], eff["V"]) > eff["e"]),
                      1.0, unit="")
    result.data["results"] = per_strategy
    return result


if __name__ == "__main__":  # pragma: no cover
    import sys
    print(run(fast="--fast" in sys.argv).report())
