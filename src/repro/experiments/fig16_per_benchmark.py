"""Fig 16: per-benchmark performance and efficiency on CPU C (fV).

Runs all 23 SPEC benchmarks plus Nginx and VLC at both offsets and
reports the per-workload performance/efficiency pairs, ordered like the
figure (descending efficiency).  Anchors from section 6.4: 557.xz
(+2.75 % perf, +16.9 % eff, 97.1 % on the efficient curve), 502.gcc
(-2.89 % perf, +9.67 % eff), 520.omnetpp (-0.13 % perf, +0.47 % eff).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.metrics import SimResult
from repro.core.suit import OperatingPoint, evaluate
from repro.experiments.common import ExperimentResult
from repro.workloads.network import NGINX_PROFILE, VLC_PROFILE
from repro.workloads.spec import all_spec_profiles

PAPER_ANCHORS = {
    "557.xz": {"perf": 0.0275, "eff": 0.169, "occupancy": 0.971},
    "502.gcc": {"perf": -0.0289, "eff": 0.0967, "occupancy": 0.766},
    "520.omnetpp": {"perf": -0.0013, "eff": 0.0047, "occupancy": 0.032},
}


def run(seed: int = 0, fast: bool = False) -> ExperimentResult:
    """Regenerate the Fig 16 data."""
    result = ExperimentResult(
        experiment_id="fig16",
        title="Per-benchmark performance and efficiency, CPU C, fV strategy",
    )
    profiles = all_spec_profiles() + [NGINX_PROFILE, VLC_PROFILE]
    if fast:
        keep = set(PAPER_ANCHORS) | {"525.x264", "521.wrf", "nginx"}
        profiles = [p for p in profiles if p.name in keep]

    # One sweep per profile covers both offsets over the shared
    # compiled episode.
    offsets = (-0.070, -0.097)
    sims = evaluate([OperatingPoint("C", p.name, strategy="fV",
                                    voltage_offset=off, seed=seed)
                     for p in profiles for off in offsets])
    per_offset: Dict[float, List[SimResult]] = {
        off: sims[k::len(offsets)] for k, off in enumerate(offsets)}

    results = sorted(per_offset[-0.097], key=lambda r: -r.efficiency_change)
    result.lines.append("workload          perf(-97)   eff(-97)   occupancy")
    for r in results:
        result.lines.append(
            f"{r.workload:<16s} {r.perf_change * 100:+8.2f}%  "
            f"{r.efficiency_change * 100:+8.2f}%  {r.efficient_occupancy:9.3f}")

    for name, anchors in PAPER_ANCHORS.items():
        match = next((r for r in results if r.workload == name), None)
        if match is None:
            continue
        result.add_metric(f"{name}.perf", match.perf_change, anchors["perf"])
        result.add_metric(f"{name}.eff", match.efficiency_change, anchors["eff"])
        result.add_metric(f"{name}.occupancy", match.efficient_occupancy,
                          anchors["occupancy"], unit="")
    if not fast:
        eff97 = {r.workload: r.efficiency_change for r in per_offset[-0.097]}
        eff70 = {r.workload: r.efficiency_change for r in per_offset[-0.070]}
        doubled = [eff97[w] / eff70[w] for w in eff97
                   if eff70[w] > 0.02]
        result.add_metric(
            "mean_eff_ratio_97_vs_70",
            sum(doubled) / len(doubled), 2.0, unit="x")
    result.data["results"] = {off: rs for off, rs in per_offset.items()}
    return result


if __name__ == "__main__":  # pragma: no cover
    import sys
    print(run(fast="--fast" in sys.argv).report())
