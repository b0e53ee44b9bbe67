"""Event-based instruction-trace simulator (paper Fig 15, section 6.2).

Models one CPU (or one shared DVFS domain) executing a faultable-
instruction trace under an operating strategy.  Between faultable events
the CPU retires instructions at ``IPC * frequency``; every p-state has a
relative speed and power (from :meth:`CpuModel.operating_points`), and
the measured delays of section 5.2/5.3 are charged on every exception,
frequency change (with stall) and voltage settle.

The simulator implements the :class:`~repro.core.strategy.CpuControl`
interface, so the strategies read exactly like the paper's Listing 1.

:class:`TraceSimulator` is the only copy of this state machine.  A
directly built simulator, :meth:`~repro.core.suit.SuitSystem.run_profile`
and every config of :func:`~repro.core.batchsim.simulate_sweep` all run
it.  Dense trap episodes are consumed in bulk: a trace is compiled once
into a :class:`TraceEpisode` (cached on the trace), whose block-maximum
index over the gap array finds where a run of within-deadline events
ends without rescanning the gaps.  This keeps multi-million-event traces
tractable.

The execution tracer and the state timeline are optional sinks.  When
off, each emission site costs one ``is not None`` check.  Neither sink
changes a run's RNG draws or arithmetic, so a traced run returns the
same result as an untraced one.

The per-event path is plain Python, so it avoids interpreter work that
does not change a result: delays come from a :class:`NormalStream`
(block draws, bit-identical to a seeded ``Generator.normal``), each
p-state's rate, power and label are cached when the state changes, and
comparisons stand in for ``min``/``max`` (returning the same values,
NaN included).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.metrics import SimResult, imul_latency_overhead
from repro.core.strategy import CpuControl, OperatingStrategy, SuitState
from repro.emulation.dispatch import emulation_cycles
from repro.hardware.cpu import CpuModel
from repro.obs.profiling import profiled
from repro.obs.tracer import TRACK_SIM, get_tracer
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import FaultableTrace

_TIMELINE_CAP = 200_000
#: Gap thresholds are clamped here so they always fit int64; gaps are
#: bounded by n_instructions, far below it, so the clamp never changes
#: a comparison outcome.
_MAX_GAP = 2 ** 62

_BLOCK_SHIFT = 12
_BLOCK = 1 << _BLOCK_SHIFT  # gap-index block size (events)

_E, _CF, _CV = SuitState.E, SuitState.CF, SuitState.CV


class NormalStream:
    """A seeded source of normal draws, read from buffered blocks.

    ``normal(loc, scale)`` returns exactly what
    ``np.random.default_rng(seed).normal(loc, scale)`` would return at
    the same point of the sequence, at about a quarter of the call cost.
    ``Generator.normal`` computes ``loc + scale * z`` (two IEEE
    operations, rounded the same way here) from the next standard
    normal *z*, and ``Generator.standard_normal(size)`` yields the same
    *z* sequence as that many scalar draws; so the stream draws *z* in
    blocks of :attr:`BLOCK`, keeps them as Python floats and does the
    arithmetic itself.  A sized draw uses the buffered values first.
    The generator runs ahead of the draws by up to a block, so nothing
    else may draw from it.
    """

    #: Standard normals drawn per refill.
    BLOCK = 64

    __slots__ = ("_gen", "_buf", "_i")

    def __init__(self, seed: int) -> None:
        self._gen = np.random.default_rng(seed)
        self._buf: List[float] = []
        self._i = 0

    def normal(self, loc: float, scale: float,
               size: Optional[int] = None):
        """``loc + scale * z``: a float, or an array of *size* draws."""
        i = self._i
        buf = self._buf
        if size is None:
            if i == len(buf):
                buf = self._buf = self._gen.standard_normal(
                    self.BLOCK).tolist()
                i = 0
            self._i = i + 1
            return loc + scale * buf[i]
        z = np.array(buf[i:i + size], dtype=np.float64)
        self._i = i + z.size
        if z.size < size:
            z = np.concatenate((z, self._gen.standard_normal(size - z.size)))
        return loc + scale * z


class TraceEpisode:
    """A trace compiled for simulation.

    Holds the trace's event indices and gap array, a block-maximum index
    over the gaps (for O(log) burst-end lookup), and memoised
    per-threshold lists of candidate blocks.  All of it is immutable
    after compilation except the threshold memo, which only caches pure
    lookups.  The episode keeps no reference to its trace, so caching
    it on the trace creates no reference cycle.
    """

    __slots__ = ("indices", "gaps", "block_max", "_big_blocks")

    def __init__(self, trace: FaultableTrace) -> None:
        self.indices = trace.indices
        self.gaps = trace.gaps()
        n_events = trace.n_events
        if n_events:
            starts = np.arange(0, n_events, _BLOCK, dtype=np.int64)
            self.block_max = np.maximum.reduceat(self.gaps, starts)
        else:
            self.block_max = np.empty(0, dtype=np.int64)
        self._big_blocks: Dict[int, List[int]] = {}

    def big_blocks(self, threshold: int) -> List[int]:
        """Sorted ids of blocks containing a gap above *threshold*."""
        bigs = self._big_blocks.get(threshold)
        if bigs is None:
            bigs = np.flatnonzero(self.block_max > threshold).tolist()
            self._big_blocks[threshold] = bigs
        return bigs

    def first_big_gap(self, start: int, hi: int, threshold: int,
                      buf: np.ndarray) -> int:
        """First event ``j`` in ``[start, hi)`` with ``gaps[j] >
        threshold``, else *hi* — the stop index of a bulk consume.

        Identical to scanning ``gaps[start:hi]`` left to right, but
        skips straight to candidate blocks via :meth:`big_blocks`.
        *buf* is a caller-owned bool scratch of at least ``_BLOCK``.
        """
        bigs = self.big_blocks(threshold)
        gaps = self.gaps
        i = bisect_left(bigs, start >> _BLOCK_SHIFT)
        n_big = len(bigs)
        while i < n_big:
            block_lo = bigs[i] << _BLOCK_SHIFT
            if block_lo >= hi:
                return hi
            lo = block_lo if block_lo > start else start
            end = block_lo + _BLOCK
            if end > hi:
                end = hi
            m = end - lo
            if m > 0:
                big = np.greater(gaps[lo:end], threshold, out=buf[:m])
                k = int(big.argmax())
                if big[k]:
                    return lo + k
            i += 1
        return hi


def compile_episode(trace: FaultableTrace) -> TraceEpisode:
    """Compile (and cache on the trace) the episode representation."""
    episode = getattr(trace, "_episode", None)
    if episode is None:
        with profiled("batchsim.compile", "batchsim",
                      args={"trace": trace.name,
                            "n_events": trace.n_events}):
            episode = TraceEpisode(trace)
        trace._episode = episode
    return episode


class TraceSimulator(CpuControl):
    """Simulate one trace on one CPU under one operating strategy.

    Args:
        cpu: hardware model.
        profile: workload profile (for the IMUL hardening tax and, in
            estimates, no-SIMD overheads).
        trace: the faultable-instruction trace to execute.
        strategy: operating strategy (drives this object as CpuControl).
        voltage_offset: efficient-curve offset in volts (negative).
        seed: seed of the run's :class:`NormalStream`, from which every
            sampled delay is drawn; the draws equal those of
            ``np.random.default_rng(seed).normal``, bit for bit.
        record_timeline: record (time, state) transitions for figures.
        imul_extra_cycles: IMUL hardening depth in extra pipeline
            cycles (section 6.1).  Its latency tax scales the duration,
            energy and state times; 1 is the paper's hardening, which
            SUIT hardware always ships, and 0 applies no tax.

    The trace is compiled by :func:`compile_episode` (once: the episode
    is cached on the trace).
    """

    def __init__(self, cpu: CpuModel, profile: WorkloadProfile,
                 trace: FaultableTrace, strategy: OperatingStrategy,
                 voltage_offset: float, seed: int = 0,
                 record_timeline: bool = False,
                 imul_extra_cycles: int = 1) -> None:
        if voltage_offset >= 0:
            raise ValueError("voltage_offset must be negative")
        if imul_extra_cycles < 0:
            raise ValueError("imul_extra_cycles must be non-negative")
        self._ep = compile_episode(trace)
        self.cpu = cpu
        self.profile = profile
        self.trace = trace
        self.strategy = strategy
        self.voltage_offset = voltage_offset
        self.imul_extra_cycles = imul_extra_cycles
        self._rng = NormalStream(seed)
        self._n_events = trace.n_events
        # Optional sinks, None when off: one check per emission site.
        tracer = get_tracer()
        self._tracer = tracer if tracer.enabled else None
        self._timeline: Optional[List[Tuple[float, str]]] = (
            [] if record_timeline else None)
        self._timeline_truncated = False

        # Per state: (power, instruction rate, state_time label, clock).
        points = cpu.operating_points(voltage_offset)
        rate_base = trace.ipc * cpu.nominal_frequency
        f_nom = cpu.nominal_frequency
        self._consts_e = (points.power_e, rate_base * points.speed_e,
                          _E.value, f_nom * points.speed_e)
        self._consts_cf = (points.power_cf, rate_base * points.speed_cf,
                           _CF.value, f_nom * points.speed_cf)
        self._consts_cv = (points.power_cv, rate_base * points.speed_cv,
                           _CV.value, f_nom * points.speed_cv)

        # Dynamic state.
        self._t = 0.0
        self._pos = 0  # instructions retired
        self._ev = 0  # next trace event
        self._state = _E
        # The current state's constants (see _set_state); _power_now
        # also lags a switch back to E until its voltage has settled.
        self._power_now, self._rate, self._label, self._freq = self._consts_e
        self._disabled = True
        # In-flight request: (completion time, target, power_only).
        # power_only marks the switch back to E: the core runs (and is
        # accounted) at E immediately, but package power only drops once
        # the regulator settles.
        self._pending: Optional[Tuple[float, SuitState, bool]] = None
        # Deadline timer (section 4.1): the countdown restarts from
        # _deadline_s on every faultable execution; both are None while
        # the timer is disarmed.
        self._deadline_s: Optional[float] = None
        self._fires_at: Optional[float] = None
        # Thrashing window (section 4.3): #DO times within the trailing
        # p_ts, oldest first.
        self._thrash_timespan = strategy.params.thrash_timespan_s
        self._trap_times: Deque[float] = deque()
        self._emulated_current = False

        # Accounting.
        self._energy = 0.0
        self._state_time: Dict[str, float] = {"E": 0.0, "Cf": 0.0, "CV": 0.0, "stall": 0.0}
        self._n_exceptions = 0
        self._n_switches = 0
        self._n_timer_fires = 0
        self._n_thrash = 0
        self._block_buf = np.empty(_BLOCK, dtype=bool)

    # ------------------------------------------------------------------
    # CpuControl interface (what the strategies drive, as in Listing 1)
    # ------------------------------------------------------------------

    @property
    def now_s(self) -> float:
        return self._t

    def change_pstate_wait(self, target: SuitState) -> None:
        """Blocking p-state change; the core stalls for the transition."""
        self._pending = None
        if target is self._state:
            return
        if target is not _E and self._state is not _E:
            # Already on the conservative curve (e.g. a trap raced the
            # cancelled switch-back): nothing to wait for.
            self._set_state(target if target is _CV else self._state)
            return
        if target is _CF:
            delay, _stall = self.cpu.transitions.frequency_change(self._rng)
        elif target is _CV:
            if self.cpu.transitions.voltage is None:
                raise ValueError(f"{self.cpu.name} has no voltage control; "
                                 "use the f or e strategy")
            delay, _stall = self.cpu.transitions.pstate_change(self._rng, needs_voltage=True)
        else:
            delay, _stall = self.cpu.transitions.frequency_change(self._rng)
        self._stall(delay)
        self._set_state(target)
        self._n_switches += 1

    def change_pstate_async(self, target: SuitState) -> None:
        """Non-blocking change request; replaces any in-flight request."""
        if target is self._state and self._pending is None:
            return
        if target is _CV:
            if self.cpu.transitions.voltage is None:
                raise ValueError(f"{self.cpu.name} has no voltage control")
            delay = self.cpu.transitions.voltage_change(self._rng)
            if self._tracer is not None:
                self._tracer.complete("voltage settle", "sim", ts_s=self._t,
                                      dur_s=delay, track=TRACK_SIM,
                                      args={"target": target.value})
            self._pending = (self._t + delay, target, False)
            return
        if target is _E:
            # The switch back is free for execution (section 4.1: no need
            # to wait for the efficient curve); only the power improves
            # late, once the voltage has actually dropped.
            if self._state is _CV and self.cpu.transitions.voltage is not None:
                delay = self.cpu.transitions.voltage_change(self._rng)
                if self._tracer is not None:
                    self._tracer.complete("voltage settle", "sim",
                                          ts_s=self._t, dur_s=delay,
                                          track=TRACK_SIM,
                                          args={"target": target.value})
            else:
                delay, _ = self.cpu.transitions.frequency_change(self._rng)
            old_power = self._power_now
            self._set_state(_E)
            self._power_now = old_power
            self._pending = (self._t + delay, target, True)
            return
        delay, _ = self.cpu.transitions.frequency_change(self._rng)
        self._pending = (self._t + delay, target, False)

    def set_instructions_disabled(self, disabled: bool) -> None:
        """Write the SUIT disable bit for the trapped set."""
        self._disabled = disabled

    def set_timer_interrupt(self, deadline_s: float) -> None:
        """Arm the deadline timer (stretched values count as thrashing)."""
        if deadline_s > self.strategy.params.deadline_s:
            self._n_thrash += 1
        if deadline_s <= 0:
            raise ValueError("deadline must be positive")
        self._deadline_s = deadline_s
        self._fires_at = self._t + deadline_s

    def exception_count_in_timespan(self, timespan_s: float) -> int:
        """#DO exceptions within the trailing *timespan_s* (must be p_ts)."""
        # The strategies always query their own p_ts, which the window
        # was built with; guard against mismatching use.
        if abs(timespan_s - self._thrash_timespan) > 1e-12:
            raise ValueError("timespan differs from the configured p_ts")
        return len(self._trap_window())

    def emulate_current_instruction(self) -> None:
        """User-space emulation: double kernel transition plus the
        emulation routine itself (section 3.4, 5.3)."""
        opcode = self.trace.event_opcode(self._ev)
        call = self.cpu.emulation_call_delay.sample(self._rng)
        # The measured emulation-call delay covers both kernel round
        # trips end-to-end, so the already-charged exception entry is
        # part of it.
        call -= self.cpu.exception_delay.mean_s
        if call < 0.0:
            call = 0.0
        routine = emulation_cycles(opcode) / self._freq
        if self._tracer is not None:
            self._tracer.complete("emulation", "sim", ts_s=self._t,
                                  dur_s=call + routine, track=TRACK_SIM,
                                  args={"opcode": opcode.name})
        self._stall(call + routine)
        self._emulated_current = True

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Execute the trace to completion and return the result."""
        n = self.trace.n_instructions
        n_events = self._n_events
        idx = self._ep.indices
        state_time = self._state_time
        inf = math.inf
        if self._timeline is not None:
            self._log_state()

        # Each comparison below must pick what min()/max() would (the
        # first argument on ties and NaN), or results change in the
        # last bit.
        while self._pos < n:
            ev = self._ev
            pos = self._pos
            t = self._t
            rate = self._rate
            gap = (idx.item(ev) if ev < n_events else n) - pos
            if gap < 0:
                gap = 0
            t_next = t + gap / rate

            pending = self._pending
            t_pending = pending[0] if pending else inf
            if t_pending < t_next:
                t_next = t_pending
            t_timer = self._fires_at
            if t_timer is None:
                t_timer = inf
            elif t_timer < t_next:
                t_next = t_timer
            # Advance to t_next at the current rate.  A bulk jump can
            # overshoot a pending completion by a fraction of one
            # instruction; such events then fire "immediately".
            dt = t_next - t
            if dt < 0.0:
                dt = 0.0
            pos += dt * rate
            self._pos = n if n < pos else pos
            self._energy += self._power_now * dt
            state_time[self._label] += dt
            self._t = t + dt

            if t_next == t_pending:
                self._complete_pending()
            elif t_next == t_timer:
                # The deadline fires: disarm, count, run the handler.
                self._deadline_s = None
                self._fires_at = None
                self._n_timer_fires += 1
                if self._tracer is not None:
                    self._tracer.instant("timer fire", "sim", ts_s=self._t,
                                         track=TRACK_SIM)
                self.strategy.on_timer_interrupt(self)
            elif ev < n_events:
                self._handle_event()
            else:
                break  # reached end of trace

        return self._result()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _stall(self, duration_s: float) -> None:
        """Advance time without retiring instructions.

        The deadline countdown is core-clock driven, so it freezes while
        the core is stalled.
        """
        self._energy += self._power_now * duration_s
        self._state_time["stall"] += duration_s
        self._t += duration_s
        if self._fires_at is not None:
            self._fires_at += duration_s

    def _trap_window(self) -> Deque[float]:
        """The #DO times within the trailing p_ts, older ones evicted."""
        times = self._trap_times
        cutoff = self._t - self._thrash_timespan
        while times and times[0] < cutoff:
            times.popleft()
        return times

    def _consts(self, state: SuitState) -> Tuple[float, float, str, float]:
        """*state*'s (power, instruction rate, label, clock), picked by
        identity (an Enum-keyed dict would hash in Python)."""
        if state is _E:
            return self._consts_e
        return self._consts_cf if state is _CF else self._consts_cv

    def _set_state(self, state: SuitState) -> None:
        if state is not self._state:
            if self._tracer is not None:
                self._tracer.instant(
                    "p-state change", "sim", ts_s=self._t, track=TRACK_SIM,
                    args={"from": self._state.value, "to": state.value})
            self._state = state
            (self._power_now, self._rate, self._label,
             self._freq) = self._consts(state)
            if self._timeline is not None:
                self._log_state()

    def _log_state(self) -> None:
        if len(self._timeline) < _TIMELINE_CAP:
            label = self._state.value + ("/disabled" if self._disabled else "")
            self._timeline.append((self._t, label))
        else:
            self._timeline_truncated = True

    def _complete_pending(self) -> None:
        _, target, power_only = self._pending
        self._pending = None
        if power_only:
            self._power_now = self._consts(target)[0]
            return
        if target is _CV and self._state is _CF:
            # Voltage reached the conservative level: raise the clock
            # back to nominal — the second stall of Fig 6.
            _, stall = self.cpu.transitions.frequency_change(self._rng)
            self._stall(stall)
            self._n_switches += 1
        self._set_state(target)

    def _handle_event(self) -> None:
        if not self._disabled:
            # Enabled faultable execution: only restarts the countdown.
            if self._deadline_s is not None:
                self._fires_at = self._t + self._deadline_s
            self._ev += 1
            self._bulk_consume()
            return
        # Disabled: #DO exception.
        self._n_exceptions += 1
        self._trap_times.append(self._t)
        self._trap_window()
        if self._tracer is not None:
            self._tracer.instant(
                "#DO trap", "sim", ts_s=self._t, track=TRACK_SIM,
                args={"opcode": self.trace.event_opcode(self._ev).name,
                      "event": self._ev})
        self._stall(self.cpu.exception_delay.sample(self._rng))
        self._emulated_current = False
        self.strategy.on_disabled_instruction(self)
        if self._tracer is not None:
            self._tracer.instant(
                "decision: emulate" if self._emulated_current
                else "decision: curve-switch",
                "sim", ts_s=self._t, track=TRACK_SIM)
        if self._emulated_current:
            # Instruction consumed by the emulation path.
            self._ev += 1
            self._bulk_emulate()
            return
        if self._disabled:
            raise RuntimeError(
                f"strategy {self.strategy.name!r} left the instruction disabled "
                "without emulating it; it can never retire")
        # Re-execute on the conservative curve; restarts the fresh timer.
        if self._deadline_s is not None:
            self._fires_at = self._t + self._deadline_s
        self._ev += 1
        self._bulk_consume()

    def _bulk_consume(self) -> None:
        """Consume runs of enabled events whose gaps stay within the
        deadline in one step (they only restart the countdown).

        Stops at the first gap exceeding the deadline, at the pending
        completion time, or at the end of the events.
        """
        if self._disabled or self._fires_at is None:
            return
        ep = self._ep
        rate = self._rate
        deadline_s = self._deadline_s

        hi = self._n_events
        pending = self._pending
        if pending is not None:
            horizon_pos = self._pos + (pending[0] - self._t) * rate
            # Integer query: a float query would promote (copy) the
            # whole int64 index array on every call.  For integer
            # indices, idx >= horizon_pos iff idx >= ceil(horizon_pos).
            hi = int(ep.indices.searchsorted(math.ceil(horizon_pos),
                                             side="left"))
        start = self._ev
        if start >= hi:
            return
        # Integer threshold: gap > x iff gap > floor(x) for int gaps.
        threshold = math.floor(deadline_s * rate)
        if _MAX_GAP < threshold:
            threshold = _MAX_GAP
        stop = ep.first_big_gap(start, hi, threshold, self._block_buf)
        if stop <= start:
            return
        # Jump: consume events start..stop-1 at constant speed/power.
        target_pos = ep.indices.item(stop - 1) + 1
        dt = (target_pos - self._pos) / rate
        self._energy += self._power_now * dt
        self._state_time[self._label] += dt
        t = self._t + dt
        self._t = t
        self._pos = target_pos
        self._ev = stop
        self._fires_at = t + deadline_s

    def _bulk_emulate(self) -> None:
        """Fast path for pure-emulation runs: with no timer and no
        pending change the state never varies again, so all remaining
        events can be charged in one vectorised step."""
        if (self.strategy.switches_curves or self._fires_at is not None
                or self._pending is not None):
            return
        trace = self.trace
        n_rem = self._n_events - self._ev
        if n_rem <= 0:
            return
        # Execution time of the instructions up to (and including) the
        # last event, plus per-event emulation stalls.
        target_pos = int(trace.indices[-1]) + 1
        run_time = (target_pos - self._pos) / self._rate
        call = self.cpu.emulation_call_delay
        calls = np.clip(
            self._rng.normal(call.mean_s, call.sigma_s or 0.0, size=n_rem),
            call.mean_s * 0.25, call.mean_s * 4.0)
        routines = (trace.emulation_cycle_table()[trace.opcodes[self._ev:]]
                    / self._freq)
        stall_total = float(calls.sum() + routines.sum())
        self._energy += self._power_now * (run_time + stall_total)
        self._state_time[self._label] += run_time
        self._state_time["stall"] += stall_total
        self._t += run_time + stall_total
        self._pos = target_pos
        self._ev = self._n_events
        self._n_exceptions += n_rem

    def _result(self) -> SimResult:
        duration = self._t
        energy = self._energy
        if self.imul_extra_cycles:
            tax = 1.0 + imul_latency_overhead(
                self.profile, extra_cycles=self.imul_extra_cycles)
            duration *= tax
            energy *= tax
            for key in self._state_time:
                self._state_time[key] *= tax
        return SimResult(
            workload=self.trace.name,
            cpu_name=self.cpu.name,
            strategy=self.strategy.name,
            voltage_offset=self.voltage_offset,
            duration_s=duration,
            baseline_duration_s=self.trace.duration_s(self.cpu.nominal_frequency),
            energy_rel=energy,
            state_time=dict(self._state_time),
            n_exceptions=self._n_exceptions,
            n_switches=self._n_switches,
            n_timer_fires=self._n_timer_fires,
            n_thrash_stretches=self._n_thrash,
            timeline=self._timeline,
            timeline_truncated=self._timeline_truncated,
        )
