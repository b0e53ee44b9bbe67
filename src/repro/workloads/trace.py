"""Faultable-instruction traces.

A :class:`FaultableTrace` is the event-level view the QEMU plugin of
section 5.1 produces: the total retired-instruction count of a run, the
average IPC (used to convert instruction counts to cycles, as the paper
does with the INSTRUCTIONS_RETIRED counter), and one event per executed
faultable instruction — its instruction index and opcode.

Only events are stored (numpy arrays), so traces covering billions of
instructions stay small and the event-based simulator stays fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from repro.isa.opcodes import Opcode


@dataclass
class FaultableTrace:
    """Event trace of faultable-instruction executions.

    Attributes:
        name: workload name (links back to its profile).
        n_instructions: total retired instructions of the run.
        ipc: average instructions per cycle (for time conversion).
        indices: sorted instruction indices of faultable executions
            (int64, each in ``[0, n_instructions)``).
        opcodes: per-event opcode, encoded as indices into
            ``opcode_table`` (uint8).
        opcode_table: the opcodes appearing in this trace.
    """

    name: str
    n_instructions: int
    ipc: float
    indices: np.ndarray
    opcodes: np.ndarray
    opcode_table: Tuple[Opcode, ...]
    _gaps: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    _emul_cycles: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.opcodes = np.asarray(self.opcodes, dtype=np.uint8)
        if self.n_instructions <= 0:
            raise ValueError("trace must cover a positive instruction count")
        if self.ipc <= 0:
            raise ValueError("IPC must be positive")
        if self.indices.shape != self.opcodes.shape:
            raise ValueError("indices and opcodes must have equal length")
        # The gaps are built here, in one pass over the indices, and
        # double as the sortedness check.
        gaps = np.empty_like(self.indices)
        if self.indices.size:
            if self.indices[0] < 0 or self.indices[-1] >= self.n_instructions:
                raise ValueError("event indices outside the instruction range")
            gaps[0] = self.indices[0]
            np.subtract(self.indices[1:], self.indices[:-1], out=gaps[1:])
            if gaps.min() < 0:
                raise ValueError("event indices must be sorted")
        self._gaps = gaps
        if self.opcodes.size and self.opcodes.max() >= len(self.opcode_table):
            raise ValueError("opcode code outside opcode_table")

    @property
    def n_events(self) -> int:
        """Number of faultable-instruction executions."""
        return int(self.indices.size)

    @property
    def faultable_rate(self) -> float:
        """Faultable instructions per retired instruction."""
        return self.n_events / self.n_instructions

    def gaps(self) -> np.ndarray:
        """Instruction gaps: ``indices[0]`` then successive differences.

        Built with the trace, where they also prove the indices sorted;
        the event simulator and the gap analyses share the array.
        """
        return self._gaps

    def emulation_cycle_table(self) -> np.ndarray:
        """Emulation cycle cost per ``opcode_table`` entry (int64).

        Cached; index with :attr:`opcodes` to price every event.  Raises
        ``KeyError`` if the table contains an opcode without an
        emulation routine, exactly like pricing it on the fly would.
        """
        if self._emul_cycles is None:
            # Imported here: workloads stays importable without pulling
            # the emulation package in at module load.
            from repro.emulation.dispatch import emulation_cycles
            self._emul_cycles = np.array(
                [emulation_cycles(op) for op in self.opcode_table])
        return self._emul_cycles

    def event_opcode(self, event: int) -> Opcode:
        """Decoded opcode of event number *event*."""
        return self.opcode_table[int(self.opcodes[event])]

    def duration_s(self, frequency: float) -> float:
        """Wall-clock duration of the run at *frequency* (no SUIT)."""
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        return self.n_instructions / (self.ipc * frequency)

    def slice_events(self, start_instr: int, stop_instr: int) -> "FaultableTrace":
        """Sub-trace covering ``[start_instr, stop_instr)``, re-based to 0."""
        if not 0 <= start_instr < stop_instr <= self.n_instructions:
            raise ValueError("invalid slice bounds")
        lo = int(np.searchsorted(self.indices, start_instr, side="left"))
        hi = int(np.searchsorted(self.indices, stop_instr, side="left"))
        return FaultableTrace(
            name=f"{self.name}[{start_instr}:{stop_instr}]",
            n_instructions=stop_instr - start_instr,
            ipc=self.ipc,
            indices=self.indices[lo:hi] - start_instr,
            opcodes=self.opcodes[lo:hi].copy(),
            opcode_table=self.opcode_table,
        )

    def save(self, path: Union[str, Path]) -> None:
        """Persist to a ``.npz`` file."""
        np.savez_compressed(
            Path(path),
            name=np.array(self.name),
            n_instructions=np.array(self.n_instructions, dtype=np.int64),
            ipc=np.array(self.ipc),
            indices=self.indices,
            opcodes=self.opcodes,
            opcode_table=np.array([op.value for op in self.opcode_table]),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultableTrace":
        """Load a trace written by :meth:`save`."""
        with np.load(Path(path)) as data:
            return cls(
                name=str(data["name"]),
                n_instructions=int(data["n_instructions"]),
                ipc=float(data["ipc"]),
                indices=data["indices"],
                opcodes=data["opcodes"],
                opcode_table=tuple(Opcode(v) for v in data["opcode_table"]),
            )
