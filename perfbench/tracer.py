"""Span tracer that wraps luxnet's layer functions from outside.

Each wrapper is installed at the name the caller looks up (a module
global or a class attribute), so the kernel calls it without knowing.
Spans are kept in memory as parallel arrays: name, start, end and the
index of the enclosing span.  A span's self time is its duration minus
the durations of its direct children; because spans nest strictly on one
thread, the children never overlap each other.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np


def layer_targets() -> List[Tuple[str, object, str]]:
    """(span name, owner, attribute) for every wrapped layer function.

    Each owner is where the caller resolves the name: cli resolves
    run_scenario and the output functions in its own globals, the kernel
    resolves the node, energy and channel functions in simkernel's, and
    methods are resolved on their class.
    """
    from luxnet import cli, simkernel
    from luxnet.controller import Controller
    from luxnet.energy import HarvesterArray

    return [
        ("cli.cmd_run", cli, "cmd_run"),
        ("cli.parse_scenario_file", cli, "parse_scenario_file"),
        ("simkernel.run_scenario", cli, "run_scenario"),
        ("node.step_node", simkernel, "step_node"),
        ("node.state_draw_w", simkernel, "state_draw_w"),
        ("node.apply_hysteresis", simkernel, "apply_hysteresis"),
        ("energy.storage_step", simkernel, "storage_step"),
        ("energy.harvest_power", HarvesterArray, "harvest_power"),
        ("controller.step", Controller, "step"),
        ("controller.on_uplink", Controller, "on_uplink"),
        ("channel.illuminance_at", simkernel, "illuminance_at"),
        ("channel.frame_failure_probability", simkernel,
         "frame_failure_probability"),
        ("simkernel.summarize", cli, "summarize"),
        ("simkernel.format_trace_csv", cli, "format_trace_csv"),
        ("simkernel.render_summary", cli, "render_summary"),
    ]


class Tracer:
    """Installs span wrappers on enter and restores every name on exit."""

    def __init__(self, targets: List[Tuple[str, object, str]]):
        self.targets = targets
        self.names = [name for name, _, _ in targets]
        self.name_ids = array("B")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        span.__wrapped__ = fn
        return span

    def __enter__(self) -> "Tracer":
        for name_id, (_, owner, attr) in enumerate(self.targets):
            # read the raw attribute so a class keeps a plain function
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name_id, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.uint8),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Write the spans and their names out as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        duration = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        nested = a["parent"] >= 0
        child_time = np.bincount(a["parent"][nested],
                                 weights=duration[nested],
                                 minlength=len(duration))
        self_time = duration - child_time
        width = len(self.names)
        calls = np.bincount(a["name_id"], minlength=width)
        inclusive = np.bincount(a["name_id"], weights=duration,
                                minlength=width)
        exclusive = np.bincount(a["name_id"], weights=self_time,
                                minlength=width)
        return {name: {"calls": int(calls[i]),
                       "inclusive_s": float(inclusive[i]) * 1e-9,
                       "self_s": float(exclusive[i]) * 1e-9}
                for i, name in enumerate(self.names)}
