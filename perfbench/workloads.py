"""Benchmark workloads: which scenario each one runs, and why.

paper-a and paper-b run the shipped scenario files.  Their inputs do not
depend on the benchmark seed: the scenario seed only drives the
interference draws, and neither file has an interference model.
crowd-dense is a network generated from the seed, written with
``serialize_scenario`` and run through the same CLI path.
"""

from __future__ import annotations

import importlib
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no luxnet sources to benchmark."""


def load_luxnet():
    """Import luxnet from this checkout's src/, never from elsewhere."""
    if not (SRC / "luxnet" / "__init__.py").is_file():
        raise ProgramMissing(f"no luxnet package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    luxnet = importlib.import_module("luxnet")
    if Path(luxnet.__file__).resolve().parent != SRC / "luxnet":
        raise ProgramMissing(f"luxnet imported from {luxnet.__file__}, "
                             f"not from {SRC}")
    return luxnet


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # shipped scenario stem, or None for the generated network
    stem: Optional[str]
    # --duration-s override passed to `luxnet run`, if any
    duration_s: Optional[float]
    # inputs change with the seed, so references are kept per seed
    seeded: bool
    # counts that must be positive, showing the behaviour the workload
    # was chosen for
    live: Tuple[str, ...]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="paper-a",
            why="first 7.5 h of shipped paper-a, 3 nodes, no sharing, dim "
                "node locks out at 6.95 h: per-tick kernel, step_node and "
                "energy dominate",
            # 7.5 h takes in the dim node's first lockout at 6.95 h, and
            # leaves room for several runs in one window
            stem="paper_a", duration_s=27000.0, seeded=False,
            live=("depletions",)),
        Workload(
            name="paper-b",
            why="first 3 h of shipped paper-b: emitter sessions, a moving "
                "light field and the sharing schedule on the same layers",
            # 3 h holds 34 emitter sessions; the full 60 h is too
            # long to repeat within one run window
            stem="paper_b", duration_s=10800.0, seeded=False,
            live=("etx_sessions",)),
        Workload(
            name="crowd-dense",
            why="seeded 15-node ring, sharing and interference, a trace row "
                "every tick: controller, channel, summary and CSV output",
            stem=None, duration_s=None, seeded=True,
            live=("etx_sessions", "frame_failure_probability_calls")),
    )
}

# crowd-dense layout; see crowd_dense_scenario
CROWD_NODES = 15
CROWD_DURATION_S = 1800.0
CROWD_RING_RADIUS_M = 0.36


def _unit(v):
    n = math.sqrt(sum(x * x for x in v))
    return tuple(x / n for x in v)


def crowd_dense_scenario(seed: int):
    """A 15-node ring: every third node dim, the rest bright with emitters.

    Each node's faces a and b look at its two ring neighbours and face c
    looks up.  Dim nodes (100-250 lx on faces a and b, dark above) sit
    between two bright nodes (800-1200 lx on every face), and every
    bright node aims its emitter at its dim neighbour, so each burst lands
    square on one of that node's lit faces.  Sharing is scheduled by the
    access point, interference is on, and every tick is a trace instant.
    """
    load_luxnet()
    from luxnet.channel import InterferenceModel
    from luxnet.controller import ControllerConfig
    from luxnet.simkernel import FaceSpec, NodeSpec, OapSpec, Scenario

    rng = random.Random(seed)
    step = 2.0 * math.pi / CROWD_NODES
    positions = []
    for i in range(CROWD_NODES):
        angle = i * step + rng.uniform(-0.05, 0.05) * step
        radius = CROWD_RING_RADIUS_M * rng.uniform(0.95, 1.05)
        positions.append((round(radius * math.cos(angle), 6),
                          round(radius * math.sin(angle), 6), 0.0))

    def toward(i, j):
        return _unit(tuple(b - a for a, b in zip(positions[i], positions[j])))

    nodes = []
    for i in range(CROWD_NODES):
        node_id = i + 1
        prev_i, next_i = (i - 1) % CROWD_NODES, (i + 1) % CROWD_NODES
        dim = node_id % 3 == 2
        if dim:
            lit = round(rng.uniform(100.0, 250.0), 1)
            lux = (lit, lit, 0.0)
            led_power, aim = 0.0, None
        else:
            lit = round(rng.uniform(800.0, 1200.0), 1)
            lux = (lit, lit, lit)
            # exactly one ring neighbour of a bright node is dim
            target = prev_i if (prev_i + 1) % 3 == 2 else next_i
            led_power = round(rng.uniform(0.025, 0.030), 4)
            aim = toward(i, target)
        normals = (toward(i, prev_i), toward(i, next_i), (0.0, 0.0, 1.0))
        nodes.append(NodeSpec(
            node_id=node_id,
            position=positions[i],
            faces=tuple(FaceSpec(normal=n, ambient_lux=l)
                        for n, l in zip(normals, lux)),
            start_voltage=round(rng.uniform(4.2, 4.5), 3),
            v_min=3.4 if dim else 3.8,
            led_power_w=led_power,
            led_aim=aim,
            sensor_base_c=round(rng.uniform(20.0, 30.0), 1),
        ))
    oap = OapSpec(
        config=ControllerConfig(t_data_req=480.0, t_int=600.0,
                                slot_spacing_s=5.0, etx_offset_s=20.0,
                                etx_spacing_s=30.0),
        position=(0.0, 0.0, 0.4))
    return Scenario(
        name=f"crowd-dense-{seed}",
        duration_s=CROWD_DURATION_S,
        nodes=tuple(nodes),
        oap=oap,
        step_s=0.1,
        seed=seed,
        trace_interval_s=0.1,
        etx_policy="oap",
        interference=InterferenceModel(midpoint_lux=200.0,
                                       steepness_per_lux=0.02, floor=0.01),
    )


def scenario_file(workload: Workload, seed: int, work_dir: Path) -> Path:
    """Path of the scenario file the workload runs, writing it if generated."""
    load_luxnet()
    from luxnet.cli import serialize_scenario, shipped_scenario_path

    if workload.stem is not None:
        return Path(shipped_scenario_path(workload.stem))
    path = work_dir / f"{workload.name}-{seed}.scn"
    path.write_text(serialize_scenario(crowd_dense_scenario(seed)),
                    encoding="utf-8")
    return path


def run_argv(workload: Workload, scenario: Path, out_dir: Path) -> List[str]:
    """Arguments for `luxnet run` on this workload."""
    argv = ["run", str(scenario), "--out-dir", str(out_dir)]
    if workload.duration_s is not None:
        argv += ["--duration-s", repr(workload.duration_s)]
    return argv
