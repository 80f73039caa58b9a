"""Output check for one benchmark run.

A run passes when luxnet exited 0, wrote its CSV and summary, and:

- its fingerprint matches the reference made by the kernel at the commit
  that recorded it: the same row count, an identical
  (time, node, mode, state, event) sequence, numeric columns within one
  unit of the CSV's printed precision, summary numbers within their
  printed precision, and identical simulated counts;
- ``audit_conservation`` is at most 1e-9 for every node;
- the workload shows the behaviour it was chosen for (its liveness counts
  are positive).

The numeric columns are held to the reference on every row when the
trace has at most FULL_CHECK_ROWS rows.  Longer traces (crowd-dense, 270k
rows) would make references of megabytes per seed, so there they are
checked row by row at CHECKPOINTS evenly spaced rows only, plus per-node
sums (tolerance rows x unit), minima and maxima over every row.

The check is a tolerance, not a byte digest, so a kernel that changes
low-order digits still passes.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CSV_HEADER = "time_s,node_id,v_cap,v_pv,mode,state,lux,event"
# numeric CSV column index and one unit of its printed precision
NUMERIC = {"v_cap": (2, 1e-6), "v_pv": (3, 1e-6), "lux": (6, 1e-3)}
FULL_CHECK_ROWS = 20000
CHECKPOINTS = 200
MAX_RESIDUAL = 1e-9
# simulated counts a speed-only change must leave identical
COUNTS = ("ticks", "trace_rows", "event_rows", "frames_sent",
          "etx_sessions", "depletions", "interference_drops",
          "delivery_ratio")


def fingerprint(csv_path: Path, summary_path: Path, facts: dict,
                stride: Optional[int] = None) -> dict:
    """Reduce one run's outputs to what the check compares."""
    with open(csv_path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != CSV_HEADER:
            raise ValueError(f"{csv_path.name}: unexpected CSV header")
        rows = sum(1 for _ in fh)
    if stride is None:
        stride = 1 if rows <= FULL_CHECK_ROWS else rows // CHECKPOINTS
    key = hashlib.sha256()
    checkpoints = []
    columns: Dict[str, Dict[str, List[float]]] = {}
    counts = {"trace_rows": rows, "event_rows": 0, "etx_sessions": 0,
              "depletions": 0}
    with open(csv_path, encoding="utf-8") as fh:
        fh.readline()
        for i, line in enumerate(fh):
            f = line.rstrip("\n").split(",", 7)
            key.update(",".join((f[0], f[1], f[4], f[5], f[7], "")).encode())
            values = [float(f[col]) for col, _ in NUMERIC.values()]
            if i % stride == 0:
                checkpoints.append([i] + values)
            per_node = columns.setdefault(f[1], {})
            for name, v in zip(NUMERIC, values):
                acc = per_node.get(name)
                if acc is None:
                    per_node[name] = [v, v, v, 1]
                else:
                    acc[0] += v
                    acc[1] = min(acc[1], v)
                    acc[2] = max(acc[2], v)
                    acc[3] += 1
            event = f[7]
            if event:
                counts["event_rows"] += 1
                counts["etx_sessions"] += event == "etx start"
                counts["depletions"] += event == "depleted"
    for name in ("ticks", "frames_sent", "interference_drops",
                 "delivery_ratio"):
        counts[name] = facts[name]
    return {
        "counts": counts,
        "key_sha256": key.hexdigest(),
        "stride": stride,
        "checkpoints": checkpoints,
        "columns": columns,
        "summary": summary_path.read_text(encoding="utf-8"),
    }


def _close(a: float, b: float, unit: float) -> bool:
    return abs(a - b) <= unit * (1.0 + 1e-6)


_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?)")


def _compare_summary(ref: str, got: str) -> List[str]:
    ref_parts, got_parts = _NUMBER.split(ref), _NUMBER.split(got)
    if len(ref_parts) != len(got_parts):
        return ["summary layout differs"]
    for i, (r, g) in enumerate(zip(ref_parts, got_parts)):
        if i % 2 == 0:
            if r != g:
                return [f"summary text differs: {r!r} vs {g!r}"]
            continue
        decimals = len(r.partition(".")[2])
        if not _close(float(r), float(g), 10.0 ** -decimals):
            return [f"summary value {g} differs from reference {r}"]
    return []


def compare(ref: dict, got: dict) -> List[str]:
    """Every way in which got departs from ref; empty when it matches."""
    problems = []
    for name in COUNTS:
        if ref["counts"][name] != got["counts"][name]:
            problems.append(f"{name}: {got['counts'][name]} "
                            f"(reference {ref['counts'][name]})")
    if problems:
        return problems
    if ref["key_sha256"] != got["key_sha256"]:
        problems.append("(time, node, mode, state, event) sequence differs")
    units = [unit for _, unit in NUMERIC.values()]
    for r, g in zip(ref["checkpoints"], got["checkpoints"]):
        for name, unit, rv, gv in zip(NUMERIC, units, r[1:], g[1:]):
            if not _close(rv, gv, unit):
                problems.append(f"row {r[0]} {name}: {gv} (reference {rv})")
                break
        if len(problems) > 5:
            break
    for node, per_node in ref["columns"].items():
        for name, (total, low, high, n) in per_node.items():
            unit = NUMERIC[name][1]
            g_total, g_low, g_high, _ = got["columns"][node][name]
            if not (_close(total, g_total, unit * n)
                    and _close(low, g_low, unit)
                    and _close(high, g_high, unit)):
                problems.append(f"node {node} {name}: sum/min/max "
                                f"{g_total}/{g_low}/{g_high} (reference "
                                f"{total}/{low}/{high})")
    problems += _compare_summary(ref["summary"], got["summary"])
    return problems


def invariants(facts: dict, got: dict, live: tuple) -> List[str]:
    """Checks that need no reference: energy books and liveness."""
    problems = []
    residual = facts["max_conservation_residual"]
    if not residual <= MAX_RESIDUAL:
        problems.append(f"conservation residual {residual:.3g} > "
                        f"{MAX_RESIDUAL:g}")
    counts = dict(got["counts"],
                  frame_failure_probability_calls=facts[
                      "frame_failure_probability_calls"])
    for name in live:
        if counts[name] <= 0:
            problems.append(f"liveness: {name} is {counts[name]}")
    return problems


def reference_path(workload_name: str) -> Path:
    return REFERENCE_DIR / f"{workload_name}.json.gz"


def seed_key(seeded: bool, seed: int) -> str:
    return str(seed) if seeded else "any"


def load_reference(workload_name: str, key: str) -> Optional[dict]:
    path = reference_path(workload_name)
    if not path.is_file():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh).get(key)
