"""Keyed differ for two trace CSVs, and for two runs' node tallies.

    python tests/trace_diff.py OLD.csv NEW.csv

Rows are keyed by (time_s, node_id, event), as printed, not by position,
so one row added or removed misaligns no later row; a key that repeats
(two frames' events on one tick) is told apart by its order.  The report
gives the rows matched, added and removed, the event rows added, removed
or moved (the same node's same event at another time), the first instant
at which each node's rows diverge, and the largest change in each
printed column of the matched rows.  For two TraceSets, aggregate_ulps
gives the largest change in each NodeAggregate field, in ulps.
"""

from __future__ import annotations

import csv
import io
import math
import struct
import sys
from collections import Counter, defaultdict, deque
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

NUMBERS = ("v_cap", "v_pv", "lux")
TEXTS = ("mode", "state")

# (time_s, node_id, event, occurrence), the first three as printed
Key = Tuple[str, str, str, int]


class RowDiff(NamedTuple):
    matched: int
    added: List[Key]
    removed: List[Key]
    # (node_id, event, old time_s, new time_s)
    moved: List[Tuple[str, str, str, str]]
    # per node, the first diverging time_s and what diverges there
    first: Dict[str, Tuple[str, str]]
    # per printed column, the largest change (rows that differ, for a text
    # column) and the key of the first row that shows it
    largest: Dict[str, Tuple[float, Optional[Key]]]


def keyed_rows(text: str) -> Dict[Key, Dict[str, str]]:
    """The CSV's rows by key, in row order."""
    rows = {}
    seen = Counter()
    for row in csv.DictReader(io.StringIO(text)):
        base = (row["time_s"], row["node_id"], row["event"])
        rows[(*base, seen[base])] = row
        seen[base] += 1
    return rows


def diff_csv(old_text: str, new_text: str) -> RowDiff:
    old, new = keyed_rows(old_text), keyed_rows(new_text)
    first: Dict[str, Tuple[str, str]] = {}

    def diverges(key: Key, what: str) -> None:
        time_s, nid = key[0], key[1]
        if nid not in first or float(time_s) < float(first[nid][0]):
            first[nid] = (time_s, what)

    largest: Dict[str, Tuple[float, Optional[Key]]] = {
        column: (0, None) for column in NUMBERS + TEXTS}
    matched = 0
    for key in old.keys() & new.keys():
        matched += 1
        was, now = old[key], new[key]
        for column in NUMBERS:
            change = abs(float(now[column]) - float(was[column]))
            if change:
                diverges(key, column)
                if change > largest[column][0]:
                    largest[column] = (change, key)
        for column in TEXTS:
            if now[column] != was[column]:
                diverges(key, column)
                count, at = largest[column]
                largest[column] = (count + 1, at or key)
    added = sorted(new.keys() - old.keys(), key=_order)
    removed = sorted(old.keys() - new.keys(), key=_order)
    for key in added:
        diverges(key, "added")
    for key in removed:
        diverges(key, "removed")
    # an event row removed at one time and added at another has moved:
    # pair them per (node, event) in time order
    gone = defaultdict(deque)
    for key in removed:
        if key[2]:
            gone[key[1:3]].append(key)
    moved, paired = [], set()
    for key in added:
        if key[2] and gone[key[1:3]]:
            was = gone[key[1:3]].popleft()
            moved.append((key[1], key[2], was[0], key[0]))
            paired.update((key, was))
    return RowDiff(matched, [key for key in added if key not in paired],
                   [key for key in removed if key not in paired], moved,
                   first, largest)


def _order(key: Key) -> Tuple[float, int, str, int]:
    return float(key[0]), int(key[1]), key[2], key[3]


def format_row_diff(diff: RowDiff, shown: int = 10) -> str:
    """The report, at most `shown` keys of each list."""
    events_added = [key for key in diff.added if key[2]]
    events_removed = [key for key in diff.removed if key[2]]
    lines = [
        f"rows: {diff.matched} matched, {len(diff.added)} added, "
        f"{len(diff.removed)} removed",
        f"events: {len(events_added)} added, {len(events_removed)} removed, "
        f"{len(diff.moved)} moved",
    ]
    lines += [f"  added {key}" for key in diff.added[:shown]]
    lines += [f"  removed {key}" for key in diff.removed[:shown]]
    lines += [f"  moved node {nid} {event!r}: {was} s -> {now} s"
              for nid, event, was, now in diff.moved[:shown]]
    lines.append("first divergence per node:")
    lines += [f"  node {nid}: {time_s} s ({what})"
              for nid, (time_s, what) in sorted(
                  diff.first.items(), key=lambda item: int(item[0]))]
    if not diff.first:
        lines.append("  none")
    lines.append("largest change per column:")
    for column, (change, key) in diff.largest.items():
        unit = " rows" if column in TEXTS else ""
        at = f" at {key}" if key is not None else ""
        lines.append(f"  {column}: {change:g}{unit}{at}")
    return "\n".join(lines) + "\n"


def _ordered(x: float) -> int:
    """x's bits as an integer that orders as the floats do, +-0 alike."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulps(a: float, b: float) -> int:
    """How many floats lie from a to b."""
    return abs(_ordered(float(a)) - _ordered(float(b)))


def _fields(agg) -> Dict[str, object]:
    """A NodeAggregate's fields by name, time_by_state one per state."""
    fields = {name: getattr(agg, name) for name in type(agg).__slots__
              if name not in ("node_id", "time_by_state")}
    for state, seconds in agg.time_by_state.items():
        fields[f"time_by_state[{state}]"] = seconds
    return fields


def aggregate_ulps(old, new) -> Dict[str, Tuple[object, int]]:
    """The largest change in each NodeAggregate field of two TraceSets,
    per field (change, node): the ulps between two floats, or "set" /
    "unset" for a field, such as depleted_at, that is None on one side."""
    def rank(change) -> float:
        return math.inf if isinstance(change, str) else change

    largest: Dict[str, Tuple[object, int]] = {}
    for nid, agg in sorted(old.aggregates.items()):
        was, now = _fields(agg), _fields(new.aggregates[nid])
        for name in sorted(was.keys() | now.keys()):
            a, b = was.get(name), now.get(name)
            if a is None or b is None:
                change = 0 if a is b else "unset" if b is None else "set"
            else:
                change = ulps(a, b)
            if name not in largest or rank(change) > rank(largest[name][0]):
                largest[name] = (change, nid)
    return largest


def format_aggregate_ulps(largest: Dict[str, Tuple[object, int]]) -> str:
    lines = ["largest change per aggregate field, in ulps:"]
    lines += [f"  {name}: {change}" + (f" (node {nid})" if change else "")
              for name, (change, nid) in largest.items()]
    return "\n".join(lines) + "\n"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (Path(path).read_text(encoding="utf-8") for path in argv)
    sys.stdout.write(format_row_diff(diff_csv(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
