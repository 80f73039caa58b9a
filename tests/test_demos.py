"""The six demos print what they printed when their digests were recorded.

Each demo runs in-process as `python demos/<name>` would run it, and its
stdout is pinned by SHA-256.  Two of them take paths that `luxnet run`
never does: lifetime_comparison summarizes traces that were never
rendered to CSV, and recharge_study reads TraceSet.rows.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_DIGESTS = {
    "inspect_frames.py":
        "bce14c703b441d96ff2e9b18d8cdfbd01ed6c48bd0924a6b4a7393191a2043d6",
    "interference_study.py":
        "edd0ff880d1692db4229ba67c922559b50efc9b1220c7f7031f7ac176ae90d85",
    "lifetime_comparison.py":
        "8521fcb210379881188a7bf66b7f626c3b8c18ac20e7519a284eabc2a8bd6298",
    "link_budget.py":
        "da74af4da96a0d451c34977b783a18bb70d1f7a8e45466d28a8f98ca49a4dad6",
    "plan_duty.py":
        "e637c1165421d978e305c3fbb20a2f554b96903f151f1b425e9abbe436426904",
    "recharge_study.py":
        "191b74ac217b32c07a6c2cbc6d35d9f520aa0b3f07931d88661b79adbaabca00",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_DIGESTS)


@pytest.mark.parametrize("name", sorted(STDOUT_DIGESTS))
def test_demo_stdout_digest(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[name]
