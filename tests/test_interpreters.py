"""The same bits on every supported interpreter.

Each python3.10 ... python3.13 on PATH that starts runs float_figures.py,
and every float it prints must equal the running interpreter's bit for
bit: the run path adds no float with builtin sum(), which compensates
from Python 3.12 on, and luxnet needs nothing outside the standard
library.
"""

import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

import float_figures
import luxnet

SCRIPT = Path(float_figures.__file__).resolve()
# the directory the running interpreter imports luxnet from
SRC = Path(luxnet.__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ours():
    # through JSON, as the other interpreter's figures arrive
    return json.loads(json.dumps(float_figures.figures()))


def first_difference(theirs, ours, path=()):
    """The path to the first value that differs, or None."""
    if isinstance(theirs, list) and isinstance(ours, list):
        for k, (a, b) in enumerate(zip(theirs, ours)):
            found = first_difference(a, b, path + (k,))
            if found is not None:
                return found
        if len(theirs) != len(ours):
            return path + (f"length {len(theirs)} != {len(ours)}",)
        return None
    return None if theirs == ours else path + (f"{theirs!r} != {ours!r}",)


@pytest.mark.parametrize("name", [f"python3.{minor}"
                                  for minor in range(10, 14)])
def test_figures_match_the_running_interpreter(name, ours):
    python = shutil.which(name)
    if python is None:
        pytest.skip(f"{name} is not on PATH")
    if subprocess.run([python, "-c", "pass"], capture_output=True,
                      timeout=60).returncode != 0:
        pytest.skip(f"{name} does not start")
    # only luxnet's sources on the path, no packages of the running one
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [python, str(SCRIPT)], env=env,
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    theirs = json.loads(result.stdout)
    assert theirs.keys() == ours.keys()
    for key in ours:
        difference = first_difference(theirs[key], ours[key])
        assert difference is None, (key, difference)
