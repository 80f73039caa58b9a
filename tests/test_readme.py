"""The README's code runs as written.

The Library section's import block executes, and every `luxnet` command
of the Quick start block exits 0 through cli.main, with `luxnet run`'s
outputs sent to a temporary directory; a command whose comment says
what it prints must print it.
"""

import re
import shlex
from pathlib import Path

from luxnet.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_block(section, language):
    """The first ```language block after the `## section` heading."""
    start = README.index(f"\n## {section}\n")
    match = re.compile(rf"```{language}\n(.*?)```", re.S).search(README, start)
    return match.group(1)


def quick_start_commands():
    """(argv after `luxnet`, the text its comment says it prints, or
    None) for each command line of the Quick start block."""
    commands, promise = [], None
    for line in fenced_block("Quick start", "sh").splitlines():
        if line.startswith("#"):
            found = re.search(r"\(prints (.+?)\)", line)
            promise = found.group(1) if found else promise
        elif line.startswith("luxnet "):
            commands.append((shlex.split(line)[1:], promise))
            promise = None
    return commands


def test_the_library_imports_run():
    exec(fenced_block("Library", "python"), {})


def test_the_quick_start_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    commands = quick_start_commands()
    assert [argv[0] for argv, _ in commands] == [
        "run", "duty-table", "size-capacitor", "frame", "frame", "calibrate"]
    promises = []
    for argv, promise in commands:
        if "--out-dir" in argv:
            argv[argv.index("--out-dir") + 1] = str(tmp_path)
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if promise is not None:
            assert promise in out, argv
            promises.append(promise)
    assert promises == ["0.4702 F"]
    assert (tmp_path / "paper-a.csv").exists()
    assert (tmp_path / "paper-a.summary.txt").exists()
