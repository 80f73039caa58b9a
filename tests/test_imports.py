"""Every module-level import in the package, the tests and the demos is used,
and every name the benchmark tracer wraps still exists.

The scan compares the names each file's top-level imports bind with the
names its code reads.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for name, line in bound.items() if name not in used]


def test_no_unused_module_level_imports():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for line, name in unused_imports(path)]
    assert found == []


def test_tracer_targets_exist():
    # perfbench/run.py --trace 1 wraps each (owner, attr) in place; a
    # renamed or moved function would drop out of the trace unnoticed
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
               for span, owner, attr in tracer.layer_targets()
               if not callable(vars(owner).get(attr))]
    assert missing == []
