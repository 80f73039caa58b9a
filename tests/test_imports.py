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


# builtin sum() calls on the run path that add integers, as (module,
# enclosing function); since Python 3.12 sum() adds floats with
# compensation, so a float sum() there would round otherwise than 3.10
# and 3.11 do
INTEGER_SUMS = {("trace", "_outcomes")}


def run_path_modules():
    """The package modules a `luxnet run` imports: cli and every module
    it reaches through module-level imports (the calibrate command
    imports its module inside the command)."""
    package = ROOT / "src" / "luxnet"
    todo, seen = ["cli"], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        todo += [node.module for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1]
    return sorted(seen)


def sum_calls(tree):
    """(line, enclosing function) of each call of the name sum."""
    calls = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum"):
            calls.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return calls


def test_no_float_sum_on_the_run_path():
    assert sum_calls(ast.parse("def f(xs):\n    return sum(xs)\n")) == [
        (2, "f")]
    modules = run_path_modules()
    assert {"cli", "energy", "node", "simkernel", "trace"} <= set(modules)
    assert "calibration" not in modules
    found, allowed = [], set()
    for name in modules:
        path = ROOT / "src" / "luxnet" / f"{name}.py"
        for line, where in sum_calls(ast.parse(path.read_text("utf-8"))):
            if (name, where) in INTEGER_SUMS:
                allowed.add((name, where))
            else:
                found.append(f"{name}.py:{line}: sum() in {where}")
    assert found == []
    # an allow-list entry whose call went away is dropped with it
    assert allowed == INTEGER_SUMS


def package_imports(name):
    """(module, names) of each `from .module import names` in a package
    module, at module level or inside a function."""
    tree = ast.parse((ROOT / "src" / "luxnet" / f"{name}.py").read_text(
        encoding="utf-8"))
    return [(node.module, {alias.name for alias in node.names})
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1]


def test_the_outputs_import_neither_the_kernel_nor_the_cli():
    # the trace format and its renderers sit below the kernel: simkernel
    # builds trace's data classes, and cli reads both
    assert {module for module, _ in package_imports("trace")} <= {
        "energy", "node"}


def test_cli_imports_vec3_from_where_it_is_defined():
    sources = [module for module, names in package_imports("cli")
               if "Vec3" in names]
    assert sources == ["channel"]


def storage_law_uses(tree):
    """(line, what) of each storage-law term outside energy: an import of
    the capacitance or the clamp's ceiling, the leak added or
    subtracted, and a write to a storage's energy or voltage."""
    found = [(node.lineno, f"imports {alias.name}")
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names
             if alias.name in ("STORAGE_CAPACITANCE_F", "STORAGE_FULL_J")]
    found += [(node.lineno, "adds or subtracts LEAK_POWER_W")
              for node in ast.walk(tree) if isinstance(node, ast.BinOp)
              and isinstance(node.op, (ast.Add, ast.Sub))
              and any(isinstance(side, ast.Name) and side.id == "LEAK_POWER_W"
                      for side in (node.left, node.right))]
    found += [(node.lineno, f"writes .{node.attr}")
              for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and node.attr in ("energy", "voltage")]
    return sorted(found)


def test_only_energy_evaluates_the_storage_law():
    # the clamp, the capacitance, the net and drain of the leak and the
    # energy of a voltage band are written in energy alone, whose
    # functions the kernel, the nodes, the trace and the calibration
    # call, and only energy's storage_step moves a storage's state
    assert storage_law_uses(ast.parse(
        "from .energy import STORAGE_FULL_J\n"
        "drain = p + LEAK_POWER_W - h\nnet = h - p - LEAK_POWER_W\n"
        "leaked = ticks * (LEAK_POWER_W * dt)\n"
        "node.storage.voltage = v\ncap.energy, agg.energy_j = e, e\n")) == [
        (1, "imports STORAGE_FULL_J"), (2, "adds or subtracts LEAK_POWER_W"),
        (3, "adds or subtracts LEAK_POWER_W"), (5, "writes .voltage"),
        (6, "writes .energy")]
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "energy.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.relative_to(ROOT)}:{line}: {what}"
                  for line, what in storage_law_uses(tree)]
    # and neither the kernel nor the trace takes the closed form's root
    for name in ("simkernel", "trace"):
        tree = ast.parse((ROOT / "src" / "luxnet" / f"{name}.py").read_text(
            encoding="utf-8"))
        found += [f"{name}.py:{node.lineno}: sqrt" for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and "sqrt" in (getattr(node, "id", None),
                                 getattr(node, "attr", None))]
    assert found == []
