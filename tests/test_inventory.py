"""The package's source inventory, read with ast: every import is used, the
tape exports exactly the ops that record and its docstring names each
export, every export of the tape, dro_core and tau_solver, and every public
top-level function and class of models, tempnet, trainer, verify and errors,
has a caller, and every settings class checks its fields through the one
declared-range check.

perfbench's tracer wraps every name in diff_engine.__all__ and the imports
marked ``# noqa: F401``, so a missing export goes untraced and an unused one
is wrapped for nothing.
"""

import ast
import re
from pathlib import Path

from drotemp import diff_engine as de
from drotemp import dro_core, errors, models, tau_solver, tempnet, trainer, verify

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {
    path.stem: path.read_text(encoding="utf-8")
    for path in sorted((ROOT / "src" / "drotemp").glob("*.py"))
}
TREES = {stem: ast.parse(source) for stem, source in SOURCES.items()}


def test_every_import_is_used_or_a_tracer_hook():
    spans = (ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8")
    unused, unhooked = [], []
    for stem, tree in TREES.items():
        lines = SOURCES[stem].splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound in read:
                    continue
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{stem}.py:{alias.lineno} {bound}")
                elif bound not in spans:
                    unhooked.append(f"{stem}.py:{alias.lineno} {bound}")
    assert unused == []
    assert unhooked == []  # kept unused only for the tracer, which names it


def test_every_export_is_named_in_the_tape_docstring():
    doc = ast.get_docstring(TREES["diff_engine"])
    assert [name for name in de.__all__ if not re.search(rf"\b{name}\b", doc)] == []


def test_every_op_that_records_is_exported():
    calls = {
        fn.name: {getattr(c.func, "id", None) for c in ast.walk(fn) if isinstance(c, ast.Call)}
        for fn in TREES["diff_engine"].body
        if isinstance(fn, ast.FunctionDef)
    }
    recording = {"_emit"}
    while True:  # a function records if it calls one that does
        grown = recording | {name for name, called in calls.items() if called & recording}
        if grown == recording:
            break
        recording = grown
    public = {name for name in recording if not name.startswith("_")}
    assert public - set(de.__all__) == set()


def exports(module):
    """module.__all__, or for a module without one, its public top-level
    functions and classes."""
    stem = module.__name__.rsplit(".", 1)[1]
    if hasattr(module, "__all__"):
        return stem, module.__all__
    return stem, [node.name for node in TREES[stem].body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")]


def test_every_export_has_a_caller():
    """An export is called when src/ reads it outside its own definition, or
    when a non-test file in perfbench/ names it."""
    named = set()  # "module.name" that perfbench imports or gives as a span name
    for path in (ROOT / "perfbench").glob("*.py"):
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("drotemp."):
                named |= {f"{node.module[len('drotemp.'):]}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    uncalled = []
    for module in (de, dro_core, tau_solver, models, tempnet, trainer, verify, errors):
        stem, names = exports(module)
        read = set()
        for tree_stem, tree in TREES.items():
            imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
            aliases = {alias.asname or alias.name for node in imports if node.module is None
                       for alias in node.names if alias.name == stem}
            imported = {alias.asname or alias.name for node in imports if node.module == stem
                        for alias in node.names}
            for stmt in tree.body:
                defined = {getattr(stmt, "name", None)} | {
                    target.id for target in getattr(stmt, "targets", [])
                    if isinstance(target, ast.Name)
                }
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
                        read.add(node.attr)
                    elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                          and node.id not in defined
                          and (tree_stem == stem or node.id in imported)):
                        read.add(node.id)
        uncalled += [f"{stem}.{name}" for name in names
                     if name not in read and f"{stem}.{name}" not in named]
    assert uncalled == []


def test_every_settings_class_checks_its_declared_ranges():
    settings, unchecked = [], []
    for stem, tree in TREES.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef)
                    and cls.name.endswith(("Config", "Task", "Options"))
                    and "dataclass(frozen=True)" in map(ast.unparse, cls.decorator_list)):
                continue
            settings.append(cls.name)
            post_init = [fn for fn in cls.body
                         if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"]
            called = {getattr(c.func, "id", None) for fn in post_init for c in ast.walk(fn)
                      if isinstance(c, ast.Call)}
            if "check_fields" not in called:
                unchecked.append(f"{stem}.{cls.name}")
    assert len(settings) >= 8, settings
    assert unchecked == []
