"""The package's source inventory, read with ast: every import is used, the
tape exports exactly the ops that record, each with a caller, and every
settings class checks its fields through the one declared-range check.

perfbench's tracer wraps every name in diff_engine.__all__ and the imports
marked ``# noqa: F401``, so a missing export goes untraced and an unused one
is wrapped for nothing.
"""

import ast
from pathlib import Path

from drotemp import diff_engine as de

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


def test_every_export_has_a_caller():
    read = set()
    for stem, tree in TREES.items():
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "diff_engine"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "de":
                read.add(node.attr)
            elif isinstance(node, ast.Name) and (stem == "diff_engine" or node.id in imported):
                read.add(node.id)
    assert set(de.__all__) - read == set()


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
