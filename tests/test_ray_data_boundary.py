"""Where the core imports Ray Data: the job, ``state/``, ``sources/`` and
``stages/`` import ``ray.data`` only in the functions pinned here, so a
new import site is added to this list on purpose."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / \
    "json_time_series_extractor_ray"

#: ``{module path: functions that import ray.data}``
ALLOWED = {
    "state/checkpoint.py": {"_to_arrow", "_as_block", "data_context",
                            "_from_arrow_refs"},
    "sources/parquet.py": {"_read_group", "read_decoded"},
}


def _imports_ray_data(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "ray.data" or a.name.startswith("ray.data.")
                   for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        module = node.module or ""
        return (module == "ray.data" or module.startswith("ray.data.")
                or module == "ray" and any(a.name == "data"
                                           for a in node.names))
    return False


def _importers(source: str) -> set:
    """The qualified names of the functions (``<module>`` for the module
    body) of a module's ``source`` that import ``ray.data``."""
    found = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if _imports_ray_data(child):
                found.add(owner or "<module>")
            walk(child, owner)

    walk(ast.parse(source), "")
    return found


def test_ray_data_import_sites_are_pinned():
    files = [PKG / "job.py", *sorted(
        p for d in ("state", "sources", "stages")
        for p in (PKG / d).glob("*.py"))]
    found = {str(p.relative_to(PKG)): names for p in files
             if (names := _importers(p.read_text()))}
    assert found == ALLOWED


def test_the_walk_finds_every_import_form():
    import textwrap

    src = textwrap.dedent("""
        import ray.data
        def f():
            from ray.data.context import DataContext
        class C:
            def m(self):
                from ray import data
        def g():
            import ray
            return ray.data
    """)
    assert _importers(src) == {"<module>", "f", "C.m"}
