"""Nothing in ``src/`` that no run can reach.

The checks read the source as syntax trees and import nothing:

* every module is imported by another ``src/`` module — not merely
  re-exported by a package ``__init__`` — or is on :data:`ALLOWED` with the
  reason nothing imports it;
* every :class:`~repro.config.ProtocolConfig` field is read somewhere outside
  ``config.py``, so no knob is accepted and then ignored;
* every name a module imports is used in it or exported by its ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"

#: Modules no other ``src/`` module imports, each with the reason it stays.
ALLOWED: dict[str, str] = {
    "repro.cli": "entry point: python -m repro.cli and the console script",
    "repro.launch.worker": "entry point: the proc backend spawns python -m repro.launch.worker",
    "repro.runtime.client": "scripting client: ReplicatedKVClient for scripts and examples",
    "repro.kvstore.client": "scripting client: SimKVClient for scripts and examples",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.rglob("*.py"))}


def _imported_modules(path: Path, tree: ast.Module) -> set[str]:
    """Every module name *tree* imports, relative imports resolved."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            names.add(module)
            # ``from pkg import name`` imports pkg.name when it is a module.
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def _imported_by_modules(trees: dict[Path, ast.Module]) -> set[str]:
    """Every module name a non-``__init__`` module of *trees* imports."""
    imported: set[str] = set()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            imported |= _imported_modules(path, tree)
    return imported


def test_every_module_is_imported_by_a_module_or_allowed():
    trees = _trees()
    imported = _imported_by_modules(trees)
    modules = {_module_name(path) for path in trees if path.name != "__init__.py"}
    unreached = sorted(modules - imported - set(ALLOWED))
    assert unreached == [], f"modules only a package __init__ (or nothing) imports: {unreached}"


def test_the_allowlist_names_real_modules_with_reasons():
    modules = {_module_name(path) for path in _trees()}
    assert set(ALLOWED) <= modules
    assert all(reason.strip() for reason in ALLOWED.values())


def test_no_allowlisted_module_is_imported_after_all():
    # An entry whose module gained an importer no longer needs its reason.
    imported = _imported_by_modules(_trees())
    assert sorted(set(ALLOWED) & imported) == []


def _protocol_config_fields() -> list[str]:
    tree = ast.parse((PACKAGE / "config.py").read_text())
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ProtocolConfig"
    ]  # fmt: skip
    return [
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def test_every_protocol_config_field_is_read_outside_config():
    fields = _protocol_config_fields()
    assert "clocktime_interval" in fields
    read: set[str] = set()
    for path, tree in _trees().items():
        if path == PACKAGE / "config.py":
            continue
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    unread = [name for name in fields if name not in read]
    assert unread == [], f"ProtocolConfig fields nothing reads: {unread}"


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement in *tree* binds, with its line."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    """Every name *tree* loads, string annotations and ``__all__`` included."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotation = None
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        if annotation is not None:
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _used_names(ast.parse(part.value, mode="eval"))
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        )
        if is_all and isinstance(node.value, (ast.List, ast.Tuple)):
            used.update(
                element.value for element in node.value.elts
                if isinstance(element, ast.Constant)
            )
    return used


def test_every_imported_name_is_used_or_exported():
    unused = []
    for path, tree in _trees().items():
        if path.name == "__init__.py":
            continue
        used = _used_names(tree)
        unused += [
            f"{path.relative_to(SRC)}:{line} {name}"
            for name, line in sorted(_bound_names(tree).items())
            if name not in used
        ]
    assert unused == [], f"imported names the module never uses: {unused}"
