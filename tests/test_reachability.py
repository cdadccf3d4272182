"""Nothing in ``src/`` that no run can reach.

The checks read the source as syntax trees and import nothing:

* every module is imported by another ``src/`` module — not merely
  re-exported by a package ``__init__`` — or is on :data:`ALLOWED` with the
  reason nothing imports it;
* every :class:`~repro.config.ProtocolConfig` field is read somewhere outside
  ``config.py``, so no knob is accepted and then ignored;
* every name a module imports is used in it or exported by its ``__all__``;
* every public top-level class or function of ``src/repro``, and every public
  method or property of a top-level class, is referenced from ``src/``,
  ``perf/`` or ``examples/`` outside its own definition, or is on
  :data:`NAMES_WIRED_NEXT` or :data:`PAPER_FORMULAS` with its reason.
"""

from __future__ import annotations

import ast
import asyncio
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
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


# -- Name-level reachability -------------------------------------------------
#
# A name is *used* when a file under one of USING_DIRS loads it outside its
# own definition: a top-level class or function as a bare name or an
# attribute, a method or property as an attribute (``x.name``, or the literal
# name in ``getattr`` / ``hasattr``), or either as the source of an
# ``import ... as`` rename.  What tests and benchmarks reference does not
# count, and neither do ``__all__`` strings or the import that re-exports a
# name from a package ``__init__``: neither runs anything.

USING_DIRS = ("src", "perf", "examples")

#: Callbacks asyncio's event loop calls on a protocol object.  A method of
#: that name on an ``asyncio`` protocol subclass is used by the loop.
ASYNCIO_CALLBACKS = frozenset(
    name
    for base in (asyncio.Protocol, asyncio.BufferedProtocol)
    for name in dir(base)
    if not name.startswith("_")
)
_ASYNCIO_PROTOCOLS = {"Protocol", "BufferedProtocol", "BaseProtocol"}

#: Names an open ROADMAP item wires next; each entry names the item.
NAMES_WIRED_NEXT: dict[str, str] = {
    "ClockRsmState.commit_status": "item 5: commit-condition attribution reads it",
    "StateMachine.restore": "item 10: snapshot install on rejoin calls it",
    "NullStateMachine.restore": "item 10: snapshot install on rejoin calls it",
    "AppendLogStateMachine.restore": "item 10: snapshot install on rejoin calls it",
    "KVStateMachine.restore": "item 10: snapshot install on rejoin calls it",
}

#: The paper's closed-form latencies that the figure suite
#: (``benchmarks/test_paper_figures.py``) asserts measured runs against.
PAPER_FORMULAS: dict[str, str] = {
    "clock_rsm_light_imbalanced": "the CLOCKTIME ablation's predicted latency, with and without Δ",
}


@dataclass
class _Definition:
    """One public name: where it is defined and how a use of it reads."""

    qualname: str
    path: Path
    #: The lines of its definition (one span per ``def``, decorators included).
    spans: list[tuple[int, int]]
    #: A method or property, used only as an attribute.
    method: bool

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    def contains(self, path: Path, line: int) -> bool:
        return path == self.path and any(lo <= line <= hi for lo, hi in self.spans)


def _span(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> tuple[int, int]:
    return min([node.lineno, *(d.lineno for d in node.decorator_list)]), node.end_lineno


def _is_asyncio_protocol(cls: ast.ClassDef, protocols: set[str]) -> bool:
    for base in cls.bases:
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            if base.value.id == "asyncio" and base.attr in _ASYNCIO_PROTOCOLS:
                return True
        if isinstance(base, ast.Name) and base.id in protocols:
            return True
    return False


def _definitions(package: Path) -> dict[str, _Definition]:
    """Every public top-level name of *package*, and every public method or
    property of its top-level classes, by qualified name (``Class.method``).

    Methods an ``asyncio`` protocol subclass defines for the event loop to
    call (:data:`ASYNCIO_CALLBACKS`) are left out: the loop is their caller.
    """
    found: dict[str, _Definition] = {}

    def add(qualname: str, path: Path, node, method: bool) -> None:
        if qualname in found:  # a property's setter, a conditional def
            found[qualname].spans.append(_span(node))
        else:
            found[qualname] = _Definition(qualname, path, [_span(node)], method)

    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(package.rglob("*.py")):
        protocols: set[str] = set()
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, defs):
                continue
            if not node.name.startswith("_"):
                add(node.name, path, node, method=False)
            if not isinstance(node, ast.ClassDef):
                continue
            callbacks: frozenset[str] = frozenset()
            if _is_asyncio_protocol(node, protocols):
                protocols.add(node.name)
                callbacks = ASYNCIO_CALLBACKS
            for member in node.body:
                if (
                    isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not member.name.startswith("_")
                    and member.name not in callbacks
                ):
                    add(f"{node.name}.{member.name}", path, member, method=True)
    return found


def _references(root: Path) -> dict[str, list[tuple[Path, int, bool]]]:
    """Each name loaded under *root*'s :data:`USING_DIRS`: the files and lines
    that load it, and whether as an attribute (``x.name``)."""
    refs: dict[str, list[tuple[Path, int, bool]]] = {}
    for directory in USING_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.setdefault(node.id, []).append((path, node.lineno, False))
                elif isinstance(node, ast.Attribute):
                    refs.setdefault(node.attr, []).append((path, node.lineno, True))
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)
                ):
                    refs.setdefault(node.args[1].value, []).append((path, node.lineno, True))
                elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                    for alias in node.names:
                        if alias.asname not in (None, alias.name):
                            refs.setdefault(alias.name, []).append((path, node.lineno, False))
    return refs


def _is_used(definition: _Definition, refs: dict[str, list[tuple[Path, int, bool]]]) -> bool:
    return any(
        (attribute or not definition.method) and not definition.contains(path, line)
        for path, line, attribute in refs.get(definition.name, ())
    )


def unused_names(root: Path) -> list[str]:
    """Public names of ``root/src/repro`` that nothing under *root*'s
    :data:`USING_DIRS` uses, by qualified name."""
    refs = _references(root)
    return sorted(
        qualname
        for qualname, definition in _definitions(root / "src" / "repro").items()
        if not _is_used(definition, refs)
    )


def stale_allowlist_entries(root: Path, allowlist: dict[str, str]) -> list[str]:
    """Entries of *allowlist* that name nothing, lack a reason, or whose
    name gained a real use (so its reason no longer holds)."""
    defined = _definitions(root / "src" / "repro")
    unused = set(unused_names(root))
    return sorted(
        name
        for name, reason in allowlist.items()
        if name not in defined or name not in unused or not reason.strip()
    )


def test_every_public_name_is_used_outside_tests_or_allowed():
    allowed = set(NAMES_WIRED_NEXT) | set(PAPER_FORMULAS)
    unused = [name for name in unused_names(ROOT) if name not in allowed]
    assert unused == [], f"public names only tests and benchmarks (or nothing) reach: {unused}"


def test_no_allowlisted_name_is_used_after_all():
    assert stale_allowlist_entries(ROOT, {**NAMES_WIRED_NEXT, **PAPER_FORMULAS}) == []


def _tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


_SYNTHETIC_SRC = {
    "src/repro/__init__.py": (
        "from .mod import Store, exported\n"
        '__all__ = ["Store", "exported", "Store.only_tested"]\n'
    ),
    "src/repro/mod.py": (
        "import asyncio\n"
        "\n"
        "class Store:\n"
        "    def only_tested(self): ...\n"
        "    def from_perf(self): ...\n"
        "    def from_examples(self): ...\n"
        "    def recursive(self):\n"
        "        return self.recursive()\n"
        "    def _private(self): ...\n"
        "\n"
        "class _Conn(asyncio.BufferedProtocol):\n"
        "    def get_buffer(self, sizehint): ...\n"
        "    def buffer_updated(self, nbytes): ...\n"
        "    def extra(self): ...\n"
        "\n"
        "def exported(): ...\n"
        "\n"
        "def run():\n"
        "    return Store()\n"
        "\n"
        "run()\n"
    ),
    "tests/test_mod.py": (
        "from repro.mod import Store, exported\n"
        "Store().only_tested()\n"
        "exported()\n"
    ),
    "perf/bench.py": "from repro.mod import Store\nStore().from_perf()\n",
    "examples/demo.py": "import repro.mod\nrepro.mod.Store().from_examples()\n",
}


def test_the_name_scan_counts_only_uses_outside_tests(tmp_path):
    root = _tree(tmp_path, _SYNTHETIC_SRC)
    assert unused_names(root) == [
        # only a tests/ file calls it
        "Store.only_tested",
        # calling itself is not a use
        "Store.recursive",
        # a method asyncio does not call
        "_Conn.extra",
        # an __all__ string and an __init__ re-export are not uses
        "exported",
    ]


def test_an_allowlist_entry_goes_stale_when_its_name_goes_or_gains_a_caller(tmp_path):
    root = _tree(tmp_path, _SYNTHETIC_SRC)
    allowlist = {
        "Store.only_tested": "wired next",
        "Store.from_perf": "has a caller in perf/ now",
        "Store.renamed": "names nothing",
        "exported": "",
    }
    stale = stale_allowlist_entries(root, allowlist)
    assert stale == ["Store.from_perf", "Store.renamed", "exported"]


def test_a_use_from_benchmarks_does_not_count(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "class Store:\n    def benched(self): ...\n",
        "benchmarks/test_figures.py": "from repro.mod import Store\nStore().benched()\n",
        "perf/run.py": "from repro.mod import Store\nStore()\n",
    })
    assert unused_names(root) == ["Store.benched"]


def test_a_property_is_a_name_like_a_method(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "class Box:\n"
            "    @property\n"
            "    def size(self): ...\n"
            "    @size.setter\n"
            "    def size(self, value): ...\n"
            "    @property\n"
            "    def width(self): ...\n"
        ),
        "tests/test_box.py": "from repro.mod import Box\nBox().size = Box().width\n",
        "perf/run.py": "from repro.mod import Box\nprint(Box().width)\n",
    })
    assert unused_names(root) == ["Box.size"]


def test_a_subclass_of_a_local_asyncio_protocol_keeps_the_callback_rule(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/conn.py": (
            "import asyncio\n"
            "\n"
            "class _Base(asyncio.Protocol):\n"
            "    def connection_made(self, transport): ...\n"
            "\n"
            "class _Peer(_Base):\n"
            "    def data_received(self, data): ...\n"
            "    def flush(self): ...\n"
            "\n"
            "_Peer()\n"
        ),
    })
    assert unused_names(root) == ["_Peer.flush"]


def test_getattr_by_name_and_an_aliased_import_count_as_uses(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "class Store:\n"
            "    def looked_up(self): ...\n"
            "    def never(self): ...\n"
            "\n"
            "def helper(): ...\n"
        ),
        "src/repro/user.py": (
            "from .mod import Store, helper as run_helper\n"
            "\n"
            'getattr(Store(), "looked_up")()\n'
            "run_helper()\n"
        ),
    })
    assert unused_names(root) == ["Store.never"]
