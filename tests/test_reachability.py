"""Nothing in ``src/`` that no run can reach.

The checks read the source as syntax trees and import nothing:

* every module is imported by another ``src/`` module — not merely
  re-exported by a package ``__init__`` — or is on :data:`ALLOWED` with the
  reason nothing imports it;
* every :class:`~repro.config.ProtocolConfig` field is read somewhere outside
  ``config.py``, so no knob is accepted and then ignored, and is passed by
  keyword from ``src/``, ``perf/`` or ``examples/``, so no knob only tests set;
* every name a module imports is used in it or exported by its ``__all__``;
* every public top-level class or function of ``src/repro``, and every public
  method or property of a top-level class, is referenced by code that runs
  (see "Name-level reachability" below), or is on :data:`NAMES_WIRED_NEXT`
  or :data:`PAPER_FORMULAS` with its reason.

``python tests/test_reachability.py`` prints how many names the check covers
and every allowlist entry with its reason.
"""

from __future__ import annotations

import ast
import asyncio
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: Where code that runs lives; ``tests/`` and ``benchmarks/`` only check it.
USING_DIRS = ("src", "perf", "examples")

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
    # Read in src/, and set by keyword (``ProtocolConfig(leader=...)``,
    # ``replace(config, ...)``) by code that runs: a field only tests set is
    # a switch no spec can flip.
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
    passed: set[str] = set()
    for directory in USING_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            if path != PACKAGE / "config.py":
                tree = ast.parse(path.read_text(), str(path))
                passed.update(node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword))
    unread = [name for name in fields if name not in read]
    assert unread == [], f"ProtocolConfig fields nothing reads: {unread}"
    unset = [name for name in fields if name not in passed]
    assert unset == [], f"ProtocolConfig fields only tests set: {unset}"


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
# A name is *used* when code that runs references it.  Code that runs —
# *live* code — is module-level code under ``src/`` (class bodies, decorators
# and default values too: importing runs them), any code under ``perf/`` and
# ``examples/``, and the body of a definition that is used, allowlisted, or
# called by Python or asyncio rather than by name (a dunder method, an asyncio
# protocol callback).  Liveness is computed to a fixpoint: two definitions
# that only call each other stay unused, and so does one whose only caller is
# unused.
#
# A reference is a bare name (it reaches top-level classes and functions), an
# attribute load, the literal name in ``getattr`` / ``hasattr``, or the source
# of an ``import ... as`` rename.  The receiver decides what an attribute
# reaches: ``self.name`` / ``cls.name`` inside class C reaches the methods of
# C, its bases and its subclasses; any other receiver reaches every
# definition of the name, since its type is unknown.  Storing to an attribute
# (``x.name = value``) is not a use.  What tests and benchmarks reference does
# not count, and neither do ``__all__`` strings or the import that re-exports
# a name from a package ``__init__``: neither runs anything.

#: Callbacks asyncio's event loop calls on a protocol object.  A method of
#: that name on an ``asyncio`` protocol subclass is called by the loop.
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


@dataclass(frozen=True)
class _Ref:
    """One reference to a name."""

    name: str
    #: An attribute (``x.name``), not a bare name.
    attribute: bool
    #: The class C of a ``self`` / ``cls`` receiver inside C; None if unknown.
    receiver: Optional[str] = None


@dataclass
class _Definition:
    """A top-level class or function of ``src/repro``, or a method of a
    top-level class, and the references its body makes."""

    qualname: str
    #: The class of a method; None for a top-level name.
    owner: Optional[str]
    #: Checked: public, and not an asyncio callback.
    public: bool
    #: Run without a caller naming it: a dunder or an asyncio callback.
    implicit: bool
    refs: list[_Ref]

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]


def _receiver(node: ast.Attribute, owner: Optional[str]) -> Optional[str]:
    value = node.value
    if owner is not None and isinstance(value, ast.Name) and value.id in ("self", "cls"):
        return owner
    return None


def _refs(nodes, owner: Optional[str], reexports: bool) -> list[_Ref]:
    """The references in *nodes*; ``self`` / ``cls`` there are instances of
    *owner*.  A package ``__init__``'s imports (*reexports*) are not uses."""
    refs: list[_Ref] = []
    for node in (part for top in nodes for part in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append(_Ref(node.id, False))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.append(_Ref(node.attr, True, _receiver(node, owner)))
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            # ``x.name += 1`` reads the attribute before it stores it.
            refs.append(_Ref(node.target.attr, True, _receiver(node.target, owner)))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            refs.append(_Ref(node.args[1].value, True))
        elif isinstance(node, ast.ImportFrom) and not reexports:
            refs.extend(
                _Ref(alias.name, False)
                for alias in node.names
                if alias.asname not in (None, alias.name)
            )
    return refs


def _header(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> list[ast.AST]:
    """What a ``def`` or ``class`` statement evaluates where it stands."""
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords]
    return [*node.decorator_list, node.args, *([node.returns] if node.returns else [])]


def _base_name(base: ast.expr) -> Optional[str]:
    if isinstance(base, ast.Subscript):  # Generic[T]
        base = base.value
    if isinstance(base, ast.Attribute):
        return base.attr
    return base.id if isinstance(base, ast.Name) else None


def _is_asyncio_protocol(cls: ast.ClassDef, protocols: set[str]) -> bool:
    for base in cls.bases:
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            if base.value.id == "asyncio" and base.attr in _ASYNCIO_PROTOCOLS:
                return True
        if isinstance(base, ast.Name) and base.id in protocols:
            return True
    return False


class _Source:
    """What the name check reads under *root*: the references live code makes
    unconditionally, every definition of ``src/repro`` with its body's
    references, and each class's bases (by name)."""

    def __init__(self, root: Path) -> None:
        self.live: list[_Ref] = []
        self.definitions: list[_Definition] = []
        self.bases: dict[str, set[str]] = {}
        self._related: dict[str, set[str]] = {}
        package = root / "src" / "repro"
        for directory in USING_DIRS:
            for path in sorted((root / directory).rglob("*.py")):
                tree = ast.parse(path.read_text(), str(path))
                reexports = path.name == "__init__.py"
                if path.is_relative_to(package):
                    self._read_module(tree, reexports)
                else:
                    self.live += _refs([tree], None, reexports)

    def _define(
        self,
        qualname: str,
        owner: Optional[str],
        node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef,
        reexports: bool,
        callbacks: frozenset[str] = frozenset(),
    ) -> None:
        """Record *node*: its header runs where it stands, its body (a
        function's; a class body runs on import) once it is used."""
        name = node.name
        dunder = name.startswith("__") and name.endswith("__")
        self.live += _refs(_header(node), owner, reexports)
        body = [] if isinstance(node, ast.ClassDef) else node.body
        self.definitions.append(_Definition(
            qualname,
            owner,
            public=not name.startswith("_") and name not in callbacks,
            implicit=dunder or name in callbacks,
            refs=_refs(body, owner, reexports),
        ))

    def _read_module(self, tree: ast.Module, reexports: bool) -> None:
        protocols: set[str] = set()
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for node in tree.body:
            if not isinstance(node, defs):
                self.live += _refs([node], None, reexports)
                continue
            self._define(node.name, None, node, reexports)
            if not isinstance(node, ast.ClassDef):
                continue
            self.bases.setdefault(node.name, set()).update(
                filter(None, map(_base_name, node.bases))
            )
            callbacks: frozenset[str] = frozenset()
            if _is_asyncio_protocol(node, protocols):
                protocols.add(node.name)
                callbacks = ASYNCIO_CALLBACKS
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._define(
                        f"{node.name}.{member.name}", node.name, member, reexports, callbacks
                    )
                else:  # the class body runs on import
                    self.live += _refs([member], node.name, reexports)

    def _ancestors(self, cls: str) -> set[str]:
        found, stack = {cls}, [cls]
        while stack:
            for base in self.bases.get(stack.pop(), ()):
                if base not in found:
                    found.add(base)
                    stack.append(base)
        return found

    def related(self, cls: str) -> set[str]:
        """The classes whose method ``self.name`` may run inside *cls*: *cls*,
        its subclasses, and the bases of each."""
        if cls not in self._related:
            family = [other for other in self.bases if cls in self._ancestors(other)]
            self._related[cls] = set().union(*map(self._ancestors, family or [cls]))
        return self._related[cls]

    def reaches(self, ref: _Ref, definition: _Definition) -> bool:
        if not ref.attribute:
            return definition.owner is None
        return ref.receiver is None or definition.owner in self.related(ref.receiver)


def unused_names(root: Path, allowlist=()) -> list[str]:
    """Public names of ``root/src/repro`` that no live code under *root*'s
    :data:`USING_DIRS` references, by qualified name (``Class.method``).

    The bodies of *allowlist*'s names are live, so what they call is used.
    """
    source = _Source(root)
    by_name: dict[str, list[_Definition]] = {}
    for definition in source.definitions:
        by_name.setdefault(definition.name, []).append(definition)
    pending = list(source.live)
    for definition in source.definitions:
        if definition.implicit or definition.qualname in allowlist:
            pending += definition.refs
    used: set[int] = set()
    while pending:
        ref = pending.pop()
        for definition in by_name.get(ref.name, ()):
            if id(definition) not in used and source.reaches(ref, definition):
                used.add(id(definition))
                pending += definition.refs
    return sorted({
        definition.qualname
        for definition in source.definitions
        if definition.public and id(definition) not in used
    })


def public_names(root: Path) -> set[str]:
    """Every name the check covers: the public definitions of ``root/src/repro``."""
    return {d.qualname for d in _Source(root).definitions if d.public}


def stale_allowlist_entries(root: Path, allowlist: dict[str, str]) -> list[str]:
    """Entries of *allowlist* that name nothing, lack a reason, or whose
    name gained a real use (so its reason no longer holds)."""
    defined = public_names(root)
    unused = set(unused_names(root, allowlist))
    return sorted(
        name
        for name, reason in allowlist.items()
        if name not in defined or name not in unused or not reason.strip()
    )


def test_every_public_name_is_used_outside_tests_or_allowed():
    allowlist = {**NAMES_WIRED_NEXT, **PAPER_FORMULAS}
    unused = [name for name in unused_names(ROOT, allowlist) if name not in allowlist]
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
        "    def ping(self):\n"
        "        return self.pong()\n"
        "    def pong(self):\n"
        "        return self.ping()\n"
        "    def _private(self): ...\n"
        "\n"
        "class Network:\n"
        "    def isolate(self): ...\n"
        "    @property\n"
        "    def latency(self): ...\n"
        "\n"
        "class Cluster:\n"
        "    def __init__(self):\n"
        "        self.network = Network()\n"
        "        self.network.latency = 0\n"
        "    def isolate(self):\n"
        "        self.network.isolate()\n"
        "    def close(self): ...\n"
        "    def stop(self):\n"
        "        self.close()\n"
        "\n"
        "class Log:\n"
        "    def close(self): ...\n"
        "\n"
        "class _Conn(asyncio.BufferedProtocol):\n"
        "    def get_buffer(self, sizehint): ...\n"
        "    def buffer_updated(self, nbytes): ...\n"
        "    def extra(self): ...\n"
        "\n"
        "def exported(): ...\n"
        "\n"
        "def run():\n"
        "    Cluster().stop()\n"
        "    return Store()\n"
        "\n"
        "run()\n"
    ),
    "tests/test_mod.py": (
        "from repro.mod import Cluster, Log, Store, exported\n"
        "Store().only_tested()\n"
        "Store().ping()\n"
        "Cluster().isolate()\n"
        "Log().close()\n"
        "exported()\n"
    ),
    "perf/bench.py": "from repro.mod import Log, Store\nStore().from_perf()\nLog()\n",
    "examples/demo.py": "import repro.mod\nrepro.mod.Store().from_examples()\n",
}


def test_the_name_scan_counts_only_uses_outside_tests(tmp_path):
    root = _tree(tmp_path, _SYNTHETIC_SRC)
    assert unused_names(root) == [
        # only a tests/ file calls it
        "Cluster.isolate",
        # a self.close() in Cluster reaches only Cluster's close
        "Log.close",
        # its one caller is only tested
        "Network.isolate",
        # storing to an attribute is not a use
        "Network.latency",
        "Store.only_tested",
        # two methods that only call each other
        "Store.ping",
        "Store.pong",
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


def test_a_self_call_in_a_base_reaches_every_override(tmp_path):
    # ``self.hook()`` in Base may run a subclass's hook: every override is
    # used, and a class outside the family is not.
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "class Base:\n"
            "    def run(self):\n"
            "        return self.hook()\n"
            "    def hook(self): ...\n"
            "\n"
            "class Leaf(Base):\n"
            "    def hook(self): ...\n"
            "\n"
            "class Stranger:\n"
            "    def hook(self): ...\n"
            "\n"
            "Leaf().run()\n"
            "Stranger()\n"
        ),
    })
    assert unused_names(root) == ["Stranger.hook"]


def test_a_self_call_reaches_a_mixin_a_subclass_adds(tmp_path):
    # Inside Base, ``self`` may be a Leaf, so Leaf's other bases count too.
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "class Mixin:\n"
            "    def hook(self): ...\n"
            "\n"
            "class Base:\n"
            "    def run(self):\n"
            "        return self.hook()\n"
            "\n"
            "class Leaf(Base, Mixin): ...\n"
            "\n"
            "Leaf().run()\n"
            "Mixin()\n"
        ),
    })
    assert unused_names(root) == []


def test_a_cls_receiver_is_read_like_self(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "class Spec:\n"
            "    @classmethod\n"
            "    def load(cls):\n"
            "        return cls.parse()\n"
            "    @classmethod\n"
            "    def parse(cls): ...\n"
            "\n"
            "class Other:\n"
            "    def parse(self): ...\n"
            "\n"
            "Spec.load()\n"
            "Other()\n"
        ),
    })
    assert unused_names(root) == ["Other.parse"]


def test_bodies_python_calls_without_a_name_are_live(tmp_path):
    # A dunder runs when its class is used, a class body on import, an
    # augmented assignment reads before it stores.
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "def make_default(): ...\n"
            "\n"
            "class Box:\n"
            "    DEFAULT = make_default()\n"
            "    def __init__(self):\n"
            "        self.setup()\n"
            "    def setup(self): ...\n"
            "    @property\n"
            "    def count(self): ...\n"
            "    @count.setter\n"
            "    def count(self, value): ...\n"
            "\n"
            "box = Box()\n"
            "box.count += 1\n"
        ),
    })
    assert unused_names(root) == []


def test_what_an_allowlisted_name_calls_is_used(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "class Machine:\n"
            "    def restore(self, snapshot):\n"
            "        self.load(snapshot)\n"
            "    def load(self, snapshot): ...\n"
            "\n"
            "Machine()\n"
        ),
    })
    assert unused_names(root) == ["Machine.load", "Machine.restore"]
    assert unused_names(root, {"Machine.restore": "wired next"}) == ["Machine.restore"]
    assert stale_allowlist_entries(root, {"Machine.restore": "wired next"}) == []


def test_a_receiver_of_unknown_type_reaches_every_class_with_the_name(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "class Tcp:\n"
            "    def close(self): ...\n"
            "\n"
            "class Link:\n"
            "    def close(self): ...\n"
            "\n"
            "def shutdown(transport):\n"
            "    transport.close()\n"
            "\n"
            "shutdown(Tcp())\n"
            "Link()\n"
        ),
    })
    assert unused_names(root) == []


if __name__ == "__main__":
    # What the check covers, and every exception it makes, with its reason.
    print(f"{len(public_names(ROOT))} public names and {len(_trees())} modules checked")
    for entry, reason in {**ALLOWED, **NAMES_WIRED_NEXT, **PAPER_FORMULAS}.items():
        print(f"allowed: {entry} ({reason})")
