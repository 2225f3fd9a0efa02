"""Project-wide module index and call graph for flow-aware passes.

The statement-level rules in :mod:`repro_lint.rules` see one module at a
time; the passes in :mod:`repro_lint.passes` need to answer questions
like *"is this ``time.sleep`` transitively reachable from an ``async
def`` in ``repro.service`` without an executor hop?"* — which requires
resolving imports across the whole ``src/repro`` tree and knowing, for
every call site, what it targets and whether it crosses a concurrency
boundary.

The graph is deliberately syntactic and conservative:

* **module names** come from the path (everything after the last ``src``
  segment); files outside a ``src`` tree are indexed by stem;
* **imports** are resolved project-wide (``import a.b``, ``from a import
  b``, aliases, relative imports);
* **receiver types** are inferred only where it is safe: ``x = Cls(...)``
  locals, ``self.attr = Cls(...)`` assignments in ``__init__``, and
  parameter annotations;
* **boundaries** mark call sites whose function-valued arguments run on
  another thread or process (``run_in_executor``, ``asyncio.to_thread``,
  ``executor.submit``, ``Process(target=...)``): traversals must not
  walk through them, which is exactly what makes worker-side code
  invisible to the event-loop reachability pass.

Nothing here imports the code under analysis.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Call-site attribute names whose callable arguments execute on another
#: thread; reachability passes stop at these edges.
EXECUTOR_METHODS = frozenset({"run_in_executor", "submit", "apply_async"})

#: Callables that hand work to another thread without a receiver object.
EXECUTOR_FUNCTIONS = frozenset({"asyncio.to_thread", "to_thread"})

#: Constructor names that spawn a separate OS process (``target=`` runs
#: there, not on the caller's loop).
PROCESS_FACTORIES = frozenset({"Process", "Pool", "ProcessPoolExecutor"})


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(path: Path) -> Tuple[str, bool]:
    """Dotted module name for ``path`` and whether it is a package.

    Everything after the *last* ``src`` path segment becomes the module
    path (``src/repro/service/pool.py`` -> ``repro.service.pool``); files
    outside a ``src`` tree are indexed by stem alone. ``__init__.py``
    maps to its package name.
    """
    parts = list(path.parts)
    if "src" in parts:
        start = len(parts) - 1 - parts[::-1].index("src") + 1
        tail = parts[start:]
    else:
        tail = [parts[-1]]
    if not tail:
        return path.stem, False
    tail = list(tail)
    tail[-1] = Path(tail[-1]).stem
    if tail[-1] == "__init__":
        tail = tail[:-1] or [path.parent.name]
        return ".".join(tail), True
    return ".".join(tail), False


@dataclasses.dataclass
class CallSite:
    """One ``ast.Call`` inside a function body."""

    node: ast.Call
    #: The dotted callee as written (``loop.run_in_executor``), if any.
    raw_name: Optional[str]
    #: Fully-qualified target after import/receiver resolution, if known.
    resolved: Optional[str] = None
    #: ``"executor"`` / ``"process"`` when callable arguments escape the
    #: caller's thread of control; ``None`` for ordinary calls.
    boundary: Optional[str] = None

    @property
    def lineno(self) -> int:
        return self.node.lineno

    def target(self) -> Optional[str]:
        """Best name for classification: resolved if known, else raw."""
        return self.resolved or self.raw_name


@dataclasses.dataclass
class FunctionInfo:
    """One function/method with its outgoing call sites."""

    qualname: str
    module: "ModuleInfo"
    name: str
    node: FunctionNode
    is_async: bool
    class_name: Optional[str] = None
    calls: List[CallSite] = dataclasses.field(default_factory=list)
    #: Immediate nested function definitions (local-name -> qualname).
    locals_functions: Dict[str, str] = dataclasses.field(default_factory=dict)

    @property
    def path(self) -> Path:
        return self.module.path


@dataclasses.dataclass
class ModuleInfo:
    """Everything the graph knows about one parsed module."""

    name: str
    path: Path
    tree: ast.Module
    is_package: bool = False
    #: Local binding -> fully-qualified prefix (import table).
    imports: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Top-level class names defined here.
    classes: Set[str] = dataclasses.field(default_factory=set)
    #: Top-level function names defined here.
    top_functions: Set[str] = dataclasses.field(default_factory=set)
    #: ``Class.attr`` -> fully-qualified class of ``self.attr`` values.
    attr_types: Dict[str, str] = dataclasses.field(default_factory=dict)


class ProjectGraph:
    """Module index + resolved call graph over a set of parsed files."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: Fully-qualified class name -> set of method names.
        self.class_methods: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: Iterable[Tuple[Path, ast.Module]]) -> "ProjectGraph":
        """Index ``(path, tree)`` pairs and resolve every call site."""
        graph = cls()
        for path, tree in files:
            graph._index_module(path, tree)
        for module in graph.modules.values():
            graph._collect_attr_types(module)
        for function in list(graph.functions.values()):
            graph._resolve_calls(function)
        return graph

    def _index_module(self, path: Path, tree: ast.Module) -> None:
        name, is_package = module_name_for(path)
        module = ModuleInfo(name=name, path=path, tree=tree,
                            is_package=is_package)
        self.modules[name] = module
        self._collect_imports(module)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module.top_functions.add(node.name)
                self._index_function(module, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                module.classes.add(node.name)
                fq_class = f"{module.name}.{node.name}"
                methods = self.class_methods.setdefault(fq_class, set())
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods.add(item.name)
                        self._index_function(module, item, class_name=node.name)

    def _index_function(
        self,
        module: ModuleInfo,
        node: FunctionNode,
        class_name: Optional[str],
        parent: Optional[FunctionInfo] = None,
    ) -> FunctionInfo:
        if parent is not None:
            qualname = f"{parent.qualname}.<locals>.{node.name}"
        elif class_name is not None:
            qualname = f"{module.name}.{class_name}.{node.name}"
        else:
            qualname = f"{module.name}.{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            module=module,
            name=node.name,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_name=class_name,
        )
        self.functions[qualname] = info
        # Index nested defs so helper-indirection is still traversable.
        for child in iter_body_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = self._index_function(
                    module, child, class_name=class_name, parent=info
                )
                info.locals_functions[child.name] = nested.qualname
        return info

    def _collect_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.asname:
                        module.imports[item.asname] = item.name
                    else:
                        head = item.name.split(".")[0]
                        module.imports[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(module, node)
                if base is None:
                    continue
                for item in node.names:
                    if item.name == "*":
                        continue
                    binding = item.asname or item.name
                    module.imports[binding] = f"{base}.{item.name}"

    def _import_base(
        self, module: ModuleInfo, node: ast.ImportFrom
    ) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = module.name.split(".")
        if not module.is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop:
            parts = parts[:-drop] if drop <= len(parts) else []
        base = ".".join(parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base or None

    def _collect_attr_types(self, module: ModuleInfo) -> None:
        """Infer ``self.attr`` classes from ``__init__`` assignments."""
        for class_name in module.classes:
            init = self.functions.get(f"{module.name}.{class_name}.__init__")
            if init is None:
                continue
            for stmt in ast.walk(init.node):
                if not isinstance(stmt, ast.Assign):
                    continue
                if not isinstance(stmt.value, ast.Call):
                    continue
                fq_class = self._resolve_class(module, stmt.value.func)
                if fq_class is None:
                    continue
                for target in stmt.targets:
                    name = dotted_name(target)
                    if name and name.startswith("self."):
                        attr = name[len("self."):]
                        if "." not in attr:
                            module.attr_types[f"{class_name}.{attr}"] = fq_class

    def _resolve_class(
        self, module: ModuleInfo, func: ast.AST
    ) -> Optional[str]:
        """Fully-qualified class name if ``func`` constructs a known class."""
        name = dotted_name(func)
        if name is None:
            return None
        resolved = self._resolve_name(module, name)
        if resolved is None:
            return None
        if resolved in self.class_methods:
            return resolved
        return None

    def _resolve_name(
        self, module: ModuleInfo, name: str
    ) -> Optional[str]:
        """Resolve a dotted usage through the module's import table."""
        head, _, rest = name.partition(".")
        target = module.imports.get(head)
        if target is not None:
            return f"{target}.{rest}" if rest else target
        if head in module.top_functions or head in module.classes:
            local = f"{module.name}.{head}"
            return f"{local}.{rest}" if rest else local
        return None

    # ------------------------------------------------------------------
    # Call-site resolution
    # ------------------------------------------------------------------
    def _resolve_calls(self, function: FunctionInfo) -> None:
        module = function.module
        local_types = infer_local_types(function, self, module)
        for node in iter_body_nodes(function.node):
            for call in iter_calls_shallow(node):
                site = CallSite(node=call, raw_name=dotted_name(call.func))
                site.boundary = classify_boundary(site.raw_name, call)
                site.resolved = self._resolve_call_target(
                    function, module, call, site.raw_name, local_types
                )
                function.calls.append(site)

    def _resolve_call_target(
        self,
        function: FunctionInfo,
        module: ModuleInfo,
        call: ast.Call,
        raw: Optional[str],
        local_types: Dict[str, str],
    ) -> Optional[str]:
        if raw is None:
            return None
        head, _, rest = raw.partition(".")
        # Nested function defined inside this (or an enclosing) function.
        if not rest and raw in function.locals_functions:
            return function.locals_functions[raw]
        # self.method() / self.attr.method()
        if head == "self" and function.class_name is not None:
            fq_class = f"{module.name}.{function.class_name}"
            if "." not in rest:
                if rest in self.class_methods.get(fq_class, ()):
                    return f"{fq_class}.{rest}"
                return None
            attr, _, method = rest.partition(".")
            attr_class = module.attr_types.get(f"{function.class_name}.{attr}")
            if attr_class is not None and "." not in method:
                if method in self.class_methods.get(attr_class, ()):
                    return f"{attr_class}.{method}"
            return None
        # x.method() where x was assigned a known class instance.
        if rest and head in local_types:
            fq_class = local_types[head]
            if "." not in rest and rest in self.class_methods.get(fq_class, ()):
                return f"{fq_class}.{rest}"
            return None
        resolved = self._resolve_name(module, raw)
        if resolved is not None:
            # Calling a class means running its constructor.
            if resolved in self.class_methods:
                methods = self.class_methods[resolved]
                if "__init__" in methods:
                    return f"{resolved}.__init__"
            return resolved
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def async_functions(self) -> Iterator[FunctionInfo]:
        for info in self.functions.values():
            if info.is_async:
                yield info

    def resolve_to_function(self, target: Optional[str]) -> Optional[FunctionInfo]:
        """Map a resolved call target to a project function, if any.

        Calling a class traverses into both ``__init__`` and (for
        dataclasses) ``__post_init__`` — handled by the caller via
        :meth:`constructor_parts`.
        """
        if target is None:
            return None
        return self.functions.get(target)

    def constructor_parts(self, target: str) -> List[FunctionInfo]:
        """``__init__``/``__post_init__`` bodies run by constructing a class."""
        parts: List[FunctionInfo] = []
        if target.endswith(".__init__"):
            base = target[: -len(".__init__")]
            post = self.functions.get(f"{base}.__post_init__")
            if post is not None:
                parts.append(post)
        return parts


# ----------------------------------------------------------------------
# AST helpers shared with the dataflow layer
# ----------------------------------------------------------------------


def iter_body_nodes(function: FunctionNode) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/lambdas.

    Calls inside a nested ``def`` or ``lambda`` execute when *that*
    callable runs, not when the enclosing function does; collecting them
    here would make ``run_in_executor(..., lambda: blocking())`` look
    like an event-loop stall.
    """
    stack: List[ast.AST] = []
    for stmt in function.body:
        stack.append(stmt)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for child in ast.iter_child_nodes(node):
            stack.append(child)


def iter_calls_shallow(node: ast.AST) -> Iterator[ast.Call]:
    """Yield ``node`` itself when it is a Call (companion to
    :func:`iter_body_nodes`, which already walks shallowly)."""
    if isinstance(node, ast.Call):
        yield node


def classify_boundary(
    raw_name: Optional[str], call: ast.Call
) -> Optional[str]:
    """Boundary kind for one call site, or ``None``.

    ``"executor"`` — callable args run on a thread (sanctioned hop for
    blocking work); ``"process"`` — callable args run in another OS
    process (also where RNG streams must be spawned, not shared).
    """
    if raw_name is None:
        return None
    last = raw_name.rsplit(".", 1)[-1]
    if last in EXECUTOR_METHODS:
        return "executor"
    if raw_name in EXECUTOR_FUNCTIONS or last == "to_thread":
        return "executor"
    if last in PROCESS_FACTORIES:
        return "process"
    return None


def infer_local_types(
    function: FunctionInfo,
    graph: ProjectGraph,
    module: ModuleInfo,
) -> Dict[str, str]:
    """Map local variable names to fully-qualified classes where obvious.

    Sources: ``x = Cls(...)`` assignments and parameter annotations that
    name a project class. Intentionally flow-insensitive — good enough
    for method resolution in a linter.
    """
    types: Dict[str, str] = {}
    args = function.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.annotation is None:
            continue
        annotation = dotted_name(arg.annotation)
        if annotation is None:
            continue
        resolved = graph._resolve_name(module, annotation)
        if resolved in graph.class_methods:
            types[arg.arg] = resolved
    for node in iter_body_nodes(function.node):
        if not isinstance(node, ast.Assign) or not isinstance(
            node.value, ast.Call
        ):
            continue
        fq_class = graph._resolve_class(module, node.value.func)
        if fq_class is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                types[target.id] = fq_class
    return types
