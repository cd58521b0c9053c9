"""Pass-1 fact extraction for the interprocedural analysis engine.

The two-pass engine (see :mod:`repro.analyze.callgraph`) first reduces
every function in the package to a small record of *facts* — the only
things the concurrency rules (RPA010-013) need to reason about:

* lock acquisitions (``with some_lock:`` / ``some_lock.acquire()``),
  each annotated with the locks already held at that point;
* barrier waits (``barrier.wait(...)``);
* writes into :class:`~repro.parallel.shm.SharedArena` data regions
  (subscript stores and ``out=`` kernel arguments);
* RNG draws — legacy global-state calls, unseeded ``default_rng()``, and
  draw methods on generators that were not seeded locally;
* calls, each annotated with the locks held at the call site (so pass 2
  can propagate lock context through the call graph);
* worker spawn points (``multiprocessing`` ``Process(target=...)``,
  ``os.fork()``) and the ``@profiled`` decoration status.

Everything here is pure ``ast`` — no imports from the rest of the
package — so the extractor can run over arbitrary fixture trees in tests.

Lock identity
-------------
Locks are named, not object-tracked.  ``self.X`` inside class ``C``
becomes ``C.X``; a bare name resolves through the module's import table
(``module.NAME`` if local); any other ``obj.attr`` receiver becomes the
marker ``@attr:attr`` which pass 2 resolves to the unique lock-owning
class declaring that attribute (or leaves opaque).  This is the classic
lockset abstraction: all instances of one class attribute count as one
lock node in the order graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "ARENA_DATA_REGIONS",
    "ARENA_REGIONS",
    "CallSite",
    "LockAcquire",
    "ArenaWrite",
    "RngDraw",
    "SpawnSite",
    "Mutation",
    "FunctionFacts",
    "ClassFacts",
    "ModuleFacts",
    "collect_module_facts",
    "module_name_for",
]

#: SharedArena regions whose writes must be barrier-fenced (RPA011).
ARENA_DATA_REGIONS = frozenset({"plane", "grads", "losses"})
#: All SharedArena regions (timers/control are monitoring-only, exempt).
ARENA_REGIONS = ARENA_DATA_REGIONS | {"timers", "control"}

#: Name fragments that make an attribute/variable "a lock" for fact purposes.
_LOCKY = ("lock", "cond", "sem", "mutex")

#: np.random attributes that hit numpy's *global* RNG state (legacy API).
_GLOBAL_RNG_FNS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
        "choice", "shuffle", "permutation", "seed", "normal", "uniform",
        "standard_normal", "binomial", "poisson", "beta", "gamma", "exponential",
        "laplace", "bytes",
    }
)

#: Generator draw methods (``rng.normal(...)`` etc.).
_DRAW_METHODS = frozenset(
    {
        "random", "normal", "standard_normal", "uniform", "integers", "choice",
        "shuffle", "permutation", "permuted", "binomial", "poisson", "beta",
        "gamma", "exponential", "laplace", "bytes",
    }
)

#: Container-mutating method names (for RPA013's attribute-mutation facts).
_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popleft", "appendleft",
        "clear", "add", "discard", "update", "setdefault", "move_to_end", "sort",
    }
)


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path (``src/`` is stripped)."""
    parts = relpath.replace("\\", "/").split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_locky(name: str) -> bool:
    return any(frag in name.lower() for frag in _LOCKY)


def _creates_lock(value: ast.AST) -> bool:
    """Whether an assignment RHS constructs a lock (possibly wrapped, e.g.
    ``tracked_lock(threading.RLock(), ...)`` or a Condition over one)."""
    for sub in ast.walk(value):
        if isinstance(sub, ast.Call):
            name = _dotted(sub.func)
            if name and name.split(".")[-1] in (
                "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"
            ):
                return True
    return False


@dataclass
class CallSite:
    """One call expression: the raw dotted callee text + held locks."""

    name: str
    lineno: int
    held: tuple[str, ...] = ()


@dataclass
class LockAcquire:
    lock: str
    lineno: int
    held: tuple[str, ...] = ()
    via: str = "with"  # "with" | "acquire"


@dataclass
class ArenaWrite:
    region: str
    lineno: int
    kind: str = "store"  # "store" | "out-arg"


@dataclass
class RngDraw:
    kind: str  # "global" | "unseeded" | "ambient"
    name: str
    lineno: int


@dataclass
class SpawnSite:
    kind: str  # "process" | "fork"
    target: str | None  # raw dotted target text for Process(target=...)
    lineno: int


@dataclass
class Mutation:
    """A ``self.<attr>`` state mutation with the locks held around it."""

    attr: str
    lineno: int
    held: tuple[str, ...] = ()
    kind: str = "assign"  # "assign" | "method" | "delete"


@dataclass
class FunctionFacts:
    """Everything pass 2 knows about one function."""

    module: str
    relpath: str
    scope: str  # dotted scope within the module, e.g. "Cls.method"
    name: str
    lineno: int
    cls: str | None = None  # immediately enclosing class, if a method
    profiled: bool = False
    calls: list[CallSite] = field(default_factory=list)
    acquires: list[LockAcquire] = field(default_factory=list)
    barrier_waits: list[int] = field(default_factory=list)
    arena_writes: list[ArenaWrite] = field(default_factory=list)
    rng_draws: list[RngDraw] = field(default_factory=list)
    spawns: list[SpawnSite] = field(default_factory=list)
    mutations: list[Mutation] = field(default_factory=list)
    nested: list[str] = field(default_factory=list)  # scopes of nested defs

    @property
    def qualname(self) -> str:
        return f"{self.module}:{self.scope}"


@dataclass
class ClassFacts:
    name: str
    lineno: int
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    #: lock-creating attributes (``self._lock = threading.RLock()`` in
    #: ``__init__``, or dataclass fields with a lock default_factory).
    lock_attrs: dict[str, int] = field(default_factory=dict)


@dataclass
class ModuleFacts:
    relpath: str
    module: str
    #: local name -> absolute dotted target, for every import.
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)


# ---------------------------------------------------------------------- #
# extraction
# ---------------------------------------------------------------------- #


class _FactsVisitor(ast.NodeVisitor):
    """One walk of a module AST producing its :class:`ModuleFacts`."""

    def __init__(self, relpath: str, module: str):
        self.out = ModuleFacts(relpath=relpath, module=module)
        self._scope: list[str] = []
        self._class_stack: list[ClassFacts] = []
        self._func_stack: list[FunctionFacts] = []
        self._held: list[str] = []
        self._seeded: set[str] = set()  # dotted receivers seeded in this function

    # -- imports ------------------------------------------------------- #

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.asname and alias.name or alias.name.split(".")[0]
            # `import a.b.c` binds `a`; `import a.b.c as x` binds the full path.
            self.out.imports[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            # Relative import: resolve against this module's package.
            pkg_parts = self.out.module.split(".")
            # level 1 = current package (module's parent), 2 = its parent, ...
            base_parts = pkg_parts[: len(pkg_parts) - node.level]
            base = ".".join(base_parts + ([node.module] if node.module else []))
        else:
            base = node.module or ""
        for alias in node.names:
            local = alias.asname or alias.name
            self.out.imports[local] = f"{base}.{alias.name}" if base else alias.name

    # -- scopes -------------------------------------------------------- #

    def _scope_name(self) -> str:
        return ".".join(self._scope) if self._scope else "<module>"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        cf = ClassFacts(
            name=node.name,
            lineno=node.lineno,
            bases=[b for b in (_dotted(base) for base in node.bases) if b],
        )
        self.out.classes.setdefault(node.name, cf)
        self._scope.append(node.name)
        self._class_stack.append(cf)
        try:
            self.generic_visit(node)
        finally:
            self._class_stack.pop()
            self._scope.pop()
        # dataclass-style lock fields: `x: Lock = field(default_factory=Lock)`
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if stmt.value is not None and _creates_lock(stmt.value):
                    cf.lock_attrs.setdefault(stmt.target.id, stmt.lineno)
                else:
                    ann = _dotted(stmt.annotation)
                    if ann and _is_locky(ann.split(".")[-1]):
                        cf.lock_attrs.setdefault(stmt.target.id, stmt.lineno)

    def _visit_function(self, node) -> None:
        cls = self._class_stack[-1].name if (
            self._class_stack and self._scope and self._scope[-1] == self._class_stack[-1].name
        ) else None
        self._scope.append(node.name)
        facts = FunctionFacts(
            module=self.out.module,
            relpath=self.out.relpath,
            scope=self._scope_name(),
            name=node.name,
            lineno=node.lineno,
            cls=cls,
            profiled=self._is_profiled(node),
        )
        if cls is not None:
            self._class_stack[-1].methods.append(node.name)
        parent = self._func_stack[-1] if self._func_stack else None
        if parent is not None:
            parent.nested.append(facts.scope)
        self.out.functions[facts.scope] = facts
        self._func_stack.append(facts)
        saved_held, self._held = self._held, []
        saved_seeded, self._seeded = self._seeded, set()
        try:
            for deco in node.decorator_list:
                self.visit(deco)
            for stmt in node.body:
                self.visit(stmt)
        finally:
            self._func_stack.pop()
            self._scope.pop()
            self._held = saved_held
            self._seeded = saved_seeded

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    @staticmethod
    def _is_profiled(node) -> bool:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = _dotted(target)
            if name and name.split(".")[-1] == "profiled":
                return True
        return False

    # -- lock identity -------------------------------------------------- #

    def _lock_id(self, expr: ast.AST) -> str | None:
        """Normalized lock name for an acquired expression, or None if the
        expression does not look like a lock."""
        # Unwrap `lock.acquire` handled by caller; here expr is the lock expr.
        name = _dotted(expr)
        if name is None:
            return None
        parts = name.split(".")
        if not _is_locky(parts[-1]):
            return None
        if parts[0] == "self" and len(parts) == 2:
            cls = self._func_stack[-1].cls if self._func_stack else None
            if cls:
                return f"{cls}.{parts[1]}"
            return f"@attr:{parts[1]}"
        if len(parts) == 1:
            target = self.out.imports.get(parts[0])
            if target:
                return target
            return f"{self.out.module}.{parts[0]}"
        # Some other receiver: resolve the attribute in pass 2.
        return f"@attr:{parts[-1]}"

    # -- statements ----------------------------------------------------- #

    def visit_With(self, node: ast.With) -> None:
        if not self._func_stack:
            self.generic_visit(node)
            return
        facts = self._func_stack[-1]
        acquired: list[str] = []
        for item in node.items:
            self.visit(item.context_expr)
            lock = self._lock_id(item.context_expr)
            if lock is not None:
                facts.acquires.append(
                    LockAcquire(lock, node.lineno, tuple(self._held), via="with")
                )
                self._held.append(lock)
                acquired.append(lock)
        try:
            for stmt in node.body:
                self.visit(stmt)
        finally:
            for _ in acquired:
                self._held.pop()

    visit_AsyncWith = visit_With

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_seeding(node.targets, node.value)
        for target in node.targets:
            self._record_store(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_seeding([node.target], node.value)
            self._record_store(node.target, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        if self._func_stack:
            facts = self._func_stack[-1]
            for target in node.targets:
                base = target.value if isinstance(target, ast.Subscript) else target
                name = _dotted(base)
                if name and name.startswith("self.") and len(name.split(".")) >= 2:
                    facts.mutations.append(
                        Mutation(
                            name.split(".")[1], node.lineno, tuple(self._held), "delete"
                        )
                    )
        self.generic_visit(node)

    def _record_seeding(self, targets, value: ast.AST) -> None:
        """Track `x = default_rng(seed...)` / `x = ...epoch_rng(...)` bindings."""
        if not isinstance(value, ast.Call):
            return
        name = _dotted(value.func)
        if name is None:
            return
        leaf = name.split(".")[-1]
        seeded = (
            (leaf in ("default_rng", "RandomState", "Generator") and bool(value.args))
            or leaf == "epoch_rng"
        )
        if not seeded:
            return
        for target in targets:
            tname = _dotted(target)
            if tname:
                self._seeded.add(tname)

    def _record_store(self, target: ast.AST, lineno: int) -> None:
        if not self._func_stack:
            return
        facts = self._func_stack[-1]
        # Arena data-region write: a subscript store through `<arena>.region`.
        if isinstance(target, ast.Subscript):
            region = self._arena_region(target.value)
            if region is not None:
                facts.arena_writes.append(ArenaWrite(region, lineno, "store"))
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                self._record_store(elt, lineno)
            return
        # self-attribute mutation (rebind, nested store, or subscript store).
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        name = _dotted(base)
        if name and name.startswith("self.") and facts.cls is not None:
            facts.mutations.append(
                Mutation(name.split(".")[1], lineno, tuple(self._held), "assign")
            )

    def _arena_region(self, expr: ast.AST) -> str | None:
        """``arena.grads`` / ``self.plane`` (inside an arena class) -> region."""
        if not isinstance(expr, ast.Attribute) or expr.attr not in ARENA_REGIONS:
            return None
        recv = _dotted(expr.value)
        if recv is None:
            return None
        if "arena" in recv.lower():
            return expr.attr
        if recv == "self":
            cls = self._func_stack[-1].cls if self._func_stack else None
            if cls and "arena" in cls.lower():
                return expr.attr
        return None

    # -- calls ---------------------------------------------------------- #

    def visit_Call(self, node: ast.Call) -> None:
        if self._func_stack:
            self._record_call(node)
        self.generic_visit(node)

    def _record_call(self, node: ast.Call) -> None:
        facts = self._func_stack[-1]
        name = _dotted(node.func)
        if name is None:
            return
        parts = name.split(".")
        leaf = parts[-1]
        facts.calls.append(CallSite(name, node.lineno, tuple(self._held)))

        # barrier waits: `<something barrier-ish>.wait(...)`
        if leaf == "wait" and len(parts) >= 2 and "barrier" in parts[-2].lower():
            facts.barrier_waits.append(node.lineno)

        # bare `.acquire()` on a lock (RPA006 flags these; still record order)
        if leaf == "acquire" and len(parts) >= 2:
            lock = self._lock_id(node.func.value)
            if lock is not None:
                facts.acquires.append(
                    LockAcquire(lock, node.lineno, tuple(self._held), via="acquire")
                )

        # `out=` keyword targeting an arena data region
        for kw in node.keywords:
            if kw.arg != "out":
                continue
            expr = kw.value
            if isinstance(expr, ast.Subscript):
                expr = expr.value
            region = self._arena_region(expr)
            if region is not None:
                facts.arena_writes.append(ArenaWrite(region, node.lineno, "out-arg"))

        # RNG draws
        self._record_rng(node, name, parts, leaf)

        # spawn sites
        if leaf == "Process":
            target = None
            for kw in node.keywords:
                if kw.arg == "target":
                    target = _dotted(kw.value)
            facts.spawns.append(SpawnSite("process", target, node.lineno))
        elif name in ("os.fork", "fork") and parts[0] in ("os", "fork"):
            facts.spawns.append(SpawnSite("fork", None, node.lineno))

        # mutating method call on a self attribute: `self._queues.clear()`
        if (
            leaf in _MUTATING_METHODS
            and len(parts) >= 3
            and parts[0] == "self"
            and facts.cls is not None
        ):
            facts.mutations.append(
                Mutation(parts[1], node.lineno, tuple(self._held), "method")
            )

    def _record_rng(self, node: ast.Call, name: str, parts: list[str], leaf: str) -> None:
        facts = self._func_stack[-1]
        # Legacy global-state API: np.random.<fn>(...)
        if (
            len(parts) >= 3
            and parts[-2] == "random"
            and parts[-3] in ("np", "numpy")
            and leaf in _GLOBAL_RNG_FNS
        ):
            facts.rng_draws.append(RngDraw("global", name, node.lineno))
            return
        # Unseeded fresh generator: default_rng() / RandomState() with no args
        if leaf in ("default_rng", "RandomState") and not node.args and not node.keywords:
            facts.rng_draws.append(RngDraw("unseeded", name, node.lineno))
            return
        # Draw method on a generator-ish receiver not seeded in this function.
        if leaf in _DRAW_METHODS and len(parts) >= 2:
            recv = ".".join(parts[:-1])
            recv_leaf = parts[-2]
            looks_rng = "rng" in recv_leaf.lower() or "rand" in recv_leaf.lower()
            if looks_rng and recv not in self._seeded:
                facts.rng_draws.append(RngDraw("ambient", recv, node.lineno))


def collect_module_facts(tree: ast.AST, relpath: str, module: str | None = None) -> ModuleFacts:
    """Extract :class:`ModuleFacts` from one parsed module."""
    if module is None:
        module = module_name_for(relpath)
    visitor = _FactsVisitor(relpath, module)
    visitor.visit(tree)
    _collect_init_locks(tree, visitor.out)
    return visitor.out


def _collect_init_locks(tree: ast.AST, out: ModuleFacts) -> None:
    """Find ``self.<attr> = <lock ctor>`` in each class body (any method)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cf = out.classes.get(node.name)
        if cf is None:
            continue
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign):
                continue
            if not _creates_lock(sub.value):
                continue
            for target in sub.targets:
                name = _dotted(target)
                if name and name.startswith("self.") and len(name.split(".")) == 2:
                    cf.lock_attrs.setdefault(name.split(".")[1], sub.lineno)
