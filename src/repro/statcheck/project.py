"""The project model: module/symbol tables, import graph, call graph.

statcheck v2 analyses a whole source tree in two phases:

1. **per-file scan** (parallelizable, cacheable) — each file is parsed
   once and summarized into a :class:`FileSummary`: the functions it
   defines (including nested functions and methods, with qualified
   names), the calls each function makes, project-internal imports,
   thread-launch sites, and the *fact sites* the interprocedural rule
   families consume (shared-state writes, telemetry use, RNG calls,
   clock-value flows),
2. **project pass** (cheap, serial) — the summaries are assembled into
   a :class:`ProjectModel` exposing the symbol table, the import graph
   and a resolved call graph with reachability queries; the D/T/G rule
   families (:mod:`repro.statcheck.rules_project`) run on the model.

Call-graph resolution is deliberately lightweight (this is a lint, not
a compiler): plain names resolve within the module and through the
import table; ``obj.meth(...)`` resolves by method-name matching across
the project — the standard over-approximation for duck-typed Python.
An over-approximated edge can only make a rule *more* conservative
(reachability grows), never hide a finding.
"""

from __future__ import annotations

import ast
import hashlib
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Iterator

from .engine import ModuleContext

__all__ = [
    "CallSite",
    "ENTRY_NAMES",
    "FileSummary",
    "FunctionInfo",
    "ProjectModel",
    "Site",
    "content_hash",
    "dotted_name",
    "summarize",
]

#: Bare function/method names treated as placement-flow entry points for
#: reachability-scoped determinism rules (D1/D3): anything these can
#: reach executes inside a placement run.
ENTRY_NAMES = frozenset({"place", "global_place", "run_flow", "main"})

#: numpy legacy global-state RNG functions (``np.random.<fn>``): all of
#: them read/advance the hidden process-wide generator.
NUMPY_GLOBAL_RNG = frozenset({
    "rand", "randn", "random", "randint", "random_integers",
    "random_sample", "ranf", "sample", "uniform", "normal",
    "standard_normal", "shuffle", "permutation", "choice", "seed",
    "get_state", "set_state", "exponential", "poisson", "binomial",
})

#: stdlib ``random`` module-level functions (share one hidden Random()).
STDLIB_RNG = frozenset({
    "random", "randint", "randrange", "uniform", "shuffle", "choice",
    "choices", "sample", "seed", "gauss", "normalvariate", "betavariate",
    "expovariate", "getrandbits", "triangular",
})

#: Wall/monotonic clock reads (dotted forms).  Monotonic clocks are fine
#: for durations (R8's concern) but *no* clock value may flow into
#: numeric placement state (D3's concern), so D3 tracks them all.
CLOCK_DOTTED = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
})

#: Bare clock function names importable ``from time import ...``.
CLOCK_BARE = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns",
})

#: numpy array constructors (D3 sink: clock values entering arrays).
ARRAY_CTORS = frozenset({
    "array", "asarray", "zeros", "ones", "empty", "full", "arange",
    "fromiter", "concatenate", "stack",
})

#: Order-sensitive sinks: feeding a *set* into one of these bakes the
#: interpreter's hash-iteration order into the result (D2).
ORDER_SINKS_NP = frozenset({
    "array", "asarray", "fromiter", "concatenate", "stack",
})
ORDER_SINKS_BARE = frozenset({"list", "tuple", "enumerate"})

#: Builtins cheap enough to appear in telemetry-call arguments and
#: before probe gates (G1/G2).  ``sum``/``sorted`` are deliberately
#: absent: they iterate.
CHEAP_BUILTINS = frozenset({
    "len", "int", "float", "bool", "str", "repr", "abs", "round",
    "isinstance", "getattr", "hasattr", "id", "type", "min", "max",
})

#: The telemetry accessors that open a None-gate (G1).
PROBE_GETTERS = frozenset({"get_metrics", "get_tracer"})

#: Distributed-plane frame shipping (G3): constructing a shipper or
#: flushing a frame in worker code must sit behind an installed-context
#: gate, or tracing-off runs pay for frame assembly.
FRAME_SHIPPERS = frozenset({"TelemetryShipper", "flush_frame"})

#: Mutating container methods: a call ``self.X.append(...)`` (or on a
#: module global) writes shared state just like ``self.X[...] = v``.
MUTATOR_METHODS = frozenset({
    "append", "extend", "add", "update", "insert", "remove", "pop",
    "popitem", "clear", "discard", "setdefault", "appendleft",
})

#: Identifier vocabulary marking an expression as a planar coordinate
#: (kept in sync with rules.COORD_NAMES; duplicated to avoid an import
#: cycle between the summarizer and the local rule set).
COORD_NAMES = frozenset({
    "x", "y", "xs", "ys", "cx", "cy",
    "xlo", "xhi", "ylo", "yhi", "x0", "y0", "x1", "y1",
    "lefts", "rights", "bottoms", "tops",
    "fixed_x", "fixed_y", "pin_dx", "pin_dy",
    "width", "widths", "height", "heights",
    "row_height", "site_width",
})


def content_hash(source: str) -> str:
    """Stable content fingerprint of one file (drives the scan cache)."""
    return hashlib.sha256(source.encode()).hexdigest()[:24]


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function, by written name."""

    name: str       # dotted, as written: "solve_spd", "plan.hit", "np.zeros"
    line: int
    col: int


@dataclass(frozen=True)
class Site:
    """One rule-relevant fact location inside a function."""

    line: int
    col: int
    detail: str          # short human fragment for the finding message
    guarded: bool = False  # lexically inside a `with <lock>:` block


@dataclass
class FunctionInfo:
    """Everything the project rules need to know about one function."""

    qualname: str                 # "Cls.meth" / "outer.<locals>.inner"
    name: str                     # bare name
    cls: str | None               # enclosing class, if a method
    line: int
    decorators: list[str] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    returns_calls: list[str] = field(default_factory=list)
    returns_clock: bool = False
    returns_set: bool = False
    shared_writes: list[Site] = field(default_factory=list)
    telemetry_calls: list[Site] = field(default_factory=list)
    rng_calls: list[Site] = field(default_factory=list)
    unseeded_rng_calls: list[Site] = field(default_factory=list)
    clock_sinks: list[Site] = field(default_factory=list)
    call_result_sinks: list[tuple[str, Site]] = field(default_factory=list)
    order_sites: list[Site] = field(default_factory=list)
    order_call_sites: list[tuple[str, Site]] = field(default_factory=list)
    pregate_sites: list[tuple[str, Site]] = field(default_factory=list)
    telemetry_arg_sites: list[tuple[str, Site]] = field(
        default_factory=list)
    frame_sites: list[Site] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "FunctionInfo":
        def pairs(key: str) -> list[tuple[str, Site]]:
            return [(c, Site(**s)) for c, s in raw[key]]

        return cls(
            qualname=raw["qualname"], name=raw["name"], cls=raw["cls"],
            line=raw["line"], decorators=list(raw["decorators"]),
            calls=[CallSite(**c) for c in raw["calls"]],
            returns_calls=list(raw["returns_calls"]),
            returns_clock=raw["returns_clock"],
            returns_set=raw["returns_set"],
            shared_writes=[Site(**s) for s in raw["shared_writes"]],
            telemetry_calls=[Site(**s) for s in raw["telemetry_calls"]],
            rng_calls=[Site(**s) for s in raw["rng_calls"]],
            unseeded_rng_calls=[Site(**s)
                                for s in raw["unseeded_rng_calls"]],
            clock_sinks=[Site(**s) for s in raw["clock_sinks"]],
            call_result_sinks=pairs("call_result_sinks"),
            order_sites=[Site(**s) for s in raw["order_sites"]],
            order_call_sites=pairs("order_call_sites"),
            pregate_sites=pairs("pregate_sites"),
            telemetry_arg_sites=pairs("telemetry_arg_sites"),
            frame_sites=[Site(**s) for s in raw["frame_sites"]],
        )


@dataclass
class FileSummary:
    """The per-file facts the project pass assembles into the model."""

    path: str
    module: str
    content_hash: str
    is_package: bool = False
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: local alias -> (module-ish dotted target, symbol | None).  A
    #: ``from pkg import name`` lands as ("pkg", "name"); whether `name`
    #: is a submodule or a symbol is decided at model-build time.
    imports: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    classes: dict[str, list[str]] = field(default_factory=dict)
    thread_targets: list[CallSite] = field(default_factory=list)
    ignores: dict[int, list[str] | None] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "module": self.module,
            "content_hash": self.content_hash,
            "is_package": self.is_package,
            "functions": {q: f.to_json() for q, f in self.functions.items()},
            "imports": {a: list(t) for a, t in self.imports.items()},
            "classes": self.classes,
            "thread_targets": [asdict(c) for c in self.thread_targets],
            "ignores": {str(k): v for k, v in self.ignores.items()},
        }

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "FileSummary":
        return cls(
            path=raw["path"],
            module=raw["module"],
            content_hash=raw["content_hash"],
            is_package=raw["is_package"],
            functions={q: FunctionInfo.from_json(f)
                       for q, f in raw["functions"].items()},
            imports={a: (t[0], t[1]) for a, t in raw["imports"].items()},
            classes={c: list(m) for c, m in raw["classes"].items()},
            thread_targets=[CallSite(**c) for c in raw["thread_targets"]],
            ignores={int(k): v for k, v in raw["ignores"].items()},
        )

    def ignored(self, line: int, rule_id: str) -> bool:
        ids = self.ignores.get(line)
        if ids is None:
            return False
        return not ids or rule_id in ids


# ----------------------------------------------------------------------
# the summarizer
# ----------------------------------------------------------------------
def _normalize_module(module: str) -> str:
    """Strip a trailing ``.__init__`` so packages resolve naturally."""
    if module.endswith(".__init__"):
        return module[: -len(".__init__")]
    return module


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: str | None) -> str:
    """Absolute dotted base for a ``from ...x import y`` statement."""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop > 0:
        parts = parts[:-drop] if drop < len(parts) else []
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


class _Summarizer(ast.NodeVisitor):
    """One pass over a module AST building its FileSummary."""

    def __init__(self, ctx: ModuleContext) -> None:
        module = _normalize_module(ctx.module)
        self.summary = FileSummary(
            path=ctx.path,
            module=module,
            content_hash=content_hash(ctx.source),
            is_package=ctx.path.endswith("__init__.py"),
            ignores={line: (sorted(ids) if ids else [])
                     for line, ids in ctx._ignores.items()},
        )
        # Pragma map: engine stores empty-set = all rules; we keep the
        # same convention with [] = all rules.
        self._class_stack: list[str] = []
        self._func_stack: list[FunctionInfo] = []
        self._qual_stack: list[str] = []
        self._with_lock_depth = 0
        self._gate_depth = 0          # inside `if <x> is not None:` body
        self._global_names: set[str] = set()
        self._bare_clock: set[str] = set()
        self._telemetry_aliases: set[str] = set()
        self._module_aliases: set[str] = set()
        self._module_set_names: set[str] = set()

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.summary.imports[local] = (target, None)
            self._module_aliases.add(local)
            if target.split(".")[-1] == "telemetry":
                self._telemetry_aliases.add(local)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            base = _resolve_relative(
                self.summary.module, self.summary.is_package,
                node.level, node.module,
            )
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.summary.imports[local] = (base, alias.name)
            if alias.name == "telemetry" or base.endswith("telemetry"):
                self._telemetry_aliases.add(local)
            if base == "time" and alias.name in CLOCK_BARE:
                self._bare_clock.add(local)
            if base == "datetime" and alias.name == "datetime":
                self._bare_clock.add(f"{local}.now")
        self.generic_visit(node)

    # -- scopes --------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self._qual_stack.append(node.name)
        self.summary.classes.setdefault(node.name, [])
        self.generic_visit(node)
        self._qual_stack.pop()
        self._class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                        ) -> None:
        in_function = bool(self._func_stack)
        if in_function:
            self._qual_stack.append("<locals>")
        qual = ".".join([*self._qual_stack, node.name])
        info = FunctionInfo(
            qualname=qual,
            name=node.name,
            cls=self._class_stack[-1] if self._class_stack else None,
            line=node.lineno,
            decorators=[d for d in (dotted_name(dec.func)
                                    if isinstance(dec, ast.Call)
                                    else dotted_name(dec)
                                    for dec in node.decorator_list)
                        if d is not None],
        )
        self.summary.functions[qual] = info
        if info.cls is not None and "<locals>" not in qual:
            self.summary.classes.setdefault(info.cls, []).append(node.name)
        self._func_stack.append(info)
        self._qual_stack.append(node.name)
        saved_globals = set(self._global_names)
        outer_lock = self._with_lock_depth
        outer_gate = self._gate_depth
        self._with_lock_depth = 0
        self._gate_depth = 0
        self.generic_visit(node)
        self._with_lock_depth = outer_lock
        self._gate_depth = outer_gate
        self._global_names = saved_globals
        self._qual_stack.pop()
        self._func_stack.pop()
        if in_function:
            self._qual_stack.pop()
        self._analyze_body(node, info)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Global(self, node: ast.Global) -> None:
        self._global_names.update(node.names)

    # -- locks ---------------------------------------------------------
    @staticmethod
    def _is_lockish(expr: ast.expr) -> bool:
        name = dotted_name(expr)
        if name is None and isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
        if name is None:
            return False
        low = name.lower()
        return "lock" in low or "mutex" in low or "semaphore" in low

    def visit_With(self, node: ast.With) -> None:
        lockish = any(self._is_lockish(item.context_expr)
                      for item in node.items)
        if lockish:
            self._with_lock_depth += 1
        self.generic_visit(node)
        if lockish:
            self._with_lock_depth -= 1

    @staticmethod
    def _test_is_not_none(test: ast.expr) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Compare) \
                    and any(isinstance(op, ast.IsNot) for op in sub.ops) \
                    and any(isinstance(c, ast.Constant) and c.value is None
                            for c in sub.comparators):
                return True
        return False

    def visit_If(self, node: ast.If) -> None:
        """Track `if <x> is not None:` bodies — telemetry use inside
        them is explicitly gated and G2-exempt."""
        self.visit(node.test)
        gated = self._test_is_not_none(node.test)
        if gated:
            self._gate_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if gated:
            self._gate_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Assign(self, node: ast.Assign) -> None:
        """Module-level set constants feed the D2 set-type table."""
        if not self._func_stack and not self._class_stack:
            setish = isinstance(node.value, (ast.Set, ast.SetComp)) or (
                isinstance(node.value, ast.Call)
                and dotted_name(node.value.func) in ("set", "frozenset"))
            if setish:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._module_set_names.add(target.id)
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        info = self._func_stack[-1] if self._func_stack else None
        if name is not None and info is not None:
            info.calls.append(CallSite(name, node.lineno, node.col_offset))
            self._classify_call(name, node, info)
        self._detect_thread_target(name, node)
        self.generic_visit(node)

    def _classify_call(self, name: str, node: ast.Call,
                       info: FunctionInfo) -> None:
        parts = name.split(".")
        guarded = self._with_lock_depth > 0
        site = Site(node.lineno, node.col_offset, name, guarded)
        # RNG: numpy legacy global-state API and stdlib random module.
        if (len(parts) >= 3 and parts[-3] in ("np", "numpy")
                and parts[-2] == "random" and parts[-1] in NUMPY_GLOBAL_RNG):
            info.rng_calls.append(site)
        elif (len(parts) == 2 and parts[0] == "random"
                and parts[1] in STDLIB_RNG
                and self.summary.imports.get("random", ("random", None))[0]
                == "random"):
            info.rng_calls.append(site)
        # Unseeded generator construction.
        if parts[-1] == "default_rng":
            unseeded = not node.args and not node.keywords
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and node.args[0].value is None:
                unseeded = True
            if any(kw.arg == "seed" and isinstance(kw.value, ast.Constant)
                   and kw.value.value is None for kw in node.keywords):
                unseeded = True
            if unseeded:
                info.unseeded_rng_calls.append(site)
        # Telemetry span-stack use (main-thread-only API).
        is_telemetry_call = False
        if len(parts) == 2 and parts[0] in self._telemetry_aliases \
                and parts[1] in ("span", "instant", "record_stage_memory"):
            info.telemetry_calls.append(site)
            is_telemetry_call = True
        elif len(parts) == 1 and parts[0] in ("span", "instant") \
                and self.summary.imports.get(parts[0], ("", None))[0]\
                .endswith("telemetry"):
            info.telemetry_calls.append(site)
            is_telemetry_call = True
        # G2 facts: expensive expressions in telemetry-call arguments
        # run even when telemetry is disabled — unless the call sits
        # inside an explicit `if <x> is not None:` gate.
        if (is_telemetry_call or parts[-1] == "annotate") \
                and self._gate_depth == 0:
            offender = self._arg_offender(node)
            if offender is not None:
                info.telemetry_arg_sites.append((offender, Site(
                    node.lineno, node.col_offset,
                    f"{name}(...) argument computes {offender}")))
        # G3 facts: telemetry-frame construction/shipping outside an
        # installed-context gate — tracing-off runs would pay for the
        # frame assembly the distributed plane promises to skip.
        if parts[-1] in FRAME_SHIPPERS and self._gate_depth == 0:
            info.frame_sites.append(Site(
                node.lineno, node.col_offset, f"{name}(...)", guarded))
        # Shared-state mutation through container methods:
        # self.X.append(...) / MODULE_GLOBAL.append(...).
        if parts[-1] in MUTATOR_METHODS and len(parts) >= 2:
            base = parts[0]
            owner = ".".join(parts[:-1])
            if base == "self" and len(parts) >= 3:
                info.shared_writes.append(
                    Site(node.lineno, node.col_offset,
                         f"{owner}.{parts[-1]}(...)", guarded))
            elif base in self._module_aliases or (
                    base in self._global_names):
                info.shared_writes.append(
                    Site(node.lineno, node.col_offset,
                         f"{owner}.{parts[-1]}(...)", guarded))

    @staticmethod
    def _arg_offender(node: ast.Call) -> str | None:
        """First non-cheap sub-expression in a call's arguments, or
        None when every argument is trivially cheap."""
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            for sub in ast.walk(arg):
                if isinstance(sub, (ast.ListComp, ast.SetComp,
                                    ast.DictComp, ast.GeneratorExp)):
                    return "a comprehension"
                if isinstance(sub, ast.Call):
                    cname = dotted_name(sub.func)
                    tail = (cname or "<call>").split(".")[-1]
                    if tail not in CHEAP_BUILTINS:
                        return f"{cname or '<call>'}(...)"
        return None

    def _detect_thread_target(self, name: str | None,
                              node: ast.Call) -> None:
        """Record callables handed to threads/executors."""
        if name is None:
            return
        tail = name.split(".")[-1]
        target: ast.expr | None = None
        if tail == "submit" and node.args:
            target = node.args[0]
        elif tail == "Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    target = kw.value
        elif tail == "map" and "." in name and node.args:
            base = name.split(".")[0].lower()
            if "pool" in base or "executor" in base:
                target = node.args[0]
        if target is None:
            return
        tname = dotted_name(target)
        if tname is not None:
            self.summary.thread_targets.append(
                CallSite(tname, node.lineno, node.col_offset))

    # -- per-function dataflow (writes, clock taint, returns) ---------
    def _is_setish(self, expr: ast.expr, set_vars: set[str]) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) \
                and dotted_name(expr.func) in ("set", "frozenset"):
            return True
        return isinstance(expr, ast.Name) and expr.id in set_vars

    def _analyze_body(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                      info: FunctionInfo) -> None:
        """Statement-order pass: shared writes, clock-taint sinks,
        set-order sinks, and the G1 pre-gate scan."""
        exempt_writes = info.name in ("__init__", "__post_init__", "__new__")
        global_names: set[str] = set()
        tainted: set[str] = set()
        set_vars: set[str] = set(self._module_set_names)

        def is_clock_call(call: ast.Call) -> bool:
            cname = dotted_name(call.func)
            if cname is None:
                return False
            if cname in CLOCK_DOTTED or cname in self._bare_clock:
                return True
            tail = cname.split(".")
            return (len(tail) == 2 and tail[0] == "time"
                    and tail[1] in CLOCK_BARE)

        def expr_tainted(expr: ast.expr) -> bool:
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Call) and is_clock_call(sub):
                    return True
                if isinstance(sub, ast.Name) and sub.id in tainted:
                    return True
            return False

        def note_sink(node_: ast.AST, detail: str) -> None:
            info.clock_sinks.append(Site(
                getattr(node_, "lineno", info.line),
                getattr(node_, "col_offset", 0), detail))

        def scan_call_sinks(call: ast.Call) -> None:
            """seed=..., default_rng(...), np array ctor args, and the
            D2 order-sensitive sinks."""
            cname = dotted_name(call.func) or ""
            parts = cname.split(".")
            for kw in call.keywords:
                if kw.arg == "seed" and kw.value is not None \
                        and expr_tainted(kw.value):
                    note_sink(call, f"seed= argument of {cname}(...)")
            if parts[-1] == "default_rng" and call.args \
                    and expr_tainted(call.args[0]):
                note_sink(call, "default_rng(<clock value>)")
            if parts[-1] in ARRAY_CTORS and parts[0] in ("np", "numpy"):
                if any(expr_tainted(a) for a in call.args):
                    note_sink(call, f"np.{parts[-1]}(... <clock value> ...)")
            # D2: a set feeding an order-sensitive constructor.
            sink = None
            if parts[-1] in ORDER_SINKS_NP and parts[0] in ("np", "numpy"):
                sink = cname
            elif len(parts) == 1 and parts[0] in ORDER_SINKS_BARE:
                sink = cname
            elif isinstance(call.func, ast.Attribute) \
                    and call.func.attr == "join":
                sink = "join"
            if sink is not None and call.args:
                arg = call.args[0]
                if self._is_setish(arg, set_vars):
                    info.order_sites.append(Site(
                        call.lineno, call.col_offset,
                        f"set iteration order consumed by {sink}(...)"))
                elif isinstance(arg, ast.Call):
                    an = dotted_name(arg.func)
                    if an is not None and an not in (
                            "sorted", "set", "frozenset"):
                        info.order_call_sites.append((an, Site(
                            call.lineno, call.col_offset,
                            f"result of {an}(...) consumed by "
                            f"{sink}(...)")))
            # Other call results flowing to sinks resolve project-side.

        def track_sets(stmt: ast.stmt) -> None:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                return
            setish = self._is_setish(value, set_vars)
            for t in targets:
                if isinstance(t, ast.Name):
                    (set_vars.add if setish else set_vars.discard)(t.id)

        def walk(stmts: Iterable[ast.stmt], depth: int) -> None:
            for stmt in stmts:
                track_sets(stmt)
                self._scan_statement(stmt, info, global_names, tainted,
                                     exempt_writes, depth > 0,
                                     expr_tainted, note_sink,
                                     scan_call_sinks, is_clock_call)
                for child_stmts, locked in self._child_blocks(stmt):
                    walk(child_stmts, depth + (1 if locked else 0))

        walk(node.body, 0)
        self._scan_pregate(node, info)
        # Return-value classification for transitive sources.
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if expr_tainted(stmt.value):
                    info.returns_clock = True
                if self._is_setish(stmt.value, set_vars):
                    info.returns_set = True
                for sub in ast.walk(stmt.value):
                    if isinstance(sub, ast.Call):
                        cname = dotted_name(sub.func)
                        if cname is not None:
                            info.returns_calls.append(cname)

    # -- G1: work before the telemetry None-gate ----------------------
    def _scan_pregate(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                      info: FunctionInfo) -> None:
        """A probe-style function assigns ``get_metrics()``/
        ``get_tracer()`` to a local, then gates on ``is None``.  Any
        real work between the accessor and the gate runs even when
        telemetry is disabled — the zero-overhead contract violation.
        Only top-level statements are considered: the early-return gate
        idiom lives at function-body top level."""
        probe_vars: set[str] = set()
        probe_idx: int | None = None
        gate_idx: int | None = None
        for idx, stmt in enumerate(node.body):
            if isinstance(stmt, ast.Assign) \
                    and isinstance(stmt.value, ast.Call):
                cname = dotted_name(stmt.value.func) or ""
                if cname.split(".")[-1] in PROBE_GETTERS:
                    for t in stmt.targets:
                        if isinstance(t, ast.Name):
                            probe_vars.add(t.id)
                    if probe_idx is None:
                        probe_idx = idx
                    continue
            if probe_vars and isinstance(stmt, ast.If) \
                    and self._is_probe_gate(stmt, probe_vars):
                gate_idx = idx
                break
        if probe_idx is None or gate_idx is None:
            return
        for stmt in node.body[probe_idx + 1:gate_idx]:
            offender = self._stmt_work(stmt)
            if offender is not None:
                info.pregate_sites.append((offender, Site(
                    stmt.lineno, stmt.col_offset,
                    f"{offender} executes before the telemetry "
                    "None-gate")))

    @staticmethod
    def _is_probe_gate(stmt: ast.If, probe_vars: set[str]) -> bool:
        """The early-return gate idiom: ``if registry is None: return``.

        A trailing ``if registry is not None:`` block is *not* a gate —
        code before it is the function's real work, not probe work."""
        test = stmt.test
        has_var = any(isinstance(sub, ast.Name) and sub.id in probe_vars
                      for sub in ast.walk(test))
        has_is_none = any(
            isinstance(sub, ast.Compare)
            and any(isinstance(op, ast.Is) for op in sub.ops)
            and any(isinstance(c, ast.Constant) and c.value is None
                    for c in sub.comparators)
            for sub in ast.walk(test))
        early_exit = any(isinstance(s, (ast.Return, ast.Raise))
                         for s in stmt.body)
        return has_var and has_is_none and early_exit

    @staticmethod
    def _stmt_work(stmt: ast.stmt) -> str | None:
        """Describe the first non-trivial work in a statement, if any."""
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.For, ast.While)):
                return "a loop"
            if isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp,
                                ast.GeneratorExp)):
                return "a comprehension"
            if isinstance(sub, ast.Call):
                cname = dotted_name(sub.func)
                tail = (cname or "<call>").split(".")[-1]
                if tail in CHEAP_BUILTINS or tail in PROBE_GETTERS:
                    continue
                return f"a call to {cname or '<call>'}(...)"
        return None

    def _child_blocks(self, stmt: ast.stmt
                      ) -> Iterator[tuple[list[ast.stmt], bool]]:
        """(block, entered-a-lock) pairs for compound statements, but do
        not descend into nested function/class definitions (they get
        their own FunctionInfo)."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.With):
            locked = any(self._is_lockish(item.context_expr)
                         for item in stmt.items)
            yield stmt.body, locked
            return
        for attr in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(stmt, attr, None)
            if not block:
                continue
            if attr == "handlers":
                for handler in block:
                    yield handler.body, False
            elif isinstance(block, list):
                yield block, False

    def _scan_statement(self, stmt, info, global_names, tainted,
                        exempt_writes, in_lock, expr_tainted, note_sink,
                        scan_call_sinks, is_clock_call) -> None:
        if isinstance(stmt, ast.Global):
            global_names.update(stmt.names)
            return
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        augmented = False
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AugAssign):
            targets, value, augmented = [stmt.target], stmt.value, True
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value

        # Clock-taint propagation + sinks.
        if value is not None:
            if expr_tainted(value):
                for t in targets:
                    if isinstance(t, ast.Name):
                        tainted.add(t.id)
                    name = dotted_name(t)
                    leaf = (name or "").split(".")[-1]
                    base = t
                    if isinstance(base, ast.Subscript):
                        name = dotted_name(base.value)
                        leaf = (name or "").split(".")[-1]
                    if leaf in COORD_NAMES:
                        note_sink(stmt, f"clock value stored into "
                                        f"{name or leaf!r}")
            else:
                # Direct call result flowing to a sink target resolves
                # against clock-source functions in the project pass.
                if isinstance(value, ast.Call):
                    cname = dotted_name(value.func)
                    if cname is not None:
                        for t in targets:
                            tname = dotted_name(
                                t.value if isinstance(t, ast.Subscript)
                                else t)
                            leaf = (tname or "").split(".")[-1]
                            if leaf in COORD_NAMES:
                                info.call_result_sinks.append((cname, Site(
                                    stmt.lineno, stmt.col_offset,
                                    f"result of {cname}(...) stored into "
                                    f"{tname!r}")))
                for t in targets:
                    if isinstance(t, ast.Name):
                        tainted.discard(t.id)

        # Shared-state writes (T-family facts).
        if targets and not exempt_writes:
            guarded = in_lock
            for t in targets:
                base = t.value if isinstance(t, ast.Subscript) else t
                name = dotted_name(base)
                if name is None:
                    continue
                parts = name.split(".")
                is_self_attr = parts[0] == "self" and len(parts) >= 2
                is_global = (len(parts) == 1 and parts[0] in
                             (global_names | self._global_names))
                is_module_attr = (len(parts) >= 2
                                  and parts[0] in self._module_aliases)
                subscripted = isinstance(t, ast.Subscript)
                if is_self_attr and (subscripted or augmented
                                     or len(parts) == 2):
                    op = "+=" if augmented else "="
                    info.shared_writes.append(Site(
                        stmt.lineno, stmt.col_offset,
                        f"{name}{'[...]' if subscripted else ''} {op} ...",
                        guarded))
                elif is_global or is_module_attr:
                    op = "+=" if augmented else "="
                    info.shared_writes.append(Site(
                        stmt.lineno, stmt.col_offset,
                        f"{name}{'[...]' if subscripted else ''} {op} ... "
                        "(module global)", guarded))

        # Sink scan inside arbitrary expressions of this statement.
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call):
                scan_call_sinks(sub)


def summarize(ctx: ModuleContext) -> FileSummary:
    """Build the FileSummary for one parsed module."""
    visitor = _Summarizer(ctx)
    visitor.visit(ctx.tree)
    return visitor.summary


# ----------------------------------------------------------------------
# the assembled model
# ----------------------------------------------------------------------
#: Method names too generic to resolve by name alone (ndarray, str,
#: dict, Path...).  The duck-typed fallback skips them.
_UBIQUITOUS_METHODS = frozenset({
    "copy", "dot", "get", "items", "keys", "values", "sum", "mean",
    "min", "max", "astype", "reshape", "ravel", "tolist", "norm",
    "split", "join", "strip", "format", "startswith", "endswith",
    "read_text", "write_text", "exists", "resolve", "as_posix",
    "lower", "upper", "replace", "encode", "decode", "hexdigest",
})


class ProjectModel:
    """Symbol table + import graph + call graph over a set of summaries.

    Node ids are ``"<dotted module>:<qualname>"``; bare-name and
    method-name indexes drive the heuristic resolution described in the
    module docstring.
    """

    def __init__(self, summaries: Iterable[FileSummary],
                 entry_names: frozenset[str] = ENTRY_NAMES) -> None:
        self.summaries: dict[str, FileSummary] = {}
        self.summary_by_path: dict[str, FileSummary] = {}
        for summary in summaries:
            self.summaries[summary.module] = summary
            self.summary_by_path[summary.path] = summary
        self.entry_names = entry_names
        self.functions: dict[str, FunctionInfo] = {}
        self._module_of: dict[str, str] = {}
        self._by_bare: dict[str, list[str]] = {}
        self._methods_by_name: dict[str, list[str]] = {}
        for module, summary in sorted(self.summaries.items()):
            for qual, fn in summary.functions.items():
                node = f"{module}:{qual}"
                self.functions[node] = fn
                self._module_of[node] = module
                self._by_bare.setdefault(fn.name, []).append(node)
                if fn.cls is not None:
                    self._methods_by_name.setdefault(
                        fn.name, []).append(node)
        self._edges: dict[str, tuple[str, ...]] = {}
        for node in self.functions:
            self._edges[node] = tuple(self._resolve_edges(node))

    # -- tables --------------------------------------------------------
    def module_of(self, node: str) -> str:
        return self._module_of[node]

    def summary_of(self, node: str) -> FileSummary:
        return self.summaries[self._module_of[node]]

    @property
    def import_graph(self) -> dict[str, set[str]]:
        """Project-internal module dependency edges."""
        graph: dict[str, set[str]] = {m: set() for m in self.summaries}
        for module, summary in self.summaries.items():
            for target, symbol in summary.imports.values():
                resolved = self._resolve_module(target, symbol)
                if resolved is not None and resolved != module:
                    graph[module].add(resolved)
        return graph

    def _resolve_module(self, target: str, symbol: str | None
                        ) -> str | None:
        if symbol is not None and f"{target}.{symbol}" in self.summaries:
            return f"{target}.{symbol}"
        if target in self.summaries:
            return target
        return None

    # -- call-graph resolution ----------------------------------------
    def _functions_in_module(self, module: str, bare: str) -> list[str]:
        summary = self.summaries.get(module)
        if summary is None:
            return []
        return [f"{module}:{qual}" for qual, fn in summary.functions.items()
                if fn.name == bare]

    def _resolve_edges(self, node: str) -> Iterator[str]:
        fn = self.functions[node]
        module = self._module_of[node]
        summary = self.summaries[module]
        seen: set[str] = set()
        for call in fn.calls:
            for target in self._resolve_call(call.name, fn, module,
                                             summary):
                if target not in seen:
                    seen.add(target)
                    yield target

    def _resolve_call(self, name: str, fn: FunctionInfo, module: str,
                      summary: FileSummary) -> Iterator[str]:
        parts = name.split(".")
        head = parts[0]
        if head == "self" and len(parts) == 2 and fn.cls is not None:
            own = f"{module}:{fn.cls}.{parts[1]}"
            if own in self.functions:
                yield own
                return
        if len(parts) == 1:
            # Plain name: same-module function, imported symbol, or a
            # same-module class instantiation.
            local = self._functions_in_module(module, head)
            if local:
                yield from local
                return
            if head in summary.imports:
                target, symbol = summary.imports[head]
                yield from self._resolve_imported(target, symbol, head)
                return
            if head in summary.classes:
                init = f"{module}:{head}.__init__"
                if init in self.functions:
                    yield init
            return
        if head in summary.imports:
            # A known import alias: resolve inside the project or treat
            # as external — never fall through to the duck-typed
            # fallback (np.linalg.norm must not match a project `norm`).
            target, symbol = summary.imports[head]
            owner = self._resolve_module(target, symbol)
            if owner is None and symbol is not None:
                # Imported class used as `Cls.method(...)`.
                owner_mod = self._resolve_module(target, None)
                if owner_mod is not None:
                    candidate = f"{owner_mod}:{symbol}.{parts[1]}"
                    if candidate in self.functions:
                        yield candidate
                return
            if owner is not None:
                # Module alias: alias.func(...) / alias.Cls(...).
                hits = self._functions_in_module(owner, parts[1])
                if hits:
                    yield from (h for h in hits
                                if "<locals>" not in h)
                    return
                owner_summary = self.summaries[owner]
                if parts[1] in owner_summary.classes:
                    init = f"{owner}:{parts[1]}.__init__"
                    if init in self.functions:
                        yield init
            return
        # Fallback: duck-typed method call -> every project method with
        # that name (the conservative over-approximation).  Ubiquitous
        # ndarray/str/dict/container method names are excluded: an edge
        # from `x.copy()` or `xs.append()` to every project `copy`/
        # `append` would drown the T-rules (container mutators are
        # modeled as shared-write facts instead).
        if parts[-1] in _UBIQUITOUS_METHODS or parts[-1] in MUTATOR_METHODS:
            return
        yield from self._methods_by_name.get(parts[-1], [])

    def _resolve_imported(self, target: str, symbol: str | None,
                          bare: str) -> Iterator[str]:
        if symbol is None:
            return
        owner = self._resolve_module(target, None)
        if owner is None:
            return
        hits = self._functions_in_module(owner, symbol)
        if hits:
            yield from (h for h in hits if "<locals>" not in h)
            return
        owner_summary = self.summaries[owner]
        if symbol in owner_summary.classes:
            init = f"{owner}:{symbol}.__init__"
            if init in self.functions:
                yield init

    # -- reachability --------------------------------------------------
    def callees(self, node: str) -> tuple[str, ...]:
        return self._edges.get(node, ())

    def resolve_name(self, node: str, name: str) -> list[str]:
        """Public resolution of a dotted call name in a node's scope."""
        fn = self.functions[node]
        module = self._module_of[node]
        return list(self._resolve_call(name, fn, module,
                                       self.summaries[module]))

    def reachable(self, roots: Iterable[str]
                  ) -> dict[str, tuple[str, ...]]:
        """BFS closure: node -> call chain (roots first) that reaches it."""
        chains: dict[str, tuple[str, ...]] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root in self.functions and root not in chains:
                chains[root] = (root,)
                queue.append(root)
        while queue:
            node = queue.popleft()
            chain = chains[node]
            for callee in self._edges.get(node, ()):
                if callee not in chains:
                    chains[callee] = chain + (callee,)
                    queue.append(callee)
        return chains

    def entry_nodes(self) -> list[str]:
        """Functions whose bare name marks a placement-flow entry."""
        return sorted(n for n in self.functions
                      if self.functions[n].name in self.entry_names)

    def thread_entry_nodes(self) -> dict[str, tuple[str, CallSite]]:
        """Resolved thread-submitted callables -> (path, launch site)."""
        out: dict[str, tuple[str, CallSite]] = {}
        for module, summary in sorted(self.summaries.items()):
            for target in summary.thread_targets:
                parts = target.name.split(".")
                bare = parts[-1]
                local = self._functions_in_module(module, bare)
                candidates = local if local else self._by_bare.get(bare, [])
                for node in candidates:
                    out.setdefault(node, (summary.path, target))
        return out

    def clock_sources(self) -> set[str]:
        """Functions that (transitively) return a clock reading."""
        sources = {n for n, fn in self.functions.items()
                   if fn.returns_clock}
        changed = True
        while changed:
            changed = False
            for node, fn in self.functions.items():
                if node in sources:
                    continue
                module = self._module_of[node]
                summary = self.summaries[module]
                for cname in fn.returns_calls:
                    for target in self._resolve_call(cname, fn, module,
                                                     summary):
                        if target in sources:
                            sources.add(node)
                            changed = True
                            break
                    if node in sources:
                        break
        return sources
