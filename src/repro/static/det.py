"""The ``DET0xx`` determinism rules (the ``det`` pass of ``repro check``).

Each rule is a :class:`RuleVisitor` over one module, with the
cross-module context (call graph, worker reachability) supplied by the
engine.  The rules are deliberately syntactic over-approximations:
a determinism check that stays quiet on a real hazard is worse than
one that needs an occasional justified ``# repro: allow[...]``.  They
back the pool's contract that results are bit-identical for any
worker count; :mod:`repro.dsan.runtime` checks the same contract at
run time.

Rule inventory (registered below into
:data:`~repro.static.model.STATIC_CODES`):

``DET001``  ``np.random.default_rng()`` with no seed argument.
``DET002``  draws/seeding through the *global* RNGs (``np.random.*``,
            stdlib ``random.*``).
``DET003``  ``default_rng``/``Generator`` construction whose seed does
            not flow from the seed plumbing (``config.seed``,
            ``seed_sequence()``, ``spawn_seeds()``, a seed/rng
            parameter) — e.g. a hard-coded or wall-clock seed.
``DET010``  wall-clock/entropy calls outside ``telemetry/clock.py``.
``DET020``  module-level state written by a function reachable from a
            pool worker entry point.
``DET021``  a lambda / nested function handed to ``execute_shards``.
``DET022``  iterating an unordered ``set`` where the order feeds RNG
            draws or float accumulation.
"""

from __future__ import annotations

import ast

from repro.lint.diagnostics import Severity
from repro.static.callgraph import CallGraph
from repro.static.model import (
    Diagnostic,
    StaticCode,
    diagnostic,
    register_codes,
)
from repro.static.source import ModuleSource
from repro.static.visitors import (
    RuleVisitor,
    call_name,
    is_set_expression,
    last_attr,
    module_level_assignments,
    toplevel_function_names,
)
from repro.static.waivers import WaiverIndex


def _c(code: str, severity: Severity, title: str, fix: str) -> StaticCode:
    return StaticCode(code, severity, title, fix, domain="determinism")


#: DET00x are RNG-stream rules, DET01x process/environment entropy,
#: DET02x parallel-execution safety.
register_codes(
    _c("DET001", Severity.ERROR,
       "unseeded RNG construction",
       "pass a seed that flows from SimulationConfig.seed / "
       "spawn_seeds; default_rng() draws fresh OS entropy and every "
       "run differs"),
    _c("DET002", Severity.ERROR,
       "global RNG state used",
       "draw from an explicit numpy Generator seeded through "
       "config.seed_sequence()/spawn_seeds; module-level "
       "np.random.*/random.* state is shared, order-dependent and "
       "invisible to the reproducibility contract"),
    _c("DET003", Severity.ERROR,
       "Generator does not flow from the seed plumbing",
       "derive the seed from config.seed_sequence(), spawn_seeds() or "
       "a seed parameter instead of a hard-coded or computed constant"),
    _c("DET010", Severity.ERROR,
       "wall-clock or entropy source outside telemetry.clock",
       "route timing through repro.telemetry.clock (wall_time/"
       "Stopwatch/time_call) and never let wall time, os.urandom or "
       "uuid values feed simulation results"),
    _c("DET020", Severity.ERROR,
       "worker-reachable function writes module-level state",
       "thread the state through the shard payload/result instead; "
       "module globals written in a pool worker are silently lost and "
       "make inline (jobs=1) and pooled runs diverge"),
    _c("DET021", Severity.ERROR,
       "non-module-level callable crosses the pool boundary",
       "use a module-level function or a picklable dataclass "
       "instance (see repro.core.sweep.SymmetricBias); lambdas and "
       "closures either fail to pickle or silently capture state"),
    _c("DET022", Severity.WARNING,
       "iteration over an unordered set feeds order-sensitive work",
       "iterate sorted(...) or a list; set order depends on "
       "PYTHONHASHSEED, so RNG draws and float accumulation over it "
       "differ between runs"),
)

#: Modules exempt from the RNG-construction rules: they *are* the seed
#: plumbing (DET001/DET002/DET003 would flag their own machinery).
RNG_PLUMBING_MODULES = ("parallel/seeds.py", "core/config.py")

#: The one module allowed to touch the process clock (DET010).
CLOCK_MODULE = "telemetry/clock.py"

#: Drawing / state-mutating attributes of ``numpy.random`` (module
#: level, i.e. the shared legacy global RandomState).
_NUMPY_GLOBAL_DRAWS = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "integers", "choice", "shuffle", "permutation", "bytes",
    "normal", "uniform", "exponential", "standard_normal", "poisson",
    "binomial", "gamma", "beta", "lognormal", "laplace", "set_state",
})

#: Drawing / state-mutating functions of the stdlib ``random`` module.
_STDLIB_GLOBAL_DRAWS = frozenset({
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "triangular", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "betavariate",
    "gammavariate", "paretovariate", "vonmisesvariate",
    "weibullvariate", "getrandbits", "randbytes", "setstate",
})

#: Wall-clock / entropy callees (dotted suffixes) for DET010.
_CLOCK_ENTROPY_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns", "time.clock_gettime",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbits", "secrets.randbelow", "secrets.choice",
})

#: Calls whose seed argument legitimises a Generator (DET003 dataflow).
_SEED_SOURCES = frozenset({
    "seed_sequence", "spawn_seeds", "as_seed_sequence", "spawn",
    "SeedSequence", "PCG64", "Philox", "SFC64", "MT19937",
})

#: Parameter-name fragments treated as externally supplied seeds.
_SEED_PARAM_FRAGMENTS = ("seed", "rng", "entropy")

#: Method names that mutate a list/dict/set in place (DET020).
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "update",
    "add", "discard", "setdefault", "popitem", "sort", "reverse",
})


def _in_modules(module: ModuleSource, suffixes: tuple[str, ...]) -> bool:
    return any(module.relpath.endswith(suffix) for suffix in suffixes)


# ----------------------------------------------------------------------
# DET001 / DET002 / DET003 — RNG stream discipline
# ----------------------------------------------------------------------

class RngRules(RuleVisitor):
    """The three RNG rules share one traversal: they all need the
    enclosing-function dataflow facts."""

    def __init__(self, module: ModuleSource, waivers: WaiverIndex):
        super().__init__(module, waivers)
        self._exempt = _in_modules(module, RNG_PLUMBING_MODULES)
        #: names that "flow from the seed plumbing" in the current scope
        self._flows: list[set[str]] = [set()]
        self._module_funcs = toplevel_function_names(module.tree)

    # -- scope bookkeeping ---------------------------------------------
    def _enter_function(self, node) -> None:
        params = {
            a.arg
            for a in (
                node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            )
        }
        if node.args.vararg is not None:
            params.add(node.args.vararg.arg)
        if node.args.kwarg is not None:
            params.add(node.args.kwarg.arg)
        # a parameter counts as a seed source only when its *name* says
        # so — `default_rng(n_points)` should not pass the gate
        flows = {
            p for p in params
            if any(frag in p.lower() for frag in _SEED_PARAM_FRAGMENTS)
        }
        self._flows.append(flows)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)
        self.generic_visit(node)
        self._flows.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)
        self.generic_visit(node)
        self._flows.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._expr_flows(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._flows[-1].add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    self._flows[-1].update(
                        e.id for e in target.elts if isinstance(e, ast.Name)
                    )
        self.generic_visit(node)

    # -- seed dataflow --------------------------------------------------
    def _expr_flows(self, node: ast.expr) -> bool:
        """Does the expression derive from the seed plumbing?"""
        if isinstance(node, ast.Name):
            return node.id in self._flows[-1] or any(
                frag in node.id.lower() for frag in _SEED_PARAM_FRAGMENTS
            )
        if isinstance(node, ast.Attribute):
            # config.seed, self.config.seed, root.spawn_key …
            return any(
                frag in node.attr.lower() for frag in _SEED_PARAM_FRAGMENTS
            ) or self._expr_flows(node.value)
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is not None and last_attr(name) in _SEED_SOURCES:
                return True
            return any(self._expr_flows(a) for a in node.args)
        if isinstance(node, ast.BinOp):
            return self._expr_flows(node.left) or self._expr_flows(node.right)
        if isinstance(node, ast.Subscript):
            return self._expr_flows(node.value)
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self._expr_flows(e) for e in node.elts)
        if isinstance(node, ast.IfExp):
            return self._expr_flows(node.body) and self._expr_flows(node.orelse)
        return False

    # -- the rules ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name is not None and not self._exempt:
            self._check_rng_construction(node, name)
            self._check_global_rng(node, name)
        self.generic_visit(node)

    def _check_rng_construction(self, node: ast.Call, name: str) -> None:
        tail = last_attr(name)
        if tail not in ("default_rng", "Generator"):
            return
        if tail == "Generator" and not name.endswith("random.Generator"):
            # a Name `Generator` that is not numpy's (annotations etc.)
            if name != "Generator":
                return
        seed_args = [a for a in node.args if not isinstance(a, ast.Starred)]
        seed_args += [k.value for k in node.keywords]
        if not seed_args or all(
            isinstance(a, ast.Constant) and a.value is None for a in seed_args
        ):
            self.report(
                node, "DET001",
                f"{name}() without a seed draws fresh OS entropy; pass a "
                "seed spawned from SimulationConfig.seed",
            )
            return
        if not any(self._expr_flows(a) for a in seed_args):
            self.report(
                node, "DET003",
                f"{name}({ast.unparse(seed_args[0])}) does not flow from "
                "config.seed_sequence()/spawn_seeds or a seed parameter",
            )

    def _check_global_rng(self, node: ast.Call, name: str) -> None:
        parts = name.split(".")
        tail = parts[-1]
        if len(parts) >= 2 and parts[-2] == "random":
            root = parts[0]
            if root in ("np", "numpy") and tail in _NUMPY_GLOBAL_DRAWS:
                self.report(
                    node, "DET002",
                    f"{name}() uses the shared global numpy RandomState; "
                    "draw from an explicit seeded Generator",
                )
            elif root == "random" and len(parts) == 2 \
                    and tail in _STDLIB_GLOBAL_DRAWS:
                self.report(
                    node, "DET002",
                    f"{name}() uses the global stdlib RNG; draw from an "
                    "explicit seeded Generator",
                )


# ----------------------------------------------------------------------
# DET010 — wall clock / entropy
# ----------------------------------------------------------------------

class ClockRule(RuleVisitor):
    def __init__(self, module: ModuleSource, waivers: WaiverIndex):
        super().__init__(module, waivers)
        self._exempt = _in_modules(module, (CLOCK_MODULE,))

    def visit_Call(self, node: ast.Call) -> None:
        if not self._exempt:
            name = call_name(node)
            if name is not None:
                suffix = ".".join(name.split(".")[-2:])
                if suffix in _CLOCK_ENTROPY_CALLS:
                    self.report(
                        node, "DET010",
                        f"{name}() reads the process clock/entropy; go "
                        "through repro.telemetry.clock so runs stay "
                        "reproducible and wall time has one definition",
                    )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# DET020 — module state written by worker-reachable functions
# ----------------------------------------------------------------------

class WorkerStateRule(RuleVisitor):
    """Flags module-level state written inside any function whose bare
    name is reachable from a pool worker entry (over-approximate)."""

    def __init__(self, module: ModuleSource, waivers: WaiverIndex,
                 graph: CallGraph, reachable: frozenset[str]):
        super().__init__(module, waivers)
        self._graph = graph
        self._reachable = reachable
        self._module_globals = module_level_assignments(module.tree)
        self._stack: list[str] = []

    def _visit_function(self, node) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _current_reachable(self) -> str | None:
        for name in self._stack:
            if name in self._reachable:
                return name
        return None

    def _flag(self, node: ast.AST, what: str) -> None:
        func = self._current_reachable()
        if func is None:
            return
        chain = " -> ".join(self._graph.witness_path(func))
        self.report(
            node, "DET020",
            f"{what} inside {func}(), which can run in a pool worker "
            f"({chain}); worker-side writes are lost and desynchronise "
            "jobs=1 and jobs>1 runs",
        )

    def visit_Global(self, node: ast.Global) -> None:
        self._flag(node, f"global statement for {', '.join(node.names)}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and isinstance(
            node.func.value, ast.Name
        ):
            owner = node.func.value.id
            if node.func.attr in _MUTATOR_METHODS \
                    and owner in self._module_globals:
                self._flag(
                    node,
                    f"in-place mutation {owner}.{node.func.attr}(...) of "
                    "module-level state",
                )
        self.generic_visit(node)

    def _flag_target(self, target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ) and target.value.id in self._module_globals:
            self._flag(
                node,
                f"item assignment into module-level {target.value.id!r}",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._flag_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._flag_target(node.target, node)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# DET021 — closures across the pool boundary
# ----------------------------------------------------------------------

class PoolBoundaryRule(RuleVisitor):
    def __init__(self, module: ModuleSource, waivers: WaiverIndex):
        super().__init__(module, waivers)
        self._module_funcs = toplevel_function_names(module.tree)
        self._local_defs: list[set[str]] = []

    def _visit_function(self, node) -> None:
        nested = {
            child.name
            for child in ast.walk(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not node
        }
        self._local_defs.append(nested)
        self.generic_visit(node)
        self._local_defs.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name is not None and last_attr(name) == "execute_shards" \
                and node.args:
            worker = node.args[0]
            if isinstance(worker, ast.Lambda):
                self.report(
                    node, "DET021",
                    "lambda passed to execute_shards; lambdas cannot be "
                    "pickled across the process boundary",
                )
            elif isinstance(worker, ast.Name):
                in_local_scope = any(
                    worker.id in defs for defs in self._local_defs
                )
                if in_local_scope and worker.id not in self._module_funcs:
                    self.report(
                        node, "DET021",
                        f"locally defined function {worker.id!r} passed to "
                        "execute_shards; move it to module level so it "
                        "pickles by reference and captures no state",
                    )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# DET022 — unordered iteration feeding order-sensitive work
# ----------------------------------------------------------------------

class SetOrderRule(RuleVisitor):
    """Set iteration order depends on ``PYTHONHASHSEED``; when the
    order feeds RNG draws or float accumulation the run result does
    too.  Flags ``sum``/``fsum``/``np.sum`` directly over a set
    expression, and ``for``-loops/comprehensions over a set expression
    whose body draws RNG or accumulates floats."""

    _ACCUMULATORS = frozenset({"sum", "fsum", "cumsum"})

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name is not None and last_attr(name) in self._ACCUMULATORS \
                and node.args and is_set_expression(node.args[0]):
            self.report(
                node, "DET022",
                f"{last_attr(name)}() over an unordered set: float "
                "accumulation order (and thus rounding) follows the hash "
                "seed; sort first",
            )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if is_set_expression(node.iter) and _order_sensitive_body(node.body):
            self.report(
                node, "DET022",
                "iterating an unordered set where the body draws RNG or "
                "accumulates floats; iterate sorted(...) instead",
            )
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            if is_set_expression(gen.iter) and _order_sensitive_body([node]):
                self.report(
                    node, "DET022",
                    "comprehension over an unordered set feeding RNG draws "
                    "or float accumulation; iterate sorted(...) instead",
                )
                break
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def _order_sensitive_body(body) -> bool:
    """Does the loop body draw RNG or accumulate floats?"""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult)
            ):
                return True
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name is None:
                    continue
                parts = name.lower().split(".")
                if any("rng" in part or part == "random" for part in parts):
                    return True
    return False


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------

def det_pass(
    module: ModuleSource,
    waivers: WaiverIndex,
    graph: CallGraph,
    reachable: frozenset[str],
) -> list[Diagnostic]:
    """Engine entry point: every DET rule over one module."""
    rules: list[RuleVisitor] = [
        RngRules(module, waivers),
        ClockRule(module, waivers),
        WorkerStateRule(module, waivers, graph, reachable),
        PoolBoundaryRule(module, waivers),
        SetOrderRule(module, waivers),
    ]
    findings: list[Diagnostic] = []
    for rule in rules:
        rule.visit(module.tree)
        findings.extend(
            diagnostic(
                code, message,
                path=str(module.path), line=lineno,
                relpath=module.relpath,
            )
            for lineno, code, message in rule.raw_reports
        )
    return findings
