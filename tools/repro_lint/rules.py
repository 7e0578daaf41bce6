"""The repro-lint rule catalogue.

Each rule encodes one repo contract (see ``docs/static-analysis.md`` for
the narrative catalogue):

=======  ==============================================================
RPL001   no numpy global-RNG use; ``default_rng`` must be seeded
RPL002   no stdlib ``random`` in the deterministic core
RPL003   no wall-clock reads in the deterministic core (whitelist)
RPL101   only module-level callables cross the executor boundary
RPL102   shared-memory views must be made read-only
RPL201   overlap predicates go through counted geometry helpers
RPL202   ``JoinStatistics`` fields written only via recording methods
RPL203   maintained pair sets mutated only via the delta-maintenance API
RPL204   1-D ``np.unique`` only via ``sorted_unique_keys``
RPL301   ``JoinResult.pairs`` contract (lazy ``tuple | None`` property)
RPL501   recovery-package file writes go through the atomic writer
RPL601   event-loop imports confined to ``repro/service/``
=======  ==============================================================
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.repro_lint import config
from tools.repro_lint.core import Diagnostic, FileContext, Rule, register, walk_scoped


def _is_np_random(node: ast.expr) -> bool:
    """True for expressions spelling ``np.random`` / ``numpy.random``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


@register
class NumpyGlobalRandomRule(Rule):
    code = "RPL001"
    title = "numpy global RNG"
    rationale = (
        "Module-level numpy randomness (np.random.rand, np.random.seed, ...) "
        "drives a hidden global RandomState: results then depend on call "
        "order across the whole process, which breaks the bit-reproducibility "
        "the parallel executors promise.  Randomness must flow from a seeded "
        "numpy.random.Generator, as in repro.datasets."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                for alias in node.names:
                    if alias.name not in config.NP_RANDOM_ALLOWED:
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            f"import of legacy numpy.random.{alias.name}; use a "
                            "seeded Generator (numpy.random.default_rng(seed))",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if not (isinstance(func, ast.Attribute) and _is_np_random(func.value)):
                    continue
                if func.attr not in config.NP_RANDOM_ALLOWED:
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"np.random.{func.attr}() uses the hidden global RNG; "
                        "use a seeded Generator (np.random.default_rng(seed))",
                    )
                elif func.attr == "default_rng" and not node.args and not node.keywords:
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "np.random.default_rng() without a seed is entropy-seeded "
                        "and nondeterministic; pass an explicit seed",
                    )


@register
class StdlibRandomRule(Rule):
    code = "RPL002"
    title = "stdlib random in deterministic core"
    rationale = (
        "repro.core / repro.joins / repro.geometry must be pure functions of "
        "their inputs: the stdlib random module (global Mersenne Twister, "
        "hash-seeded) has no place there.  Randomness belongs to callers and "
        "arrives as a seed or Generator parameter."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.DETERMINISTIC_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            "stdlib random imported in the deterministic core; "
                            "take a seeded numpy Generator parameter instead",
                        )
            elif isinstance(node, ast.ImportFrom) and (
                node.module == "random" or (node.module or "").startswith("random.")
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    "stdlib random imported in the deterministic core; "
                    "take a seeded numpy Generator parameter instead",
                )


@register
class WallClockRule(Rule):
    code = "RPL003"
    title = "wall-clock read in deterministic core"
    rationale = (
        "time.time()/perf_counter() inside the grids, joins or geometry make "
        "behaviour depend on machine speed (e.g. time-based tuning decisions "
        "would diverge between serial and parallel runs).  Timing belongs to "
        "the engine/obs layers; the explicit whitelist covers instrumentation "
        "whose *output* is the measured wall time."
    )

    def _whitelisted(self, ctx: FileContext, qualname: str) -> bool:
        return any(
            pattern in ctx.resolved
            and (qualname == scope or qualname.startswith(scope + "."))
            for (pattern, scope), _why in config.TIMING_WHITELIST.items()
        )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.DETERMINISTIC_SCOPE):
            return
        # Names imported straight off the time module, e.g.
        # ``from time import perf_counter``.
        bare_clocks: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in config.WALL_CLOCK_FUNCTIONS:
                        bare_clocks.add(alias.asname or alias.name)
        for node, qualname in walk_scoped(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            clock: str | None = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in config.WALL_CLOCK_FUNCTIONS
            ):
                clock = f"time.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in bare_clocks:
                clock = func.id
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in config.DATETIME_NOW_FUNCTIONS
                and isinstance(func.value, ast.Name)
                and func.value.id in ("datetime", "date")
            ):
                clock = f"{func.value.id}.{func.attr}"
            if clock is None or self._whitelisted(ctx, qualname):
                continue
            yield ctx.diagnostic(
                node,
                self.code,
                f"{clock}() read inside the deterministic core; move timing to "
                "the engine/obs layer or whitelist the instrumentation site",
            )


@register
class ExecutorSubmissionRule(Rule):
    code = "RPL101"
    title = "non-module-level callable submitted to a pool"
    rationale = (
        "ProcessPoolExecutor pickles the submitted callable: lambdas, nested "
        "functions and bound closures either fail outright or silently drag "
        "live index state across the boundary.  Only module-level callables "
        "may be submitted from repro.engine.executors."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.EXECUTORS_SCOPE):
            return
        module_callables: set[str] = set()
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module_callables.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    module_callables.add(alias.asname or alias.name.split(".")[0])
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit"
                and node.args
            ):
                continue
            target = node.args[0]
            if isinstance(target, ast.Lambda):
                yield ctx.diagnostic(
                    target,
                    self.code,
                    "lambda submitted to an executor pool; submit a "
                    "module-level function",
                )
            elif isinstance(target, ast.Name):
                if target.id not in module_callables:
                    yield ctx.diagnostic(
                        target,
                        self.code,
                        f"locally defined callable {target.id!r} submitted to an "
                        "executor pool; submit a module-level function",
                    )
            elif not isinstance(target, ast.Attribute):
                yield ctx.diagnostic(
                    target,
                    self.code,
                    "computed callable submitted to an executor pool; submit a "
                    "module-level function",
                )


@register
class SharedMemoryReadOnlyRule(Rule):
    code = "RPL102"
    title = "writable shared-memory view"
    rationale = (
        "Context arrays published through multiprocessing.shared_memory are "
        "read concurrently by every worker in the verify stage; a writable "
        "view lets one task corrupt every other task's input.  Each "
        "np.ndarray(..., buffer=...) view must be locked with "
        "setflags(write=False) in the same function."
    )

    @staticmethod
    def _is_buffer_view(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        named_ndarray = isinstance(func, ast.Name) and func.id == "ndarray"
        attr_ndarray = (
            isinstance(func, ast.Attribute)
            and func.attr == "ndarray"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        )
        if not (named_ndarray or attr_ndarray):
            return False
        return any(keyword.arg == "buffer" for keyword in node.keywords)

    @staticmethod
    def _readonly_names(body: list[ast.stmt]) -> set[str]:
        names: set[str] = set()
        for node in body:
            for child in ast.walk(node):
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "setflags"
                    and isinstance(child.func.value, ast.Name)
                ):
                    for keyword in child.keywords:
                        if (
                            keyword.arg == "write"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is False
                        ):
                            names.add(child.func.value.id)
                elif isinstance(child, ast.Assign):
                    for target in child.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and target.attr == "writeable"
                            and isinstance(target.value, ast.Attribute)
                            and target.value.attr == "flags"
                            and isinstance(target.value.value, ast.Name)
                            and isinstance(child.value, ast.Constant)
                            and child.value.value is False
                        ):
                            names.add(target.value.value.id)
        return names

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.ENGINE_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            readonly = self._readonly_names(node.body)
            for child in ast.walk(node):
                if not (
                    isinstance(child, ast.Assign)
                    and self._is_buffer_view(child.value)
                ):
                    continue
                target = child.targets[0]
                if len(child.targets) == 1 and isinstance(target, ast.Name):
                    if target.id in readonly:
                        continue
                    yield ctx.diagnostic(
                        child,
                        self.code,
                        f"shared-memory view {target.id!r} is never locked with "
                        f"{target.id}.setflags(write=False)",
                    )
                else:
                    yield ctx.diagnostic(
                        child,
                        self.code,
                        "shared-memory view stored without a read-only lock; "
                        "assign to a name and setflags(write=False) first",
                    )


def _bound_identifiers(node: ast.expr) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _is_bound_expr(node: ast.expr) -> bool:
    return any(
        config.BOUND_NAME_RE.search(name) for name in _bound_identifiers(node)
    )


@register
class UncountedOverlapRule(Rule):
    code = "RPL201"
    title = "ad-hoc coordinate comparison"
    rationale = (
        "Figure 7(c) compares algorithms by overlap-test counts, so every "
        "candidate filter must charge JoinStatistics.overlap_tests through "
        "the counted repro.geometry helpers (overlap_*, sweep and batch "
        "kernels).  A raw lo/hi comparison inside joins/ or core/ is "
        "invisible to that accounting; counted kernels carry a justified "
        "suppression."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.COUNTED_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                    continue
                left, right = operands[index], operands[index + 1]
                if _is_bound_expr(left) and _is_bound_expr(right):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "raw box-bound comparison bypasses overlap-test "
                        "accounting; use the counted repro.geometry helpers "
                        "(or suppress with a justification on counted kernels)",
                    )
                    break


@register
class StatisticsWriteRule(Rule):
    code = "RPL202"
    title = "direct JoinStatistics field write"
    rationale = (
        "JoinStatistics fields are aggregates with invariants (task_retries "
        "mirrors retry-class events; overlap_tests sums task counters). "
        "Writing fields directly bypasses those invariants; all mutation "
        "goes through the recording methods on JoinStatistics itself."
    )

    @staticmethod
    def _is_stats_expr(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in config.STATISTICS_ROOTS
        if isinstance(node, ast.Attribute):
            return node.attr in config.STATISTICS_ROOTS
        return False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.LIBRARY_SCOPE) or ctx.in_scope(config.BASE_MODULE):
            return
        for node in ast.walk(ctx.tree):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in config.STATISTICS_FIELDS
                    and self._is_stats_expr(target.value)
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"direct write to JoinStatistics.{target.attr}; use the "
                        "recording methods (record_stage, record_task, "
                        "record_events, add_overlap_tests, ...)",
                    )


@register
class PairSetWriteRule(Rule):
    code = "RPL203"
    title = "direct maintained pair-set mutation"
    rationale = (
        "MaintainedPairSet carries a join result across simulation steps; "
        "its bit-identity contract with a full re-join is auditable only "
        "because every mutation flows through patch (plus construction "
        "from a full result or from packed keys).  Poking the base keys, "
        "their alive mask, the pending extra keys, the count or the object "
        "count directly would let an unsorted, duplicated or miscounted key "
        "slip in and silently corrupt every later step."
    )

    @staticmethod
    def _is_pairset_expr(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in config.PAIRSET_ROOTS
        if isinstance(node, ast.Attribute):
            return node.attr in config.PAIRSET_ROOTS
        return False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.LIBRARY_SCOPE) or ctx.in_scope(
            config.PAIRS_MODULE
        ):
            return
        for node in ast.walk(ctx.tree):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in config.PAIRSET_FIELDS
                    and self._is_pairset_expr(target.value)
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"direct write to MaintainedPairSet.{target.attr}; "
                        "mutate only through patch "
                        "(or rebuild the set from a full join result)",
                    )


@register
class SortedUniqueRule(Rule):
    code = "RPL204"
    title = "1-D np.unique outside the sorted-key primitive"
    rationale = (
        "Every join answer is canonicalised by deduplicating packed pair "
        "keys, and numpy 2.x's np.unique hashes its input first, which "
        "costs tens of times more than np.sort plus an adjacent-compare "
        "mask.  repro.geometry.sorted_unique_keys is that mask and is "
        "bit-identical to np.unique on integer keys, so 1-D deduplication "
        "in the library goes through it.  Row-wise calls (axis=...) are "
        "not 1-D and are exempt."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.LIBRARY_SCOPE) or ctx.in_scope(
            config.PAIRS_MODULE
        ):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                if any(alias.name == "unique" for alias in node.names):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "import of numpy.unique; deduplicate 1-D keys with "
                        "repro.geometry.sorted_unique_keys",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr == "unique"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy")
                ):
                    continue
                if any(keyword.arg == "axis" for keyword in node.keywords):
                    continue
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"1-D {func.value.id}.unique() hashes its input; use "
                    "repro.geometry.sorted_unique_keys (np.sort plus an "
                    "adjacent-compare mask, bit-identical on integer keys)",
                )


@register
class JoinResultContractRule(Rule):
    code = "RPL301"
    title = "JoinResult.pairs contract"
    rationale = (
        "JoinResult.pairs is `tuple | None`: canonical (i, j) arrays, or "
        "None exactly in count-only mode, decoded from the stored pair "
        "keys on first read.  Downstream consumers (unique_pairs, the "
        "service, figures) rely on that shape; lists or post-hoc mutation "
        "break the bit-identical-to-serial guarantee."
    )

    def _check_base(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ctx.tree.body:
            if not (isinstance(node, ast.ClassDef) and node.name == "JoinResult"):
                continue
            annotation = None
            for statement in node.body:
                if (
                    isinstance(statement, ast.FunctionDef)
                    and statement.name == "pairs"
                    and any(
                        isinstance(decorator, ast.Name) and decorator.id == "property"
                        for decorator in statement.decorator_list
                    )
                    and statement.returns is not None
                ):
                    annotation = ast.unparse(statement.returns)
            if annotation != config.JOIN_RESULT_PAIRS_ANNOTATION:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    "JoinResult.pairs must stay a property annotated exactly "
                    f"`-> {config.JOIN_RESULT_PAIRS_ANNOTATION}` "
                    f"(found {annotation!r})",
                )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.in_scope(config.BASE_MODULE):
            yield from self._check_base(ctx)
            return
        if not ctx.in_scope(config.LIBRARY_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr == "pairs":
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            "JoinResult.pairs is set only by the engine at "
                            "construction; do not assign .pairs after the fact",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else None
                )
                if name != "JoinResult":
                    continue
                keys_value: ast.expr | None = None
                for keyword in node.keywords:
                    if keyword.arg == "pairs":
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            "JoinResult.pairs is decoded from the result's "
                            "keys; construct with keys=, not pairs=",
                        )
                    elif keyword.arg == "keys":
                        keys_value = keyword.value
                if keys_value is None and len(node.args) >= 3:
                    keys_value = node.args[2]
                if isinstance(keys_value, (ast.List, ast.ListComp, ast.Tuple)):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "JoinResult keys must be one pair-key array or None, "
                        "not a list or tuple",
                    )


@register
class RecoveryAtomicWriteRule(Rule):
    code = "RPL501"
    title = "non-atomic file write in the recovery package"
    rationale = (
        "A checkpoint is only trustworthy because its write path is "
        "crash-safe: bytes go to a temp file, are fsynced, and are "
        "renamed into place, so a manifest can never name a payload "
        "that was not fully durable.  A direct open(..., 'w'), "
        "np.savez, json.dump, Path.write_bytes or os.replace anywhere "
        "else in repro/recovery/ reintroduces exactly the torn-write "
        "window the subsystem exists to close; all durable writes go "
        "through repro.recovery.atomic."
    )

    @staticmethod
    def _open_write_mode(node: ast.Call) -> str | None:
        """The write-mode string of an ``open()`` call, or ``None``."""
        func = node.func
        is_open = (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr == "open"
        )
        if not is_open:
            return None
        mode_expr: ast.expr | None = None
        if len(node.args) >= 2:
            mode_expr = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode_expr = keyword.value
        if mode_expr is None:
            return None  # default "r": read-only
        if isinstance(mode_expr, ast.Constant) and isinstance(mode_expr.value, str):
            mode = mode_expr.value
            if set(mode) & config.WRITE_MODE_CHARS:
                return mode
            return None
        # A computed mode can't be proven read-only; flag it.
        return ast.unparse(mode_expr)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.RECOVERY_SCOPE) or ctx.in_scope(
            config.ATOMIC_MODULE
        ):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            mode = self._open_write_mode(node)
            if mode is not None:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"open(..., {mode!r}) in repro/recovery/ bypasses the "
                    "atomic write protocol; use repro.recovery.atomic",
                )
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            receiver = func.value
            if (
                isinstance(receiver, ast.Name)
                and func.attr in config.MODULE_WRITE_CALLS.get(receiver.id, frozenset())
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"{receiver.id}.{func.attr}() in repro/recovery/ bypasses "
                    "the atomic write protocol; use repro.recovery.atomic "
                    "(write_npz / write_json / atomic_write_bytes)",
                )
            elif func.attr in config.PATH_WRITE_ATTRS:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f".{func.attr}() in repro/recovery/ bypasses the atomic "
                    "write protocol; use repro.recovery.atomic",
                )


@register
class ServiceAsyncImportRule(Rule):
    code = "RPL601"
    title = "event-loop import outside the service package"
    rationale = (
        "The library below the service boundary is synchronous by "
        "design: join algorithms, executors and the incremental layer "
        "are driven step-by-step and verified bit-identical against a "
        "serial oracle, which an ambient event loop would undermine "
        "(implicit scheduling, loop-bound state, unawaited coroutines).  "
        "asyncio and its kin (selectors, uvloop, trio, anyio, curio) "
        "are therefore importable only from repro/service/, where the "
        "JoinService front-end bridges into the synchronous core via "
        "asyncio.to_thread."
    )

    @staticmethod
    def _is_async_module(module: str) -> bool:
        root = module.partition(".")[0]
        return root in config.ASYNC_MODULES

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.LIBRARY_SCOPE) or ctx.in_scope(
            config.SERVICE_SCOPE
        ):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if self._is_async_module(module):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"event-loop import {module!r} outside repro/service/; "
                        "the library core is synchronous — async front-ends "
                        "live in repro.service",
                    )
                    break
