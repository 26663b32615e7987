"""Tier (b) rules: invariants greps could not express.

These rules reason about scope — which lock is held, which modules feed
serialized output, which writes must be atomic, which handlers may
swallow — instead of matching tokens.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rule import LintContext, Rule
from repro.analysis.rules_ported import ModuleMemberRule

# Declarative lock registry: module path -> {attribute -> guarding lock}.
# An attribute listed here may only be touched through `self.<attr>` inside
# a `with self.<lock>:` block (``__init__`` is exempt: construction happens
# before the object is shared).
GUARDED_BY: dict[str, dict[str, str]] = {
    "repro/runtime/service.py": {
        "_sites": "_residency_lock",
        "_ever_resident": "_residency_lock",
    },
    "repro/serving/batching.py": {
        "_pending": "_lock",
        "_active_sites": "_lock",
    },
    "repro/serving/breaker.py": {
        "_state": "_lock",
        "_breakers": "_lock",
    },
    "repro/serving/server.py": {
        "_inflight": "_lifecycle",
        "_phase": "_lifecycle",
    },
}

# Modules whose iteration order reaches serialized output (JSON/JSONL
# reports, fused facts, run artifacts).  Set iteration here must be
# wrapped in sorted().
OUTPUT_ORDER_MODULES: tuple[str, ...] = (
    "repro/fusion/",
    "repro/runtime/serialize.py",
    "repro/evaluation/",
)

# Modules whose writable opens must go through the atomic-write helpers
# (registry artifacts and run-dir state live here); resilience.py holds
# the sanctioned primitive.
ATOMIC_WRITE_MODULES: tuple[str, ...] = (
    "repro/runtime/",
    "repro/fusion/store.py",
)
ATOMIC_WRITE_ALLOWED: frozenset[str] = frozenset(
    {"repro/runtime/resilience.py"}
)


class LockDisciplineRule(Rule):
    """GUARDED_BY attributes are only touched under their lock."""

    id = "lock-discipline"
    summary = "guarded attributes are only touched under their lock"
    rationale = (
        "ExtractionService mutates residency state (_sites, "
        "_ever_resident) from concurrent request threads; an unlocked "
        "read races the LRU eviction path and can report or revive a "
        "site mid-eviction.  The GUARDED_BY registry "
        "in repro.analysis.rules_discipline declares which attribute "
        "belongs to which lock."
    )
    fix_hint = "move the access inside `with self.<lock>:`"

    def applies_to(self, module: str) -> bool:
        return module in GUARDED_BY

    def check(self, context: LintContext) -> Iterator[Finding]:
        guarded = GUARDED_BY[context.module]
        lock_names = frozenset(guarded.values())
        out: list[Finding] = []
        for top in ast.iter_child_nodes(context.tree):
            self._scan(top, frozenset(), "", guarded, lock_names, context, out)
        yield from out

    def _scan(
        self,
        node: ast.AST,
        held: frozenset,
        func: str,
        guarded: dict,
        lock_names: frozenset,
        context: LintContext,
        out: list,
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested function may run after the lock is released: reset.
            for child in ast.iter_child_nodes(node):
                self._scan(
                    child, frozenset(), node.name, guarded, lock_names,
                    context, out,
                )
            return
        if isinstance(node, ast.Lambda):
            self._scan(
                node.body, frozenset(), "<lambda>", guarded, lock_names,
                context, out,
            )
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set()
            for item in node.items:
                expr = item.context_expr
                self._scan(expr, held, func, guarded, lock_names, context, out)
                if item.optional_vars is not None:
                    self._scan(
                        item.optional_vars, held, func, guarded, lock_names,
                        context, out,
                    )
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and expr.attr in lock_names
                ):
                    acquired.add(expr.attr)
            inner = held | acquired
            for child in node.body:
                self._scan(
                    child, inner, func, guarded, lock_names, context, out
                )
            return
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in guarded
            and guarded[node.attr] not in held
            and func != "__init__"
        ):
            out.append(
                self.finding(
                    context,
                    node,
                    f"self.{node.attr} touched outside "
                    f"`with self.{guarded[node.attr]}:`",
                )
            )
        for child in ast.iter_child_nodes(node):
            self._scan(child, held, func, guarded, lock_names, context, out)


def _is_set_expression(node: ast.AST, unioned: bool = False) -> bool:
    """True if ``node`` evaluates to a set (order depends on hash seed).

    ``unioned`` relaxes the check for ``.keys()``: a lone ``dict.keys()``
    preserves insertion order, but unioning two views produces a set.
    """

    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in {
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            }:
                return True
            if func.attr == "keys" and unioned:
                return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expression(node.left, True) or _is_set_expression(
            node.right, True
        )
    return False


class UnsortedSetIterationRule(Rule):
    """Set iteration on output paths must be sorted."""

    id = "unsorted-set-iteration"
    summary = "output paths iterate sets via sorted()"
    rationale = (
        "Set iteration order depends on PYTHONHASHSEED; any set or "
        "dict-view union iterated on a path that feeds serialized output "
        "(fusion, run artifacts, evaluation reports) makes that output "
        "differ between runs.  Byte-identical reports and fused facts "
        "are a repo contract (resume/equivalence gates diff them)."
    )
    fix_hint = "wrap the iterable in sorted(...)"

    def applies_to(self, module: str) -> bool:
        return any(
            module == scope or module.startswith(scope)
            for scope in OUTPUT_ORDER_MODULES
        )

    def check(self, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            iterables: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ):
                iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                if _is_set_expression(iterable):
                    yield self.finding(
                        context,
                        iterable,
                        "iterating a set-valued expression in "
                        "hash-seed-dependent order",
                    )


class AtomicWriteRule(Rule):
    """Registry / run-dir writes go through the atomic helpers."""

    id = "atomic-write"
    summary = "durable writes are atomic (temp + fsync + replace)"
    rationale = (
        "Registry artifacts, run-dir state, and fused output must never "
        "be observable half-written: a crash mid-write would leave a "
        "torn file that a resumed run or a reader then trusts.  All "
        "writable opens in these modules go through "
        "resilience.atomic_write (or RunJournal), which stages a temp "
        "file, fsyncs, and os.replace()s into place."
    )
    fix_hint = (
        "use repro.runtime.resilience.atomic_write "
        "(temp file + fsync + os.replace)"
    )

    def applies_to(self, module: str) -> bool:
        if module in ATOMIC_WRITE_ALLOWED:
            return False
        return any(
            module == scope or module.startswith(scope)
            for scope in ATOMIC_WRITE_MODULES
        )

    @staticmethod
    def _mode_argument(node: ast.Call) -> ast.AST | None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            # builtin open(path, mode)
            if len(node.args) >= 2:
                return node.args[1]
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "open"
            and not (
                isinstance(func.value, ast.Name)
                and func.value.id in {"os", "io", "gzip", "tarfile"}
            )
        ):
            # Path.open(mode=...) — first positional is the mode
            if node.args:
                return node.args[0]
        else:
            return None
        for keyword in node.keywords:
            if keyword.arg == "mode":
                return keyword.value
        return None

    def check(self, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            mode = self._mode_argument(node)
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and set("wx+") & set(mode.value)
            ):
                yield self.finding(
                    context,
                    node,
                    f"writable open(mode={mode.value!r}) on a durable "
                    "path without atomic-write discipline",
                )


class ExceptionTaxonomyRule(Rule):
    """Broad excepts in runtime/ must classify, re-raise, or justify."""

    id = "exception-taxonomy"
    summary = "runtime/ and serving/ broad excepts re-raise or classify_error"
    rationale = (
        "The runtime's retry/quarantine machinery routes every failure "
        "through resilience.classify_error so transient faults are "
        "retried and permanent ones quarantined; the serving tier's "
        "shed/breaker decisions hang off the same taxonomy.  An "
        "`except Exception` that silently swallows breaks that taxonomy "
        "and hides poison pages.  Handlers that genuinely must swallow "
        "carry an allow-comment explaining why."
    )
    fix_hint = (
        "re-raise, call resilience.classify_error(exc), or add "
        "`# repro: allow[exception-taxonomy] <reason>`"
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    def applies_to(self, module: str) -> bool:
        return module.startswith(("repro/runtime/", "repro/serving/"))

    def _is_broad(self, node: ast.ExceptHandler) -> bool:
        if node.type is None:
            return True
        types = (
            node.type.elts if isinstance(node.type, ast.Tuple)
            else [node.type]
        )
        for expr in types:
            if isinstance(expr, ast.Name) and expr.id in self._BROAD:
                return True
        return False

    @staticmethod
    def _handler_complies(node: ast.ExceptHandler) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Raise):
                return True
            if isinstance(child, ast.Call):
                func = child.func
                name = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else ""
                )
                if name == "classify_error":
                    return True
        return False

    def check(self, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._is_broad(node) and not self._handler_complies(node):
                yield self.finding(
                    context,
                    node,
                    "broad except swallows without re-raise or "
                    "classify_error",
                )


class GcPolicyRule(ModuleMemberRule):
    """The collector's process-wide switches belong to the process owner."""

    id = "gc-policy"
    summary = "gc freeze/collect/enable/thresholds only in __main__ and the runner"
    rationale = (
        "The garbage collector is process-wide state: a freeze, a forced "
        "collection, a disable or a threshold change acts on every thread "
        "and on whatever hosts the code (tests, in-process servers).  "
        "Only the process owners touch it: serve-http's start-up freeze "
        "in repro/__main__.py and the corpus runner's seed-KB freeze in "
        "repro/runtime/runner.py.  Parsed documents free by refcount "
        "(Document.release), not by a collection."
    )
    fix_hint = (
        "release what you own (Document.release) and leave the collector "
        "to __main__.py or the runner"
    )
    module_name = "gc"
    members = frozenset(
        {"freeze", "unfreeze", "collect", "disable", "enable", "set_threshold"}
    )

    _ALLOWED = frozenset({"repro/__main__.py", "repro/runtime/runner.py"})

    def applies_to(self, module: str) -> bool:
        return module.startswith("repro/") and module not in self._ALLOWED

    def _message(self) -> str:
        return "the collector is process-wide state"


DISCIPLINE_RULES: tuple[Rule, ...] = (
    LockDisciplineRule(),
    UnsortedSetIterationRule(),
    AtomicWriteRule(),
    ExceptionTaxonomyRule(),
    GcPolicyRule(),
)
