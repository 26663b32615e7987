"""Tier (a) rules: faithful AST ports of the seven CI grep gates.

Each rule's ``rationale`` carries over the comment that used to sit on
the corresponding ``ci.yml`` grep step, so the knowledge survives the
migration.  Being AST-based, these ports see scope the greps could not:
a ``time.sleep`` inside a comment or docstring no longer trips the gate,
while an aliased ``from time import sleep as pause`` no longer slips
past it.
"""

from __future__ import annotations

import ast
import subprocess
from collections.abc import Iterator
from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.rule import LintContext, Rule, docstring_constants


class IdCacheKeyRule(Rule):
    """No ``id(document)``-keyed page caches."""

    id = "id-cache-key"
    summary = "page caches must not be keyed by id(document)"
    rationale = (
        "Page-scoped caches must be keyed by Document.doc_id — id() keys "
        "leak and can serve another page's state after the interpreter "
        "recycles an object id."
    )
    fix_hint = "key by Document.doc_id"

    _PAGE_NAMES = frozenset({"document", "doc", "page"})

    def applies_to(self, module: str) -> bool:
        return (
            module.startswith("repro/")
            and module != "repro/runtime/cache.py"
        )

    def check(self, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and len(node.args) == 1
                and not node.keywords
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Name):
                name = arg.id
            elif isinstance(arg, ast.Attribute):
                name = arg.attr
            else:
                continue
            if name in self._PAGE_NAMES:
                yield self.finding(
                    context,
                    node,
                    f"id({name}) used as a page-scoped cache key",
                )


class SiblingIndexScanRule(Rule):
    """No ``siblings.index()`` scans in hot paths."""

    id = "sibling-index-scan"
    summary = "no siblings.index() position scans"
    rationale = (
        "Sibling positions are assigned at parse time "
        "(ElementNode.element_index); a siblings.index(element) scan is "
        "O(siblings) per lookup and quadratic over wide elements."
    )
    fix_hint = "use ElementNode.element_index (parse-time position)"

    def check(self, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "index"
            ):
                continue
            target = node.func.value
            is_siblings = (
                isinstance(target, ast.Name) and target.id == "siblings"
            ) or (
                isinstance(target, ast.Attribute)
                and target.attr == "siblings"
            )
            if is_siblings:
                yield self.finding(
                    context,
                    node,
                    "siblings.index() linear position scan",
                )


def _module_aliases(tree: ast.Module, module: str) -> set[str]:
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or module)
    return aliases


class ModuleMemberRule(Rule):
    """Shared machinery: flag use of some members of one module.

    Alias-aware on both axes: ``import time as t; t.sleep(...)`` and
    ``from time import sleep as pause; pause(...)`` are both caught.
    """

    module_name = ""
    members: frozenset[str] = frozenset()

    def _message(self) -> str:
        raise NotImplementedError

    def check(self, context: LintContext) -> Iterator[Finding]:
        module = self.module_name
        module_aliases = _module_aliases(context.tree, module)
        #: local name -> the member it was imported as
        member_names: dict[str, str] = {}
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ImportFrom) and node.module == module:
                for alias in node.names:
                    if alias.name in self.members:
                        member_names[alias.asname or alias.name] = alias.name
                        yield self.finding(
                            context,
                            node,
                            f"`from {module} import {alias.name}` — "
                            + self._message(),
                        )
        for node in ast.walk(context.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self.members
                and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases
            ):
                yield self.finding(
                    context,
                    node,
                    f"{node.value.id}.{node.attr} — " + self._message(),
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in member_names
            ):
                yield self.finding(
                    context,
                    node,
                    f"{node.func.id}() call of "
                    f"{module}.{member_names[node.func.id]} — "
                    + self._message(),
                )


class BareSleepRule(ModuleMemberRule):
    """Retry waiting must go through ``sleep_backoff``."""

    id = "bare-sleep"
    summary = "retry waits go through resilience.sleep_backoff"
    rationale = (
        "All retry waiting must go through repro.runtime.resilience's "
        "sleep_backoff (bounded exponential window, deterministic "
        "jitter).  A bare time.sleep retry loop has no bound, no jitter, "
        "and no chaos-test determinism.  resilience.py holds the one "
        "sanctioned sleep; faults.py's sleep simulates hangs, not "
        "retries."
    )
    fix_hint = "use repro.runtime.resilience.sleep_backoff"
    module_name = "time"
    members = frozenset({"sleep"})

    _ALLOWED = frozenset(
        {"repro/runtime/resilience.py", "repro/testing/faults.py"}
    )

    def applies_to(self, module: str) -> bool:
        if module in self._ALLOWED:
            return False
        return module.startswith("repro/") or module.startswith("benchmarks/")

    def _message(self) -> str:
        return "bare sleep outside the sanctioned resilience/faults modules"


class BarePerfCounterRule(ModuleMemberRule):
    """Benchmarks must time through ``repro.obs``."""

    id = "bare-perf-counter"
    summary = "benchmarks time via repro.obs MetricsRegistry.timer"
    rationale = (
        "Benchmarks must time through MetricsRegistry.timer so every run "
        "leaves a mergeable out/<name>.metrics.json histogram; a bare "
        "perf-counter call produces a number the obs pipeline never "
        "sees."
    )
    fix_hint = "time via repro.obs (MetricsRegistry.timer)"
    module_name = "time"
    members = frozenset({"perf_counter"})

    def applies_to(self, module: str) -> bool:
        return module.startswith("benchmarks/")

    def _message(self) -> str:
        return "bare perf-counter timing bypasses the obs pipeline"


class RoundedConfidenceRule(Rule):
    """No rounded confidences in row emission."""

    id = "rounded-confidence"
    summary = "rows emit full-precision confidence"
    rationale = (
        "extraction_row must emit full-precision confidence: JSON floats "
        "round-trip exactly, so fuse-from-disk stays bit-identical to "
        "fuse-in-memory.  Rounding belongs in human-facing summaries "
        "only."
    )
    fix_hint = (
        "emit extraction.confidence at full precision "
        "(round only in human-facing summaries)"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "round"
                and node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Attribute) and arg.attr == "confidence":
                yield self.finding(
                    context,
                    node,
                    "round() applied to a .confidence value",
                )


class XferSiteLiteralRule(Rule):
    """No site-specific literals in the ``xfer:`` feature family."""

    id = "xfer-site-literal"
    summary = "xfer: features stay site-agnostic"
    rationale = (
        "The xfer: feature family must stay site-agnostic — raw XPath "
        "steps and attribute values are exactly what does not transfer "
        "across sites.  Anything site-specific belongs in the site: "
        "namespace built by repro.core.extraction.features."
    )
    fix_hint = (
        "site-local vocabulary belongs in the site: namespace"
    )

    _TOKENS = ("xpath(", "attr=")

    def applies_to(self, module: str) -> bool:
        return module == "repro/transfer/features.py"

    def check(self, context: LintContext) -> Iterator[Finding]:
        docstrings = docstring_constants(context.tree)
        for node in ast.walk(context.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                for token in self._TOKENS:
                    if token in node.value:
                        yield self.finding(
                            context,
                            node,
                            f"site-specific literal ({token!r}) in xfer "
                            "feature construction",
                        )
                        break
            elif isinstance(node, ast.Attribute) and node.attr == "xpath":
                yield self.finding(
                    context,
                    node,
                    "xpath access in xfer feature construction",
                )
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg == "attr":
                        yield self.finding(
                            context,
                            keyword.value,
                            "attr= keyword in xfer feature construction",
                        )


class TrackedBytecodeRule(Rule):
    """No tracked ``.pyc`` / ``__pycache__`` entries."""

    id = "tracked-bytecode"
    summary = "no bytecode under version control"
    rationale = (
        "PR 4 accidentally committed bytecode; .gitignore now covers it "
        "and this gate keeps it from coming back."
    )
    fix_hint = (
        "remove it (git rm --cached) — .gitignore covers __pycache__"
    )
    repo_level = True

    def applies_to(self, module: str) -> bool:
        return False

    def scan_repo(self, root) -> Iterator[Finding]:
        try:
            proc = subprocess.run(
                ["git", "-C", str(Path(root)), "ls-files"],
                capture_output=True,
                text=True,
                check=True,
            )
        except (OSError, subprocess.CalledProcessError):
            # No git (e.g. an exported tree): nothing to scan.
            return
        for name in proc.stdout.splitlines():
            if name.endswith(".pyc") or "__pycache__" in name.split("/"):
                yield Finding(
                    path=name,
                    line=1,
                    col=1,
                    rule_id=self.id,
                    message="bytecode artifact is tracked by git",
                    fix_hint=self.fix_hint,
                )


PORTED_RULES: tuple[Rule, ...] = (
    IdCacheKeyRule(),
    SiblingIndexScanRule(),
    BareSleepRule(),
    BarePerfCounterRule(),
    RoundedConfidenceRule(),
    XferSiteLiteralRule(),
    TrackedBytecodeRule(),
)
