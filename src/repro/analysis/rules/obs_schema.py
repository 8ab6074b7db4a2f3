"""Obs-schema conformance rules (RA005-RA007).

The trace-event registry (``repro.obs.schema.EVENT_ATTRS``) and the
canonical metric-name constants (``repro.obs.metrics``) are the
contract between emitters and every trace/metrics consumer. The
runtime validator only sees names that were actually emitted on a given
run; these rules close the gap statically:

* **RA005** — a string literal passed to ``tracer.event(...)`` that is
  not a registered event name (typo'd names ship silently otherwise).
* **RA006** — a registered event name no scanned emission site ever
  produces (dead schema entries rot the docs and the validator).
* **RA007** — a string literal passed to a metric constructor
  (``counter``/``gauge``/``histogram``) instead of the canonical
  constant from ``repro.obs.metrics``.

RA005/RA007 read both plain literals and two-branch conditional
expressions; dynamically computed names are skipped, and every event
name in ``src/`` is one of those two forms. A recorded trace is checked
once more by ``crowdsky trace validate``, which rejects any event name
outside the registry. RA006 only runs when the schema module itself is
part of the scanned tree, so scanning a subpackage never yields false
"never emitted" findings.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding, SEVERITY_WARNING
from repro.analysis.rules.base import (
    ProjectRule,
    literal_str,
    literal_strs,
    register,
)

METRIC_CONSTRUCTORS = frozenset({"counter", "gauge", "histogram"})


def _registry_entries(
    tree, registry_name: str
) -> Optional[Dict[str, ast.AST]]:
    """``{event name: key node}`` from the schema module's registry.

    ``tree`` may be an AST node or a pre-flattened node list.
    """
    nodes = tree if isinstance(tree, (list, tuple)) else ast.walk(tree)
    for node in nodes:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == registry_name
                and isinstance(node.value, ast.Dict)
            ):
                entries: Dict[str, ast.AST] = {}
                for key in node.value.keys:
                    name = key and literal_str(key)
                    if name is not None:
                        entries[name] = key
                return entries
    return None


def _metric_constants(tree, prefix: str) -> Set[str]:
    """Canonical metric-name values defined in the metrics module.

    ``tree`` may be an AST node or a pre-flattened node list.
    """
    out: Set[str] = set()
    nodes = tree if isinstance(tree, (list, tuple)) else ast.walk(tree)
    for node in nodes:
        if not isinstance(node, ast.Assign):
            continue
        value = literal_str(node.value)
        if value is None or not value.startswith(prefix):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                out.add(value)
    return out


def _event_calls(calls) -> Iterator[Tuple[ast.Call, List[str]]]:
    """Every ``<something>.event(...)`` call with its literal names.

    ``calls`` is an iterable of ``ast.Call`` nodes
    (``SourceModule.calls()``).
    """
    for node in calls:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "event"
            and node.args
        ):
            yield node, literal_strs(node.args[0])


@register
class ObsSchemaRule(ProjectRule):
    """RA005: unregistered trace event name at an emission site."""

    code = "RA005"
    family = "obs-schema"
    summary = (
        "tracer.event() name literal not registered in "
        "repro.obs.schema.EVENT_ATTRS"
    )

    def check_project(self, modules, config: AnalysisConfig) -> Iterator[Finding]:
        schema = next(
            (m for m in modules if m.name == config.schema_module), None
        )
        if schema is None:
            return
        registered = _registry_entries(schema.walk(), config.schema_registry)
        if registered is None:
            return
        emitted: Set[str] = set()
        for module in modules:
            if module.name == config.schema_module:
                continue
            if module.name.startswith(config.root_package + ".analysis"):
                continue
            for call, names in _event_calls(module.calls()):
                for name in names:
                    emitted.add(name)
                    if name not in registered:
                        yield self.finding(
                            module, call,
                            f"trace event {name!r} is not registered "
                            "in repro.obs.schema.EVENT_ATTRS; register "
                            "it (with its required attrs) or fix the "
                            "typo",
                        )
        never = sorted(set(registered) - emitted)
        unused = UnusedEventRule()
        for name in never:
            yield unused.finding(
                schema, registered[name],
                f"event {name!r} is registered in EVENT_ATTRS but no "
                "scanned emission site produces it; emit it or drop "
                "the entry",
            )


@register
class UnusedEventRule(ProjectRule):
    """RA006: registered event name never emitted.

    Findings are produced by :class:`ObsSchemaRule`'s project pass
    (both directions of the cross-check share one scan); this class
    exists so the code has registry metadata and docs.
    """

    code = "RA006"
    family = "obs-schema"
    severity = SEVERITY_WARNING
    summary = (
        "event registered in EVENT_ATTRS but never emitted by any "
        "scanned module"
    )

    def check_project(self, modules, config: AnalysisConfig) -> Iterator[Finding]:
        return iter(())


@register
class MetricLiteralRule(ProjectRule):
    """RA007: raw string literal used as a metric name."""

    code = "RA007"
    family = "obs-schema"
    summary = (
        "metric constructor called with a string literal instead of "
        "a canonical repro.obs.metrics constant"
    )

    def check_project(self, modules, config: AnalysisConfig) -> Iterator[Finding]:
        metrics = next(
            (m for m in modules if m.name == config.metrics_module), None
        )
        if metrics is None:
            return
        canonical = _metric_constants(metrics.walk(), config.metric_prefix)
        for module in modules:
            if module.name in (config.metrics_module, config.schema_module):
                continue
            if module.name.startswith(config.root_package + ".analysis"):
                continue
            for node in module.calls():
                if not (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in METRIC_CONSTRUCTORS
                    and node.args
                ):
                    continue
                for name in literal_strs(node.args[0]):
                    if name in canonical:
                        yield self.finding(
                            module, node,
                            f"metric name {name!r} spelled as a "
                            "literal; import the canonical constant "
                            "from repro.obs.metrics",
                        )
                    elif name.startswith(config.metric_prefix):
                        yield self.finding(
                            module, node,
                            f"metric name {name!r} is not defined in "
                            "repro.obs.metrics; add a canonical "
                            "constant (with help text) and use it",
                        )
