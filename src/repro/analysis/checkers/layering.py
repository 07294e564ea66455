"""LAY01 — package layering stays an acyclic DAG.

The package layers, bottom to top::

    cloud, data          (substrate: pricing, tables, indexes)
    dataflow, engine     (workload + measurement)
    scheduling, interleave
    tuning
    core                 (service, simulator — the composition root)

Lower layers must never import upper ones: ``data``/``cloud`` must not
import ``scheduling``/``tuning``/``core``, and ``engine`` (the real
B-tree/heap measurement layer) must not import ``core``. An upward
import closes a package cycle, and Python package cycles fail at import
time in whichever module loads second — typically in production, not in
the test that imported things in the lucky order.

Carve-outs — dependency-free leaves that any layer may import because
they cannot participate in a cycle:

* :mod:`repro.core.numeric` (pure ``math``), the shared home of the
  NUM01 tolerance helpers;
* :mod:`repro.obs` (pure stdlib), the observability sinks — tracer,
  metrics registry, journal. It sits *below* every instrumented layer,
  and its own imports are checked in the reverse direction: ``repro.obs``
  must not import any other ``repro`` package, which is what keeps the
  carve-out sound.
* :mod:`repro.recovery.hooks` (pure stdlib), the crash-point barriers
  and the no-op :class:`RecoveryLog` interface the instrumented layers
  call. Only the *hooks* module is a leaf: the rest of
  :mod:`repro.recovery` (WAL, snapshots, resume driver, chaos harness)
  sits *above* ``repro.core`` — it may import core/obs but is banned
  from the lower layers' import lists like any other upper layer.
* :mod:`repro.explore.hooks` (pure stdlib), the interleaving yield
  points and the :class:`Epoch` offer protocol. Exactly like
  ``repro.recovery.hooks``: only the hooks module is a leaf; the rest
  of :mod:`repro.explore` (controller, strategies, engine, replay) sits
  above ``repro.core``.

The leaves are additionally checked against *each other*: a pure leaf
must not import another leaf — and in particular no leaf may import
``repro.explore`` (not even its hooks module). Yield points are markers
*inside* instrumented upper-layer code; a leaf that acquired one would
re-enter the scheduler from below the layers it synchronises, so the
leaf-ban check bypasses the ``ALLOWED_LEAVES`` exemption entirely.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import register

#: Package prefix -> package prefixes it must not import. Order matters:
#: a module is checked against its *first* matching prefix, so the
#: ``repro.recovery.hooks`` entry must precede ``repro.recovery``.
FORBIDDEN: dict[str, tuple[str, ...]] = {
    "repro.data": ("repro.scheduling", "repro.tuning", "repro.core",
                   "repro.recovery", "repro.explore"),
    "repro.cloud": ("repro.scheduling", "repro.tuning", "repro.core",
                    "repro.recovery", "repro.explore"),
    "repro.engine": ("repro.core", "repro.scheduling", "repro.tuning",
                     "repro.recovery", "repro.explore"),
    # repro.recovery.hooks is importable from everywhere (ALLOWED_LEAVES),
    # so like repro.obs it must itself stay a pure-stdlib leaf.
    "repro.recovery.hooks": (
        "repro.analysis",
        "repro.cloud",
        "repro.core",
        "repro.data",
        "repro.dataflow",
        "repro.engine",
        "repro.explore",
        "repro.faults",
        "repro.interleave",
        "repro.obs",
        "repro.perf",
        "repro.scheduling",
        "repro.tuning",
    ),
    # The heavy recovery machinery sits at the top of the DAG (it may
    # import core/obs/interleave), but never the analysis gate or the
    # measurement engine.
    "repro.recovery": ("repro.analysis", "repro.engine"),
    # repro.explore.hooks is importable from everywhere (ALLOWED_LEAVES),
    # so like repro.obs it must itself stay a pure-stdlib leaf.
    "repro.explore.hooks": (
        "repro.analysis",
        "repro.cloud",
        "repro.core",
        "repro.data",
        "repro.dataflow",
        "repro.engine",
        "repro.faults",
        "repro.interleave",
        "repro.obs",
        "repro.perf",
        "repro.recovery",
        "repro.scheduling",
        "repro.tuning",
    ),
    # The exploration machinery (controller, strategies, engine, replay)
    # sits at the top of the DAG next to repro.recovery: it may import
    # core/recovery/obs, but never the analysis gate or the measurement
    # engine.
    "repro.explore": ("repro.analysis", "repro.engine"),
    # repro.obs is importable from everywhere (ALLOWED_LEAVES), so it
    # must itself import nothing above it — otherwise the carve-out
    # would smuggle a cycle back in.
    "repro.obs": (
        "repro.analysis",
        "repro.cloud",
        "repro.core",
        "repro.data",
        "repro.dataflow",
        "repro.engine",
        "repro.explore",
        "repro.faults",
        "repro.interleave",
        "repro.recovery",
        "repro.scheduling",
        "repro.tuning",
    ),
    # repro.perf (memo tables + cache stats) is likewise importable from
    # every hot-path layer, so it too must stay a pure-stdlib leaf.
    "repro.perf": (
        "repro.analysis",
        "repro.cloud",
        "repro.core",
        "repro.data",
        "repro.dataflow",
        "repro.engine",
        "repro.explore",
        "repro.faults",
        "repro.interleave",
        "repro.obs",
        "repro.recovery",
        "repro.scheduling",
        "repro.tuning",
    ),
}

#: Dependency-free leaf modules importable from any layer.
ALLOWED_LEAVES: tuple[str, ...] = (
    "repro.core.numeric",
    "repro.explore.hooks",
    "repro.obs",
    "repro.perf",
    "repro.recovery.hooks",
)


def _within(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def _is_allowed(target: str) -> bool:
    return any(_within(target, leaf) for leaf in ALLOWED_LEAVES)


def _violated_prefix(target: str, forbidden: tuple[str, ...]) -> str | None:
    if _is_allowed(target):
        return None
    for prefix in forbidden:
        if _within(target, prefix):
            return prefix
    return None


def _import_targets(node: ast.Import | ast.ImportFrom, ctx: ModuleContext) -> list[str]:
    """Most-specific module paths an import statement pulls in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = ctx._resolve_from_base(node)
    if base is None:
        return []
    # ``from repro.core import numeric`` imports repro.core.numeric, not
    # repro.core itself — resolve to the most specific path so the
    # ALLOWED_LEAVES carve-out sees it.
    return [f"{base}.{alias.name}" if alias.name != "*" else base for alias in node.names]


def _leaf_of(module: str) -> str | None:
    for leaf in ALLOWED_LEAVES:
        if _within(module, leaf):
            return leaf
    return None


def _leaf_ban_target(module_leaf: str, target: str) -> str | None:
    """A leaf module's import target that breaks the leaf contract.

    Runs *before* the ``ALLOWED_LEAVES`` exemption: a pure leaf must not
    import another leaf (leaf-to-leaf edges would let the carve-out
    smuggle a cycle back in), and no leaf may import ``repro.explore``
    at all — yield points belong to instrumented upper-layer code, never
    to the substrate the scheduler synchronises over.
    """
    if _within(target, "repro.explore") and module_leaf != "repro.explore.hooks":
        return "repro.explore"
    target_leaf = _leaf_of(target)
    if target_leaf is not None and target_leaf != module_leaf:
        return target_leaf
    return None


@register("LAY01", "package layering: no upward imports (data/cloud/engine)")
def check_layering(ctx: ModuleContext) -> Iterator[Diagnostic]:
    """Flag upward imports from the data/cloud/engine layers."""
    module = ctx.module
    if module is None:
        return
    module_leaf = _leaf_of(module)
    if module_leaf is not None:
        yield from _check_leaf_bans(ctx, module, module_leaf)
    forbidden: tuple[str, ...] | None = None
    for prefix, banned in FORBIDDEN.items():
        if _within(module, prefix):
            forbidden = banned
            break
    if forbidden is None:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for target in _import_targets(node, ctx):
            hit = _violated_prefix(target, forbidden)
            if hit is None and isinstance(node, ast.ImportFrom):
                # The names may not be submodules (`from repro.core import
                # QaaSService` still imports repro.core) — check the base too.
                base = ctx._resolve_from_base(node)
                if base is not None and not _is_allowed(target):
                    hit = _violated_prefix(base, forbidden)
            if hit is not None:
                yield Diagnostic(
                    path=str(ctx.path),
                    line=node.lineno,
                    col=node.col_offset + 1,
                    code="LAY01",
                    message=(
                        f"`{module}` (layer `{_layer_of(module)}`) must not import "
                        f"`{target}`: `{_layer_of(module)}` -> `{hit}` is an upward "
                        "edge that makes the package DAG cyclic"
                    ),
                )
                break  # one diagnostic per import statement


def _check_leaf_bans(
    ctx: ModuleContext, module: str, module_leaf: str
) -> Iterator[Diagnostic]:
    """The leaf-to-leaf pass (bypasses the ``ALLOWED_LEAVES`` exemption)."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        targets = list(_import_targets(node, ctx))
        if isinstance(node, ast.ImportFrom):
            base = ctx._resolve_from_base(node)
            if base is not None:
                targets.append(base)
        for target in targets:
            hit = _leaf_ban_target(module_leaf, target)
            if hit is not None:
                yield Diagnostic(
                    path=str(ctx.path),
                    line=node.lineno,
                    col=node.col_offset + 1,
                    code="LAY01",
                    message=(
                        f"`{module}` is a pure leaf (`{module_leaf}`) and "
                        f"must not import `{target}`: leaf modules may not "
                        f"import `{hit}` — yield points and other leaf "
                        "facilities are reserved for the instrumented "
                        "layers above"
                    ),
                )
                break  # one diagnostic per import statement


def _layer_of(module: str) -> str:
    for prefix in FORBIDDEN:
        if _within(module, prefix):
            return prefix
    return module
