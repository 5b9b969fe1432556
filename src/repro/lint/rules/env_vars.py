"""Rule ``env-var``: every ``REPRO_*`` knob is documented and validated.

The simulator's behaviour knobs all travel through ``REPRO_*`` environment
variables.  Two conventions keep them from rotting:

* **documentation** -- every ``REPRO_*`` name that appears anywhere in the
  sources must have a row in the environment-variable table of
  ``docs/ARCHITECTURE.md`` (any markdown table row containing the
  backticked name counts);
* **validated accessors** -- ``os.environ`` may only be read for a
  ``REPRO_*`` variable inside that variable's registered accessor
  function (the single place that owns defaulting and validation, in the
  ``EnvVarError`` one-line style).  Everywhere else must call the
  accessor, so a malformed value can never surface as a stray
  ``ValueError`` traceback deep in a worker.  Generic helpers that read a
  *dynamic* name (``env_float``/``_env_int``) are registered separately;
  a dynamic read anywhere else is flagged too.

Writes (``os.environ["REPRO_X"] = ...``, the CLI's routing trick) are
allowed anywhere: the convention governs who *interprets* the value.

Adding a new variable therefore means: write the accessor, register it in
:data:`ACCESSOR_REGISTRY`, and add the docs table row -- which is exactly
the checklist in docs/ARCHITECTURE.md.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import Finding
from repro.lint.project import Project

DOCS_MD = "docs/ARCHITECTURE.md"

ENV_NAME_RE = re.compile(r"^REPRO_[A-Z][A-Z0-9_]*$")
_DOC_ROW_RE = re.compile(r"`(REPRO_[A-Z][A-Z0-9_]*)`")

#: variable -> accessor functions allowed to read it, as
#: "path/inside/project.py::function".  One accessor per variable is the
#: convention; a second entry is only warranted for genuinely layered
#: readers.
ACCESSOR_REGISTRY: Dict[str, FrozenSet[str]] = {
    "REPRO_VARIANT": frozenset(
        {"src/repro/experiments/runner.py::default_variant"}),
    "REPRO_CACHE_DIR": frozenset(
        {"src/repro/experiments/cache.py::cache_dir"}),
    "REPRO_DISK_CACHE": frozenset(
        {"src/repro/experiments/cache.py::disk_cache_enabled"}),
    "REPRO_QUEUE_DIR": frozenset(
        {"src/repro/distrib/queue.py::default_queue_dir"}),
    "REPRO_BACKEND": frozenset(
        {"src/repro/distrib/backend.py::default_backend"}),
    "REPRO_ELIDE": frozenset(
        {"src/repro/core/pipeline.py::elision_enabled"}),
    "REPRO_FAULTS": frozenset(
        {"src/repro/reliability/faults.py::faults_spec"}),
    "REPRO_RETRY_MAX": frozenset(
        {"src/repro/reliability/retry.py::default_retry_max"}),
    "REPRO_RETRY_BASE": frozenset(
        {"src/repro/reliability/retry.py::default_retry_base"}),
    "REPRO_TRACE": frozenset(
        {"src/repro/obs/trace.py::default_trace_prefix"}),
    "REPRO_METRICS_INTERVAL": frozenset(
        {"src/repro/obs/metrics.py::default_metrics_interval"}),
}

#: Functions allowed to read a *dynamic* (non-literal) environment name:
#: the shared validating helpers every numeric accessor is built on.
GENERIC_ACCESSORS: FrozenSet[str] = frozenset({
    "src/repro/experiments/runner.py::env_float",
    "src/repro/experiments/runner.py::_env_int",
})


def _module_str_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` bindings (``ENV_CACHE_DIR`` style
    indirections resolve through these)."""
    out: Dict[str, str] = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            out[node.targets[0].id] = node.value.value
    return out


def _is_environ(node: ast.expr) -> bool:
    """``os.environ`` or a bare ``environ`` name."""
    if isinstance(node, ast.Attribute) and node.attr == "environ":
        return True
    if isinstance(node, ast.Name) and node.id == "environ":
        return True
    return False


class _Read:
    __slots__ = ("var", "lineno", "function")

    def __init__(self, var: Optional[str], lineno: int, function: str):
        self.var = var          # None = dynamic name
        self.lineno = lineno
        self.function = function


def _environ_reads(tree: ast.Module,
                   constants: Dict[str, str]) -> List[_Read]:
    """Every environment *read* in one module, with its enclosing function.

    Detected forms: ``os.environ.get(X, ...)``, ``os.environ[X]`` in Load
    context, ``os.getenv(X)``.  ``X`` resolves through module-level string
    constants; unresolvable names become dynamic reads (``var=None``).
    """
    reads: List[_Read] = []

    def resolve(arg: ast.expr) -> Optional[str]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.Name) and arg.id in constants:
            return constants[arg.id]
        return None

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            scope = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = child.name
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)):
                func = child.func
                if func.attr == "get" and _is_environ(func.value):
                    if child.args:
                        reads.append(_Read(resolve(child.args[0]),
                                           child.lineno, scope))
                elif (func.attr == "getenv"
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "os"):
                    if child.args:
                        reads.append(_Read(resolve(child.args[0]),
                                           child.lineno, scope))
            elif (isinstance(child, ast.Subscript)
                    and _is_environ(child.value)
                    and isinstance(child.ctx, ast.Load)):
                reads.append(_Read(resolve(child.slice), child.lineno,
                                   scope))
            visit(child, scope)

    visit(tree, "<module>")
    return reads


class EnvVarRule:
    id = "env-var"
    description = ("every REPRO_* variable is documented in the "
                   "ARCHITECTURE.md table and read only through its "
                   "registered validated accessor")

    def __init__(self, registry: Optional[Dict[str, FrozenSet[str]]] = None,
                 generic: Optional[FrozenSet[str]] = None):
        self.registry = ACCESSOR_REGISTRY if registry is None else registry
        self.generic = GENERIC_ACCESSORS if generic is None else generic

    def applicable(self, project: Project) -> bool:
        return bool(project.python_files())

    def _documented(self, project: Project) -> Optional[Set[str]]:
        """REPRO_* names with a markdown table row in the docs."""
        if not project.exists(DOCS_MD):
            return None
        documented: Set[str] = set()
        for line in project.lines(project.root / DOCS_MD):
            if line.lstrip().startswith("|"):
                documented.update(_DOC_ROW_RE.findall(line))
        return documented

    def check(self, project: Project) -> Iterator[Finding]:
        documented = self._documented(project)
        mentioned: Dict[str, Tuple[str, int]] = {}
        for path in project.python_files():
            try:
                tree = project.tree(path)
            except SyntaxError:
                continue
            rel = project.rel(path)
            constants = _module_str_constants(tree)

            # Any exact REPRO_* string literal counts as a mention that
            # must be documented (reads, constants, accessor arguments).
            for node in ast.walk(tree):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and ENV_NAME_RE.match(node.value)):
                    mentioned.setdefault(node.value, (rel, node.lineno))

            for read in _environ_reads(tree, constants):
                where = f"{rel}::{read.function}"
                if read.var is None:
                    if where not in self.generic:
                        yield Finding(
                            rel, read.lineno, self.id,
                            f"dynamic os.environ read in {read.function}() "
                            f"outside the registered generic accessors "
                            f"({', '.join(sorted(self.generic))})")
                    continue
                if not ENV_NAME_RE.match(read.var):
                    continue  # foreign variables (XDG_*, ...) are not ours
                allowed = self.registry.get(read.var)
                if allowed is None:
                    yield Finding(
                        rel, read.lineno, self.id,
                        f"{read.var} is read here but has no registered "
                        f"accessor; add one (validated, one-line "
                        f"EnvVarError style) and register it in "
                        f"repro/lint/rules/env_vars.py")
                elif where not in allowed:
                    yield Finding(
                        rel, read.lineno, self.id,
                        f"{read.var} must be read through its accessor "
                        f"({', '.join(sorted(allowed))}), not directly "
                        f"in {read.function}()")

        if documented is None:
            yield Finding(DOCS_MD, 0, self.id,
                          f"{DOCS_MD} not found; the environment-variable "
                          f"table is the canonical registry")
            return
        for var in sorted(mentioned):
            if var not in documented:
                rel, lineno = mentioned[var]
                yield Finding(
                    rel, lineno, self.id,
                    f"{var} is not documented in the {DOCS_MD} "
                    f"environment-variable table")
