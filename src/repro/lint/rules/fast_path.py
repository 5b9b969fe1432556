"""Rule ``fast-path``: every attribute the driver's guards read exists.

``Processor._run_phase`` skips a stage whenever a *guard* proves the
stage's own no-work early-return would fire, and ``_elide_target`` proves
whole spans quiescent.  Both read engine state through local aliases
(``rs_ready = state.rs._ready``, ``frontend.fetch_resume_cycle``, ...).
Every attribute they read off the engine objects must be declared by the
corresponding class: a rename like ``fetch_resume_cycle -> resume_cycle``
that misses the pipeline raises only at runtime, after a run happens to
enter the guarded branch.

The check uses a small declared typing table (`TYPED_SLOTS`) for the
handful of engine objects the driver touches, plus the project class index
for the attribute surfaces; no imports, so it runs unchanged over fixture
trees.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.engine import Finding
from repro.lint.project import Project

PIPELINE_PY = "src/repro/core/pipeline.py"

#: Static types of the engine attributes the driver reads:
#: (owner class, attribute) -> class of the attribute's value.  Only the
#: objects whose *own* attributes the guards consult need entries; every
#: other attribute value is opaque (checked for existence, not descended).
TYPED_SLOTS: Dict[Tuple[str, str], str] = {
    ("Processor", "state"): "PipelineState",
    ("Processor", "config"): "MachineConfig",
    ("Processor", "front_end"): "FrontEnd",
    ("Processor", "rename_integrate"): "RenameIntegrate",
    ("Processor", "issue_execute"): "IssueExecute",
    ("Processor", "commit_diva"): "CommitDiva",
    ("PipelineState", "arch"): "ArchState",
    ("PipelineState", "stats"): "SimStats",
    ("PipelineState", "rs"): "ReservationStations",
    ("PipelineState", "rob"): "ReorderBuffer",
    ("PipelineState", "lsq"): "LoadStoreQueue",
    ("PipelineState", "prf"): "PhysicalRegisterFile",
}

#: Methods of Processor whose bodies the attribute check covers.  The
#: elision-horizon computation is a guard in the same sense as the inline
#: stage-skip conditions: every attribute it reads must exist, or the
#: quiescence proof silently diverges from the machine.
CHECKED_METHODS = ("_run_phase", "_elide_target")


def _find_method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


class FastPathRule:
    id = "fast-path"
    description = ("every engine attribute the driver's stage-skip and "
                   "elision guards read exists")

    def applicable(self, project: Project) -> bool:
        return project.exists(PIPELINE_PY)

    # ------------------------------------------------------------------
    def check(self, project: Project) -> Iterator[Finding]:
        path = project.root / PIPELINE_PY
        tree = project.tree(path)
        rel = project.rel(path)
        processor: Optional[ast.ClassDef] = None
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Processor":
                processor = node
                break
        if processor is None:
            yield Finding(rel, 0, self.id,
                          "Processor class not found; cannot audit the "
                          "driver")
            return

        for method_name in CHECKED_METHODS:
            method = _find_method(processor, method_name)
            if method is None:
                yield Finding(rel, processor.lineno, self.id,
                              f"{method_name} not found; cannot audit the "
                              f"driver's guard attributes")
            else:
                yield from self._check_method_attrs(project, rel, method)

    def _infer(self, node: ast.expr, env: Dict[str, Optional[str]],
               project: Project) -> Tuple[Optional[str], bool]:
        """(class name or None, known) for an expression.

        ``known=False`` means the expression's type is opaque -- attribute
        accesses on it are not checked.  ``known=True`` with a class name
        means attribute accesses must exist on that class.
        """
        if isinstance(node, ast.Name):
            if node.id == "self":
                return "Processor", True
            if node.id in env:
                cls = env[node.id]
                return cls, cls is not None
            return None, False
        if isinstance(node, ast.Attribute):
            base_cls, known = self._infer(node.value, env, project)
            if not known or base_cls is None:
                return None, False
            return TYPED_SLOTS.get((base_cls, node.attr)), \
                (base_cls, node.attr) in TYPED_SLOTS
        return None, False

    def _check_method_attrs(self, project: Project, rel: str,
                            method: ast.FunctionDef) -> Iterator[Finding]:
        env: Dict[str, Optional[str]] = {}
        # Pass 1: local aliases (`execute = self.issue_execute`,
        # `rs_ready = state.rs._ready`, ...) in statement order.
        for node in ast.walk(method):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                cls, known = self._infer(node.value, env, project)
                if known and cls is not None:
                    env[node.targets[0].id] = cls
        # Pass 2: every attribute access on a typed base must exist.
        reported: Set[Tuple[int, str, str]] = set()
        for node in ast.walk(method):
            if not isinstance(node, ast.Attribute):
                continue
            base_cls, known = self._infer(node.value, env, project)
            if not known or base_cls is None:
                continue
            attrs = project.class_attrs(base_cls)
            if attrs is None:
                continue  # class not in this tree (partial fixture)
            if node.attr in attrs:
                continue
            key = (node.lineno, base_cls, node.attr)
            if key in reported:
                continue
            reported.add(key)
            yield Finding(
                rel, node.lineno, self.id,
                f"driver guard references `{base_cls}.{node.attr}`, "
                f"which no class declaration defines -- a rename on one "
                f"side would only fail at runtime in the guarded branch")
