"""Rule ``fast-path``: the fused driver's guards must stay sound.

``Processor._run_phase_fast`` skips a stage whenever a *guard* proves the
stage's own no-work early-return would fire.  Two structural properties
keep that transformation behaviour-preserving, and both are easy to break
silently:

* **dispatch-set purity** -- eligibility must test ``type(x) is
  StockStage`` for exactly the stock stage classes (the ones defined in
  ``repro/core/stages/``).  An ``isinstance`` test, or admitting a class
  that overrides a stock stage's ``tick``/``writeback``, would route a
  variant with different early-return semantics through guards derived
  from the stock bodies;
* **guard attribute existence** -- every attribute a guard (or the fused
  loop's local aliases) reads off the engine objects must actually be
  declared by the corresponding class.  A rename like ``fetch_resume_cycle
  -> resume_cycle`` that misses the pipeline raises only at runtime, on
  the fast path only, after the equivalence suite happens to enter the
  guarded branch.

The attribute check uses a small declared typing table (`TYPED_SLOTS`) for
the handful of engine objects the fused loop touches, plus the project
class index for the attribute surfaces; no imports, so it runs unchanged
over fixture trees.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import Finding
from repro.lint.project import Project

PIPELINE_PY = "src/repro/core/pipeline.py"
STAGES_DIR = "src/repro/core/stages"

#: The four stock stage component classes the fused driver may dispatch on.
STOCK_STAGES = ("FrontEnd", "RenameIntegrate", "IssueExecute", "CommitDiva")

#: Methods whose override changes a stage's no-work early-return contract.
GUARDED_METHODS = ("tick", "writeback")

#: Static types of the engine attributes the fused loop reads:
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
CHECKED_METHODS = ("_fast_path_eligible", "_run_phase_fast",
                   "_elide_target")


def _find_method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


class FastPathRule:
    id = "fast-path"
    description = ("fast-path dispatch admits only stock stages via "
                   "`type(x) is`, and every guard attribute exists")

    def applicable(self, project: Project) -> bool:
        return project.exists(PIPELINE_PY)

    # ------------------------------------------------------------------
    def _stage_module_classes(self, project: Project) -> Set[str]:
        """Classes defined in the stage package (the stock dispatch set)."""
        names: Set[str] = set()
        base = project.root / STAGES_DIR
        if not base.is_dir():
            return names
        for path in sorted(base.glob("*.py")):
            try:
                tree = project.tree(path)
            except SyntaxError:
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    names.add(node.name)
        return names

    def _overriding_subclasses(self, project: Project
                               ) -> Dict[str, Tuple[str, int]]:
        """name -> (path, line) of every project class that subclasses a
        stock stage and overrides a guarded method."""
        out: Dict[str, Tuple[str, int]] = {}
        for name, infos in project.classes().items():
            for info in infos:
                if not set(info.bases) & set(STOCK_STAGES):
                    continue
                tree = project.tree(info.path)
                for node in ast.walk(tree):
                    if (isinstance(node, ast.ClassDef)
                            and node.name == name
                            and any(isinstance(s, ast.FunctionDef)
                                    and s.name in GUARDED_METHODS
                                    for s in node.body)):
                        out[name] = (project.rel(info.path), info.lineno)
        return out

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
                          "fast-path driver")
            return

        eligible = _find_method(processor, "_fast_path_eligible")
        if eligible is None:
            yield Finding(rel, processor.lineno, self.id,
                          "_fast_path_eligible not found; cannot audit "
                          "the fast-path dispatch set")
        else:
            yield from self._check_dispatch(project, rel, eligible)

        yield from self._check_attributes(project, rel, processor)

    # ------------------------------------------------------------------
    def _check_dispatch(self, project: Project, rel: str,
                        eligible: ast.FunctionDef) -> Iterator[Finding]:
        stock = self._stage_module_classes(project)
        overriding = self._overriding_subclasses(project)
        compared: List[Tuple[str, int]] = []
        for node in ast.walk(eligible):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"):
                yield Finding(
                    rel, node.lineno, self.id,
                    "fast-path eligibility must use `type(x) is Stock` "
                    "(exact class), not isinstance -- a subclass with "
                    "overridden tick semantics would pass the guard")
            if (isinstance(node, ast.Compare)
                    and len(node.ops) == 1
                    and isinstance(node.ops[0], ast.Is)
                    and isinstance(node.left, ast.Call)
                    and isinstance(node.left.func, ast.Name)
                    and node.left.func.id == "type"):
                comparator = node.comparators[0]
                if isinstance(comparator, ast.Name):
                    compared.append((comparator.id, node.lineno))
                elif isinstance(comparator, ast.Attribute):
                    compared.append((comparator.attr, node.lineno))
        for name, lineno in compared:
            if name in overriding:
                where = "%s:%d" % overriding[name]
                yield Finding(
                    rel, lineno, self.id,
                    f"fast-path dispatch set admits `{name}` ({where}), "
                    f"which overrides a stock stage's "
                    f"tick/writeback -- its early-return contract is not "
                    f"the one the fused guards encode")
            elif stock and name not in stock:
                yield Finding(
                    rel, lineno, self.id,
                    f"fast-path dispatch set admits `{name}`, which is "
                    f"not a stock stage class from {STAGES_DIR}/")

    # ------------------------------------------------------------------
    def _check_attributes(self, project: Project, rel: str,
                          processor: ast.ClassDef) -> Iterator[Finding]:
        for method_name in CHECKED_METHODS:
            method = _find_method(processor, method_name)
            if method is None:
                continue
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
                f"fast-path guard references `{base_cls}.{node.attr}`, "
                f"which no class declaration defines -- a rename on one "
                f"side would only fail at runtime on the fast path")
