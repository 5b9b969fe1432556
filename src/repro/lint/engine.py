"""The ``repro lint`` rule engine.

A lint *rule* checks one project invariant -- a property of the repository
the runtime test suite can only sample -- and reports violations as
:class:`Finding` records (file, line, rule id, message).  The engine owns
everything around the rules: file discovery (via
:class:`~repro.lint.project.Project`), inline ``# repro: lint-ok[rule]``
suppressions, the committed baseline of grandfathered findings, stable
ordering, JSON rendering and the exit-status contract (non-zero exactly
when *new* findings exist).

Suppression syntax::

    risky_line()  # repro: lint-ok[determinism] seeded upstream per slice

The comment suppresses the named rule (a comma-separated list, or ``*``)
on its own line; a comment on the line immediately above works too, for
lines with no room.  Suppressions are for *intentional* violations and
must carry a justification; the baseline exists only to grandfather
pre-existing findings when a new rule lands, so the repository's committed
baseline should trend toward (and stay) empty.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Protocol, Sequence

from repro.lint.project import Project

#: ``# repro: lint-ok[rule-a,rule-b] optional justification``
SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ok\[([A-Za-z0-9_*,\- ]+)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file and line."""

    path: str        # project-root-relative POSIX path
    line: int        # 1-based; 0 when the finding is file-level
    rule: str        # rule id, e.g. "determinism"
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def baseline_key(self) -> str:
        """Line-number-free identity used by the baseline file, so findings
        stay grandfathered while unrelated edits shift them around."""
        return "\t".join((self.rule, self.path, self.message))

    def to_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "line": self.line,
                "rule": self.rule, "message": self.message}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Finding":
        return cls(path=data["path"], line=int(data["line"]),
                   rule=data["rule"], message=data["message"])


class Rule(Protocol):
    """The interface every lint rule implements."""

    #: Stable rule id (kebab-case; used in suppressions, baselines, --rules).
    id: str
    #: One-line description for reports and the docs rule table.
    description: str

    def applicable(self, project: Project) -> bool:
        """Whether the rule's target files exist in this tree."""

    def check(self, project: Project) -> Iterable[Finding]:
        """Yield every violation found in ``project``."""


@dataclass
class LintReport:
    """Outcome of one engine run."""

    root: str
    findings: List[Finding]              # new findings only, sorted
    suppressed: int = 0
    baselined: int = 0
    rules: List[str] = field(default_factory=list)          # ran
    skipped_rules: List[str] = field(default_factory=list)  # not applicable

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "rules": list(self.rules),
            "skipped_rules": list(self.skipped_rules),
            "findings": [f.to_dict() for f in self.findings],
            "counts": {"new": len(self.findings),
                       "suppressed": self.suppressed,
                       "baselined": self.baselined},
        }


def _suppressions_on(line: str) -> Optional[List[str]]:
    match = SUPPRESS_RE.search(line)
    if match is None:
        return None
    return [token.strip() for token in match.group(1).split(",")
            if token.strip()]


def is_suppressed(project: Project, finding: Finding) -> bool:
    """Whether an inline ``lint-ok`` comment covers this finding.

    The flagged line itself and the line immediately above are consulted;
    a missing or unreadable file (synthetic findings from dynamic rules)
    never suppresses.
    """
    if finding.line <= 0:
        return False
    try:
        lines = project.lines(project.root / finding.path)
    except OSError:
        return False
    for lineno in (finding.line, finding.line - 1):
        if 1 <= lineno <= len(lines):
            rules = _suppressions_on(lines[lineno - 1])
            if rules and ("*" in rules or finding.rule in rules):
                return True
    return False


def default_rules() -> Sequence[Rule]:
    from repro.lint.rules import ALL_RULES

    return ALL_RULES


def run_lint(root: Path, rules: Optional[Sequence[Rule]] = None,
             baseline_keys: Iterable[str] = ()) -> LintReport:
    """Run ``rules`` (default: all five project rules) over the tree at
    ``root`` and fold in suppressions and the baseline."""
    project = Project(root)
    if rules is None:
        rules = default_rules()
    baseline = set(baseline_keys)
    report = LintReport(root=str(project.root), findings=[])
    collected: List[Finding] = []
    for rule in rules:
        if not rule.applicable(project):
            report.skipped_rules.append(rule.id)
            continue
        report.rules.append(rule.id)
        collected.extend(rule.check(project))
    for finding in sorted(set(collected)):
        if is_suppressed(project, finding):
            report.suppressed += 1
        elif finding.baseline_key() in baseline:
            report.baselined += 1
        else:
            report.findings.append(finding)
    return report


def default_root() -> Path:
    """The checkout to lint: the tree this ``repro`` package was imported
    from when it has the repository layout, else the working directory."""
    import repro

    package = Path(repro.__file__).resolve().parent
    root = package.parent.parent
    if (root / "src" / "repro").is_dir():
        return root
    return Path.cwd()
