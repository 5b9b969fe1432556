"""The docs name only what exists.

Every backticked Python path in ``docs/`` (``core/lsq.py``, a pytest node
id such as ``tests/test_x.py::TestY::test_z``, or the first word of a
command such as ``benchmarks/ab.py BASE``) must name a file in the tree,
and every backticked ``Class.member`` must name a member that class or
one of its bases defines.  A rename or a deletion then fails here instead
of leaving the docs describing code that is gone.
"""

import ast
import builtins
import collections
import enum
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted((REPO_ROOT / "docs").rglob("*.md"))
CODE_DIRS = ("src", "tests", "benchmarks", "examples", "perfbench")

_SPAN_RE = re.compile(r"`([^`\n]+)`")
_PATH_RE = re.compile(r"[\w./{},-]+\.py")
#: ``Class.member`` or ``Class.member()``; the class name is CamelCase, so
#: ``BENCHMARK.json`` is not one.
_MEMBER_RE = re.compile(r"([A-Z][A-Za-z0-9]*[a-z]\w*)\.(\w+)(?:\(\))?")
#: Where a base class outside the tree is looked up.
_STDLIB = (builtins, enum, collections)


def _py_files():
    for top in CODE_DIRS:
        yield from (REPO_ROOT / top).rglob("*.py")


def _class_index():
    """Class name -> ``(members, base names)``, merged over every class of
    that name in the tree."""
    index = {}
    for path in _py_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            members, bases = index.setdefault(node.name, (set(), set()))
            bases.update(b.id if isinstance(b, ast.Name) else b.attr
                         for b in node.bases
                         if isinstance(b, (ast.Name, ast.Attribute)))
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    members.add(item.name)
                elif isinstance(item, ast.AnnAssign):
                    members.add(getattr(item.target, "id", None))
                elif isinstance(item, ast.Assign):
                    members.update(t.id for t in item.targets
                                   if isinstance(t, ast.Name))
            members.update(
                sub.attr for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self")
    return index


def _has_member(index, cls, member, seen=()):
    if cls in seen:
        return False
    if cls not in index:
        return any(hasattr(getattr(module, cls, None), member)
                   for module in _STDLIB)
    members, bases = index[cls]
    return member in members or any(
        _has_member(index, base, member, seen + (cls,)) for base in bases)


def _path_exists(files, ref):
    """Whether ``ref`` (``{a,b}`` expanded) ends some file path."""
    match = re.fullmatch(r"(.*)\{(.+)\}(.*)", ref)
    refs = ([match[1] + alt + match[3] for alt in match[2].split(",")]
            if match else [ref])
    return all(any(f == r or f.endswith("/" + r) for f in files)
               for r in refs)


def missing_names(text):
    """The backticked paths and ``Class.member`` names in ``text`` that the
    tree does not define, in order of first mention."""
    files = {p.relative_to(REPO_ROOT).as_posix() for p in _py_files()}
    index = _class_index()
    missing = []
    for span in _SPAN_RE.findall(text):
        word = span.split()[0] if span.split() else ""
        ref, _, node = word.partition("::")
        if _PATH_RE.fullmatch(ref):
            if not _path_exists(files, ref):
                missing.append(span)
            elif node:
                path = next(f for f in files
                            if f == ref or f.endswith("/" + ref))
                tree = ast.parse((REPO_ROOT / path).read_text("utf-8"))
                defined = {n.name for n in ast.walk(tree) if isinstance(
                    n, (ast.FunctionDef, ast.ClassDef))}
                if not set(node.split("::")) <= defined:
                    missing.append(span)
            continue
        member = _MEMBER_RE.fullmatch(span)
        if member and not _has_member(index, member[1], member[2]):
            missing.append(span)
    return list(dict.fromkeys(missing))


def test_docs_name_only_what_exists():
    missing = {doc.name: missing_names(doc.read_text(encoding="utf-8"))
               for doc in DOCS}
    assert {doc: names for doc, names in missing.items() if names} == {}


def test_checker_flags_stale_names_and_follows_bases():
    # Names the docs once carried after their code went, beside live
    # ones: ``fingerprint`` is inherited by MachineConfig and
    # ``__hash__`` comes from the standard library's Enum.
    text = ("`core/window.py` `stages/rename.py` `ReorderBuffer.push` "
            "`MachineConfig.fingerprint()` `Enum.__hash__` "
            "`SimStats.cht_hits` `tests/test_doc_truth.py::nothing_here` "
            "`repro/isa/{opcodes,instruction}.py` `BENCHMARK.json`")
    assert missing_names(text) == [
        "core/window.py", "ReorderBuffer.push",
        "tests/test_doc_truth.py::nothing_here"]
