"""Source-level invariants of ``src/repro`` that no simulation samples.

Three properties are checked on the parsed sources, because a run only
breaks on them by chance:

* **determinism** -- inside the packages that build and simulate the
  machine (:data:`ENGINE_DIRS`) nothing iterates a set, reads the global
  ``random`` module or a wall clock, builds an unseeded ``Random`` or
  calls ``id()``.  Each makes two runs of one config diverge, and the
  result cache, sharded merging and the golden tests all assume they
  cannot.
* **env-var** -- each ``REPRO_*`` variable is read by its literal name
  only inside its accessor in :data:`ACCESSOR_REGISTRY`, no variable is
  read by a computed name, and the variables named in the sources are
  exactly the rows of the environment-variable table in
  ``docs/ARCHITECTURE.md``.
* **config fields** -- every field of every ``SerializableConfig``
  dataclass is read (``x.field``) outside its own class body, directly or
  through a property or method of the class that is.  A field that only
  unread members of its class read changes the fingerprint, and so the
  cache key, without changing the simulated machine.

Each check is a plain function from a parsed module to ``(line,
message)`` findings; the config-field check takes every module at once,
since a field's reads may sit in any of them.  The tests run each check
over the live tree, over one small source per construct it must flag, and
over sources it must pass.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
DOCS_MD = REPO_ROOT / "docs" / "ARCHITECTURE.md"

#: Packages whose state must replay bit-identically.  The experiment,
#: distributed, reliability and observability layers read clocks on
#: purpose.
ENGINE_DIRS = ("core", "frontend", "functional", "integration", "isa",
               "memsys", "rename", "variants", "workloads")

#: variable -> the functions allowed to read it, as
#: "path/under/src/repro.py::function".
ACCESSOR_REGISTRY = {
    "REPRO_SCALE": {"experiments/runner.py::default_scale"},
    "REPRO_JOBS": {"experiments/runner.py::default_jobs"},
    "REPRO_SHARDS": {"experiments/runner.py::default_shards"},
    "REPRO_VARIANT": {"experiments/runner.py::default_variant"},
    "REPRO_CACHE_DIR": {"experiments/cache.py::cache_dir"},
    "REPRO_BACKEND": {"distrib/backend.py::default_backend"},
    "REPRO_ELIDE": {"core/pipeline.py::elision_enabled"},
    "REPRO_FAULTS": {"reliability/faults.py::faults_spec"},
}

ENV_NAME_RE = re.compile(r"^REPRO_[A-Z][A-Z0-9_]*$")
_DOC_NAME_RE = re.compile(r"`(REPRO_[A-Z][A-Z0-9_]*)`")

_SET_METHODS = {"union", "intersection", "difference",
                "symmetric_difference"}
_CLOCKS = {("time", name) for name in (
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "localtime")} | {
    ("datetime", name) for name in ("now", "utcnow", "today")}


def _sources(*dirs):
    """``(path relative to src/repro, parsed module)`` for every file."""
    roots = [PACKAGE / d for d in dirs] if dirs else [PACKAGE]
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield (path.relative_to(PACKAGE).as_posix(),
                   ast.parse(path.read_text(encoding="utf-8")))


def _is_set(node):
    """Whether iterating ``node`` walks a set in hash order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset")
        return isinstance(func, ast.Attribute) and func.attr in _SET_METHODS
    return False


def determinism_findings(tree):
    """Constructs in ``tree`` that make a replay diverge."""
    found = []
    for node in ast.walk(tree):
        iters = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters = [gen.iter for gen in node.generators]
        found += [(it.lineno, "iterates an unordered set; use sorted(...)")
                  for it in iters if _is_set(it)]
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)):
            pair = (node.value.id, node.attr)
            if pair[0] == "random" and pair[1] != "Random":
                found.append((node.lineno, f"global `random.{node.attr}` "
                               f"is unseeded; pass a seeded Random"))
            elif pair in _CLOCKS:
                found.append((node.lineno, f"wall-clock read "
                              f"`{pair[0]}.{pair[1]}`"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name == "id" and isinstance(func, ast.Name):
                found.append((node.lineno, "`id(...)` varies across runs"))
            elif name == "Random" and not node.args and not node.keywords:
                found.append((node.lineno, "`Random()` without a seed"))
    return sorted(found)


def _environ_reads(tree):
    """``(line, variable or None, enclosing function)`` for every read of
    the environment: ``os.environ.get(X)``, ``os.environ[X]`` and
    ``os.getenv(X)``.  ``X`` resolves through module-level string
    constants; a name that does not resolve is None (a dynamic read)."""
    constants = {
        node.targets[0].id: node.value.value for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)}

    def resolve(arg):
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        return constants.get(arg.id) if isinstance(arg, ast.Name) else None

    def is_environ(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "environ")
                or (isinstance(node, ast.Name) and node.id == "environ"))

    reads = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            scope = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
            if (isinstance(child, ast.Call) and child.args
                    and isinstance(child.func, ast.Attribute)
                    and ((child.func.attr == "get"
                          and is_environ(child.func.value))
                         or (child.func.attr == "getenv"
                             and isinstance(child.func.value, ast.Name)
                             and child.func.value.id == "os"))):
                reads.append((child.lineno, resolve(child.args[0]), scope))
            elif (isinstance(child, ast.Subscript)
                    and isinstance(child.ctx, ast.Load)
                    and is_environ(child.value)):
                reads.append((child.lineno, resolve(child.slice), scope))
            visit(child, scope)

    visit(tree, "<module>")
    return reads


def env_var_findings(tree, rel, registry=ACCESSOR_REGISTRY):
    """Environment reads in module ``rel`` outside the accessor
    convention.  Writes are allowed anywhere."""
    found = []
    for lineno, var, function in _environ_reads(tree):
        where = f"{rel}::{function}"
        if var is None:
            found.append((lineno, f"dynamic environment read in "
                          f"{function}(); read each knob by its name"))
        elif not ENV_NAME_RE.match(var):
            continue
        elif var not in registry:
            found.append((lineno, f"{var} has no registered accessor"))
        elif where not in registry[var]:
            found.append((lineno, f"{var} must be read through "
                          f"{', '.join(sorted(registry[var]))}, not in "
                          f"{function}()"))
    return found


def env_names(tree):
    """Every exact ``REPRO_*`` string literal in ``tree``."""
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and ENV_NAME_RE.match(node.value)}


def documented_env_names(markdown):
    """``REPRO_*`` names with a row in a markdown table."""
    return {name for line in markdown.splitlines()
            if line.lstrip().startswith("|")
            for name in _DOC_NAME_RE.findall(line)}


def _is_config_class(node):
    return isinstance(node, ast.ClassDef) and any(
        (base.id if isinstance(base, ast.Name) else
         getattr(base, "attr", None)) == "SerializableConfig"
        for base in node.bases)


def unread_config_fields(modules):
    """``(rel, line, message)`` for each field of a ``SerializableConfig``
    subclass in ``modules`` (``(rel, parsed module)`` pairs) that no
    attribute load outside the class's body reads, neither directly nor
    through a member of the class that such a load reads."""
    fields = []         # (owner, field, line); owner is (rel, class)
    loads = []          # (attribute, enclosing classes, owner member)

    def visit(node, rel, classes, member):
        config = _is_config_class(node)
        for child in ast.iter_child_nodes(node):
            inner, within = classes, member
            if isinstance(child, ast.ClassDef):
                inner = classes | {(rel, child.name)}
                if _is_config_class(child):
                    fields.extend(
                        ((rel, child.name), stmt.target.id, stmt.lineno)
                        for stmt in child.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation))
            elif config and isinstance(child, ast.FunctionDef):
                within = ((rel, node.name), child.name)
            elif (isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, ast.Load)):
                loads.append((child.attr, classes, member))
            visit(child, rel, inner, within)

    for rel, tree in modules:
        visit(tree, rel, frozenset(), None)
    found = []
    for owner in sorted({owner for owner, _, _ in fields}):
        read = {attr for attr, classes, _ in loads if owner not in classes}
        members = {}
        for attr, _, member in loads:
            if member is not None and member[0] == owner:
                members.setdefault(member[1], set()).add(attr)
        reached = read & members.keys()
        while reached:
            name = reached.pop()
            new = members.pop(name) - read
            read |= new
            reached |= new & members.keys()
        found += [(owner[0], line, f"{owner[1]}.{name} is never read "
                   f"outside {owner[1]}")
                  for field_owner, name, line in fields
                  if field_owner == owner and name not in read]
    return found


def _render(rel, findings):
    return [f"{rel}:{line}: {message}" for line, message in findings]


# ---------------------------------------------------------------------------
# determinism

def test_engine_sources_are_deterministic():
    scanned, errors = [], []
    for rel, tree in _sources(*ENGINE_DIRS):
        scanned.append(rel)
        errors += _render(rel, determinism_findings(tree))
    assert "core/pipeline.py" in scanned
    assert errors == []


@pytest.mark.parametrize("source, needle", [
    ("for x in set(items):\n    pass\n", "unordered set"),
    ("for x in {a, b}:\n    pass\n", "unordered set"),
    ("order = [x for x in items.union(extra)]\n", "unordered set"),
    ("jitter = random.random()\n", "random.random"),
    ("stamp = time.time()\n", "time.time"),
    ("stamp = datetime.now()\n", "datetime.now"),
    ("rng = random.Random()\n", "Random()"),
    ("rng = Random()\n", "Random()"),
    ("tie = id(items)\n", "id(...)"),
], ids=["set-call", "set-literal", "set-method", "global-random", "clock",
        "datetime", "unseeded-random", "unseeded-bare-random", "id"])
def test_determinism_flags(source, needle):
    (finding,) = determinism_findings(ast.parse(source))
    assert needle in finding[1]


@pytest.mark.parametrize("source", [
    "for x in sorted(set(items)):\n    pass\n",
    "merged = [x for x in sorted(items.union(extra))]\n",
    "rng = random.Random(1234)\nvalue = rng.random()\n",
], ids=["sorted-set", "sorted-set-method", "seeded-random"])
def test_determinism_allows(source):
    assert determinism_findings(ast.parse(source)) == []


# ---------------------------------------------------------------------------
# env-var

_KNOB = {"REPRO_TEST_KNOB": {"knobs.py::test_knob"}}


def test_env_reads_go_through_accessors():
    errors = []
    for rel, tree in _sources():
        errors += _render(rel, env_var_findings(tree, rel))
    assert errors == []


def test_env_table_matches_sources():
    mentioned = set().union(*(env_names(tree) for _, tree in _sources()))
    documented = documented_env_names(DOCS_MD.read_text(encoding="utf-8"))
    assert sorted(mentioned - documented) == [], "undocumented"
    assert sorted(documented - mentioned) == [], "documented but unused"
    assert documented == set(ACCESSOR_REGISTRY)


@pytest.mark.parametrize("source, needle", [
    ("def sneaky():\n    return os.environ.get('REPRO_TEST_KNOB')\n",
     "must be read through knobs.py::test_knob"),
    ("KNOB = 'REPRO_TEST_KNOB'\n\n\ndef sneaky():\n"
     "    return os.environ.get(KNOB, '0')\n",
     "must be read through knobs.py::test_knob"),
    ("def sneaky():\n    return os.environ['REPRO_TEST_KNOB']\n",
     "must be read through knobs.py::test_knob"),
    ("def mystery():\n    return os.getenv('REPRO_MYSTERY_KNOB')\n",
     "REPRO_MYSTERY_KNOB has no registered accessor"),
    ("def dynamic(name):\n    return os.environ[name]\n",
     "dynamic environment read in dynamic()"),
], ids=["get", "via-constant", "subscript", "unregistered", "dynamic"])
def test_env_var_flags(source, needle):
    (finding,) = env_var_findings(ast.parse(source), "knobs.py",
                                  registry=_KNOB)
    assert needle in finding[1]


@pytest.mark.parametrize("source", [
    "KNOB = 'REPRO_TEST_KNOB'\n\n\ndef test_knob():\n"
    "    return os.environ.get(KNOB, '0')\n",
    "def route():\n    os.environ['REPRO_TEST_KNOB'] = '1'\n",
    "def home():\n    return os.environ.get('HOME')\n",
], ids=["accessor", "write", "foreign"])
def test_env_var_allows(source):
    assert env_var_findings(ast.parse(source), "knobs.py",
                            registry=_KNOB) == []


@pytest.mark.parametrize("knob", [
    "REPRO_KERNEL", "REPRO_FAST_PATH", "REPRO_MEMCACHE_MAX", "REPRO_TRACE",
    "REPRO_DISK_CACHE", "REPRO_QUEUE_DIR", "REPRO_LEASE_TTL",
    "REPRO_RETRY_MAX", "REPRO_RETRY_BASE", "REPRO_SHARD_WARMUP",
    "REPRO_METRICS_INTERVAL"])
def test_retired_knob_is_flagged(knob):
    # REPRO_KERNEL went with the compiled scheduler backend,
    # REPRO_FAST_PATH with the second driver loop, REPRO_MEMCACHE_MAX
    # with the settable memo capacity and REPRO_TRACE with the second way
    # to set ``repro trace --out``.  The next seven were never set outside
    # tests and CI, or repeated a flag or a parameter: ``--no-cache``,
    # ``--queue-dir``, ``--lease-ttl``, the module constants of
    # ``reliability/retry.py``, ``run_suite(warmup_fraction=)`` and the
    # worker's per-job stats write.  None has an accessor or a docs row,
    # so reading one again must fail.
    tree = ast.parse(f"def knob():\n    return os.environ.get('{knob}')\n")
    (finding,) = env_var_findings(tree, "revived.py")
    assert "no registered accessor" in finding[1]
    assert knob in env_names(tree)
    assert knob not in documented_env_names(
        DOCS_MD.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# config fields

def test_every_config_field_is_read():
    errors = [f"{rel}:{line}: {message}"
              for rel, line, message in unread_config_fields(_sources())]
    assert errors == []


_DEPTHS = ("class Depths(SerializableConfig):\n"
           "    fetch: int = 3\n"
           "    retire: int = 1\n"
           "    _SKIP: ClassVar[int] = 0\n\n"
           "    @property\n"
           "    def total(self):\n"
           "        return self.fetch + self.retire\n\n\n")


def test_config_field_read_only_by_an_unread_member_is_flagged():
    source = _DEPTHS + "def front_end(config):\n    return config.fetch\n"
    (finding,) = unread_config_fields([("depths.py", ast.parse(source))])
    assert finding == ("depths.py", 3,
                       "Depths.retire is never read outside Depths")


def test_config_fields_read_through_a_read_member_pass():
    source = _DEPTHS + "def charge(config):\n    return config.total\n"
    assert unread_config_fields([("depths.py", ast.parse(source))]) == []


# ---------------------------------------------------------------------------
# typing

def test_mypy_strict_modules_clean():
    # mypy is an optional (CI-installed) dependency; the staged config in
    # pyproject.toml holds these modules to strict annotations.
    pytest.importorskip("mypy")
    files = ["src/repro/serialization.py", "src/repro/distrib/queue.py"]
    proc = subprocess.run([sys.executable, "-m", "mypy", *files],
                          cwd=REPO_ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
