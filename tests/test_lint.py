"""Tests for ``repro lint``: the engine, all five rules, and the CLI.

The self-hosted test at the top is the tier-1 contract: the repository's
own sources stay clean under every rule.  The per-rule tests copy the
paired good/bad fixtures from ``tests/lint_fixtures/`` into temporary
trees with the repository layout and assert the bad member fires (with
the expected messages) while the good member is silent.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (BASELINE_NAME, Finding, Project, load_baseline,
                        run_lint, write_baseline)
from repro.lint.rules import (ALL_RULES, CacheKeyRule, DeterminismRule,
                              EnvVarRule, FastPathRule, StatsMergeRule)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def make_tree(tmp_path, files):
    """Materialize ``{relpath: content-or-fixture-Path}`` as a project."""
    for rel, content in files.items():
        dest = tmp_path / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, Path):
            content = content.read_text(encoding="utf-8")
        dest.write_text(content, encoding="utf-8")
    return tmp_path


def _load_fixture_module(name, relpath):
    spec = importlib.util.spec_from_file_location(name, FIXTURES / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


configs = _load_fixture_module("lint_cache_key_configs",
                               Path("cache_key") / "configs.py")


# ---------------------------------------------------------------------------
# Self-hosting: the repository's own sources stay clean.

def test_self_hosted_src_is_clean():
    baseline = load_baseline(REPO_ROOT / BASELINE_NAME)
    report = run_lint(REPO_ROOT, baseline_keys=baseline)
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"repro lint found new violations:\n{rendered}"
    # All five rules must actually run against the real tree (a skipped
    # rule would make the clean run vacuous).
    assert sorted(report.rules) == sorted(r.id for r in ALL_RULES)
    assert report.skipped_rules == []


def test_committed_baseline_stays_empty():
    # Policy (docs/ARCHITECTURE.md): intentional violations use inline
    # suppressions; the baseline only grandfathers and should stay empty.
    assert load_baseline(REPO_ROOT / BASELINE_NAME) == set()


# ---------------------------------------------------------------------------
# determinism

def test_determinism_bad_fixture_fires(tmp_path):
    tree = make_tree(tmp_path, {
        "src/repro/core/engine.py": FIXTURES / "determinism" / "bad.py"})
    report = run_lint(tree, rules=[DeterminismRule()])
    messages = [f.message for f in report.findings]
    assert len(messages) == 6
    for needle in ("unordered set", "random.random", "time.time",
                   "Random()", "id(...)"):
        assert any(needle in m for m in messages), needle
    assert all(f.rule == "determinism" for f in report.findings)
    assert all(f.path == "src/repro/core/engine.py"
               for f in report.findings)


def test_determinism_good_fixture_clean(tmp_path):
    tree = make_tree(tmp_path, {
        "src/repro/core/engine.py": FIXTURES / "determinism" / "good.py"})
    assert run_lint(tree, rules=[DeterminismRule()]).ok


def test_determinism_scope_excludes_experiment_layers(tmp_path):
    # The experiments/distrib layers legitimately read clocks; the same
    # source outside the engine packages is not flagged.
    tree = make_tree(tmp_path, {
        "src/repro/core/__init__.py": "",
        "src/repro/experiments/runner2.py":
            FIXTURES / "determinism" / "bad.py"})
    assert run_lint(tree, rules=[DeterminismRule()]).ok


# ---------------------------------------------------------------------------
# suppressions and baseline semantics

BAD_LINE = "stamp = time.time()\n"


def _one_finding_tree(tmp_path, body):
    return make_tree(tmp_path, {
        "src/repro/core/engine.py": "import time\n\n" + body})


def test_inline_suppression_same_line(tmp_path):
    tree = _one_finding_tree(
        tmp_path,
        "stamp = time.time()  # repro: lint-ok[determinism] test fixture\n")
    report = run_lint(tree, rules=[DeterminismRule()])
    assert report.ok and report.suppressed == 1


def test_inline_suppression_line_above(tmp_path):
    tree = _one_finding_tree(
        tmp_path,
        "# repro: lint-ok[determinism] test fixture\nstamp = time.time()\n")
    report = run_lint(tree, rules=[DeterminismRule()])
    assert report.ok and report.suppressed == 1


def test_inline_suppression_list_and_wildcard(tmp_path):
    tree = _one_finding_tree(
        tmp_path, "stamp = time.time()  # repro: lint-ok[other, determinism]\n")
    assert run_lint(tree, rules=[DeterminismRule()]).ok
    tree2 = _one_finding_tree(
        tmp_path / "w", "stamp = time.time()  # repro: lint-ok[*] fixture\n")
    assert run_lint(tree2, rules=[DeterminismRule()]).ok


def test_wrong_rule_does_not_suppress(tmp_path):
    tree = _one_finding_tree(
        tmp_path, "stamp = time.time()  # repro: lint-ok[cache-key] nope\n")
    report = run_lint(tree, rules=[DeterminismRule()])
    assert not report.ok and report.suppressed == 0


def test_baseline_grandfathers_without_line_numbers(tmp_path):
    tree = _one_finding_tree(tmp_path, BAD_LINE)
    first = run_lint(tree, rules=[DeterminismRule()])
    assert len(first.findings) == 1
    keys = {f.baseline_key() for f in first.findings}
    # Baseline keys carry no line numbers, so unrelated drift (the finding
    # moving down two lines) keeps the entry matched.
    drifted = _one_finding_tree(tmp_path / "v2",
                                "x = 1\ny = 2\n" + BAD_LINE)
    report = run_lint(drifted, rules=[DeterminismRule()],
                      baseline_keys=keys)
    assert report.ok and report.baselined == 1
    # ... but a genuinely new finding still fails.
    doubled = _one_finding_tree(tmp_path / "v3",
                                BAD_LINE + "tie = id(object())\n")
    report = run_lint(doubled, rules=[DeterminismRule()],
                      baseline_keys=keys)
    assert not report.ok and report.baselined == 1
    assert len(report.findings) == 1


def test_baseline_file_roundtrip(tmp_path):
    findings = [Finding("src/repro/a.py", 3, "determinism", "msg one"),
                Finding("src/repro/b.py", 9, "env-var", "msg two")]
    path = tmp_path / "baseline.txt"
    assert write_baseline(path, findings) == 2
    assert load_baseline(path) == {f.baseline_key() for f in findings}
    assert load_baseline(tmp_path / "missing.txt") == set()


def test_baseline_rejects_malformed_entries(tmp_path):
    path = tmp_path / "baseline.txt"
    path.write_text("not a tab separated entry\n")
    with pytest.raises(ValueError):
        load_baseline(path)


# ---------------------------------------------------------------------------
# stats-merge

def test_stats_merge_bad_fixture_fires(tmp_path):
    tree = make_tree(tmp_path, {
        "src/repro/core/stats.py":
            FIXTURES / "stats_merge" / "bad_stats.py"})
    report = run_lint(tree, rules=[StatsMergeRule()])
    assert len(report.findings) == 2
    assert {m.split(":")[0].split(".")[-1]
            for m in (f.message for f in report.findings)} \
        == {"ipc", "trace"}


def test_stats_merge_good_fixture_clean(tmp_path):
    tree = make_tree(tmp_path, {
        "src/repro/core/stats.py":
            FIXTURES / "stats_merge" / "good_stats.py"})
    assert run_lint(tree, rules=[StatsMergeRule()]).ok


# ---------------------------------------------------------------------------
# fast-path

def _fast_path_tree(tmp_path, pipeline_fixture):
    return make_tree(tmp_path, {
        "src/repro/core/pipeline.py":
            FIXTURES / "fast_path" / pipeline_fixture,
        "src/repro/core/support.py":
            FIXTURES / "fast_path" / "support.py"})


def test_fast_path_good_fixture_clean(tmp_path):
    tree = _fast_path_tree(tmp_path, "good_pipeline.py")
    report = run_lint(tree, rules=[FastPathRule()])
    assert report.ok, [f.render() for f in report.findings]


def test_fast_path_bad_fixture_fires(tmp_path):
    tree = _fast_path_tree(tmp_path, "bad_pipeline.py")
    report = run_lint(tree, rules=[FastPathRule()])
    messages = [f.message for f in report.findings]
    assert len(messages) == 1
    assert "_missing_ready" in messages[0]


# ---------------------------------------------------------------------------
# env-var

_ENV_REGISTRY = {
    "REPRO_TEST_KNOB": frozenset({"src/repro/knobs.py::test_knob"})}


def test_env_var_good_fixture_clean(tmp_path):
    tree = make_tree(tmp_path, {
        "src/repro/knobs.py": FIXTURES / "env_var" / "good_reader.py",
        "docs/ARCHITECTURE.md": FIXTURES / "env_var" / "docs_good.md"})
    rule = EnvVarRule(registry=_ENV_REGISTRY, generic=frozenset())
    report = run_lint(tree, rules=[rule])
    assert report.ok, [f.render() for f in report.findings]


def test_env_var_bad_fixture_fires(tmp_path):
    tree = make_tree(tmp_path, {
        "src/repro/other.py": FIXTURES / "env_var" / "bad_reader.py",
        "docs/ARCHITECTURE.md": FIXTURES / "env_var" / "docs_bad.md"})
    rule = EnvVarRule(registry=_ENV_REGISTRY, generic=frozenset())
    report = run_lint(tree, rules=[rule])
    messages = [f.message for f in report.findings]
    assert any("must be read through its accessor" in m for m in messages)
    assert any("no registered accessor" in m for m in messages)
    assert any("dynamic os.environ read" in m for m in messages)
    undocumented = [m for m in messages if "not documented" in m]
    assert len(undocumented) == 2  # REPRO_TEST_KNOB and REPRO_MYSTERY_KNOB
    assert len(messages) == 5


def test_env_var_missing_docs_file(tmp_path):
    tree = make_tree(tmp_path, {
        "src/repro/knobs.py": FIXTURES / "env_var" / "good_reader.py"})
    rule = EnvVarRule(registry=_ENV_REGISTRY, generic=frozenset())
    report = run_lint(tree, rules=[rule])
    assert any("not found" in f.message for f in report.findings)


@pytest.mark.parametrize("knob", ["REPRO_KERNEL", "REPRO_FAST_PATH",
                                  "REPRO_MEMCACHE_MAX"])
def test_env_var_retired_knob_is_flagged(tmp_path, knob):
    # REPRO_KERNEL was removed with the compiled scheduler backend,
    # REPRO_FAST_PATH with the second driver loop and REPRO_MEMCACHE_MAX
    # with the settable memo capacity: none has an accessor or a docs
    # row, so reading one again must not pass lint.
    tree = make_tree(tmp_path, {
        "src/repro/revived.py": (
            "import os\n\n\n"
            "def knob():\n"
            f"    return os.environ.get(\"{knob}\", \"1\")\n"),
        "docs/ARCHITECTURE.md": REPO_ROOT / "docs" / "ARCHITECTURE.md"})
    report = run_lint(tree, rules=[EnvVarRule()])
    messages = [f.message for f in report.findings if knob in f.message]
    assert any("no registered accessor" in m for m in messages)
    assert any("not documented" in m for m in messages)


# ---------------------------------------------------------------------------
# cache-key (loader-injected; the live-tree loader is exercised by the
# self-hosted run above)

def _cache_key_report(cls):
    rule = CacheKeyRule(loader=lambda project: cls)
    return run_lint(REPO_ROOT, rules=[rule])


def test_cache_key_good_config_clean():
    assert _cache_key_report(configs.GoodConfig).ok


def test_cache_key_elided_default_is_legitimate():
    assert _cache_key_report(configs.ElidedConfig).ok


def test_cache_key_regression_pre_pr1_shape():
    # The historical _config_key bug: a declared field that never reaches
    # the canonical rendering, so configs differing only there collide.
    report = _cache_key_report(configs.BrokenKeyConfig)
    assert len(report.findings) == 1
    assert "assoc" in report.findings[0].message
    assert "missing from canonical to_dict()" in report.findings[0].message


def test_cache_key_fingerprint_blind_field():
    report = _cache_key_report(configs.BlindFingerprintConfig)
    assert len(report.findings) == 1
    assert "ways" in report.findings[0].message
    assert "does not change fingerprint()" in report.findings[0].message


def test_cache_key_audits_nested_configs():
    report = _cache_key_report(configs.BrokenChildParent)
    assert any("BrokenKeyConfig.assoc" in f.message
               for f in report.findings)


def test_cache_key_not_applicable_on_fixture_trees(tmp_path):
    tree = make_tree(tmp_path, {"src/repro/__init__.py": ""})
    report = run_lint(tree, rules=[CacheKeyRule()])
    assert report.skipped_rules == ["cache-key"]
    assert report.rules == []


# ---------------------------------------------------------------------------
# CLI (--json schema, exit codes)

def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        cwd=cwd, env=env, capture_output=True, text=True)


def test_mypy_strict_modules_clean():
    # mypy is an optional (CI-installed) dependency; the staged config in
    # pyproject.toml holds these modules to strict annotations.
    pytest.importorskip("mypy")
    files = ["src/repro/serialization.py", "src/repro/distrib/queue.py"]
    proc = subprocess.run([sys.executable, "-m", "mypy", *files],
                          cwd=REPO_ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_json_roundtrip_and_exit_codes(tmp_path):
    tree = make_tree(tmp_path, {
        "src/repro/core/engine.py": FIXTURES / "determinism" / "bad.py"})
    proc = _run_cli(["--json", "--root", str(tree),
                     "--rules", "determinism"], cwd=REPO_ROOT)
    assert proc.returncode == 1, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["rules"] == ["determinism"]
    assert payload["counts"]["new"] == 6
    assert payload["counts"] == {"new": 6, "suppressed": 0, "baselined": 0}
    # Schema roundtrip: every finding reconstructs exactly.
    for entry in payload["findings"]:
        finding = Finding.from_dict(entry)
        assert finding.to_dict() == entry
        assert finding.rule == "determinism"

    clean = make_tree(tmp_path / "clean", {
        "src/repro/core/engine.py": FIXTURES / "determinism" / "good.py"})
    proc = _run_cli(["--root", str(clean), "--rules", "determinism"],
                    cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok: 0 new finding(s)" in proc.stdout
