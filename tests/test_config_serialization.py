"""Canonical config serialization and fingerprinting.

The regression targets here are the cache-collision bugs of the old
hand-maintained ``_config_key`` tuple, which ignored the memory-system and
branch-predictor sub-configurations entirely: two machines differing only in
cache geometry or predictor sizing shared one cached result.  The
fingerprint hashes the *whole* field tree, so any field difference anywhere
must produce a distinct fingerprint.
"""

import dataclasses
import enum
from dataclasses import replace

import pytest

from repro.core import MachineConfig
from repro.core.config import IssuePortConfig
from repro.frontend.branch_predictor import BranchPredictorConfig
from repro.integration.config import IndexScheme, IntegrationConfig, LispMode
from repro.memsys.hierarchy import MemSysConfig
from repro.serialization import SerializableConfig, from_dict, to_dict


class TestRoundTrip:
    def test_default_machine_roundtrip(self):
        config = MachineConfig()
        rebuilt = MachineConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.fingerprint() == config.fingerprint()

    def test_nondefault_machine_roundtrip(self):
        config = MachineConfig().reduced_both(20).with_integration(
            IntegrationConfig.squash(lisp_mode=LispMode.ORACLE,
                                     index_scheme=IndexScheme.OPCODE_IMM))
        rebuilt = MachineConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.ports.combined_ldst_port
        assert rebuilt.integration.lisp_mode is LispMode.ORACLE
        assert rebuilt.integration.index_scheme is IndexScheme.OPCODE_IMM

    def test_to_dict_is_plain_json_types(self):
        import json

        payload = MachineConfig().to_dict()
        json.dumps(payload)                     # must not raise
        assert payload["integration"]["lisp_mode"] == "realistic"
        assert payload["memsys"]["dl1"]["size_bytes"] == 32 * 1024

    def test_nested_configs_roundtrip_standalone(self):
        for config in (IntegrationConfig.full(), MemSysConfig(),
                       BranchPredictorConfig(), IssuePortConfig()):
            rebuilt = type(config).from_dict(config.to_dict())
            assert rebuilt == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            IssuePortConfig.from_dict({"issue_width": 4, "bogus": 1})

    def test_unknown_nested_fields_rejected_after_a_decode(self):
        payload = MachineConfig().to_dict()
        MachineConfig.from_dict(payload)
        payload["memsys"]["dl1"]["bogus"] = 1
        with pytest.raises(ValueError, match="unknown CacheConfig"):
            MachineConfig.from_dict(payload)

    def test_from_dict_defaults_missing_fields(self):
        config = IssuePortConfig.from_dict({"issue_width": 8})
        assert config.issue_width == 8
        assert config.loads == IssuePortConfig().loads

    def test_generic_helpers_match_methods(self):
        config = IntegrationConfig.full()
        assert to_dict(config) == config.to_dict()
        assert from_dict(IntegrationConfig, to_dict(config)) == config


def _flipped(value):
    """A different value of the same type, or None when there is none."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "~"
    if isinstance(value, enum.Enum):
        return next((m for m in type(value) if m is not value), None)
    return None


def _blind_leaves(root):
    """Dotted paths of the leaves of ``root`` whose flip leaves the root
    fingerprint or its owner's fingerprint unchanged, or repeats another
    flip's root fingerprint.  A flip the constructor rejects is skipped."""
    seen = {root.fingerprint()}
    blind = []

    def visit(config, path, rebuild):
        owner_fp = config.fingerprint()
        for field in dataclasses.fields(config):
            value = getattr(config, field.name)
            if dataclasses.is_dataclass(value):
                visit(value, f"{path}{field.name}.",
                      lambda v, f=field.name, c=config: rebuild(
                          dataclasses.replace(c, **{f: v})))
                continue
            new = _flipped(value)
            if new is None:
                continue
            try:
                owner = dataclasses.replace(config, **{field.name: new})
            except (TypeError, ValueError):
                continue
            fp = rebuild(owner).fingerprint()
            if fp in seen or owner.fingerprint() == owner_fp:
                blind.append(path + field.name)
            seen.add(fp)

    visit(root, "", lambda v: v)
    return blind


@dataclasses.dataclass(frozen=True)
class _HandKeyedCache(SerializableConfig):
    """The old ``_config_key`` shape: a hand-kept key tuple that
    forgets a field, so configs differing only in ``assoc`` collide."""

    size: int = 64
    assoc: int = 2

    def fingerprint(self):
        return repr((self.size,))


@dataclasses.dataclass(frozen=True)
class _HandKeyedParent(SerializableConfig):
    """Fingerprints every field itself, but its sub-config key does not."""

    width: int = 4
    cache: _HandKeyedCache = dataclasses.field(
        default_factory=_HandKeyedCache)


#: Config trees the round-trip and fingerprint tests walk, and the leaves
#: each one's fingerprint is blind to.  The last two are broken on purpose.
ROOTS = (
    MachineConfig(),
    MachineConfig().reduced_both(20).with_integration(
        IntegrationConfig.disabled()),
    _HandKeyedCache(),
    _HandKeyedParent(),
)
ROOT_BLIND = ([], [], ["assoc"], ["cache.assoc"])
ROOT_IDS = ["default", "reduced-disabled", "hand-kept-key", "sub-config-key"]


@pytest.mark.parametrize("root", ROOTS, ids=ROOT_IDS)
def test_every_root_roundtrips(root):
    for _ in range(2):      # a class's second decode reads its memo
        assert type(root).from_dict(root.to_dict()) == root


class TestFingerprint:
    def test_fingerprint_is_stable(self):
        assert MachineConfig().fingerprint() == MachineConfig().fingerprint()

    def test_fingerprint_differs_for_integration_fields(self):
        base = MachineConfig()
        other = base.with_integration(IntegrationConfig.squash())
        assert other.fingerprint() != base.fingerprint()

    def test_memsys_only_difference_changes_fingerprint(self):
        """Regression: the old ``_config_key`` ignored memsys fields, so
        configs differing only in cache geometry collided in the cache."""
        base = MachineConfig()
        bigger_dl1 = replace(base.memsys.dl1, size_bytes=64 * 1024)
        other = replace(base, memsys=replace(base.memsys, dl1=bigger_dl1))
        assert other.fingerprint() != base.fingerprint()

    def test_memory_latency_only_difference_changes_fingerprint(self):
        base = MachineConfig()
        other = replace(base, memsys=replace(base.memsys, memory_latency=200))
        assert other.fingerprint() != base.fingerprint()

    def test_branch_predictor_only_difference_changes_fingerprint(self):
        """Regression: predictor sizing was also invisible to the old key."""
        base = MachineConfig()
        other = replace(base, branch_predictor=replace(
            base.branch_predictor, history_bits=8))
        assert other.fingerprint() != base.fingerprint()

    def test_btb_only_difference_changes_fingerprint(self):
        base = MachineConfig()
        other = replace(base, branch_predictor=replace(
            base.branch_predictor, btb_entries=512))
        assert other.fingerprint() != base.fingerprint()

    def test_pc_indexing_names_one_machine_with_or_without_reverse(self):
        """PC indexing makes no reverse entries, so asking for them must
        give the same config, label and cache key as not asking."""
        pc_full = IntegrationConfig.full(index_scheme=IndexScheme.PC)
        general = IntegrationConfig.general()
        assert pc_full == general
        assert pc_full.describe() == general.describe()
        assert pc_full.fingerprint() == general.fingerprint()

    def test_reverse_sp_only_without_reverse_names_one_machine(self):
        """``reverse_sp_only`` narrows reverse entries, so with ``reverse``
        off it must not change the config, label or cache key."""
        opcode = IntegrationConfig.opcode()
        narrowed = IntegrationConfig.opcode(reverse_sp_only=False)
        assert narrowed == opcode
        assert narrowed.describe() == opcode.describe()
        assert narrowed.fingerprint() == opcode.fingerprint()
        full = IntegrationConfig.full()
        assert (IntegrationConfig.full(reverse_sp_only=False).fingerprint()
                != full.fingerprint())

    @pytest.mark.parametrize("root, blind", list(zip(ROOTS, ROOT_BLIND)),
                             ids=ROOT_IDS)
    def test_every_scalar_field_participates(self, root, blind):
        """Flip every scalar leaf of the config tree one at a time; each
        flip must give a new root fingerprint and change the fingerprint of
        the sub-config that owns the leaf, because checkpoint plans key on
        ``memsys`` and ``branch_predictor`` fingerprints alone.  The last
        two roots are broken on purpose and must be caught."""
        assert _blind_leaves(root) == blind


class TestElidedDefaults:
    """The ``variant`` field is elided from canonical JSON at its default,
    keeping pre-variant fingerprints (and cache keys) byte-stable."""

    def test_default_variant_absent_from_canonical_dict(self):
        payload = MachineConfig().to_dict()
        assert "variant" not in payload

    def test_non_default_variant_present_and_fingerprinted(self):
        base = MachineConfig()
        other = base.with_variant("no-cht")
        assert other.to_dict()["variant"] == "no-cht"
        assert other.fingerprint() != base.fingerprint()

    def test_explicit_baseline_equals_default_fingerprint(self):
        base = MachineConfig()
        assert (base.with_variant("baseline").fingerprint()
                == base.fingerprint())

    def test_elided_dict_roundtrips_to_default(self):
        restored = MachineConfig.from_dict(MachineConfig().to_dict())
        assert restored == MachineConfig()
        assert restored.variant == "baseline"

    def test_variant_roundtrips(self):
        config = MachineConfig().with_variant("oracle-bp")
        assert MachineConfig.from_dict(config.to_dict()) == config
