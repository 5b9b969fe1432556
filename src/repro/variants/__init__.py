"""The machine-variant registry: named substrate assemblies.

A *variant* is a named :class:`~repro.core.builder.MachineBuilder` subclass
overriding one or more of its four substrate slots (the predictor, the
integration logic, the scheduler, the CHT); the four pipeline stages
themselves are fixed and always the stock ones.  The registry maps the name
carried in :attr:`MachineConfig.variant <repro.core.config.MachineConfig>`
to the builder class the engine instantiates.  Because the variant name
participates in the configuration fingerprint, every layer above the core
-- the run cache, the sharded-slice scheduler, the experiment sweeps --
distinguishes variants automatically.

Shipped variants:

=================  ==========================================================
``baseline``       the paper's machine, bit-identical to the seed engine
``no-integration`` integration logic stubbed off (the paper's control)
``oracle-bp``      perfect branch/target prediction from the functional
                   emulator's control stream
``no-cht``         no collision history table: loads always issue
                   speculatively and every collision costs a squash
``inorder-issue``  program-order select in the scheduler (in-order issue on
                   the out-of-order substrate)
=================  ==========================================================

Registering a new variant is ~10 lines: subclass ``MachineBuilder``, set
``name``/``description``, override a slot, decorate with
:func:`register`.  See ``docs/ARCHITECTURE.md`` for the full recipe.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from repro.core.builder import MachineBuilder

DEFAULT_VARIANT = "baseline"

_REGISTRY: Dict[str, Type[MachineBuilder]] = {}


class UnknownVariantError(SystemExit):
    """An unregistered machine-variant name.

    Subclasses :class:`SystemExit` (like
    :class:`repro.experiments.runner.EnvVarError`) so a bad name aborts CLI
    runs with a one-line message instead of a ``KeyError`` traceback, while
    still being catchable in library use.
    """

    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"unknown machine variant {name!r} "
            f"(registered: {', '.join(variant_names())})")


def register(cls: Type[MachineBuilder]) -> Type[MachineBuilder]:
    """Class decorator: add a :class:`MachineBuilder` subclass under its
    ``name``.  Re-registering a name replaces the previous builder (latest
    wins), which keeps test fixtures and notebooks re-runnable."""
    if not isinstance(cls.name, str) or not cls.name:
        raise ValueError(f"variant class {cls.__name__} needs a name")
    _REGISTRY[cls.name] = cls
    return cls


def get_builder(name: str) -> Type[MachineBuilder]:
    """Resolve a variant name to its builder class."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownVariantError(name) from None


def variant_names() -> Tuple[str, ...]:
    """Registered variant names, baseline first, the rest alphabetical."""
    rest = sorted(n for n in _REGISTRY if n != DEFAULT_VARIANT)
    head = [DEFAULT_VARIANT] if DEFAULT_VARIANT in _REGISTRY else []
    return tuple(head + rest)


def describe_variants() -> Dict[str, Dict[str, object]]:
    """Listing payload for the CLI: description + overridden slots."""
    return {
        name: {
            "description": _REGISTRY[name].description,
            "overrides": _REGISTRY[name].overridden_slots(),
        }
        for name in variant_names()
    }


# The baseline variant is the unmodified builder.
register(MachineBuilder)

# Import order is registration order; each module registers its variant(s).
from repro.variants.no_integration import NoIntegrationVariant  # noqa: E402
from repro.variants.oracle_bp import OracleBPVariant  # noqa: E402
from repro.variants.no_cht import NoCHTVariant  # noqa: E402
from repro.variants.inorder import InOrderIssueVariant  # noqa: E402

__all__ = [
    "DEFAULT_VARIANT",
    "InOrderIssueVariant",
    "MachineBuilder",
    "NoCHTVariant",
    "NoIntegrationVariant",
    "OracleBPVariant",
    "UnknownVariantError",
    "describe_variants",
    "get_builder",
    "register",
    "variant_names",
]
