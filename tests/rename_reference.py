"""The per-instruction rename rules as plain functions over a map table and
a physical register file: a test-local reference.

The pipeline applies these rules inline.  ``RenameIntegrate.tick`` looks
up sources and maps a non-integrating destination; ``CommitDiva.tick``
releases the mapping a retiring instruction shadowed.  The unit tests drive
the renaming substrate through these functions, and
``test_rename_basic.TestRenameStage`` checks the rename stage against them,
instruction by instruction, on whole runs.
"""

from repro.isa.registers import REG_FZERO, REG_ZERO


def lookup_sources(map_table, dyn):
    """Set ``dyn.src_pregs`` (the registers the scheduler waits on) and
    ``dyn.src_key`` (the flat ``(preg, gen[, preg, gen])`` tuple the
    integration table matches) from the map, and return the key."""
    pregs = []
    key = []
    for logical in dyn.inst.srcs:
        preg, gen = map_table.get_raw(logical)
        pregs.append(preg)
        key += [preg, gen]
    dyn.src_pregs = pregs
    dyn.src_key = tuple(key)
    return dyn.src_key


def rename_dest(map_table, prf, dyn):
    """Conventionally rename the destination: ``-1`` when no register is
    free (rename stalls), ``0`` for no register destination (stores,
    branches, zero-register writes), ``1`` when a register was allocated
    and the previous mapping recorded as shadowed."""
    dest = dyn.inst.dest
    if dest is None or dest in (REG_ZERO, REG_FZERO):
        dyn.dest_preg = None
        return 0
    preg = prf.allocate()
    if preg is None:
        return -1
    dyn.old_dest_preg, dyn.old_dest_gen = map_table.get_raw(dest)
    dyn.dest_preg = preg
    dyn.dest_gen = prf.gen[preg]
    map_table.set(dest, preg, dyn.dest_gen)
    return 1


def retire(prf, dyn):
    """Retire ``dyn``: the mapping its destination shadowed drops one
    reference; its own output keeps its reference."""
    if dyn.dest_preg is not None:
        prf.release(dyn.old_dest_preg)
