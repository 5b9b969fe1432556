#!/usr/bin/env python
"""Print the simulated machine configuration (the paper's Section 3.1 table).

Run with::

    python examples/print_machine_config.py
"""

from repro.core import MachineConfig


def main() -> None:
    cfg = MachineConfig()
    icfg = cfg.integration
    mem = cfg.memsys
    bp = cfg.branch_predictor
    print("Simulated machine (paper Section 3.1 defaults)")
    print("=" * 52)
    print(f"pipeline            : {cfg.fetch_stages} fetch + "
          f"{cfg.decode_stages} decode before rename, "
          f"{cfg.regread_stages} regread + execute + "
          f"{cfg.writeback_stages} writeback; retire 2 cycles after "
          f"rename at the earliest")
    print(f"widths              : fetch {cfg.fetch_width}, rename "
          f"{cfg.rename_width}, issue {cfg.ports.issue_width} "
          f"({cfg.ports.simple_int} simple int, {cfg.ports.complex_fp} "
          f"complex/FP, {cfg.ports.loads} load, {cfg.ports.stores} store), "
          f"retire {cfg.retire_width}")
    print(f"window              : {cfg.rob_size} instructions, "
          f"{cfg.lsq_size} memory ops, {cfg.rs_entries} reservation stations")
    print(f"branch predictor    : hybrid gshare/bimodal "
          f"({bp.gshare_entries}+{bp.bimodal_entries} entries, "
          f"{bp.btb_entries}-entry BTB, {bp.ras_entries}-entry RAS)")
    print(f"I-cache             : {mem.il1.size_bytes // 1024}KB, "
          f"{mem.il1.line_bytes}B lines, {mem.il1.associativity}-way")
    print(f"D-cache             : {mem.dl1.size_bytes // 1024}KB, "
          f"{mem.dl1.line_bytes}B lines, {mem.dl1.associativity}-way, "
          f"{mem.dl1.hit_latency}-cycle, {mem.dl1.mshrs} MSHRs, "
          f"{mem.write_buffer_entries}-entry write buffer")
    print(f"TLBs                : {mem.itlb.entries}-entry I, "
          f"{mem.dtlb.entries}-entry D, {mem.dtlb.miss_latency}-cycle miss")
    print(f"L2                  : {mem.l2.size_bytes // (1024 * 1024)}MB, "
          f"{mem.l2.line_bytes}B lines, {mem.l2.associativity}-way, "
          f"{mem.l2.hit_latency}-cycle")
    print(f"memory              : {mem.memory_latency}-cycle")
    print(f"physical registers  : {icfg.num_physical_regs}")
    print(f"integration table   : {icfg.it_entries} entries, "
          f"{icfg.it_assoc}-way, indexed by {icfg.index_scheme.value}")
    print(f"mis-integration     : {icfg.generation_bits}-bit generation "
          f"counters, {icfg.lisp_entries}-entry {icfg.lisp_assoc}-way LISP "
          f"({icfg.lisp_mode.value})")
    print(f"reference counters  : {icfg.refcount_bits}-bit")


if __name__ == "__main__":
    main()
