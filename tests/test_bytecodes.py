"""``benchmarks/bytecodes.py``, the per-function bytecode counter, on a tiny
perfbench plan: it counts the simulator's hot functions, and its counts
repeat exactly."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bytecodes", ROOT / "benchmarks" / "bytecodes.py")
bytecodes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bytecodes)


def test_counts_the_rename_stage_and_repeat():
    first, retired = bytecodes.count_plan("spec_integration", 1, 1,
                                          tiny=True)
    again, retired_again = bytecodes.count_plan("spec_integration", 1, 1,
                                                tiny=True)
    assert retired == retired_again > 0
    assert dict(first) == dict(again)
    names = {name for _, name in first}
    for hot in ("RenameIntegrate.tick", "IntegrationLogic.consider",
                "IntegrationLogic.create_entries", "DynInst.__init__"):
        assert hot in names
    ops, calls = first[("core/stages/rename.py", "RenameIntegrate.tick")]
    assert ops > calls > 0
    # Build is not traced: the machine is built before the run starts.
    assert ("core/pipeline.py", "Processor.__init__") not in first
    lines = bytecodes.report(first, retired, top=3).splitlines()
    assert lines[0] == (f"{retired} retired instructions; per retired "
                        "instruction:")
    assert any(line.endswith("core/stages/rename.py:RenameIntegrate.tick")
               for line in lines[2:5])
    total = sum(ops for ops, _ in first.values()) / retired
    assert lines[-1].split() == [f"{total:.1f}", lines[-1].split()[1],
                                 "total"]


#: Ceiling per tiny perfbench plan (seed 1, one program) on total bytecodes
#: per retired instruction: the CPython 3.11.7 count plus under 2%.  The
#: counts were 1573.4 (`spec_baseline`) and 1811.0 (`spec_integration`)
#: before the back end's per-instruction work was cut, 1349.8 and 1611.0
#: after.
CEILINGS = {"spec_baseline": 1375.0, "spec_integration": 1640.0}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="bytecode counts differ between CPython "
                           "versions; the ceilings are CPython 3.11 counts")
@pytest.mark.parametrize("workload", sorted(CEILINGS))
def test_bytecodes_per_retired_instruction_stay_under_the_ceiling(workload):
    counts, retired = bytecodes.count_plan(workload, 1, 1, tiny=True)
    total = sum(ops for ops, _ in counts.values()) / retired
    assert total <= CEILINGS[workload], (
        f"{total:.1f} bytecodes per retired instruction on tiny "
        f"{workload}, ceiling {CEILINGS[workload]}")
