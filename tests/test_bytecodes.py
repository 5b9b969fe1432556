"""``benchmarks/bytecodes.py``, the per-function bytecode counter, on a tiny
perfbench plan: it counts the simulator's hot functions, and its counts
repeat exactly."""

import importlib.util
from pathlib import Path

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
