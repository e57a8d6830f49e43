"""Write tests/corpus/golden.json, the outputs tier-1 holds the code to.

For every instance of acceptance criteria 1 and 8, and of the grid of 4 to 8
agents over 3, 5 or 7 goods, it records alg's allocation
and whole trace and the allocation of each P_GRID optimum, as bitmasks; for
the seeded tables of helpers.axiom_tables it records check_axioms' report and
witness.  The tests compare allocations, traces and reports exactly and the
welfare estimates to 1e-12 relative.  Regenerate the file only for a change
meant to alter outputs, and name the records that changed, and why.

    python tests/make_golden.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pmean.allocator import alg  # noqa: E402
from pmean.oracle import p_opt_grid  # noqa: E402
from pmean.valuations import ExplicitTable, check_axioms  # noqa: E402

from helpers import GOLDEN, alg_record, axiom_record, axiom_tables, instance_key  # noqa: E402
from test_acceptance import P_GRID, _many_agent_instances, _phase_two_instances, _suite_instances  # noqa: E402


def main():
    ps = [p for _, p in P_GRID]
    sections = {
        name: {
            instance_key(*cell): alg_record(*alg(inst), p_opt_grid(inst, ps))
            for *cell, inst in grid
        }
        for name, grid in (
            ("criterion_1", _suite_instances()),
            ("criterion_8", _phase_two_instances()),
            ("many_agents", _many_agent_instances()),
        )
    }
    sections["axiom_tables"] = {
        str(seed): axiom_record(kind, m, check_axioms(ExplicitTable(tuple(map(float, table)))))
        for seed, kind, m, table in axiom_tables()
    }
    # one record per line, so a diff names the records that changed
    GOLDEN.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(name)}: {{\n"
            + ",\n".join(f"{json.dumps(key)}: {json.dumps(record)}" for key, record in records.items())
            + "\n}"
            for name, records in sections.items()
        )
        + "\n}\n"
    )


if __name__ == "__main__":
    main()
