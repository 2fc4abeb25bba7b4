"""Record the compile-mix golden file: expected sizes for every catalogue protocol.

    python3 bench/record_golden.py

For each protocol of the generator's catalogue it stores a digest of the
text, the number of control points and, per participant, the number of
states and transitions of the minimised machine.  The compile-mix output
check compares every compiled protocol against this file, so re-record it
only when the generator changes, from a commit whose projection is trusted.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
from chorrev.model import control_points  # noqa: E402
from chorrev.parse import parse_choreography  # noqa: E402
from chorrev.projection import project_system  # noqa: E402


def main() -> None:
    golden = {}
    for slot in range(gen.SLOTS):
        for variant in range(gen.VARIANTS):
            p = gen.generate(slot, variant)
            g = parse_choreography(p.text)
            system = project_system(g)
            golden[p.key] = {
                "sha1": hashlib.sha1(p.text.encode()).hexdigest(),
                "cps": len(control_points(g)),
                "machines": {a: [len(m.states), len(m.transitions)] for a, m in sorted(system.machines.items())},
            }
    path = HERE / "golden" / "compile_mix.json"
    lines = (f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}" for key in sorted(golden))
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} protocols to {path}")


if __name__ == "__main__":
    main()
