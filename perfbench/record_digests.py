"""Record the sha256 of each command's stdout, for the output gate in perfbench/digests.json.

Usage (from the repository root, at the commit whose output is the reference):

    python3 perfbench/record_digests.py

Covers every command of every workload at the default seed, plus every
orientation word of the seeded enumerate and verify commands. Each output
must pass its own check before its digest is recorded.
"""

from __future__ import annotations

import hashlib
import json
import sys

import harness
import workloads


def main() -> int:
    harness.require_program()
    cmds = {}
    for name, workload in workloads.WORKLOADS.items():
        for cmd in workloads.commands(name, workloads.DEFAULT_SEED) + workload.universe():
            cmds.setdefault(cmd.key, cmd)
    digests = {}
    for key, cmd in sorted(cmds.items()):
        out = harness.spawn([sys.executable, "-c", harness.CLI_ENTRY, *cmd.args])
        why = harness.failure(cmd, out, {})
        if why:
            print(f"error: subcat {key}: {why}", file=sys.stderr)
            return 1
        digests[key] = hashlib.sha256(out.stdout).hexdigest()
        print(f"{out.wall_s:8.2f} s  subcat {key}", flush=True)
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    harness.DIGESTS.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
