"""Record refs.json: the stdout sha256 and operation count of every call any
workload can generate, from the rtfinite in src/.

    PYTHONPATH=src python perfbench/record_refs.py

The references pin the CLI output of the commit the benchmark was written
against.  Re-record only when an output change is intended.
"""

import json
import sys

import workloads
from replay import replay


def main() -> int:
    refs = {}
    for name in workloads.WORKLOADS:
        calls = workloads.candidates(name)
        result, _ = replay(calls)
        for call in result["calls"]:
            if call["exit"] != 0:
                print(f"{workloads.key(call['argv'])}: exit {call['exit']}", file=sys.stderr)
                return 1
            refs[workloads.key(call["argv"])] = {
                "sha256": workloads.sha256(call["stdout"].encode()),
                "ops": workloads.count_ops(call["argv"], call["stdout"]),
            }
        print(f"{name}: {len(calls)} calls in {result['wall_s']:.1f} s", file=sys.stderr)
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
