"""Re-record bench/golden.json: the event-log hash and run summary of each
simulation workload.

    python3 bench/record_golden.py

Run it from the repository root only when a change is meant to alter what
a simulation computes, and say why in the change's notes; a change meant
only to make the simulator faster must leave the record as it is.
"""

import json
import sys

import run


def main() -> int:
    run._import_program()
    import workloads
    golden = {}
    for name in workloads.SIMULATIONS:
        inputs = workloads.figure_inputs(name)
        result = workloads.run_figure(inputs)
        golden[name] = run.outcome_of(name, inputs, result)
        print(name, golden[name]["event_log_hash"], flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
