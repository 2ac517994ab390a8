"""Write benchmarks/pins.json: each workload's answers at the current commit.

    python3 benchmarks/pin.py [WORKLOAD ...]

Runs one untraced seed-0 pass per workload and stores, per problem, the
chosen alternative, the tie flag, the scores, the likelihoods and per text
(n_selected, model_atoms, complete), plus the report sha256.  Pins are
meant to be written once and then only compared against: rewrite them
only for a change that is supposed to alter answers, and say why.
"""

from __future__ import annotations

import json
import sys

from run import HERE, OUT, require_checkout, run_worker


def main(argv: list[str]) -> int:
    require_checkout()
    import workloads

    path = HERE / "pins.json"
    pins = json.loads(path.read_text("utf-8")) if path.exists() else {}
    for name in argv or sorted(workloads.WORKLOADS):
        inputs = workloads.prepare(name, OUT / "inputs")
        result = run_worker(name, inputs, seed=0, traced=False, timeout=600)
        if result["failures"]:
            sys.exit(f"error: {name}: failed problems {result['failures']}")
        pins[name] = {"report_sha256": result["report_sha256"],
                      "answers": result["answers"]}
        print(f"{name}: {len(result['answers'])} answers, "
              f"report sha256 {result['report_sha256']}")
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
