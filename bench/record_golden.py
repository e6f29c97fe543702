"""Record the digest corpus the benchmark checks on its default seed.

Usage (from the repository root): python3 bench/record_golden.py

Runs each workload's default-seed job list once, checks every output as
the benchmark does, and writes ``bench/golden.json``.  Re-record only when
a change is meant to alter envelopes; a speed-up must reproduce them.
"""

import json
import sys

import jobgen
import run


def main() -> int:
    runner = run.Runner(run.ROOT, None)
    corpus = {}
    try:
        for workload in jobgen.WORKLOADS:
            results = runner.run_pass(jobgen.generate(workload, run.DEFAULT_SEED), False)
            for r in results:
                for problem in r["problems"]:
                    print(f"{workload}: {r['job']['name']}: {problem}", file=sys.stderr)
            if any(r["problems"] for r in results):
                return 1
            corpus[workload] = {" ".join(r["job"]["argv"]): r["digest"] for r in results}
    finally:
        runner.close()
    with open(run.BENCH / "golden.json", "w") as fh:
        json.dump({"seed": run.DEFAULT_SEED, "workloads": corpus}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
