"""Self-test of the benchmark itself: does it measure what it claims?

    python3 perfbench/selftest.py

For every workload it checks that
  * a short untraced run answers every op as expected (failed_ratio 0),
  * the same run with every third expected answer made wrong reports
    failures, so the answer oracle is live,
  * a short traced run emits exactly the per-layer metrics that
    BENCHMARK.json declares, and an untraced run exactly its end-to-end
    metrics.
It prints one line per check and exits non-zero if any check fails.

It then runs assoc-mixed with its policy writes on the archetype roles
that the checks use, and reports how many writes the stale compiled-grant
race in ``fedsec.rbac`` made fail (see ``AssocMixed``). That line reports
a known defect of the program, not of the benchmark, and does not change
the exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import BenchmarkError, placement, run  # noqa: E402
from workloads import WORKLOADS, AssocMixed  # noqa: E402

SECONDS = 2.0
SEED = 7
# Long enough for a few dozen shared-role writes.
RACE_SECONDS = 15.0


class SharedRoleWrites(AssocMixed):
    shared_write_roles = True


def main():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    cpus = placement()
    failures = []

    def check(label, passed, detail):
        print(f"{'PASS' if passed else 'FAIL'} {label}: {detail}", flush=True)
        if not passed:
            failures.append(label)

    for name in WORKLOADS:
        try:
            _, clean = run(name, SEED, SECONDS, 0, cpus, setups=1)
            check(f"{name} answers", clean["correct"] and clean["failed"] == 0,
                  f"{clean['failed']} of {clean['attempted']} measured ops failed, "
                  f"correct={clean['correct']}")
            check(f"{name} end-to-end metrics", set(clean["metrics"]) == end_to_end,
                  f"emitted {sorted(clean['metrics'])}")
            _, wrong = run(name, SEED, SECONDS, 0, cpus, corrupt_every=3, setups=1)
            check(f"{name} oracle detects a wrong expected answer",
                  not wrong["correct"] and wrong["failed"] > 0,
                  f"{wrong['failed']} of {wrong['attempted']} ops failed")
            _, traced = run(name, SEED, SECONDS, 1, cpus, setups=1)
            missing = per_layer - set(traced["metrics"])
            extra = set(traced["metrics"]) - per_layer
            check(f"{name} traced metrics", not missing and not extra,
                  f"missing {sorted(missing)}, undeclared {sorted(extra)}")
        except BenchmarkError as exc:
            check(f"{name} runs", False, str(exc))
    try:
        _, race = run(AssocMixed.name, SEED, RACE_SECONDS, 0, cpus, setups=1,
                      workload_cls=SharedRoleWrites)
        writes = race["attempted"] * dict(AssocMixed.MIX)["write"] // 100
        print(f"{'KNOWN DEFECT' if race['failed'] else 'NOT SEEN'} stale compiled grants: "
              f"{race['failed']} of about {writes} writes to shared roles answered wrongly")
    except BenchmarkError as exc:
        print(f"shared-role writes did not run: {exc}")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
