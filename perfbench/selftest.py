"""Self-tests of the benchmark's own checks.

Run from the root of a checkout (about 15 seconds)::

    python3 perfbench/selftest.py

* the reference check catches a forged wrong ``stat`` result and a
  directory whose mtime was frozen after a mutation;
* the held-out seed, traced twice on short runs, gives exactly the same
  per-layer counts, and each traced run passes the reference check and
  matches its untraced twin (results, virtual clock, counts, Stats);
* the metric names the runner prints are the ones ``BENCHMARK.json``
  declares.

Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import json
import os
import sys

import run

#: Per-layer metrics that are deterministic for a seed (see README.md).
DETERMINISTIC = ("calls_per_req", "hit_ratio", "flushes_per_1k_req",
                 "_per_mut", "virtual_ns_per_req", "plans_state_mismatch")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def shortened(workload, requests: int):
    """The workload with a small warm-up and traced request count."""
    return type(f"Short{workload.__name__}", (workload,),
                {"warmup": requests // 2, "trace_requests": requests})


def check_forgeries(workloads) -> None:
    inst = workloads.NamespaceChurn(seed=3)
    lane = inst.lanes[0]
    reqs = inst.next_requests(400)
    outcomes = [inst.execute(lane, req) for req in reqs]
    expect(not inst.check(lane, reqs, outcomes),
           "genuine results pass the reference check")

    reqs = inst.next_requests(400)
    outcomes = [inst.execute(lane, req) for req in reqs]
    stat_at = next(i for i, out in enumerate(outcomes) if out[0] == "stat")
    kind, st = outcomes[stat_at]
    outcomes[stat_at] = (kind, st._replace(size=st.size + 1))
    node = next(req[3] for req in reqs if req[3] is not None)
    # Freeze the directory: put its mtime back where this lane last saw it.
    lane.sys.utimes(lane.task, node.path, lane.mtimes[node])
    bad = dict(inst.check(lane, reqs, outcomes))
    expect(stat_at in bad and "stat fields" in bad[stat_at],
           "a forged stat size is caught")
    expect(any("did not advance" in msg for msg in bad.values()),
           "a frozen directory mtime is caught")


def check_counts_repeat(workloads) -> None:
    for name, requests in (("namespace_churn", 600), ("tenant_replay", 60)):
        workload = shortened(workloads.WORKLOADS[name], requests)
        runs = []
        for _ in range(2):
            reported = []
            results, problems, metrics = run.traced_run(
                workload, run.HELD_OUT_SEED, reported.append,
                lambda line: None)
            failed = sum(r.failed for pair in results.values() for r in pair)
            expect(not problems and not reported and failed == 0,
                   f"{name}: traced run passes the reference check and "
                   f"matches its untraced twin")
            runs.append({k: v for k, (v, _unit) in metrics.items()
                         if any(s in k for s in DETERMINISTIC)})
        expect(runs[0] == runs[1],
               f"{name}: {len(runs[0])} per-layer counts repeat exactly")


def check_names() -> None:
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        declared = json.load(fh)
    names = [m["name"] for m in declared["end_to_end"]]
    expect(names == [name for name, _unit in run.end_to_end_metrics()],
           "end-to-end metric names match BENCHMARK.json")
    names = [m["name"] for m in declared["per_layer"]]
    expect(names == [name for name, _unit in run.per_layer_metrics()],
           "per-layer metric names match BENCHMARK.json")


def main() -> int:
    """Run every self-test; exit non-zero on the first failure."""
    run.use_checkout_sources()
    import workloads
    check_names()
    check_forgeries(workloads)
    check_counts_repeat(workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
