"""Benchmark entry point: one seeded workload, three kernel profiles.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lookup_zipf --seed 1 \
        --seconds 20 --trace 0

The load is one closed-loop client in one process: no threads, no pool,
no think time; the next request is sent when the previous one returns.
All three default kernels (``baseline``, ``optimized``,
``optimized-lazy``) execute the same seeded request stream, a chunk at a
time in rotating order, and every outcome is graded against the
workload's reference model and against the other profiles.

``--trace 0`` times the stream for ``--seconds`` seconds and reports the
end-to-end metrics.  Their timings count only chunks run while a
host-speed probe shows the CPU quiet, are scaled to a reference host
speed, and leave collector pauses to ``ops_per_s`` as the run's average
share (README.md, "Timing on a shared host").  ``--trace 1`` runs a
fixed number of requests twice, untraced and then traced, checks that
both produced the same results, virtual clock and counts, and reports
the per-layer metrics.  Every
metric is printed as ``metric <name> <value> <unit>``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

from model import PROFILES, comparable, tree_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The seed workloads are tuned on, and the seed a claimed gain must
#: also hold on (see README.md, "Seeds").
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: Full set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Passes of ``build_loop_trace`` in the known-defect probe.
PROBE_PASSES = 10

#: Loop iterations of the host-speed probe (about 0.3 ms).
HOST_PROBE_ITERATIONS = 3000
#: A chunk is timed on a quiet host when the probes on both sides of it
#: are within this factor of the run's fast probes (its 5th percentile).
HOST_SLACK = 1.2
#: Share of each lane's chunks kept at least, fastest probes first.
MIN_KEPT_SHARE = 0.2
#: Host probe time the timing metrics are scaled to: about the tuning
#: host's quiet state (2-vCPU shared VM, Python 3.11).
HOST_REFERENCE_NS = 300_000

#: Per-layer metric templates: (name, unit); every one is reported once
#: per profile as ``<name>.<profile>``.
LAYER_METRICS = (
    ("vfs.syscalls.calls_per_req", "calls/req"),
    ("vfs.syscalls.self_us_per_req", "us/req"),
    ("vfs.walk.calls_per_req", "calls/req"),
    ("vfs.walk.self_us_per_req", "us/req"),
    ("core.fastpath.calls_per_req", "calls/req"),
    ("core.fastpath.self_us_per_req", "us/req"),
    ("core.fastpath.hit_ratio", "ratio"),
    ("core.fastpath.pcc_hit_ratio", "ratio"),
    ("core.resmemo.calls_per_req", "calls/req"),
    ("core.resmemo.self_us_per_req", "us/req"),
    ("core.resmemo.hit_ratio", "ratio"),
    ("core.resmemo.flushes_per_1k_req", "count/1k_req"),
    ("core.coherence.calls_per_req", "calls/req"),
    ("core.coherence.self_us_per_req", "us/req"),
    ("core.coherence.inval_dentry_per_mut", "count/mutation"),
    ("core.coherence.lazy_evict_per_mut", "count/mutation"),
    ("vfs.dcache.calls_per_req", "calls/req"),
    ("vfs.dcache.self_us_per_req", "us/req"),
    ("vfs.dcache.hit_ratio", "ratio"),
    ("fs.simext.calls_per_req", "calls/req"),
    ("fs.simext.self_us_per_req", "us/req"),
    ("sim.costs.calls_per_req", "calls/req"),
    ("sim.costs.self_us_per_req", "us/req"),
    ("sim.costs.virtual_ns_per_req", "ns/req"),
    ("workloads.traces.calls_per_req", "calls/req"),
    ("workloads.traces.self_us_per_req", "us/req"),
    ("workloads.compile.ms", "ms"),
    ("host.gc.collections_per_1k_req", "count/1k_req"),
    ("host.gc.pause_ms_per_1k_req", "ms/1k_req"),
    ("trace.overhead_pct", "%"),
    ("replay.plans_state_mismatch", "count"),
)


def use_checkout_sources() -> None:
    """Import the simulator from this checkout's ``src/`` and nowhere
    else; exit non-zero when it is missing."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the simulator from {src}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: repro imported from {repro.__file__}, "
                 f"not from {src}")


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def host_probe() -> int:
    """Wall ns of a fixed pure-Python loop that uses no simulator code,
    the yardstick of host speed (see :class:`Host`)."""
    clock = time.perf_counter_ns
    table = {}
    t0 = clock()
    for i in range(HOST_PROBE_ITERATIONS):
        table[i & 255] = table.get((i * 7) & 255, 0) + 1
    return clock() - t0


class Host:
    """Host-speed probing, and steering the process to a quiet CPU.

    On the tuning host each vCPU flips between a quiet and a contended
    state (about 1.7x slower) independently of the other, many times a
    second.  Before each chunk the runner probes; when the probe is more
    than :data:`HOST_SLACK` above the fastest seen so far, it probes every
    CPU the process may use and moves to the fastest.
    """

    def __init__(self):
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_setaffinity") else [])
        self.best = None

    def quiet_probe(self) -> int:
        """Probe, first moving to the quietest CPU if this one is slow."""
        probe = host_probe()
        if self.best is None or probe < self.best:
            self.best = probe
        if probe > HOST_SLACK * self.best and len(self.cpus) > 1:
            trials = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                trials.append((host_probe(), cpu))
            probe, cpu = min(trials)
            os.sched_setaffinity(0, {cpu})
            self.best = min(self.best, probe)
        return probe

    def release(self) -> None:
        """Let the process run on every CPU it started with again."""
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.cpus)


class GcClock:
    """Wall ns the cyclic collector has spent, read via ``gc.callbacks``."""

    def __init__(self):
        self.ns = 0
        self._t0 = 0

    def __call__(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter_ns()
        else:
            self.ns += time.perf_counter_ns() - self._t0


GC_CLOCK = GcClock()


class LaneResult:
    """What one profile did in one phase."""

    def __init__(self):
        self.latencies_ns: list = []
        #: ``(host probe ns, first latency index, requests, syscalls,
        #: busy ns, GC pause ns)`` per chunk, in run order.  Latencies
        #: and busy time leave out collector pauses.
        self.chunks: list = []
        self.ops = 0
        self.busy_ns = 0
        self.failed = 0
        self.mutations = 0
        self.virtual_ns = 0
        self.stats_delta: dict = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self.digest = hashlib.sha256()

    @property
    def requests(self) -> int:
        return len(self.latencies_ns)


def run_phase(inst, *, seconds=None, requests=None, tracer=None,
              report=None):
    """Drive ``inst`` for ``seconds`` of wall time or ``requests``
    requests per lane; returns ``{profile: LaneResult}``.

    Only request execution is timed.  Grading, the cross-profile
    comparison and the directory-mtime stats happen between chunks,
    outside the per-request timer and outside any trace span.  Each
    chunk is bracketed by host probes (:class:`Host`), and collector
    pauses that :data:`GC_CLOCK` sees are taken out of request times.
    """
    host = Host()
    try:
        return _run_phase(inst, host, seconds, requests, tracer, report)
    finally:
        host.release()


def _run_phase(inst, host, seconds, requests, tracer, report):
    results = {lane.profile: LaneResult() for lane in inst.lanes}
    clock = time.perf_counter_ns
    gc_clock = GC_CLOCK
    execute = inst.execute
    start = time.perf_counter()
    done = 0
    rnd = 0
    while True:
        n = inst.chunk if requests is None else min(inst.chunk,
                                                    requests - done)
        if n <= 0:
            break
        reqs = inst.next_requests(n)
        first = None
        k = rnd % len(inst.lanes)
        for lane in inst.lanes[k:] + inst.lanes[:k]:
            res = results[lane.profile]
            kernel = lane.kernel
            outcomes = []
            lats = res.latencies_ns
            if tracer is not None:
                stats0 = kernel.stats.snapshot()
                memo = kernel.memo
                hits0, misses0 = ((memo.hits, memo.misses)
                                  if memo is not None else (0, 0))
                tracer.profile = lane.profile
                tracer.active = True
            vt0 = kernel.now_ns
            probe = host.quiet_probe()
            gc0 = gc_clock.ns
            for req in reqs:
                g0 = gc_clock.ns
                t0 = clock()
                try:
                    out = execute(lane, req)
                except Exception as exc:  # graded as a failure below
                    out = ("exc", f"{type(exc).__name__}: {exc}")
                lats.append(clock() - t0 - (gc_clock.ns - g0))
                outcomes.append(out)
            gc_ns = gc_clock.ns - gc0
            probe = max(probe, host_probe())
            res.virtual_ns += kernel.now_ns - vt0
            if tracer is not None:
                tracer.active = False
                for name, value in kernel.stats.snapshot().items():
                    delta = value - stats0.get(name, 0)
                    if delta:
                        res.stats_delta[name] = (
                            res.stats_delta.get(name, 0) + delta)
                if memo is not None:
                    res.memo_hits += memo.hits - hits0
                    res.memo_misses += memo.misses - misses0
            busy = sum(lats[-n:])
            ops = sum(inst.ops(lane, req) for req in reqs)
            res.chunks.append((probe, len(lats) - n, n, ops, busy, gc_ns))
            res.busy_ns += busy
            res.ops += ops
            res.mutations += sum(1 for req in reqs
                                 if inst.mutated_dir(lane, req) is not None)
            bad = dict(inst.check(lane, reqs, outcomes))
            canon = [comparable(out) for out in outcomes]
            res.digest.update(repr(canon).encode())
            if first is None:
                first = (lane.profile, canon)
            else:
                for i, (mine, theirs) in enumerate(zip(canon, first[1])):
                    if mine != theirs and i not in bad:
                        bad[i] = (f"disagrees with {first[0]}: {mine!r} "
                                  f"vs {theirs!r}")
            res.failed += len(bad)
            if report is not None:
                for i, msg in sorted(bad.items()):
                    report(f"{lane.profile}: request {reqs[i][:2]!r}: {msg}")
        done += n
        rnd += 1
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return results


def measured_phase(inst, **kwargs):
    """:func:`run_phase` with the set-up heap frozen out of the collector.

    GC stays enabled while timing, because users pay for it.  The three
    kernels share one heap, though, so a full collection would scan all
    three namespaces and charge that to whichever lane triggered it.
    Collecting once and then freezing what set-up left means collections
    only scan objects made while timing.
    """
    gc.collect()
    gc.freeze()
    gc.callbacks.append(GC_CLOCK)
    try:
        return run_phase(inst, **kwargs)
    finally:
        gc.callbacks.remove(GC_CLOCK)
        gc.unfreeze()


def warm(inst, requests: int, report) -> None:
    """Run ``requests`` untimed requests per lane, graded as usual."""
    if requests:
        results = run_phase(inst, requests=requests, report=report)
        inst.failures += [f"{p}: {r.failed} warm-up requests failed"
                          for p, r in results.items() if r.failed]


def set_up(workload, seed: int, report):
    """Build the workload on all three profiles and warm every lane."""
    inst = workload(seed)
    warm(inst, inst.warmup, report)
    return inst


def kernel_state(lane) -> tuple:
    """Deterministic simulator state a traced run must reproduce."""
    kernel = lane.kernel
    memo = kernel.memo
    return (kernel.now_ns, sorted(kernel.costs.counts.items()),
            sorted(kernel.stats.snapshot().items()),
            None if memo is None else (memo.hits, memo.misses, memo.flushes))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile; returns (value, samples beyond it)."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def quiet_chunks(results) -> dict:
    """The chunks of each lane timed on a quiet host.

    A chunk is kept when the slower of its two host probes is within
    :data:`HOST_SLACK` of the run's fast probes; each lane keeps at least
    :data:`MIN_KEPT_SHARE` of its chunks, those with the fastest probes.
    """
    probes = sorted(c[0] for res in results.values() for c in res.chunks)
    quiet = HOST_SLACK * probes[len(probes) // 20]
    kept = {}
    for profile, res in results.items():
        own = sorted(c[0] for c in res.chunks)
        floor = own[max(1, math.ceil(MIN_KEPT_SHARE * len(own))) - 1]
        limit = max(quiet, floor)
        kept[profile] = [c for c in res.chunks if c[0] <= limit]
    return kept


def end_to_end(results, setup_s: float, emit) -> dict:
    """The ``--trace 0`` metrics of a timed phase.

    Only chunks timed on a quiet host count (:func:`quiet_chunks`).  The
    three kernels share one heap, so which lane and which request a
    collection lands in is chance, and how long it takes depends on all
    three kernels.  Request latencies therefore leave collector pauses
    out, and ``ops_per_s`` charges every lane the run's average
    collector share on top of its collector-free time.
    """
    metrics = {}
    kept = quiet_chunks(results)
    every = [c for res in results.values() for c in res.chunks]
    gc_ns = sum(c[5] for c in every)
    gc_share = gc_ns / sum(c[4] for c in every)
    probes = sorted(c[0] for c in every)
    emit(f"info host probe {probes[len(probes) // 20] / 1e3:.1f} us on a "
         f"quiet host, {probes[len(probes) // 2] / 1e3:.1f} us median")
    emit(f"info collector pauses {gc_ns / 1e6:.1f} ms, charged to every "
         f"lane as {100 * gc_share:.2f}% of its collector-free time")
    level = statistics.median(c[0] for chunks in kept.values()
                              for c in chunks)
    scale = level / HOST_REFERENCE_NS
    emit(f"info timing scaled to the reference host speed: kept chunks' "
         f"probe median {level / 1e3:.1f} us, reference "
         f"{HOST_REFERENCE_NS / 1e3:.1f} us, factor {scale:.4f}")
    for profile, res in results.items():
        chunks = kept[profile]
        lats = sorted(lat for c in chunks
                      for lat in res.latencies_ns[c[1]:c[1] + c[2]])
        ops = sum(c[3] for c in chunks)
        busy_ns = sum(c[4] for c in chunks) * (1 + gc_share)
        p50, _ = percentile(lats, 0.50)
        p99, beyond = percentile(lats, 0.99)
        emit(f"info {profile}: {res.requests} requests run, {len(lats)} "
             f"timed on a quiet host ({len(chunks)} of {len(res.chunks)} "
             f"chunks), {beyond} beyond p99, {ops} syscalls, "
             f"failed_share {res.failed / max(1, res.requests)}")
        metrics[f"ops_per_s.{profile}"] = (
            ops / (busy_ns / 1e9) * scale, "ops/s")
        metrics[f"req_us_p50.{profile}"] = (p50 / 1e3 / scale, "us")
        metrics[f"req_us_p99.{profile}"] = (p99 / 1e3 / scale, "us")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return {name: metrics[name] for name, _unit in end_to_end_metrics()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(inst, tracer, traced, untraced, mismatches) -> dict:
    values = {}
    for lane in inst.lanes:
        p = lane.profile
        res = traced[p]
        reqs = res.requests
        stats = res.stats_delta
        for layer in ("vfs.syscalls", "vfs.walk", "core.fastpath",
                      "core.resmemo", "core.coherence", "vfs.dcache",
                      "fs.simext", "sim.costs", "workloads.traces"):
            values[f"{layer}.calls_per_req.{p}"] = _ratio(
                tracer.calls[(p, layer)], reqs)
            values[f"{layer}.self_us_per_req.{p}"] = _ratio(
                tracer.self_ns[(p, layer)] / 1e3, reqs)
        values[f"core.fastpath.hit_ratio.{p}"] = _ratio(
            stats.get("fastpath_hit", 0),
            stats.get("fastpath_hit", 0) + stats.get("fastpath_miss", 0))
        values[f"core.fastpath.pcc_hit_ratio.{p}"] = _ratio(
            stats.get("pcc_hit", 0),
            stats.get("pcc_hit", 0) + stats.get("pcc_miss", 0)
            + stats.get("pcc_stale", 0))
        values[f"core.resmemo.hit_ratio.{p}"] = _ratio(
            res.memo_hits, res.memo_hits + res.memo_misses)
        values[f"core.resmemo.flushes_per_1k_req.{p}"] = _ratio(
            1000 * tracer.memo_flushes[p], reqs)
        values[f"core.coherence.inval_dentry_per_mut.{p}"] = _ratio(
            stats.get("inval_dentry", 0), res.mutations)
        values[f"core.coherence.lazy_evict_per_mut.{p}"] = _ratio(
            stats.get("lazy_evict", 0), res.mutations)
        values[f"vfs.dcache.hit_ratio.{p}"] = _ratio(
            stats.get("dcache_hit", 0),
            stats.get("dcache_hit", 0) + stats.get("dcache_miss", 0))
        values[f"sim.costs.virtual_ns_per_req.{p}"] = _ratio(
            res.virtual_ns, reqs)
        values[f"workloads.compile.ms.{p}"] = lane.compile_s * 1e3
        values[f"host.gc.collections_per_1k_req.{p}"] = _ratio(
            1000 * tracer.gc_collections[p], reqs)
        values[f"host.gc.pause_ms_per_1k_req.{p}"] = _ratio(
            tracer.gc_pause_ns[p] / 1e3, reqs)
        base = untraced[p]
        values[f"trace.overhead_pct.{p}"] = 100.0 * (
            _ratio(res.busy_ns, res.ops) / _ratio(base.busy_ns, base.ops)
            - 1.0)
        values[f"replay.plans_state_mismatch.{p}"] = mismatches[p]
    return {name: (values[name], unit) for name, unit in per_layer_metrics()}


def end_to_end_metrics() -> list:
    """``(name, unit)`` of every ``--trace 0`` metric, in print order."""
    names = []
    for p in PROFILES:
        names += [(f"ops_per_s.{p}", "ops/s"), (f"req_us_p50.{p}", "us"),
                  (f"req_us_p99.{p}", "us")]
    return names + [("setup_s", "s"), ("peak_rss_mb", "MB")]


def per_layer_metrics() -> list:
    """``(name, unit)`` of every ``--trace 1`` metric, in print order."""
    return [(f"{name}.{p}", unit) for name, unit in LAYER_METRICS
            for p in PROFILES]


# ---------------------------------------------------------------------------
# known-defect probe
# ---------------------------------------------------------------------------

def plans_state_probe(profile: str) -> int:
    """1 if whole-pass charge plans leave different kernel state than
    plain execution after :data:`PROBE_PASSES` passes of the loop trace.

    Untimed.  Both kernels are fresh; the comparison is the reference
    check's tree digest of ``/`` including mtimes (same profile, so the
    clocks are comparable).
    """
    from repro import make_kernel
    from repro.workloads.compile import build_loop_trace, compile_trace
    from repro.workloads.traces import replay_compiled
    program = compile_trace(build_loop_trace())
    digests = []
    for plans in (True, False):
        kernel = make_kernel(profile)
        task = kernel.spawn_task(uid=0, gid=0)
        for _ in range(PROBE_PASSES):
            replay_compiled(kernel, task, program, plans=plans)
        digests.append(tree_digest(kernel, task, "/", with_mtime=True))
    return int(digests[0] != digests[1])


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def timed_run(workload, seed: int, seconds: float, report, emit):
    """``--trace 0``: repeated set-up, then the timed closed loop."""
    setups = []
    for _ in range(SETUP_REPEATS):
        inst = None
        gc.collect()
        t0 = time.perf_counter()
        inst = set_up(workload, seed, report)
        setups.append(time.perf_counter() - t0)
    emit(f"info setup_s samples {setups}")
    warm(inst, inst.settle, report)
    results = measured_phase(inst, seconds=seconds, report=report)
    problems = list(inst.failures)
    for lane in inst.lanes:
        problems += inst.final_check(lane)
    metrics = end_to_end(results, statistics.median(setups), emit)
    return results, problems, metrics


def traced_run(workload, seed: int, report, emit):
    """``--trace 1``: untraced then traced fixed-size phases, integrity
    comparison, per-layer metrics and the known-defect probe."""
    from tracing import Tracer
    inst = set_up(workload, seed, report)
    warm(inst, inst.settle, report)
    untraced = measured_phase(inst, requests=inst.trace_requests,
                              report=report)
    states = {lane.profile: kernel_state(lane) for lane in inst.lanes}
    problems = list(inst.failures)
    for lane in inst.lanes:
        problems += inst.final_check(lane)
    inst = None
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        inst = set_up(workload, seed, report)
        warm(inst, inst.settle, report)
        traced = measured_phase(inst, requests=inst.trace_requests,
                                tracer=tracer, report=report)
    finally:
        tracer.uninstall()
    problems += inst.failures
    for lane in inst.lanes:
        p = lane.profile
        if kernel_state(lane) != states[p]:
            problems.append(f"{p}: traced run left a different virtual "
                            f"clock, counts or stats than the untraced run")
        problems += inst.final_check(lane)
        if traced[p].digest.digest() != untraced[p].digest.digest():
            problems.append(f"{p}: traced run produced different request "
                            f"results than the untraced run")
    for (p, layer, op), n in sorted(tracer.op_calls.items()):
        if layer == "vfs.syscalls":
            emit(f"info {p}: vfs.syscalls.{op} "
                 f"{n / traced[p].requests} calls/req")
    mismatches = {lane.profile: plans_state_probe(lane.profile)
                  for lane in inst.lanes}
    metrics = per_layer(inst, tracer, traced, untraced, mismatches)
    results = {p: (untraced[p], traced[p]) for p in traced}
    return results, problems, metrics


def main(argv=None) -> int:
    """Parse arguments, run one workload, print metrics and the result."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    reported = 0

    def report(msg: str) -> None:
        nonlocal reported
        if reported < 20:
            print(f"FAIL {msg}", file=sys.stderr)
        reported += 1

    def emit(line: str) -> None:
        print(line, flush=True)

    if args.trace:
        results, problems, metrics = traced_run(workload, args.seed,
                                                report, emit)
        lanes = [r for pair in results.values() for r in pair]
    else:
        results, problems, metrics = timed_run(workload, args.seed,
                                               args.seconds, report, emit)
        lanes = list(results.values())
    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)
    attempted = sum(r.requests for r in lanes)
    failed = sum(r.failed for r in lanes)
    emit(f"info failed_share {failed / max(1, attempted)} "
         f"({failed} of {attempted} requests)")
    for name, (value, unit) in metrics.items():
        emit(f"metric {name} {value!r} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
