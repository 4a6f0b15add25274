"""Cost model: per-primitive virtual-nanosecond charges.

The algorithms in :mod:`repro.vfs` and :mod:`repro.core` are exact
implementations of the baseline and optimized dcache designs; whenever they
perform a hardware-priced primitive they call :meth:`CostModel.charge`.
The mapping from primitive to nanoseconds is the single calibration point
of the reproduction.

Two presets ship with the library:

* ``CALIBRATED`` — charges tuned so the *baseline* kernel matches the
  paper's §1/§6 reference numbers (a warm ``stat`` costs ~0.3 µs for one
  component and ~1.1 µs for eight; ``readdir`` of a 10 k directory costs
  ~2.9 ms; a non-adjacent disk block costs hundreds of microseconds).
  Everything the *optimized* kernel achieves is then emergent from doing
  fewer/cheaper primitives, exactly as in the paper.
* ``UNIT`` — every primitive costs 1 ns, so tests can assert raw
  operation counts (e.g. "the fastpath does a constant number of hash
  table probes regardless of path depth").

Attribution scopes (:meth:`CostModel.scope`) label charges with the current
phase of a lookup ("init", "perm_check", "hash", ...), which is how the
Figure 3 breakdown and Figure 1 time-fraction experiments are produced.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.sim.clock import Clock

#: Sentinel marking a recorded :meth:`CostModel.charge_ns` event; the
#: other event tuples carry a scope label (or ``None``) in that slot.
_RAW_NS = object()

#: Charges (virtual ns) calibrated against the paper's baseline numbers.
#: Per-byte entries are suffixed ``_per_byte``; everything else is per call.
CALIBRATED: Dict[str, float] = {
    # --- generic syscall machinery -------------------------------------
    "syscall_fixed": 130.0,        # entry/exit, arg copy, audit
    "stat_fill": 60.0,             # copying struct stat out
    "open_install_fd": 1150.0,     # file object alloc + fd table install
    "close_fd": 200.0,
    "read_write_base": 250.0,      # per read()/write() call overhead
    "read_write_base_per_byte": 0.02,
    # --- lookup: shared fixed costs ------------------------------------
    "lookup_init": 60.0,           # nameidata setup, fetching root/cwd
    "lookup_final": 46.0,          # mnt checks, final audit
    # --- baseline component-at-a-time walk ------------------------------
    "component_hash": 5.0,         # hash one component (fixed part)
    "component_hash_per_byte": 1.6,
    "ht_probe": 30.0,              # primary hash table bucket fetch
    "chain_compare": 12.0,         # compare one chain entry (parent+name)
    "perm_check_dac": 30.0,        # inode mode-bit check
    "perm_check_lsm": 18.0,        # LSM hook dispatch (when an LSM is set)
    "read_barrier": 8.0,           # RCU-walk memory barrier per component
    "dentry_lock": 55.0,           # ref-walk per-dentry lock (slow slowpath)
    "seqlock_read": 10.0,
    "symlink_resolve": 90.0,       # reading the link body, restarting walk
    "mountpoint_cross": 45.0,
    # --- optimized fastpath ----------------------------------------------
    "fastpath_init": 30.0,         # lighter setup than a full nameidata
    "sig_hash": 50.0,              # signature hashing: per-component part
    "sig_hash_per_byte": 4.0,      # multilinear hash per path byte
    "sig_hash_prf": 120.0,         # PRF (AES/BLAKE-class) per component
    "sig_hash_prf_per_byte": 6.0,  # §3.3: too slow to win at few comps
    "dlht_probe": 26.0,            # direct-lookup hash table bucket fetch
    "sig_compare": 8.0,            # 240-bit signature compare
    "pcc_probe": 16.0,             # per-cred prefix check cache lookup
    "pcc_insert": 26.0,
    "dlht_insert": 34.0,
    "mount_flag_check": 8.0,       # per-dentry mount pointer check
    "dotdot_extra_lookup": 170.0,  # extra fastpath lookup per ".." (§4.2)
    # --- mutation-side invalidation (the paper's deliberate trade-off) ---
    "inval_per_dentry": 32.0,      # recursive seq bump + DLHT eviction
    "inval_counter_bump": 20.0,    # global invalidation counter
    # --- lazy (epoch-based) invalidation: optimized-lazy profile only ---
    # One atomic increment of the global epoch plus one stamp store on
    # the mutated dentry: two cache lines, no tree walk.  Priced like
    # the eager counter bump plus one dirtied line.
    "epoch_bump": 28.0,
    # Touch-time revalidation, charged once per chain node examined: a
    # parent-pointer load plus an epoch compare (one likely-shared cache
    # line per hop, cheaper than a hashed dcache probe).  The O(1)
    # accept — one predicted-branch integer compare against the global
    # epoch, on a cache line the probe already loaded — is not charged.
    "lazy_validate": 12.0,
    "rename_fixed": 2500.0,        # rename_lock + dentry moves (baseline)
    "chmod_fixed": 300.0,          # setattr dcache work (baseline)
    # --- dcache maintenance ----------------------------------------------
    "dentry_alloc": 90.0,
    "dentry_free": 60.0,
    "negative_dentry_alloc": 70.0,
    "lru_touch": 6.0,
    # --- readdir ----------------------------------------------------------
    "readdir_fixed": 1400.0,       # getdents sequence fixed cost
    "fs_readdir_entry": 280.0,     # low-level FS: parse+translate one entry
    "cached_readdir_entry": 73.0,  # emit one entry from the dcache
    # --- low-level FS / disk ----------------------------------------------
    "fs_lookup_base": 500.0,       # calling into the low-level FS
    "fs_dirblock_scan": 160.0,     # scan one directory block for a name
    "fs_create": 9000.0,           # allocate inode + dir entry (in cache)
    "fs_unlink": 3200.0,
    "fs_setattr": 250.0,
    "fs_xattr": 420.0,             # read/write one extended attribute
    "fs_rename": 1200.0,
    "pagecache_hit": 180.0,        # metadata block already in buffer cache
    "disk_seq_block": 12_000.0,    # sequential 4 KB block transfer
    "disk_seek": 480_000.0,        # non-adjacent access penalty (7200 rpm)
    # --- pseudo file systems ----------------------------------------------
    "pseudo_generate": 350.0,      # synthesize a proc-like entry
}

#: Unit preset: every primitive costs exactly 1 ns (for counting tests).
UNIT: Dict[str, float] = {name: 1.0 for name in CALIBRATED}

#: Bound on the process-wide replay-kernel LRU (see
#: :meth:`CostModel.compile_replay`).  Sized from measured distinct
#: charge shapes: 34 per process for the resolution memo on a Zipf
#: lookup run over a 24k-file tree (33 of them on the baseline profile),
#: 5-8 per profile and 16 per process for a 12-tenant compiled-replay
#: fleet, plus one per distinct charge-plan stream.  An evicted kernel
#: keeps working for every holder; a later compile of its shape just
#: pays the ``exec`` again.
_KERNEL_CACHE_MAX = 256

#: shape -> compiled replay kernel, least recently used first.
_KERNELS: "OrderedDict[tuple, Any]" = OrderedDict()

#: Host-side kernel-cache telemetry (``repro-speed --timing``); kept
#: outside :class:`~repro.sim.stats.Stats` so golden counters never move.
_KERNEL_TELEMETRY: Dict[str, int] = {"compiled": 0, "hits": 0,
                                     "evictions": 0}


def kernel_telemetry() -> Dict[str, int]:
    """Copy of the process-wide replay-kernel counters: kernels
    ``compiled``, kernel-cache ``hits`` and LRU ``evictions``."""
    return dict(_KERNEL_TELEMETRY)


def _kernel_for(shape: tuple):
    """The replay kernel for ``shape``, compiled on first use (LRU)."""
    kernels = _KERNELS
    kernel = kernels.get(shape)
    if kernel is None:
        kernel = kernels[shape] = _compile_kernel(shape)
        _KERNEL_TELEMETRY["compiled"] += 1
        if len(kernels) > _KERNEL_CACHE_MAX:
            kernels.popitem(last=False)
            _KERNEL_TELEMETRY["evictions"] += 1
    else:
        kernels.move_to_end(shape)
        _KERNEL_TELEMETRY["hits"] += 1
    return kernel


def _compile_kernel(shape: tuple):
    """exec-compile one charge shape into a straight-line replay kernel.

    The generated ``kernel(clock, bp, bs, counts, extra, args)`` unpacks
    ``args`` into locals and loads every ``bp``/``bs`` value the shape
    touches into a local (0.0 when absent).  Then it runs one fixed
    statement run per row: the same float additions, in the same order,
    as the original charges.  Finally it stores the values back in
    first-use order, so keys a replay creates enter the dicts in the
    order the charges created them.  Every accumulator receives exactly
    the original sequence of adds, so every replay is bit-identical to
    re-running the charges (a created key starts from 0.0, and
    ``0.0 + ns == ns`` for the nonnegative charges the model produces).
    Holding the values in locals keeps the per-row work to three float
    adds instead of two dict updates and one add.
    """
    rows, count_names, stat_names = shape
    params = ([f"n{i}" for i in range(len(rows))]
              + [f"c{i}" for i in range(len(count_names))]
              + [f"d{i}" for i in range(len(stat_names))])
    bp_vars: Dict[str, str] = {}
    bs_vars: Dict[str, str] = {}
    for scope, primitive, _raw in rows:
        if primitive not in bp_vars:
            bp_vars[primitive] = f"p{len(bp_vars)}"
        if scope is not None and scope not in bs_vars:
            bs_vars[scope] = f"q{len(bs_vars)}"
    src = ["def _kernel(clock, bp, bs, counts, extra, args):"]
    app = src.append
    if params:
        app(f" {', '.join(params)}, = args")
    for d, acc in (("bp", bp_vars), ("bs", bs_vars)):
        for key, var in acc.items():
            app(f" try: {var} = {d}[{key!r}]")
            app(f" except KeyError: {var} = 0.0")
    app(" now = clock._now_ns")
    for i, (scope, primitive, raw) in enumerate(rows):
        n = f"n{i}"
        if raw:
            # Raw charge_ns row: route through the clock's monotonicity
            # check like the original charge did.
            app(" clock._now_ns = now")
            app(f" clock.advance({n})")
            app(" now = clock._now_ns")
        else:
            app(f" now = now + {n}")
        var = bp_vars[primitive]
        app(f" {var} = {var} + {n}")
        if scope is not None:
            var = bs_vars[scope]
            app(f" {var} = {var} + {n}")
    app(" clock._now_ns = now")
    for d, acc in (("bp", bp_vars), ("bs", bs_vars)):
        for key, var in acc.items():
            app(f" {d}[{key!r}] = {var}")
    for i, primitive in enumerate(count_names):
        app(f" try: counts[{primitive!r}] += c{i}")
        app(f" except KeyError: counts[{primitive!r}] = c{i}")
    for i, name in enumerate(stat_names):
        app(f" try: extra[{name!r}] += d{i}")
        app(f" except KeyError: extra[{name!r}] = d{i}")
    namespace: Dict[str, object] = {}
    exec("\n".join(src), namespace)  # noqa: S102 - self-generated code
    return namespace["_kernel"]


class _ScopeGuard:
    """Reusable, allocation-free replacement for a contextmanager scope.

    One guard exists per (CostModel, label); entering pushes the label on
    the model's scope stack and exiting pops it, so nesting — including
    re-entering the same label — behaves exactly like the previous
    generator-based implementation at a fraction of the cost.
    """

    __slots__ = ("_stack", "_label")

    def __init__(self, stack: list, label: str):
        self._stack = stack
        self._label = label

    def __enter__(self) -> None:
        self._stack.append(self._label)

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stack.pop()


class PlanRecording:
    """Side-channel for a charge-plan capture run.

    Mirrors the shape the :class:`CostModel` recorder protocol expects
    (see :mod:`repro.core.resmemo`): ``events`` receives every
    ``charge``/``charge_in``/``charge_ns`` tuple, ``lru`` dcache-LRU
    touches, ``pcc`` PCC probe hits, ``deps`` fastpath probe/negativity
    conclusions, ``misses`` primary-table lookup misses.  A capture
    whose ``lru``/``pcc`` lists are non-empty touched resolution-side
    state and is rejected (charge plans cover only fd-table syscalls);
    ``deps``/``misses`` exist only to satisfy the recorder protocol.

    ``boundary``/``fired`` are stamped by the quantized-sweep wrapper in
    ``workloads/traces.py`` when a recorded replay pass crosses a
    lazy-sweep pass boundary: ``boundary`` is the event index where the
    boundary catch-up sweep's charges begin and ``fired`` whether the
    sweeper's deadline had elapsed there.  Whole-pass/whole-drain plan
    captures split their compiled replay at that index so apply can
    emulate the ticker exactly (see ``_program_plan_pass``).
    """

    __slots__ = ("events", "lru", "pcc", "deps", "misses", "boundary",
                 "fired")

    def __init__(self) -> None:
        self.events: list = []
        self.lru: list = []
        self.pcc: list = []
        self.deps: list = []
        self.misses: list = []
        self.boundary = None
        self.fired = None


class ChargePlan:
    """An immutable captured charge vector for one compiled-trace segment.

    ``fn(clock, by_primitive, by_scope, counts, None, args)`` is the
    shared replay kernel for the segment's charge shape and ``args`` its
    exact numbers (see :meth:`CostModel.compile_replay`) —
    applying it is bit-identical to re-running the interpreted charges.
    ``total_ns`` is the exact virtual time the plan advances (the
    left-to-right float fold of its event nanoseconds), used for the
    sweeper-deadline guard.  ``gen``/``rates_version`` snapshot the
    validity epoch the plan was captured under.

    ``capture`` retains the raw ``(events, stat_deltas)`` tuple the plan
    was compiled from, so task-generic segment plans can *confirm* a new
    task against it (the task's first encounter runs interpreted and
    recorded; an identical stream admits the task to the shared plan —
    see ``workloads/traces.py``).

    ``fn2``/``args2``/``q_fired``/``body_ns`` exist only on quantized
    whole-pass / whole-drain plans (``DcacheConfig.lazy_sweep_quantize``):
    ``fn`` then replays the pass *body*, ``fn2`` the boundary catch-up
    sweep's charges (``None`` when the sweep charged nothing), ``q_fired``
    whether the sweeper deadline elapsed at the boundary, and
    ``body_ns`` the body's float-fold total for the boundary-decision
    guard.  Non-quantized plans carry ``q_fired is None`` and
    ``body_ns == total_ns``.
    """

    __slots__ = ("fn", "args", "stat_deltas", "total_ns", "gen",
                 "rates_version", "capture", "fn2", "args2", "q_fired",
                 "body_ns")


class PlanCell:
    """Per-segment capture state machine (see ``workloads/traces.py``).

    Lifecycle: ``execs`` warm executions run interpreted, then two
    recorded executions must produce identical event streams and Stats
    deltas before a :class:`ChargePlan` is compiled (the same
    confirm-on-second-identical-run protocol the resolution memo uses).
    ``retries`` counts rejected/mismatched captures; too many marks the
    cell ``dead`` (permanently interpreted).  ``fail_streak`` counts
    consecutive guard failures at apply time; too many invalidates the
    plan for re-capture.  ``armed_now`` is used by whole-pass program
    plans only: the exact clock value the kernel must be at for the plan
    to apply (any interleaving syscall moves the clock off it).

    ``tasks`` (task-generic segment cells, shared across every program
    with the same segment shape) maps ``id(task) -> task`` for tasks
    whose recorded execution matched the plan's capture — only confirmed
    tasks may apply the shared plan; the strong task refs pin the ids
    against reuse.
    """

    __slots__ = ("execs", "pending", "plan", "dead", "retries",
                 "fail_streak", "armed_now", "tasks")

    def __init__(self) -> None:
        self.execs = 0
        self.pending = None
        self.plan = None
        self.dead = False
        self.retries = 0
        self.fail_streak = 0
        self.armed_now = None
        self.tasks: Dict[int, object] = {}

    def reset(self) -> None:
        """Drop any captured state and restart the capture protocol."""
        self.execs = 0
        self.pending = None
        self.plan = None
        self.fail_streak = 0
        self.armed_now = None
        self.tasks = {}


class ChargePlanRegistry:
    """Per-:class:`CostModel` store of captured charge plans.

    The replay engine (:func:`repro.workloads.traces.replay_compiled`)
    owns the capture/apply protocol; this registry owns the state: one
    :class:`PlanCell` list per compiled program, a generation counter
    bumped by out-of-band bulk invalidations (``chmod``-class memo
    flushes, ``drop_caches``, seq wraparound — every live plan dies on
    a bump), and host-side telemetry surfaced by ``repro-speed
    --timing`` (``compiled``/``applied``/``invalidated``/``fallbacks``
    — like the resolution memo's counters these live outside
    :class:`~repro.sim.stats.Stats` so plans never perturb golden
    counters).

    Snapshots drop the registry: like the resolution memo, a clone
    starts empty and re-captures from its own executions, which is
    bit-identical by the plans-on/off differential invariant.
    """

    #: Interpreted executions of a segment before capture starts.
    WARMUP = 1
    #: Rejected/mismatched captures before a cell goes dead.
    MAX_RETRIES = 3
    #: Consecutive apply-time guard failures before re-capture.
    MAX_FAIL_STREAK = 8
    #: Whole-pass plans re-capture after this many consecutive clock
    #: guard failures (interference means unknown state: re-validate).
    PASS_FAIL_STREAK = 2

    __slots__ = ("gen", "compiled", "applied", "invalidated", "fallbacks",
                 "task_confirms", "patched", "_tables", "_pass_tables",
                 "_shape_tables", "_drain_tables")

    def __init__(self) -> None:
        self.gen = 0
        self.compiled = 0
        self.applied = 0
        self.invalidated = 0
        self.fallbacks = 0
        #: Tasks admitted to a shared task-generic plan after their
        #: recorded run matched the plan's capture.
        self.task_confirms = 0
        #: Plans rebuilt in place from a shape-local fresh capture
        #: (:meth:`patch`) instead of dying through invalidate+recapture.
        self.patched = 0
        #: id(program) -> (program, [PlanCell per segment]).  The
        #: strong program ref pins the id against reuse; the identity
        #: check in :meth:`cells` catches deepcopied tables.  Cell
        #: objects are resolved through ``_shape_tables`` so programs
        #: with equal segment shapes share them.
        self._tables: Dict[int, tuple] = {}
        #: (id(program), id(task)) -> (program, task, PlanCell) for
        #: whole-pass program plans; same pinning/identity discipline.
        self._pass_tables: Dict[tuple, tuple] = {}
        #: segment shape -> PlanCell: the task-generic cells.  A shape
        #: (per-row ``(op, compute_ns)``, see ``PlanSegment.shape``)
        #: fully determines a plannable segment's charge stream, so one
        #: captured plan serves every program/tenant with that shape
        #: (after per-task confirmation recorded in ``PlanCell.tasks``).
        self._shape_tables: Dict[tuple, "PlanCell"] = {}
        #: (seed, ((id(task), id(program)), ...)) -> (pins, PlanCell)
        #: for whole-drain interleaved plans; ``pins`` holds strong
        #: (task, program) refs against id reuse.
        self._drain_tables: Dict[tuple, tuple] = {}

    def bump_gen(self) -> None:
        """Invalidate every live plan (out-of-band world change)."""
        self.gen += 1

    def cells(self, program, segments) -> list:
        """The per-segment cell list for ``program`` (created lazily).

        Each entry is the *shared* task-generic cell for that segment's
        shape — two programs whose segments have equal shapes resolve to
        the same :class:`PlanCell` objects, which is what lets N tenants
        replaying the same program shape capture one plan between them.
        Segments without a shape (older duck-typed programs) fall back
        to a private cell.
        """
        key = id(program)
        entry = self._tables.get(key)
        if entry is not None and entry[0] is program:
            return entry[1]
        shape_tables = self._shape_tables
        cells: list = []
        for seg in segments:
            shape = getattr(seg, "shape", None)
            if shape:
                cell = shape_tables.get(shape)
                if cell is None:
                    cell = shape_tables[shape] = PlanCell()
            else:
                cell = PlanCell()
            cells.append(cell)
        self._tables[key] = (program, cells)
        return cells

    def drain_cell(self, streams, seed: int) -> "PlanCell":
        """The whole-drain plan cell for an interleaved stream set.

        Keyed by the scheduler seed and the exact ``(task, program)``
        identity sequence: the drain's charge stream is a deterministic
        function of those plus kernel state, which the armed-clock guard
        covers.
        """
        key = (seed, tuple((id(task), id(prog)) for task, prog in streams))
        entry = self._drain_tables.get(key)
        if entry is not None:
            pins, cell = entry
            if all(pin_t is task and pin_p is prog
                   for (pin_t, pin_p), (task, prog) in zip(pins, streams)):
                return cell
        cell = PlanCell()
        self._drain_tables[key] = (tuple((t, p) for t, p in streams), cell)
        return cell

    def pass_cell(self, program, task) -> "PlanCell":
        """The whole-pass plan cell for ``(program, task)`` (lazy)."""
        key = (id(program), id(task))
        entry = self._pass_tables.get(key)
        if entry is not None and entry[0] is program and entry[1] is task:
            return entry[2]
        cell = PlanCell()
        self._pass_tables[key] = (program, task, cell)
        return cell

    @staticmethod
    def shape_local(events, base) -> bool:
        """True when ``events`` differs from ``base`` only in charge vectors.

        Two clean captures are *shape-local* when they charge the same
        ``(scope, primitive)`` rows in the same order and differ only in
        the per-row numbers — ``times``/``nbytes`` for primitive charges,
        raw nanoseconds for app-compute rows.  That is the signature of a
        mutation moving a charge vector without restructuring the stream
        (a rename changing component byte counts, a compute knob turning)
        — the one mismatch class where rebuilding the plan from the fresh
        capture (:meth:`patch`) is cheaper than a full
        invalidate+recapture cycle and just as sound, because the replay
        arguments are recompiled from the new stream wholesale (a
        shape-local capture keeps the plan's kernel).
        """
        if len(events) != len(base):
            return False
        for e, b in zip(events, base):
            if e[0] is not b[0] and e[0] != b[0]:
                return False
            if e[1] != b[1]:
                return False
            # Raw-ns rows carry (sentinel, hint, ns, scope-at-charge):
            # the attribution scope is part of the shape, the ns is not.
            if e[0] is _RAW_NS and e[3] != b[3]:
                return False
        return True

    def patch(self, cell: "PlanCell", fn, args, total_ns: float, capture,
              rates_version: int, task) -> None:
        """Rebuild a segment cell's plan in place from a fresh capture.

        Delta-patch arm of the task-confirm protocol (see
        ``workloads/traces.py``): a clean, twice-seen, shape-local
        capture replaces the stored plan without tearing the cell down —
        no warmup restart, no ghost-recapture cycle.  Only ``task`` (the
        one whose recorded runs produced the capture) stays admitted;
        every other task must re-confirm against the new capture on its
        next encounter, exactly as if the plan had just compiled.
        """
        plan = ChargePlan()
        plan.fn = fn
        plan.args = args
        plan.stat_deltas = capture[1]
        plan.total_ns = total_ns
        plan.gen = self.gen
        plan.rates_version = rates_version
        plan.capture = capture
        plan.fn2 = None
        plan.args2 = None
        plan.q_fired = None
        plan.body_ns = total_ns
        cell.plan = plan
        cell.pending = None
        cell.fail_streak = 0
        cell.tasks = {id(task): task}
        self.patched += 1

    def telemetry(self) -> Dict[str, int]:
        return {"compiled": self.compiled, "applied": self.applied,
                "invalidated": self.invalidated,
                "fallbacks": self.fallbacks,
                "task_confirms": self.task_confirms,
                "patched": self.patched}

    def __deepcopy__(self, memo) -> "ChargePlanRegistry":
        """Snapshots drop captured plans: a clone starts empty.

        Plans are pure host-side wall-clock state (exactly like
        resolution-memo entries): an empty registry re-captures from
        the restored kernel's own executions with bit-identical virtual
        costs, so dropping is the provably faithful choice.
        """
        new = ChargePlanRegistry()
        memo[id(self)] = new
        return new


class CostModel:
    """Charges virtual time for primitives and attributes it to scopes.

    Args:
        charges: primitive-name -> nanoseconds table; defaults to a copy
            of :data:`CALIBRATED`.  The table is read once at
            construction (per-call and per-byte rates are precomputed);
            mutate it only via :meth:`recalibrate`.
        clock: the clock to advance; a private one is created if omitted.
    """

    __slots__ = ("charges", "clock", "_scope_stack", "by_scope",
                 "by_primitive", "counts", "_rates", "_guards", "recorder",
                 "rates_version", "plans")

    def __init__(self, charges: Optional[Dict[str, float]] = None,
                 clock: Optional[Clock] = None):
        self.charges = dict(CALIBRATED if charges is None else charges)
        self.clock = clock or Clock()
        self._scope_stack: list = []
        self.by_scope: Dict[str, float] = {}
        self.by_primitive: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._guards: Dict[str, _ScopeGuard] = {}
        self._rates: Dict[str, Tuple[float, float]] = {}
        #: When non-None, every charge appends an event tuple to
        #: ``recorder.events`` (see :mod:`repro.core.resmemo`).
        self.recorder = None
        #: Bumped by every rate rebuild; event sequences compiled by
        #: :meth:`compile_replay` are tagged with it so a
        #: :meth:`recalibrate` invalidates them.
        self.rates_version = 0
        #: Captured charge plans for compiled-trace segments (see
        #: :class:`ChargePlanRegistry` and ``workloads/traces.py``).
        self.plans = ChargePlanRegistry()
        self._rebuild_rates()

    def _rebuild_rates(self) -> None:
        """Precompute (per-call, per-byte) pairs for the charge fast path."""
        charges = self.charges
        self._rates = {
            name: (value, charges.get(name + "_per_byte", 0.0))
            for name, value in charges.items()
        }
        self.rates_version += 1

    def recalibrate(self, **changes: float) -> None:
        """Adjust charge rates after construction (tests, sweeps)."""
        self.charges.update(changes)
        self._rebuild_rates()

    # -- charging ---------------------------------------------------------

    def charge(self, primitive: str, times: int = 1, nbytes: int = 0) -> float:
        """Charge ``times`` occurrences of ``primitive`` (+ per-byte part).

        Returns the nanoseconds charged.  Unknown primitives are an error:
        they indicate a typo, not a free operation.
        """
        try:
            per_call, per_byte = self._rates[primitive]
        except KeyError:
            raise KeyError(f"unknown cost primitive: {primitive!r}") from None
        ns = per_call * times
        if nbytes:
            ns += per_byte * nbytes
        # Charge rates are nonnegative, so the clock's monotonicity check
        # is skipped on this fast path (Clock.advance validates for
        # everyone else; charge_ns still goes through it).
        clock = self.clock
        clock._now_ns = clock._now_ns + ns
        by_primitive = self.by_primitive
        counts = self.counts
        try:
            # counts-first: a counts key implies a by_primitive key (the
            # reverse is false — charge_ns seeds by_primitive alone), so
            # a KeyError here means neither dict was touched yet.
            counts[primitive] += times
            by_primitive[primitive] += ns
        except KeyError:
            counts[primitive] = counts.get(primitive, 0) + times
            by_primitive[primitive] = by_primitive.get(primitive, 0.0) + ns
        stack = self._scope_stack
        if stack:
            scope = stack[-1]
            by_scope = self.by_scope
            try:
                by_scope[scope] += ns
            except KeyError:
                by_scope[scope] = ns
        rec = self.recorder
        if rec is not None:
            rec.events.append(
                (stack[-1] if stack else None, primitive, times, nbytes))
        return ns

    def charge_in(self, scope: str, primitive: str, times: int = 1,
                  nbytes: int = 0) -> float:
        """Charge ``primitive`` attributed directly to ``scope``.

        Equivalent to ``with self.scope(scope): self.charge(...)`` for a
        single charge, without the stack push/pop — the hot-loop form.
        """
        try:
            per_call, per_byte = self._rates[primitive]
        except KeyError:
            raise KeyError(f"unknown cost primitive: {primitive!r}") from None
        ns = per_call * times
        if nbytes:
            ns += per_byte * nbytes
        clock = self.clock
        clock._now_ns = clock._now_ns + ns
        by_primitive = self.by_primitive
        counts = self.counts
        try:
            counts[primitive] += times
            by_primitive[primitive] += ns
        except KeyError:
            counts[primitive] = counts.get(primitive, 0) + times
            by_primitive[primitive] = by_primitive.get(primitive, 0.0) + ns
        by_scope = self.by_scope
        try:
            by_scope[scope] += ns
        except KeyError:
            by_scope[scope] = ns
        rec = self.recorder
        if rec is not None:
            rec.events.append((scope, primitive, times, nbytes))
        return ns

    def charge_many(self, primitives) -> None:
        """Charge a fixed sequence of single-count primitives.

        Exactly equivalent to calling :meth:`charge` once per primitive
        (same float additions in the same order, same recorder events,
        same scope attribution) with the per-call dispatch paid once —
        for hot sites that always charge the same short primitive run.
        """
        rates = self._rates
        clock = self.clock
        by_primitive = self.by_primitive
        counts = self.counts
        stack = self._scope_stack
        scope = stack[-1] if stack else None
        by_scope = self.by_scope
        rec = self.recorder
        for primitive in primitives:
            try:
                per_call, _per_byte = rates[primitive]
            except KeyError:
                raise KeyError(
                    f"unknown cost primitive: {primitive!r}") from None
            ns = per_call * 1
            clock._now_ns = clock._now_ns + ns
            try:
                counts[primitive] += 1
                by_primitive[primitive] += ns
            except KeyError:
                counts[primitive] = counts.get(primitive, 0) + 1
                by_primitive[primitive] = by_primitive.get(primitive,
                                                           0.0) + ns
            if scope is not None:
                try:
                    by_scope[scope] += ns
                except KeyError:
                    by_scope[scope] = ns
            if rec is not None:
                rec.events.append((scope, primitive, 1, 0))

    def charge_in_many(self, scope: str, primitives) -> None:
        """:meth:`charge_in` over a fixed primitive sequence, one call.

        Bit-identical to per-primitive ``charge_in(scope, p)`` calls in
        the same order.
        """
        rates = self._rates
        clock = self.clock
        by_primitive = self.by_primitive
        counts = self.counts
        by_scope = self.by_scope
        rec = self.recorder
        for primitive in primitives:
            try:
                per_call, _per_byte = rates[primitive]
            except KeyError:
                raise KeyError(
                    f"unknown cost primitive: {primitive!r}") from None
            ns = per_call * 1
            clock._now_ns = clock._now_ns + ns
            try:
                counts[primitive] += 1
                by_primitive[primitive] += ns
            except KeyError:
                counts[primitive] = counts.get(primitive, 0) + 1
                by_primitive[primitive] = by_primitive.get(primitive,
                                                           0.0) + ns
            try:
                by_scope[scope] += ns
            except KeyError:
                by_scope[scope] = ns
            if rec is not None:
                rec.events.append((scope, primitive, 1, 0))

    def charge_ns(self, scope_hint: str, ns: float) -> None:
        """Charge raw nanoseconds (used for app 'compute' phases)."""
        self.clock.advance(ns)
        self.by_primitive[scope_hint] = self.by_primitive.get(scope_hint, 0.0) + ns
        stack = self._scope_stack
        if stack:
            scope = stack[-1]
            self.by_scope[scope] = self.by_scope.get(scope, 0.0) + ns
        rec = self.recorder
        if rec is not None:
            rec.events.append(
                (_RAW_NS, scope_hint, ns, stack[-1] if stack else None))

    def compile_replay(self, events, stat_deltas=()) -> tuple:
        """Compile a recorded event sequence against the current rates.

        Returns ``(kernel, args, total_ns)``.  ``kernel(clock,
        by_primitive, by_scope, counts, extra, args)`` applies exactly
        what re-running the original charges would — the same float
        additions to the clock and the attribution dicts, in the same
        order — followed by the integer ``counts`` deltas and the
        ``stat_deltas`` (``(name, int delta)`` pairs, applied to the
        dict passed as ``extra``).  ``total_ns`` is the left-to-right
        float fold of the events' nanoseconds.

        Each event's ns is the exact float :meth:`charge` computes
        (``per_call * times`` then ``+ per_byte * nbytes``); raw
        :meth:`charge_ns` events carry their recorded ns.  Integer
        addition is associative, so ``counts`` deltas fold per
        primitive; the float updates are not, and stay per event.

        The kernel is keyed by the sequence's charge *shape* — each
        event's ``(scope, primitive, is_raw)``, the count-delta
        primitives and the stat-delta names — and shared process-wide
        by every sequence of that shape; ``args`` carries this
        sequence's numbers (ns per event, then count and stat deltas).
        Two resolutions that differ only in name lengths, or one
        sequence before and after a :meth:`recalibrate`, therefore
        share one kernel object.
        """
        rates = self._rates
        rows = []
        ns_args = []
        count_deltas: Dict[str, int] = {}
        total = 0.0
        for scope, primitive, times, nbytes in events:
            if scope is _RAW_NS:
                # (sentinel, scope_hint, ns, scope at charge time)
                rows.append((nbytes, primitive, True))
                ns = times
            else:
                per_call, per_byte = rates[primitive]
                ns = per_call * times
                if nbytes:
                    ns += per_byte * nbytes
                rows.append((scope, primitive, False))
                count_deltas[primitive] = count_deltas.get(primitive,
                                                           0) + times
            ns_args.append(ns)
            total += ns
        shape = (tuple(rows), tuple(count_deltas),
                 tuple([name for name, _ in stat_deltas]))
        args = (*ns_args, *count_deltas.values(),
                *[delta for _, delta in stat_deltas])
        return _kernel_for(shape), args, total

    # -- attribution --------------------------------------------------------

    def scope(self, label: str) -> _ScopeGuard:
        """Attribute charges inside the ``with`` block to ``label``.

        Scopes do not nest additively: the innermost label wins, matching
        how a profiler attributes exclusive time.
        """
        guard = self._guards.get(label)
        if guard is None:
            guard = _ScopeGuard(self._scope_stack, label)
            self._guards[label] = guard
        return guard

    def reset_attribution(self) -> None:
        """Clear scope/primitive attribution without touching the clock."""
        self.by_scope.clear()
        self.by_primitive.clear()
        self.counts.clear()

    # -- reading ------------------------------------------------------------

    @property
    def now_ns(self) -> int:
        return self.clock.now_ns

    def scope_ns(self, label: str) -> float:
        return self.by_scope.get(label, 0.0)

    def count(self, primitive: str) -> int:
        return self.counts.get(primitive, 0)
