"""The benchmark's three seeded workloads.

Each workload builds the same namespace on three default kernels
(``make_kernel("baseline" | "optimized" | "optimized-lazy")``), keeps a
reference model of it (:mod:`model`), and hands the runner a stream of
requests.  A request is a tuple ``(kind, ...)`` whose outcome the runner
times with :meth:`Instance.execute` and grades with :meth:`Instance.check`
against the expectation the model attached when generating it.  Every
profile executes the same request stream; the model advances once, at
generation time, so after a chunk of requests it describes the state
every kernel must be in.

See README.md for why each workload exists.
"""

from __future__ import annotations

import errno
import random
import time
from bisect import bisect_left
from typing import Dict, List, Tuple

from repro import (O_CREAT, O_DIRECTORY, O_EXCL, O_RDONLY, O_WRONLY,
                   O_APPEND, make_kernel)
from repro.errors import FsError
from repro.workloads import compile as trace_compile
from repro.workloads import maildir, server_fleet, traces, webserver

from model import (PROFILES, Node, check_mtime_advanced, check_outcome,
                   tree_digest)

OK = ("ok", None)


class Lane:
    """One profile's kernel plus the per-kernel state a workload needs."""

    def __init__(self, profile: str):
        self.profile = profile
        self.kernel = make_kernel(profile)
        self.sys = self.kernel.sys
        self.task = self.kernel.spawn_task(uid=0, gid=0)
        #: Last directory mtime observed, by workload-defined key.
        self.mtimes: Dict[object, float] = {}
        #: Wall seconds spent in ``compile_trace`` during set-up.
        self.compile_s = 0.0


def zipf_cum_weights(n: int, exponent: float) -> List[float]:
    """Cumulative Zipf weights for ranks ``1..n``."""
    cum, total = [], 0.0
    for rank in range(1, n + 1):
        total += rank ** -exponent
        cum.append(total)
    return cum


def stratified_order(rng: random.Random, targets: list) -> list:
    """Seeded popularity order of ``(path, expectation)`` targets.

    Targets are grouped by path depth and expectation kind, and each
    group is spread evenly (with jitter) over the ranks, so every
    popularity prefix has the population's mix of depths and kinds.  A
    plain shuffle would let the few hottest ranks -- a Zipf head carries
    a large share of the requests -- decide how deep the average lookup
    is, and seeds would differ in cost as well as in names.
    """
    groups: Dict[tuple, list] = {}
    for target in targets:
        key = (target[0].count("/"), target[1][0])
        groups.setdefault(key, []).append(target)
    keyed = []
    for key in sorted(groups):
        group = groups[key]
        rng.shuffle(group)
        keyed += [((i + rng.random()) / len(group), target)
                  for i, target in enumerate(group)]
    keyed.sort(key=lambda pair: pair[0])
    return [target for _, target in keyed]


def zipf_pick(rng: random.Random, items: list, cum: List[float]):
    return items[bisect_left(cum, rng.random() * cum[-1])]


def _stat(lane: Lane, path: str):
    try:
        return ("stat", lane.sys.stat(lane.task, path))
    except FsError as exc:
        return ("err", exc.errno)


class Instance:
    """A workload set up on all three profiles.

    Subclasses provide ``next_requests``, ``execute`` and the checks.
    ``failures`` collects set-up problems (profiles disagreeing on the
    namespace they built).
    """

    #: Requests each lane runs before timing starts (part of set-up).
    warmup = 0
    #: Further untimed requests per lane after set-up and before any
    #: measured phase, for caches that take long to reach their steady
    #: hit ratio; not part of ``setup_s``.
    settle = 0
    #: Requests each lane runs in a traced (``--trace 1``) run.
    trace_requests = 0
    #: Requests per chunk: one lane runs a chunk, then the next lane.
    chunk = 256

    def __init__(self, seed: int):
        self.seed = seed
        self.lanes: List[Lane] = []
        self.failures: List[str] = []

    def next_requests(self, n: int) -> list:
        raise NotImplementedError

    def execute(self, lane: Lane, req) -> tuple:
        raise NotImplementedError

    def ops(self, lane: Lane, req) -> int:
        """Simulated syscalls one request issues."""
        raise NotImplementedError

    def mutated_dir(self, lane: Lane, req):
        """``(key, task, path)`` of the directory ``req`` changes, or
        None.  Called after the chunk ran, so ``path`` is current."""
        return None

    def check(self, lane: Lane, reqs: list, outcomes: list
              ) -> List[Tuple[int, str]]:
        """Grade a chunk; returns ``(request index, message)`` pairs.

        Every outcome is compared with the model's expectation, and
        every directory the chunk mutated must show an mtime later than
        the one this lane last observed.
        """
        bad = [(i, msg) for i, (req, out) in enumerate(zip(reqs, outcomes))
               if (msg := check_outcome(req[2], out)) is not None]
        last = {}
        for i, req in enumerate(reqs):
            mutated = self.mutated_dir(lane, req)
            if mutated is not None:
                key, task, path = mutated
                last[key] = (i, task, path)
        for key, (i, task, path) in last.items():
            st = lane.sys.stat(task, path)
            msg = check_mtime_advanced(path, lane.mtimes[key], st)
            lane.mtimes[key] = st.mtime_ns
            if msg is not None:
                bad.append((i, msg))
        return bad

    def final_check(self, lane: Lane) -> List[str]:
        return []


# ---------------------------------------------------------------------------
# lookup_zipf: read-only lookups over a tree ~6x the memo and PCC capacity
# ---------------------------------------------------------------------------

_DIR_WORDS = ("src", "lib", "include", "drivers", "net", "fs", "kernel",
              "arch", "tools", "docs", "test", "core", "util", "media",
              "build", "vendor", "pkg", "internal", "common", "plugins")
_FILE_STEMS = ("main", "util", "config", "index", "parser", "cache",
               "handler", "module", "types", "helpers", "loader", "queue")
_FILE_EXTS = (".c", ".h", ".py", ".go", ".txt", ".json", ".o", ".md")
_FILE_PERMS = (0o644, 0o644, 0o644, 0o600, 0o640, 0o755, 0o444)
_DIR_PERMS = (0o755, 0o755, 0o755, 0o750)

STAT, OPEN = 0, 1


class LookupZipf(Instance):
    """Read-only: 80% stat, 10% open+fstat+close, 10% absent names."""

    ROOT = "/data"
    FILES = 24_000
    SYMLINKS = 240
    DIR_SYMLINKS = 24
    ZIPF = 0.9
    warmup = 4000
    #: baseline's resolution memo needs about 30k lookups to climb from
    #: ~40% to its steady ~60% hit rate; timing that climb made the
    #: numbers depend on how many requests a run got through.
    settle = 32000
    trace_requests = 6000
    chunk = 512

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"lookup_zipf/{seed}")
        self.root = self._gen_tree(rng)
        self._gen_targets(rng)
        self.rng = random.Random(f"lookup_zipf/requests/{seed}")
        for profile in PROFILES:
            lane = Lane(profile)
            self._materialize(lane)
            self.lanes.append(lane)

    # -- namespace ----------------------------------------------------------

    def _gen_tree(self, rng: random.Random) -> Node:
        """A fixed skeleton (8 x 4 x 4 directories, then half of each
        level's directories split in two down to depth 6) with seeded
        names, modes, sizes and file placement: seeds change *which*
        names are where, not the shape, so seeds stay comparable."""
        root = Node(self.ROOT, None, "dir", perm=0o755)
        self.dirs: List[Node] = [root]
        level = [root]
        eligible = []
        for depth, fanout in enumerate((8, 4, 4, 2, 2, 2)):
            parents = level if depth < 3 else rng.sample(level,
                                                         len(level) // 2)
            level = []
            for parent in parents:
                for i in range(fanout):
                    name = f"{rng.choice(_DIR_WORDS)}{i}"
                    level.append(Node(name, parent, "dir",
                                      perm=rng.choice(_DIR_PERMS)))
            self.dirs += level
            if depth >= 2:
                eligible += level
        weights = [rng.uniform(0.3, 1.7) for _ in eligible]
        scale = (self.FILES - self.SYMLINKS - self.DIR_SYMLINKS) / sum(weights)
        self.files: List[Node] = []
        for node, weight in zip(eligible, weights):
            for i in range(max(1, round(weight * scale))):
                name = (f"{rng.choice(_FILE_STEMS)}_{i}"
                        f"{rng.choice(_FILE_EXTS)}")
                size = rng.randrange(1, 8192) if rng.random() < 0.35 else 0
                self.files.append(Node(name, node, "reg", size=size,
                                       perm=rng.choice(_FILE_PERMS)))
        self.links: List[Tuple[Node, Node]] = []
        for i in range(self.SYMLINKS + self.DIR_SYMLINKS):
            to_dir = i >= self.SYMLINKS
            target = rng.choice(self.dirs[1:] if to_dir else self.files)
            home = rng.choice(eligible)
            link = Node(f"ln{i}", home, "lnk", perm=0o777,
                        target=target.path)
            self.links.append((link, target))
        return root

    def _gen_targets(self, rng: random.Random) -> None:
        """Popularity-ranked request targets with their expectations."""
        positive = [(n.path, ("stat", n.fields()))
                    for n in self.dirs + self.files]
        for link, target in self.links:
            positive.append((link.path, ("stat", target.fields())))
            if target.kind == "dir":
                kids = [c for c in target.children.values()
                        if c.kind != "lnk"]
                for child in rng.sample(kids, min(8, len(kids))):
                    positive.append((f"{link.path}/{child.name}",
                                     ("stat", child.fields())))
        self.positive = stratified_order(rng, positive)
        self.positive_cum = zipf_cum_weights(len(positive), self.ZIPF)
        self.openable = stratified_order(
            rng, [(f.path, ("stat", f.fields())) for f in self.files])
        self.openable_cum = zipf_cum_weights(len(self.openable), self.ZIPF)
        absent = []
        for i in range(len(positive) // 12):
            shape = i % 10
            if shape < 5:
                base = rng.choice(self.dirs).path
                absent.append((f"{base}/missing{i}.c", ("err", errno.ENOENT)))
            elif shape < 8:
                base = rng.choice(self.dirs).path
                absent.append((f"{base}/gone{i}/sub/leaf.h",
                               ("err", errno.ENOENT)))
            else:
                base = rng.choice(self.files).path
                absent.append((f"{base}/x", ("err", errno.ENOTDIR)))
        self.absent = stratified_order(rng, absent)
        self.absent_cum = zipf_cum_weights(len(absent), self.ZIPF)

    def _materialize(self, lane: Lane) -> None:
        sys_, task = lane.sys, lane.task
        for node in self.dirs:
            sys_.mkdir(task, node.path, node.perm)
        for node in self.dirs:
            fd = None
            for child in node.children.values():
                if child.kind == "dir":
                    continue
                if child.kind == "lnk":
                    sys_.symlink(task, child.target, child.path)
                    continue
                if fd is None:
                    fd = sys_.open(task, node.path, O_RDONLY | O_DIRECTORY)
                cfd = sys_.open(task, child.name, O_CREAT | O_WRONLY,
                                child.perm, dirfd=fd)
                if child.size:
                    sys_.ftruncate(task, cfd, child.size)
                sys_.close(task, cfd)
            if fd is not None:
                sys_.close(task, fd)

    # -- requests -----------------------------------------------------------

    def next_requests(self, n: int) -> list:
        rng = self.rng
        out = []
        for _ in range(n):
            r = rng.random()
            if r < 0.8:
                path, exp = zipf_pick(rng, self.positive, self.positive_cum)
                out.append((STAT, path, exp))
            elif r < 0.9:
                path, exp = zipf_pick(rng, self.openable, self.openable_cum)
                out.append((OPEN, path, exp))
            else:
                path, exp = zipf_pick(rng, self.absent, self.absent_cum)
                out.append((STAT, path, exp))
        return out

    def execute(self, lane: Lane, req) -> tuple:
        if req[0] == STAT:
            return _stat(lane, req[1])
        sys_, task = lane.sys, lane.task
        fd = sys_.open(task, req[1], O_RDONLY)
        try:
            return ("stat", sys_.fstat(task, fd))
        finally:
            sys_.close(task, fd)

    def ops(self, lane: Lane, req) -> int:
        return 1 if req[0] == STAT else 3


# ---------------------------------------------------------------------------
# namespace_churn: reads beside writes on a hot set that fits every cache
# ---------------------------------------------------------------------------

C_STAT, C_APPEND, C_LIST, C_RENAME, C_CREATE, C_UNLINK = range(6)
#: Syscalls per churn request kind; listdir is open + two getdents
#: (entries, then end of directory) + close.
_CHURN_OPS = (1, 3, 4, 1, 2, 1)


class NamespaceChurn(Instance):
    """stat 55% (a tenth absent), append 10%, listdir 10%, directory
    rename 10%, create 7%, unlink 8%.

    40 directories (root, then three levels of fanout 3), each with 64
    file-name slots about 80% filled: ~2k files.  Creates reuse free
    slots and renames toggle a ``.r`` suffix, so the set of names ever
    looked up stays below the memo and PCC capacity.  A rename picks a
    depth (1-3) uniformly, then a directory at that depth.
    """

    ROOT = "/work"
    SLOTS = 64
    FILLED = 0.8
    warmup = 1500
    trace_requests = 6000

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"namespace_churn/{seed}")
        root = Node(self.ROOT, None, "dir", perm=0o755)
        self.dirs = [root]
        self.levels = [[root]]
        for _depth in range(3):
            level = [Node(f"d{len(self.dirs) + i}", parent, "dir",
                          perm=0o755)
                     for i, parent in enumerate(p for p in self.levels[-1]
                                                for _ in range(3))]
            self.levels.append(level)
            self.dirs += level
        self.files: List[Node] = []
        self.index: Dict[Node, int] = {}
        for node in self.dirs:
            for slot in range(self.SLOTS):
                if rng.random() < self.FILLED:
                    self._add(Node(f"f{slot:02d}", node, "reg",
                                   size=rng.randrange(0, 2048),
                                   perm=rng.choice((0o644, 0o600))))
        self.rng = random.Random(f"namespace_churn/requests/{seed}")
        for profile in PROFILES:
            lane = Lane(profile)
            self._materialize(lane)
            self.lanes.append(lane)

    def _add(self, node: Node) -> None:
        self.index[node] = len(self.files)
        self.files.append(node)

    def _remove(self, node: Node) -> None:
        i = self.index.pop(node)
        last = self.files.pop()
        if last is not node:
            self.files[i] = last
            self.index[last] = i
        del node.parent.children[node.name]

    def _materialize(self, lane: Lane) -> None:
        sys_, task = lane.sys, lane.task
        for node in self.dirs:
            sys_.mkdir(task, node.path, node.perm)
        for node in self.files:
            fd = sys_.open(task, node.path, O_CREAT | O_WRONLY, node.perm)
            if node.size:
                sys_.ftruncate(task, fd, node.size)
            sys_.close(task, fd)
        for node in self.dirs:
            lane.mtimes[node] = sys_.stat(task, node.path).mtime_ns

    def _free_slot(self, rng: random.Random) -> Tuple[Node, str]:
        while True:
            node = rng.choice(self.dirs)
            name = f"f{rng.randrange(self.SLOTS):02d}"
            if name not in node.children:
                return node, name

    def next_requests(self, n: int) -> list:
        rng = self.rng
        out = []
        for _ in range(n):
            r = rng.random()
            if r < 0.55:
                if rng.random() < 0.1:
                    node, name = self._free_slot(rng)
                    out.append((C_STAT, f"{node.path}/{name}",
                                ("err", errno.ENOENT), None))
                else:
                    node = (rng.choice(self.files) if rng.random() < 0.9
                            else rng.choice(self.dirs))
                    out.append((C_STAT, node.path, ("stat", node.fields()),
                                None))
            elif r < 0.65:
                node = rng.choice(self.files)
                data = bytes([65 + rng.randrange(26)]) * rng.randint(16, 256)
                node.size += len(data)
                out.append((C_APPEND, node.path, ("bytes", len(data)),
                            None, data))
            elif r < 0.75:
                node = rng.choice(self.dirs)
                out.append((C_LIST, node.path, ("list", node.listing()),
                            None))
            elif r < 0.85:
                # Depth first, so the costly renames of big subtrees are
                # a stable share of requests rather than a ~1% class
                # whose edge would decide the p99.
                node = rng.choice(self.levels[rng.randrange(1, 4)])
                old = node.path
                parent = node.parent
                del parent.children[node.name]
                node.name = (node.name[:-2] if node.name.endswith(".r")
                             else node.name + ".r")
                parent.children[node.name] = node
                out.append((C_RENAME, old, OK, parent, node.path))
            elif r < 0.92:
                node, name = self._free_slot(rng)
                perm = rng.choice((0o644, 0o600))
                self._add(Node(name, node, "reg", perm=perm))
                out.append((C_CREATE, f"{node.path}/{name}", OK, node,
                            perm))
            else:
                node = rng.choice(self.files)
                path = node.path
                parent = node.parent
                self._remove(node)
                out.append((C_UNLINK, path, OK, parent))
        return out

    def execute(self, lane: Lane, req) -> tuple:
        kind = req[0]
        if kind == C_STAT:
            return _stat(lane, req[1])
        sys_, task = lane.sys, lane.task
        if kind == C_APPEND:
            fd = sys_.open(task, req[1], O_WRONLY | O_APPEND)
            try:
                return ("bytes", sys_.write(task, fd, req[4]))
            finally:
                sys_.close(task, fd)
        if kind == C_LIST:
            return ("list", frozenset((name, dtype) for name, _ino, dtype
                                      in sys_.listdir(task, req[1])))
        if kind == C_RENAME:
            sys_.rename(task, req[1], req[4])
        elif kind == C_CREATE:
            sys_.close(task, sys_.open(task, req[1],
                                       O_CREAT | O_EXCL | O_WRONLY, req[4]))
        else:
            sys_.unlink(task, req[1])
        return OK

    def ops(self, lane: Lane, req) -> int:
        return _CHURN_OPS[req[0]]

    def mutated_dir(self, lane: Lane, req):
        node = req[3]
        return None if node is None else (node, lane.task, node.path)


# ---------------------------------------------------------------------------
# tenant_replay: multi-tenant compiled replay, plans off
# ---------------------------------------------------------------------------

GET, DEPLOY, MARK_A, MARK_B, RENAME = range(5)


class TenantReplay(Instance):
    """Zipf-ordered ``replay_compiled(..., plans=False)`` calls over
    recorded tenant requests, about 10% of them mutating."""

    TENANTS = 12
    FILES_PER_SITE = 32
    MESSAGES = 16
    ZIPF = 1.1
    MUTATION_RATE = 0.1
    warmup = 150
    trace_requests = 500
    chunk = 32

    def __init__(self, seed: int):
        super().__init__(seed)
        order = list(range(self.TENANTS))
        rng = random.Random(f"tenant_replay/{seed}")
        rng.shuffle(order)
        self.by_rank = order
        self.cum = zipf_cum_weights(self.TENANTS, self.ZIPF)
        self.rng = random.Random(f"tenant_replay/requests/{seed}")
        digests = None
        for profile in PROFILES:
            lane = self._provision(Lane(profile))
            self.lanes.append(lane)
            if digests is None:
                digests = lane.digests
            elif lane.digests != digests:
                self.failures.append(
                    f"{profile}: tenant trees differ from {PROFILES[0]}'s "
                    f"after set-up")

    def _provision(self, lane: Lane) -> Lane:
        kernel = lane.kernel
        lane.tenants = []
        for i in range(self.TENANTS):
            task, listing, mail = server_fleet.provision_tenant(
                kernel, lane.task, i, files_per_site=self.FILES_PER_SITE,
                mailboxes=1, messages_per_box=self.MESSAGES, seed=self.seed)
            base = f"{server_fleet.FLEET_ROOT}/t{i}"
            box = mail.mailboxes[0]
            steps = {
                GET: lambda rk: webserver.handle_request(rk, task, listing),
                DEPLOY: lambda rk: webserver.deploy_rotation(rk, task,
                                                             listing),
                MARK_A: lambda rk: maildir.mark_unmark_operation(
                    rk, task, mail, random.Random(f"{self.seed}/{i}/a")),
                MARK_B: lambda rk: maildir.mark_unmark_operation(
                    rk, task, mail, random.Random(f"{self.seed}/{i}/b")),
                RENAME: lambda rk: maildir.folder_rename_operation(
                    rk, task, mail, random.Random(f"{self.seed}/{i}/r")),
            }
            programs = []
            for kind in range(len(steps)):
                rk = trace_compile.RecordingKernel(kernel, task=task)
                steps[kind](rk)
                t0 = time.perf_counter()
                programs.append(trace_compile.compile_trace(rk.trace))
                lane.compile_s += time.perf_counter() - t0
            mutated = {DEPLOY: f"{base}/www", MARK_A: f"{box}/cur",
                       MARK_B: f"{box}/cur", RENAME: f"{base}/mail"}
            for path in set(mutated.values()):
                lane.mtimes[path] = kernel.sys.stat(task, path).mtime_ns
            lane.tenants.append((task, base, programs, mutated))
        lane.digests = [tree_digest(kernel, task, base)
                        for task, base, _, _ in lane.tenants]
        return lane

    def next_requests(self, n: int) -> list:
        rng = self.rng
        out = []
        for _ in range(n):
            tenant = zipf_pick(rng, self.by_rank, self.cum)
            if rng.random() < self.MUTATION_RATE:
                r = rng.random()
                kind = (DEPLOY if r < 0.5 else MARK_A if r < 0.65
                        else MARK_B if r < 0.8 else RENAME)
            else:
                kind = GET
            out.append((kind, tenant, OK))
        return out

    def execute(self, lane: Lane, req) -> tuple:
        task, _base, programs, _mutated = lane.tenants[req[1]]
        # plans=False: whole-pass charge plans skip executing the pass and
        # leave wrong kernel state, so timing them would time a skip
        # (README.md, "Why tenant_replay runs with plans=False").
        traces.replay_compiled(lane.kernel, task, programs[req[0]],
                               plans=False)
        return OK

    def ops(self, lane: Lane, req) -> int:
        return len(lane.tenants[req[1]][2][req[0]])

    def mutated_dir(self, lane: Lane, req):
        if req[0] == GET:
            return None
        task, _base, _programs, mutated = lane.tenants[req[1]]
        path = mutated[req[0]]
        return (path, task, path)

    def final_check(self, lane: Lane) -> List[str]:
        return [f"{lane.profile}: tenant tree {base} differs from set-up"
                for (task, base, _, _), digest
                in zip(lane.tenants, lane.digests)
                if tree_digest(lane.kernel, task, base) != digest]


WORKLOADS = {
    "lookup_zipf": LookupZipf,
    "namespace_churn": NamespaceChurn,
    "tenant_replay": TenantReplay,
}
