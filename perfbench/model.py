"""Reference model and result checks for the benchmark.

The benchmark never trusts the simulator to grade itself.  Every
workload keeps its own description of the namespace it generated (a
plain dict tree, :class:`Node`), derives the expected outcome of each
request from it, and compares the simulator's answer with
:func:`check_outcome`.  Only fields that do not depend on virtual time
are compared: file type, size, link count, permission bits, the errno
of a failed call, ``listdir`` name sets and byte counts.  Virtual-time
values (mtime, the clock) and inode numbers are never pinned and never
compared across profiles; directory mtimes are only required to
*advance* after a mutation inside the directory
(:func:`check_mtime_advanced`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: The default kernel profiles every workload runs; the model's
#: expectations hold for each of them.
PROFILES = ("baseline", "optimized", "optimized-lazy")

#: Permission bits of ``st_mode``.
PERM_BITS = 0o7777

#: Size a directory reports per entry (SimExt keeps 32-byte dirents).
DIRENT_BYTES = 32


class Node:
    """One name in the model namespace.

    Directories keep their children by name; regular files keep size
    and permission bits; symlinks keep an absolute target path.
    """

    __slots__ = ("name", "parent", "kind", "children", "size", "perm",
                 "target")

    def __init__(self, name: str, parent: Optional["Node"], kind: str,
                 perm: int = 0o644, size: int = 0,
                 target: Optional[str] = None):
        self.name = name
        self.parent = parent
        self.kind = kind  # "dir", "reg" or "lnk"
        self.children: Optional[Dict[str, "Node"]] = \
            {} if kind == "dir" else None
        self.size = size
        self.perm = perm
        self.target = target
        if parent is not None:
            parent.children[name] = self

    @property
    def path(self) -> str:
        parts = []
        node = self
        while node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return node.name + "/" + "/".join(reversed(parts)) if parts \
            else node.name

    def subdirs(self) -> int:
        return sum(1 for c in self.children.values() if c.kind == "dir")

    def fields(self) -> Tuple[str, int, int, int]:
        """``(filetype, size, nlink, perm)`` that ``stat`` must report."""
        if self.kind == "dir":
            return ("dir", DIRENT_BYTES * len(self.children),
                    2 + self.subdirs(), self.perm)
        return (self.kind, self.size, 1, self.perm)

    def listing(self) -> frozenset:
        """``{(name, dtype)}`` that ``listdir`` must report."""
        return frozenset((name, child.kind)
                         for name, child in self.children.items())


def stat_fields(st) -> Tuple:
    """Profile-independent fields of a ``StatResult``.

    Everything except ``ino`` and ``mtime_ns``: the three profiles'
    clocks legitimately differ and inode numbering is an allocator
    detail.  The first four entries are what the model checks; the
    whole tuple is what the profiles must agree on.
    """
    return (st.filetype, st.size, st.nlink, st.mode & PERM_BITS,
            st.uid, st.gid, st.fstype)


def check_outcome(expected, outcome) -> Optional[str]:
    """Compare one request's outcome with the model's expectation.

    Outcomes and expectations share one shape per request kind:

    * ``("err", errno)`` — the call must fail with exactly that errno;
    * ``("stat", (filetype, size, nlink, perm))`` — against
      :func:`stat_fields` of the returned ``StatResult``;
    * ``("list", frozenset)`` — the ``listdir`` ``(name, dtype)`` set;
    * ``("bytes", n)`` — bytes written;
    * ``("ok", None)`` — the call must succeed.

    Returns ``None`` when they agree, else a one-line description.
    """
    kind, value = expected
    got_kind, got = outcome
    if got_kind == "exc":
        return f"unexpected exception {got}"
    if kind != got_kind:
        return f"expected {expected!r}, got {outcome!r}"
    if kind == "stat":
        if stat_fields(got)[:4] != value:
            return f"stat fields {stat_fields(got)[:4]!r} != {value!r}"
        return None
    if got != value:
        return f"{kind}: expected {value!r}, got {got!r}"
    return None


def check_mtime_advanced(path: str, before_ns: float, st) -> Optional[str]:
    """A directory mutated since ``before_ns`` must show a later mtime."""
    if st.mtime_ns <= before_ns:
        return (f"{path}: mtime {st.mtime_ns} did not advance past "
                f"{before_ns} after a mutation")
    return None


def comparable(outcome):
    """An outcome with the virtual-time and ino parts dropped and sets
    sorted, for comparing profiles and runs."""
    kind, value = outcome
    if kind == "stat":
        return (kind, stat_fields(value))
    if kind == "list":
        return (kind, tuple(sorted(value)))
    return outcome


def tree_digest(kernel, task, root: str,
                with_mtime: bool = False) -> List[Tuple]:
    """Walk ``root`` through the syscall API and describe every name.

    One ``(relpath, filetype, size, nlink, perm[, mtime])`` row per
    entry, sorted, ``root`` itself first.  Without ``with_mtime`` the
    digest is comparable across profiles; with it, it is comparable only
    between kernels of one profile (the known-defect probe).
    """
    sys_ = kernel.sys
    rows = []

    def visit(path: str, rel: str) -> None:
        st = sys_.lstat(task, path)
        row = (rel,) + stat_fields(st)[:4]
        rows.append(row + (st.mtime_ns,) if with_mtime else row)
        if st.filetype == "dir":
            for name, _ino, _dtype in sorted(sys_.listdir(task, path)):
                child = f"{path.rstrip('/')}/{name}"
                visit(child, f"{rel}/{name}")

    visit(root, ".")
    return rows
