"""Fork-safety plumbing for the serving shell's locks.

Every lock in the serving shell (tracer, metrics, flight recorder,
service stats, the striped ablation locks) is a plain
``threading.Lock`` bound to a named attribute or module constant, and
no lock is acquired while another is held — the static concurrency
analyzer (:mod:`repro.analysis.concurrency`) reports any nesting as
``RPRCON01``.

:class:`WorkerPool` forks workers while service/metrics threads may be
mid-critical-section. A child forked at that instant inherits a locked
mutex with no owner — the classic post-fork deadlock, invisible to TSan
because it only instruments the C kernel. So an
``os.register_at_fork(after_in_child=...)`` hook gives every lock owner
registered via :func:`register_lock_owner` (the flight recorder, the
metrics registry and its instruments, tracers) a **fresh** lock in the
child, and runs the module-level callbacks registered via
:func:`register_fork_callback` (the global-tracer lock), so a pool
worker can never block on a mutex its parent's sibling thread held.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable, List

__all__ = [
    "register_lock_owner",
    "register_fork_callback",
    "reinit_locks_after_fork",
]

#: owner object -> tuple of lock attribute names to re-create in a child.
_LOCK_OWNERS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
#: Module-level callbacks run in the child after fork (global locks).
_FORK_CALLBACKS: List[Callable[[], None]] = []
_OWNERS_MUTEX = threading.Lock()


def register_lock_owner(owner: object, *attrs: str) -> None:
    """Mark ``owner``'s lock attributes for post-fork re-initialization.

    A pool worker forked while some service thread holds
    ``owner.<attr>`` would otherwise inherit a locked, ownerless mutex;
    after this registration the ``after_in_child`` hook replaces each
    attribute with a fresh lock of the same flavor. Owners are held
    weakly.
    """
    if not attrs:
        raise ValueError("at least one lock attribute name is required")
    with _OWNERS_MUTEX:
        known = _LOCK_OWNERS.get(owner, ())
        _LOCK_OWNERS[owner] = tuple(dict.fromkeys(known + attrs))


def register_fork_callback(callback: Callable[[], None]) -> None:
    """Run ``callback`` in every forked child (module-global locks)."""
    with _OWNERS_MUTEX:
        _FORK_CALLBACKS.append(callback)


def registered_owner_count() -> int:
    """How many live owners are registered (tests / diagnostics)."""
    with _OWNERS_MUTEX:
        return len(_LOCK_OWNERS)


def _fresh_lock_like(current: object):
    """A brand-new unlocked lock of the same flavor as ``current``."""
    if isinstance(current, type(threading.RLock())):
        return threading.RLock()
    return threading.Lock()


def reinit_locks_after_fork() -> int:
    """Replace every registered lock; returns how many were replaced.

    Runs automatically in forked children (``after_in_child``); exposed
    for tests that simulate the child side without forking.
    """
    with _OWNERS_MUTEX:
        owners = list(_LOCK_OWNERS.items())
        callbacks = list(_FORK_CALLBACKS)
    replaced = 0
    for owner, attrs in owners:
        for attr in attrs:
            current = getattr(owner, attr, None)
            if current is not None:
                setattr(owner, attr, _fresh_lock_like(current))
                replaced += 1
    for callback in callbacks:
        callback()
        replaced += 1
    return replaced


def _after_fork_in_child() -> None:
    # Only the forking thread survives: the registry mutex itself may
    # have been held by a thread that does not exist here.
    global _OWNERS_MUTEX
    _OWNERS_MUTEX = threading.Lock()
    reinit_locks_after_fork()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX builds
    os.register_at_fork(after_in_child=_after_fork_in_child)
