"""Repo-specific configuration for the repro-lint rules.

Everything scope- or policy-shaped lives here so the rule logic in
:mod:`tools.repro_lint.rules` stays mechanical: which directories a rule
patrols, which callables are sanctioned, and the explicit whitelist for
wall-clock use inside the deterministic core.

Scopes are matched as substrings of each file's *resolved* POSIX path,
so they work identically for the real tree (``src/repro/...``) and for
the temporary trees the fixture tests build.
"""

from __future__ import annotations

import re

# ----------------------------------------------------------------------
# Scopes
# ----------------------------------------------------------------------
#: Modules that must be bit-reproducible given the same seed: the grids,
#: the join algorithms and the geometric substrate.  Randomness must
#: arrive as a seed / ``numpy.random.Generator`` parameter (the
#: ``datasets`` convention) and wall-clock reads are banned outside
#: :data:`TIMING_WHITELIST`.
DETERMINISTIC_SCOPE: tuple[str, ...] = (
    "/repro/core/",
    "/repro/joins/",
    "/repro/geometry/",
)

#: The executor module — the only place tasks cross a process boundary.
EXECUTORS_SCOPE: tuple[str, ...] = ("/repro/engine/executors.py",)

#: The engine package: shared-memory views are created here.
ENGINE_SCOPE: tuple[str, ...] = ("/repro/engine/",)

#: Modules whose candidate filtering must charge
#: ``JoinStatistics.overlap_tests`` through the counted helpers of
#: :mod:`repro.geometry` rather than ad-hoc coordinate comparisons.
COUNTED_SCOPE: tuple[str, ...] = ("/repro/joins/", "/repro/core/")

#: The contract module itself (exempt from the write-path rules — its
#: recording methods are the sanctioned writers).
BASE_MODULE: tuple[str, ...] = ("/repro/joins/base.py",)

#: Everything that is part of the shipped library.
LIBRARY_SCOPE: tuple[str, ...] = ("/repro/",)

# ----------------------------------------------------------------------
# RPL001 — numpy global RNG
# ----------------------------------------------------------------------
#: ``numpy.random`` attributes that construct *seedable* generator
#: machinery.  Everything else on the module (``np.random.rand``,
#: ``np.random.seed``, ...) drives the hidden global ``RandomState`` and
#: is banned everywhere in the repo.
NP_RANDOM_ALLOWED: frozenset[str] = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

# ----------------------------------------------------------------------
# RPL003 — wall-clock reads
# ----------------------------------------------------------------------
#: ``time`` module functions that read a clock.
WALL_CLOCK_FUNCTIONS: frozenset[str] = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: ``datetime`` constructors that read a clock.
DATETIME_NOW_FUNCTIONS: frozenset[str] = frozenset({"now", "utcnow", "today"})

#: Sanctioned wall-clock sites inside :data:`DETERMINISTIC_SCOPE`, as
#: ``(path substring, dotted scope qualname)`` → one-line justification.
#: A qualname entry also covers scopes nested inside it.  Empty: the
#: engine's stage clock times every phase the core reports.
TIMING_WHITELIST: dict[tuple[str, str], str] = {}

# ----------------------------------------------------------------------
# RPL201 — ad-hoc overlap predicates
# ----------------------------------------------------------------------
#: Identifier shapes that denote box-bound arrays: ``lo``, ``hi``,
#: ``lo_a``, ``xlo``, ``part_hi``, ``b_center_lo``...  Deliberately
#: name-based: the counted kernels in :mod:`repro.geometry` are out of
#: scope, so inside ``joins/`` and ``core/`` a raw ``lo``-vs-``hi``
#: comparison is either an uncounted overlap test (a bug the paper's
#: Figure 7(c) methodology forbids) or a justified, suppressed kernel.
BOUND_NAME_RE = re.compile(r"(^|_)[xyz]?(lo|hi)\d*(_|$)")

# ----------------------------------------------------------------------
# RPL202 / RPL301 — statistics and result contracts
# ----------------------------------------------------------------------
#: The instrumentation fields of ``JoinStatistics``; writable only from
#: its own recording methods (and its constructor).
STATISTICS_FIELDS: frozenset[str] = frozenset(
    {
        "overlap_tests",
        "build_seconds",
        "join_seconds",
        "memory_bytes",
        "phase_seconds",
        "stage_seconds",
        "task_counters",
        "events",
        "task_retries",
        "index_counters",
    }
)

#: Names an expression may be rooted at for RPL202 to treat it as a
#: statistics object.
STATISTICS_ROOTS: frozenset[str] = frozenset({"stats", "statistics"})

# ----------------------------------------------------------------------
# RPL203 — maintained pair-set writes
# ----------------------------------------------------------------------
#: Internal state of ``MaintainedPairSet``: the two-level layout (the
#: sorted ``_base`` keys, their ``_alive`` mask, the sorted ``_extra``
#: keys added since the last fold), the exact ``_count``, the fold
#: counter and the object count that fixes the key's index width.
#: Writable only from the class's own delta-maintenance API (``patch``,
#: the fold in ``packed_keys`` and the constructor) in
#: :data:`PAIRS_MODULE`.
PAIRSET_FIELDS: frozenset[str] = frozenset(
    {"_base", "_alive", "_extra", "_count", "_compactions", "n"}
)

#: Names an expression may be rooted at for RPL203 to treat it as a
#: maintained pair set.
PAIRSET_ROOTS: frozenset[str] = frozenset(
    {"maintained", "_maintained", "pairset", "pair_set", "maintained_pairs"}
)

#: The module that defines ``MaintainedPairSet`` (exempt from RPL203 —
#: its methods are the sanctioned mutators) and ``sorted_unique_keys``
#: (exempt from RPL204 — it is the sanctioned 1-D deduplication).
PAIRS_MODULE: tuple[str, ...] = ("/repro/geometry/pairs.py",)

#: The exact return annotation the lazy ``JoinResult.pairs`` property
#: must carry.
JOIN_RESULT_PAIRS_ANNOTATION = "tuple | None"

# ----------------------------------------------------------------------
# RPL501 — durable writes in the recovery package
# ----------------------------------------------------------------------
#: The checkpoint/restore package: every file write in it must flow
#: through the atomic protocol (tmp + fsync + rename) so a crash can
#: never leave a half-written checkpoint that looks committed.
RECOVERY_SCOPE: tuple[str, ...] = ("/repro/recovery/",)

#: The one sanctioned writer module inside :data:`RECOVERY_SCOPE` — it
#: implements the atomic protocol itself.
ATOMIC_MODULE: tuple[str, ...] = ("/repro/recovery/atomic.py",)

#: ``open()`` mode characters that make the handle writable.
WRITE_MODE_CHARS: frozenset[str] = frozenset({"w", "a", "x", "+"})

#: Module-qualified file writers: ``module attribute -> writer names``.
#: Any ``<module>.<writer>(...)`` call in scope is a durable write that
#: bypassed the atomic protocol.
MODULE_WRITE_CALLS: dict[str, frozenset[str]] = {
    "np": frozenset({"save", "savez", "savez_compressed", "savetxt"}),
    "numpy": frozenset({"save", "savez", "savez_compressed", "savetxt"}),
    "json": frozenset({"dump"}),
    "os": frozenset({"replace", "rename", "renames", "link", "symlink"}),
    "shutil": frozenset({"copy", "copy2", "copyfile", "copyfileobj", "move"}),
}

#: Path-level writer methods, flagged on *any* receiver — inside the
#: tiny recovery package anything calling ``.write_bytes()`` is writing
#: a file.
PATH_WRITE_ATTRS: frozenset[str] = frozenset({"write_text", "write_bytes"})

# ----------------------------------------------------------------------
# RPL601 — event-loop imports confined to the service package
# ----------------------------------------------------------------------
#: The async front-end package: the only library code allowed to import
#: asyncio (or any other event-loop framework).  Everything below the
#: service boundary stays synchronous, so the engine/join layers remain
#: testable and bit-reproducible without a running loop.
SERVICE_SCOPE: tuple[str, ...] = ("/repro/service/",)

#: Event-loop module roots banned outside :data:`SERVICE_SCOPE`.
ASYNC_MODULES: frozenset[str] = frozenset(
    {"asyncio", "selectors", "uvloop", "trio", "anyio", "curio"}
)

# ----------------------------------------------------------------------
# RPL7xx — async-safety in the service layer (whole-program)
# ----------------------------------------------------------------------
#: Resolved dotted call names that block the calling thread.  Reachable
#: from an ``async def`` without an ``asyncio.to_thread`` hop, any of
#: these stalls the event loop (and with it every pending request).
BLOCKING_CALLS: frozenset[str] = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
    }
)

#: Attribute calls that block on *any* receiver.  ``Future.result()``
#: and pool ``shutdown(wait=True)`` park the thread until remote work
#: finishes; the ``Path`` read/write helpers are synchronous file I/O.
BLOCKING_ATTRS: frozenset[str] = frozenset(
    {"result", "shutdown", "read_text", "read_bytes", "write_text", "write_bytes"}
)

#: Calls that move their callable argument onto a worker thread: edges
#: through these do not block the event loop and are exempt from RPL701.
OFFLOAD_CALLS: frozenset[str] = frozenset({"asyncio.to_thread"})

#: Attribute spelling of the loop-executor offload (``loop.run_in_executor``).
OFFLOAD_ATTRS: frozenset[str] = frozenset({"run_in_executor"})

# ----------------------------------------------------------------------
# RPL8xx — interprocedural determinism (whole-program)
# ----------------------------------------------------------------------
#: Layers whose *job* is timing: wall-clock reads here are sanctioned
#: instrumentation (the measured wall time is the output), so RPL801's
#: reachability closure does not propagate through them.  A clock read
#: anywhere else that the deterministic core can reach through helper
#: calls is a determinism leak exactly like a direct RPL003 hit.
TIMING_LAYER_SCOPE: tuple[str, ...] = ("/repro/engine/", "/repro/obs/")

#: Resolved dotted call names that draw entropy from outside a seeded
#: ``numpy.random.Generator``: the stdlib Mersenne Twister, OS entropy,
#: and clock/MAC-derived UUIDs.  ``random.*`` is matched by prefix.
ENTROPY_CALLS: frozenset[str] = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
    }
)

#: Module roots whose *every* call is an entropy draw.
ENTROPY_MODULE_ROOTS: frozenset[str] = frozenset({"random"})

# ----------------------------------------------------------------------
# RPL9xx — executor-boundary transitivity (whole-program)
# ----------------------------------------------------------------------
#: Module-level global kinds that are process-local: a submitted
#: callable that reads one of these gets a *fresh copy* in every worker
#: process (functions pickle by reference; their globals are re-created
#: by the worker's import), so mutual exclusion / handle identity
#: silently evaporates across the boundary.  Maps the classifier kind
#: to the human-readable description used in diagnostics.
PROCESS_LOCAL_GLOBAL_KINDS: dict[str, str] = {
    "lambda": "a lambda (unpicklable by qualified name)",
    "sync_primitive": "a synchronisation primitive (re-created per worker)",
    "file_handle": "an open file handle (not shared across processes)",
    "pool": "an executor pool (process-local)",
    "shared_memory": "a shared-memory handle (attach explicitly per worker)",
}

#: Constructor call names (resolved through imports) that mark a module
#: global as process-local state for RPL902.
GLOBAL_STATE_CONSTRUCTORS: dict[str, str] = {
    "threading.Lock": "sync_primitive",
    "threading.RLock": "sync_primitive",
    "threading.Condition": "sync_primitive",
    "threading.Event": "sync_primitive",
    "threading.Semaphore": "sync_primitive",
    "threading.BoundedSemaphore": "sync_primitive",
    "threading.local": "sync_primitive",
    "multiprocessing.Lock": "sync_primitive",
    "multiprocessing.RLock": "sync_primitive",
    "multiprocessing.Condition": "sync_primitive",
    "multiprocessing.Event": "sync_primitive",
    "multiprocessing.Semaphore": "sync_primitive",
    "open": "file_handle",
    "concurrent.futures.ThreadPoolExecutor": "pool",
    "concurrent.futures.ProcessPoolExecutor": "pool",
    "multiprocessing.Pool": "pool",
    "multiprocessing.shared_memory.SharedMemory": "shared_memory",
}
