"""Interpreted systems built by exhaustive enumeration of runs.

The paper's semantics interprets knowledge with respect to the *system*
``R_{E, F, P}``: the set of all runs generated by the information-exchange
protocol ``E``, the failure model ``F`` (all admissible failure patterns), and
the action protocol ``P`` (all initial preference vectors).  For the small
systems used to verify the implementation theorems we build that set of runs
explicitly, up to a finite horizon, and evaluate epistemic formulas over it.

The number of runs is exponential in ``n`` and the horizon, so this is meant
for ``n ≤ 4``-ish systems; the concrete protocols (``P_min``, ``P_basic``,
``P_opt``) never need it — it exists to *check* them against the
knowledge-based programs.

To keep the model checker fast the system *interns* its local states: each
agent's points are partitioned into indistinguishability classes exactly once
(hashing every local state once per agent, not once per formula per point).
The classes are kept as one class id per point, and the atoms ``init_i = v``,
``decided_i = v``, ``time = k`` and ``i ∈ N`` are cached as ``uint64`` word
arrays (see :mod:`repro.logic.words`); both are indexed by the dense point
index ``run_index * (horizon + 1) + time``.

A build runs in-process, takes no executor, and stores nothing if the cancel
scope (:mod:`repro.core.cancel`) stops it at a simulation round.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, TYPE_CHECKING, Tuple

import numpy as np

from ..core.allocation import bulk_allocation
from ..core.errors import ModelCheckingError
from ..core.types import PreferenceVector, Value
from ..exchange.base import LocalState
from ..failures.models import FailureModel
from ..failures.pattern import FailurePattern
from ..obs import trace as _trace
from ..protocols.base import ActionProtocol
from ..simulation.batch import BatchSimulator, RunTable, RunView
from ..simulation.trace import RunTrace
from ..workloads.preferences import enumerate_preferences
from .points import Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

    from ..store import StoreLike


@dataclass(frozen=True, eq=False)
class AgentPartition:
    """One agent's interned indistinguishability structure.

    Attributes
    ----------
    class_ids:
        ``class_ids[p]`` is the class id of dense point ``p``: a read-only
        numpy vector of the smallest unsigned dtype that holds the class count
        (:func:`repro.logic.words.class_id_dtype`).
    class_states:
        ``class_states[cid]`` is the (interned) local state shared by the
        points of class ``cid``; classes are numbered in order of first
        appearance, so ``class_states`` follows the system's point order.
    class_first_indices:
        ``class_first_indices[cid]`` is the dense index of the first point of
        class ``cid`` — a canonical representative for evaluations that only
        depend on the local state (knowledge-based-program prescriptions).

    Equality compares ``class_ids`` by dtype and contents; pickling goes
    through the constructor, so an unpickled partition is read-only too.
    """

    class_ids: "npt.NDArray[Any]"
    class_states: Tuple[LocalState, ...]
    class_first_indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        self.class_ids.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AgentPartition):
            return NotImplemented
        return (self.class_states == other.class_states
                and self.class_first_indices == other.class_first_indices
                and self.class_ids.dtype == other.class_ids.dtype
                and np.array_equal(self.class_ids, other.class_ids))

    def __reduce__(self):
        return (AgentPartition,
                (self.class_ids, self.class_states, self.class_first_indices))

    def class_words(self) -> "npt.NDArray[Any]":
        """The class masks as a ``(num_classes, num_words)`` word matrix.

        Row ``c`` is class ``c``'s membership set.  Costs one pass over the
        points per class, so it only suits agents with few classes (the dense
        ``K_i`` sweep) and tests.
        """
        from ..logic import words as _words
        ids = self.class_ids
        matrix = np.zeros((len(self.class_states), _words.word_count(len(ids))),
                          dtype=_words.WORD_DTYPE)
        for cid in range(len(matrix)):
            matrix[cid] = _words.pack_bits(ids == cid)
        return matrix


@dataclass
class InterpretedSystem:
    """A finite interpreted system: an explicit sequence of runs plus an interpretation.

    Attributes
    ----------
    n:
        Number of agents.
    horizon:
        Number of simulated rounds; points exist for times ``0 .. horizon``.
    runs:
        The traces of every run of the system.  A built or decoded system
        holds its runs only as its :class:`~repro.simulation.batch.RunTable`,
        and ``runs`` is a read-only :class:`~repro.simulation.batch.RunView`
        over it: a :class:`~repro.simulation.trace.RunTrace` is built only
        when the view is indexed or iterated.  A system assembled by hand
        may pass any sequence of traces, e.g. a list.
    protocol_name:
        Name of the action protocol that generated the runs (informational).
    """

    n: int
    horizon: int
    runs: Sequence[RunTrace]
    protocol_name: str = ""

    def __post_init__(self) -> None:
        self._points: Optional[Tuple[Point, ...]] = None
        self._classes: Dict[int, Dict[object, Tuple[Point, ...]]] = {}
        self._partitions: Dict[int, AgentPartition] = {}
        # The atoms and class matrices as word arrays (lazily built, see the
        # "atom word arrays" section); keyed by ("full",), ("time", t),
        # ("nonfaulty", agent), ("init", agent, value),
        # ("decided", agent, value) and ("matrix", agent).
        self._word_views: Dict[Tuple, "npt.NDArray[Any]"] = {}
        self._run_table: Optional[RunTable] = None

    def __reduce__(self):
        # Pickle the run table, not the traces: the runs share a few
        # thousand round records, and the table is that sharing (see
        # _rebuild_system).  Interned partitions travel with it.
        return (_rebuild_system, (self.n, self.horizon, self.protocol_name,
                                  self.run_table(),
                                  dict(sorted(self._partitions.items()))))

    # ------------------------------------------------------------------ dense indexing

    @property
    def stride(self) -> int:
        """Bits (= times) per run in the dense point index: ``horizon + 1``."""
        return self.horizon + 1

    @property
    def num_points(self) -> int:
        """Total number of points: ``len(runs) * (horizon + 1)``."""
        return len(self.runs) * self.stride

    def point_index(self, point: Point) -> int:
        """The dense index of ``point``: ``run_index * stride + time``."""
        return point[0] * self.stride + point[1]

    def point_at(self, index: int) -> Point:
        """The point with the given dense index."""
        return Point(index // self.stride, index % self.stride)

    # ------------------------------------------------------------------ points and states

    @property
    def points(self) -> Tuple[Point, ...]:
        """All points ``(r, m)`` with ``0 <= m <= horizon``, in dense-index order."""
        if self._points is None:
            self._points = tuple(
                Point(run_index, time)
                for run_index in range(len(self.runs))
                for time in range(self.horizon + 1)
            )
        return self._points

    def run(self, point: Point) -> RunTrace:
        """The trace of the run a point belongs to."""
        return self.runs[point.run_index]

    def local_state(self, point: Point, agent: int) -> LocalState:
        """The local state of ``agent`` at ``point``."""
        return self.run(point).state_of(agent, point.time)

    def nonfaulty(self, point: Point) -> frozenset[int]:
        """The indexical set ``N`` at ``point`` (it only depends on the run)."""
        return self.run(point).nonfaulty

    # ------------------------------------------------------------------ indistinguishability

    def partition(self, agent: int) -> AgentPartition:
        """The interned indistinguishability partition of ``agent``'s points.

        Every local state is hashed exactly once here; all downstream
        consumers (the model checker's ``K_i`` sweep, the frozenset-facing
        :meth:`equivalence_classes`) reuse the interned class ids.
        """
        if agent not in self._partitions:
            from ..logic import words as _words
            ids_by_state: Dict[LocalState, int] = {}
            lookup = ids_by_state.get
            first_indices: List[int] = []
            ids = array("i")
            stride = self.stride
            for trace in self.runs:
                rounds = trace.rounds
                state = trace.initial_states[agent]
                for time in range(stride):
                    if time:
                        state = rounds[time - 1].states_after[agent]
                    cid = lookup(state)
                    if cid is None:
                        cid = len(first_indices)
                        ids_by_state[state] = cid
                        first_indices.append(len(ids))
                    ids.append(cid)
            self._partitions[agent] = AgentPartition(
                class_ids=np.frombuffer(ids, dtype=np.intc).astype(
                    _words.class_id_dtype(len(first_indices))),
                class_states=tuple(ids_by_state),
                class_first_indices=tuple(first_indices),
            )
        return self._partitions[agent]

    def intern_states(self) -> None:
        """Eagerly intern every agent's local states (idempotent).

        :func:`build_system` calls this so the one unavoidable pass that
        hashes each local state once per agent is accounted to system
        construction, leaving formula evaluation and implementation checks to
        operate purely on the interned class ids.
        """
        for agent in range(self.n):
            self.partition(agent)

    def adopt_partitions(self, partitions: Dict[int, AgentPartition]) -> None:
        """Install partitions computed during batched construction.

        The batched engine (:meth:`repro.simulation.batch.BatchSimulator.partitions`)
        already knows every point's interned local state, so it hands the
        finished :class:`AgentPartition` structures over instead of having
        :meth:`partition` re-hash every local state.  The structures are
        identical to what :meth:`partition` would compute (same first-appearance
        class order, class ids and dtype, and anchors) — differentially tested in
        ``tests/test_simulation_batch.py``.
        """
        for agent, partition in partitions.items():
            self._partitions[agent] = partition

    def run_table(self) -> RunTable:
        """The runs as a :class:`~repro.simulation.batch.RunTable`.

        :func:`build_system` hands over the table the batched engine emits;
        a system assembled from arbitrary traces computes it on first use, in
        one identity pass over the runs (as :meth:`partition` does for the
        partitions).  The system's pickle and the Definition 6.2 receipt
        kernel read it.
        """
        if self._run_table is None:
            self._run_table = RunTable.from_runs(self.runs)
        return self._run_table

    def adopt_run_table(self, table: RunTable) -> None:
        """Install the run table the batched engine emitted for exactly these runs.

        Like :meth:`adopt_partitions`, it is trusted: it must describe
        ``runs`` run for run (:meth:`RunTable.traces` would rebuild them);
        for a :class:`~repro.simulation.batch.RunView` it is the view's table.
        """
        if table.num_runs != len(self.runs):
            raise ModelCheckingError(
                f"run table has {table.num_runs} runs, the system {len(self.runs)}")
        self._run_table = table

    def equivalence_classes(self, agent: int) -> Dict[object, Tuple[Point, ...]]:
        """Partition the points by ``agent``'s local state.

        Two points in the same class are indistinguishable to the agent — this
        is the accessibility relation interpreting ``K_agent``.
        """
        if agent not in self._classes:
            partition = self.partition(agent)
            ids = partition.class_ids
            # A stable sort groups the point indices by class, each group in
            # dense (run-major) order.
            order = np.argsort(ids, kind="stable").tolist()
            ends = np.cumsum(np.bincount(ids, minlength=len(partition.class_states)))
            stride = self.stride
            classes: Dict[object, Tuple[Point, ...]] = {}
            start = 0
            for state, end in zip(partition.class_states, ends.tolist()):
                classes[state] = tuple(Point(*divmod(index, stride))
                                       for index in order[start:end])
                start = end
            self._classes[agent] = classes
        return self._classes[agent]

    def indistinguishable(self, agent: int, point: Point) -> Tuple[Point, ...]:
        """All points the agent cannot distinguish from ``point`` (including itself)."""
        key = self.local_state(point, agent)
        return self.equivalence_classes(agent)[key]

    # ------------------------------------------------------------------ atom word arrays
    #
    # Each atom is a canonical numpy uint64 word array (see repro.logic.words),
    # packed straight from a per-point bool vector and cached in _word_views.
    # Imports are local to avoid a cycle (repro.logic's package init imports
    # this module).  The returned arrays are shared, so they are read-only: a
    # caller that wants to modify one takes a copy.

    def _atom_words(self, key: Tuple, bits: Callable[[], "npt.NDArray[Any]"]):
        """The cached word array of ``key``, packing ``bits()`` on first use."""
        words = self._word_views.get(key)
        if words is None:
            from ..logic import words as _words
            words = self._word_views[key] = _words.pack_bits(bits())
            words.flags.writeable = False
        return words

    def _run_points(self, entry_flags: Sequence[bool],
                    run_entries: "npt.NDArray[Any]") -> "npt.NDArray[Any]":
        """Per-point bool: does the point's run have a flagged run-table entry?

        ``entry_flags`` holds one flag per entry of a :class:`RunTable` table
        (its patterns or preference vectors); ``run_entries`` is that table's
        per-run index array.
        """
        flags = np.asarray(entry_flags, dtype=bool)
        return np.repeat(flags[run_entries], self.stride)

    def full_words(self):
        """Every point of the system as a canonical ``uint64`` word array."""
        return self._atom_words(("full",),
                                lambda: np.ones(self.num_points, dtype=bool))

    def time_words(self, time: int):
        """The points at global time ``time`` (the empty set outside the horizon)."""
        return self._atom_words(("time", time), lambda: np.tile(
            np.arange(self.stride) == time, len(self.runs)))

    def nonfaulty_words(self, agent: int):
        """The points at which ``agent ∈ N``."""
        def bits():
            table = self.run_table()
            return self._run_points(
                [agent not in pattern.faulty for pattern in table.patterns],
                table.run_patterns)
        return self._atom_words(("nonfaulty", agent), bits)

    def init_words(self, agent: int, value: Value):
        """The points at which ``init_agent = value``."""
        def bits():
            table = self.run_table()
            return self._run_points(
                [preferences[agent] == value for preferences in table.preferences],
                table.run_preferences)
        return self._atom_words(("init", agent, value), bits)

    def decided_words(self, agent: int, value: Optional[Value]):
        """The points at which ``decided_agent = value`` (``None`` = ⊥)."""
        def bits():
            partition = self.partition(agent)
            flags = np.fromiter(
                (state.decided == value for state in partition.class_states),
                dtype=bool, count=len(partition.class_states))
            return flags[partition.class_ids]
        return self._atom_words(("decided", agent, value), bits)

    def partition_words(self, agent: int):
        """``agent``'s classes as a ``(num_classes, num_words)`` word matrix.

        Row ``c`` is class ``c``'s membership mask, in interned class order
        (:meth:`AgentPartition.class_words`); only the dense ``K_i`` sweep asks
        for it, for agents with at most
        :data:`~repro.logic.words.DENSE_CLASS_LIMIT` classes.
        """
        key = ("matrix", agent)
        matrix = self._word_views.get(key)
        if matrix is None:
            matrix = self._word_views[key] = self.partition(agent).class_words()
            matrix.flags.writeable = False
        return matrix

    def class_id_array(self, agent: int):
        """Per-point interned class id of ``agent`` (dense point order, read-only)."""
        return self.partition(agent).class_ids

    # ------------------------------------------------------------------ misc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InterpretedSystem(n={self.n}, horizon={self.horizon}, "
                f"runs={len(self.runs)}, protocol={self.protocol_name!r})")


def _rebuild_system(n: int, horizon: int, protocol_name: str, table: RunTable,
                    partitions: Dict[int, AgentPartition]) -> InterpretedSystem:
    """The system whose runs are ``table``'s, seen through a :class:`RunView`.

    It unpickles every stored system, and assembles every built one; no
    trace is built.
    """
    system = InterpretedSystem(n=n, horizon=horizon, runs=RunView(table),
                               protocol_name=protocol_name)
    system.adopt_partitions(partitions)
    system.adopt_run_table(table)
    return system


#: Failure patterns simulated per construction chunk.  The simulator polls the
#: cancel scope every round, so a chunk's round bounds how long a cancelled
#: build keeps running; the chunks share one simulator, so their size changes
#: nothing about the result.
BUILD_CHUNK_PATTERNS = 1024


class DefinedPatterns:
    """A context's failure patterns, named by the context's definition.

    :meth:`~repro.systems.contexts.EBAContext.build_system` passes one to
    :func:`build_system` in place of a pattern list: the store keys the system
    by ``key()`` (the context's definition) and ``enumerate()`` runs only on a
    miss, so a store hit neither enumerates nor hashes a single pattern.  It
    always pairs with the full preference enumeration.
    """

    __slots__ = ("enumerate", "key")

    def __init__(self, enumerate: Callable[[], Iterable[FailurePattern]],
                 key: Callable[[], str]) -> None:
        self.enumerate = enumerate
        self.key = key

    def __iter__(self) -> Iterator[FailurePattern]:
        return iter(self.enumerate())


def _normalize_patterns(patterns: Iterable[FailurePattern]) -> List[FailurePattern]:
    """The pattern list in build order, rejecting an empty or duplicated one."""
    pattern_list = list(patterns)
    if not pattern_list:
        raise ModelCheckingError("cannot build a system from an empty set of failure patterns")
    seen: Dict[FailurePattern, int] = {}
    for position, pattern in enumerate(pattern_list):
        first = seen.get(pattern)
        if first is not None:
            raise ModelCheckingError(
                "duplicate failure pattern in system construction: "
                f"{pattern.describe()} appears at positions {first} and {position}; "
                "duplicates silently inflate run counts and message-complexity "
                "tallies"
            )
        seen[pattern] = position
    return pattern_list


def build_system(protocol: ActionProtocol, n: int, horizon: int,
                 patterns: Iterable[FailurePattern],
                 preference_vectors: Optional[Iterable[PreferenceVector]] = None,
                 store: "StoreLike" = None,
                 ) -> InterpretedSystem:
    """Build the interpreted system ``I_{γ, P}`` by simulating every run.

    All runs advance together one round at a time through one
    :class:`~repro.simulation.batch.BatchSimulator`, sharing exchange
    construction, ``act``/``messages_for`` evaluations, and whole round
    transitions across runs, and the system adopts the agent partitions and
    the :class:`~repro.simulation.batch.RunTable` the simulator emits: the
    partitions from the point rows the table implies, the table from the
    record ids and preference/pattern slots the round loop already has.  The
    system holds its runs only as that table (``runs`` is a
    :class:`~repro.simulation.batch.RunView` over it), pickles from it (the
    store's system entries), and the Definition 6.2 receipt kernel reads it.
    No trace is built; the traces the view builds are byte-identical
    (per-trace pickle) to one :func:`~repro.simulation.engine.simulate` call
    per (pattern, preference vector) pair, the naive oracle the differential
    tests build directly.
    Runs are pattern-major, preference-minor, and built in-process
    (docs/performance.md says why).
    Simulation, partitioning and interning allocate a few acyclic containers
    per run, so cyclic GC is paused for them
    (:func:`~repro.core.allocation.bulk_allocation`); the caller's GC state is
    restored however the build ends.

    Parameters
    ----------
    protocol:
        The action protocol ``P`` (it supplies the exchange ``E``).
    n:
        Number of agents.
    horizon:
        Every run is simulated for exactly this many rounds, so every point up
        to time ``horizon`` exists in every run.
    patterns:
        The failure patterns of the failure model ``F`` (use
        ``FailureModel.enumerate`` for exhaustive small systems).  Duplicate
        patterns are rejected with
        :class:`~repro.core.errors.ModelCheckingError` — a duplicated pattern
        would silently inflate every run count downstream.  A
        :class:`DefinedPatterns` (what a context passes) is enumerated only
        when the store misses.
    preference_vectors:
        The initial preference vectors to include; defaults to all ``2^n``.
    store:
        Optional :class:`~repro.store.ArtifactStore` (or cache-directory
        path): the built system — its run table *and* interned partitions
        (see :meth:`InterpretedSystem.run_table`) — is served from the
        content-addressed cache when an identical configuration was built
        before, and persisted otherwise.  It is keyed by
        :func:`~repro.store.system_key` over the listed patterns, or by a
        :class:`DefinedPatterns`' own definition key.  System construction is the
        repo's exponential hot path, so this is the store's flagship artifact.
    """
    from ..store import system_key
    defined = patterns if isinstance(patterns, DefinedPatterns) else None
    if defined is not None and preference_vectors is not None:
        raise ModelCheckingError(
            "a context's patterns pair with every preference vector")
    if preference_vectors is None:
        preference_vectors = enumerate_preferences(n)
    preference_list = [tuple(vector) for vector in preference_vectors]
    for vector in preference_list:
        if len(vector) != n:
            raise ModelCheckingError(
                f"preference vector {vector!r} has length {len(vector)}, "
                f"expected {n} (one preference per agent)"
            )
    if defined is not None:
        return _build_stored(protocol, n, horizon, preference_list, defined.key,
                             lambda: _normalize_patterns(defined.enumerate()),
                             store=store)
    pattern_list = _normalize_patterns(patterns)
    return _build_stored(
        protocol, n, horizon, preference_list,
        lambda: system_key(protocol, n, horizon, pattern_list, preference_list),
        lambda: pattern_list, store=store)


def _build_stored(protocol: ActionProtocol, n: int, horizon: int,
                  preference_list: List[PreferenceVector], key: Callable[[], str],
                  supply: Callable[[], List[FailurePattern]], store: "StoreLike",
                  ) -> InterpretedSystem:
    """The one store path of every system build: look ``key()`` up, else build and put.

    ``supply()`` returns the validated pattern list and is
    called only on a miss (or with no store), so a key that does not list the
    patterns spares a hit their enumeration.
    """
    from ..store import resolve_store
    build_span = _trace.NOOP
    if _trace.is_active():
        build_span = _trace.span("build.system", "build", {
            "protocol": protocol.name, "n": n, "horizon": horizon})
    with build_span as span:
        resolved_store = resolve_store(store)
        stored_key = None
        if resolved_store is not None:
            stored_key = key()
            cached = resolved_store.get(stored_key)
            if cached is not None:
                span.set("cached", True)
                span.set("patterns", len(cached.runs) // len(preference_list))
                span.set("runs", len(cached.runs))
                return cached
        # The enumerated patterns are acyclic, like the runs: no GC pass.
        with bulk_allocation():
            tracing = _trace.is_active()
            patterns_span = _trace.NOOP
            if tracing:
                patterns_span = _trace.span("build.patterns", "build")
            with patterns_span:
                pattern_list = supply()
                if tracing:
                    patterns_span.set("patterns", len(pattern_list))
                    patterns_span.set("blocked_sets", len(set(chain.from_iterable(
                        pattern.blocked_by_round for pattern in pattern_list))))
            span.set("patterns", len(pattern_list))
            span.set("runs", len(pattern_list) * len(preference_list))
            simulator = BatchSimulator(protocol, n)
            for start in range(0, len(pattern_list), BUILD_CHUNK_PATTERNS):
                chunk = pattern_list[start:start + BUILD_CHUNK_PATTERNS]
                simulator.simulate_patterns(chunk, preference_list, horizon)
            partitions = simulator.partitions(horizon)
            table = simulator.run_table(horizon)
            with _trace.span("build.intern", "build"):
                system = _rebuild_system(n, horizon, protocol.name, table, partitions)
                system.intern_states()
        if resolved_store is not None and stored_key is not None:
            resolved_store.put(stored_key, system, kind="system")
        return system
