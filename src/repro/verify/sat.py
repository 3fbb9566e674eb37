"""CDCL SAT solver with incremental, assumption-based solving.

The formal engines of the paper's cascade (SAT-based ATPG, bounded model
checking) need a SAT oracle; RuleBase-era industrial tools embedded
Chaff-class solvers.  This is a compact conflict-driven solver with the
standard ingredients: two-watched-literal propagation, first-UIP clause
learning, activity-based (VSIDS-style) branching with decay, and
geometric restarts.

Variables are positive integers; literals are signed integers
(``-v`` = negated ``v``).  Clauses are lists of literals.

Solver reuse semantics
----------------------
A :class:`SatSolver` is incremental: it may be reused across
:meth:`solve` calls, and clauses may be added between calls.

* **Persists across calls:** the clause database -- the watch lists,
  which hold every stored clause once (the solver keeps no second
  list), including clauses learned in earlier calls; conflict analysis
  only ever drops literals forced at decision level 0, so a learned
  clause never bakes in an assumption -- plus level-0 facts (unit
  clauses and literals derived from them), variable activities, the
  set of released variables, and the lifetime counters in
  :attr:`cumulative`.
* **Resets per call:** :attr:`stats` (a fresh :class:`SatStats` per
  call, so a reused solver cannot exhaust ``max_conflicts`` with a
  previous call's conflicts), the conflict budget itself (overridable
  per call via ``solve(max_conflicts=...)``), the restart schedule, and
  every assignment above level 0 -- in particular assumptions, which
  hold only for the duration of the call that passed them.

Assumptions are established MiniSat-style as decisions at their own
levels, never as level-0 facts, so an UNSAT-under-assumptions answer
does not poison later calls.  To make a clause group retractable (e.g.
one mutant's logic cone), allocate an activation literal
``act = solver.new_var()``, add each clause as ``[-act] + clause``, and
pass ``act`` among the assumptions to enable the group; adding the
permanent unit ``[-act]`` retires it for good.

Retiring a group that way leaves its clauses watched and its variables
in the branching order, so every later SAT answer still decides them.
:meth:`release` finishes the job (MiniSat's non-decision variables and
satisfied-clause removal): given the group's variables and the clause
handles :meth:`add_clause` returned, it takes the variables out of the
branching order and detaches the clauses from the watch lists.  The
caller guarantees that every released clause is satisfied by a level-0
fact (such as ``[-act]``) and that no live clause other than learned
ones mentions a released variable; answers are then unchanged, and a
model leaves released variables that propagation did not reach False.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.telemetry import metrics as _metrics

# Published once per solve() call, from its finally — the same place
# the per-call stats fold into the lifetime counters.
_SOLVES = _metrics.counter("repro_sat_solves_total", "SAT solve() calls")
_DECISIONS = _metrics.counter("repro_sat_decisions_total",
                              "SAT branching decisions")
_PROPAGATIONS = _metrics.counter("repro_sat_propagations_total",
                                 "SAT unit propagations")
_CONFLICTS = _metrics.counter("repro_sat_conflicts_total", "SAT conflicts")
_LEARNED = _metrics.counter("repro_sat_learned_total",
                            "SAT learned clauses")
_RESTARTS = _metrics.counter("repro_sat_restarts_total", "SAT restarts")


class SatResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SatStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0

    def accumulate(self, other: "SatStats") -> None:
        self.decisions += other.decisions
        self.propagations += other.propagations
        self.conflicts += other.conflicts
        self.restarts += other.restarts
        self.learned += other.learned


class SatSolver:
    """Incremental CDCL solver: add clauses, call :meth:`solve` repeatedly."""

    def __init__(self, max_conflicts: int = 2_000_000):
        self.max_conflicts = max_conflicts
        self.num_vars = 0
        #: per-call counters; replaced with a fresh SatStats on every solve().
        self.stats = SatStats()
        #: lifetime totals across every solve() on this instance.
        self.cumulative = SatStats()
        # Internal solving state, in flat arrays sized for variables
        # 1.._cap (grown by :meth:`_reserve`).  Literal-indexed arrays
        # use Python's negative indexing: ``arr[-v]`` is the slot of the
        # negative literal, counted from the end.
        self._cap = 0
        #: literal -> True / False / None (unassigned); both polarities
        #: of a variable are written together.
        self._values: list[Optional[bool]] = [None]
        #: literal -> the clauses watching it (None until the first).
        #: Together the watch lists are the clause database: every
        #: stored clause (original or learned) sits in the lists of its
        #: literals 0 and 1.
        self._watches: list[Optional[list[list[int]]]] = [None]
        #: var -> decision level / reason clause (valid while assigned)
        self._level: list[int] = [0]
        self._reason: list[Optional[list[int]]] = [None]
        self._activity: list[float] = [0.0]
        #: var -> may the search branch on it?  Cleared by :meth:`release`.
        self._decision: list[bool] = [False]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._var_inc = 1.0
        #: lazy VSIDS order heap of (-activity, var); may hold stale
        #: entries for assigned or released vars, skipped at pick time.
        #: Every unassigned decision var always has an entry carrying
        #: its current activity, so picks are O(log n) instead of a full
        #: var scan while reproducing the original order exactly (max
        #: activity, lowest var on ties).
        self._order: list[tuple[float, int]] = []
        #: order-heap bookkeeping: built yet? / highest var with an entry.
        self._order_built = False
        self._order_vars = 0
        #: unit literals awaiting their level-0 enqueue at the next solve().
        self._pending: list[int] = []
        #: persistent propagation head into _trail.
        self._qhead = 0
        #: an explicitly empty clause was added: trivially UNSAT forever.
        self._has_empty = False
        #: a contradiction was derived at level 0: UNSAT forever.
        self._unsat = False

    # -- construction ----------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> Optional[list[int]]:
        """Add a clause; returns the stored clause, or None if none was
        stored (empty, tautological, unit, or decided at level 0).

        The returned list is the solver's own, the handle
        :meth:`release` detaches; callers must not modify it.
        """
        clause = sorted(set(map(int, literals)), key=abs)
        if not clause:
            self._has_empty = True
            return None
        if clause[0] == 0:  # abs-sort puts 0 first
            raise ValueError("literal 0 is not allowed")
        if len(set(map(abs, clause))) < len(clause):
            return None  # tautology: v and -v
        top = clause[-1]
        if top < 0:
            top = -top
        if top > self.num_vars:
            self.num_vars = top
        if top > self._cap:
            self._reserve(top)
        if self._trail_lim:
            self._cancel_until(0)
        if len(clause) == 1:
            self._pending.append(clause[0])
            return None
        if self._trail:
            # Level-0 facts exist (a previous solve() ran): watches must
            # sit on non-false literals, or the clause could become unit
            # or conflicting without its watches ever being revisited.
            fixed = list(map(self._values.__getitem__, clause))
            if True in fixed:
                return None  # satisfied by a level-0 fact: never constrains
            if False in fixed:
                open_lits = [lit for lit, value in zip(clause, fixed)
                             if value is None]
                if not open_lits:
                    self._unsat = True
                    return None
                if len(open_lits) == 1:
                    self._pending.append(open_lits[0])
                    return None
                for slot in (0, 1):
                    where = clause.index(open_lits[slot])
                    clause[slot], clause[where] = clause[where], clause[slot]
        self._watch(clause)
        return clause

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def release(self, variables: Iterable[int],
                clauses: Iterable[list[int]] = ()) -> None:
        """Retire ``variables`` and ``clauses`` for good.

        The search never branches on a released variable again, and the
        released clauses (handles returned by :meth:`add_clause`) leave
        the watch lists, so propagation no longer visits them -- the
        non-decision variables and satisfied-clause removal of MiniSat.
        The caller guarantees that this changes no answer: every
        released clause is satisfied at level 0 (or asserted to be, by
        a unit added before the next solve), and every clause still
        attached that mentions a released variable is either satisfied
        that way too or implied (a learned clause).  A SAT answer then
        assigns every live variable, released ones only where
        propagation reached them; :meth:`model` reads the rest as False.
        """
        variables = list(variables)
        clauses = list(clauses)
        if self._trail_lim:
            self._cancel_until(0)
        if variables:
            self._reserve(max(variables))
        decision = self._decision
        for var in variables:
            decision[var] = False
        if clauses:
            dead = {id(clause) for clause in clauses}
            watches = self._watches
            for lit in {clause[slot] for clause in clauses for slot in (0, 1)}:
                watches[lit] = [c for c in watches[lit] if id(c) not in dead]

    def _reserve(self, top: int) -> None:
        """Grow the flat state arrays to hold variables ``1..top``."""
        cap = self._cap
        if top <= cap:
            return
        new_cap = max(top, 2 * cap, 64)
        grow = new_cap - cap
        # Positive literals keep their slots; negative ones stay at the
        # same distance from the end.
        values = self._values
        self._values = values[:cap + 1] + [None] * (2 * grow) + values[cap + 1:]
        watches = self._watches
        self._watches = watches[:cap + 1] + [None] * (2 * grow) + watches[cap + 1:]
        self._level.extend([0] * grow)
        self._reason.extend([None] * grow)
        self._activity.extend([0.0] * grow)
        self._decision.extend([True] * grow)
        self._cap = new_cap

    # -- literal state helpers ----------------------------------------------------

    def _watch(self, clause: list[int]) -> None:
        """Register ``clause`` in the watch lists of its literals 0 and 1."""
        watches = self._watches
        for lit in (clause[0], clause[1]):
            watchlist = watches[lit]
            if watchlist is None:
                watches[lit] = [clause]
            else:
                watchlist.append(clause)

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> None:
        values = self._values
        values[lit] = True
        values[-lit] = False
        var = lit if lit > 0 else -lit
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    # -- propagation -------------------------------------------------------------------

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation from the persistent head; returns a conflict or None.

        Literal values are read straight from the literal-indexed
        ``_values`` array -- this is by far the hottest loop in the
        solver.
        """
        values = self._values
        trail = self._trail
        watches = self._watches
        levels = self._level
        reasons = self._reason
        stats = self.stats
        level = len(self._trail_lim)
        head = self._qhead
        while head < len(trail):
            lit = trail[head]
            head += 1
            false_lit = -lit
            watchlist = watches[false_lit]
            if not watchlist:
                continue
            index = 0
            while index < len(watchlist):
                clause = watchlist[index]
                # Ensure false_lit is at position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                fval = values[first]
                if fval is True:
                    index += 1
                    continue
                # Look for a replacement watch.
                for k in range(2, len(clause)):
                    other = clause[k]
                    if values[other] is not False:
                        clause[1], clause[k] = other, clause[1]
                        moved = watches[other]
                        if moved is None:
                            watches[other] = [clause]
                        else:
                            moved.append(clause)
                        watchlist[index] = watchlist[-1]
                        watchlist.pop()
                        break
                else:
                    # No replacement: clause is unit or conflicting.
                    if fval is False:
                        self._qhead = head
                        return clause  # conflict
                    values[first] = True
                    values[-first] = False
                    var = first if first > 0 else -first
                    levels[var] = level
                    reasons[var] = clause
                    trail.append(first)
                    stats.propagations += 1
                    index += 1
        self._qhead = head
        return None

    # -- conflict analysis ------------------------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning; returns (learned clause, backjump level)."""
        levels = self._level
        trail = self._trail
        current_level = len(self._trail_lim)
        learned: list[int] = []
        seen: set[int] = set()
        counter = 0
        lit_iter = list(conflict)
        trail_index = len(trail) - 1
        asserting: Optional[int] = None

        while True:
            for lit in lit_iter:
                var = abs(lit)
                if var in seen:
                    continue
                seen.add(var)
                self._bump(var)
                if levels[var] == current_level:
                    counter += 1
                elif levels[var] > 0:
                    learned.append(lit)
            # Walk the trail backwards to the next seen literal.
            while trail_index >= 0 and abs(trail[trail_index]) not in seen:
                trail_index -= 1
            if trail_index < 0:
                break
            pivot = trail[trail_index]
            trail_index -= 1
            counter -= 1
            if counter == 0:
                asserting = -pivot
                break
            reason = self._reason[abs(pivot)]
            lit_iter = [l for l in (reason or []) if l != pivot]

        if asserting is not None:
            learned.insert(0, asserting)
        if len(learned) <= 1:
            return learned, 0
        back = sorted((levels[abs(l)] for l in learned[1:]), reverse=True)
        return learned, back[0]

    def _bump(self, var: int) -> None:
        activity = self._activity[var] + self._var_inc
        self._activity[var] = activity
        if self._values[var] is None and self._decision[var]:
            heapq.heappush(self._order, (-activity, var))

    def _decay(self) -> None:
        self._var_inc /= 0.95
        if self._var_inc > 1e100:
            self._activity = [a * 1e-100 for a in self._activity]
            self._var_inc *= 1e-100
            self._rebuild_order()  # every heap key just went stale

    def _rebuild_order(self) -> None:
        activity = self._activity
        values = self._values
        decision = self._decision
        self._order = [(-activity[var], var)
                       for var in range(1, self.num_vars + 1)
                       if values[var] is None and decision[var]]
        heapq.heapify(self._order)
        self._order_built = True
        self._order_vars = self.num_vars

    def _sync_order(self) -> None:
        """Bring the order heap up to date at the start of a solve.

        The first solve builds it from scratch (exactly the original
        fresh-solver behaviour); later solves only add entries for vars
        created since -- :meth:`_bump` and :meth:`_backjump` already
        keep existing unassigned vars' entries current in between.
        """
        if not self._order_built:
            self._rebuild_order()
            return
        if self._order_vars >= self.num_vars:
            return
        activity = self._activity
        values = self._values
        decision = self._decision
        entries = [(-activity[var], var)
                   for var in range(self._order_vars + 1, self.num_vars + 1)
                   if values[var] is None and decision[var]]
        self._order_vars = self.num_vars
        order = self._order
        if len(entries) > 4096:
            if len(order) + len(entries) > 2 * (self.num_vars - len(self._trail)):
                self._rebuild_order()
            else:
                order.extend(entries)
                heapq.heapify(order)
        else:
            for entry in entries:
                heapq.heappush(order, entry)

    def _backjump(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        order = self._order
        activity = self._activity
        values = self._values
        decision = self._decision
        trail = self._trail
        mark = self._trail_lim[level]
        del self._trail_lim[level:]
        tail = trail[mark:]
        del trail[mark:]
        entries = []
        for lit in tail:
            values[lit] = None
            values[-lit] = None
            var = lit if lit > 0 else -lit
            if decision[var]:
                entries.append((-activity[var], var))
        if len(entries) > 4096:
            # A heap's pop sequence is the sorted order of its multiset,
            # so one O(n) heapify replaces n O(log n) pushes unobserved.
            if len(order) + len(entries) > 2 * (self.num_vars - len(trail)):
                # Mostly stale entries: compact instead.  Activities only
                # grow, so dropping superseded entries cannot change
                # which entry for a var surfaces first.
                self._rebuild_order()
            else:
                order.extend(entries)
                heapq.heapify(order)
        else:
            for entry in entries:
                heapq.heappush(order, entry)

    def _cancel_until(self, level: int) -> None:
        self._backjump(level)
        if self._qhead > len(self._trail):
            self._qhead = len(self._trail)

    def _pick_branch(self) -> Optional[int]:
        order = self._order
        values = self._values
        decision = self._decision
        while order:
            __, var = heapq.heappop(order)
            if values[var] is None and decision[var]:
                # negative polarity first: good for ATPG encodings
                return -var
        return None

    # -- main loop -----------------------------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = (),
              max_conflicts: Optional[int] = None) -> SatResult:
        """Solve the current clause set; model available via :meth:`model`.

        ``assumptions`` hold for this call only; ``max_conflicts``
        overrides the instance-level conflict budget for this call only.
        """
        self.stats = SatStats()
        budget = self.max_conflicts if max_conflicts is None else max_conflicts
        assumed = list(assumptions)
        for lit in assumed:
            self.num_vars = max(self.num_vars, abs(lit))
        self._reserve(self.num_vars)
        try:
            return self._search(assumed, budget)
        finally:
            self.cumulative.accumulate(self.stats)
            if _metrics.enabled:
                stats = self.stats
                _SOLVES.inc()
                _DECISIONS.inc(stats.decisions)
                _PROPAGATIONS.inc(stats.propagations)
                _CONFLICTS.inc(stats.conflicts)
                _LEARNED.inc(stats.learned)
                _RESTARTS.inc(stats.restarts)

    def _search(self, assumptions: list[int], budget: int) -> SatResult:
        if self._has_empty or self._unsat:
            return SatResult.UNSAT
        self._cancel_until(0)
        values = self._values
        if self._pending:
            pending, self._pending = self._pending, []
            for lit in pending:
                value = values[lit]
                if value is False:
                    self._unsat = True
                    return SatResult.UNSAT
                if value is None:
                    self._enqueue(lit, None)
        conflict = self._propagate()
        if conflict is not None:
            self._unsat = True
            return SatResult.UNSAT
        self._sync_order()

        restart_limit = 100
        conflicts_since_restart = 0
        while True:
            if len(self._trail_lim) < len(assumptions):
                # Establish (or re-establish after a restart/backjump)
                # the next assumption before any free decision.
                lit = assumptions[len(self._trail_lim)]
                value = values[lit]
                if value is False:
                    return SatResult.UNSAT  # UNSAT under these assumptions
                if value is True:
                    self._trail_lim.append(len(self._trail))  # dummy level
                    continue
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)
            else:
                decision = self._pick_branch()
                if decision is None:
                    return SatResult.SAT
                self.stats.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(decision, None)
            while True:
                conflict = self._propagate()
                if conflict is None:
                    break
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if self.stats.conflicts > budget:
                    self._cancel_until(0)
                    return SatResult.UNKNOWN
                if not self._trail_lim:
                    self._unsat = True
                    return SatResult.UNSAT
                learned, back_level = self._analyze(conflict)
                self._backjump(back_level)
                self._qhead = len(self._trail)
                self._decay()
                if not learned:
                    self._unsat = True
                    return SatResult.UNSAT
                if len(learned) == 1:
                    if values[learned[0]] is False:
                        self._unsat = True
                        return SatResult.UNSAT
                    if values[learned[0]] is None:
                        self._enqueue(learned[0], None)
                else:
                    self.stats.learned += 1
                    self._watch(learned)
                    if values[learned[0]] is None:
                        self._enqueue(learned[0], learned)
                if conflicts_since_restart >= restart_limit:
                    conflicts_since_restart = 0
                    restart_limit = int(restart_limit * 1.5)
                    self.stats.restarts += 1
                    self._backjump(0)
                    self._qhead = len(self._trail)
                    break

    def model(self) -> dict[int, bool]:
        """Satisfying assignment after a SAT answer (unassigned -> False)."""
        values = self._values
        return {v: values[v] is True for v in range(1, self.num_vars + 1)}


def solve(clauses: Iterable[Iterable[int]],
          max_conflicts: int = 2_000_000) -> tuple[SatResult, dict[int, bool]]:
    """Convenience one-shot solve; returns (result, model)."""
    solver = SatSolver(max_conflicts=max_conflicts)
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve()
    return result, (solver.model() if result is SatResult.SAT else {})
