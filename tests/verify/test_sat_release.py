"""Differential tests: retiring clause groups from an incremental solver.

A group is built the way a BMC mutant cone is: an activation literal,
guarded clauses over fresh group variables and shared base variables
(:meth:`Cnf.guard`), and unguarded query clauses ``[-q, ...]``
(:meth:`Cnf.group`).  :meth:`Cnf.retire` asserts ``-act`` and ``-q``,
then the solver stops branching on the group's variables and detaches
its clauses.  After every retirement each answer must match a fresh
solver over the live clauses only, every SAT model must satisfy every
live clause, and no decision may fall on a released variable.
"""

import random

import pytest

from repro.verify.cnf import Cnf
from repro.verify.sat import SatResult, SatSolver


def _random_clause(rng, pool, size):
    return [v if rng.random() < 0.5 else -v for v in rng.sample(pool, size)]


def _fresh(clauses, assumptions=()):
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)
    for lit in assumptions:
        solver.add_clause([lit])
    return solver.solve()


class _Session:
    """One attached Cnf with base clauses and random clause groups."""

    def __init__(self, rng):
        self.rng = rng
        self.solver = SatSolver()
        self.cnf = Cnf(solver=self.solver)
        self.base = [self.cnf.new_var() for __ in range(rng.randint(6, 12))]
        #: the clauses every query sees, exactly as emitted
        self.live = [[self.cnf.true_lit]]
        for __ in range(rng.randint(len(self.base), 3 * len(self.base))):
            self._emit(_random_clause(rng, self.base, rng.randint(2, 3)),
                       self.live)
        self.groups = {}      # act -> (clauses, queries)
        self.group_vars = {}  # act -> variables created for the group
        self.released = set()
        pick = self.solver._pick_branch

        def checked_pick():
            lit = pick()
            if lit is not None:
                assert abs(lit) not in self.released, "decision on released var"
            return lit

        self.solver._pick_branch = checked_pick

    def _emit(self, clause, into, guard=None):
        self.cnf.add_clause(clause)
        into.append(clause if guard is None else [-guard, *clause])

    def add_group(self):
        rng, cnf = self.rng, self.cnf
        act = cnf.new_var()
        clauses = []
        first = cnf.num_vars + 1
        with cnf.guard(act):
            own = [cnf.new_var() for __ in range(rng.randint(1, 5))]
            for __ in range(rng.randint(2, 10)):
                pool = own + rng.sample(self.base, 3)
                self._emit(_random_clause(rng, pool, rng.randint(2, 3)),
                           clauses, guard=act)
        queries = []
        for __ in range(rng.randint(1, 2)):
            with cnf.group(act):
                query = cnf.new_var()
                body = rng.sample(own, min(2, len(own))) + rng.sample(self.base, 1)
                self._emit([-query] + [v if rng.random() < 0.5 else -v
                                       for v in body], clauses)
            queries.append(query)
        self.groups[act] = (clauses, queries)
        self.group_vars[act] = set(range(first, cnf.num_vars + 1))
        return act

    def retire(self, act):
        __, queries = self.groups.pop(act)
        self.cnf.retire(act, [-q for q in queries])
        self.released |= self.group_vars[act]

    def live_clauses(self):
        return self.live + [c for clauses, __ in self.groups.values()
                            for c in clauses]

    def check(self, assumptions):
        result, model = self.cnf.solve(assumptions=assumptions)
        expected = _fresh(self.live_clauses(), assumptions)
        assert result is expected
        if result is SatResult.SAT:
            for clause in self.live_clauses():
                assert any(model[abs(l)] is (l > 0) for l in clause), clause
            for lit in assumptions:
                assert model[abs(lit)] is (lit > 0)
        return result


@pytest.mark.parametrize("seed", range(40))
def test_retired_groups_leave_answers_unchanged(seed):
    rng = random.Random(f"release-{seed}")
    session = _Session(rng)
    for __ in range(rng.randint(2, 6)):
        session.add_group()
    for __ in range(rng.randint(4, 10)):
        live = list(session.groups)
        roll = rng.random()
        if live and roll < 0.3:
            session.retire(rng.choice(live))
        elif roll < 0.45:
            session.add_group()
        live = list(session.groups)
        if live and rng.random() < 0.8:
            act = rng.choice(live)
            assumptions = [act] + rng.sample(session.groups[act][1], 1)
        else:
            assumptions = []
        session.check(assumptions)
    for act in list(session.groups):
        if rng.random() < 0.5:
            session.retire(act)
    session.check([])


def test_retirement_both_answers_are_exercised():
    """Both SAT and UNSAT answers occur after a retirement, so the
    differential above is not vacuous."""
    seen = set()
    for seed in range(40):
        rng = random.Random(f"release-answers-{seed}")
        session = _Session(rng)
        acts = [session.add_group() for __ in range(3)]
        session.retire(acts[0])
        for act in acts[1:]:
            queries = session.groups[act][1]
            seen.add(session.check([act, queries[0]]))
        seen.add(session.check([]))
    assert seen == {SatResult.SAT, SatResult.UNSAT}


def test_release_detaches_clauses_and_stops_branching():
    cnf = Cnf(solver=SatSolver())
    base = cnf.new_var()
    act = cnf.new_var()
    with cnf.guard(act):
        inner = [cnf.new_var() for __ in range(4)]
        for a, b in zip(inner, inner[1:]):
            cnf.add_clause([a, -b])
    with cnf.group(act):
        query = cnf.new_var()
        cnf.add_clause([-query, inner[0], base])
    solver = cnf.solver
    assert cnf.solve([act, query])[0] is SatResult.SAT
    # Four two-watched clauses: three guarded ones and the query clause.
    assert sum(len(w) for w in solver._watches if w) == 8
    cnf.retire(act, [-query])
    assert sum(len(w) for w in solver._watches if w) == 0
    decided = []
    pick = solver._pick_branch
    solver._pick_branch = lambda: decided.append(pick()) or decided[-1]
    result, model = cnf.solve()
    assert result is SatResult.SAT
    assert model[act] is False and model[query] is False
    assert {abs(lit) for lit in decided if lit} == {base}
