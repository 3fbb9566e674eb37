"""Differential suite: incremental vs one-shot formal back-ends.

The incremental BMC session (shared hash-consed CNF, frames sliced to
the queried properties' cone of influence, assumption-selected queries,
mutant diff cones) and the incremental PCC formal phase must produce
reports byte-identical (:func:`repro.serialize.documents_equal`) to the
original fresh-encode-per-query paths, which are kept as the reference
under ``incremental=False``.  Counter-example traces may differ between
the two paths; each must be a genuine replay of the netlist.
"""

import operator
import random

import pytest

from repro.rtl.netlist import (
    BinExpr,
    ConstExpr,
    MuxExpr,
    Netlist,
    SigExpr,
    UnExpr,
)
from repro.serialize import documents_equal
from repro.verify.mc.bmc import BoundedModelChecker
from repro.verify.pcc import PropertyCoverageChecker, enumerate_mutations
from repro.verify.sat import SatResult


def handshake_netlist():
    net = Netlist("ctrl")
    net.add_input("req", 1)
    st = net.add_register("st", 2, reset=0)
    cnt = net.add_register("cnt", 2, reset=0)

    def at(v):
        return BinExpr("==", st, ConstExpr(v, 2))

    nxt = MuxExpr(
        at(0), MuxExpr(SigExpr("req"), ConstExpr(1, 2), ConstExpr(0, 2)),
        MuxExpr(at(1),
                MuxExpr(BinExpr("==", cnt, ConstExpr(3, 2)),
                        ConstExpr(2, 2), ConstExpr(1, 2)),
                ConstExpr(0, 2)))
    net.set_next("st", nxt)
    net.set_next("cnt", MuxExpr(at(1), BinExpr("+", cnt, ConstExpr(1, 2)),
                                ConstExpr(0, 2)))
    net.add_wire("done", 1, at(2))
    net.add_wire("busy", 1, at(1))
    net.mark_output("done")
    net.mark_output("busy")
    net.validate()
    return net


PROPS = [
    [[("st", "<=", 2)]],
    [[("st", "!=", 1), ("busy", "==", 1)], [("st", "==", 1), ("busy", "==", 0)]],
    [[("st", "!=", 2), ("done", "==", 1)], [("st", "==", 2), ("done", "==", 0)]],
    [[("done", "!=", 1), ("cnt", "==", 0)]],
]


_CMP = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def violates(clauses, step):
    return any(not any(_CMP[op](step[name], value)
                       for name, op, value in clause)
               for clause in clauses)


def fan_in(net, names):
    """The signals ``names`` are transitively computed from."""
    reads = {name: expr.refs() for name, (__, expr) in net.wires.items()}
    reads.update((r.name, r.next_expr.refs()) for r in net.registers.values())
    cone, stack = set(), list(names)
    while stack:
        name = stack.pop()
        if name not in cone:
            cone.add(name)
            stack.extend(reads.get(name, ()))
    return cone


def assert_genuine_trace(net, clauses, result):
    """Every signal per cycle, replaying on ``Netlist.step``, ending at
    the first violating cycle."""
    assert result.violated and result.trace
    names = set(net.inputs) | set(net.registers) | set(net.wires)
    state = net.reset_state()
    for cycle, step in enumerate(result.trace):
        assert set(step) == names
        state, values = net.step(state, {n: step[n] for n in net.inputs})
        assert values == step
        assert violates(clauses, step) == (cycle == len(result.trace) - 1)


def random_netlist(seed):
    """A small random FSMD with a logic island no property reads.

    ``main`` signals feed each other; ``side`` signals read only inputs
    and themselves, so a property over ``main`` signals has a cone that
    excludes the whole island.
    """
    rng = random.Random(seed)
    net = Netlist(f"rand{seed}")
    widths = {"a": rng.randint(1, 3), "b": rng.randint(1, 3)}
    for name, width in widths.items():
        net.add_input(name, width)
    for name in ("r0", "r1", "side_r"):
        widths[name] = rng.randint(1, 4)
        net.add_register(name, widths[name], reset=rng.randrange(4))
    word = max(widths.values())

    def expr(pool, depth=0):
        roll = rng.random()
        if depth > 2 or roll < 0.25:
            if rng.random() < 0.3:
                return ConstExpr(rng.randrange(1 << word), word)
            return SigExpr(rng.choice(pool))
        if roll < 0.35:
            return UnExpr(rng.choice(("~", "!")), expr(pool, depth + 1))
        if roll < 0.5:
            return MuxExpr(expr(pool, depth + 1), expr(pool, depth + 1),
                           expr(pool, depth + 1))
        if roll < 0.55:
            return BinExpr(rng.choice(("<<", ">>")), expr(pool, depth + 1),
                           ConstExpr(rng.randrange(3), 2))
        op = rng.choice(("+", "-", "*", "&", "|", "^", "==", "!=", "<", "<="))
        return BinExpr(op, expr(pool, depth + 1), expr(pool, depth + 1))

    main, side = ["a", "b", "r0", "r1"], ["a", "b", "side_r"]
    for i in range(rng.randint(2, 4)):
        name = f"w{i}"
        net.add_wire(name, rng.randint(1, word), expr(main))
        main.append(name)
    net.add_wire("side_w", rng.randint(1, word), expr(side))
    side.append("side_w")
    for name in ("r0", "r1"):
        net.set_next(name, expr(main))
    net.set_next("side_r", expr(side))
    net.mark_output("r0")
    net.mark_output("side_w")
    net.validate()
    return net, rng


def random_properties(net, rng, count=4):
    """Properties over a strict subset of the ``main`` signals."""
    pool = ["r0", "r1"] + [w for w in net.wires if w.startswith("w")]
    props = []
    for __ in range(count):
        clause = []
        for name in rng.sample(pool, rng.randint(1, 2)):
            limit = (1 << net.width_of(name)) - 1
            clause.append((name, rng.choice(("<=", "!=", "<", ">=")),
                           rng.randint(0, limit)))
        props.append([clause])
    return props


RANDOM_SEEDS = range(8)


class TestBmcDifferential:
    def test_reports_match_oneshot_across_bounds(self):
        net = handshake_netlist()
        incremental = BoundedModelChecker(net)  # default: incremental
        oneshot = BoundedModelChecker(net, incremental=False)
        for clauses in PROPS:
            for bound in (1, 3, 5):
                a = incremental.check_invariant_clauses(clauses, bound)
                b = oneshot.check_invariant_clauses(clauses, bound)
                assert documents_equal(a.to_dict(), b.to_dict())

    def test_violated_property_matches_oneshot(self):
        net = handshake_netlist()
        bad = [[("busy", "==", 0)]]  # violated once st reaches 1
        a = BoundedModelChecker(net).check_invariant_clauses(bad, 4)
        b = BoundedModelChecker(net, incremental=False) \
            .check_invariant_clauses(bad, 4)
        assert a.violated and b.violated
        assert documents_equal(a.to_dict(), b.to_dict())
        # Both traces are genuine counter-examples.
        assert a.describe().startswith("BMC:")
        assert_genuine_trace(net, bad, a)
        assert_genuine_trace(net, bad, b)

    def test_repeated_queries_are_stable(self):
        net = handshake_netlist()
        checker = BoundedModelChecker(net)
        first = checker.check_invariant_clauses(PROPS[0], 4).to_dict()
        for __ in range(3):
            again = checker.check_invariant_clauses(PROPS[0], 4).to_dict()
            assert documents_equal(first, again)


class TestSlicedSession:
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_netlists_match_oneshot(self, seed):
        net, rng = random_netlist(seed)
        session = BoundedModelChecker(net)
        oneshot = BoundedModelChecker(net, incremental=False)
        everything = set(net.inputs) | set(net.registers) | set(net.wires)
        for clauses in random_properties(net, rng):
            read = {name for clause in clauses for name, __, __ in clause}
            assert fan_in(net, read) < everything
            for bound in (2, 5):
                a = session.check_invariant_clauses(clauses, bound)
                b = oneshot.check_invariant_clauses(clauses, bound)
                assert documents_equal(a.to_dict(), b.to_dict())
                if a.violated:
                    assert_genuine_trace(net, clauses, a)
                    assert_genuine_trace(net, clauses, b)

    def test_logic_outside_the_cone_is_not_encoded(self):
        plain = handshake_netlist()
        padded = handshake_netlist()
        padded.add_input("x", 2)
        padded.add_wire("prod", 2, BinExpr("*", SigExpr("x"), SigExpr("cnt")))
        padded.validate()
        sizes = []
        for net in (plain, padded):
            session = BoundedModelChecker(net)
            for clauses in PROPS:
                assert session.check_invariant_clauses(clauses, 5) \
                    .holds_up_to_bound
            sizes.append(session.cnf_size)
        assert sizes[0] == sizes[1]
        assert sizes[0][1] > 0

    def test_cone_grows_into_existing_frames(self):
        net = handshake_netlist()
        session = BoundedModelChecker(net)
        # st's cone first (deep), then busy/done widen it at lower bounds.
        assert session.check_invariant_clauses(PROPS[0], 6).holds_up_to_bound
        before = session.cnf_size
        for clauses in PROPS[1:]:
            for bound in (2, 6):
                a = session.check_invariant_clauses(clauses, bound)
                b = BoundedModelChecker(net, incremental=False) \
                    .check_invariant_clauses(clauses, bound)
                assert documents_equal(a.to_dict(), b.to_dict())
        assert session.cnf_size > before


def oneshot_verdicts(net, mutation, properties, bound):
    mutant = BoundedModelChecker(mutation.apply(net), incremental=False)
    return [mutant.check_invariant_clauses(clauses, bound).violated
            for clauses in properties]


class TestMutantCones:
    def test_mutant_added_before_cone_is_known(self):
        """A fresh session's first call is add_mutant (the pool path)."""
        net = handshake_netlist()
        for mutation in enumerate_mutations(net):
            session = BoundedModelChecker(net)
            act = session.add_mutant(mutation.driver,
                                     mutation.rewritten_driver(net), 5)
            expected = oneshot_verdicts(net, mutation, PROPS, 5)
            # A small cone first, then properties that widen it.
            assert session.check_mutant(act, PROPS[0], 5).violated \
                == expected[0]
            any_result = session.check_mutant_any(act, PROPS, 5)
            assert (any_result is SatResult.SAT) == any(expected)
            assert [session.check_mutant(act, clauses, 5).violated
                    for clauses in PROPS] == expected

    def test_retired_mutants_leave_baseline_sound(self):
        """Gates built under a mutant's guard never leak to the baseline:
        mutants go first on a fresh session, the baseline proves after."""
        net = handshake_netlist()
        session = BoundedModelChecker(net)
        by_driver = {}
        for mutation in enumerate_mutations(net):
            by_driver.setdefault(mutation.driver, []).append(mutation)
        for mutations in by_driver.values():
            # Two mutants on the same driver, one after the other.
            for mutation in mutations[:2]:
                act = session.add_mutant(mutation.driver,
                                         mutation.rewritten_driver(net), 5)
                assert [session.check_mutant(act, clauses, 5).violated
                        for clauses in PROPS] \
                    == oneshot_verdicts(net, mutation, PROPS, 5)
                session.retire_mutant(act)
                for clauses in PROPS:
                    assert session.check_invariant_clauses(clauses, 5) \
                        .holds_up_to_bound

    def test_mutant_outside_the_cone_survives_without_solving(
            self, monkeypatch):
        net = handshake_netlist()
        net.add_input("x", 2)
        net.add_wire("prod", 2, BinExpr("*", SigExpr("x"), SigExpr("cnt")))
        net.mark_output("prod")
        net.validate()
        session = BoundedModelChecker(net)
        for clauses in PROPS:
            assert session.check_invariant_clauses(clauses, 5) \
                .holds_up_to_bound
        solves = []
        monkeypatch.setattr(session._cnf.solver, "solve",
                            lambda *args, **kwargs: solves.append(args))
        mutation = next(m for m in enumerate_mutations(net)
                        if m.driver == "prod")
        act = session.add_mutant("prod", mutation.rewritten_driver(net), 5)
        assert session.check_mutant_any(act, PROPS, 5) is SatResult.UNSAT
        assert not any(session.check_mutant(act, clauses, 5).violated
                       for clauses in PROPS)
        assert solves == []
        assert oneshot_verdicts(net, mutation, PROPS, 5) == [False] * 4

    def test_mutant_may_not_read_new_signals(self):
        net = handshake_netlist()
        session = BoundedModelChecker(net)
        with pytest.raises(ValueError):
            session.add_mutant("busy", SigExpr("req"), 3)

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_mutants_match_oneshot(self, seed):
        net, rng = random_netlist(seed)
        properties = random_properties(net, rng)
        session = BoundedModelChecker(net)
        # A spread of drivers, the logic island outside the cone included.
        for mutation in rng.sample(enumerate_mutations(net), 5):
            act = session.add_mutant(mutation.driver,
                                     mutation.rewritten_driver(net), 4)
            expected = oneshot_verdicts(net, mutation, properties, 4)
            assert (session.check_mutant_any(act, properties, 4)
                    is SatResult.SAT) == any(expected)
            assert [session.check_mutant(act, clauses, 4).violated
                    for clauses in properties] == expected
            session.retire_mutant(act)
        oneshot = BoundedModelChecker(net, incremental=False)
        for clauses in properties:
            a = session.check_invariant_clauses(clauses, 4)
            b = oneshot.check_invariant_clauses(clauses, 4)
            assert documents_equal(a.to_dict(), b.to_dict())


class TestPccDifferential:
    def test_reports_match_nonincremental(self):
        net = handshake_netlist()
        fast = PropertyCoverageChecker(net, PROPS, bound=5,
                                       mutation_limit=14).run()
        slow = PropertyCoverageChecker(net, PROPS, bound=5,
                                       mutation_limit=14,
                                       incremental=False).run()
        assert documents_equal(fast.to_dict(), slow.to_dict())
        assert fast.describe() == slow.describe()
        assert [v.killed_by for v in fast.verdicts] \
            == [v.killed_by for v in slow.verdicts]

    def test_pool_matches_serial(self):
        net = handshake_netlist()
        serial = PropertyCoverageChecker(net, PROPS, bound=5,
                                         mutation_limit=10).run()
        pooled = PropertyCoverageChecker(net, PROPS, bound=5,
                                         mutation_limit=10, jobs=2).run()
        assert documents_equal(serial.to_dict(), pooled.to_dict())
        assert [v.killed_by for v in serial.verdicts] \
            == [v.killed_by for v in pooled.verdicts]

    def test_explicit_mutation_list(self):
        net = handshake_netlist()
        mutations = enumerate_mutations(net, limit=8)
        fast = PropertyCoverageChecker(net, PROPS, bound=4) \
            .run(mutations=mutations)
        slow = PropertyCoverageChecker(net, PROPS, bound=4,
                                       incremental=False) \
            .run(mutations=mutations)
        assert documents_equal(fast.to_dict(), slow.to_dict())

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_netlist_reports_match(self, seed):
        net, rng = random_netlist(seed)
        oneshot = BoundedModelChecker(net, incremental=False)
        held = [clauses for clauses in random_properties(net, rng, count=6)
                if not oneshot.check_invariant_clauses(clauses, 4).violated]
        held.append([[("r0", "<=", (1 << net.width_of("r0")) - 1)]])
        fast = PropertyCoverageChecker(net, held, bound=4,
                                       mutation_limit=12).run()
        slow = PropertyCoverageChecker(net, held, bound=4, mutation_limit=12,
                                       incremental=False).run()
        assert documents_equal(fast.to_dict(), slow.to_dict())
        assert [v.killed_by for v in fast.verdicts] \
            == [v.killed_by for v in slow.verdicts]
