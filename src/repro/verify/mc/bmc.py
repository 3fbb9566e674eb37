"""SAT-based bounded model checking of RTL netlists.

Unrolls the netlist's transition relation ``k`` steps into CNF
(bit-blasting expressions at the netlist's uniform word width, matching
interpreted simulation exactly) and asks the CDCL solver for a step
violating an invariant.  A SAT answer yields a concrete counter-example
trace: the model's input values replayed through :meth:`Netlist.step`,
every input, register and wire per cycle up to the first violating one.
UNSAT up to ``k`` is a bounded proof.

Invariants are conjunctions of atomic predicates ``signal <op> const``
over netlist signals — the property shape the paper's level-4 interface
checks use (``AG (handshake consistent)``).

The checker is incremental by default: one attached CNF/solver pair is
kept per :class:`BoundedModelChecker`, and each query solves under an
assumption selecting that property/bound, so learned clauses carry over
across properties, bounds, and (via :meth:`add_mutant`) mutated designs.
The session keeps its CNF small in two ways:

- its :class:`Cnf` folds constant inputs and hash-conses AND/XOR/ITE
  gates, so a gate over the same inputs is defined once; the constant
  high bits of narrow signals are skipped by width-aware word
  operations rather than folded bit by bit;
- its time frames hold only the cone of influence of the properties
  queried so far: the transitive fan-in of the signals they read.  A
  query that reads new signals encodes their cone into every existing
  frame; frames are added as deeper bounds are requested.

A retired mutant cone (:meth:`BoundedModelChecker.retire_mutant`)
leaves the solver: its variables are never decided again and its
clauses are detached from the watch lists.

``incremental=False`` restores the one-shot path that encodes every
signal in every frame and solves once, which the differential
test-suite pins against the incremental one.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.rtl.netlist import (
    BinExpr,
    ConstExpr,
    Expr,
    MuxExpr,
    Netlist,
    SigExpr,
    UnExpr,
)
from repro.verify.cnf import BitVector, Cnf
from repro.verify.sat import SatResult, SatSolver

Atom = tuple[str, str, int]
Clauses = list[list[Atom]]


def property_text(clauses: Clauses) -> str:
    """Canonical display form of a CNF-over-atoms invariant."""
    return " && ".join(
        "(" + " || ".join(f"{n} {op} {v}" for n, op, v in clause) + ")"
        if len(clause) > 1 else
        " || ".join(f"{n} {op} {v}" for n, op, v in clause)
        for clause in clauses
    )


@dataclass
class BmcResult:
    """Outcome of one bounded check."""

    property_text: str
    bound: int
    violated: bool
    #: step-indexed signal valuations when violated
    trace: list[dict[str, int]] = field(default_factory=list)
    solver_result: SatResult = SatResult.UNSAT

    @property
    def holds_up_to_bound(self) -> bool:
        return not self.violated and self.solver_result is not SatResult.UNKNOWN

    def to_dict(self) -> dict:
        return {
            "property": self.property_text,
            "bound": self.bound,
            "violated": self.violated,
            "holds_up_to_bound": self.holds_up_to_bound,
            "solver": self.solver_result.name,
        }

    def describe(self) -> str:
        if self.violated:
            lines = [
                f"BMC: {self.property_text} VIOLATED at bound {self.bound}",
                "  counter-example:",
            ]
            for i, step in enumerate(self.trace):
                shown = {k: step[k] for k in sorted(step)}
                lines.append(f"    cycle {i}: {shown}")
            return "\n".join(lines)
        return f"BMC: {self.property_text} holds for all traces of length <= {self.bound}"


_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _key(clauses: Clauses) -> tuple:
    """Hashable identity of a property."""
    return tuple(tuple(clause) for clause in clauses)


def _signals(clauses: Clauses) -> set[str]:
    """The signals a property reads."""
    return {name for clause in clauses for name, __, __ in clause}


@dataclass
class _MutantCone:
    """Incremental state for one mutated design sharing the baseline CNF."""

    act: int                       # activation literal guarding the cone
    driver: str                    # mutated wire or register name
    expr: Expr                     # rewritten driver expression
    #: per-frame overlay on the baseline frame: the signals whose value
    #: can differ from the baseline, re-encoded under ``act``
    envs: list[dict[str, BitVector]] = field(default_factory=list)
    #: (property key, frame) -> violation literal
    viol: dict = field(default_factory=dict)
    #: (property key, bound) -> query literal
    query: dict = field(default_factory=dict)


class BoundedModelChecker:
    """BMC engine for one netlist."""

    def __init__(self, netlist: Netlist, incremental: bool = True):
        netlist.validate()
        self.netlist = netlist
        self.word = netlist.word_width
        self.incremental = incremental
        #: every signal in the order a frame encodes it: registers (from
        #: the previous frame), then inputs, then wires in dependency order
        self._encode_order = [*netlist.registers, *netlist.inputs,
                              *netlist.wire_order()]
        #: signal -> the signals its per-frame value is computed from
        self._reads = {name: expr.refs()
                       for name, (__, expr) in netlist.wires.items()}
        self._reads.update((reg.name, reg.next_expr.refs())
                           for reg in netlist.registers.values())
        # Incremental session state (lazily built on the first query):
        self._cnf: Optional[Cnf] = None
        #: signals the session encodes: the transitive fan-in of every
        #: signal a query has read so far (cone of influence)
        self._cone: set[str] = set()
        self._frames: list[dict[str, BitVector]] = []
        self._viol: dict = {}      # (property key, frame) -> violation literal
        self._query: dict = {}     # (property key, bound) -> query literal
        #: property key -> deepest bound proved on the baseline design
        self._proved: dict = {}
        self._mutants: dict[int, _MutantCone] = {}

    # -- expression bit-blasting ---------------------------------------------------

    def _blast(self, expr: Expr, env: Mapping[str, BitVector],
               cnf: Cnf) -> BitVector:
        word = self.word
        if isinstance(expr, ConstExpr):
            value = expr.value & ((1 << expr.width) - 1)
            return BitVector.constant(cnf, value, word)
        if isinstance(expr, SigExpr):
            return env[expr.name]
        if isinstance(expr, UnExpr):
            operand = self._blast(expr.operand, env, cnf)
            if expr.op == "~":
                return operand.bit_not()
            bit = operand.is_zero()
            return self._bool_to_vec(bit, cnf)
        if isinstance(expr, MuxExpr):
            sel = self._blast(expr.sel, env, cnf).is_nonzero()
            then = self._blast(expr.then, env, cnf)
            other = self._blast(expr.other, env, cnf)
            return then.ite(sel, other)
        if isinstance(expr, BinExpr):
            left = self._blast(expr.left, env, cnf)
            right = self._blast(expr.right, env, cnf)
            return self._blast_binop(expr.op, left, right, expr.right, cnf)
        raise TypeError(f"cannot bit-blast {expr!r}")  # pragma: no cover

    def _blast_binop(self, op: str, left: BitVector, right: BitVector,
                     right_expr: Expr, cnf: Cnf) -> BitVector:
        if op == "+":
            return left.add(right)
        if op == "-":
            return left.sub(right)
        if op == "*":
            return left.mul(right)
        if op == "&":
            return left.bit_and(right)
        if op == "|":
            return left.bit_or(right)
        if op == "^":
            return left.bit_xor(right)
        if op in ("<<", ">>"):
            if not isinstance(right_expr, ConstExpr):
                raise TypeError("BMC supports shifts by constants only")
            amount = right_expr.value
            if op == "<<":
                return left.shift_left_const(amount)
            return left.shift_right_const(amount, arithmetic=False)
        if op == "==":
            return self._bool_to_vec(left.eq(right), cnf)
        if op == "!=":
            return self._bool_to_vec(left.ne(right), cnf)
        if op == "<":
            return self._bool_to_vec(self._lt_unsigned(left, right, cnf), cnf)
        if op == "<=":
            lt = self._lt_unsigned(left, right, cnf)
            return self._bool_to_vec(cnf.gate_or(lt, left.eq(right)), cnf)
        raise TypeError(f"cannot bit-blast operator {op!r}")  # pragma: no cover

    def _lt_unsigned(self, left: BitVector, right: BitVector, cnf: Cnf) -> int:
        """Unsigned comparison via MSB-first prefix equality."""
        result = cnf.false_lit
        prefix_eq = cnf.true_lit
        # Above both operands' live bits every gate below folds away.
        top = max(left.live(), right.live())
        for a, b in zip(reversed(left.bits[:top]), reversed(right.bits[:top])):
            here = cnf.gate_and(prefix_eq, cnf.gate_and(-a, b))
            result = cnf.gate_or(result, here)
            prefix_eq = cnf.gate_and(prefix_eq, cnf.gate_eq(a, b))
        return result

    def _bool_to_vec(self, bit: int, cnf: Cnf) -> BitVector:
        bits = [bit] + [cnf.false_lit] * (self.word - 1)
        return BitVector(cnf, bits)

    # -- unrolling ------------------------------------------------------------------------

    def _fresh_input(self, cnf: Cnf, width: int) -> BitVector:
        vec = BitVector.fresh(cnf, self.word)
        # Constrain bits above the declared input width to zero.
        for bit in vec.bits[width:]:
            cnf.assert_lit(-bit)
        return vec

    def _frame(self, cnf: Cnf, regs: dict[str, BitVector]
               ) -> tuple[dict[str, BitVector], dict[str, BitVector]]:
        """One whole time frame: free inputs + wires; returns (env, next regs)."""
        env: dict[str, BitVector] = dict(regs)
        for name, width in self.netlist.inputs.items():
            env[name] = self._fresh_input(cnf, width)
        for name in self.netlist.wire_order():
            width, expr = self.netlist.wires[name]
            value = self._blast(expr, env, cnf)
            env[name] = self._truncate(value, width, cnf)
        nxt: dict[str, BitVector] = {}
        for reg in self.netlist.registers.values():
            value = self._blast(reg.next_expr, env, cnf)
            nxt[reg.name] = self._truncate(value, reg.width, cnf)
        return env, nxt

    def _truncate(self, vec: BitVector, width: int, cnf: Cnf) -> BitVector:
        if width >= self.word:
            return vec
        bits = vec.bits[:width] + [cnf.false_lit] * (self.word - width)
        return BitVector(cnf, bits)

    def _reset_regs(self, cnf: Cnf) -> dict[str, BitVector]:
        return {
            reg.name: BitVector.constant(cnf, reg.reset, self.word)
            for reg in self.netlist.registers.values()
        }

    # -- incremental session: cone-of-influence sliced frames ------------------

    def _grow(self, signals: Iterable[str], bound: int) -> None:
        """Encode the fan-in cone of ``signals`` in frames ``0..bound``.

        Signals new to the cone are first encoded into every existing
        frame, baseline and live mutant cones alike, in frame order; the
        frames up to ``bound`` are then added over the whole cone.
        """
        if self._cnf is None:
            self._cnf = Cnf(solver=SatSolver(), fold=True)
        new: set[str] = set()
        stack = [name for name in signals if name not in self._cone]
        while stack:
            name = stack.pop()
            if name not in new and name not in self._cone:
                new.add(name)
                stack.extend(self._reads.get(name, ()))
        if new:
            self._cone |= new
            for frame in range(len(self._frames)):
                self._encode(frame, new)
            for cone in self._mutants.values():
                for frame in range(len(cone.envs)):
                    self._encode_mutant(cone, frame, new)
        while len(self._frames) <= bound:
            self._frames.append({})
            self._encode(len(self._frames) - 1, self._cone)

    def _encode(self, frame: int, names: set[str]) -> None:
        """Encode ``names`` into baseline ``frame``.

        ``names`` together with what the frame already holds is closed
        under fan-in, so every signal an expression reads is encoded
        before it: registers read the previous frame, wires this one.
        """
        cnf = self._cnf
        netlist = self.netlist
        env = self._frames[frame]
        for name in self._encode_order:
            if name not in names:
                continue
            if name in netlist.registers:
                reg = netlist.registers[name]
                if frame == 0:
                    env[name] = BitVector.constant(cnf, reg.reset, self.word)
                    continue
                value = self._blast(reg.next_expr, self._frames[frame - 1], cnf)
                env[name] = self._truncate(value, reg.width, cnf)
            elif name in netlist.inputs:
                env[name] = self._fresh_input(cnf, netlist.inputs[name])
            else:
                width, expr = netlist.wires[name]
                env[name] = self._truncate(self._blast(expr, env, cnf),
                                           width, cnf)

    def _viol_lit(self, key, clauses: Clauses, frame: int) -> int:
        lit = self._viol.get((key, frame))
        if lit is None:
            lit = self._violation_lit_clauses(clauses, self._frames[frame],
                                              self._cnf)
            self._viol[(key, frame)] = lit
        return lit

    @staticmethod
    def _validate_clauses(clauses: Clauses, netlist: Netlist) -> None:
        for clause in clauses:
            if not clause:
                raise ValueError("empty clause is unsatisfiable")
            for name, op, __ in clause:
                if op not in _OPS:
                    raise ValueError(f"bad operator {op!r}")
                netlist.width_of(name)  # raises on unknown signal

    @property
    def cnf_size(self) -> tuple[int, int]:
        """``(variables, clauses)`` the incremental session has emitted."""
        if self._cnf is None:
            return 0, 0
        return self._cnf.num_vars, self._cnf.num_clauses

    # -- checking ----------------------------------------------------------------------------

    def check_invariant(
        self,
        atoms: list[Atom],
        bound: int,
        max_conflicts: int = 2_000_000,
    ) -> BmcResult:
        """Check the invariant ``AND(signal op const)`` for ``bound`` steps."""
        return self.check_invariant_clauses([[a] for a in atoms], bound,
                                            max_conflicts)

    def check_invariant_clauses(
        self,
        clauses: Clauses,
        bound: int,
        max_conflicts: int = 2_000_000,
    ) -> BmcResult:
        """Check an invariant in CNF over atoms: AND over clauses of
        OR over ``(signal, op, const)`` atoms.

        Implications are written as clauses: ``a -> b`` is
        ``[negate(a), b]``.  Returns a violation trace if some reachable
        step within the bound falsifies any clause.
        """
        self._validate_clauses(clauses, self.netlist)
        text = property_text(clauses)
        if not self.incremental:
            return self._check_oneshot(clauses, bound, max_conflicts, text)

        key = _key(clauses)
        self._grow(_signals(clauses), bound)
        cnf = self._cnf
        violation_lits = [self._viol_lit(key, clauses, i)
                          for i in range(bound + 1)]
        query = self._query.get((key, bound))
        if query is None:
            query = cnf.new_var()
            cnf.add_clause([-query] + violation_lits)
            self._query[(key, bound)] = query

        result, model = cnf.solve(assumptions=[query],
                                  max_conflicts=max_conflicts)
        if result is SatResult.UNSAT:
            self._proved[key] = max(bound, self._proved.get(key, -1))
            return BmcResult(text, bound, violated=False)
        if result is SatResult.UNKNOWN:
            return BmcResult(text, bound, violated=False,
                             solver_result=SatResult.UNKNOWN)
        trace = self._replay(clauses, self._frames[:bound + 1], model)
        return BmcResult(text, bound, violated=True, trace=trace,
                         solver_result=SatResult.SAT)

    def _check_oneshot(self, clauses: Clauses, bound: int,
                       max_conflicts: int, text: str) -> BmcResult:
        """The non-incremental path: encode, solve and throw away."""
        cnf = Cnf()
        regs = self._reset_regs(cnf)
        violation_lits: list[int] = []
        frames: list[dict[str, BitVector]] = []
        for __ in range(bound + 1):
            env, next_regs = self._frame(cnf, regs)
            frames.append(env)
            violation_lits.append(self._violation_lit_clauses(clauses, env, cnf))
            regs = next_regs
        cnf.add_clause(violation_lits)

        result, model = cnf.solve(max_conflicts=max_conflicts)
        if result is SatResult.UNSAT:
            return BmcResult(text, bound, violated=False)
        if result is SatResult.UNKNOWN:
            return BmcResult(text, bound, violated=False,
                             solver_result=SatResult.UNKNOWN)
        trace = self._replay(clauses, frames, model)
        return BmcResult(text, bound, violated=True, trace=trace,
                         solver_result=SatResult.SAT)

    def _replay(self, clauses: Clauses, frames: list[dict[str, BitVector]],
                model: dict[int, bool]) -> list[dict[str, int]]:
        """The counter-example: the model's inputs replayed on the netlist.

        Simulation values every input, register and wire exactly, also
        those outside an encoded cone (whose inputs read 0); the trace
        ends at the first cycle that violates ``clauses``.
        """
        netlist = self.netlist
        state = netlist.reset_state()
        trace = []
        for env in frames:
            inputs = {name: env[name].value_in(model) if name in env else 0
                      for name in netlist.inputs}
            state, values = netlist.step(state, inputs)
            trace.append(values)
            if self._violated_in(clauses, values):
                break
        return trace

    # -- mutant cones -------------------------------------------------------------------

    def add_mutant(self, driver: str, expr: Expr, bound: int) -> int:
        """Encode a mutated design's diff cone under an activation literal.

        ``driver`` is the mutated wire or register (next-value) name and
        ``expr`` its rewritten expression, which may read only signals
        the original expression reads (every PCC mutation operator
        rewrites in place).  Only cone-of-influence signals whose value
        can differ from the baseline are re-encoded, per frame, guarded
        by a fresh activation literal; everything else (inputs, reset
        state, untouched logic) is shared with the baseline unrolling.
        When a later query grows the cone, the new signals are
        re-encoded here too.  Returns the activation literal, the handle
        for :meth:`check_mutant` and :meth:`retire_mutant`.  Requires
        ``incremental=True``.
        """
        if not self.incremental:
            raise ValueError("mutant cones need an incremental checker")
        if driver not in self.netlist.wires \
                and driver not in self.netlist.registers:
            raise ValueError(f"unknown driver {driver!r}")
        if not expr.refs() <= self._reads[driver]:
            raise ValueError(
                f"mutant of {driver!r} reads signals the original does not")
        self._grow((), bound)
        act = self._cnf.new_var()
        cone = _MutantCone(act=act, driver=driver, expr=expr)
        self._mutants[act] = cone
        self._extend_cone(cone, bound)
        return act

    def _extend_cone(self, cone: _MutantCone, bound: int) -> None:
        """Encode the mutant's changed signals for frames up to ``bound``."""
        self._grow((), bound)
        while len(cone.envs) <= bound:
            cone.envs.append({})
            self._encode_mutant(cone, len(cone.envs) - 1, self._cone)

    def _encode_mutant(self, cone: _MutantCone, frame: int,
                       names: set[str]) -> None:
        """Re-encode, under the mutant's guard, the signals of ``names``
        whose value in ``frame`` can differ from the baseline's."""
        cnf = self._cnf
        netlist = self.netlist
        overlay = cone.envs[frame]
        with cnf.guard(cone.act):
            for name in self._encode_order:
                if name not in names or name in netlist.inputs:
                    continue
                if name in netlist.registers:
                    if frame == 0:
                        continue  # reset state is never mutated
                    reg = netlist.registers[name]
                    width, expr, source = reg.width, reg.next_expr, frame - 1
                else:
                    (width, expr), source = netlist.wires[name], frame
                if name == cone.driver:
                    expr = cone.expr
                elif self._reads[name].isdisjoint(cone.envs[source]):
                    continue
                env = ChainMap(cone.envs[source], self._frames[source])
                overlay[name] = self._truncate(self._blast(expr, env, cnf),
                                               width, cnf)

    def _mutant_viol_lits(self, cone: _MutantCone, clauses: Clauses,
                          bound: int) -> list[int]:
        """Per-frame violation literals for one property on one mutant.

        Frames where the mutant changes none of the property's signals
        share the baseline literal, or contribute none at all once the
        baseline has proved the property that deep.
        """
        cnf = self._cnf
        key = _key(clauses)
        signals = _signals(clauses)
        proved = self._proved.get(key, -1)
        violation_lits = []
        for frame in range(bound + 1):
            if not signals.isdisjoint(cone.envs[frame]):
                lit = cone.viol.get((key, frame))
                if lit is None:
                    env = ChainMap(cone.envs[frame], self._frames[frame])
                    with cnf.guard(cone.act):
                        lit = self._violation_lit_clauses(clauses, env, cnf)
                    cone.viol[(key, frame)] = lit
            elif frame > proved:
                lit = self._viol_lit(key, clauses, frame)
            else:
                continue
            violation_lits.append(lit)
        return violation_lits

    def _mutant_solve(self, cone: _MutantCone, query_key,
                      violation_lits: list[int],
                      max_conflicts: int) -> SatResult:
        """Can the mutant make one of ``violation_lits`` true?

        With no literal left to satisfy, the answer is UNSAT unsolved.
        """
        if not violation_lits:
            return SatResult.UNSAT
        cnf = self._cnf
        query = cone.query.get(query_key)
        if query is None:
            with cnf.group(cone.act):
                query = cnf.new_var()
                cnf.add_clause([-query] + violation_lits)
            cone.query[query_key] = query
        solver = cnf.solver
        solver.num_vars = max(solver.num_vars, cnf.num_vars)
        return solver.solve([cone.act, query], max_conflicts=max_conflicts)

    def check_mutant(self, act: int, clauses: Clauses, bound: int,
                     max_conflicts: int = 2_000_000) -> BmcResult:
        """Bounded-check an invariant on the mutant behind ``act``.

        The result carries no trace (PCC only needs the verdict).
        """
        self._validate_clauses(clauses, self.netlist)
        text = property_text(clauses)
        cone = self._mutants[act]
        self._grow(_signals(clauses), bound)
        self._extend_cone(cone, bound)
        violation_lits = self._mutant_viol_lits(cone, clauses, bound)
        result = self._mutant_solve(cone, (_key(clauses), bound),
                                    violation_lits, max_conflicts)
        if result is SatResult.UNKNOWN:
            return BmcResult(text, bound, violated=False,
                             solver_result=SatResult.UNKNOWN)
        return BmcResult(text, bound, violated=result is SatResult.SAT,
                         solver_result=result)

    def check_mutant_any(self, act: int, properties: list[Clauses],
                         bound: int,
                         max_conflicts: int = 2_000_000) -> SatResult:
        """One aggregate query: can the mutant violate ANY of ``properties``?

        UNSAT means the mutant survives the whole set -- the common PCC
        outcome -- for the price of a single solver call.  On SAT the
        caller still runs :meth:`check_mutant` per property to attribute
        the kill; on UNKNOWN it should fall back to per-property checks.
        """
        for clauses in properties:
            self._validate_clauses(clauses, self.netlist)
        cone = self._mutants[act]
        self._grow(set().union(*map(_signals, properties)), bound)
        self._extend_cone(cone, bound)
        all_lits: list[int] = []
        for clauses in properties:
            all_lits.extend(self._mutant_viol_lits(cone, clauses, bound))
        agg_key = ("any", tuple(map(_key, properties)), bound)
        return self._mutant_solve(cone, agg_key, all_lits, max_conflicts)

    def retire_mutant(self, act: int) -> None:
        """Permanently disable a mutant cone.

        Asserts ``-act`` and the negation of each of the cone's query
        literals, which satisfies every clause the cone emitted; the
        solver then stops branching on the cone's variables and drops
        its clauses from the watch lists.
        """
        cone = self._mutants.pop(act)
        self._cnf.retire(act, [-query for query in cone.query.values()])

    def _atom_lit(self, atom: Atom, env: Mapping[str, BitVector],
                  cnf: Cnf) -> int:
        name, op, value = atom
        vec = env[name]
        const = BitVector.constant(cnf, value & ((1 << self.word) - 1), self.word)
        if op == "==":
            return vec.eq(const)
        if op == "!=":
            return vec.ne(const)
        if op == "<":
            return self._lt_unsigned(vec, const, cnf)
        if op == "<=":
            return cnf.gate_or(self._lt_unsigned(vec, const, cnf), vec.eq(const))
        if op == ">":
            return self._lt_unsigned(const, vec, cnf)
        return cnf.gate_or(self._lt_unsigned(const, vec, cnf), vec.eq(const))

    def _violation_lit_clauses(self, clauses, env: Mapping[str, BitVector],
                               cnf: Cnf) -> int:
        """Literal true iff some clause is falsified in this frame."""
        clause_violations = []
        for clause in clauses:
            atom_lits = [self._atom_lit(a, env, cnf) for a in clause]
            clause_violations.append(-cnf.gate_or_many(atom_lits))
        return cnf.gate_or_many(clause_violations)

    @staticmethod
    def _violated_in(clauses, step: dict[str, int]) -> bool:
        import operator
        ops = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
               "<=": operator.le, ">": operator.gt, ">=": operator.ge}
        return any(
            not any(ops[op](step[name], value) for name, op, value in clause)
            for clause in clauses
        )
