"""CNF construction: Tseitin gates and bit-vector arithmetic.

Both formal back-ends (SAT ATPG over the software IR, bounded model
checking over the RTL netlist) reduce to propositional satisfiability.
:class:`Cnf` allocates variables and emits clauses for Boolean gates;
:class:`BitVector` layers two's-complement word operations (add, sub,
comparisons, shifts by constants, bitwise logic, mux) on top via
bit-blasting with ripple-carry adders.

A :class:`Cnf` can run in two modes.  Standalone (the default), it just
collects clauses in :attr:`Cnf.clauses` and :meth:`solve` builds a fresh
solver per call.  Attached -- ``Cnf(solver=SatSolver())`` -- every
clause streams into the incremental solver the moment it is emitted and
is stored there only (:attr:`Cnf.num_clauses` counts them in both
modes), so repeated solves never re-add the clause database and learned
clauses carry over between queries.

:meth:`Cnf.guard` scopes emitted clauses under an activation literal so
a clause group can be enabled per-query (assume the literal) or retired
permanently; :meth:`Cnf.group` adds unguarded clauses that only the
group's queries read.  Both record the variables and clauses created
inside them, and :meth:`Cnf.retire` asserts the group's negated
activation and query literals, then releases those variables and
clauses from the solver (see :meth:`SatSolver.release`).

``fold=True`` shrinks the emitted CNF: gates over constant, equal or
opposite inputs fold away, and the rest are hash-consed on their
normalised inputs, so each distinct AND/XOR/ITE is defined once.  The
:class:`BitVector` word operations are width-aware under folding: a
gate with a constant-false input folds away, so they stop at the
operands' live bits (:meth:`BitVector.live`) and fill the constant-false
high bits directly -- the same literals and the same clauses, without
the Python work of folding each high bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Sequence

from repro.verify.sat import SatResult, SatSolver


class Cnf:
    """A growing CNF with fresh-variable allocation and gate encoders."""

    def __init__(self, solver: Optional[SatSolver] = None,
                 fold: bool = False) -> None:
        #: the clauses emitted so far -- standalone mode only; attached,
        #: every clause lives in the solver alone
        self.clauses: list[list[int]] = []
        #: clauses emitted so far, in either mode
        self.num_clauses = 0
        self.solver = solver
        #: fold gates over constant/equal/opposite inputs and hash-cons
        #: the rest (one output per normalised AND/XOR/ITE input tuple),
        #: instead of emitting fresh Tseitin clauses for every call.
        #: Off by default: folding and hashing change the emitted CNF,
        #: and the one-shot reference paths are pinned clause-for-clause
        #: by the differential suite.
        self.fold = fold
        #: structural-hash table: normalised gate key -> output literal.
        #: Holds only gates defined outside :meth:`guard` (permanent
        #: clauses), so a hit is valid inside and outside any guard.
        self._strash: dict[tuple, int] = {}
        self._guard_lit: Optional[int] = None
        #: activation literal -> (variables, solver clause handles)
        #: created inside its :meth:`guard` / :meth:`group` scopes
        self._groups: dict[int, tuple[list[int], list[list[int]]]] = {}
        #: the record the open scope appends to, if any
        self._record: Optional[tuple[list[int], list[list[int]]]] = None
        self._next_var = solver.num_vars if solver is not None else 0
        #: literal constants: true_lit is a var constrained to 1
        self.true_lit = self.new_var()
        self.add_clause([self.true_lit])

    @property
    def false_lit(self) -> int:
        return -self.true_lit

    def new_var(self) -> int:
        self._next_var += 1
        if self.solver is not None and self.solver.num_vars < self._next_var:
            self.solver.num_vars = self._next_var
        if self._record is not None:
            self._record[0].append(self._next_var)
        return self._next_var

    @property
    def num_vars(self) -> int:
        return self._next_var

    def add_clause(self, literals: Iterable[int]) -> None:
        guard = self._guard_lit
        clause = list(literals) if guard is None else [-guard, *literals]
        self.num_clauses += 1
        if self.solver is None:
            self.clauses.append(clause)
            return
        stored = self.solver.add_clause(clause)
        if stored is not None and self._record is not None:
            self._record[1].append(stored)

    @contextmanager
    def guard(self, activation: int) -> Iterator[int]:
        """Emit clauses guarded by ``activation`` while the context is open.

        Guarded clauses only constrain a solve that assumes
        ``activation``; :meth:`retire` (or the permanent unit
        ``[-activation]``) disables the whole group for good.  The
        variables and clauses created inside are recorded in the
        group of ``activation``.  Guards do not nest.
        """
        with self._scope(activation, activation):
            yield activation

    @contextmanager
    def group(self, activation: int) -> Iterator[int]:
        """Record what is created inside in the group of ``activation``,
        like :meth:`guard`, but emit the clauses unguarded.

        For clauses that only a query of the group reads, such as the
        query clause ``[-q, ...]`` itself: :meth:`retire` makes them
        satisfied by asserting ``-q``.
        """
        with self._scope(activation, None):
            yield activation

    @contextmanager
    def _scope(self, activation: int, guard: Optional[int]) -> Iterator[None]:
        if self._record is not None:
            raise ValueError("guard() does not nest")
        self._guard_lit = guard
        self._record = self._groups.setdefault(activation, ([], []))
        try:
            yield
        finally:
            self._guard_lit = None
            self._record = None

    def retire(self, activation: int, units: Iterable[int] = ()) -> None:
        """Disable the group of ``activation`` for good.

        Asserts ``-activation`` and each of ``units`` (which must make
        the group's unguarded clauses satisfied), then releases the
        group's variables and clauses from the attached solver, which
        never branches on nor propagates through them again.
        """
        self.add_clause([-activation])
        for lit in units:
            self.add_clause([lit])
        variables, clauses = self._groups.pop(activation, ((), ()))
        if self.solver is not None:
            self.solver.release(variables, clauses)

    def const(self, value: bool) -> int:
        return self.true_lit if value else self.false_lit

    # -- gates (each returns the output literal) -------------------------------

    def _hashed(self, key: tuple, emit, *inputs: int) -> int:
        """The output of the gate ``key``: reused if already defined
        outside a guard, else emitted (and remembered when unguarded)."""
        out = self._strash.get(key)
        if out is None:
            out = emit(*inputs)
            if self._guard_lit is None:
                self._strash[key] = out
        return out

    def gate_not(self, a: int) -> int:
        return -a

    def gate_and(self, a: int, b: int) -> int:
        if self.fold:
            true, false = self.true_lit, -self.true_lit
            if a == true:
                return b
            if b == true:
                return a
            if a == false or b == false or a == -b:
                return false
            if a == b:
                return a
            return self._hashed(("&", a, b) if a < b else ("&", b, a),
                                self._emit_and, a, b)
        return self._emit_and(a, b)

    def _emit_and(self, a: int, b: int) -> int:
        out = self.new_var()
        self.add_clause([-out, a])
        self.add_clause([-out, b])
        self.add_clause([out, -a, -b])
        return out

    def gate_or(self, a: int, b: int) -> int:
        return -self.gate_and(-a, -b)

    def gate_xor(self, a: int, b: int) -> int:
        if self.fold:
            true, false = self.true_lit, -self.true_lit
            if a == true:
                return -b
            if a == false:
                return b
            if b == true:
                return -a
            if b == false:
                return a
            if a == b:
                return false
            if a == -b:
                return true
            # xor(a, b) = xor(|a|, |b|) negated once per negative input.
            negate = (a < 0) != (b < 0)
            a, b = abs(a), abs(b)
            out = self._hashed(("^", a, b) if a < b else ("^", b, a),
                               self._emit_xor, a, b)
            return -out if negate else out
        return self._emit_xor(a, b)

    def _emit_xor(self, a: int, b: int) -> int:
        out = self.new_var()
        self.add_clause([-out, a, b])
        self.add_clause([-out, -a, -b])
        self.add_clause([out, -a, b])
        self.add_clause([out, a, -b])
        return out

    def gate_ite(self, sel: int, then_lit: int, else_lit: int) -> int:
        """out = sel ? then : else."""
        if self.fold:
            true, false = self.true_lit, -self.true_lit
            if sel == true:
                return then_lit
            if sel == false:
                return else_lit
            if then_lit == else_lit:
                return then_lit
            if then_lit == true and else_lit == false:
                return sel
            if then_lit == false and else_lit == true:
                return -sel
            if then_lit == true:
                return self.gate_or(sel, else_lit)
            if then_lit == false:
                return self.gate_and(-sel, else_lit)
            if else_lit == true:
                return self.gate_or(-sel, then_lit)
            if else_lit == false:
                return self.gate_and(sel, then_lit)
            if sel < 0:
                sel, then_lit, else_lit = -sel, else_lit, then_lit
            return self._hashed(("?", sel, then_lit, else_lit),
                                self._emit_ite, sel, then_lit, else_lit)
        return self._emit_ite(sel, then_lit, else_lit)

    def _emit_ite(self, sel: int, then_lit: int, else_lit: int) -> int:
        out = self.new_var()
        self.add_clause([-out, -sel, then_lit])
        self.add_clause([-out, sel, else_lit])
        self.add_clause([out, -sel, -then_lit])
        self.add_clause([out, sel, -else_lit])
        return out

    def gate_and_many(self, lits: Sequence[int]) -> int:
        if not lits:
            return self.true_lit
        out = lits[0]
        for lit in lits[1:]:
            out = self.gate_and(out, lit)
        return out

    def gate_or_many(self, lits: Sequence[int]) -> int:
        if not lits:
            return self.false_lit
        out = lits[0]
        for lit in lits[1:]:
            out = self.gate_or(out, lit)
        return out

    def gate_eq(self, a: int, b: int) -> int:
        """out = (a == b) (XNOR)."""
        return -self.gate_xor(a, b)

    def assert_lit(self, lit: int) -> None:
        self.add_clause([lit])

    # -- solving ----------------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = (),
              max_conflicts: int = 2_000_000) -> tuple[SatResult, dict[int, bool]]:
        if self.solver is not None:
            solver = self.solver
            solver.num_vars = max(solver.num_vars, self._next_var)
            result = solver.solve(assumptions, max_conflicts=max_conflicts)
        else:
            solver = SatSolver(max_conflicts=max_conflicts)
            for clause in self.clauses:
                solver.add_clause(clause)
            solver.num_vars = max(solver.num_vars, self._next_var)
            result = solver.solve(assumptions)
        model = solver.model() if result is SatResult.SAT else {}
        return result, model


class BitVector:
    """A little-endian vector of CNF literals (bit 0 = LSB).

    All arithmetic is modular two's complement at the vector width.
    """

    def __init__(self, cnf: Cnf, bits: Sequence[int]):
        if not bits:
            raise ValueError("BitVector needs at least one bit")
        self.cnf = cnf
        self.bits = list(bits)
        self._live: Optional[int] = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def fresh(cls, cnf: Cnf, width: int) -> "BitVector":
        return cls(cnf, [cnf.new_var() for __ in range(width)])

    @classmethod
    def constant(cls, cnf: Cnf, value: int, width: int) -> "BitVector":
        true = cnf.true_lit
        return cls(cnf, [true if (value >> i) & 1 else -true for i in range(width)])

    @property
    def width(self) -> int:
        return len(self.bits)

    def value_in(self, model: dict[int, bool]) -> int:
        """Signed integer value of this vector under ``model``."""
        raw = 0
        for i, lit in enumerate(self.bits):
            bit = model.get(abs(lit), False)
            if lit < 0:
                bit = not bit
            if bit:
                raw |= 1 << i
        if raw & (1 << (self.width - 1)):
            raw -= 1 << self.width
        return raw

    def _check(self, other: "BitVector") -> None:
        if self.width != other.width:
            raise ValueError(f"width mismatch {self.width} != {other.width}")

    def live(self) -> int:
        """How many low bits may differ from the constant false literal.

        Under a folding :class:`Cnf` every gate with a constant input
        folds away unencoded, so the word operations below stop at the
        operands' live bits and fill the rest with the false literal
        their folded gates would have returned: the same literals and
        the same emitted clauses, without the Python work.  Without
        folding every bit is live, and every gate is emitted.
        """
        top = self._live
        if top is None:
            bits = self.bits
            top = len(bits)
            cnf = self.cnf
            if cnf.fold:
                false = -cnf.true_lit
                while top and bits[top - 1] == false:
                    top -= 1
            self._live = top
        return top

    def _pad(self, bits: list[int]) -> "BitVector":
        """``bits`` extended with false literals to this vector's width."""
        return BitVector(self.cnf, bits + [self.cnf.false_lit] * (self.width - len(bits)))

    # -- bitwise ----------------------------------------------------------------------

    def bit_and(self, other: "BitVector") -> "BitVector":
        self._check(other)
        top = min(self.live(), other.live())
        gate = self.cnf.gate_and
        return self._pad([gate(a, b) for a, b in zip(self.bits[:top], other.bits)])

    def bit_or(self, other: "BitVector") -> "BitVector":
        self._check(other)
        top = max(self.live(), other.live())
        gate = self.cnf.gate_or
        return self._pad([gate(a, b) for a, b in zip(self.bits[:top], other.bits)])

    def bit_xor(self, other: "BitVector") -> "BitVector":
        self._check(other)
        top = max(self.live(), other.live())
        gate = self.cnf.gate_xor
        return self._pad([gate(a, b) for a, b in zip(self.bits[:top], other.bits)])

    def bit_not(self) -> "BitVector":
        return BitVector(self.cnf, [-b for b in self.bits])

    # -- arithmetic ------------------------------------------------------------------------

    def add(self, other: "BitVector") -> "BitVector":
        self._check(other)
        cnf = self.cnf
        top = max(self.live(), other.live())
        carry = cnf.false_lit
        out = []
        for a, b in zip(self.bits[:top], other.bits):
            s = cnf.gate_xor(cnf.gate_xor(a, b), carry)
            carry = cnf.gate_or(
                cnf.gate_and(a, b),
                cnf.gate_and(carry, cnf.gate_xor(a, b)),
            )
            out.append(s)
        if top < self.width:
            out.append(carry)  # both operands are false from here on
        return self._pad(out)

    def negate(self) -> "BitVector":
        one = BitVector.constant(self.cnf, 1, self.width)
        return self.bit_not().add(one)

    def sub(self, other: "BitVector") -> "BitVector":
        return self.add(other.negate())

    def mul(self, other: "BitVector") -> "BitVector":
        """Shift-and-add multiplier (modular)."""
        self._check(other)
        cnf = self.cnf
        acc = BitVector.constant(cnf, 0, self.width)
        false = cnf.false_lit
        for i, bit in enumerate(other.bits[:other.live()]):
            if bit == false and cnf.fold:
                continue  # a zero partial product leaves acc as it is
            shifted = self.shift_left_const(i)
            gated = shifted._pad([cnf.gate_and(bit, s)
                                  for s in shifted.bits[:shifted.live()]])
            acc = acc.add(gated)
        return acc

    def shift_left_const(self, amount: int) -> "BitVector":
        amount = max(0, amount)
        bits = [self.cnf.false_lit] * min(amount, self.width) + self.bits
        return BitVector(self.cnf, bits[: self.width])

    def shift_right_const(self, amount: int, arithmetic: bool = True) -> "BitVector":
        amount = max(0, amount)
        fill = self.bits[-1] if arithmetic else self.cnf.false_lit
        bits = self.bits[amount:] + [fill] * min(amount, self.width)
        return BitVector(self.cnf, bits[: self.width])

    # -- comparisons (1-bit results) ----------------------------------------------------------

    def eq(self, other: "BitVector") -> int:
        self._check(other)
        top = max(self.live(), other.live())
        gate = self.cnf.gate_eq
        return self.cnf.gate_and_many([
            gate(a, b) for a, b in zip(self.bits[:top], other.bits)
        ])

    def ne(self, other: "BitVector") -> int:
        return -self.eq(other)

    def lt_signed(self, other: "BitVector") -> int:
        """Signed a < b via sign of (a - b) with overflow correction."""
        cnf = self.cnf
        diff = self.sub(other)
        a_sign, b_sign, d_sign = self.bits[-1], other.bits[-1], diff.bits[-1]
        # overflow = (a_sign != b_sign) && (d_sign != a_sign)
        overflow = cnf.gate_and(cnf.gate_xor(a_sign, b_sign),
                                cnf.gate_xor(d_sign, a_sign))
        return cnf.gate_xor(d_sign, overflow)

    def le_signed(self, other: "BitVector") -> int:
        return self.cnf.gate_or(self.lt_signed(other), self.eq(other))

    def is_zero(self) -> int:
        return -self.is_nonzero()

    def is_nonzero(self) -> int:
        return self.cnf.gate_or_many(self.bits[:self.live()])

    # -- selection ----------------------------------------------------------------------------------

    def ite(self, sel: int, other: "BitVector") -> "BitVector":
        """Per-bit mux: sel ? self : other."""
        self._check(other)
        top = max(self.live(), other.live())
        gate = self.cnf.gate_ite
        return self._pad([gate(sel, a, b)
                          for a, b in zip(self.bits[:top], other.bits)])

    def assert_equals_const(self, value: int) -> None:
        for i, lit in enumerate(self.bits):
            if (value >> i) & 1:
                self.cnf.assert_lit(lit)
            else:
                self.cnf.assert_lit(-lit)
