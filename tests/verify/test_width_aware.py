"""Differential tests: width-aware bit-blasting against full-word loops.

Under a folding :class:`Cnf` the :class:`BitVector` word operations and
``BoundedModelChecker._lt_unsigned`` stop at the operands' live bits:
above them every gate has a constant-false input and folds away.  Each
test here runs an operation twice on identical operands with random
constant-false high bits -- once through the library, once through a
reference loop written out below over every bit of the word -- and
requires the same emitted clause list and the same output literals.
The same holds without folding, where every bit is live.
"""

import random

import pytest

from repro.rtl.netlist import Netlist
from repro.verify.cnf import BitVector, Cnf
from repro.verify.mc.bmc import BoundedModelChecker

TRIALS = 150


# -- full-word reference loops -----------------------------------------------------


def ref_add(cnf, a, b):
    carry = cnf.false_lit
    out = []
    for x, y in zip(a, b):
        out.append(cnf.gate_xor(cnf.gate_xor(x, y), carry))
        carry = cnf.gate_or(cnf.gate_and(x, y),
                            cnf.gate_and(carry, cnf.gate_xor(x, y)))
    return out


def ref_sub(cnf, a, b):
    one = [cnf.true_lit] + [cnf.false_lit] * (len(b) - 1)
    return ref_add(cnf, a, ref_add(cnf, [-y for y in b], one))


def ref_mul(cnf, a, b):
    width = len(a)
    acc = [cnf.false_lit] * width
    for i, bit in enumerate(b):
        shifted = ([cnf.false_lit] * i + a)[:width]
        acc = ref_add(cnf, acc, [cnf.gate_and(bit, s) for s in shifted])
    return acc


def ref_lt_unsigned(cnf, a, b):
    result, prefix_eq = cnf.false_lit, cnf.true_lit
    for x, y in zip(reversed(a), reversed(b)):
        here = cnf.gate_and(prefix_eq, cnf.gate_and(-x, y))
        result = cnf.gate_or(result, here)
        prefix_eq = cnf.gate_and(prefix_eq, cnf.gate_eq(x, y))
    return result


def _checker():
    net = Netlist("lt")
    net.add_input("x", 1)
    net.add_wire("y", 1, net.add_input("z", 1))
    return BoundedModelChecker(net)


OPS = {
    "add": (lambda a, b, s: a.add(b).bits, ref_add),
    "sub": (lambda a, b, s: a.sub(b).bits, ref_sub),
    "mul": (lambda a, b, s: a.mul(b).bits, ref_mul),
    "and": (lambda a, b, s: a.bit_and(b).bits,
            lambda c, a, b: [c.gate_and(x, y) for x, y in zip(a, b)]),
    "or": (lambda a, b, s: a.bit_or(b).bits,
           lambda c, a, b: [c.gate_or(x, y) for x, y in zip(a, b)]),
    "xor": (lambda a, b, s: a.bit_xor(b).bits,
            lambda c, a, b: [c.gate_xor(x, y) for x, y in zip(a, b)]),
    "eq": (lambda a, b, s: [a.eq(b)],
           lambda c, a, b: [c.gate_and_many([c.gate_eq(x, y)
                                             for x, y in zip(a, b)])]),
    "ite": (lambda a, b, s: a.ite(s, b).bits, None),
    "is_zero": (lambda a, b, s: [a.is_zero()],
                lambda c, a, b: [-c.gate_or_many(a)]),
    "is_nonzero": (lambda a, b, s: [a.is_nonzero()],
                   lambda c, a, b: [c.gate_or_many(a)]),
    "lt_unsigned": (lambda a, b, s: [_checker()._lt_unsigned(a, b, a.cnf)],
                    lambda c, a, b: [ref_lt_unsigned(c, a, b)]),
}


def _operand_plan(rng, width, pool):
    """Bit sources for one operand: live low bits, constant-false above."""
    live = rng.randint(0, width)
    plan = []
    for __ in range(live):
        kind = rng.random()
        if kind < 0.15:
            plan.append(("const", rng.random() < 0.5))
        else:
            plan.append(("var", rng.randrange(pool), rng.random() < 0.3))
    return plan + [("const", False)] * (width - live)


def _materialise(cnf, plan, variables):
    bits = []
    for entry in plan:
        if entry[0] == "const":
            bits.append(cnf.const(entry[1]))
        else:
            __, index, negated = entry
            bits.append(-variables[index] if negated else variables[index])
    return bits


def _sel_plan(rng, pool):
    roll = rng.random()
    if roll < 0.2:
        return ("const", roll < 0.1)
    return ("var", rng.randrange(pool), rng.random() < 0.5)


@pytest.mark.parametrize("fold", [True, False], ids=["fold", "plain"])
@pytest.mark.parametrize("op", sorted(OPS))
def test_matches_full_word_reference(op, fold):
    library, reference = OPS[op]
    rng = random.Random(f"width-aware-{op}-{fold}")
    checked_live = 0
    for __ in range(TRIALS):
        width = rng.randint(1, 10)
        pool = rng.randint(1, 6)
        plans = (_operand_plan(rng, width, pool), _operand_plan(rng, width, pool),
                 _sel_plan(rng, pool))
        outputs, streams = [], []
        for use_library in (True, False):
            cnf = Cnf(fold=fold)
            variables = [cnf.new_var() for __ in range(pool)]
            a = _materialise(cnf, plans[0], variables)
            b = _materialise(cnf, plans[1], variables)
            sel = _materialise(cnf, [plans[2]], variables)[0]
            start = len(cnf.clauses)
            if use_library:
                out = library(BitVector(cnf, a), BitVector(cnf, b), sel)
            elif reference is None:  # ite
                out = [cnf.gate_ite(sel, x, y) for x, y in zip(a, b)]
            else:
                out = reference(cnf, a, b)
            outputs.append(out)
            streams.append(cnf.clauses[start:])
        assert outputs[0] == outputs[1]
        assert streams[0] == streams[1]
        checked_live += bool(streams[0])
    # The operands must have exercised real (clause-emitting) logic.
    assert checked_live > TRIALS // 4


def test_live_counts_constant_false_tail_only_when_folding():
    folded = Cnf(fold=True)
    x = folded.new_var()
    vec = BitVector(folded, [x, folded.false_lit, folded.true_lit,
                             folded.false_lit, folded.false_lit])
    assert vec.live() == 3
    assert BitVector.constant(folded, 0, 6).live() == 0
    plain = Cnf()
    assert BitVector.constant(plain, 0, 6).live() == 6
