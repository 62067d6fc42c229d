#!/usr/bin/env python3
"""Parsing rules and proving them over a whole vocabulary at once.

A six-word world: the target concept is "classroom", the knowledge graph
knows that "learning" relates to it.  The prover returns one truth value per
vocabulary word in a single call; a scalar word-by-word prover cross-checks.
"""

from logicdec import (Domain, EvalContext, FactBase, Vocabulary,
                      parse_program, pretty, prove, prove_scalar)

vocab = Vocabulary(["<s>", "learning", "classroom", "students", "enjoy", "fun"])
facts = FactBase.from_edges(
    vocab, [(vocab.id_of("learning"), vocab.id_of("classroom"), 1.0)], mode="hard")

program = parse_program("""
# favour words related to an uncovered target concept
R(x) :- exists c in C, ~Y(c) ^ Rel(x, c)
Rel(x, y) :- Edge(x, y) | Equal(x, y)
Y(x) :- exists y in Prev, Equal(x, y)
""")

print("parsed body of R:", pretty(program.rules["R"].body))

ctx = EvalContext(facts=facts,
                  sets={"C": (vocab.id_of("classroom"),),
                        "Prev": (vocab.id_of("<s>"),)})

print("the quantifier ranges over C =", [vocab.token(t) for t in ctx.sets["C"]],
      "(exists: capped sum over the elements; forall: their mean)")

truth = prove(program, "R", Domain.vocabulary(facts), ctx)
print("\ntruth over the vocabulary:", truth)
truth = truth.dense()
for tid in range(len(vocab)):
    marker = " <-- edge to the target" if vocab.token(tid) == "learning" else ""
    print(f"  {vocab.token(tid):<10} {truth[tid]:.2f}{marker}")

print("\nscalar oracle agrees word by word:")
print([round(prove_scalar(program, "R", w, ctx), 2) for w in range(len(vocab))])

# once the concept is covered, the gate closes
covered = EvalContext(facts=facts,
                      sets={"C": (vocab.id_of("classroom"),),
                            "Prev": (vocab.id_of("<s>"), vocab.id_of("classroom"))})
print("\nafter generating 'classroom' the boost fades:")
print(prove(program, "R", Domain.vocabulary(facts), covered).dense().round(2))
