"""
Prefix codes from the ground up
===============================

A codeword set is usable on a shared channel only if no codeword is the
start of another. The Kraft sum tells you in one number whether a set of
lengths can be realized that way, and Huffman's procedure then builds the
cheapest realization for a given symbol distribution.
"""

from prefixcast import (
    CodeLengthSet,
    ProbabilityMassFunction,
    arithmetic_progression_satisfies_kraft,
    code_from_lengths,
    consecutive_lengths_sum,
    expected_length,
    huffman_code,
    kraft_alphabet_monotonicity,
    kraft_sum,
    satisfies_kraft,
    shannon_entropy,
)

# Three binary lengths 1, 2, 3. The sum 1/2 + 1/4 + 1/8 leaves room to spare.
lengths = CodeLengthSet((1, 2, 3), alphabet_size=2)
print("lengths (1,2,3) at D=2")
print("  kraft sum", kraft_sum(lengths))
print("  feasible?", satisfies_kraft(lengths))

# Consecutive lengths 1..M always fit, and the closed form says by how much.
for m in (1, 3, 8, 20):
    print(f"  consecutive 1..{m:2d} sums to {consecutive_lengths_sum(1, m, 2):.12f}")

# Arithmetic progressions of lengths fit too, for any start and step.
total, ok = arithmetic_progression_satisfies_kraft(2, 3, 6, 2)
print("progression 2,5,8,...,17:", f"sum {total:.6f}", "feasible" if ok else "infeasible")

# A feasible set stays feasible when the channel alphabet grows. Each term
# D^-n only shrinks as D grows, so the sum can only move away from 1.
print("same lengths at D'=3..6:",
      [kraft_alphabet_monotonicity(lengths, d) for d in range(3, 7)])

# From lengths to an actual code. Canonical assignment, nothing clever.
code = code_from_lengths(lengths, labels=("stop", "left", "right"))
for label, path in code.assignments.items():
    print(f"  {label:>5} -> {''.join(map(str, path))}")

print()

# Now the optimization half. Take a skewed four-symbol source.
pmf = ProbabilityMassFunction.from_pairs(
    (("a", 0.4), ("b", 0.3), ("c", 0.2), ("d", 0.1))
)

for d in (2, 3):
    code = huffman_code(pmf, d)
    avg = expected_length(code, pmf)
    h = shannon_entropy(pmf, base=float(d))
    print(f"huffman at D={d}")
    for label, p in pmf.entries:
        print(f"  {label} {''.join(map(str, code.assignments[label]))}  (p={p})")
    # expected length always lands inside [H_D, H_D + 1)
    print(f"  expected length {avg:.4f}, entropy {h:.4f}")
