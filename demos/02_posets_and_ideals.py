"""
Posets, order ideals, and poset weights
=======================================

A poset on the coordinate set changes what "weight" means: the weight of
a word is the size of the smallest downward-closed set containing its
support.  The antichain recovers Hamming weight; a chain counts
everything below the top nonzero position.
"""

from posetcode import Poset, poset_weight

# the V-shaped order 1 < 3, 2 < 3 on three elements
v = Poset.from_cover_relations(3, [(1, 3), (2, 3)])
print(f"poset: {v}")
print("ideals by mask (bit j-1 is element j):")
for ideal in v.ideals():
    print(f"  {ideal:03b}")

# closing a set that contains element 3 pulls in both 1 and 2
closure = v.ideal_closure(0b100)
print(f"closure of {{3}}: {closure:03b}")

# the maximal elements of an ideal are the ones that can be dropped
# while keeping it an ideal
for ideal in (0b011, 0b111):
    print(f"maximal elements of {ideal:03b}: {v.maximal_elements(ideal):03b}")

# the same word weighs differently under different orders
word = (0, 1, 1, 0)
chain = Poset.chain(4)
anti = Poset.antichain(4)
print(f"\nword {word}")
print(f"  Hamming (antichain) weight: {poset_weight(anti, word)}")
print(f"  chain weight:               {poset_weight(chain, word)}")

# duality reverses all relations; ideals of the dual are complements
# of ideals of the original
print(f"\nchain ideals:      {[f'{j:04b}' for j in chain.ideals()]}")
print(f"dual chain ideals: {[f'{j:04b}' for j in chain.dual().ideals()]}")
