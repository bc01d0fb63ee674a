"""
Finite fields and linear codes
==============================

Exact arithmetic in GF(q) for prime powers up to 256, and the basic
moves on a linear code: streaming its codewords, testing membership,
shortening to a coordinate set, and passing to the dual.
"""

from posetcode import LinearCode, gf

# arithmetic in the eight-element field: addition is XOR of polynomial
# encodings, and both operations are lookups in full 8 x 8 tables
F8 = gf(8)
print(f"GF(8): modulus encoding {F8.modulus}, generator {F8.generator}")
print(f"  3 + 5 = {F8.add(3, 5)}")
print(f"  3 * 5 = {F8.mul(3, 5)}")
print(f"  inv(7) = {F8.inv(7)}, check 7 * inv(7) = {F8.mul(7, F8.inv(7))}")

# a [4, 2] binary code: two disjoint repeated pairs
code = LinearCode.from_generator(gf(2), [(1, 1, 0, 0), (0, 0, 1, 1)])
print(f"\n{code}")
print("codewords in message order:")
for word in code.codewords():
    print(f"  {word}")

# membership goes through the parity-check matrix computed at construction
print(f"contains 1111? {code.contains((1, 1, 1, 1))}")
print(f"contains 1000? {code.contains((1, 0, 0, 0))}")

# shortening keeps the words supported inside a coordinate set;
# masks use bit j-1 for coordinate j, so {1, 2} is 0b0011
dim, basis = code.shorten(0b0011)
print(f"shorten to {{1,2}}: dimension {dim}, basis {basis}")

# the dual code is generated by the parity-check rows; this code is self-dual
dual = code.dualize()
print(f"dual generator rows: {dual.generator.rows}")
