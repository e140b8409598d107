"""
Markings of the length-8 Hamming code
=====================================

A marking splits the 8 coordinates into 4 unordered pairs.  The code's
automorphism group permutes the 105 markings; the orbits of that action
are what distinguish inequivalent frame structures built on the code.
"""

from vftk import classify_markings, hamming_code

code = hamming_code()
orbits, aut_order = classify_markings(code)

print(f"code: length {code.length}, dimension {code.dim}")
print(f"automorphism group order: {aut_order}")
print(f"markings: {sum(size for _, size in orbits)} in {len(orbits)} orbits")
print()
for rep, size in orbits:
    pairs = " ".join(f"({i}{j})" for i, j in rep.pairs)
    print(f"  orbit of size {size:>3}: representative {pairs}")

# orbit sizes divide the group order (orbit-stabilizer)
assert all(aut_order % size == 0 for _, size in orbits)
