"""Coxeter groups, Bruhat order, descent matchings, twisted involutions.

    python demos/04_coxeter.py
"""

from zircons import (
    are_isomorphic,
    build_coxeter,
    descent_matching,
    fix_subgroup_poset,
    is_zircon,
    matching_pairs,
    rank_function,
    theta_from_spec,
    twisted_involutions,
    twisted_map,
)
from zircons.posets import induced_subposet

# Every preset is a permutation group: A_n permutes 1..n+1, B_n and D_n
# the 2n signed letters +-1..+-n, I2(m) the 2m roots of the dihedral group.
for spec in ("A2", "A3", "B2", "B3", "D4", "I2:5"):
    W = build_coxeter(spec)
    print(f"{spec}: {len(W)} elements, longest word length {W.longest_element().length}")

# Bruhat order: covers come from the lifting property, read off the
# generator tables, and the poset is graded by word length.
A3 = build_coxeter("A3")
B = A3.bruhat_poset()
ranks = rank_function(B)
print("\nBr(A3):", len(B), "elements,", len(B.covers), "covers, graded:", ranks is not None)
print("it is a zircon:", is_zircon(B))

# Multiplying the ideal of any element by one of its descents is a
# special matching on that ideal.
w = A3.element("s1.s2.s3")
print("descents of s1.s2.s3: right", A3.right_descents(w), "left", A3.left_descents(w))
M = descent_matching(A3, w, "s3", "right")
print("descent matching on its ideal:", matching_pairs(M))

# Twisted involutions: elements with theta(w) = w^{-1}. For theta = id
# these are the ordinary involutions; their induced Bruhat poset equals
# the fixed-point subposet of w -> theta(w^{-1}) and is again a zircon.
theta = theta_from_spec(A3, "id")
inv = twisted_involutions(A3, theta)
print("\ninvolutions of A3:", [el.label for el in inv])
twisted = induced_subposet(B, [el.label for el in inv])
fixed = induced_subposet(B, twisted_map(A3, theta).fixed_points())
print("equals fixed-point subposet:", twisted == fixed)
print("zircon:", is_zircon(twisted))

# The subgroup fixed by the diagram flip of A3 carries the Bruhat order
# of B2: the two posets are isomorphic.
flip = theta_from_spec(A3, "flip")
fix_poset = fix_subgroup_poset(A3, flip)
B2 = build_coxeter("B2")
print("\n|Fix(flip)| in A3:", len(fix_poset))
print("isomorphic to Br(B2):", are_isomorphic(fix_poset, B2.bruhat_poset()) is not None)
