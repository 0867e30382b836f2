"""The fixed-point construction, end to end on one worked example.

Start with a special matching M on a bounded poset and an automorphism
phi. Conjugating M by the powers of phi gives a family of special
matchings; the connected components of their union have unique minima
and maxima; every phi-fixed point sits at an extremum of its component
and gets matched to the opposite one. The result is a special matching
on the fixed-point subposet.

    python demos/03_fixed_points.py
"""

import json

from zircons import (
    build_coxeter,
    component_extrema,
    descent_matching,
    fixed_point_matching,
    fixed_point_report,
    fixed_point_subposet,
    greedy_descend,
    is_zircon,
    matching_family,
    matching_pairs,
    orbit_component,
)
from zircons.posets import PosetMap

# The running example: the Bruhat order of the rank-2 symmetric group
# (6 elements), its flip symmetry, and multiplication by s1.
W = build_coxeter("A2")
P = W.bruhat_poset()
M = descent_matching(W, W.longest_element(), "s1", "right")
flip = PosetMap(
    P,
    {
        "e": "e",
        "s1": "s2",
        "s2": "s1",
        "s1.s2": "s2.s1",
        "s2.s1": "s1.s2",
        "s1.s2.s1": "s1.s2.s1",
    },
)

print("base matching:", matching_pairs(M))
family = matching_family(P, M, flip)
print("automorphism order:", family.order)
# The members are index tuples: member[i] is the index matched to element i.
for k, member in enumerate(family.members, start=1):
    labels = {P.elements[i]: P.elements[j] for i, j in enumerate(member)}
    print(f"conjugate M_{k}:", matching_pairs(labels))

# The two conjugates connect the whole hexagon into one component.
component = orbit_component(P, family, "e")
print("component of e:", sorted(component, key=P.index))
print("extrema:", component_extrema(P, component))

# Walking down along any of the matchings always lands on the component
# minimum, whatever order the matchings are tried in.
print("greedy descent from the top:", greedy_descend(P, family, "s1.s2.s1", "down"))

# The fixed points of the flip are the bottom and top; the induced
# matching pairs them, and the construction re-verifies specialness.
sub = fixed_point_subposet(P, flip)
print("fixed-point subposet:", sub.elements, "covers:", sub.covers)
print("induced matching:", matching_pairs(fixed_point_matching(P, M, flip)))
print("fixed points of a zircon stay a zircon:", is_zircon(sub))

print("\nfull report:")
print(json.dumps(fixed_point_report(P, M, flip), indent=2))
