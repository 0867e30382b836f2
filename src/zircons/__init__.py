"""Special matchings on finite posets, zircons, and Bruhat-order checks.

The library checks Hultman's theorem that the fixed points of an
automorphism of a zircon form a zircon, with the twisted involutions of
a finite Coxeter group as the main example. Its modules hold poset
plumbing (ideals, intervals, Mobius function, automorphisms), special
matchings and the lifting property, the zircon test and the fixed-point
matching construction, finite Coxeter groups of types A/B/D/I2 with
their Bruhat orders, descent matchings and twisted involutions, a
corpus of small posets, and the sweep over it. Each construction is
tested against an independent brute-force oracle.

The package re-exports each module with one star import, so a module's
``__all__`` is the only list of its public names; a name that only the
tests called is not kept public.
"""

__version__ = "1.0.0"

from .posets import *
from .matchings import *
from .zircon import *
from .coxeter import *
from .corpus import *
from .sweep import *
