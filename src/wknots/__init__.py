"""Exact computational toolkit for w-braids and w-knots.

Modules
-------
rational / rings / linalg
    Exact arithmetic: rationals (stdlib fractions), Laurent polynomials,
    truncated power series, sparse echelon reduction, and exact
    determinants.
freegroup / wbraid
    Words and automorphisms of free groups; w-braid words, their action
    on the free group (which solves the word problem), strand deletion
    and cloning, and the defining relation table.
gauss
    Long-knot Gauss diagrams, planar-diagram (PD) codes, braid closures,
    and the knot moves (R1s/R2/R3, virtual moves, overcrossings commute).
arrows / jacobi
    Arrow-diagram algebras graded by degree, the TC/4T/6T/RI/FI/CC
    relations, quotient spaces with deterministic projections, trivalent
    diagrams, wheels, and the STU-style elimination.
alexander
    The Alexander polynomial two ways: a determinant formula on Gauss
    diagrams and a Fox-calculus evaluation on PD codes.
expansion
    The degree-truncated universal invariant Z for w-braids and w-knots,
    wheel-coordinate reduction, and the Alexander-to-wheels bridge.
lieweights
    Weight systems into U(g* >< g) built from Lie structure constants.
cli / checks
    Command-line entry point and the cross-module verification suites.
"""

__version__ = "0.1.0"
