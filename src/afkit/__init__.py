"""Exact finitely-staged algebra for AF/Kirchberg K-theory invariants.

Its modules cover integer matrix normal forms and f.g. abelian groups
(``abelian``), staged direct limits (``limits``), Schreier generators
(``schreier``), the torsion-free staged construction with its truncation
verifier (``rordam``), Bratteli diagrams with Shen/EHS realization
(``dimension``), prime-labeled-graph groups (``eplag``), and the invariant
pipeline (``invariants``).  The package exports no names of its own: import
them from their modules, e.g. ``from afkit.invariants import pipeline``, so
that a program loads only the modules it uses.
"""

__version__ = "0.1.0"
