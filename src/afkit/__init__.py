"""Exact finitely-staged algebra for AF/Kirchberg K-theory invariants.

Subpackages cover integer matrix normal forms and f.g. abelian groups,
staged direct limits, Schreier generators, the torsion-free staged
construction with its truncation verifier, Bratteli diagrams with Shen/EHS
realization, prime-labeled-graph groups, and the invariant pipeline.
"""

from .abelian import (
    FgAbelianGroup,
    IntMatrix,
    LocalizedGroupDescriptor,
    is_n_divisible,
    localize,
    smith_normal_form,
)
from .dimension import (
    BratteliDiagram,
    DiagramEndomorphism,
    OrderedStagedSystem,
    ShenCertificate,
    diagram_to_system,
    ehs_realize,
    ehs_realize_with_endo,
    shen_solve,
    telescope,
    validate_diagram,
    validate_endomorphism,
    verify_shen_certificate,
)
from .eplag import EplagGroup, PrimeLabeledGraph, divisibility_fingerprint, is_P_divisible_sample, membership, tree_to_eplag
from .invariants import (
    KirchbergInvariant,
    crossed_product_invariant,
    d_p_absorbing,
    group_to_invariant,
    kp_isomorphic,
    o_infty_st_absorbing,
    pipeline,
    pv_check,
)
from .limits import (
    LimitElement,
    LimitEndomorphism,
    StagedSystem,
    build_limit_group,
    limit_equal,
    push,
)
from .rordam import RordamPair, rordam_pair, rordam_verify
from .schreier import FreeWord, SubgroupOracle, coset_representative, kernel_oracle, schreier_generators

__version__ = "0.1.0"
