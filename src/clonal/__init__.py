"""Simple type theories over abstract clones.

Contexts index families of terms closed under variables and simultaneous
substitution; second-order presentations add binding operators and
equations; free algebras provide the syntax with checkable equational
proof objects; normalization, the finite set model, and the induction
harness run the standard metatheory at desk scale.
"""

from .clones import (
    Budget,
    Clone,
    CloneError,
    CloneHom,
    ContextExtensionClone,
    ProductClone,
    Renaming,
    Substitution,
    TerminalClone,
    VariableClone,
    check_clone_hom,
    check_clone_laws,
    compose_subst,
    context_extension,
    extend_context_hom,
    initial_hom,
    lift_subst,
    weaken_hom,
    weakening,
)
from .equality import EqVerdict, free_equal, normalize_with_trace
from .firstorder import (
    FoPresentation,
    FoSignature,
    RewriteSystem,
    TmClone,
    bool_clone,
    bool_presentation,
    check_fo_derivation,
    enumerate_fo_terms,
    fo_check_term,
    fo_subst,
    global_state_presentation,
    gs_clone,
    gs_rewrite_system,
    monoid_presentation,
    prove_fo_equal,
    rewrite_normalize,
    tm_clone,
)
from .freealgebra import (
    CloneApp,
    FreeAlgebra,
    FreeOp,
    FreeVar,
    check_free_derivation,
    enumerate_free_terms,
    fold_hom,
    free_check_term,
    free_subst,
    unit_hom,
)
from .induction import (
    ClonePredicate,
    assert_conclusion,
    check_induction_hypotheses,
    kripke_relation,
    lift_closed_family,
    lift_open_family,
)
from .nbe import check_normal, nbe_normalize
from .secondorder import (
    Algebra,
    MetaContext,
    SoPresentation,
    SoSignature,
    algebra_product,
    algebra_terminal,
    check_algebra,
    interpret_term,
    so_check_term,
    so_metasubst,
    so_subst,
    stlc_presentation,
)
from .sorts import Context, Sort, SortSet, arrow
from .stlc import (
    adequacy_harness,
    bool_model_hom,
    enumerate_closed_terms,
    eval_closed,
    gs_normalize,
    pure_stlc,
    set_model,
    stlc_bool,
    stlc_gs,
)
from .surface import TheoryBundle, parse_bundle, parse_term, render_free, stock_bundle
from .theories import BaseTheory, booleans, global_state, variables

__version__ = "0.1.0"
