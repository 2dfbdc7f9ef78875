"""Shape-constrained regression and data validation toolkit.

Fits polynomial, symbolic, and boosted-tree regressors under shape
constraints (bounds on the model value and its first or second partial
derivatives over a box), certifies fitted polynomials by Bernstein
subdivision, and classifies measurement datasets as valid or invalid by
thresholding per-segment training error.
"""

from .certify import CertificationReport, ConstraintCertificate, certify
from .constraints import ConstraintSpec, ShapeConstraint, parse_constraints
from .datasets import Dataset, load_csv, scale_unit
from .errors import (
    ArityError,
    BudgetError,
    ConfigError,
    DataError,
    DegenerateError,
    DomainError,
    GridError,
    InfeasibleError,
    ParseError,
    SchemaError,
    ShapeguardError,
    SolverError,
)
from .gbt import GBTConfig, GBTEnsemble, fit_gbt, monotonicity_audit, predict_gbt
from .intervals import Interval
from .poly import MultiIndex, PolyModel, monomial_basis
from .scpr import (
    FitReport,
    SCPRConfig,
    build_design_matrix,
    compile_constraints,
    fit_constrained,
    fit_unconstrained,
    solve_elastic_net,
)
from .scsr import (
    GAConfig,
    GenerationRecord,
    check_constraints,
    eval_tree,
    eval_tree_columns,
    evolve,
    tree_from_json,
    tree_to_infix,
    tree_to_json,
)
from .synth import friction_generating_model, make_corpus, synth_generate
from .validation import (
    RocCurve,
    Segment,
    ValidationConfig,
    ValidationReport,
    classify,
    grid_search,
    roc,
    score_segments,
    segment,
    validate_corpus,
    validate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "BudgetError",
    "CertificationReport",
    "ConfigError",
    "ConstraintCertificate",
    "ConstraintSpec",
    "DataError",
    "Dataset",
    "DegenerateError",
    "DomainError",
    "FitReport",
    "GAConfig",
    "GBTConfig",
    "GBTEnsemble",
    "GenerationRecord",
    "GridError",
    "InfeasibleError",
    "Interval",
    "MultiIndex",
    "ParseError",
    "PolyModel",
    "RocCurve",
    "SCPRConfig",
    "SchemaError",
    "Segment",
    "ShapeConstraint",
    "ShapeguardError",
    "SolverError",
    "ValidationConfig",
    "ValidationReport",
    "build_design_matrix",
    "certify",
    "check_constraints",
    "classify",
    "compile_constraints",
    "eval_tree",
    "eval_tree_columns",
    "evolve",
    "fit_constrained",
    "fit_gbt",
    "fit_unconstrained",
    "friction_generating_model",
    "grid_search",
    "load_csv",
    "make_corpus",
    "monomial_basis",
    "monotonicity_audit",
    "parse_constraints",
    "predict_gbt",
    "roc",
    "scale_unit",
    "score_segments",
    "segment",
    "solve_elastic_net",
    "synth_generate",
    "tree_from_json",
    "tree_to_infix",
    "tree_to_json",
    "validate_corpus",
    "validate_dataset",
]
