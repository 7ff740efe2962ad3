"""Mutual witness beta-proximity drawings of tree pairs.

Constructions for star, caterpillar, isomorphic-tree and pruned-tree pairs,
together with a brute-force witness-graph oracle, a drawing verifier, JSON
document formats, SVG rendering, and a CLI.
"""

from .errors import (
    DegenerateGeometry,
    DegenerateInput,
    EmptyKeepSet,
    HeightTooSmall,
    InvalidEps,
    InvalidLeafSet,
    InvalidParallelogram,
    InvalidSpec,
    MissingAnnotation,
    MWTreesError,
    NoSafeEps,
    NotACaterpillar,
    NotIsomorphic,
    ParseError,
    SparseViolation,
)
from .geometry import (
    BETA_INF,
    TOL,
    BetaRegion,
    Line,
    Point,
    Segment,
    Wedge,
    WingedParallelogram,
    angle_at,
    beta_disks,
    build_winged_parallelogram,
    linearly_separable,
    region_contains,
    region_margin,
    rotate_about,
    wedge_contains,
)
from .proximity import (
    DEFAULT_BETAS,
    ConstructionTrace,
    DrawingPair,
    ParallelogramAnnotation,
    ParallelogramDrawingCheck,
    VerificationReport,
    Violation,
    check_parallelogram_drawing,
    extract_mw_graphs,
    strip_ratio,
    verify,
    verify_universal,
)
from .tree_model import (
    CaterpillarDecomposition,
    RootedTree,
    SparseLeafSet,
    Tree,
    caterpillar_decompose,
    gen_corollary_family,
    gen_random_caterpillar,
    gen_random_tree,
    is_sparse,
    isomorphism_map,
    reorder_children_for_pruning,
    rooted_isomorphism,
)
from .construct import (
    ParallelogramDrawing,
    WPDrawing,
    compute_safe_perturbation,
    draw_caterpillar_pair,
    draw_pruned_tree_pair,
    draw_star_pair,
    draw_tree_pair,
    lower_strip_ratio,
    redraw_pruned_stars,
)
from .cli_io import (
    DrawingDocument,
    TreeDocument,
    cli_main,
    load_drawing,
    load_tree,
    render_svg,
    save_drawing,
    save_tree,
)

__version__ = "0.1.0"
