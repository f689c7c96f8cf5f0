"""demcorrect: vertical error correction for gridded DEMs.

Predicts per-cell elevation error from eleven terrain and land-cover
predictors — by multiple linear regression or gradient-boosted regression
trees — and subtracts the prediction from the original elevations.
"""

from .grid import (
    GeometryMismatch,
    Grid,
    GridGeometry,
    GridParseError,
    difference,
    load_grid,
    read_ascii_grid,
    save_grid,
    write_ascii_grid,
)
from .terrain import (
    CANONICAL_FEATURES,
    FLAT_ASPECT,
    FeatureConfig,
    FeatureStack,
    MaskValueError,
    WindowSpec,
    aspect,
    build_feature_stack,
    focal_fraction,
    roughness,
    slope,
    texture,
    tpi,
    tri,
    vrm,
)
from .sampling import (
    EmptyTableError,
    SampleTable,
    StrataLabelError,
    extract_samples,
    split_table,
)
from .linstats import (
    CollinearityReport,
    LinearModel,
    SingularDesignError,
    ZeroVarianceError,
    fit_ols,
    flag_collinear,
    pearson_matrix,
    vif,
)
from .gbdt import (
    GbdtModel,
    GbdtParams,
    ModelFormatError,
    RegressionTree,
    best_split,
    deserialize_model,
    fit_gbdt,
    serialize_model,
)
from .evaluate import (
    EvaluationReport,
    Metrics,
    abs_error_grid,
    apply_correction,
    build_report,
    compute_metrics,
    pct_rmse_reduction,
    predict_error_grid,
)
from .synth import (
    STRATUM_NAMES,
    ErrorSpec,
    LandcoverSet,
    NonlinearTerm,
    fractal_dem,
    inject_error,
    synth_landcover,
)

__version__ = "0.1.0"
