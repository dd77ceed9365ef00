"""Conditional adversarial imputation of missing tabular data.

Per-column generator/discriminator pairs trained with least-squares
adversarial losses are chained column-by-column until a dual convergence
criterion stabilises, producing M completed datasets whose estimates pool
with the usual within/between variance rules.  The package also ships a
missingness simulation lab (equicorrelated Gaussian data, MCAR/MAR/MNAR
amputation), a mean/mode baseline, and a Monte Carlo benchmark harness.
"""

from .benchmark import (
    BenchmarkRow,
    BenchmarkSpec,
    BenchmarkTable,
    MethodSpec,
    rmse,
    run_benchmark,
)
from .chained import (
    ConvergenceTrace,
    GcmiConfig,
    ImputationResult,
    PooledEstimate,
    convergence_gamma,
    gcmi_impute,
    initial_fill,
    order_columns,
    rubin_pool,
    save_result,
    sweep,
)
from .config import RunConfig, load_config, parse_config
from .data import (
    ColumnSchema,
    DataMatrix,
    matrix_from_array,
    read_csv,
    write_csv,
    write_mask_csv,
)
from .errors import (
    ConfigError,
    DataError,
    GcmiError,
    InsufficientDataError,
    NumericError,
    ShapeError,
    UnimputableColumnError,
)
from .gcin import (
    GcinPair,
    TrainConfig,
    TrainTrace,
    impute_column,
    scale_architecture,
    train_gcin,
)
from .losses import (
    DiscreteDist,
    chi2_generator_objective,
    optimal_discriminator,
)
from .nn import (
    AdamState,
    Mlp,
    ParamGrads,
    adam_new,
    adam_step,
    backward_with_input_grads,
    forward,
    mlp_new,
)
from .simulate import (
    AmputationSpec,
    SyntheticSpec,
    ampute,
    gen_synthetic,
)

__version__ = "0.1.0"
