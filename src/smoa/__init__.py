"""Spectrum-modulated block adapters on desk-scale matrices.

The pipeline: decompose a frozen weight, reorder its coordinates so
spectrally similar ones become adjacent, freeze K diagonal anchors, and
train K small factor pairs whose products modulate the anchors
entrywise. The package covers that preprocessing, the adapter algebra,
exact rank-capacity accounting against a global low-rank baseline,
gradient-descent verification of the separation, and random-matrix
diagnostics of when real weight spectra leave room for it.
"""
from .adapters import (
    AdapterInit,
    LoraAdapter,
    SmoaAdapter,
    apply_forward,
    init_lora,
    init_smoa,
    load_adapter,
    lora_update,
    merge,
    param_count,
    save_adapter,
    smoa_update,
    update,
)
from .capacity import (
    BlockCeiling,
    RankCeilingReport,
    WitnessInstance,
    achieved_rank,
    full_rank_ceiling,
    load_witness,
    lora_gap,
    make_witness,
    rank_ceiling,
    save_witness,
    smoa_exact_fit,
)
from .diagnostics import (
    ActivationSample,
    SpectralReport,
    count_outliers,
    estimate_noise_scale,
    full_report,
    mp_bulk_edge,
    mp_median,
    mp_singular_density,
    normalized_spectrum,
    overlap_scores,
    save_report,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    EstimationError,
    FormatError,
    NumericalError,
    RangeError,
    SmoaError,
)
from .gen import diagonal_matrix, gaussian_matrix, low_rank_plus_noise, spiked_matrix
from .matio import (
    load_matrix,
    load_matrix_csv,
    matrix_digest,
    matrix_from_csv,
    matrix_to_csv,
    save_matrix,
    save_matrix_csv,
)
from .matrices import (
    Matrix,
    Permutation,
    apply_permutations,
    block_diagonal,
    invert_permutations,
)
from .preprocess import (
    BlockPlan,
    build_plan,
    coordinate_scores,
    load_plan,
    reordered_weight,
    save_plan,
)
from .spectrum import (
    SpectralDecomposition,
    balanced_factors,
    default_tolerance,
    numerical_rank,
    singular_values,
    svd,
    tail_energy,
    truncated_svd,
)
from .trainer import (
    FitConfig,
    FitProblem,
    FitTrace,
    TraceStep,
    finite_difference_check,
    fit,
    gradient,
    loss,
    save_trace,
)

__version__ = "0.1.0"
