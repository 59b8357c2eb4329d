"""Finite-dimensional workbench for trace-form mechanics next to matrix quantum mechanics.

The package machine-checks, at small matrix sizes, the structural facts
that let classical mechanics live inside a real Hilbert space built on the
trace form of complex scalars: commutator expectations vanish under the
trace form, commuting families share dispersion-free bases and a single
generator, the Poisson bracket matches the commutator route for quadratic
generators, and repeated measurement statistics come out right.
"""

from .errors import (
    ConvergenceError,
    DegenerateSetError,
    DegenerateSpectrumError,
    DegreeError,
    DimensionError,
    FunctionDomainError,
    GridError,
    InputError,
    LapackError,
    NotCommutingError,
    NotHermitianError,
    NumericalError,
    SamplingError,
    StateError,
    TruncationError,
    UsageError,
    ValidationError,
    WorkbenchError,
    ZeroVectorError,
)
from .scalars import (
    IMAG_UNIT,
    ONE,
    ZERO,
    TraceScalar,
    embed_matrix,
    minimal_poly_residual,
    norm_form,
    trace,
)
from .states import (
    TRACE_OF_ONE,
    GridMeta,
    StateVector,
    complex_inner,
    grid_sample,
    normalize,
    real_inner,
    superpose,
)
from .operators import (
    AvResult,
    BandOperator,
    HermitianOperator,
    Operator,
    adjoint,
    av_decompose,
    certify_hermitian,
    dispersion,
    expect_c,
    expect_r,
)
from .spectral import (
    GeneratorResult,
    JointDecomposition,
    SpectralDecomposition,
    apply_function,
    commute_check,
    eigendecompose,
    eigenvalues,
    simultaneous_diagonalize,
    verify_dispersion_free,
    vn_generator,
)
from .dynamics import (
    MAX_DEGREE,
    BracketCheck,
    ModelSystem,
    PolynomialObservable,
    bracket_correspondence,
    build_grid_model,
    build_oscillator_ladder,
    evolve_operator,
    evolve_state,
    gaussian_spread_width,
    grid_hamiltonian,
    grid_levels,
    heisenberg_rhs,
    oscillator_hamiltonian_poly,
    poisson_rhs_classical,
    quantize,
    spread_series,
    well_level_energy,
)
from .measurement import (
    CatResult,
    EnsembleReport,
    MeasurementOutcome,
    born_probabilities,
    cat_experiment,
    measure_once,
    reconstruct_density,
    repeat_experiment,
    sample_rng,
)

__version__ = "0.1.0"
