"""Pilot-wave dynamics laboratory.

Quantum and classical guided motion in one formalism: spectral propagation
of the wave field, polar decomposition with the amplitude-curvature
potential, trajectory ensembles in quantum equilibrium, analytic
Hamilton-Jacobi action fields with characteristic transport, and
along-trajectory reconstruction experiments.
"""

from .classical import (
    ActionField,
    CircularAction,
    ClassicalState,
    PlaneWaveAction,
    classical_trajectory,
    hj_residual,
    holland_nonuniqueness,
    semiclassical_compare,
    transport_classical,
)
from .errors import (
    AliasingWarning,
    AllNodesError,
    BundleCrossingError,
    CausticDetectedError,
    ConfigError,
    EdgeLeakWarning,
    GridTooCoarseError,
    InsufficientBundleError,
    PilotwaveError,
    PreparationMismatchError,
    ScenarioFailure,
    StepSizeWarning,
    UndefinedGradientError,
    UnwrapResidueWarning,
)
from .fields import (
    PolarField,
    RealField,
    WaveField,
    density,
    from_polar,
    quantum_potential,
    to_polar,
)
from .grid import SpatialGrid
from .reconstruction import (
    Bundle,
    build_bundle,
    bundle_convergence,
    classical_reconstruct,
    reconstruct_along_center,
)
from .sampling import born_sample
from .schrodinger import (
    FreePotential,
    HarmonicPotential,
    Potential,
    PropagatorConfig,
    continuity_residual,
    propagate,
)
from .states import (
    double_slit_state,
    gaussian_packet,
    harmonic_ground_state,
    plane_wave,
    superpose,
)
from .stats import chi_square_gof, ks_statistic
from .trajectories import (
    DivergenceReport,
    EnsembleResult,
    GuidingField,
    Trajectory,
    count_axis_crossings,
    divergence_experiment,
    integrate_trajectory,
    propagate_ensemble,
)

__version__ = "0.1.0"
