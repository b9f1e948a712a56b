"""Pseudospectral small-data solvers for geometric heat flows on tori.

The package provides, on flat periodic domains [0, L)^n:

* exact spectral calculus and heat propagation (``grid``, ``heat``);
* mean-oscillation / Carleson functionals and the space-time norms that
  control the fixed-point arguments (``norms``);
* unit-sphere target geometry as pointwise kernels (``manifold``);
* Picard solvers for the harmonic map heat flow (``hmflow``) and the
  simplified nematic liquid crystal system (``lcflow``);
* seeded data families (``families``) and a reproducible experiment
  runner (``cli``).
"""

from .grid import (
    Field,
    GridSpec,
    SpaceTimeField,
    cyclic_shift,
    read_snapshot,
    spectral_divergence,
    spectral_gradient,
    spectral_laplacian,
    write_snapshot,
)
from .heat import (
    TimeLadder,
    caloric_extension,
    duhamel_heat,
    duhamel_leray_div,
    heat_semigroup,
    leray_project,
    recover_pressure,
)
from .norms import (
    BallSpec,
    NormReport,
    ParabolicCylinder,
    ball_oscillation,
    bmo_inverse_norm,
    bmo_seminorm,
    carleson_bmo,
    cylinder_gradient_square,
    cylinder_mean_square,
    forcing_norm,
    solution_norm,
    velocity_norm,
    vmo_profile,
)
from .manifold import (
    SphereTarget,
    TubeEscape,
    subharmonicity_residual,
    unit_deviation,
)
from .hmflow import (
    NoConvergence,
    SolveResult,
    SolverConfig,
    SweepRecord,
    SweepReport,
    flow_residual,
    picard_map,
    time_march,
)
from .hmflow import amplitude_sweep as hmf_amplitude_sweep
from .hmflow import solve as solve_hmf
from .lcflow import (
    LCSolveResult,
    LCState,
    director_map,
    divergence_sup,
    lc_residuals,
    velocity_map,
)
from .lcflow import amplitude_sweep as lc_amplitude_sweep
from .lcflow import solve as solve_lc

__version__ = "0.1.0"
