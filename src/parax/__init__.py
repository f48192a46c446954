"""parax: hierarchical paraxial field solver and PIC transport for
non-relativistic charged beams in the co-moving frame."""

from .config import RunConfig, serialize_config
from .elliptic import (
    FaceBC,
    SolverSettings,
    solve_anisotropic_poisson_3d,
    solve_divcurl_2d,
    solve_poisson_2d,
)
from .fields import ScalarField, VectorField2, read_field_csv, write_field_csv
from .hierarchy import (
    ExternalField,
    FieldHierarchy,
    FieldOrder,
    HierarchySolver,
    SourceTerms,
)
from .mesh import Mesh, build_mesh
from .pic import (
    ParticleEnsemble,
    assemble_force,
    check_charge_conservation,
    deposit_sources,
    push_particles,
    run_pic,
    sample_initial_distribution,
)
from .scaling import compute_scaling
from .verify import (
    ConvergenceReport,
    QuasiStaticMode,
    ResidualReport,
    convergence_study,
    eta_scaling_study,
    maxwell_residual,
    residual_terms,
)

__version__ = "0.1.0"
