"""b4nls: spectral laboratory for the fourth-order nonlinear Schrodinger
equation on flat tori — damped stabilization runs, exact control synthesis
through the observability Gramian, band observability floors, geodesic
control-condition scans on T^1 and T^2, X^{s,b} space-time probes, and the
exact resonance counts of the S^5 quartic spectrum.
"""

__version__ = "0.1.0"

from .spectral import (
    DampingProfile,
    ManifoldSpec,
    SpectralField,
    basis_field,
    load_field,
    make_damping_profile,
    make_torus,
    normalize_sobolev,
    random_field,
    save_field,
    sobolev_norm,
    zero_field,
)
from .regions import Ball, FullRegion, RegionUnion, Strip
from .dynamics import (
    BlowUpError,
    DecayFit,
    DissipationAudit,
    EvolutionTrace,
    SolverConfig,
    audit_dissipation,
    evolve_damped,
    evolve_nonlinear,
    fit_decay_rate,
    save_trace,
)
from .hum import (
    ControlCertificate,
    ControlProblem,
    ControlStagnationError,
    ContractionFailure,
    solve_linear_control,
    solve_nonlinear_control,
)
from .observability import (
    BandGramian,
    GramianReport,
    gramian_sweep,
)
from .gcc import (
    GccScan,
    GeodesicQuery,
    first_hit_time,
    torus_gcc_time,
)
from .bourgain import (
    SpaceTimeField,
    cubic_product,
    duhamel_gain_probe,
    hb_hs_norm,
    interaction_frame,
    make_taper,
    random_spacetime_field,
    trilinear_constant_probe,
    xsb_norm,
)
