"""Numerical workbench for scalar-curvature descent from X x S^1 to X.

Pipeline: normal decomposition and angle check, ellipticity test, bump
forcing, anisotropic elliptic Dirichlet solve on X x [-1, 1], then a
Gauss-Codazzi/conformal certificate of pointwise scalar-curvature
positivity on X.
"""

__version__ = "0.1.0"

from .config import RunConfig, parse_config
from .conformal import (CertificateReport, b1_operator, certificate,
                        chain_scalar, conformal_ricci_normal,
                        conformal_scalar, conformal_second_fundamental,
                        exact_slice_scalar, k2_field, laplacian_comparison,
                        lift_solution, select_C)
from .curvature import (HypersurfaceData, gauss_codazzi_scalar,
                        hypersurface_data)
from .errors import (ConfigError, HypothesisViolation, NumericalFailure,
                     PscbenchError)
from .forcing import build_bump, calibrate_epsilon, forcing_norm
from .grids import (SPHERE, TORUS, DiscreteDomain, DomainSpec, build_domain,
                    c1_norm, w_domains, with_circle)
from .metrics import (MetricField, conformal_metric, load_metric_csv,
                      make_metric, restrict_metric)
from .normal import NormalFrame, normal_frame, unit_normal
from .pipeline import run_scenario
from .report import RunReport, emit_report, parse_report, render_report
from .solver import (OperatorAssembly, SolveReport, assemble, dtt_monitor,
                     solve_dirichlet)
