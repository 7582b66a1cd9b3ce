"""frwave: wave-resolution analysis and solvers for the upwinded
correction-function element scheme on stretched and warped meshes.

Submodules
----------
element    : reference-interval nodal machinery (points, derivative
             matrix, boundary extraction, correction derivatives)
spectral   : wavenumber-domain dispersion/dissipation analysis, PPW,
             filter kernels, finite-difference modified wavenumbers
stability  : the Runge-Kutta march of every solver, update matrices,
             spectral-radius sweeps, CFL limits on stretched grids
advect1d   : 1D linear advection solvers (element and finite-difference)
             plus the transfer-function measurement harness
mesh2d     : quadrilateral meshes, seeded jitter, skew-angle metric
euler2d    : 2D Euler solvers (element and finite-volume baseline),
             convecting-vortex exact solution, error norms, convergence
cli        : command-line driver emitting CSV artifacts
"""

__version__ = "0.1.0"

from .element import (DG, HUYNH_G2, REDUCED_ORDER, ReferenceElement,
                      correction_derivatives, derivative_matrix, gauss_points,
                      gauss_weights, lagrange_values, reference_element)
from .spectral import (SAMPLED, WEIGHTED, EigenSolveError, SemiDiscreteOperator,
                       SpectralCurve, SpectralSample, build_operator,
                       dispersion_curve, fd_modified_wavenumber, filter_kernel,
                       modified_phase_velocity, ppw)
from .stability import (RK33, RK44, RK55, RKScheme, StabilityResult,
                        UnstableSolutionError, advance, cfl_limit, get_scheme,
                        spectral_radius_sweep, update_matrix)
from .advect1d import (FDAdvection1D, FRAdvection1D, StretchedGrid1D,
                       TransferTable, bin_wavenumbers, build_grid,
                       fd_point_grid, matched_point_expansion, numeric_ppw,
                       solution_points, wave_transfer_function)
from .mesh2d import (MeshTangleError, QuadMesh2D, SkewReport, jitter,
                     jitter_factor_for_skew, read_mesh, skew_angle,
                     uniform_quad_mesh, write_mesh)
from .euler2d import (ErrorReport, FREulerSolver2D, FVEulerSolver2D, ICVParams,
                      NonPhysicalStateError, conserved_to_primitive, error_norm,
                      euler_normal_flux, icv_primitive, ooa,
                      primitive_to_conserved, roe_flux, run_icv, rusanov_flux)
