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
