"""Floquet analysis for linear periodic systems with memory (delays and
convolution kernels) and Bloch band structure for 1D nonlocal potentials."""

from .grid import GridError, PeriodicGrid, StateSegment
from .system import (DelayTap, InvalidSystemError, LinearMemorySystem,
                     ValidationReport, difference_kernel, tabulated_coefficient,
                     shift_commutation_residual, validate_system)
from .integrate import ResolutionError, Trajectory, step_integrate
from .monodromy import (ConvergenceError, FloquetDecomposition, MonodromyOperator,
                        NonTruncatableError, PeriodicMode, VerificationReport,
                        build_monodromy, extract_mode, floquet_spectrum,
                        principal_exponents, sort_multipliers,
                        truncate_infinite_kernel, verify_floquet_form)
from .perturbation import (LimitCycle, NonlinearMemorySystem, StabilityReport,
                           forced_response, linearize, stability_verdict)
from .bloch import (BandDiagram, BandExtremum, BandRecord, NonlocalPotential1D,
                    PropagatingSet, band_scan, bloch_multipliers_collocation,
                    cell_collocation_matrices, detect_interior_extrema,
                    fixed_k_energies, local_cell_monodromy,
                    multiplier_phases_to_k, propagating_multipliers,
                    validate_potential)
from . import builtins

__version__ = "0.1.0"
