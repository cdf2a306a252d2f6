"""Averaged bifurcation functions and Filippov verification for the
small-amplitude perturbed planar double pendulum.

Pipeline: reduce physical parameters, build the linear spectrum and the
Jordan frame, average the perturbation along an unperturbed orbit
family, certify simple zeros of the averaged pair, and verify each
prediction by event-driven integration with an ε²-scaling test on the
Poincaré residual.

The package root holds the prediction half's names of the README's library
example, and importing it loads no module of the checking half (filippov,
verify, dop853, expflow) and not numpy.  Every other name is imported from
its module, e.g. ``pendavg.verify.epsilon_sweep``.  Both halves compute on
Python floats; numpy loads only with :mod:`pendavg.dop853`, for a segment
that the exact flow of :mod:`pendavg.expflow` cannot take.
"""

from .averaging import BifurcationSystem, annulus_search
from .model import (
    PhysicalParams,
    jordan_transform,
    monodromy_lower_block,
    reduce_params,
    spectral_data,
)
from .perturbation import builtin

__version__ = "0.1.0"
