"""dynact: dynamic CT simulation, elastic motion estimation, and
motion-compensated filtered backprojection."""

from . import boundary, config, deformation, elastic, errors, grid, metrics, motion, phantom, projection, reconstruct

__version__ = "0.1.0"
