"""dynact: dynamic CT simulation, elastic motion estimation, and
motion-compensated filtered backprojection."""

from .boundary import BoundaryData, BoundarySpec, perturb, sample_boundary, sparsify
from .config import PipelineConfig, default_config, dump_config, load_config
from .deformation import AnalyticDeformation, FieldDeformation
from .domain import RectangleDomain
from .elastic import (
    DisplacementHistory,
    ElasticModel,
    InitialData,
    MaterialParams,
    cfl_dt,
    solve,
)
from .errors import (
    ConfigError,
    DynactError,
    GridError,
    InstabilityError,
    MismatchError,
    MissingInputError,
    MotionError,
)
from .grid import Grid2D, NodeKind, fill_ghost, make_grid
from .metrics import MetricsReport, evaluate
from .motion import AffineMotion, eval_ft, identity_motion
from .phantom import Ellipse, PhantomSpec, check_support_in_unit_disk, eval_f0, rasterize_f0
from .projection import (
    ScanGeometry,
    Sinogram,
    radon_ellipse,
    radon_numeric_oracle,
    simulate_scan,
    transform_line,
)
from .reconstruct import (
    C_NORM,
    FilterSpec,
    Image,
    ImageSpec,
    backproject,
    backproject_static,
    filter_sinogram,
    reconstruct,
    static_fbp,
)

__version__ = "0.1.0"
