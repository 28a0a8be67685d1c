"""Indoor terahertz access-point placement simulator and coverage planner."""

# set before the submodule imports, so a submodule may read it
__version__ = "0.1.0"

from .geometry import (
    Constellation,
    Room,
    height_correction,
    place,
    reference_distances,
)
from .linkbudget import (
    LinkBudgetParams,
    antenna_gain,
    coverage_radius,
    lambert_w0,
)
from .mobility import Crowd, init_users, step_user, substream
from .reporting import CrossoverResult, detect_crossover, write_results
from .simulation import (
    ConfigError,
    HeatmapGrid,
    MetricsReport,
    SimConfig,
    heatmap,
    run,
    sweep,
)
