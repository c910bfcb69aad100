"""Location-informed interference-suppression precoding for distributed
massive MIMO: precoder constructions, hardware phase calibration, and
Monte Carlo SINR evaluation over synthetic or measured CSI grids."""

from .geometry import (
    ArrayGeometry,
    Box,
    LosChannelParams,
    UePlacement,
    default_roi,
    los_channel,
    los_phase,
    perimeter_geometry,
    place_ues,
)
from .precoders import (
    ChannelAccess,
    InfoEnvironment,
    PrecoderSpec,
    build_precoder,
    build_precoders,
    far_field_weights,
    mrt,
    near_field_weights,
    orthogonalize,
    orthogonalize_regularized,
    parse_precoder_name,
    phase_align,
    rzf,
    steering_angle,
    zf,
)
from .metrics import (
    ChannelErrorModel,
    LinkRealization,
    empirical_cdf,
    guaranteed_sinr,
    inject_channel_error,
    noise_variance_from_floor,
    sinr,
    sinr_all,
)
from .calibration import (
    PhaseOffsetTable,
    apply_calibration,
    estimate_phase_offset,
    estimate_phase_offsets,
    inject_hardware_offsets,
)
from .csidata import (
    CsiGrid,
    DatasetManifest,
    GridSpec,
    generate_synthetic_dataset,
    read_dataset,
    write_dataset,
)
from .scenarios import (
    ClusterAssignment,
    ScenarioConfig,
    ScenarioSummary,
    cluster_users,
    run_chunk,
    run_scenario,
)

__version__ = "0.1.0"
