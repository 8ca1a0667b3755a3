"""Observation maps on graphs.

Per-vertex observations pair shortest-path distances to a small ordered
anchor set with quantized low-frequency spectral energy signatures. The
package measures when that observation map identifies vertices: exact
optimal reconstruction error, fiber and bucket diagnostics, counting
bounds on the image, budget ratios, and deterministic parameter sweeps
over random regular graphs and ingested edge lists.
"""

from .graphs import (
    AnchorSet,
    ConnectivityError,
    EdgeListParseError,
    Graph,
    GraphStats,
    ParsedEdgeList,
    anchor_profile,
    bfs_distances,
    from_edge_list,
    graph_from_edges,
    largest_connected_component,
    random_regular,
    structural_stats,
)
from .spectral import (
    EigenSolverError,
    EnergyEmbedding,
    QuantizedCodes,
    SpectralBasis,
    codebook_size,
    energy_embedding,
    low_frequency_basis,
    normalized_laplacian,
    quantize_absolute,
    quantize_relative,
)
from .observation import (
    BucketDiagnostics,
    FiberStats,
    ObservationTable,
    bucket_diagnostics,
    build_observation,
    fiber_stats,
    min_id_section,
    section_success,
)
from .theory import (
    BoundReport,
    bound_report,
    rho_eng,
)
from .harness import (
    ConfigPoint,
    SweepConfig,
    SweepResult,
    TrialRecord,
    k_emp,
    run_sweep,
    select_anchors,
    write_csv,
)

__version__ = "0.1.0"
