"""hopscope: neighborhood algebra for message passing on directed graphs.

The package splits into small layers: :mod:`hopscope.graphs` holds the
integer CSR adjacency and structural transforms, :mod:`hopscope.hops`
the semiring powers and connectivity-pattern checks,
:mod:`hopscope.normalization` the edge reweighting schemes,
:mod:`hopscope.models` the dense forward/backward kernels,
:mod:`hopscope.training` the experiment harness, and
:mod:`hopscope.datasets` the synthetic datasets and the file formats.
``hopscope.cli`` exposes the same workflows as a batch command line.
"""

from .errors import (
    CountOverflowError,
    DatasetError,
    HopscopeError,
    InputError,
    LoopHypothesisError,
    NumericError,
)
from .graphs import (
    DegreeVector,
    GraphMeta,
    SparseCountMatrix,
    add_self_loops,
    degrees,
    from_dense,
    from_edge_list,
    graph_meta,
    parse_edge_list,
    read_edge_list,
    symmetrize,
    transpose,
)
from .hops import (
    DagProfile,
    LoopLemmaReport,
    SupportPattern,
    SupportPeriodicity,
    binomial_expansion_check,
    count_ladder,
    dag_profile,
    density,
    mat_power_count,
    mat_power_support,
    path_count_oracle,
    power_ladder,
    support_equal,
    support_of,
    support_periodicity,
    support_subset,
    verify_loop_lemma,
)
from .models import (
    ARCHITECTURES,
    LayerParams,
    ModelSpec,
    SageLayerParams,
    build_aggregation,
    collapse_linear,
    degree_features,
    finite_difference_gradients,
    gcn_layer_forward,
    gradient_check,
    init_params,
    max_relative_error,
    model_backward,
    model_forward,
    sage_layer_forward,
    uniform_features,
)
from .normalization import NORM_SCHEMES, PowerAggregation, WeightedAdjacency, gcn_canonical, normalize, normalize_power
from .training import (
    Metrics,
    SplitSpec,
    SweepRow,
    TrainConfig,
    majority_baseline,
    make_splits,
    run_sweep,
    train_model,
)
from .datasets import (
    DatasetBundle,
    DatasetStats,
    dataset_stats,
    load_dataset,
    load_matrix_csv,
    save_dataset,
    save_matrix_csv,
    save_sweep_csv,
    synthesize_dataset,
)

__version__ = "0.1.0"
