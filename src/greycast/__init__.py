"""Grey-system forecasting toolkit.

GM(1,1) and non-homogeneous discrete grey models, fuzzy-weight Markov
residual correction, grey-wrapped back-propagation networks, and hybrid
combination weighting, with a CSV/JSON command-line pipeline on top.
"""

from .dgm import DgmModel, OptimalInitial, fit_dgm, forecast_dgm, optimize_initial, simulate_dgm
from .errors import (
    ConfigError,
    CsvParseError,
    DataError,
    DegeneracyError,
    DivergenceError,
    EmptySeriesError,
    GreycastError,
    InsufficientDataError,
    MissingInputError,
    NumericError,
    PositivityError,
    RecursionOverflowError,
    SingularSystemError,
)
from .gm import GmModel, PosteriorReport, fit_gm11, forecast_gm11, posterior_grade, posterior_test
from .hybrid import (
    HybridWeights,
    RelationConfig,
    accuracy_series,
    combine_forecasts,
    effective_degree,
    effective_weights,
    grey_relation_degree,
    min_variance_weight,
    optimize_relation_weights,
    project_to_simplex,
    simplex_ls_weights,
)
from .markov import (
    DEFAULT_BOUNDARIES,
    ClassifiedStates,
    FuzzyMarkovModel,
    MarkovTestReport,
    StatePartition,
    TransitionCounts,
    classify_states,
    count_transitions,
    expected_drift,
    fmarkov_correct,
    fuzzy_memberships,
    fuzzy_transition_matrix,
    marginal_distribution,
    markov_property_test,
    transition_probabilities,
)
from .metrics import EvaluationReport, evaluate
from .neural import (
    AffineScaler,
    FeedforwardNet,
    IgnnForecaster,
    SgnnForecaster,
    TrainConfig,
    backprop_gradients,
    forward,
    ignn_fit,
    ignn_fit_batch,
    ignn_fitted,
    ignn_forecast,
    init_net,
    predict_scaled,
    sgnn_fit,
    sgnn_fit_batch,
    sgnn_fitted,
    sgnn_forecast,
    train_bp,
    train_bp_batch,
)
from .series import ResidualSeries, TimeSeries, ago, as_values, iago, make_windows, relative_residuals

__version__ = "0.1.0"
