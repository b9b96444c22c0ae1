"""Gradient-based learning of nonlinear feature maps for dimension reduction.

The package learns maps g(x) = G^T Phi(x) whose gradient spans align with the
gradient of a target function, by minimizing convex surrogates of the
Poincare loss (generalized eigensolves, optionally refined by Riemannian
descent), then regresses the target on the learned features with a Gaussian
kernel.  A deviation sub-library computes the suboptimality constants tying
the surrogates to the loss and verifies the underlying tail bounds
empirically.
"""

from .basis import (FeatureBasis, GramMatrix, Hermite, Legendre, LogHermite,
                    MultiIndexSet, assemble_gram, basis_from_spec,
                    build_index_set)
from .benchmarks import (Benchmark, ExperimentConfig, QuantileReport,
                         make_benchmark, make_samples, read_samples_csv,
                         run_experiment, sample_inputs, write_samples_csv)
from .deviation import (DeviationProfile, check_large_deviation,
                        check_small_deviation, empirical_quantile,
                        eta_constants, multifeature_bounds,
                        multifeature_constants, objective_envelope,
                        polynomial_remez_constants, suboptimality_constants,
                        trig_remez_constants, uniform_suboptimality_bounds)
from .errors import (IllConditionedError, InvalidInputError, NumericError,
                     RankDeficiencyError)
from .geometry import (complement_split, orthogonal_projector,
                       project_complement, smallest_singular_value)
from .grassmann import (OptimizerConfig, active_subspace_init, learn_features,
                        minimize_poincare_loss, poincare_loss_gradient)
from .regression import (CvGrid, KrrModel, cv_select_basis, cv_select_krr,
                         krr_fit, krr_predict)
from .surrogate import (FeatureMap, SampleSet, SurrogateMatrices,
                        convex_surrogate, coordinate_surrogate,
                        coordinate_surrogate_matrices, greedy_features,
                        min_generalized_eig, orthonormalize, poincare_loss,
                        surrogate_matrices)

__version__ = "0.1.0"
