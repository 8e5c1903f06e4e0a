"""risklab: risk-entropy curves and Gibbs generalisation risk for learning machines."""

__version__ = "0.1.0"

from .perceptron import (  # noqa: F401
    GaussianClassSpec,
    boltzmann_risk_exact,
    hebbian_expected_risk,
    hebbian_simulate,
    perceptron_risk,
    risk_density,
    risk_entropy,
)
from .replica import ReplicaState, entropy_rq, mu_per_example, solve_saddle  # noqa: F401
from .gibbs import (  # noqa: F401
    PowerLawEntropy,
    TrainingRatioModel,
    annealed_mu,
    estimate_local_exponent,
    gibbs_risk_integral,
    gibbs_risk_saddle,
    growth_exponent,
)
from .predictors import (  # noqa: F401
    PredictorSpec,
    WeightVector,
    empirical_risk,
    predict_batch,
    random_weights,
    weight_count,
)
from .datasets import (  # noqa: F401
    LabelledDataset,
    gen_gaussian_pair,
    load_idx,
    split,
    teacher_relabel,
    write_idx,
)
from .mcmc import (  # noqa: F401
    BoltzmannCurve,
    BoltzmannPoint,
    ChainConfig,
    ChainState,
    annealed_step,
    boltzmann_sweep,
    metropolis_step,
    minibatch_proposal_step,
    propose,
    run_chain,
)
from .reconstruction import (  # noqa: F401
    EntropyCurve,
    predicted_annealed_risk,
    quadratic_fit,
    reconstruct,
)
