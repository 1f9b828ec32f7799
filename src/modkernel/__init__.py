"""Modular two-stage neural-network training with kernel proxy objectives.

A small numpy-backed toolkit: a reverse-mode autodiff core, feature maps
with their induced kernels and bounds, pairwise proxy objectives whose
maximizers are input modules of overall-loss minimizers, decomposable
classification risks, the constructive geometry certifying the optimality
claim, a two-stage trainer with an end-to-end baseline, and a
training-free transferability estimator.
"""

from .autodiff import (SgdMomentum, Tensor, affine, backward, elementwise,
                       sgd_step, unit_normalize, zero_gradients)
from .datasets import Dataset, DatasetSpec, make_dataset
from .errors import (ConfigurationError, ContractError, DegenerateBatchError,
                     DimensionError, DivergenceError, IngestionError,
                     ModkernelError, UndefinedProxyError, WorkerError)
from .kernels import (FeatureMap, kernel_bounds, kernel_eval, kernel_matrix,
                      rkhs_distance_sq)
from .losses import DecomposableLoss, make_loss, risk
from .proxies import (PairPartition, PROXY_KINDS, partition_pairs,
                      proxy_tensor, proxy_value)
from .training import (ArchitectureSpec, DynamicsTrace, TrainConfig,
                       TwoModuleModel, freeze_and_train_output,
                       label_efficiency_run, proxy_accuracy_sweep,
                       train_end_to_end, train_input_module)
from .transfer import (CandidateModule, TransferReport, rank_candidates,
                       rank_correlation, retrain_oracle, score_candidate)

__version__ = "0.1.0"
