"""verisim: verification economics of proof-of-work mining.

Closed-form reward shares for verifying vs non-verifying miners, statistical
workload models fitted to contract-transaction data, and a discrete-event
simulator of mining with sequential or parallel block verification and
intentional invalid-block injection.
"""

from verisim.analytics import (
    MinerPower,
    PowerProfile,
    RewardRow,
    VerificationParams,
    nonverifier_reward,
    par_slowdown,
    reward_table,
    seq_slowdown,
    uniform_profile,
    verifier_reward,
)
from verisim.blocks import Block, build_block, measure_verification_times, verification_time
from verisim.config import MinerConfig, ScenarioConfig, standard_miners
from verisim.dataio import Dataset, generate_synthetic_dataset, load_dataset, write_dataset
from verisim.forest import ForestModel, fit_forest, fit_rfr
from verisim.gmm import DegenerateDataError, GmmModel, fit_gmm, sample_gmm_with
from verisim.kernels import BACKEND as KERNEL_BACKEND
from verisim.scenario import SweepReport, run_sweep, validate_sweep
from verisim.sim import SimResult, fork_choice, run_simulation
from verisim.stats import distribution_distance, pearson, regression_metrics, spearman
from verisim.workload import FittedWorkload, fit_workload, sample_transaction_arrays

__version__ = "0.1.0"
