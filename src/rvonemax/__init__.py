"""Simulation toolkit for randomized search heuristics on r-valued OneMax.

Implements RLS and the (1+1) EA over {0,...,r-1}^n with uniform, unit and
harmonic step operators, empirical drift estimation, the one-dimensional
token process, and a replicated experiment layer with scaling-law fitting.
"""

from .algorithms import (AlgorithmKind, DEFAULT_ITERATION_CAP, RunConfig, RunRecord,
                         mutate, one_iteration, run, run_batch, subseed)
from .drift import (DriftEstimate, estimate_drift, harmonic_number, plant_rows_at_fitness,
                    plant_rows_at_hamming, plant_state_at_fitness, plant_state_at_hamming,
                    realize_distance_rows)
from .experiments import (AggregateResult, DegenerateModelError, ExperimentPlan, MODELS,
                          ScalingFit, StartKind, StartPolicy, TargetPolicy, build_start,
                          build_target, execute_plan, fit_scaling, stable_seed)
from .operators import HarmonicTable, StepOperatorKind, harmonic_pmf, harmonic_table, step
from .potentials import DEFAULT_EXP_BASE, Potential, potential_value
from .space import (MetricKind, ProblemInstance, SpaceParams, as_point, component_distances,
                    fitness, hamming_distance, metric_distance, sample_uniform_point)
from .token_process import (CapacityError, DivergenceError, MAX_EXACT_STATES,
                            NAMED_DISTRIBUTIONS, TokenBatch, TokenConfig, TokenRunRecord,
                            token_expected_hitting_time_exact, token_hitting_times_by_state,
                            token_run, token_run_batch, token_step_pmf)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
