"""injurylab: training-load analytics and injury-risk modelling for
team-sport athlete monitoring data.

Pipeline: CSV ingestion -> daily panel + load features -> imputation /
standardization / PCA / re-sampling -> five cross-validated model families ->
ROC, cost-optimal operating points, simulation repeats and learning curves.
A synthetic cohort generator with a planted load-injury mechanism provides
ground truth for end-to-end validation.
"""

__version__ = "0.1.0"

from .domain import (AthleteProfile, DailyPanel, InjuryRecord, SessionRecord,
                     SplitDataset, build_daily_panel, label_outcomes,
                     parse_athletes, parse_injuries, parse_sessions,
                     split_by_season)
from .load_metrics import (FeatureMatrix, build_feature_matrix,
                           build_load_series, feature_columns)
from .metrics import (OperatingPoint, RocCurve, auc, operating_metrics,
                      optimal_operating_point, rank_biserial, roc_curve,
                      subgroup_auc)
from .models import ModelSpec, TrainedModel, fit_gee_ar1, fit_model
from .pipeline import (Cell, ModelingData, PipelineSettings, Protocol,
                       assemble_modeling_data, learning_curve,
                       run_pipeline_once, run_simulations)
from .preprocess import (PcaProjection, PmmImputer, pca_fit, pca_transform, smote,
                         standardize, undersample)
from .synthdata import (CohortConfig, GeneratedCohort, generate_cohort,
                        null_config, signal_config, write_cohort_csvs)

__all__ = [name for name in dir() if not name.startswith("_")]
