"""End-to-end study pipeline (paper Fig. 3).

``prepare_study_data`` executes the full chain: generate GTSRB-like series,
split train/calibration/test, augment (training: single-deficit intensity
grid; calibration/test: random realistic situations + length-10
subsampling), embed frames, train the DDM, build and calibrate the stateless
quality impact model, replay every series into traces, and build and
calibrate the timeseries-aware QIM.

The pipeline is deterministic for a given configuration, code and machine,
so ``prepare_study_data`` memoizes it on disk (:mod:`repro.evaluation.cache`):
a process that finds the entry of an earlier build loads the trained models
and traces instead of re-running the chain, bit for bit the same.

``evaluate_study`` then scores every approach of the paper's Table I on the
test traces and assembles the data behind Figs. 4-6.  The feature-importance
sweep (Fig. 7) lives in :mod:`repro.evaluation.importance`.

Scale: the default configuration is laptop-sized (a couple of minutes end to
end); ``StudyConfig.paper_scale()`` reproduces the paper's series counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.quality_factors import QualityFactorLayout, TAQF_NAMES
from repro.core.quality_impact import QualityImpactModel
from repro.core.timeseries_wrapper import SeriesTrace, stack_traces, trace_series
from repro.datasets.augmentation import SensorModel, single_deficit_grid
from repro.datasets.gtsrb import GTSRBLikeGenerator, N_CLASSES, TimeseriesDataset
from repro.datasets.splits import subsample_dataset
from repro.exceptions import ValidationError
from repro.evaluation import cache as _cache
from repro.evaluation.metrics import (
    MisclassificationByTimestep,
    misclassification_by_timestep,
    pool_traces,
)
from repro.fusion.information import MajorityVote
from repro.fusion.uncertainty import (
    NaiveProductFusion,
    OpportuneFusion,
    WorstCaseFusion,
)
from repro.models.features import FeatureConfig, PrototypeFeatureModel
from repro.models.linear import SoftmaxRegression
from repro.models.mlp import MLPClassifier
from repro.stats.brier import BrierDecomposition, murphy_decomposition
from repro.stats.calibration import CalibrationCurve, quantile_calibration_curve

__all__ = [
    "StudyConfig",
    "StudyData",
    "ApproachResult",
    "UncertaintyDistributionSummary",
    "StudyResults",
    "APPROACH_STATELESS",
    "APPROACH_IF_NO_UF",
    "APPROACH_NAIVE",
    "APPROACH_WORST_CASE",
    "APPROACH_OPPORTUNE",
    "APPROACH_TAUW",
    "prepare_study_data",
    "evaluate_study",
    "run_study",
]

APPROACH_STATELESS = "Stateless UW (no IF + no UF)"
APPROACH_IF_NO_UF = "(Fused) IF + no UF"
APPROACH_NAIVE = "IF + Naive UF"
APPROACH_WORST_CASE = "IF + Worst-case UF"
APPROACH_OPPORTUNE = "IF + Opportune UF"
APPROACH_TAUW = "IF + taUW"


@dataclass(frozen=True)
class StudyConfig:
    """All knobs of the reproduction study.

    The defaults run the whole pipeline in a couple of minutes on a laptop;
    :meth:`paper_scale` restores the paper's dataset sizes.

    Attributes
    ----------
    n_series:
        Number of base GTSRB-like series (paper: 1307).
    frames_per_series:
        Inclusive range of frames per base series (paper: 29-30).
    split_fractions:
        Train/calibration/test series fractions (paper: 522/392/392).
    eval_settings_per_series:
        Situation settings per calibration/test series (paper: 28).
    subsample_length:
        Length of the calibration/test sub-series windows (paper: 10).
    tree_max_depth:
        Depth limit of the quality impact models (paper: 8).
    min_calibration_samples:
        Minimum calibration cases per leaf (paper: 200).
    confidence:
        Confidence level of the per-leaf bounds (paper: 0.999).
    taqf_names:
        The timeseries-aware factors available to the taQIM.
    ddm_kind:
        ``"mlp"`` (paper-like black box) or ``"softmax"`` (faster).
    ddm_epochs / ddm_hidden / ddm_learning_rate:
        Training parameters of the DDM.
    feature_config:
        Embedding-model parameters (controls the DDM's error process).
    seed:
        Master seed for data generation, training, and subsampling.
    """

    n_series: int = 300
    frames_per_series: tuple[int, int] = (29, 30)
    split_fractions: tuple[float, float, float] = (0.4, 0.3, 0.3)
    eval_settings_per_series: int = 8
    subsample_length: int = 10
    tree_max_depth: int = 8
    min_calibration_samples: int = 200
    confidence: float = 0.999
    taqf_names: tuple[str, ...] = TAQF_NAMES
    ddm_kind: str = "mlp"
    ddm_epochs: int = 15
    ddm_hidden: tuple[int, ...] = (64,)
    ddm_learning_rate: float = 1e-3
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_series < 10:
            raise ValidationError(f"n_series must be >= 10, got {self.n_series}")
        if self.eval_settings_per_series < 1:
            raise ValidationError(
                "eval_settings_per_series must be >= 1, got "
                f"{self.eval_settings_per_series}"
            )
        if self.subsample_length < 1:
            raise ValidationError(
                f"subsample_length must be >= 1, got {self.subsample_length}"
            )
        if self.ddm_kind not in ("mlp", "softmax"):
            raise ValidationError(
                f"ddm_kind must be 'mlp' or 'softmax', got {self.ddm_kind!r}"
            )

    @classmethod
    def paper_scale(cls) -> "StudyConfig":
        """The paper's dataset sizes (minutes-long run; opt-in)."""
        return cls(n_series=1307, eval_settings_per_series=28)

    @classmethod
    def smoke_scale(cls) -> "StudyConfig":
        """Small configuration for fast tests.

        ``n_series=110`` keeps the training split just above the 43-class
        coverage threshold so the DDM sees every class at least once.
        """
        return cls(
            n_series=110,
            eval_settings_per_series=3,
            min_calibration_samples=30,
            ddm_kind="softmax",
            ddm_epochs=8,
        )


@dataclass
class StudyData:
    """Intermediate artifacts shared by evaluation, benchmarks, and examples."""

    config: StudyConfig
    layout: QualityFactorLayout
    ddm: object
    feature_model: PrototypeFeatureModel
    stateless_qim: QualityImpactModel
    ta_qim: QualityImpactModel
    train_traces: list[SeriesTrace]
    calibration_traces: list[SeriesTrace]
    test_traces: list[SeriesTrace]
    ddm_accuracy_train: float
    ddm_accuracy_test: float


@dataclass(frozen=True)
class ApproachResult:
    """Scores of one uncertainty-estimation approach on the test set."""

    name: str
    uncertainties: np.ndarray
    wrong: np.ndarray
    decomposition: BrierDecomposition

    def calibration_curve(self, n_bins: int = 10) -> CalibrationCurve:
        """Quantile calibration curve (certainty vs correctness, Fig. 6)."""
        return quantile_calibration_curve(
            1.0 - self.uncertainties, 1.0 - self.wrong, n_bins=n_bins
        )


@dataclass(frozen=True)
class UncertaintyDistributionSummary:
    """Distribution of predicted uncertainties (the paper's Fig. 5 panels)."""

    name: str
    uncertainties: np.ndarray
    min_guaranteed: float

    @property
    def share_at_min(self) -> float:
        """Fraction of cases that received the lowest guaranteeable value."""
        return float(np.mean(np.isclose(self.uncertainties, self.min_guaranteed)))

    def histogram(self, bins: int = 30) -> tuple[np.ndarray, np.ndarray]:
        """Histogram counts/edges over the predicted uncertainties."""
        return np.histogram(self.uncertainties, bins=bins, range=(0.0, 1.0))


@dataclass
class StudyResults:
    """Everything the paper's evaluation section reports."""

    config: StudyConfig
    ddm_accuracy_test: float
    misclassification: MisclassificationByTimestep
    approaches: list[ApproachResult]
    distributions: dict[str, UncertaintyDistributionSummary]

    def approach(self, name: str) -> ApproachResult:
        """Look up one Table I row by approach name."""
        for result in self.approaches:
            if result.name == name:
                return result
        raise ValidationError(f"unknown approach {name!r}")

    def calibration_curves(self, n_bins: int = 10) -> dict[str, CalibrationCurve]:
        """Fig. 6: quantile calibration curves for every approach."""
        return {
            r.name: r.calibration_curve(n_bins=n_bins) for r in self.approaches
        }


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def _build_ddm(config: StudyConfig):
    if config.ddm_kind == "mlp":
        return MLPClassifier(
            hidden_sizes=config.ddm_hidden,
            learning_rate=config.ddm_learning_rate,
            epochs=config.ddm_epochs,
            seed=config.seed,
        )
    return SoftmaxRegression(epochs=config.ddm_epochs, seed=config.seed)


def _feature_model(config: StudyConfig) -> PrototypeFeatureModel:
    return PrototypeFeatureModel(
        N_CLASSES, config.feature_config, seed=config.seed + 1
    )


def _layout(config: StudyConfig) -> QualityFactorLayout:
    return QualityFactorLayout(SensorModel.SIGNAL_NAMES, config.taqf_names)


def _quality_matrix(dataset: TimeseriesDataset) -> np.ndarray:
    """Stack the sensed quality signals of every frame, series order."""
    return np.vstack([series.sensed for series in dataset])


def _build_traces(
    dataset: TimeseriesDataset,
    predictions: np.ndarray,
    uncertainties: np.ndarray,
    layout: QualityFactorLayout,
) -> list[SeriesTrace]:
    """Cut the flat prediction/uncertainty arrays back into series traces."""
    traces = []
    fusion = MajorityVote()
    offset = 0
    for series in dataset:
        n = series.n_frames
        traces.append(
            trace_series(
                predictions[offset : offset + n],
                uncertainties[offset : offset + n],
                series.sensed,
                truth=series.class_id,
                layout=layout,
                information_fusion=fusion,
            )
        )
        offset += n
    if offset != predictions.shape[0]:
        raise ValidationError("predictions do not align with the dataset frames")
    return traces


def prepare_study_data(config: StudyConfig | None = None) -> StudyData:
    """Run the full data/DDM/wrapper construction pipeline.

    Returns a :class:`StudyData` bundle that :func:`evaluate_study`, the
    importance sweep, and the benchmarks all reuse.  The result is cached
    on disk per configuration (see :mod:`repro.evaluation.cache`); a cached
    result is bitwise equal to a fresh build.
    """
    config = config or StudyConfig()
    return _cache.memoize(
        config,
        lambda: _build_study_data(config),
        _study_state,
        lambda state: _study_from_state(config, state),
    )


def _build_study_data(config: StudyConfig) -> StudyData:
    """The uncached pipeline behind :func:`prepare_study_data`."""
    rng = np.random.default_rng(config.seed)
    generator = GTSRBLikeGenerator(frames_per_series=config.frames_per_series)

    # 1. Base series per split (paper: 522/392/392 of 1307, split
    #    series-wise).  The training split guarantees class coverage, as
    #    the real GTSRB training set does; drawing the three synthetic
    #    splits independently is distributionally equivalent to splitting
    #    one pool.
    n_train = int(round(config.split_fractions[0] * config.n_series))
    n_cal = int(round(config.split_fractions[1] * config.n_series))
    n_test = config.n_series - n_train - n_cal
    min_per_class = (
        max(1, n_train // (4 * N_CLASSES)) if n_train >= N_CLASSES else 0
    )
    train_base = generator.generate_base(n_train, rng, min_per_class=min_per_class)
    cal_base = generator.generate_base(n_cal, rng, start_id=n_train)
    test_base = generator.generate_base(n_test, rng, start_id=n_train + n_cal)

    # 2. Augmentation: training gets the single-deficit intensity grid;
    #    calibration/test get random realistic situations, then length-10
    #    subsampling with random window starts.
    train_aug = generator.augment_with_grid(train_base, single_deficit_grid(), rng)
    cal_aug = generator.augment_with_situations(
        cal_base, config.eval_settings_per_series, rng
    )
    test_aug = generator.augment_with_situations(
        test_base, config.eval_settings_per_series, rng
    )
    cal_sub = subsample_dataset(cal_aug, config.subsample_length, rng)
    test_sub = subsample_dataset(test_aug, config.subsample_length, rng)

    # 3. Embeddings and DDM training (timeseries-agnostic, as in the paper).
    feature_model = _feature_model(config)
    X_train, y_train, _ = feature_model.embed_dataset(train_aug, rng)
    X_cal, y_cal, _ = feature_model.embed_dataset(cal_sub, rng)
    X_test, y_test, _ = feature_model.embed_dataset(test_sub, rng)

    ddm = _build_ddm(config)
    ddm.fit(X_train, y_train)
    pred_train = np.asarray(ddm.predict(X_train))
    pred_cal = np.asarray(ddm.predict(X_cal))
    pred_test = np.asarray(ddm.predict(X_test))

    # 4. Stateless quality impact model: fit on training failures,
    #    calibrate on the held-out subsampled calibration set.
    qf_train = _quality_matrix(train_aug)
    qf_cal = _quality_matrix(cal_sub)
    stateless_qim = QualityImpactModel(
        max_depth=config.tree_max_depth,
        min_calibration_samples=config.min_calibration_samples,
        confidence=config.confidence,
    )
    stateless_qim.fit(qf_train, (pred_train != y_train).astype(int))
    stateless_qim.calibrate(qf_cal, (pred_cal != y_cal).astype(int))

    # 5. Momentaneous uncertainties everywhere, then series traces.
    u_train = stateless_qim.estimate_uncertainty(qf_train)
    u_cal = stateless_qim.estimate_uncertainty(qf_cal)
    u_test = stateless_qim.estimate_uncertainty(_quality_matrix(test_sub))

    layout = _layout(config)
    train_traces = _build_traces(train_aug, pred_train, u_train, layout)
    cal_traces = _build_traces(cal_sub, pred_cal, u_cal, layout)
    test_traces = _build_traces(test_sub, pred_test, u_test, layout)

    # 6. Timeseries-aware QIM: same procedure on the fused-outcome failures.
    ta_qim = QualityImpactModel(
        max_depth=config.tree_max_depth,
        min_calibration_samples=config.min_calibration_samples,
        confidence=config.confidence,
    )
    ta_qim.fit(*stack_traces(train_traces))
    ta_qim.calibrate(*stack_traces(cal_traces))

    return StudyData(
        config=config,
        layout=layout,
        ddm=ddm,
        feature_model=feature_model,
        stateless_qim=stateless_qim,
        ta_qim=ta_qim,
        train_traces=train_traces,
        calibration_traces=cal_traces,
        test_traces=test_traces,
        ddm_accuracy_train=float(np.mean(pred_train == y_train)),
        ddm_accuracy_test=float(np.mean(pred_test == y_test)),
    )


_TRACE_SETS = ("train", "calibration", "test")
_TRACE_ARRAYS = ("outcomes", "uncertainties", "fused_outcomes", "features")


def _study_state(data: StudyData) -> dict:
    """What the cache stores: trained models, traces, accuracies.

    The feature model and layout are functions of the configuration and
    are rebuilt from it.  Each trace set is stored as one concatenated
    array per trace field plus the per-trace lengths and truths.
    """
    traces = {}
    for name in _TRACE_SETS:
        series = getattr(data, f"{name}_traces")
        packed = {
            "truth": np.array([t.truth for t in series], dtype=np.int64),
            "lengths": np.array([t.n_steps for t in series], dtype=np.int64),
        }
        for field_name in _TRACE_ARRAYS:
            packed[field_name] = np.concatenate(
                [getattr(t, field_name) for t in series]
            )
        traces[name] = packed
    return {
        "ddm": data.ddm.state_dict(),
        "stateless_qim": data.stateless_qim.state_dict(),
        "ta_qim": data.ta_qim.state_dict(),
        "traces": traces,
        "ddm_accuracy_train": data.ddm_accuracy_train,
        "ddm_accuracy_test": data.ddm_accuracy_test,
    }


def _study_from_state(config: StudyConfig, state: dict) -> StudyData:
    """Inverse of :func:`_study_state` for the same configuration."""
    ddm_class = MLPClassifier if config.ddm_kind == "mlp" else SoftmaxRegression
    traces = {}
    for name in _TRACE_SETS:
        packed = state["traces"][name]
        cuts = np.cumsum(packed["lengths"])[:-1]
        columns = [np.split(packed[f], cuts) for f in _TRACE_ARRAYS]
        traces[name] = [
            SeriesTrace(truth, *arrays)
            for truth, *arrays in zip(packed["truth"].tolist(), *columns)
        ]
    return StudyData(
        config=config,
        layout=_layout(config),
        ddm=ddm_class.from_state_dict(state["ddm"]),
        feature_model=_feature_model(config),
        stateless_qim=QualityImpactModel.from_state_dict(state["stateless_qim"]),
        ta_qim=QualityImpactModel.from_state_dict(state["ta_qim"]),
        train_traces=traces["train"],
        calibration_traces=traces["calibration"],
        test_traces=traces["test"],
        ddm_accuracy_train=state["ddm_accuracy_train"],
        ddm_accuracy_test=state["ddm_accuracy_test"],
    )


def evaluate_study(data: StudyData) -> StudyResults:
    """Score all six Table I approaches on the test traces."""
    pooled = pool_traces(data.test_traces)
    traces = data.test_traces

    naive = NaiveProductFusion()
    opportune = OpportuneFusion()
    worst = WorstCaseFusion()
    u_naive = np.concatenate([naive.fuse_prefixes(t.uncertainties) for t in traces])
    u_opportune = np.concatenate(
        [opportune.fuse_prefixes(t.uncertainties) for t in traces]
    )
    u_worst = np.concatenate([worst.fuse_prefixes(t.uncertainties) for t in traces])
    u_ta = data.ta_qim.estimate_uncertainty(pooled.features)

    def result(name: str, u: np.ndarray, wrong: np.ndarray) -> ApproachResult:
        return ApproachResult(
            name=name,
            uncertainties=np.asarray(u, dtype=float),
            wrong=np.asarray(wrong, dtype=np.int64),
            decomposition=murphy_decomposition(u, wrong),
        )

    approaches = [
        result(APPROACH_STATELESS, pooled.isolated_uncertainty, pooled.isolated_wrong),
        result(APPROACH_IF_NO_UF, pooled.isolated_uncertainty, pooled.fused_wrong),
        result(APPROACH_NAIVE, u_naive, pooled.fused_wrong),
        result(APPROACH_WORST_CASE, u_worst, pooled.fused_wrong),
        result(APPROACH_OPPORTUNE, u_opportune, pooled.fused_wrong),
        result(APPROACH_TAUW, u_ta, pooled.fused_wrong),
    ]

    distributions = {
        "stateless": UncertaintyDistributionSummary(
            name="Stateless UW",
            uncertainties=pooled.isolated_uncertainty,
            min_guaranteed=data.stateless_qim.min_guaranteed_uncertainty,
        ),
        "taUW": UncertaintyDistributionSummary(
            name="taUW + IF",
            uncertainties=np.asarray(u_ta, dtype=float),
            min_guaranteed=data.ta_qim.min_guaranteed_uncertainty,
        ),
    }

    return StudyResults(
        config=data.config,
        ddm_accuracy_test=data.ddm_accuracy_test,
        misclassification=misclassification_by_timestep(traces),
        approaches=approaches,
        distributions=distributions,
    )


def run_study(config: StudyConfig | None = None) -> StudyResults:
    """Convenience: :func:`prepare_study_data` followed by :func:`evaluate_study`."""
    return evaluate_study(prepare_study_data(config))
