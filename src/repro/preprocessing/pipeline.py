"""Composable preprocessing pipeline with a serialisable configuration.

This is the "Config File (For data preprocessing)" of the paper's Fig. 1:
everything the runtime library must re-apply to a fresh feature vector
(Yeo-Johnson λs, standardisation statistics, which features survived the
correlation filter) is captured in :class:`PreprocessingConfig` and can be
round-tripped through JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.preprocessing.correlation import CorrelationFilter
from repro.preprocessing.outliers import LocalOutlierFactor
from repro.preprocessing.power import YeoJohnsonTransformer, yeo_johnson_transform_matrix
from repro.preprocessing.scaler import StandardScaler

__all__ = ["PreprocessingPipeline", "PreprocessingConfig", "FusedTransform"]


@dataclass(frozen=True)
class FusedTransform:
    """A fitted pipeline collapsed into flat arrays over the *kept* columns.

    The object pipeline transforms every feature column in a Python loop and
    slices the survivors afterwards.  Both steps commute column-wise, so the
    fused form (a) restricts all state to the correlation filter's kept
    columns and (b) evaluates the whole transform as two vectorised
    expressions:

    1. ``T = yeo_johnson_transform_matrix(X_kept, lambdas)`` (skipped for
       plain-scaler pipelines),
    2. ``(T - shift) / scale``.

    Outputs are bit-identical to ``PreprocessingPipeline.transform`` on the
    same input.  ``kept_indices`` maps back into the full feature set;
    :meth:`transform_kept` is the hot-path entry for callers (the compiled
    predictor) that materialise only the kept feature columns up front.

    The native ``fused_transform`` kernel in :mod:`repro.ml._native`
    reproduces :meth:`transform_kept` bit-identically in C (verified by a
    probe at kernel load); :meth:`flat_arrays` exports the state it reads.
    """

    kept_indices: np.ndarray
    lambdas: np.ndarray | None
    shift: np.ndarray
    scale: np.ndarray

    @property
    def n_features_out(self) -> int:
        return int(self.kept_indices.shape[0])

    def transform_kept(self, X_kept: np.ndarray) -> np.ndarray:
        """Transform a matrix that already holds only the kept columns."""
        if self.lambdas is not None:
            X_kept = yeo_johnson_transform_matrix(X_kept, self.lambdas)
        return (X_kept - self.shift) / self.scale

    def flat_arrays(
        self,
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """C-contiguous ``(lambdas, shift, scale)`` for the native kernel.

        The native ``fused_transform`` stage reads these through raw
        pointers, so contiguity is asserted here (a no-op for what
        ``PreprocessingPipeline.compile`` builds — it fancy-indexes, which
        copies).
        """
        lambdas = (
            None
            if self.lambdas is None
            else np.ascontiguousarray(self.lambdas, dtype=np.float64)
        )
        return (
            lambdas,
            np.ascontiguousarray(self.shift, dtype=np.float64),
            np.ascontiguousarray(self.scale, dtype=np.float64),
        )

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Transform a full-width feature matrix (selects kept columns first)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        return self.transform_kept(X[:, self.kept_indices])


@dataclass
class PreprocessingConfig:
    """Serialisable description of a fitted preprocessing pipeline."""

    feature_names: List[str]
    use_yeo_johnson: bool
    correlation_threshold: float
    yeo_johnson: dict | None
    scaler: dict | None
    correlation: dict

    def to_dict(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "use_yeo_johnson": self.use_yeo_johnson,
            "correlation_threshold": self.correlation_threshold,
            "yeo_johnson": self.yeo_johnson,
            "scaler": self.scaler,
            "correlation": self.correlation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PreprocessingConfig":
        return cls(
            feature_names=list(data["feature_names"]),
            use_yeo_johnson=data["use_yeo_johnson"],
            correlation_threshold=data["correlation_threshold"],
            yeo_johnson=data["yeo_johnson"],
            scaler=data["scaler"],
            correlation=data["correlation"],
        )


class PreprocessingPipeline:
    """Yeo-Johnson (+ standardisation) → correlation pruning, with LOF on fit.

    Parameters
    ----------
    use_yeo_johnson:
        Apply the power transform (paper default).  When false a plain
        :class:`StandardScaler` is used instead, which is the configuration
        exercised by the Yeo-Johnson ablation benchmark.
    correlation_threshold:
        |r| threshold for redundant-feature pruning (paper: 0.8).
    lof_neighbors / lof_contamination:
        Local Outlier Factor parameters used during ``fit`` to drop outlier
        *rows*; outlier removal never applies at predict time.
    feature_names:
        Optional names carried through to the fitted config.
    """

    def __init__(
        self,
        use_yeo_johnson: bool = True,
        correlation_threshold: float = 0.8,
        lof_neighbors: int = 20,
        lof_contamination: float = 0.05,
        remove_outliers: bool = True,
        feature_names: Sequence[str] | None = None,
    ):
        self.use_yeo_johnson = use_yeo_johnson
        self.correlation_threshold = correlation_threshold
        self.lof_neighbors = lof_neighbors
        self.lof_contamination = lof_contamination
        self.remove_outliers = remove_outliers
        self.feature_names = list(feature_names) if feature_names is not None else None

    # -- fitting -------------------------------------------------------------
    def fit_transform(self, X: np.ndarray, y: np.ndarray | None = None):
        """Fit the pipeline and return transformed ``X`` (and filtered ``y``).

        Outlier rows identified by LOF on the raw features are removed from
        both ``X`` and ``y`` before the transforms are fitted.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if y is not None:
            y = np.asarray(y, dtype=np.float64).ravel()
            if y.shape[0] != X.shape[0]:
                raise ValueError("X and y length mismatch")

        if self.feature_names is None:
            self.feature_names = [f"f{i}" for i in range(X.shape[1])]
        elif len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names length does not match X")

        if self.remove_outliers and X.shape[0] > max(10, self.lof_neighbors + 1):
            lof = LocalOutlierFactor(
                n_neighbors=self.lof_neighbors,
                contamination=self.lof_contamination,
            )
            lof.fit(X)
            mask = lof.inlier_mask_
            self.n_outliers_removed_ = int((~mask).sum())
            X = X[mask]
            if y is not None:
                y = y[mask]
        else:
            self.n_outliers_removed_ = 0

        if self.use_yeo_johnson:
            self._power = YeoJohnsonTransformer(standardize=True)
            transformed = self._power.fit_transform(X)
            self._scaler = None
        else:
            self._power = None
            self._scaler = StandardScaler()
            transformed = self._scaler.fit_transform(X)

        self._correlation = CorrelationFilter(threshold=self.correlation_threshold)
        transformed = self._correlation.fit_transform(transformed, self.feature_names)
        self.kept_feature_names_ = [
            self.feature_names[i] for i in self._correlation.kept_indices_
        ]
        self.n_features_out_ = transformed.shape[1]

        if y is None:
            return transformed
        return transformed, y

    # -- transform -----------------------------------------------------------
    def transform(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "_correlation"):
            raise RuntimeError("PreprocessingPipeline is not fitted yet")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if self._power is not None:
            transformed = self._power.transform(X)
        else:
            transformed = self._scaler.transform(X)
        return self._correlation.transform(transformed)

    # -- compilation -----------------------------------------------------------
    def compile(self) -> FusedTransform:
        """Collapse the fitted pipeline into a :class:`FusedTransform`.

        The flat form holds per-kept-column Yeo-Johnson lambdas (or none for
        the plain-scaler configuration), the fused standardisation affine and
        the correlation keep-indices; its ``transform`` is bit-identical to
        the object path here.
        """
        if not hasattr(self, "_correlation"):
            raise RuntimeError("PreprocessingPipeline is not fitted yet")
        kept = self._correlation.keep_indices()
        if self._power is not None:
            lambdas, shift, scale = self._power.flat_state()
        else:
            lambdas = None
            shift, scale = self._scaler.flat_state()
        return FusedTransform(
            kept_indices=kept,
            lambdas=None if lambdas is None else lambdas[kept],
            shift=shift[kept],
            scale=scale[kept],
        )

    # -- serialisation ---------------------------------------------------------
    def to_config(self) -> PreprocessingConfig:
        if not hasattr(self, "_correlation"):
            raise RuntimeError("PreprocessingPipeline is not fitted yet")
        return PreprocessingConfig(
            feature_names=list(self.feature_names),
            use_yeo_johnson=self.use_yeo_johnson,
            correlation_threshold=self.correlation_threshold,
            yeo_johnson=self._power.to_config() if self._power is not None else None,
            scaler=self._scaler.to_config() if self._scaler is not None else None,
            correlation=self._correlation.to_config(),
        )

    @classmethod
    def from_config(cls, config: PreprocessingConfig | dict) -> "PreprocessingPipeline":
        if isinstance(config, dict):
            config = PreprocessingConfig.from_dict(config)
        pipeline = cls(
            use_yeo_johnson=config.use_yeo_johnson,
            correlation_threshold=config.correlation_threshold,
            feature_names=config.feature_names,
        )
        if config.yeo_johnson is not None:
            pipeline._power = YeoJohnsonTransformer.from_config(config.yeo_johnson)
            pipeline._scaler = None
        else:
            pipeline._power = None
            pipeline._scaler = StandardScaler.from_config(config.scaler)
        pipeline._correlation = CorrelationFilter.from_config(config.correlation)
        pipeline.kept_feature_names_ = [
            config.feature_names[i] for i in pipeline._correlation.kept_indices_
        ]
        pipeline.n_features_out_ = len(pipeline._correlation.kept_indices_)
        pipeline.n_outliers_removed_ = 0
        return pipeline
