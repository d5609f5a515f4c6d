"""Timing datasets gathered at installation time.

A :class:`TimingDataset` holds, for one BLAS routine on one platform, the
sampled problem shapes, the thread counts that were timed, and the measured
runtimes.  It knows how to turn itself into a feature matrix / target vector
pair and how to perform the paper's stratified 85/15 train/test split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.features import build_feature_matrix, feature_names
from repro.ml.model_selection import stratified_train_test_split

__all__ = ["TimingDataset"]


@dataclass
class TimingDataset:
    """Timing samples for one routine on one platform.

    Attributes
    ----------
    routine:
        Routine key, e.g. ``"dsymm"``.
    platform:
        Platform name the samples were gathered on.
    dims:
        List of dimension dicts, one per sample row.
    threads:
        Thread count of each sample row.
    times:
        Measured runtime (seconds) of each sample row.
    """

    routine: str
    platform: str
    dims: List[Dict[str, int]] = field(default_factory=list)
    threads: List[int] = field(default_factory=list)
    times: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not (len(self.dims) == len(self.threads) == len(self.times)):
            raise ValueError("dims, threads and times must have equal lengths")

    # -- construction ---------------------------------------------------------
    def append(self, dims: Dict[str, int], threads: int, time: float) -> None:
        if threads < 1:
            raise ValueError("threads must be at least 1")
        if time <= 0:
            raise ValueError("time must be positive")
        self.dims.append(dict(dims))
        self.threads.append(int(threads))
        self.times.append(float(time))

    def extend(self, other: "TimingDataset") -> None:
        if other.routine != self.routine:
            raise ValueError("Cannot merge datasets of different routines")
        self.dims.extend(other.dims)
        self.threads.extend(other.threads)
        self.times.extend(other.times)

    def __len__(self) -> int:
        return len(self.times)

    # -- views ------------------------------------------------------------------
    @property
    def feature_names(self) -> List[str]:
        return feature_names(self.routine)

    def feature_matrix(self) -> np.ndarray:
        if not self.dims:
            raise ValueError("dataset is empty")
        return build_feature_matrix(self.routine, self.dims, self.threads)

    def target(self) -> np.ndarray:
        return np.asarray(self.times, dtype=np.float64)

    def unique_shapes(self) -> List[Dict[str, int]]:
        """Distinct problem shapes in sampling order."""
        seen = set()
        shapes = []
        for dims in self.dims:
            key = tuple(sorted(dims.items()))
            if key not in seen:
                seen.add(key)
                shapes.append(dict(dims))
        return shapes

    def reference_rows(self, threads: int) -> np.ndarray | None:
        """Per row, the index of a row timing the same shape at ``threads``
        (the first such row), or ``None`` when some shape was never timed
        there."""
        first: Dict[tuple, int] = {}
        for row, (dims, count) in enumerate(zip(self.dims, self.threads)):
            if count == threads:
                first.setdefault(tuple(sorted(dims.items())), row)
        try:
            return np.array([first[tuple(sorted(dims.items()))] for dims in self.dims], dtype=np.intp)
        except KeyError:
            return None

    # -- splitting ----------------------------------------------------------------
    def split_rows(
        self, test_size: float = 0.15, random_state: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row indices ``(train, test)`` of the stratified split (paper: 15 %
        test, stratified over the runtimes)."""
        rows = np.arange(len(self.times), dtype=np.float64)[:, None]
        train, test, _, _ = stratified_train_test_split(
            rows, self.target(), test_size=test_size, random_state=random_state
        )
        return train[:, 0].astype(np.intp), test[:, 0].astype(np.intp)

    def train_test_split(
        self, test_size: float = 0.15, random_state: int = 0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Stratified split of the feature matrix / runtimes (paper: 15 % test)."""
        train, test = self.split_rows(test_size=test_size, random_state=random_state)
        X = self.feature_matrix()
        y = self.target()
        return X[train], X[test], y[train], y[test]

    # -- summaries -----------------------------------------------------------------
    def describe(self) -> Dict[str, float]:
        """Simple summary statistics of the gathered runtimes."""
        times = self.target()
        threads = np.asarray(self.threads)
        return {
            "n_samples": float(len(self)),
            "n_shapes": float(len(self.unique_shapes())),
            "min_time": float(times.min()),
            "median_time": float(np.median(times)),
            "max_time": float(times.max()),
            "min_threads": float(threads.min()),
            "max_threads": float(threads.max()),
        }

    # -- serialisation ----------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "routine": self.routine,
            "platform": self.platform,
            "dims": [dict(d) for d in self.dims],
            "threads": list(self.threads),
            "times": list(self.times),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimingDataset":
        return cls(
            routine=data["routine"],
            platform=data["platform"],
            dims=[dict(d) for d in data["dims"]],
            threads=[int(t) for t in data["threads"]],
            times=[float(t) for t in data["times"]],
        )
