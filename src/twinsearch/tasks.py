"""Seeded Gaussian-cluster classification tasks.

Each task draws class clouds with unit within-class variance around means
placed at a fixed pairwise distance on randomly rotated axes. Shrinking the
train split (and optionally adding label noise) emulates the small-sample
regime where the train set under-represents the test distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SyntheticTask", "TaskSpec"]


@dataclass(frozen=True)
class SyntheticTask:
    train_inputs: np.ndarray
    train_labels: np.ndarray
    val_inputs: np.ndarray
    val_labels: np.ndarray
    test_inputs: np.ndarray
    test_labels: np.ndarray
    n_classes: int
    input_dim: int

    @property
    def n_val(self) -> int:
        return len(self.val_labels)

    @property
    def n_test(self) -> int:
        return len(self.test_labels)


def _random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    # QR sign fix makes the factorization unique, hence reproducible
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _sample_split(
    n: int,
    means: np.ndarray,
    n_classes: int,
    input_dim: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    if n == 0:
        return np.zeros((0, input_dim)), np.zeros(0, dtype=np.int64)
    # round-robin labels keep classes balanced even for tiny splits
    labels = rng.permutation(np.arange(n, dtype=np.int64) % n_classes)
    inputs = means[labels] + rng.standard_normal((n, input_dim))
    return inputs, labels


@dataclass(frozen=True)
class TaskSpec:
    """Reproducible recipe for a clustered-Gaussian classification task.

    Class means sit at exact pairwise distance ``class_separation`` (scaled
    unit vectors, randomly rotated), so placement needs
    ``n_classes <= input_dim``. ``label_noise`` resamples that fraction of
    train labels uniformly; val and test stay clean.
    """

    seed: int = 0
    n_train: int = 150
    n_val: int = 30
    n_test: int = 2000
    n_classes: int = 3
    input_dim: int = 16
    class_separation: float = 2.5
    label_noise: float = 0.15

    def __post_init__(self) -> None:
        for name in ("seed", "n_train", "n_val", "n_test", "n_classes", "input_dim"):
            value = getattr(self, name)
            if type(value) is not int:  # bool is no count
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.n_classes > self.input_dim:
            raise ValueError(
                f"cannot place {self.n_classes} equidistant class means "
                f"in {self.input_dim} dimensions"
            )
        if self.n_train < self.n_classes:
            raise ValueError(f"n_train={self.n_train} below n_classes={self.n_classes}")
        if self.n_val < 0:
            raise ValueError(f"n_val must be >= 0, got {self.n_val}")
        if self.n_test < 0:
            raise ValueError(f"n_test must be >= 0, got {self.n_test}")
        if not (self.class_separation > 0 and math.isfinite(self.class_separation)):
            raise ValueError(f"class_separation must be positive and finite, got {self.class_separation}")
        if not 0 <= self.label_noise < 1:
            raise ValueError(f"label_noise must be in [0, 1), got {self.label_noise}")

    def make(self) -> SyntheticTask:
        """Generate the task; the same spec always gives the same arrays."""
        n_classes, input_dim, n_train = self.n_classes, self.input_dim, self.n_train
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        base = np.zeros((n_classes, input_dim))
        base[np.arange(n_classes), np.arange(n_classes)] = self.class_separation / np.sqrt(2.0)
        means = (base - base.mean(axis=0)) @ _random_rotation(input_dim, rng).T

        train_x, train_y = _sample_split(n_train, means, n_classes, input_dim, rng)
        val_x, val_y = _sample_split(self.n_val, means, n_classes, input_dim, rng)
        test_x, test_y = _sample_split(self.n_test, means, n_classes, input_dim, rng)

        n_noisy = int(round(self.label_noise * n_train))
        if n_noisy:
            idx = rng.choice(n_train, size=n_noisy, replace=False)
            train_y = train_y.copy()
            train_y[idx] = rng.integers(0, n_classes, size=n_noisy)

        return SyntheticTask(
            train_inputs=train_x,
            train_labels=train_y,
            val_inputs=val_x,
            val_labels=val_y,
            test_inputs=test_x,
            test_labels=test_y,
            n_classes=n_classes,
            input_dim=input_dim,
        )
