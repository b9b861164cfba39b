import numpy as np
import pytest

from twinsearch.tasks import TaskSpec


def test_two_blob_task_shapes_and_ranges():
    task = TaskSpec(1, 200, 50, 2000, 2, 2, 3.0, 0.0).make()
    assert task.train_inputs.shape == (200, 2)
    assert task.val_inputs.shape == (50, 2)
    assert task.test_inputs.shape == (2000, 2)
    for labels in (task.train_labels, task.val_labels, task.test_labels):
        assert labels.min() >= 0 and labels.max() < 2


def test_deterministic_given_seed():
    a = TaskSpec(11, 60, 10, 100, 3, 5, 2.0, 0.1).make()
    b = TaskSpec(11, 60, 10, 100, 3, 5, 2.0, 0.1).make()
    np.testing.assert_array_equal(a.train_inputs, b.train_inputs)
    np.testing.assert_array_equal(a.train_labels, b.train_labels)
    np.testing.assert_array_equal(a.test_inputs, b.test_inputs)


def test_different_seeds_differ():
    a = TaskSpec(1, 60, 10, 100, 3, 5, 2.0, 0.0).make()
    b = TaskSpec(2, 60, 10, 100, 3, 5, 2.0, 0.0).make()
    assert not np.array_equal(a.train_inputs, b.train_inputs)


def test_class_means_pairwise_distance():
    # empirical class means of a large clean sample approximate the placement
    task = TaskSpec(5, 20000, 0, 4, 4, 8, sep := 3.5, 0.0).make()
    means = np.stack(
        [task.train_inputs[task.train_labels == k].mean(axis=0) for k in range(4)]
    )
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(means[i] - means[j]) == pytest.approx(sep, abs=0.15)


def test_val_disjoint_from_train():
    task = TaskSpec(3, 80, 40, 100, 2, 4, 2.0, 0.0).make()
    train_rows = {tuple(row) for row in task.train_inputs}
    assert all(tuple(row) not in train_rows for row in task.val_inputs)


def test_label_noise_fraction_applied():
    clean = TaskSpec(7, 400, 0, 4, 4, 8, 50.0, 0.0).make()
    noisy = TaskSpec(7, 400, 0, 4, 4, 8, 50.0, 0.25).make()
    flipped = np.mean(clean.train_labels != noisy.train_labels)
    # resampling uniformly keeps ~1/n_classes of the noisy picks unchanged
    assert 0.25 * (1 - 1 / 4) == pytest.approx(flipped, abs=0.05)


def test_huge_separation_is_linearly_separable():
    task = TaskSpec(9, 100, 0, 1000, 2, 2, 100.0, 0.0).make()
    # nearest-mean classification is perfect when clusters are far apart
    means = np.stack(
        [task.train_inputs[task.train_labels == k].mean(axis=0) for k in range(2)]
    )
    d = ((task.test_inputs[:, None, :] - means[None]) ** 2).sum(axis=2)
    assert np.mean(d.argmin(axis=1) == task.test_labels) == 1.0


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(n_classes=5, input_dim=4), "equidistant"),
        (dict(n_train=2, n_classes=3, input_dim=4), "n_train"),
        (dict(class_separation=0.0), "class_separation"),
        (dict(label_noise=1.0), "label_noise"),
        (dict(label_noise=-0.1), "label_noise"),
        (dict(n_val=-1), "n_val"),
        (dict(n_test=-1), "n_test"),
        (dict(seed=-1), "seed"),
    ],
)
def test_invalid_arguments(kwargs, match):
    base = dict(
        seed=0,
        n_train=50,
        n_val=0,
        n_test=100,
        n_classes=3,
        input_dim=4,
        class_separation=1.5,
        label_noise=0.0,
    )
    base.update(kwargs)
    with pytest.raises(ValueError, match=match):
        TaskSpec(**base)


def test_empty_val_split_allowed():
    task = TaskSpec(2, 50, 0, 500, 2, 3, 2.0, 0.0).make()
    assert task.n_val == 0
    assert task.val_inputs.shape == (0, 3)
