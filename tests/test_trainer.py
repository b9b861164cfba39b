import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import reference_loss_and_grad

from twinsearch.grid import GridCell
from twinsearch.tasks import TaskSpec
from twinsearch.trainer import (
    MLP,
    STATUS_COMPLETED,
    STATUS_DIVERGED,
    ArchSpec,
    Cohort,
    TrainerConfig,
    cosine_lr,
    param_l2_norm,
    schedule_lr,
    sgdm_step,
)


def small_task(seed=1, n_train=60):
    return TaskSpec(seed, n_train, 10, 200, 3, 6, 3.0, 0.0).make()


def run_to_end(task, arch, lr, wd, epochs, config=TrainerConfig(), cell=GridCell(0, 0)):
    """Step one trial alone, scoring every finite epoch, until it completes or diverges."""
    (runner,) = Cohort(task, arch, config, epochs, epochs, [(cell, lr, wd)]).members
    while not runner.done:
        runner.step_epoch()
    return runner.record


def logits(model, theta, x):
    """Logits of one theta on (N, D) inputs, computed unbuffered."""
    a = x
    layers = model._layers(theta)
    for wm, bv in layers[:-1]:
        a = np.maximum(a @ wm + bv, 0.0)
    wm, bv = layers[-1]
    return a @ wm + bv


def single_loss(model, theta, x, y):
    """Mean cross-entropy of one trial's minibatch, computed unstacked."""
    z = logits(model, theta, x)
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(y)), y]))


class TestCosine:
    def test_start_is_base_lr(self):
        assert cosine_lr(0.1, 0, 10) == 0.1

    def test_midpoint_is_half(self):
        assert cosine_lr(0.1, 5, 10) == pytest.approx(0.05, rel=1e-15)

    def test_last_epoch_value(self):
        # 0.05 * (1 + cos(0.9 pi))
        assert cosine_lr(0.1, 9, 10) == pytest.approx(0.0024471741852423235, rel=1e-12)

    def test_out_of_range_epoch(self):
        with pytest.raises(ValueError):
            cosine_lr(0.1, 10, 10)

    def test_piecewise_steps(self):
        assert schedule_lr("piecewise", 1.0, 0, 100) == 1.0
        assert schedule_lr("piecewise", 1.0, 49, 100) == 1.0
        assert schedule_lr("piecewise", 1.0, 50, 100) == 0.1
        assert schedule_lr("piecewise", 1.0, 75, 100) == 0.01

    def test_constant(self):
        assert all(schedule_lr("constant", 0.3, t, 10) == 0.3 for t in range(10))


def stepped(theta, velocity, grad, lr_t, wd, momentum):
    """sgdm_step on copies: the new (theta, velocity); the arguments are left as they were."""
    theta, velocity = theta.copy(), velocity.copy()
    sgdm_step(theta, velocity, grad, lr_t, wd, momentum, np.empty_like(theta))
    return theta, velocity


class TestSgdmStep:
    def test_plain_sgd(self):
        theta = np.array([1.0, -2.0])
        grad = np.array([0.5, 0.5])
        new, v = stepped(theta, np.zeros(2), grad, 0.1, 0.0, 0.0)
        np.testing.assert_allclose(new, theta - 0.1 * grad)
        np.testing.assert_allclose(v, grad)

    def test_pure_shrinkage(self):
        theta = np.array([2.0, -3.0])
        new, _ = stepped(theta, np.zeros(2), np.zeros(2), 0.1, 0.5, 0.0)
        np.testing.assert_allclose(new, theta * (1 - 0.1 * 0.5))

    def test_hand_arithmetic(self):
        theta = np.array([1.0])
        v = np.array([0.5])
        grad = np.array([0.2])
        new, v2 = stepped(theta, v, grad, 0.1, 0.01, 0.9)
        assert v2[0] == pytest.approx(0.66, abs=1e-15)
        assert new[0] == pytest.approx(0.934, abs=1e-15)

    def test_weight_decay_equivalence_without_momentum(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(20)
        grad = rng.standard_normal(20)
        new, _ = stepped(theta, np.zeros(20), grad, 0.05, 0.3, 0.0)
        # algebraically identical; float association differs by <= 1 ulp
        np.testing.assert_allclose(new, theta * (1 - 0.05 * 0.3) - 0.05 * grad, rtol=1e-15)

    def test_norm_strictly_decreases_under_pure_decay(self):
        theta = np.random.default_rng(1).standard_normal(30)
        v = np.zeros(30)
        prev = param_l2_norm(theta)
        for _ in range(10):
            theta, v = stepped(theta, v, np.zeros(30), 0.2, 0.9, 0.0)
            now = param_l2_norm(theta)
            assert now < prev
            prev = now


    def test_stack_update_has_the_out_of_place_formula_bits(self):
        # per-row lr and wd columns, as a cohort passes them
        rng = np.random.default_rng(2)
        theta, velocity, grad = (rng.standard_normal((5, 40)) for _ in range(3))
        lr_t, wd = 10.0 ** rng.uniform(-3, 0, size=(2, 5, 1))
        want_velocity = 0.9 * velocity + (grad + wd * theta)
        want_theta = theta - lr_t * want_velocity
        rows, v_rows = theta[1:4], velocity[1:4]  # views, updated in place
        sgdm_step(rows, v_rows, grad[1:4], lr_t[1:4], wd[1:4], 0.9, np.empty_like(rows))
        assert theta[1:4].tobytes() == want_theta[1:4].tobytes()
        assert velocity[1:4].tobytes() == want_velocity[1:4].tobytes()
        assert not np.array_equal(theta[0], want_theta[0])  # rows outside the views untouched


class TestNorm:
    def test_zero(self):
        assert param_l2_norm(np.zeros(7)) == 0.0

    def test_three_four_five(self):
        assert param_l2_norm(np.array([3.0, 4.0])) == 5.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_against_fsum_oracle(self, seed):
        theta = np.random.default_rng(seed).standard_normal(257)
        expected = math.sqrt(math.fsum(float(t) * float(t) for t in theta))
        assert param_l2_norm(theta) == pytest.approx(expected, rel=1e-12)


def kink_margin(model, theta, x):
    """Smallest |pre-activation| over hidden units; FD needs a clear margin."""
    a = x
    margin = math.inf
    for wm, bv in model._layers(theta)[:-1]:
        z = a @ wm + bv
        margin = min(margin, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return margin


def random_checkable_point(model, rng, x, margin=1e-3):
    """Generic theta away from every ReLU kink (central differences are only
    valid where the loss is locally smooth)."""
    for _ in range(50):
        theta = model.init_params(rng) * 0.7 + 0.1 * rng.standard_normal(model.n_params)
        if kink_margin(model, theta, x) > margin:
            return theta
    raise AssertionError("could not find a kink-free evaluation point")


class TestGradients:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        hidden = tuple(int(h) for h in rng.integers(3, 9, size=rng.integers(1, 3)))
        n_classes = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 6))
        model = MLP(dim, hidden, n_classes)
        assert model.n_params <= 500
        # a stack of independently drawn trials; every row is checked
        xs = rng.standard_normal((3, 12, dim))
        ys = rng.integers(0, n_classes, size=(3, 12))
        thetas = np.stack([random_checkable_point(model, rng, x) for x in xs])
        _, grads = model.loss_and_grad(thetas, xs, ys)
        h = 1e-5
        for theta, x, y, grad in zip(thetas, xs, ys, grads):
            for i in rng.choice(model.n_params, size=min(40, model.n_params), replace=False):
                probe = theta.copy()
                probe[i] += h
                up = single_loss(model, probe, x, y)
                probe[i] -= 2 * h
                down = single_loss(model, probe, x, y)
                fd = (up - down) / (2 * h)
                if abs(grad[i]) > 1e-8:
                    assert abs(grad[i] - fd) / max(abs(grad[i]), abs(fd)) < 1e-4

    def test_loss_and_grad_loss_matches_loss(self):
        rng = np.random.default_rng(3)
        model = MLP(4, (6, 5), 3)
        thetas = np.stack([model.init_params(rng) for _ in range(4)])
        xs = rng.standard_normal((4, 9, 4))
        ys = rng.integers(0, 3, size=(4, 9))
        losses, grads = model.loss_and_grad(thetas, xs, ys)
        assert losses.shape == (4,) and grads.shape == thetas.shape
        for t in range(4):
            assert losses[t] == single_loss(model, thetas[t], xs[t], ys[t])
            alone_loss, alone_grad = model.loss_and_grad(thetas[t : t + 1], xs[t : t + 1], ys[t : t + 1])
            assert alone_loss[0] == losses[t]
            assert np.array_equal(alone_grad[0], grads[t])


def same_bits(got, want):
    """Byte equality, except that a NaN matches any NaN (payloads may differ)."""
    nan = np.isnan(want)
    return (
        got.shape == want.shape
        and np.array_equal(np.isnan(got), nan)
        and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    )


class TestKernelParity:
    """``loss_and_grad`` against the frozen reference in ``tests/kernel_oracle.py``."""

    DRAWS = 9  # 40 cases x 9 draws = 360 stacks

    # 64 and 36 are the stack slices of a 100-cell grid
    @pytest.mark.parametrize(
        "stack,hidden,n_classes",
        list(itertools.product((1, 5, 16, 36, 64), ((32,), (32, 16)), (2, 3, 8, 10))),
    )
    def test_bit_equal_to_frozen_reference(self, stack, hidden, n_classes):
        rng = np.random.default_rng([stack, len(hidden), n_classes])
        nan_rows = 0
        for draw in range(self.DRAWS):
            dim = int(rng.integers(2, 17))
            batch = int(rng.choice([1, 7, 32]))
            model = MLP(dim, hidden, n_classes)
            scale = 10.0 ** rng.uniform(-2.0, 2.0, size=(stack, 1))
            theta = rng.standard_normal((stack, model.n_params)) * scale
            if draw % 3 == 2:
                huge = rng.random(stack) < 0.3
                huge[rng.integers(stack)] = True
                theta[huge] *= 1e200
            x = rng.standard_normal((stack, batch, dim)) * 10.0 ** rng.uniform(-2.0, 2.0)
            y = rng.integers(0, n_classes, size=(stack, batch))
            with np.errstate(all="ignore"):
                losses, grad = model.loss_and_grad(theta, x, y)
                want_losses, want_grad = reference_loss_and_grad(model.sizes, theta, x, y)
            assert same_bits(losses, want_losses), f"losses differ, draw {draw}"
            assert same_bits(grad, want_grad), f"gradients differ, draw {draw}"
            nan_rows += int(np.isnan(want_losses).sum())
        assert nan_rows > 0  # the rows scaled by 1e200 overflow to NaN losses


class TestBufferReuse:
    """One ``MLP`` across calls whose shapes grow and shrink, as a cohort's passes do."""

    SHAPES = [(16, 32), (5, 7), (16, 22), (1, 1), (16, 32)]  # (trials, batch)

    @pytest.mark.parametrize("hidden", [(32,), (32, 16)])
    def test_loss_and_grad_matches_the_reference_and_keeps_returned_arrays(self, hidden):
        rng = np.random.default_rng(len(hidden))
        model = MLP(6, hidden, 3)
        returned = []
        for t, b in self.SHAPES:
            theta = rng.standard_normal((t, model.n_params))
            x = rng.standard_normal((t, b, 6))
            y = rng.integers(0, 3, size=(t, b))
            losses, grad = model.loss_and_grad(theta, x, y)
            want_losses, want_grad = reference_loss_and_grad(model.sizes, theta, x, y)
            assert same_bits(losses, want_losses) and same_bits(grad, want_grad), (t, b)
            returned.append((losses, grad, want_losses, want_grad))
        # later calls wrote nothing into what an earlier call returned
        for losses, grad, want_losses, want_grad in returned:
            assert same_bits(losses, want_losses) and same_bits(grad, want_grad)

    @pytest.mark.parametrize("hidden", [(32,), (32, 16)])
    def test_accuracy_matches_an_unbuffered_argmax(self, hidden):
        rng = np.random.default_rng(7)
        model = MLP(6, hidden, 3)
        theta = model.init_params(rng)
        scores = []
        for n in (2000, 30, 2000):
            x = rng.standard_normal((n, 6))
            y = rng.integers(0, 3, size=n)
            want = float(np.mean(logits(model, theta, x).argmax(axis=1) == y))
            assert model.accuracy(theta, x, y) == want, n
            scores.append(want)
            # a training pass in between shares the buffers
            x_batch = rng.standard_normal((4, 9, 6))
            model.loss_and_grad(np.stack([theta] * 4), x_batch, y[None, :9].repeat(4, 0))
        assert len(set(scores)) > 1


class TestRunTrial:
    def test_loss_decreases_on_separable_task(self):
        task = TaskSpec(1, 100, 0, 200, 2, 4, 8.0, 0.0).make()
        cfg = TrainerConfig(momentum=0.0, lr_schedule="constant")
        record = run_to_end(task, ArchSpec((8,)), 0.05, 0.0, 5, cfg)
        assert record.status == STATUS_COMPLETED
        assert record.epochs[-1].train_loss < record.epochs[0].train_loss

    def test_huge_separation_converges_to_tiny_loss(self):
        task = TaskSpec(2, 100, 0, 200, 2, 4, 60.0, 0.0).make()
        record = run_to_end(task, ArchSpec((8,)), 0.1, 0.0, 30)
        assert record.epochs[-1].train_loss < 1e-2

    def test_extreme_lr_wd_diverges_and_retains_record(self):
        task = small_task()
        cfg = TrainerConfig(momentum=0.95, lr_schedule="constant")
        record = run_to_end(task, ArchSpec((128, 128)), 0.5, 0.5, 40, cfg)
        assert record.status == STATUS_DIVERGED
        assert record.epochs_run >= 1
        last = record.epochs[-1]
        assert not (math.isfinite(last.train_loss) and math.isfinite(last.param_norm))
        assert record.epochs_run < 40  # stopped logging at divergence

    def test_bit_identical_reruns(self):
        task = small_task()
        cfg = TrainerConfig(init_seed=5)
        a = run_to_end(task, ArchSpec((12,)), 0.03, 1e-3, 6, cfg, cell=GridCell(1, 2))
        b = run_to_end(task, ArchSpec((12,)), 0.03, 1e-3, 6, cfg, cell=GridCell(1, 2))
        assert a.epochs == b.epochs
        assert a.status == b.status

    def test_different_cells_use_independent_streams(self):
        task = small_task()
        cfg = TrainerConfig(init_seed=5)
        a = run_to_end(task, ArchSpec((12,)), 0.03, 1e-3, 2, cfg, cell=GridCell(0, 0))
        b = run_to_end(task, ArchSpec((12,)), 0.03, 1e-3, 2, cfg, cell=GridCell(0, 1))
        assert a.epochs[-1].train_loss != b.epochs[-1].train_loss

    def test_val_and_test_metrics_logged(self):
        task = small_task()
        record = run_to_end(task, ArchSpec((12,)), 0.05, 0.0, 3)
        for entry in record.epochs:
            assert 0.0 <= entry.val_metric <= 1.0
            assert 0.0 <= entry.test_metric <= 1.0

    def test_epoch_indices_contiguous(self):
        task = small_task()
        record = run_to_end(task, ArchSpec((12,)), 0.05, 0.0, 4)
        assert [e.epoch for e in record.epochs] == [0, 1, 2, 3]

    def test_runner_refuses_stepping_after_done(self):
        task = small_task()
        cohort = Cohort(task, ArchSpec((8,)), TrainerConfig(), 1, 1, [(GridCell(0, 0), 0.05, 0.0)])
        (runner,) = cohort.members
        runner.step_epoch()
        with pytest.raises(RuntimeError):
            runner.step_epoch()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(momentum=1.0),
            dict(momentum=-0.1),
            dict(batch_size=0),
            dict(lr_schedule="linear"),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainerConfig(**kwargs)
