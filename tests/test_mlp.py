"""Tests for the from-scratch MLP: init, forward, backward, Adam, checkpoints."""

import math
import tracemalloc

import numpy as np
import pytest

from poprank import mlp
from poprank.mlp import (
    AdamState,
    MlpModel,
    TrainConfig,
    adam_step,
    forward_batch,
    forward_cached,
    init_model,
    load_checkpoint,
    save_checkpoint,
)

from conftest import model_of, per_layer_adam_step, row_forward, zero_gradients


def _oracle_forward(model, x):
    """Straight-line reimplementation with explicit loops."""
    h = [float(v) for v in x]
    for l in range(len(model.weights)):
        out = []
        for r in range(model.weights[l].shape[0]):
            z = float(model.biases[l][r])
            for c in range(model.weights[l].shape[1]):
                z += float(model.weights[l][r, c]) * h[c]
            if l != len(model.weights) - 1:
                z = max(z, 0.0)
            out.append(z)
        h = out
    return h[0]


class TestInitModel:
    def test_deterministic(self):
        a = init_model([8, 4, 1], seed=7)
        b = init_model([8, 4, 1], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_he_standard_deviation(self):
        model = init_model([200, 500, 1], seed=0)
        samples = model.weights[0].ravel()
        assert samples.size == 100_000
        assert abs(samples.std() - np.sqrt(2.0 / 200)) < 0.05 * np.sqrt(2.0 / 200)
        assert abs(samples.mean()) < 3 * samples.std() / np.sqrt(samples.size)

    def test_draws_each_layers_weights_in_order_into_one_vector(self):
        dims, rng = [7, 5, 3, 1], np.random.default_rng(11)
        weights = [rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in)) for fan_in, fan_out in
                   zip(dims, dims[1:])]
        expected = np.concatenate([w.ravel() for w in weights] + [np.zeros(fan_out) for fan_out in dims[1:]])
        assert init_model(dims, seed=11).params.tobytes() == expected.tobytes()

    def test_biases_zero(self):
        model = init_model([5, 3, 1], seed=1)
        for b in model.biases:
            assert np.all(b == 0.0)

    @pytest.mark.parametrize("dims", [[], [4], [4, 2], [4, 0, 1], [-1, 1]])
    def test_bad_dims(self, dims):
        with pytest.raises(ValueError):
            init_model(dims, seed=0)


class TestForward:
    def test_zero_model(self):
        model = init_model([3, 2, 1], seed=0)
        for w in model.weights:
            w[:] = 0.0
        assert forward_batch(model, np.array([[1.0, -2.0, 3.0]]))[0] == 0.0

    def test_single_linear_layer(self):
        w = np.array([[0.5, -1.5, 2.0]])
        model = model_of([3, 1], [w], [np.array([0.25])])
        x = np.array([1.0, 2.0, 3.0])
        assert forward_batch(model, x[None])[0] == pytest.approx(float((w @ x)[0]) + 0.25, abs=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = init_model([5, 4, 3, 1], seed=int(rng.integers(1 << 30)))
            for b in model.biases:
                b[:] = rng.normal(size=b.shape)
            xs = rng.normal(size=(3, 5))
            batch = forward_batch(model, xs)
            for x, score in zip(xs, batch):
                assert score == pytest.approx(_oracle_forward(model, x), abs=1e-9)
                assert row_forward(model, x) == pytest.approx(_oracle_forward(model, x), abs=1e-9)

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(3)
        model = init_model([6, 4, 1], seed=9)
        xs = rng.normal(size=(11, 6))
        batch = forward_batch(model, xs)
        for i in range(11):
            assert batch[i] == pytest.approx(row_forward(model, xs[i]), abs=1e-12)

    def test_dimension_mismatch(self):
        model = init_model([4, 1], seed=0)
        with pytest.raises(ValueError):
            forward_batch(model, np.ones((2, 5)))
        with pytest.raises(ValueError):
            forward_batch(model, np.ones(5))

    def test_sub_batches_match_full_matrix(self):
        # a row's score is the same bits in any batch: in sub-batches, alone, and in a subset at another offset
        rng = np.random.default_rng(8)
        model = init_model([16, 64, 32, 1], seed=4)
        for b in model.biases:
            b[:] = rng.normal(0, 0.1, size=b.shape)
        xs = rng.normal(size=(300, 16))
        full = forward_batch(model, xs)
        for size in (1, 2, 7, 64):
            parts = np.concatenate([forward_batch(model, xs[i : i + size]) for i in range(0, len(xs), size)])
            assert np.array_equal(parts, full)
        assert all(forward_batch(model, x)[0] == score for x, score in zip(xs, full))
        subset = rng.permutation(len(xs))[:101]
        shifted = np.empty(len(subset) * 16 + 1)[1:].reshape(len(subset), 16)  # 8 bytes past the buffer's start
        shifted[...] = xs[subset]
        assert np.array_equal(forward_batch(model, shifted), full[subset])
        assert np.array_equal(forward_batch(model, np.asfortranarray(xs[subset])), full[subset])

    def test_long_batch_and_empty_batch(self):
        rng = np.random.default_rng(10)
        model = init_model([3, 4, 1], seed=6)
        xs = rng.normal(size=(2 * mlp.SCORE_ROWS + 5, 3))
        scores = forward_batch(model, xs)
        assert scores.shape == (len(xs),)
        assert np.max(np.abs(scores - forward_cached(model, xs)[0])) <= 1e-12
        assert forward_batch(model, np.zeros((0, 3))).shape == (0,)


class TestFlatLayout:
    def test_matches_concatenated_layers(self):
        model = init_model([5, 4, 3, 1], seed=2)
        flat = np.concatenate([w.ravel() for w in model.weights] + [b.ravel() for b in model.biases])
        assert np.array_equal(model.params, flat)
        assert model.params.flags.c_contiguous and model.params.dtype == np.float64

    def test_in_place_layer_edit_changes_flat_vector(self):
        model = init_model([3, 2, 1], seed=0)
        model.weights[1][0, 1] = 7.5
        model.biases[0][:] = -1.0
        assert model.params[6 + 1] == 7.5  # weights[0] holds 6 entries
        assert np.array_equal(model.params[-3:-1], [-1.0, -1.0])

    def test_copy_is_independent(self):
        model = init_model([3, 2, 1], seed=0)
        clone = MlpModel(model.layer_dims, model.params.copy())
        clone.weights[0][:] = 0.0
        assert not np.array_equal(model.weights[0], clone.weights[0])
        assert clone.layer_dims == model.layer_dims

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_weights_and_biases_are_views_into_the_vector(self, lead):
        v = np.arange(11.0 * (2 if lead else 1)).reshape(*lead, 11)
        model = MlpModel([3, 2, 1], v)
        parts = model.weights + model.biases
        assert model.params is v and all(np.shares_memory(part, v) for part in parts)
        assert [part.shape for part in parts] == [(*lead, 2, 3), (*lead, 1, 2), (*lead, 2), (*lead, 1)]
        assert np.array_equal(np.concatenate([part.reshape(*lead, -1) for part in parts], axis=-1), v)

    @pytest.mark.parametrize("size", [8, 10])
    def test_over_rejects_a_vector_of_the_wrong_length(self, size):
        with pytest.raises(ValueError, match=rf"^parameter vector has {size} entries, dims \[3, 2, 1\] need 11$"):
            MlpModel([3, 2, 1], np.zeros(size))


class TestBackward:
    def test_input_gradient_via_finite_differences(self):
        rng = np.random.default_rng(21)
        model = init_model([4, 3, 1], seed=5)
        for b in model.biases:
            b[:] = rng.normal(0, 0.1, size=b.shape)
        x = rng.normal(size=4)
        _, cache = forward_cached(model, x)
        _, delta = mlp.backward(model, cache, np.array([1.0]), zero_gradients(model))
        inputs = delta @ model.weights[0]
        h = 1e-6
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (row_forward(model, xp) - row_forward(model, xm)) / (2 * h)
            assert inputs[0, i] == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("dims", [[16, 64, 32, 1], [256, 64, 32, 1]])
    @pytest.mark.parametrize("n", [1, 5, 64])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_a_stacked_pass_is_each_members_own_pass_bitwise(self, dims, n, buffered):
        """A (2, n, D) stack through `forward_cached` and `backward` gives each member the bits of its 2-D passes."""
        rng = np.random.default_rng(n)
        model = init_model(dims, seed=n)
        for b in model.biases:
            b[:] = rng.normal(0, 0.1, size=b.shape)
        xs, upstream = rng.normal(size=(2, n, dims[0])), rng.normal(size=(2, n))
        flat, outs, deltas = np.empty((2, model.params.size)), None, None
        if buffered:  # buffers with rows for 64, given whole as for an epoch's last batch; the pass writes n rows
            outs = [np.empty((2, 64, d)) for d in dims[1:]]
            deltas = [np.empty((2, 64, d)) for d in dims[1:-1]]
        scores, cache = forward_cached(model, xs, outs)
        params, delta = mlp.backward(model, cache, upstream, MlpModel(dims, flat), deltas)
        assert params is flat and delta.shape == (2, n, dims[1])
        if buffered:
            assert all(np.shares_memory(h, out) for h, out in zip(cache[1:], outs))
            assert all(h.shape == (2, n, out.shape[-1]) for h, out in zip(cache[1:], outs))

        def bits(a):
            return np.ascontiguousarray(a).view(np.int64)

        for k in range(2):
            own_scores, own_cache = forward_cached(model, xs[k].copy())
            own_params, own_delta = mlp.backward(model, own_cache, upstream[k].copy(), zero_gradients(model))
            assert np.array_equal(bits(scores[k]), bits(own_scores))
            assert all(np.array_equal(bits(h[k]), bits(own)) for h, own in zip(cache[1:], own_cache[1:]))
            assert np.array_equal(bits(params[k]), bits(own_params))
            assert np.array_equal(bits(delta[k]), bits(own_delta))


class TestAdamStep:
    def _scalar_model(self, value=1.0):
        return model_of([1, 1], [np.array([[value]])], [np.array([0.0])])

    def test_zero_gradient_no_move(self):
        model = self._scalar_model(0.7)
        state = AdamState(model.params)
        grads = zero_gradients(model)
        adam_step(state, model.params, grads.params, effective_lr=0.1, l2_penalty=0.0)
        assert model.weights[0][0, 0] == 0.7
        assert state.step == 1

    def test_first_step_is_bias_corrected_sign_step(self):
        # hand evaluation: m_hat = g, v_hat = g^2, delta = -lr * g / (|g| + eps)
        model = self._scalar_model(1.0)
        state = AdamState(model.params)
        grads = zero_gradients(model)
        g = 0.37
        grads.weights[0][0, 0] = g
        lr, eps = 0.01, 1e-8
        adam_step(state, model.params, grads.params, effective_lr=lr, l2_penalty=0.0)
        expected = 1.0 - lr * g / (abs(g) + eps)
        assert model.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)
        assert abs((1.0 - model.weights[0][0, 0]) - lr) < 1e-8

    def test_l2_pulls_toward_zero(self):
        model = self._scalar_model(2.0)
        state = AdamState(model.params)
        adam_step(state, model.params, zero_gradients(model).params, effective_lr=0.05, l2_penalty=1e-2)
        assert model.weights[0][0, 0] < 2.0

    def test_shape_mismatch(self):
        model = self._scalar_model()
        other = init_model([3, 1], seed=0)
        state = AdamState(model.params)
        with pytest.raises(ValueError):
            adam_step(state, model.params, zero_gradients(other).params, 0.1, 0.0)

    def test_trajectory_determinism(self):
        rng = np.random.default_rng(8)
        grads_seq = rng.normal(size=20)

        def run():
            model = self._scalar_model(0.5)
            state = AdamState(model.params)
            for g in grads_seq:
                grad = zero_gradients(model)
                grad.weights[0][0, 0] = g
                adam_step(state, model.params, grad.params, 0.01, 1e-4)
            return model.weights[0][0, 0]

        assert run() == run()


    def test_flat_update_matches_per_layer_oracle_bitwise(self):
        rng = np.random.default_rng(2024)
        model = init_model([6, 5, 3, 1], seed=4)
        oracle = MlpModel(model.layer_dims, model.params.copy())
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in oracle.weights + oracle.biases]
        state = AdamState(model.params)
        for step in range(1, 201):
            grads = zero_gradients(model)
            grads.params[:] = rng.normal(0.0, 10.0 ** rng.uniform(-4, 1), size=grads.params.size)
            lr = float(rng.uniform(1e-4, 1e-1))
            adam_step(state, model.params, grads.params, lr, 1e-3)
            per_layer_adam_step(moments, oracle, grads, lr, 1e-3, step)
        assert state.step == 200
        assert np.array_equal(model.params, oracle.params)

    def test_step_leaves_the_gradient_unchanged(self):
        rng = np.random.default_rng(5)
        params = rng.normal(size=40)
        grad = rng.normal(size=40)
        before = grad.copy()
        state = AdamState(params)
        for _ in range(3):
            adam_step(state, params, grad, 0.01, 1e-3)
        assert np.array_equal(grad, before)
        assert not any(np.shares_memory(grad, a) for a in (state.m, state.v, *state.scratch))

    def test_step_allocates_no_parameter_sized_array(self):
        params = np.random.default_rng(6).normal(size=46_466)  # the baseline's parameter count
        grad = np.random.default_rng(7).normal(size=params.size)
        state = AdamState(params)
        tracemalloc.start()
        try:
            for _ in range(10):
                adam_step(state, params, grad, 1e-3, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.nbytes


class TestFit:
    def test_overflowing_second_moment_is_divergence(self):
        # (l2 * theta)**2 overflows v to inf, and m / sqrt(v) = 0 would freeze every weight at its init
        model = init_model([3, 4, 1], seed=1)
        rng = np.random.default_rng(1)
        xs, ys = rng.normal(size=(20, 3)), rng.normal(size=20)

        def loss_and_grad(batch):
            preds, cache = forward_cached(model, xs[batch])
            residuals = preds - ys[batch]
            grad = zero_gradients(model)
            return float(np.mean(residuals**2)), mlp.backward(model, cache, 2 * residuals / len(batch), grad)[0]

        config = TrainConfig(learning_rate=1e-3, l2_penalty=1e308, batch_size=5, epochs=3)
        with pytest.raises(ValueError, match=r"^training diverged in epoch 0: non-finite Adam second moment"):
            mlp.fit(model.params, (np.arange(15), np.arange(15, 20)), lambda rng: loss_and_grad, lambda: 0.0,
                    config, np.random.default_rng(0))

    def test_overflowing_parameters_are_divergence(self):
        # a constant gradient moves each parameter by about the learning rate a step: 1e308 twice overflows
        params, grad = np.zeros(3), np.ones(3)
        config = TrainConfig(learning_rate=1e308, l2_penalty=0.0, batch_size=1, epochs=2)
        with pytest.raises(ValueError, match=r"^training diverged in epoch 0: non-finite parameters"):
            mlp.fit(params, (np.arange(3), np.array([3])), lambda rng: lambda batch: (0.0, grad), lambda: 0.0,
                    config, np.random.default_rng(0))


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["learning_rate", "l2_penalty"])
    @pytest.mark.parametrize("value", [-1e-4, math.nan, math.inf])
    def test_rejects_negative_and_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_zero_allowed(self):
        assert TrainConfig(learning_rate=0.0, l2_penalty=0.0).learning_rate == 0.0


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = init_model([7, 5, 3, 1], seed=42)
        rng = np.random.default_rng(0)
        for b in model.biases:
            b[:] = rng.normal(size=b.shape)
        path = tmp_path / "model.txt"
        save_checkpoint(path, {"scorer": model})
        loaded = load_checkpoint(path)["scorer"]
        assert loaded.layer_dims == model.layer_dims
        for wa, wb in zip(loaded.weights, model.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(loaded.biases, model.biases):
            assert np.array_equal(ba, bb)

    def test_two_sections(self, tmp_path):
        a = init_model([4, 2, 1], seed=1)
        b = init_model([7, 3, 1], seed=2)
        path = tmp_path / "pair.txt"
        save_checkpoint(path, {"visual": a, "head": b})
        loaded = load_checkpoint(path)
        assert set(loaded) == {"visual", "head"}
        assert loaded["head"].layer_dims == [7, 3, 1]

    def test_version_tag_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something-else\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_byte_determinism(self, tmp_path):
        model = init_model([4, 3, 1], seed=3)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_checkpoint(p1, {"scorer": model})
        save_checkpoint(p2, {"scorer": model})
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_formats_one_row_at_a_time(self, tmp_path):
        """A 256-64-32-1 model's first layer, as one `.tolist()`, would take about 530 KiB of Python floats at once
        (`train`'s peak, as it saves); a row at a time takes about 34 KiB."""
        model, path = init_model([256, 64, 32, 1], seed=4), tmp_path / "model.txt"
        save_checkpoint(path, {"scorer": model})  # a first save, so that state made once per process is not counted
        tracemalloc.start()
        try:
            save_checkpoint(path, {"scorer": model})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024


class TestCheckpointDamage:
    @pytest.fixture
    def text(self, tmp_path):
        path = tmp_path / "full.txt"
        save_checkpoint(path, {"scorer": init_model([16, 8, 4, 1], seed=5)})
        return path.read_text()

    def test_every_line_boundary_prefix_is_a_line_numbered_error(self, text, tmp_path):
        lines = text.splitlines(keepends=True)
        path = tmp_path / "cut.txt"
        for k in range(len(lines)):
            path.write_text("".join(lines[:k]))
            with pytest.raises(ValueError, match=r"^line \d+: "):
                load_checkpoint(path)

    def test_mid_line_cut_is_a_line_numbered_error(self, text, tmp_path):
        lines = text.splitlines(keepends=True)
        path = tmp_path / "cut.txt"
        for k in (3, len(lines) - 1):
            path.write_text("".join(lines[:k]) + lines[k][: len(lines[k]) // 2])
            with pytest.raises(ValueError, match=rf"^line {k + 1}: "):
                load_checkpoint(path)

    @pytest.mark.parametrize(
        "line_no, replacement",
        [(4, "0.5 0.25"), (4, "0.5 " * 17), (19, "1 2 3"), (2, "model"), (3, "dims 16 x 1"), (3, "dims 16")],
    )
    def test_bad_row_names_its_line(self, text, tmp_path, line_no, replacement):
        lines = text.splitlines()
        lines[line_no - 1] = replacement.strip()
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^line {line_no}: "):
            load_checkpoint(path)

    def test_non_numeric_value(self, text, tmp_path):
        lines = text.splitlines()
        lines[4] = " ".join(["nope"] + lines[4].split()[1:])
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"^line 5: "):
            load_checkpoint(path)

    def test_an_output_dim_other_than_one_names_its_line(self, tmp_path):
        path = tmp_path / "two_outputs.txt"
        model = model_of([4, 3, 2], [np.ones((3, 4)), np.ones((2, 3))], [np.zeros(3), np.zeros(2)])
        save_checkpoint(path, {"scorer": model})
        with pytest.raises(ValueError, match=r"^line 3: output dim must be 1, got 2$"):
            load_checkpoint(path)

    def test_a_repeated_section_name_names_its_line(self, text, tmp_path):
        lines = text.splitlines(keepends=True)
        path = tmp_path / "twice.txt"
        path.write_text("".join(lines + lines[1:]))
        with pytest.raises(ValueError, match=rf"^line {len(lines) + 1}: a second model section named 'scorer'$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_line(self, text, tmp_path, value):
        lines = text.splitlines()
        lines[4] = " ".join(lines[4].split()[:-1] + [value])
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"^line 5: non-finite"):
            load_checkpoint(path)
