"""Tests for the from-scratch MLP: init, forward, backward, Adam, checkpoints."""

import numpy as np
import pytest

from poprank import mlp
from poprank.mlp import (
    AdamState,
    MlpModel,
    adam_step,
    forward,
    forward_batch,
    forward_cached,
    init_model,
    load_checkpoint,
    save_checkpoint,
)

from conftest import per_layer_adam_step, zero_gradients


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
        assert forward(model, np.array([1.0, -2.0, 3.0])) == 0.0

    def test_single_linear_layer(self):
        w = np.array([[0.5, -1.5, 2.0]])
        model = MlpModel(layer_dims=[3, 1], weights=[w], biases=[np.array([0.25])])
        x = np.array([1.0, 2.0, 3.0])
        assert forward(model, x) == pytest.approx(float((w @ x)[0]) + 0.25, abs=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = init_model([5, 4, 3, 1], seed=int(rng.integers(1 << 30)))
            for b in model.biases:
                b[:] = rng.normal(size=b.shape)
            x = rng.normal(size=5)
            assert forward(model, x) == pytest.approx(_oracle_forward(model, x), abs=1e-9)

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(3)
        model = init_model([6, 4, 1], seed=9)
        xs = rng.normal(size=(11, 6))
        batch = forward_batch(model, xs)
        for i in range(11):
            assert batch[i] == pytest.approx(forward(model, xs[i]), abs=1e-12)

    def test_dimension_mismatch(self):
        model = init_model([4, 1], seed=0)
        with pytest.raises(ValueError):
            forward(model, np.ones(5))


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
        clone = model.copy()
        clone.weights[0][:] = 0.0
        assert not np.array_equal(model.weights[0], clone.weights[0])
        assert clone.layer_dims == model.layer_dims

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MlpModel(layer_dims=[3, 1], weights=[np.zeros((3, 1))], biases=[np.zeros(1)])


class TestBackward:
    def test_input_gradient_via_finite_differences(self):
        rng = np.random.default_rng(21)
        model = init_model([4, 3, 1], seed=5)
        for b in model.biases:
            b[:] = rng.normal(0, 0.1, size=b.shape)
        x = rng.normal(size=4)
        _, cache = forward_cached(model, x)
        grads = mlp.backward(model, cache, np.array([1.0]))
        h = 1e-6
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (forward(model, xp) - forward(model, xm)) / (2 * h)
            assert grads.inputs[0, i] == pytest.approx(fd, abs=1e-6)


class TestAdamStep:
    def _scalar_model(self, value=1.0):
        return MlpModel(layer_dims=[1, 1], weights=[np.array([[value]])], biases=[np.array([0.0])])

    def test_zero_gradient_no_move(self):
        model = self._scalar_model(0.7)
        state = AdamState.for_params(model.params)
        grads = zero_gradients(model)
        adam_step(state, model.params, grads.params, effective_lr=0.1, l2_penalty=0.0)
        assert model.weights[0][0, 0] == 0.7
        assert state.step == 1

    def test_first_step_is_bias_corrected_sign_step(self):
        # hand evaluation: m_hat = g, v_hat = g^2, delta = -lr * g / (|g| + eps)
        model = self._scalar_model(1.0)
        state = AdamState.for_params(model.params)
        grads = zero_gradients(model)
        g = 0.37
        grads.weights[0][0, 0] = g
        lr, eps = 0.01, 1e-8
        adam_step(state, model.params, grads.params, effective_lr=lr, l2_penalty=0.0, eps=eps)
        expected = 1.0 - lr * g / (abs(g) + eps)
        assert model.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)
        assert abs((1.0 - model.weights[0][0, 0]) - lr) < 1e-8

    def test_l2_pulls_toward_zero(self):
        model = self._scalar_model(2.0)
        state = AdamState.for_params(model.params)
        adam_step(state, model.params, zero_gradients(model).params, effective_lr=0.05, l2_penalty=1e-2)
        assert model.weights[0][0, 0] < 2.0

    def test_shape_mismatch(self):
        model = self._scalar_model()
        other = init_model([3, 1], seed=0)
        state = AdamState.for_params(model.params)
        with pytest.raises(ValueError):
            adam_step(state, model.params, zero_gradients(other).params, 0.1, 0.0)

    def test_trajectory_determinism(self):
        rng = np.random.default_rng(8)
        grads_seq = rng.normal(size=20)

        def run():
            model = self._scalar_model(0.5)
            state = AdamState.for_params(model.params)
            for g in grads_seq:
                grad = zero_gradients(model)
                grad.weights[0][0, 0] = g
                adam_step(state, model.params, grad.params, 0.01, 1e-4)
            return model.weights[0][0, 0]

        assert run() == run()


    def test_flat_update_matches_per_layer_oracle_bitwise(self):
        rng = np.random.default_rng(2024)
        model = init_model([6, 5, 3, 1], seed=4)
        oracle = model.copy()
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in oracle.weights + oracle.biases]
        state = AdamState.for_params(model.params)
        for step in range(1, 201):
            grads = zero_gradients(model)
            grads.params[:] = rng.normal(0.0, 10.0 ** rng.uniform(-4, 1), size=grads.params.size)
            lr = float(rng.uniform(1e-4, 1e-1))
            adam_step(state, model.params, grads.params, lr, 1e-3)
            per_layer_adam_step(moments, oracle, grads, lr, 1e-3, step)
        assert state.step == 200
        assert np.array_equal(model.params, oracle.params)


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
