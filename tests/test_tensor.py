"""Tensor core: oracle equivalence, gradient checks, invariants."""

import math

import numpy as np
import pytest

from ctxformer import tensor as T
from ctxformer.errors import ConfigError, DataError, DimensionError, NumericsError


# ---------------------------------------------------------------- oracles


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def softmax_oracle(x):
    e = np.exp(x)
    return e / e.sum()


def conv_oracle(s, w):
    t_len, d = s.shape
    taps = w.shape[0]
    out = np.zeros_like(s)
    for t in range(t_len):
        for c in range(d):
            acc = 0.0
            for j in range(taps):
                src = t - j
                if src >= 0:
                    acc += w[j, c] * s[src, c]
            out[t, c] = acc
    return out


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    b = np.arange(9, dtype=np.float64).reshape(3, 3)
    out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(b))
    assert np.array_equal(out.data, b)


def test_matmul_scalar_case():
    out = T.matmul(T.Tensor([[2.0]]), T.Tensor([[3.0]]))
    assert out.data[0, 0] == 6.0


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    out = T.matmul(T.Tensor(a), T.Tensor(b))
    assert np.max(np.abs(out.data - matmul_oracle(a, b))) < 1e-12


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2))))


def test_matmul_batched_matches_per_slice():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 3, 4))
    b = rng.normal(size=(4, 2))
    out = T.matmul(T.Tensor(a), T.Tensor(b))
    for i in range(5):
        assert np.allclose(out.data[i], a[i] @ b, atol=1e-12)


def test_flat_matmul_gradients_match_the_batched_reference():
    rng = np.random.default_rng(2)
    for lead in ((6,), (3, 5), (2, 3, 4)):
        a = T.Tensor(rng.normal(size=lead + (7,)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        g = rng.normal(size=lead + (4,))
        out = T.matmul(a, b)
        T.tsum(T.mul(out, g)).backward()
        assert np.max(np.abs(out.data - np.einsum("...i,ij->...j", a.data, b.data))) < 1e-12
        # Reference: one product per leading index, then a sum over them.
        gb = (np.swapaxes(a.data, -1, -2) @ g).reshape(-1, 7, 4).sum(axis=0)
        assert np.max(np.abs(a.grad - g @ b.data.T)) < 1e-12
        assert np.max(np.abs(b.grad - gb)) < 1e-12


# ---------------------------------------------------------------- softmax


def test_softmax_uniform():
    out = T.softmax(T.Tensor([0.0, 0.0, 0.0]), axis=-1)
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_masked_entry_is_exact_zero():
    out = T.softmax(T.Tensor([0.0, -np.inf]), axis=-1)
    assert out.data[0] == 1.0
    assert out.data[1] == 0.0


def test_softmax_matches_direct_formula():
    x = np.array([1.0, 2.0, 3.0])
    out = T.softmax(T.Tensor(x), axis=-1)
    assert np.max(np.abs(out.data - softmax_oracle(x))) < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.normal(size=(4, 7)) * rng.uniform(0.1, 30)
        out = T.softmax(T.Tensor(x), axis=-1)
        assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) <= 1e-9)
        assert np.all(out.data >= 0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5,))
    a = T.softmax(T.Tensor(x), axis=-1).data
    b = T.softmax(T.Tensor(x + 17.3), axis=-1).data
    assert np.allclose(a, b, atol=1e-12)


# ------------------------------------------------- depthwise causal conv


def test_conv_single_tap_identity():
    rng = np.random.default_rng(4)
    s = rng.normal(size=(6, 3))
    out = T.depthwise_causal_conv1d(T.Tensor(s), T.Tensor(np.ones((1, 3))))
    assert np.array_equal(out.data, s)


def test_conv_causality_exact():
    rng = np.random.default_rng(5)
    s = rng.normal(size=(8, 4))
    w = rng.normal(size=(3, 4))
    base = T.depthwise_causal_conv1d(T.Tensor(s), T.Tensor(w)).data
    for t in range(7):
        s2 = s.copy()
        s2[t + 1 :] += rng.normal(size=s2[t + 1 :].shape)
        out = T.depthwise_causal_conv1d(T.Tensor(s2), T.Tensor(w)).data
        assert np.array_equal(out[: t + 1], base[: t + 1])


def test_conv_matches_double_loop():
    rng = np.random.default_rng(6)
    s = rng.normal(size=(7, 3))
    w = rng.normal(size=(3, 3))
    out = T.depthwise_causal_conv1d(T.Tensor(s), T.Tensor(w))
    assert np.max(np.abs(out.data - conv_oracle(s, w))) < 1e-12


def test_conv_with_stacked_kernels_matches_one_call_per_head():
    rng = np.random.default_rng(4)
    s = rng.normal(size=(3, 2, 6, 4))
    w = rng.normal(size=(3, 5, 4))
    out = T.depthwise_causal_conv1d(T.Tensor(s), T.Tensor(w)).data
    for i in range(3):
        single = T.depthwise_causal_conv1d(T.Tensor(s[i]), T.Tensor(w[i])).data
        assert np.array_equal(out[i], single)
    with pytest.raises(DimensionError):
        T.depthwise_causal_conv1d(T.Tensor(s), T.Tensor(w[:2]))


def test_conv_channel_mismatch():
    with pytest.raises(DimensionError):
        T.depthwise_causal_conv1d(
            T.Tensor(np.zeros((4, 3))), T.Tensor(np.zeros((2, 5)))
        )


def test_conv_kernel_parameter_count_is_taps_times_channels():
    w = T.Tensor(np.zeros((5, 8)), requires_grad=True)
    assert w.size == 5 * 8  # depthwise: F*d stored weights, not F*d^2


# ---------------------------------------------------------------- layer norm


def test_layer_norm_constant_row_is_zero():
    out = T.layer_norm(
        T.Tensor(np.full((4,), 3.25)), T.Tensor(np.ones(4)), T.Tensor(np.zeros(4))
    )
    assert np.allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_zero_gamma_gives_beta():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5))
    beta = rng.normal(size=5)
    out = T.layer_norm(T.Tensor(x), T.Tensor(np.zeros(5)), T.Tensor(beta))
    assert np.allclose(out.data, np.broadcast_to(beta, (3, 5)), atol=1e-12)


def test_layer_norm_moments():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(64,)) * 3 + 1.5
    out = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(64)), T.Tensor(np.zeros(64)))
    assert abs(out.data.mean()) < 1e-6
    assert abs(out.data.var() - 1.0) < 1e-4  # eps slightly shrinks the variance


def test_layer_norm_rejects_nonpositive_eps():
    with pytest.raises(ConfigError):
        T.layer_norm(T.Tensor(np.zeros(3)), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), eps=0.0)


# ------------------------------------------------------ shared array kernels
# The graph ops, the decoder cache and beam search all run these kernels;
# each must stay bitwise equal to the formula it replaced.


def two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def mean_standardize(x, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) * (1.0 / np.sqrt(var + eps))


def shifted_softmax(x, axis):
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def shifted_log_softmax(x, axis):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _kernel_inputs(dtype):
    rng = np.random.default_rng(41)
    for shape in [(7,), (3, 16), (2, 5, 64), (4, 129), (2, 300)]:
        for scale in (0.01, 1.0, 40.0):
            yield (rng.normal(size=shape) * scale + rng.normal()).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_are_bitwise_the_formulas_they_replace(dtype):
    for x in _kernel_inputs(dtype):
        got = T.sigmoid_array(x)
        assert got.dtype == dtype and np.array_equal(got, two_branch_sigmoid(x))
        xhat, inv_std = T.standardize(x, 1e-5)
        assert xhat.dtype == dtype and np.array_equal(xhat, mean_standardize(x, 1e-5))
        assert np.array_equal(xhat, (x - x.mean(axis=-1, keepdims=True)) * inv_std)
        for axis in range(-x.ndim, 0):
            got = T.softmax_array(x, axis)
            assert got.dtype == dtype and np.array_equal(got, shifted_softmax(x, axis))
            got = T.log_softmax_array(x, axis)
            assert got.dtype == dtype and np.array_equal(got, shifted_log_softmax(x, axis))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_graph_ops_run_the_shared_kernels(dtype):
    rng = np.random.default_rng(42)
    x = rng.normal(size=(3, 9)).astype(dtype)
    gamma, beta = rng.normal(size=9).astype(dtype), rng.normal(size=9).astype(dtype)
    assert np.array_equal(T.sigmoid(T.Tensor(x)).data, two_branch_sigmoid(x))
    assert np.array_equal(T.softmax(T.Tensor(x), axis=0).data, shifted_softmax(x, 0))
    ln = T.layer_norm(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta), eps=1e-5).data
    assert np.array_equal(ln, gamma * mean_standardize(x, 1e-5) + beta)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_kernel_of_huge_inputs_does_not_overflow(dtype):
    x = np.array([-1e4, -100.0, 0.0, 100.0, 1e4], dtype=dtype)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out = T.sigmoid_array(x)
    assert out[0] == 0.0 and out[2] == 0.5 and out[-1] == 1.0


def test_softmax_kernel_gives_masked_entries_exactly_zero_weight():
    x = np.array([[0.5, -np.inf, 2.0, -np.inf], [-np.inf, -np.inf, -np.inf, 3.0]])
    out = T.softmax_array(x)
    assert np.all(out[np.isinf(x)] == 0.0)
    assert out[1, 3] == 1.0
    assert np.array_equal(out[0, [0, 2]], shifted_softmax(np.array([0.5, 2.0]), -1))


# ---------------------------------------------------------------- cross entropy


def test_cross_entropy_confident_logits():
    logits = np.full((3, 5), -100.0)
    targets = np.array([1, 3, 0])
    for i, t in enumerate(targets):
        logits[i, t] = 100.0
    loss = T.cross_entropy(T.Tensor(logits), targets)
    assert loss.item() < 1e-8


def test_cross_entropy_uniform_logits():
    loss = T.cross_entropy(T.Tensor(np.zeros((2, 4))), np.array([0, 3]))
    assert abs(loss.item() - math.log(4)) < 1e-12


def test_cross_entropy_matches_softmax_log_oracle():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(6, 8))
    targets = rng.integers(0, 8, size=6)
    loss = T.cross_entropy(T.Tensor(logits), targets)
    probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    expected = -np.log(probs[np.arange(6), targets]).mean()
    assert abs(loss.item() - expected) < 1e-10


def test_cross_entropy_respects_ignore_id():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(4, 3))
    targets = np.array([0, -1, 2, -1])
    loss = T.cross_entropy(T.Tensor(logits), targets, ignore_id=-1)
    probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    expected = -(np.log(probs[0, 0]) + np.log(probs[2, 2])) / 2
    assert abs(loss.item() - expected) < 1e-10


def test_cross_entropy_all_ignored_is_error():
    with pytest.raises(DataError):
        T.cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([-1, -1]), ignore_id=-1)


def test_cross_entropy_out_of_range_target():
    with pytest.raises(DataError, match="outside vocabulary"):
        T.cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([0, 7]))


# ---------------------------------------------------------------- dropout


def test_dropout_p_zero_identity():
    x = T.Tensor(np.arange(5.0))
    out = T.dropout(x, 0.0, np.random.default_rng(0))
    assert np.array_equal(out.data, x.data)


def test_dropout_statistics():
    rng = np.random.default_rng(11)
    x = np.ones(100_000)
    out = T.dropout(T.Tensor(x), 0.5, rng)
    surviving = np.count_nonzero(out.data) / x.size
    assert abs(surviving - 0.5) < 0.01
    assert abs(out.data.mean() - 1.0) < 0.02  # inverted scaling keeps the mean


def test_dropout_rejects_p_one():
    with pytest.raises(ConfigError):
        T.dropout(T.Tensor(np.zeros(3)), 1.0, np.random.default_rng(0))


def test_dropout_draws_its_uniforms_in_the_activation_dtype():
    # float64 keeps the default float64 stream; float32 draws float32 uniforms.
    for dtype in (np.float64, np.float32):
        x = T.Tensor(np.ones((7, 9), dtype=dtype), requires_grad=True)
        out = T.dropout(x, 0.3, np.random.default_rng(5))
        keep = np.random.default_rng(5).random((7, 9), dtype=dtype) >= 0.3
        assert out.dtype == dtype
        assert np.array_equal(out.data, np.where(keep, dtype(1.0 / 0.7), 0))
        T.tsum(out).backward()
        assert x.grad.dtype == dtype and np.array_equal(x.grad, out.data)


# ---------------------------------------------------------------- dtype


def test_python_scalars_take_the_tensor_operand_dtype():
    """add/mul/div and the operator sugar keep the Tensor's dtype whichever
    side the int, float or np.float64 scalar is on."""
    for dtype in (np.float32, np.float64):
        for c in (3, 0.1, np.float64(0.1)):
            x = T.Tensor(np.array([1.5, -2.0, 4.0], dtype=dtype), requires_grad=True)
            c_ = dtype(c)
            outs = {
                "add": (T.add(x, c), x.data + c_),
                "radd": (T.add(c, x), c_ + x.data),
                "mul": (T.mul(x, c), x.data * c_),
                "rmul": (T.mul(c, x), c_ * x.data),
                "div": (T.div(x, c), x.data / c_),
                "rdiv": (T.div(c, x), c_ / x.data),
                "+": (x + c, x.data + c_),
                "r+": (c + x, c_ + x.data),
                "*": (x * c, x.data * c_),
                "r*": (c * x, c_ * x.data),
                "/": (x / c, x.data / c_),
                "-": (x - c, x.data - c_),
                "r-": (c - x, c_ - x.data),
                "neg": (-x, -x.data),
            }
            for name, (out, expected) in outs.items():
                assert out.dtype == dtype, f"{name} {dtype.__name__} {c!r}: {out.dtype}"
                assert np.array_equal(out.data, expected), name
            loss = T.tsum(outs["add"][0])
            for out, _ in list(outs.values())[1:]:
                loss = T.add(loss, T.tsum(out))
            loss.backward()
            assert x.grad.dtype == dtype


# ---------------------------------------------------------------- backward


def test_backward_of_sum_is_ones():
    x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.tsum(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_of_sum_of_squares():
    x = T.Tensor(np.arange(1.0, 5.0), requires_grad=True)
    T.tsum(T.mul(x, x)).backward()
    assert np.allclose(x.grad, 2 * x.data, atol=1e-12)


def test_backward_requires_scalar():
    x = T.Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        T.mul(x, 2.0).backward()


def test_repeated_backward_accumulates():
    x = T.Tensor(np.arange(3.0), requires_grad=True)
    loss = T.tsum(x)
    loss.backward()
    loss.backward()
    assert np.array_equal(x.grad, 2 * np.ones(3))


def test_backward_releases_interior_grads_and_leaves_keep_accumulating():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    hidden = T.matmul(x, w)
    act = T.sigmoid(hidden)
    loss = T.tsum(T.mul(act, act))
    loss.backward()
    first_x, first_w = x.grad.copy(), w.grad.copy()
    assert all(node.grad is None for node in (hidden, act, loss))
    loss.backward()
    assert all(node.grad is None for node in (hidden, act, loss))
    assert np.allclose(x.grad, 2 * first_x, rtol=1e-14, atol=0)
    assert np.allclose(w.grad, 2 * first_w, rtol=1e-14, atol=0)


def test_no_grad_skips_graph():
    x = T.Tensor(np.arange(3.0), requires_grad=True)
    with T.no_grad():
        out = T.mul(x, x)
    assert not out.requires_grad
    assert out._parents == ()


# ------------------------------------------- finite differences vs autograd


def test_fd_check_on_sum_is_exact():
    report = T.finite_difference_check(T.tsum, T.Tensor(np.arange(4.0)))
    assert report.passed
    assert report.max_rel_error < 1e-10


def test_fd_check_softmax_pick():
    def f(x):
        return T.tsum(T.mul(T.softmax(x, axis=-1), np.array([1.0, 0.0, 0.0, 0.0])))

    report = T.finite_difference_check(f, T.Tensor(np.array([0.3, -1.2, 0.7, 0.1])))
    assert report.passed


def test_fd_check_rejects_nondeterministic_f():
    rng = np.random.default_rng(13)

    def f(x):
        return T.tsum(T.dropout(x, 0.5, rng))

    with pytest.raises(NumericsError):
        T.finite_difference_check(f, T.Tensor(np.ones(8)))


def _fd_cases(rng):
    """One scalar-valued composition per differentiable op.

    Constants are drawn once up front so every f is deterministic.
    """
    d = 4
    w = rng.normal(size=(3, d))
    gamma = rng.normal(size=d)
    beta = rng.normal(size=d)
    targets = rng.integers(0, d, size=5)
    weights = rng.normal(size=(d, 2))
    c1 = rng.normal(size=(5, d))
    c2 = rng.normal(size=(5, d))
    c3 = rng.normal(size=(5, d))
    c4 = rng.normal(size=(5, d))
    ct = rng.normal(size=(d, 5))
    cr = rng.normal(size=(d, 5))
    cm = rng.normal(size=(5, d))
    keep = rng.random(size=(5, d)) > 0.3
    keep[:, 0] = True  # no fully masked rows
    cp = rng.normal(size=(2, 2, 5))
    w_heads = rng.normal(size=(2, 3, 2))
    ch = rng.normal(size=(2, 5, 2))
    return {
        "add": lambda x: T.tsum(T.add(x, 1.5)),
        "mul": lambda x: T.tsum(T.mul(x, x)),
        "div": lambda x: T.tsum(T.div(x, T.add(T.mul(x, x), 2.0))),
        "matmul": lambda x: T.tsum(T.matmul(x, T.Tensor(weights))),
        "relu": lambda x: T.tsum(T.mul(T.relu(x), c1)),
        "sigmoid": lambda x: T.tsum(T.mul(T.sigmoid(x), c2)),
        "softmax": lambda x: T.tsum(T.mul(T.softmax(x, axis=-1), c1)),
        "layer_norm": lambda x: T.tsum(
            T.mul(T.layer_norm(x, T.Tensor(gamma), T.Tensor(beta)), c3)
        ),
        "conv": lambda x: T.tsum(
            T.mul(T.depthwise_causal_conv1d(x, T.Tensor(w)), c4)
        ),
        "cross_entropy": lambda x: T.cross_entropy(x, targets),
        "mean": lambda x: T.tmean(T.mul(x, x)),
        "concat": lambda x: T.tsum(T.mul(T.concat([x, T.mul(x, 2.0)], axis=-1), 0.7)),
        "transpose": lambda x: T.tsum(T.mul(T.transpose_last(x), ct)),
        "reshape": lambda x: T.tsum(T.mul(T.reshape(x, (d, 5)), cr)),
        "masked_fill": lambda x: T.tsum(
            T.mul(T.softmax(T.masked_fill(x, keep, -np.inf), axis=-1), cm)
        ),
        "broadcast": lambda x: T.tsum(
            T.mul(T.broadcast_to(T.tsum(x, axis=-1, keepdims=True), (5, d)), 0.3)
        ),
        "permute": lambda x: T.tsum(T.mul(T.transpose(T.reshape(x, (5, 2, 2)), (1, 2, 0)), cp)),
        "conv_heads": lambda x: T.tsum(
            T.mul(
                T.depthwise_causal_conv1d(
                    T.transpose(T.reshape(x, (5, 2, 2)), (1, 0, 2)), T.Tensor(w_heads)
                ),
                ch,
            )
        ),
    }


@pytest.mark.parametrize("seed", range(3))
def test_every_op_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    x = T.Tensor(rng.normal(size=(5, 4)))
    for name, f in _fd_cases(rng).items():
        report = T.finite_difference_check(f, x, h=1e-4, tol=1e-4)
        assert report.passed, f"{name}: {report}"


def test_embedding_gradient_counts_occurrences():
    table = T.Tensor(np.random.default_rng(14).normal(size=(6, 3)), requires_grad=True)
    ids = np.array([2, 2, 5])
    T.tsum(T.embedding(table, ids)).backward()
    assert np.allclose(table.grad[2], 2.0)
    assert np.allclose(table.grad[5], 1.0)
    assert np.allclose(table.grad[0], 0.0)


def test_forward_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(5, 4)) * 50
    for name, f in _fd_cases(rng).items():
        out = f(T.Tensor(x))
        assert np.isfinite(out.data).all(), name
