"""Tensor core: oracle equivalence, gradient checks, invariants."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxformer import attention as A
from ctxformer import model as M
from ctxformer import tensor as T
from ctxformer.errors import ConfigError, DataError, DimensionError, NumericsError

import oracles as O
from oracles import composed_sublayer


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
        # linear: the same GEMMs plus the bias, whose grad sums every row.
        a.grad, b.grad = None, None
        bias = T.Tensor(rng.normal(size=4), requires_grad=True)
        out = T.linear(a, b, bias)
        T.tsum(T.mul(out, g)).backward()
        expected = np.einsum("...i,ij->...j", a.data, b.data) + bias.data
        assert np.max(np.abs(out.data - expected)) < 1e-12
        assert np.max(np.abs(a.grad - g @ b.data.T)) < 1e-12
        assert np.max(np.abs(b.grad - gb)) < 1e-12
        assert np.max(np.abs(bias.grad - g.reshape(-1, 4).sum(axis=0))) < 1e-12


def test_linear_rejects_mismatched_shapes():
    x = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(DimensionError, match=r"\(2, 3\) and \(4, 5\)"):
        T.linear(x, T.Tensor(np.zeros((4, 5))), T.Tensor(np.zeros(5)))
    with pytest.raises(DimensionError, match=r"bias must be \(5,\), got \(4,\)"):
        T.linear(x, T.Tensor(np.zeros((3, 5))), T.Tensor(np.zeros(4)))


# ---------------------------------------------------------------- softmax


def test_softmax_uniform():
    out = O.softmax(T.Tensor([0.0, 0.0, 0.0]), axis=-1)
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_masked_entry_is_exact_zero():
    out = O.softmax(T.Tensor([0.0, -np.inf]), axis=-1)
    assert out.data[0] == 1.0
    assert out.data[1] == 0.0


def test_softmax_matches_direct_formula():
    x = np.array([1.0, 2.0, 3.0])
    out = O.softmax(T.Tensor(x), axis=-1)
    assert np.max(np.abs(out.data - softmax_oracle(x))) < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.normal(size=(4, 7)) * rng.uniform(0.1, 30)
        out = O.softmax(T.Tensor(x), axis=-1)
        assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) <= 1e-9)
        assert np.all(out.data >= 0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5,))
    a = O.softmax(T.Tensor(x), axis=-1).data
    b = O.softmax(T.Tensor(x + 17.3), axis=-1).data
    assert np.allclose(a, b, atol=1e-12)


# ------------------------------------------------- depthwise causal conv
# `attention.local_context` is the array kernel of Eq. 2 that the conv node
# runs; its inputs are time-leading, (T, ..., C) against an (F, C) kernel.


def test_conv_single_tap_identity():
    rng = np.random.default_rng(4)
    s = rng.normal(size=(6, 3))
    out = A.local_context(s, np.ones((1, 3)))
    assert np.array_equal(out, s)


def test_conv_causality_exact():
    rng = np.random.default_rng(5)
    s = rng.normal(size=(8, 4))
    w = rng.normal(size=(3, 4))
    base = A.local_context(s, w)
    for t in range(7):
        s2 = s.copy()
        s2[t + 1 :] += rng.normal(size=s2[t + 1 :].shape)
        out = A.local_context(s2, w)
        assert np.array_equal(out[: t + 1], base[: t + 1])


def test_conv_matches_double_loop():
    rng = np.random.default_rng(6)
    s = rng.normal(size=(7, 3))
    w = rng.normal(size=(3, 3))
    out = A.local_context(s, w)
    assert np.max(np.abs(out - conv_oracle(s, w))) < 1e-12


def test_conv_with_stacked_kernels_matches_one_call_per_head():
    # Three heads' kernels side by side in blocks of 4 channels convolve a
    # (T, B, 3 * 4) input as one call per head on its block would.
    rng = np.random.default_rng(4)
    s = rng.normal(size=(6, 2, 12))
    w = rng.normal(size=(3, 5, 4))
    out = A.local_context(s, np.concatenate(list(w), axis=1))
    for i in range(3):
        single = A.local_context(s[..., 4 * i : 4 * i + 4], w[i])
        assert np.array_equal(out[..., 4 * i : 4 * i + 4], single)
    with pytest.raises(DimensionError):
        A.local_context(s, w[0])


def test_conv_channel_mismatch():
    with pytest.raises(DimensionError):
        A.local_context(np.zeros((4, 3)), np.zeros((2, 5)))


def test_conv_kernel_parameter_count_is_taps_times_channels():
    w = T.Tensor(np.zeros((5, 8)), requires_grad=True)
    assert w.size == 5 * 8  # depthwise: F*d stored weights, not F*d^2


# ---------------------------------------------------------------- layer norm


def plain_layer_norm(x, gamma, beta):
    """LN(x) alone: the residual node with a zero sublayer output."""
    x = T.as_tensor(x)
    return T.layer_norm(x, gamma, beta, np.zeros_like(x.data))


def test_layer_norm_constant_row_is_zero():
    out = plain_layer_norm(np.full((4,), 3.25), np.ones(4), np.zeros(4))
    assert np.allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_zero_gamma_gives_beta():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5))
    beta = rng.normal(size=5)
    out = plain_layer_norm(x, np.zeros(5), beta)
    assert np.allclose(out.data, np.broadcast_to(beta, (3, 5)), atol=1e-12)


def test_layer_norm_moments():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(64,)) * 3 + 1.5
    out = plain_layer_norm(x, np.ones(64), np.zeros(64))
    assert abs(out.data.mean()) < 1e-6
    assert abs(out.data.var() - 1.0) < 1e-4  # eps slightly shrinks the variance


def test_layer_norm_rejects_a_sublayer_output_of_another_shape():
    with pytest.raises(DimensionError, match="sublayer output"):
        T.layer_norm(
            T.Tensor(np.zeros((2, 3))), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)),
            sublayer=T.Tensor(np.zeros((1, 3))),
        )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
# the ids keep the names these cases had when the grid also had a residual flag
@pytest.mark.parametrize("p", [0.3, None], ids=["True-0.3", "True-None"])
def test_layer_norm_node_is_bitwise_the_composed_sublayer(dtype, p):
    rng = np.random.default_rng(21)
    shape = (3, 5, 16)

    def leaf(*size):
        return T.Tensor((rng.normal(size=size) * 2 + 0.5).astype(dtype), requires_grad=True)

    x, out, gamma, beta = leaf(*shape), leaf(*shape), leaf(16), leaf(16)
    upstream = rng.normal(size=shape).astype(dtype)

    def run(sublayer_norm):
        for t in (x, out, gamma, beta):
            t.grad = None
        drop = None if p is None else (p, np.random.default_rng(5))
        y = sublayer_norm(x, out, gamma, beta, drop)
        T.tsum(T.mul(y, upstream)).backward()
        grads = [t.grad for t in (x, out, gamma, beta) if t.grad is not None]
        return y.data, grads, None if drop is None else drop[1].bit_generator.state

    def one_node(x, out, gamma, beta, drop):
        return T.layer_norm(x, gamma, beta, sublayer=out, residual_dropout=drop)

    y, grads, state = run(one_node)
    y_ref, grads_ref, state_ref = run(composed_sublayer)
    assert y.dtype == dtype and y.tobytes() == y_ref.tobytes()
    assert len(grads) == len(grads_ref) == 4
    for g, g_ref in zip(grads, grads_ref):
        assert g.dtype == dtype and g.tobytes() == g_ref.tobytes()
    assert state == state_ref


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
        xhat, inv_std = T.standardize(x)
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
    assert np.array_equal(O.softmax(T.Tensor(x), axis=0).data, shifted_softmax(x, 0))
    ln = plain_layer_norm(x, gamma, beta).data
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
    loss = T.cross_entropy(T.Tensor(logits), targets)
    probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    expected = -(np.log(probs[0, 0]) + np.log(probs[2, 2])) / 2
    assert abs(loss.item() - expected) < 1e-10


def test_cross_entropy_all_ignored_is_error():
    with pytest.raises(DataError):
        T.cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([-1, -1]))


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


def keep_bits_oracle(words, n, p):
    """Decision i keeps when the 24-bit uniform of 32-bit half i of the raw
    words, low half first, is >= p rounded to float32."""
    halves = [word >> shift & 0xFFFFFFFF for word in words for shift in (0, 32)]
    return [(half >> 8) / 2**24 >= float(np.float32(p)) for half in halves[:n]]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    carried=st.integers(0, 3),
    shape=st.lists(st.integers(0, 7), max_size=3).map(tuple),
    p=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([0.1, 0.5, 2.0**-24, 1.0 - 2.0**-24]),
        st.floats(1.0 - 2.0**-25, 1.0, exclude_max=True),  # rounds to 1 in float32
    ),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_dropout_mask_is_the_uniform_formula_bit_for_bit(seed, carried, shape, p, dtype):
    # An odd number of carried-in float32 draws leaves half a word buffered;
    # the mask reads whole raw words and leaves that half where it is.
    reference, rng, other = (np.random.default_rng(seed) for _ in range(3))
    for gen in (reference, rng, other):
        gen.random(carried, dtype=np.float32)
    n = math.prod(shape)
    expected = keep_bits_oracle(reference.bit_generator.random_raw(-(-n // 2)).tolist(), n, p)
    keep, scale = T.dropout_mask(shape, p, rng, dtype)
    assert keep.dtype == bool and keep.shape == shape
    assert keep.reshape(-1).tolist() == expected
    assert type(scale) is dtype and scale == dtype(1.0 / (1.0 - p))
    assert rng.bit_generator.state == reference.bit_generator.state
    if np.float32(p) == 1:
        assert not keep.any()
    # The other dtype draws the same bits and leaves the same state.
    other_dtype = np.float64 if dtype == np.float32 else np.float32
    assert T.dropout_mask(shape, p, other, other_dtype)[0].tobytes() == keep.tobytes()
    assert other.bit_generator.state == reference.bit_generator.state


def test_dropout_mask_draws_nothing_at_p_zero_and_needs_pcg64():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    assert T.dropout_mask((4, 5), 0.0, rng, np.float32) is None
    assert rng.bit_generator.state == before
    with pytest.raises(ConfigError, match="PCG64"):
        T.dropout_mask((4, 5), 0.1, np.random.Generator(np.random.MT19937(3)), np.float32)


def test_dropout_draws_the_same_keep_bits_in_every_dtype():
    # float32 and float64 draw the oracle's keep bits; only the scale's dtype
    # differs. The mask kernel, `dropout` and both attention nodes draw the
    # same mask.
    words = np.random.default_rng(5).bit_generator.random_raw(32).tolist()
    keep = np.array(keep_bits_oracle(words, 63, 0.3)).reshape(7, 9)
    assert 0 < keep.sum() < keep.size
    for dtype in (np.float64, np.float32):
        expected = np.where(keep, dtype(1.0 / 0.7), 0)
        bits, scale = T.dropout_mask((7, 9), 0.3, np.random.default_rng(5), dtype)
        assert scale.dtype == dtype and np.array_equal(np.where(bits, scale, 0), expected)
        x = T.Tensor(np.ones((7, 9), dtype=dtype), requires_grad=True)
        out = T.dropout(x, 0.3, np.random.default_rng(5))
        assert out.dtype == dtype
        assert np.array_equal(out.data, expected)
        T.tsum(out).backward()
        assert x.grad.dtype == dtype and np.array_equal(x.grad, out.data)
        # Zero queries and keys weigh the 9 keys 1/9 each; identity values
        # then read the dropped weights off the output.
        q, k = T.Tensor(np.zeros((7, 2), dtype)), T.Tensor(np.zeros((9, 2), dtype))
        out = A.scaled_dot_product_attention(
            q, k, T.Tensor(np.eye(9, dtype=dtype)), attn_dropout=(0.3, np.random.default_rng(5))
        )
        assert np.array_equal(out.data, (dtype(1) / dtype(9)) * expected)
        # A unit impulse at position 0 reads kernel tap t at position t; a zero
        # w_s makes every gate sigmoid(0) = 1/2.
        w_a = np.random.default_rng(6).normal(size=(7, 9)).astype(dtype)
        zeros = np.zeros((9, 9), dtype)
        params = A.ConvHeadParams(*(T.Tensor(w) for w in (zeros, w_a, zeros, zeros[0])))
        s = np.zeros((7, 9), dtype)
        s[0] = 1
        out = A.dynamic_conv_head(T.Tensor(s), params, False, (0.3, np.random.default_rng(5)))
        assert np.array_equal(out.data, dtype(0.5) * (T.softmax_array(w_a, axis=0) * expected))


# ------------------------------------- keep bits against the float mask
# Every dropout site keeps boolean keep bits and applies them as a multiply
# and an in-place scale; the reference is the float mask keep * (1 / (1 - p))
# in the activation dtype. Inputs and grads carry -0.0, NaN and +-inf.

SPECIALS = (-0.0, np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_apply_dropout_is_the_float_mask_product_for_every_value(dtype):
    x = np.array(SPECIALS + (0.0, 1.5, -2.25, 1e-40, 3e38), dtype=dtype)
    x = np.repeat(x, 2)
    keep = np.tile([True, False], x.size // 2)
    scale = dtype(1.0 / (1.0 - 0.3))
    with np.errstate(invalid="ignore", over="ignore"):
        got = T.apply_dropout(x, keep, scale)
        expected = x * np.multiply(keep, scale, dtype=dtype)
    assert got.dtype == dtype and got.tobytes() == expected.tobytes()


def _special_rows(rng, dtype, *shape):
    """Normals with -0.0, NaN, +inf and -inf in the first row; rows past it stay finite."""
    a = (rng.normal(size=shape) * 2).astype(dtype)
    a.reshape(-1, shape[-1])[0, : len(SPECIALS)] = SPECIALS
    return a


def _dropout_site(site, dtype, reference):
    """Output, leaf grads and rng state after one forward and backward
    through a dropout site. The float-mask reference is an oracle node for
    `dropout` and the FFN, and the node itself under `float_mask_sites` for
    the others."""
    rng = np.random.default_rng(31)

    def leaf(*shape, specials=True):
        data = _special_rows(rng, dtype, *shape) if specials else rng.normal(size=shape)
        return T.Tensor(data.astype(dtype), requires_grad=True)

    drop = np.random.default_rng(5)
    in_node = reference and site in ("layer_norm", "attention", "dropconnect")
    reference_sites = O.float_mask_sites() if in_node else contextlib.nullcontext()
    with reference_sites, np.errstate(invalid="ignore", over="ignore"):
        if site == "dropout":
            leaves = [leaf(3, 5, 8)]
            y = (O.mask_dropout if reference else T.dropout)(leaves[0], 0.3, drop)
        elif site == "layer_norm":
            leaves = [leaf(3, 5, 8), leaf(3, 5, 8), leaf(8), leaf(8)]
            x, out, gamma, beta = leaves
            y = T.layer_norm(x, gamma, beta, sublayer=out, residual_dropout=(0.3, drop))
        elif site == "attention":
            leaves = [leaf(2, 5, 8), leaf(2, 5, 8), leaf(2, 5, 8)]
            y = A.scaled_dot_product_attention(*leaves, True, (0.3, drop), heads=2)
        elif site == "dropconnect":
            # The input's specials sit in head 0's columns, so head 1 stays
            # finite; a -inf tap weight gives the masked kernel an exact zero.
            shapes = ((2, 3, 4), (2, 4, 4), (2, 4))
            leaves = [leaf(2, 6, 8)] + [leaf(*shape, specials=False) for shape in shapes]
            leaves[1].data[0, 0, 0] = -np.inf
            params = A.ConvHeadParams(T.Tensor(np.zeros((2, 8, 4), dtype)), *leaves[1:])
            y = A.dynamic_conv_head(leaves[0], params, True, (0.3, drop))
        else:
            weights = ((8, 32), (32,), (32, 8), (8,))
            leaves = [leaf(3, 5, 8)] + [leaf(*shape, specials=False) for shape in weights]
            ffn = M.FeedForwardParams(*leaves[1:])
            if reference:
                y = O.composed_feed_forward(leaves[0], ffn, (0.3, drop))
            else:
                y = M._feed_forward(leaves[0], ffn, M._Regularizers(hidden=(0.3, drop)))
        T.tsum(T.mul(y, _special_rows(rng, dtype, *y.shape))).backward()
    return y.data, [t.grad for t in leaves], drop.bit_generator.state


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "site", ["dropout", "layer_norm", "attention", "dropconnect", "feed_forward"]
)
def test_keep_bit_dropout_sites_are_bitwise_the_float_mask(site, dtype):
    y, grads, state = _dropout_site(site, dtype, reference=False)
    y_ref, grads_ref, state_ref = _dropout_site(site, dtype, reference=True)
    assert y.dtype == dtype and y.tobytes() == y_ref.tobytes()
    assert not np.isnan(y).all()
    for g, g_ref in zip(grads, grads_ref, strict=True):
        assert g.dtype == dtype and g.tobytes() == g_ref.tobytes()
    assert state == state_ref


# ---------------------------------------------------------------- dtype


def test_python_scalars_take_the_tensor_operand_dtype():
    """add and mul keep the Tensor's dtype whichever side the int, float or
    np.float64 scalar is on."""
    for dtype in (np.float32, np.float64):
        for c in (3, 0.1, np.float64(0.1)):
            x = T.Tensor(np.array([1.5, -2.0, 4.0], dtype=dtype), requires_grad=True)
            c_ = dtype(c)
            outs = {
                "add": (T.add(x, c), x.data + c_),
                "radd": (T.add(c, x), c_ + x.data),
                "mul": (T.mul(x, c), x.data * c_),
                "rmul": (T.mul(c, x), c_ * x.data),
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
    act = O.softmax(hidden, axis=-1)
    loss = T.tsum(T.mul(act, act))
    loss.backward()
    first_x, first_w = x.grad.copy(), w.grad.copy()
    assert all(node.grad is None for node in (hidden, act, loss))
    loss.backward()
    assert all(node.grad is None for node in (hidden, act, loss))
    assert np.allclose(x.grad, 2 * first_x, rtol=1e-14, atol=0)
    assert np.allclose(w.grad, 2 * first_w, rtol=1e-14, atol=0)


def read_only_incoming_grads(make):
    """`_make` whose nodes' backward closures get their grad read-only."""

    def wrapped(data, parents, backward_fn):
        def read_only(g):
            g.setflags(write=False)
            backward_fn(g)

        return make(data, parents, read_only)

    return wrapped


def test_no_op_backward_writes_into_its_incoming_grad(monkeypatch):
    # Interior nodes borrow their first grad, so an op that wrote into its
    # incoming grad would change another node's.
    rng = np.random.default_rng(31)
    x = rng.normal(size=(5, 4))
    cases = _fd_cases(rng)
    expected = {}
    for name, f in cases.items():
        leaf = T.Tensor(x, requires_grad=True)
        f(leaf).backward()
        expected[name] = leaf.grad
    monkeypatch.setattr(T, "_make", read_only_incoming_grads(T._make))
    for name, f in cases.items():
        leaf = T.Tensor(x, requires_grad=True)
        f(leaf).backward()
        assert leaf.grad.tobytes() == expected[name].tobytes(), name


def test_interior_node_adds_a_second_grad_out_of_place():
    # `hidden` borrows the grad of `twice` and is then handed it again: the
    # sum must go to a buffer of its own, not into the borrowed array.
    x = T.Tensor(np.arange(3.0), requires_grad=True)
    hidden = T.mul(x, 2.0)
    twice = T.add(hidden, hidden)
    seen = []
    inner = twice._backward_fn

    def recording(g):
        seen.append((g, g.copy()))
        inner(g)

    twice._backward_fn = recording
    T.tsum(T.mul(twice, np.array([1.0, 2.0, 3.0]))).backward()
    (g, before), = seen
    assert np.array_equal(g, before)
    assert np.array_equal(x.grad, [4.0, 8.0, 12.0])


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
        return T.tsum(T.mul(O.softmax(x, axis=-1), np.array([1.0, 0.0, 0.0, 0.0])))

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
    cb = rng.normal(size=(5, 20))
    co = rng.normal(size=(d, 20))

    def drop():  # the same mask on every call, so f stays deterministic
        return 0.3, np.random.default_rng(7)

    return {
        "add": lambda x: T.tsum(T.add(x, 1.5)),
        "mul": lambda x: T.tsum(T.mul(x, x)),
        "matmul": lambda x: T.tsum(T.matmul(x, T.Tensor(weights))),
        "relu": lambda x: T.tsum(T.mul(T.relu(x), c1)),
        "softmax": lambda x: T.tsum(T.mul(O.softmax(x, axis=-1), c1)),
        "layer_norm": lambda x: T.tsum(T.mul(plain_layer_norm(x, gamma, beta), c3)),
        "residual_layer_norm": lambda x: T.tsum(
            T.mul(T.layer_norm(x, T.Tensor(gamma), T.Tensor(beta), sublayer=T.Tensor(c2)), c3)
        ),
        "residual_layer_norm_sublayer": lambda x: T.tsum(
            T.mul(
                T.layer_norm(
                    T.Tensor(c1), T.Tensor(gamma), T.Tensor(beta), sublayer=x,
                    residual_dropout=(0.3, np.random.default_rng(7)),
                ),
                c3,
            )
        ),
        "linear": lambda x: T.tsum(
            T.mul(T.linear(x, T.Tensor(weights), T.Tensor(c2[0, :2])), c4[:, :2])
        ),
        "linear_weight": lambda x: T.tsum(
            T.mul(T.linear(T.Tensor(ct), x, T.Tensor(c2[0])), c3[:d])
        ),
        "linear_bias": lambda x: T.tsum(
            T.mul(T.linear(T.Tensor(ct), T.Tensor(cb), O.reshape(x, (20,))), co)
        ),
        "linear_input_dropout": lambda x: T.tsum(
            T.mul(T.linear(x, T.Tensor(weights), input_dropout=drop()), c4[:, :2])
        ),
        "linear_input_dropout_weight": lambda x: T.tsum(
            T.mul(T.linear(T.Tensor(ct), x, input_dropout=drop()), c3[:d])
        ),
        "cross_entropy": lambda x: T.cross_entropy(x, targets),
        "mean": lambda x: T.tmean(T.mul(x, x)),
        "concat": lambda x: T.tsum(T.mul(T.concat([x, T.mul(x, 2.0)]), 0.7)),
        "transpose": lambda x: T.tsum(T.mul(O.transpose(x, (1, 0)), ct)),
        "reshape": lambda x: T.tsum(T.mul(O.reshape(x, (d, 5)), cr)),
        "masked_fill": lambda x: T.tsum(
            T.mul(O.softmax(O.masked_fill(x, keep, -np.inf), axis=-1), cm)
        ),
        "broadcast": lambda x: T.tsum(
            T.mul(T.broadcast_to(T.tsum(x, axis=-1, keepdims=True), (5, d)), 0.3)
        ),
        "permute": lambda x: T.tsum(T.mul(O.transpose(O.reshape(x, (5, 2, 2)), (1, 2, 0)), cp)),
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
