"""Hybrid attention: brute-force oracle equivalence, causality, complexity."""

import numpy as np
import pytest

from ctxformer import attention as A
from ctxformer import tensor as T
from ctxformer.errors import ConfigError, DataError

from oracles import (
    adaptive_query_oracle,
    adaptive_query_prefix_oracle,
    dynamic_head_oracle,
    kernel_softmax_oracle,
    local_conv_oracle,
    multi_head_oracle,
    sdpa_oracle,
)


# ---------------------------------------------------------------- builders


def rand_conv_params(rng, d, d_h, taps=3):
    return A.ConvHeadParams(
        w_in=T.Tensor(rng.normal(size=(d, d_h))),
        w_a=T.Tensor(rng.normal(size=(taps, d_h))),
        w_s=T.Tensor(rng.normal(size=(d_h, d_h))),
        w_q=T.Tensor(rng.normal(size=(d_h,))),
    )


def rand_head_bundle(rng, d, d_k, n, n_conv, taps=3):
    """n dot-product heads and n_conv conv heads, each head drawn in turn
    (q, k, v, then w_in, w_a, w_s, w_q), stored head-stacked."""
    dot = np.array([[rng.normal(size=(d, d_k)) for _ in range(3)] for _ in range(n)])
    dot = dot.reshape(n, 3, d, d_k)
    w_q, w_k, w_v = (T.Tensor(np.ascontiguousarray(dot[:, i])) for i in range(3))
    convs = [rand_conv_params(rng, d, d_k, taps) for _ in range(n_conv)]
    conv = A.ConvHeadParams(
        *(T.Tensor(np.stack([getattr(cp, f).data for cp in convs]))
          for f in ("w_in", "w_a", "w_s", "w_q"))
    )
    return A.MultiHeadParams(w_q, w_k, w_v, conv, T.Tensor(rng.normal(size=(d, d))))


def rand_multi_head(rng, d, h, taps=3):
    return rand_head_bundle(rng, d, d // h, h // 2, h // 2, taps)


def oracle_head(s, cp, causal):
    return dynamic_head_oracle(s, cp.w_a.data, cp.w_s.data, cp.w_q.data, causal)


def conv_head(conv, j):
    """Head j of a head-stacked conv bundle as its own single-head bundle."""
    return A.ConvHeadParams(
        *(T.Tensor(w.data[j]) for w in (conv.w_in, conv.w_a, conv.w_s, conv.w_q))
    )


# ------------------------------------------------- scaled dot-product heads


def test_sdpa_single_position_returns_value_row():
    rng = np.random.default_rng(0)
    q = T.Tensor(rng.normal(size=(1, 4)))
    k = T.Tensor(rng.normal(size=(1, 4)))
    v = T.Tensor(rng.normal(size=(1, 6)))
    out = A.scaled_dot_product_attention(q, k, v)
    assert np.array_equal(out.data, v.data)


def test_sdpa_saturates_on_aligned_query():
    k = np.eye(4)
    v = np.arange(16.0).reshape(4, 4)
    q = (100.0 * k[2])[None, :]
    out = A.scaled_dot_product_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v))
    assert np.max(np.abs(out.data[0] - v[2])) < 1e-4


def test_sdpa_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = rng.normal(size=(5, 4))
        k = rng.normal(size=(5, 4))
        v = rng.normal(size=(5, 3))
        out = A.scaled_dot_product_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v))
        assert np.max(np.abs(out.data - sdpa_oracle(q, k, v))) < 1e-10


def test_sdpa_masked_matches_oracle():
    rng = np.random.default_rng(2)
    mask = A.causal_mask(5)
    q = rng.normal(size=(5, 4))
    k = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 3))
    out = A.scaled_dot_product_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), mask)
    assert np.max(np.abs(out.data - sdpa_oracle(q, k, v, mask))) < 1e-10


def test_sdpa_rejects_fully_masked_row():
    rng = np.random.default_rng(3)
    mask = np.ones((3, 3), dtype=bool)
    mask[1] = False
    with pytest.raises(DataError, match="row 1"):
        A.scaled_dot_product_attention(
            T.Tensor(rng.normal(size=(3, 4))),
            T.Tensor(rng.normal(size=(3, 4))),
            T.Tensor(rng.normal(size=(3, 4))),
            mask,
        )


def test_causal_mask_forbids_strict_upper_triangle():
    m = A.causal_mask(5)
    assert np.array_equal(m, ~np.triu(np.ones((5, 5), dtype=bool), k=1))


# ----------------------------------------------------- local context conv


def test_local_conv_uniform_kernel_is_window_mean():
    rng = np.random.default_rng(4)
    s = rng.normal(size=(6, 2))
    cp = rand_conv_params(rng, 4, 2, taps=3)
    cp.w_a.data[:] = 0.7  # identical along F -> uniform softmax
    out = A.local_conv(T.Tensor(s), cp)
    for t in range(6):
        for c in range(2):
            window = [s[t - j, c] if t - j >= 0 else 0.0 for j in range(3)]
            assert abs(out.data[t, c] - np.mean(window)) < 1e-12


def test_local_conv_single_tap_is_identity():
    rng = np.random.default_rng(5)
    s = rng.normal(size=(4, 3))
    cp = rand_conv_params(rng, 4, 3, taps=1)
    out = A.local_conv(T.Tensor(s), cp)
    assert np.allclose(out.data, s, atol=1e-15)


def test_local_conv_matches_softmax_then_loop_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        s = rng.normal(size=(6, 3))
        cp = rand_conv_params(rng, 4, 3, taps=3)
        out = A.local_conv(T.Tensor(s), cp)
        assert np.max(np.abs(out.data - local_conv_oracle(s, cp.w_a.data))) < 1e-12


def test_local_conv_kernel_columns_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(100):
        w_a = rng.normal(size=(5, 4)) * rng.uniform(0.1, 10)
        kern = kernel_softmax_oracle(w_a)
        assert np.all(np.abs(kern.sum(axis=0) - 1.0) <= 1e-9)


def test_local_conv_output_within_window_bounds():
    rng = np.random.default_rng(8)
    s = rng.normal(size=(7, 3))
    cp = rand_conv_params(rng, 4, 3, taps=3)
    out = A.local_conv(T.Tensor(s), cp)
    for t in range(7):
        for c in range(3):
            window = [s[t - j, c] if t - j >= 0 else 0.0 for j in range(3)]
            assert min(window) - 1e-12 <= out.data[t, c] <= max(window) + 1e-12


def test_conv_params_reject_even_kernel():
    rng = np.random.default_rng(9)
    with pytest.raises(ConfigError):
        rand_conv_params(rng, 4, 2, taps=4)


# ---------------------------------------------------------- adaptive query


def test_adaptive_query_single_position():
    rng = np.random.default_rng(10)
    s = rng.normal(size=(1, 3))
    cp = rand_conv_params(rng, 4, 3)
    out = A.adaptive_query(T.Tensor(s), cp)
    assert np.allclose(out.data, (s @ cp.w_s.data)[0], atol=1e-14)


def test_adaptive_query_zero_scores_gives_mean():
    rng = np.random.default_rng(11)
    s = rng.normal(size=(5, 3))
    cp = rand_conv_params(rng, 4, 3)
    cp.w_q.data[:] = 0.0
    out = A.adaptive_query(T.Tensor(s), cp)
    assert np.allclose(out.data, (s @ cp.w_s.data).mean(axis=0), atol=1e-12)


def test_adaptive_query_matches_two_pass_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        s = rng.normal(size=(5, 3))
        cp = rand_conv_params(rng, 4, 3)
        out = A.adaptive_query(T.Tensor(s), cp)
        expected = adaptive_query_oracle(s, cp.w_s.data, cp.w_q.data)
        assert np.max(np.abs(out.data - expected)) < 1e-12


def test_adaptive_query_causal_matches_prefix_oracle():
    rng = np.random.default_rng(13)
    s = rng.normal(size=(6, 3))
    cp = rand_conv_params(rng, 4, 3)
    out = A.adaptive_query(T.Tensor(s), cp, causal=True)
    expected = adaptive_query_prefix_oracle(s, cp.w_s.data, cp.w_q.data)
    assert out.data.shape == (6, 3)
    assert np.max(np.abs(out.data - expected)) < 1e-12


# ------------------------------------------------------- dynamic conv head


def test_dynamic_head_zero_query_halves_local():
    rng = np.random.default_rng(14)
    s = rng.normal(size=(5, 3))
    cp = rand_conv_params(rng, 4, 3)
    cp.w_s.data[:] = 0.0  # query = 0 -> score = 0 -> sigmoid = 1/2
    local = A.local_conv(T.Tensor(s), cp)
    out = A.dynamic_conv_head(T.Tensor(s), cp)
    assert np.allclose(out.data, 0.5 * local.data, atol=1e-14)


def test_dynamic_head_single_position_matches_composed_oracle():
    rng = np.random.default_rng(15)
    s = rng.normal(size=(1, 4))
    cp = rand_conv_params(rng, 4, 4)
    out = A.dynamic_conv_head(T.Tensor(s), cp)
    assert np.max(np.abs(out.data - oracle_head(s, cp, False))) < 1e-10


def test_dynamic_head_matches_composed_oracle():
    rng = np.random.default_rng(16)
    for causal in (False, True):
        for _ in range(10):
            s = rng.normal(size=(6, 4))
            cp = rand_conv_params(rng, 8, 4, taps=3)
            out = A.dynamic_conv_head(T.Tensor(s), cp, causal_query=causal)
            assert np.max(np.abs(out.data - oracle_head(s, cp, causal))) < 1e-10


def test_dynamic_head_causal_query_blocks_future():
    rng = np.random.default_rng(17)
    s = rng.normal(size=(7, 4))
    cp = rand_conv_params(rng, 8, 4)
    base = A.dynamic_conv_head(T.Tensor(s), cp, causal_query=True).data
    for t in range(6):
        s2 = s.copy()
        s2[t + 1 :] += rng.normal(size=s2[t + 1 :].shape)
        out = A.dynamic_conv_head(T.Tensor(s2), cp, causal_query=True).data
        assert np.array_equal(out[: t + 1], base[: t + 1])


def test_dynamic_head_gradients_through_both_softmaxes():
    rng = np.random.default_rng(18)
    s = rng.normal(size=(5, 4))
    base = rand_conv_params(rng, 8, 4)
    weights = rng.normal(size=(5, 4))

    def via_kernel(x):
        cp = A.ConvHeadParams(base.w_in, x, base.w_s, base.w_q)
        return T.tsum(T.mul(A.dynamic_conv_head(T.Tensor(s), cp), weights))

    def via_query(x):
        cp = A.ConvHeadParams(base.w_in, base.w_a, base.w_s, x)
        return T.tsum(T.mul(A.dynamic_conv_head(T.Tensor(s), cp), weights))

    assert T.finite_difference_check(via_kernel, base.w_a, tol=1e-4).passed
    assert T.finite_difference_check(via_query, base.w_q, tol=1e-4).passed


# ----------------------------------------------------------- multi-head mix


def test_multi_head_block_structure_with_dead_conv_heads():
    rng = np.random.default_rng(19)
    d = 8
    params = rand_multi_head(rng, d, 2)
    params.conv.w_in.data[:] = 0.0  # local context = 0 -> head emits 0
    x = rng.normal(size=(4, d))
    out = A.multi_head_forward(T.Tensor(x), params)
    self_out = sdpa_oracle(x @ params.w_q.data[0], x @ params.w_k.data[0], x @ params.w_v.data[0])
    stacked = np.concatenate([self_out, np.zeros((4, d // 2))], axis=-1)
    assert np.max(np.abs(out.data - stacked @ params.w_o.data)) < 1e-10


@pytest.mark.parametrize("h", [2, 4, 8])
@pytest.mark.parametrize("d", [8, 16])
def test_multi_head_shape_contract(h, d):
    rng = np.random.default_rng(20 + h + d)
    params = rand_multi_head(rng, d, h)
    for t_len in range(1, 9):
        x = rng.normal(size=(t_len, d))
        out = A.multi_head_forward(T.Tensor(x), params)
        assert out.data.shape == (t_len, d)


def test_multi_head_matches_monolithic_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        params = rand_multi_head(rng, 8, 4)
        x = rng.normal(size=(4, 8))
        out = A.multi_head_forward(T.Tensor(x), params)
        assert np.max(np.abs(out.data - multi_head_oracle(x, params))) < 1e-10


def test_multi_head_causal_modes_block_future():
    rng = np.random.default_rng(22)
    params = rand_multi_head(rng, 8, 4)
    x = rng.normal(size=(6, 8))
    mask = A.causal_mask(6)
    base = A.multi_head_forward(T.Tensor(x), params, mask=mask, causal_conv=True).data
    for t in range(5):
        x2 = x.copy()
        x2[t + 1 :] += rng.normal(size=x2[t + 1 :].shape)
        out = A.multi_head_forward(T.Tensor(x2), params, mask=mask, causal_conv=True).data
        assert np.array_equal(out[: t + 1], base[: t + 1])


@pytest.mark.parametrize("n_dot,n_conv", [(3, 1), (1, 3), (4, 2), (0, 4)])
def test_multi_head_rejects_uneven_split(n_dot, n_conv):
    rng = np.random.default_rng(27)
    with pytest.raises(ConfigError):
        rand_head_bundle(rng, 8, 2, n_dot, n_conv)


@pytest.mark.parametrize("causal", [False, True])
def test_fused_training_forward_matches_per_head_composition(causal):
    # Dropout on the attention weights and DropConnect on the kernels draw
    # from one rng; the fused heads must draw the masks a head loop draws.
    rng = np.random.default_rng(28)
    params = rand_multi_head(rng, 16, 8, taps=5)
    x = T.Tensor(rng.normal(size=(3, 6, 16)))
    mask = A.causal_mask(6) if causal else None
    fused_stream = np.random.default_rng(7)
    fused = A.multi_head_forward(
        x, params, mask, causal, (0.3, fused_stream), (0.2, fused_stream)
    ).data

    stream = np.random.default_rng(7)
    outs = []
    for j in range(4):
        q, k, v = (T.matmul(x, T.Tensor(w.data[j])) for w in (params.w_q, params.w_k, params.w_v))
        outs.append(A.scaled_dot_product_attention(q, k, v, mask, (0.3, stream)))
    for j in range(4):
        cp = conv_head(params.conv, j)
        outs.append(A.dynamic_conv_head(T.matmul(x, cp.w_in), cp, causal, (0.2, stream)))
    composed = T.matmul(T.concat(outs, axis=-1), params.w_o).data
    assert np.max(np.abs(fused - composed)) < 1e-10
    assert fused_stream.bit_generator.state == stream.bit_generator.state


def test_multi_head_split_is_half_and_half():
    rng = np.random.default_rng(24)
    params = rand_multi_head(rng, 16, 16, taps=3)
    assert params.w_q.shape[0] == 8
    assert params.conv.w_in.shape[0] == 8


def test_multi_head_batched_matches_per_sequence():
    rng = np.random.default_rng(25)
    params = rand_multi_head(rng, 8, 4)
    xs = rng.normal(size=(3, 5, 8))
    batched = A.multi_head_forward(T.Tensor(xs), params).data
    for i in range(3):
        single = A.multi_head_forward(T.Tensor(xs[i]), params).data
        assert np.allclose(batched[i], single, atol=1e-12)


# ------------------------------------------------------- complexity model


def test_complexity_self_attention_quadruples_with_n():
    a = A.complexity_estimate("self_attention", 64, 32)
    b = A.complexity_estimate("self_attention", 128, 32)
    assert b.per_layer_ops == 4 * a.per_layer_ops


def test_complexity_depthwise_doubles_with_d():
    a = A.complexity_estimate("depthwise_separable_convolution", 64, 32, 3)
    b = A.complexity_estimate("depthwise_separable_convolution", 64, 64, 3)
    assert b.per_layer_ops == 2 * a.per_layer_ops


def test_complexity_recurrent_single_step():
    assert A.complexity_estimate("recurrent", 1, 16).sequential_ops == 1


def test_complexity_table_rows():
    n, d, f = 64, 32, 4
    rows = {
        "self_attention": (n * n * d, 1, 1),
        "recurrent": (n * d * d, n, n),
        "convolution": (f * n * d * d, 1, 3),
        "depthwise_separable_convolution": (f * n * d, 1, 3),
    }
    for layer, (ops, seq, path) in rows.items():
        est = A.complexity_estimate(layer, n, d, f)
        assert (est.per_layer_ops, est.sequential_ops, est.max_path_length) == (
            ops,
            seq,
            path,
        )


def test_complexity_doubling_ratios_all_rows():
    n, d, f = 64, 32, 4
    for layer, (rn, rd, rf) in {
        "self_attention": (4, 2, 1),
        "recurrent": (2, 4, 1),
        "convolution": (2, 4, 2),
        "depthwise_separable_convolution": (2, 2, 2),
    }.items():
        base = A.complexity_estimate(layer, n, d, f).per_layer_ops
        assert A.complexity_estimate(layer, 2 * n, d, f).per_layer_ops == rn * base
        assert A.complexity_estimate(layer, n, 2 * d, f).per_layer_ops == rd * base
        assert A.complexity_estimate(layer, n, d, 2 * f).per_layer_ops == rf * base


def test_complexity_rejects_log_path_with_unit_kernel():
    with pytest.raises(ConfigError):
        A.complexity_estimate("convolution", 8, 8, 1)


def test_complexity_rejects_unknown_layer():
    with pytest.raises(ConfigError):
        A.complexity_estimate("attention", 8, 8, 2)
