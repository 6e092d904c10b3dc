"""Hybrid attention: brute-force oracle equivalence, causality, complexity."""

import numpy as np
import pytest

from ctxformer import attention as A
from ctxformer import tensor as T
from ctxformer.errors import ConfigError, DimensionError

from oracles import (
    adaptive_query,
    adaptive_query_oracle,
    adaptive_query_prefix_oracle,
    composed_attention,
    composed_conv_head,
    composed_dot_product_family,
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


def local_context(s, cp):
    """The node's local context (Eq. 2) of a (T, d_h) input under one head's params."""
    return A.local_context(s, T.softmax_array(cp.w_a.data, axis=0))


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
    q = rng.normal(size=(5, 4))
    k = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 3))
    out = A.scaled_dot_product_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), causal=True)
    assert np.max(np.abs(out.data - sdpa_oracle(q, k, v, A.causal_mask(5)))) < 1e-10


def test_sdpa_causal_needs_as_many_queries_as_keys():
    rng = np.random.default_rng(3)
    q, k, v = (T.Tensor(rng.normal(size=(t, 4))) for t in (2, 3, 3))
    with pytest.raises(DimensionError, match="as many queries as keys"):
        A.scaled_dot_product_attention(q, k, v, causal=True)


def test_causal_mask_forbids_strict_upper_triangle():
    m = A.causal_mask(5)
    assert np.array_equal(m, ~np.triu(np.ones((5, 5), dtype=bool), k=1))


# ----------------------------------------------------- local context conv


def test_local_conv_uniform_kernel_is_window_mean():
    rng = np.random.default_rng(4)
    s = rng.normal(size=(6, 2))
    cp = rand_conv_params(rng, 4, 2, taps=3)
    cp.w_a.data[:] = 0.7  # identical along F -> uniform softmax
    out = local_context(s, cp)
    for t in range(6):
        for c in range(2):
            window = [s[t - j, c] if t - j >= 0 else 0.0 for j in range(3)]
            assert abs(out[t, c] - np.mean(window)) < 1e-12


def test_local_conv_single_tap_is_identity():
    rng = np.random.default_rng(5)
    s = rng.normal(size=(4, 3))
    cp = rand_conv_params(rng, 4, 3, taps=1)
    out = local_context(s, cp)
    assert np.allclose(out, s, atol=1e-15)


def test_local_conv_matches_softmax_then_loop_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        s = rng.normal(size=(6, 3))
        cp = rand_conv_params(rng, 4, 3, taps=3)
        out = local_context(s, cp)
        assert np.max(np.abs(out - local_conv_oracle(s, cp.w_a.data))) < 1e-12


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
    out = local_context(s, cp)
    for t in range(7):
        for c in range(3):
            window = [s[t - j, c] if t - j >= 0 else 0.0 for j in range(3)]
            assert min(window) - 1e-12 <= out[t, c] <= max(window) + 1e-12


def test_conv_params_reject_even_kernel():
    rng = np.random.default_rng(9)
    with pytest.raises(ConfigError):
        rand_conv_params(rng, 4, 2, taps=4)


# ---------------------------------------------------------- adaptive query
# These check the composed Eq. 3 of `oracles`, the reference the conv node's
# query is checked against through `composed_conv_head`.


def test_adaptive_query_single_position():
    rng = np.random.default_rng(10)
    s = rng.normal(size=(1, 3))
    cp = rand_conv_params(rng, 4, 3)
    out = adaptive_query(T.Tensor(s), cp)
    assert np.allclose(out.data, (s @ cp.w_s.data)[0], atol=1e-14)


def test_adaptive_query_zero_scores_gives_mean():
    rng = np.random.default_rng(11)
    s = rng.normal(size=(5, 3))
    cp = rand_conv_params(rng, 4, 3)
    cp.w_q.data[:] = 0.0
    out = adaptive_query(T.Tensor(s), cp)
    assert np.allclose(out.data, (s @ cp.w_s.data).mean(axis=0), atol=1e-12)


def test_adaptive_query_matches_two_pass_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        s = rng.normal(size=(5, 3))
        cp = rand_conv_params(rng, 4, 3)
        out = adaptive_query(T.Tensor(s), cp)
        expected = adaptive_query_oracle(s, cp.w_s.data, cp.w_q.data)
        assert np.max(np.abs(out.data - expected)) < 1e-12


def test_adaptive_query_causal_matches_prefix_oracle():
    rng = np.random.default_rng(13)
    s = rng.normal(size=(6, 3))
    cp = rand_conv_params(rng, 4, 3)
    out = adaptive_query(T.Tensor(s), cp, causal=True)
    expected = adaptive_query_prefix_oracle(s, cp.w_s.data, cp.w_q.data)
    assert out.data.shape == (6, 3)
    assert np.max(np.abs(out.data - expected)) < 1e-12


# ------------------------------------------------------- dynamic conv head


def test_dynamic_head_zero_query_halves_local():
    rng = np.random.default_rng(14)
    s = rng.normal(size=(5, 3))
    cp = rand_conv_params(rng, 4, 3)
    cp.w_s.data[:] = 0.0  # query = 0 -> score = 0 -> sigmoid = 1/2
    out = A.dynamic_conv_head(T.Tensor(s), cp)
    assert np.allclose(out.data, 0.5 * local_context(s, cp), atol=1e-14)


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
            out = A.dynamic_conv_head(T.Tensor(s), cp, causal=causal)
            assert np.max(np.abs(out.data - oracle_head(s, cp, causal))) < 1e-10


def test_dynamic_head_causal_query_blocks_future():
    rng = np.random.default_rng(17)
    s = rng.normal(size=(7, 4))
    cp = rand_conv_params(rng, 8, 4)
    base = A.dynamic_conv_head(T.Tensor(s), cp, causal=True).data
    for t in range(6):
        s2 = s.copy()
        s2[t + 1 :] += rng.normal(size=s2[t + 1 :].shape)
        out = A.dynamic_conv_head(T.Tensor(s2), cp, causal=True).data
        assert np.array_equal(out[: t + 1], base[: t + 1])


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_dynamic_head_full_mode_is_causal_modes_last_position(dtype, tol):
    # The prefix of position T-1 is the whole sequence, so its output and
    # the grads of a loss on it alone agree between the two modes, within
    # tol of the largest causal-mode entry (the summation orders differ).
    rng = np.random.default_rng(34)
    n, d_h, taps = 3, 4, 5
    shapes = ((2, 7, n * d_h), (n, taps, d_h), (n, d_h, d_h), (n, d_h))
    arrays = [rng.normal(size=shape).astype(dtype) for shape in shapes]
    grad_out = np.zeros(shapes[0], dtype)
    grad_out[:, -1] = rng.normal(size=(2, n * d_h))
    w_in = T.Tensor(np.zeros((n, 1, d_h), dtype))  # the node does not read it
    results = []
    for causal in (False, True):
        leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
        out = A.dynamic_conv_head(leaves[0], A.ConvHeadParams(w_in, *leaves[1:]), causal)
        T.tsum(T.mul(out, grad_out)).backward()
        results.append([out.data[:, -1]] + [leaf.grad for leaf in leaves])
    for full, causal in zip(*results):
        assert full.dtype == dtype and np.all(causal != 0)
        assert np.max(np.abs(full - causal)) <= tol * np.max(np.abs(causal))


def test_dynamic_head_gradients_through_both_softmaxes():
    # float64 finite differences through the node into its input and every
    # weight it reads: full and causal, one head and three stacked heads,
    # a kernel longer than the sequence included.
    rng = np.random.default_rng(18)
    for n, t_len, taps in ((None, 5, 3), (3, 6, 15), (3, 1, 5)):
        shape = () if n is None else (n,)
        width = 4 * (n or 1)
        cp = A.ConvHeadParams(
            *(T.Tensor(rng.normal(size=shape + s)) for s in ((8, 4), (taps, 4), (4, 4), (4,)))
        )
        s = T.Tensor(rng.normal(size=(2, t_len, width)))
        weights = rng.normal(size=(2, t_len, width))
        for causal in (False, True):
            def loss(probe, field):
                if field == "s":
                    return T.tsum(T.mul(A.dynamic_conv_head(probe, cp, causal), weights))
                fields = ("w_in", "w_a", "w_s", "w_q")
                swapped = A.ConvHeadParams(
                    **{f: probe if f == field else getattr(cp, f) for f in fields}
                )
                return T.tsum(T.mul(A.dynamic_conv_head(s, swapped, causal), weights))

            for field in ("s", "w_a", "w_s", "w_q"):
                x = s if field == "s" else getattr(cp, field)
                report = T.finite_difference_check(lambda p: loss(p, field), x, tol=1e-4)
                assert report.passed, f"n={n} T={t_len} F={taps} causal={causal} {field}: {report}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("causal", [False, True])
def test_dynamic_head_keeps_a_bad_value_in_its_own_head(dtype, causal):
    # NaN, +inf and -inf in turn in head j's kernel, w_s, w_q or input
    # columns: every other head's output columns, input-column grads and
    # weight-slice grads are finite and bitwise those of the clean run.
    rng = np.random.default_rng(33)
    n, d_h, taps = 3, 4, 5
    shapes = ((2, 6, n * d_h), (n, taps, d_h), (n, d_h, d_h), (n, d_h))
    clean = [rng.normal(size=shape).astype(dtype) for shape in shapes]
    grad_out = rng.normal(size=shapes[0]).astype(dtype)
    w_in = T.Tensor(np.zeros((n, 1, d_h), dtype))  # the node does not read it

    def run(arrays):
        leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
        out = A.dynamic_conv_head(leaves[0], A.ConvHeadParams(w_in, *leaves[1:]), causal)
        T.tsum(T.mul(out, grad_out)).backward()
        return [out.data] + [leaf.grad for leaf in leaves]

    def head(arrays, j):
        """Head j's output and input-grad columns and its weight-grad slices."""
        cols = slice(j * d_h, (j + 1) * d_h)
        return [arrays[0][..., cols], arrays[1][..., cols]] + [a[j] for a in arrays[2:]]

    want = run(clean)
    for j in range(n):
        places = ((0, (1, 2, j * d_h + 1)), (1, (j, 2, 1)), (2, (j, 1, 2)), (3, (j, 3)))
        for bad in (np.nan, np.inf, -np.inf):
            for field, index in places:
                arrays = [a.copy() for a in clean]
                arrays[field][index] = bad
                with np.errstate(invalid="ignore", over="ignore"):
                    got = run(arrays)
                for other in set(range(n)) - {j}:
                    for a, b in zip(head(got, other), head(want, other)):
                        assert np.all(np.isfinite(a)), (j, bad, field, other)
                        assert np.array_equal(a, b), (j, bad, field, other)


def test_sdpa_gradients_match_finite_differences():
    rng = np.random.default_rng(29)
    cases = ((1, 5, 5, True), (1, 3, 6, False), (1, 1, 1, True), (2, 5, 5, True), (2, 3, 6, False))
    for heads, t_q, t_k, causal in cases:
        q, k, v = (T.Tensor(rng.normal(size=(2, t, 4))) for t in (t_q, t_k, t_k))
        weights = rng.normal(size=(2, t_q, 4))
        for i, x in enumerate((q, k, v)):
            def loss(probe):
                args = [probe if j == i else t for j, t in enumerate((q, k, v))]
                out = A.scaled_dot_product_attention(*args, causal, heads=heads)
                return T.tsum(T.mul(out, weights))

            report = T.finite_difference_check(loss, x, tol=1e-4)
            assert report.passed, (
                f"heads={heads} T_q={t_q} T_k={t_k} causal={causal} input {i}: {report}"
            )


def test_sdpa_heads_broadcast_a_query_of_lower_rank():
    # The head axis leads every operand, so a (T, heads * d) query meets
    # (B, T, heads * d) keys as if it were repeated over B.
    rng = np.random.default_rng(32)
    q = T.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    repeated = T.Tensor(np.repeat(q.data[None], 3, axis=0), requires_grad=True)
    k, v = (T.Tensor(rng.normal(size=(3, 6, 4))) for _ in range(2))
    weights = rng.normal(size=(3, 5, 4))
    outs = [A.scaled_dot_product_attention(x, k, v, heads=2) for x in (q, repeated)]
    for out in outs:
        T.tsum(T.mul(out, weights)).backward()
    assert np.max(np.abs(outs[0].data - outs[1].data)) < 1e-12
    assert np.max(np.abs(q.grad - repeated.grad.sum(axis=0))) < 1e-12


def _node_and_reference(node, reference, inputs, args, grad_out, p):
    """Outputs, input grads and rng states of `node` and `reference` on the
    same inputs, each with dropout p drawn from a fresh stream of seed 7."""
    results = []
    for fn in (node, reference):
        for x in inputs:
            x.grad = None
        stream = np.random.default_rng(7)
        out = fn(*args, (p, stream))
        T.tsum(T.mul(out, grad_out)).backward()
        results.append(([out.data] + [x.grad for x in inputs], stream.bit_generator.state))
    return results


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_nodes_match_their_composed_references(dtype, tol):
    # Forward and every input grad within tol of the largest reference entry,
    # the same rng stream consumed, all in the model dtype.
    rng = np.random.default_rng(30)

    def leaf(*shape):
        return T.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    cases = []
    for causal in (False, True):
        # The last case has the paper's conv-head shapes: 8 heads of width 8, 15 taps.
        for n, d_h, t_len, taps in (
            (None, 4, 6, 15), (3, 4, 6, 15), (3, 4, 1, 3), (2, 4, 7, 5), (8, 8, 16, 15)
        ):
            shape = () if n is None else (n,)
            cp = A.ConvHeadParams(
                *(leaf(*shape, *s) for s in ((8, d_h), (taps, d_h), (d_h, d_h), (d_h,)))
            )
            s = leaf(2, t_len, d_h * (n or 1))
            cases.append((A.dynamic_conv_head, composed_conv_head, [s, cp.w_a, cp.w_s, cp.w_q],
                          (s, cp, causal), s.shape))
        for lead, t_q, t_k in (((), 5, 5), ((3, 2), 6, 6), ((2,), 1, 1), ((2,), 3, 6)):
            if causal and t_q != t_k:
                continue
            q, k, v = leaf(*lead, t_q, 4), leaf(*lead, t_k, 4), leaf(*lead, t_k, 3)
            cases.append((A.scaled_dot_product_attention, composed_attention, [q, k, v],
                          (q, k, v, causal), lead + (t_q, 3)))
    for node, reference, inputs, args, out_shape in cases:
        grad_out = rng.normal(size=out_shape).astype(dtype)
        for p in (0.0, 0.3):
            (got, got_state), (want, want_state) = _node_and_reference(
                node, reference, inputs, args, grad_out, p
            )
            assert got_state == want_state
            for a, b in zip(got, want):
                assert a.dtype == dtype and a.shape == b.shape
                assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b)), node.__name__


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("causal,cross", [(False, False), (True, False), (False, True)])
def test_dot_product_family_is_bitwise_the_composed_head_layout(dtype, causal, cross):
    # Column blocks into and out of one node against the head layout as
    # graph nodes around the head-leading node: the output, every leaf grad
    # and the rng state after the dropout draw are the same bits.
    rng = np.random.default_rng(31)
    bundle = rand_multi_head(rng, 16, 8)
    weights = [
        T.Tensor(w.data.astype(dtype), requires_grad=True)
        for w in (bundle.w_q, bundle.w_k, bundle.w_v)
    ]
    params = A.MultiHeadParams(*weights, bundle.conv, bundle.w_o)
    y = T.Tensor(rng.normal(size=(3, 6, 16)).astype(dtype), requires_grad=True)
    memory = T.Tensor(rng.normal(size=(3, 7, 16)).astype(dtype), requires_grad=True)
    key_seq = memory if cross else y
    inputs = weights + [y, memory] if cross else weights + [y]
    grad_out = rng.normal(size=(3, 6, 8)).astype(dtype)
    for p in (0.0, 0.3):
        (got, got_state), (want, want_state) = _node_and_reference(
            A.dot_product_family, composed_dot_product_family, inputs,
            (y, key_seq, params, causal), grad_out, p,
        )
        assert got_state == want_state
        for a, b in zip(got, want):
            assert a.dtype == dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
    base = A.multi_head_forward(T.Tensor(x), params, causal=True).data
    for t in range(5):
        x2 = x.copy()
        x2[t + 1 :] += rng.normal(size=x2[t + 1 :].shape)
        out = A.multi_head_forward(T.Tensor(x2), params, causal=True).data
        assert np.array_equal(out[: t + 1], base[: t + 1])


@pytest.mark.parametrize("n_dot,n_conv", [(3, 1), (1, 3), (4, 2), (0, 4)])
def test_multi_head_rejects_uneven_split(n_dot, n_conv):
    rng = np.random.default_rng(27)
    with pytest.raises(ConfigError):
        rand_head_bundle(rng, 8, 2, n_dot, n_conv)


@pytest.mark.parametrize("causal", [False, True])
def test_fused_training_forward_matches_per_head_composition(causal):
    # Dropout on the attention weights and DropConnect on the kernels draw
    # from one rng; the one-node families must draw the masks a loop of
    # composed heads draws.
    rng = np.random.default_rng(28)
    params = rand_multi_head(rng, 16, 8, taps=5)
    x = T.Tensor(rng.normal(size=(3, 6, 16)))
    fused_stream = np.random.default_rng(7)
    fused = A.multi_head_forward(
        x, params, causal, (0.3, fused_stream), (0.2, fused_stream)
    ).data

    stream = np.random.default_rng(7)
    outs = []
    for j in range(4):
        q, k, v = (T.matmul(x, T.Tensor(w.data[j])) for w in (params.w_q, params.w_k, params.w_v))
        outs.append(composed_attention(q, k, v, causal, (0.3, stream)))
    for j in range(4):
        cp = conv_head(params.conv, j)
        outs.append(composed_conv_head(T.matmul(x, cp.w_in), cp, causal, (0.2, stream)))
    composed = T.matmul(T.concat(outs), params.w_o).data
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
