"""Model assembly: positions, embedding, layer recomposition, causality."""

import dataclasses
import math

import numpy as np
import pytest

from ctxformer import attention as A
from ctxformer import data as D
from ctxformer import model as M
from ctxformer import tensor as T
from ctxformer import training as TR
from ctxformer.config import preset_run_config
from ctxformer.errors import ConfigError, DataError

from oracles import (
    cross_entropy_oracle,
    decoder_layer_oracle,
    encoder_layer_oracle,
    layer_norm_oracle,
)
from test_attention import conv_head


def tiny_config(**overrides):
    base = dict(
        d_model=8,
        h=2,
        n_blocks=3,
        kernel_sizes=(3, 3, 3),
        vocab_src=16,
        vocab_tgt=16,
        max_len=16,
    )
    base.update(overrides)
    return M.ModelConfig(**base)


def tiny_model(seed=0, **overrides):
    return M.Seq2SeqModel(tiny_config(**overrides), seed=seed, dtype=np.float64)


# ---------------------------------------------------------------- positions


def test_positions_at_zero_alternate_zero_one():
    pe = M.sinusoidal_positions(4, 6)
    assert np.allclose(pe[0], [0, 1, 0, 1, 0, 1], atol=1e-15)


def test_positions_bounded():
    pe = M.sinusoidal_positions(50, 16)
    assert np.all(pe >= -1.0) and np.all(pe <= 1.0)


def test_positions_spot_check_formula():
    d = 8
    pe = M.sinusoidal_positions(10, d)
    for t in (1, 3, 7):
        for i in range(d // 2):
            angle = t / (10000 ** (2 * i / d))
            assert abs(pe[t, 2 * i] - math.sin(angle)) < 1e-12
            assert abs(pe[t, 2 * i + 1] - math.cos(angle)) < 1e-12


def test_positions_reject_odd_width():
    with pytest.raises(ConfigError):
        M.sinusoidal_positions(4, 5)


# ---------------------------------------------------------------- config


def test_config_rejects_too_few_blocks():
    with pytest.raises(ConfigError):
        tiny_config(n_blocks=2, kernel_sizes=(3, 3)).validate()


def test_config_rejects_odd_heads():
    with pytest.raises(ConfigError):
        tiny_config(h=3).validate()


def test_config_rejects_kernel_count_mismatch():
    with pytest.raises(ConfigError):
        tiny_config(kernel_sizes=(3, 3)).validate()


def test_config_rejects_indivisible_width():
    with pytest.raises(ConfigError):
        tiny_config(d_model=10, h=4).validate()


# ---------------------------------------------------------------- embedding


def test_embed_single_token():
    model = tiny_model()
    ids = np.array([5])
    out = model.embed(ids, model.src_embed)
    expected = model.src_embed.data[5] * math.sqrt(8) + M.sinusoidal_positions(1, 8)[0]
    assert np.allclose(out.data[0], expected, atol=1e-12)


def test_embed_deterministic_at_inference():
    model = tiny_model()
    ids = np.array([1, 5, 9, 2])
    a = model.embed(ids, model.src_embed).data
    b = model.embed(ids, model.src_embed).data
    assert np.array_equal(a, b)


def test_embed_gradient_scales_with_occurrences():
    model = tiny_model()
    ids = np.array([3, 3, 7])
    model.zero_grad()
    T.tsum(model.embed(ids, model.src_embed)).backward()
    grad = model.src_embed.grad
    # position encodings are constant; each lookup contributes sqrt(d) per row
    assert np.allclose(grad[3], 2 * math.sqrt(8), atol=1e-12)
    assert np.allclose(grad[7], math.sqrt(8), atol=1e-12)
    assert np.allclose(grad[0], 0.0)


def test_embed_rejects_out_of_range_id():
    model = tiny_model()
    with pytest.raises(DataError, match="position"):
        model.embed(np.array([3, 99]), model.src_embed)


# ---------------------------------------------------------- encoder layers


def test_base_encoder_layer_degenerate_weights():
    model = tiny_model()
    layer = model.enc_layers[0]
    layer.mha.w_o.data[:] = 0.0
    layer.ffn.w2.data[:] = 0.0
    layer.ffn.b2.data[:] = 0.0
    model.pos_head_w.data[:] = 0.0
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 8))
    y, aux = M.base_encoder_layer(T.Tensor(x), layer, model.pos_head_w, model.pos_head_b)
    ln = lambda v, p: layer_norm_oracle(v, p.gamma.data, p.beta.data)
    assert np.allclose(y.data, ln(ln(x, layer.ln1), layer.ln2), atol=1e-12)
    assert np.allclose(aux.data, np.broadcast_to(model.pos_head_b.data, aux.data.shape))


def test_base_encoder_layer_shapes():
    model = tiny_model()
    rng = np.random.default_rng(1)
    for t_len in (1, 3, 7):
        x = rng.normal(size=(t_len, 8))
        y, aux = M.base_encoder_layer(
            T.Tensor(x), model.enc_layers[0], model.pos_head_w, model.pos_head_b
        )
        assert y.data.shape == (t_len, 8)
        assert aux.data.shape == (t_len, 6)


def test_encoder_layer_matches_step_by_step_oracle():
    model = tiny_model(seed=3)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 8))
    out = M.encoder_layer(T.Tensor(x), model.enc_layers[0])
    assert np.max(np.abs(out.data - encoder_layer_oracle(x, model.enc_layers[0]))) < 1e-8


def test_decoder_layer_matches_step_by_step_oracle():
    model = tiny_model(seed=4)
    rng = np.random.default_rng(3)
    y = rng.normal(size=(4, 8))
    memory = rng.normal(size=(6, 8))
    out = M.decoder_layer(T.Tensor(y), T.Tensor(memory), model.dec_layers[0])
    expected = decoder_layer_oracle(y, memory, model.dec_layers[0])
    assert out.data.shape == (4, 8)
    assert np.max(np.abs(out.data - expected)) < 1e-8


# ---------------------------------------------------------------- encode


def test_encode_structural_split():
    model = tiny_model()
    assert len(model.enc_layers) == 3  # two base + exactly one standard
    out = model.encode(np.array([1, 2, 3, 4]))
    assert out.memory.data.shape == (4, 8)
    assert out.pos_logits.data.shape == (4, 6)
    assert out.ner_logits.data.shape == (4, 3)


def test_encode_deterministic_at_inference():
    model = tiny_model()
    ids = np.array([4, 9, 1])
    a = model.encode(ids).memory.data
    b = model.encode(ids).memory.data
    assert np.array_equal(a, b)


def test_encode_rejects_overlength():
    model = tiny_model()
    with pytest.raises(DataError, match="max_len"):
        model.encode(np.arange(17) % 16)


# ----------------------------------------------------- autoregressive checks


def test_decoder_logits_ignore_future_target_tokens():
    model = tiny_model(seed=7)
    rng = np.random.default_rng(5)
    src = rng.integers(4, 16, size=6)
    tgt = rng.integers(4, 16, size=5)
    memory = model.encode(src).memory
    base = model.decode(tgt, memory).data
    for i in range(4):
        tgt2 = tgt.copy()
        tgt2[i + 1 :] = rng.integers(4, 16, size=len(tgt) - i - 1)
        out = model.decode(tgt2, memory).data
        assert np.array_equal(out[: i + 1], base[: i + 1])


def test_aux_heads_do_not_feed_decoder():
    model = tiny_model(seed=8)
    rng = np.random.default_rng(6)
    src = rng.integers(4, 16, size=5)
    tgt = rng.integers(4, 16, size=4)
    logits, _, _ = model.forward_train(src, tgt, training=False)
    model.pos_head_w.data[:] = rng.normal(size=model.pos_head_w.data.shape)
    model.ner_head_b.data[:] = rng.normal(size=model.ner_head_b.data.shape)
    logits2, _, _ = model.forward_train(src, tgt, training=False)
    assert np.array_equal(logits.data, logits2.data)


def test_forward_train_shapes():
    model = tiny_model()
    src = np.array([1, 2, 3, 4, 5])
    tgt = np.array([1, 6, 7])
    mt, pos, ner = model.forward_train(src, tgt, training=False)
    assert mt.data.shape == (3, 16)
    assert pos.data.shape == (5, 6)
    assert ner.data.shape == (5, 3)


def test_forward_train_batched_matches_single():
    model = tiny_model(seed=9)
    rng = np.random.default_rng(7)
    srcs = rng.integers(4, 16, size=(3, 5))
    tgts = rng.integers(4, 16, size=(3, 4))
    mt_b, pos_b, ner_b = model.forward_train(srcs, tgts, training=False)
    for i in range(3):
        mt, pos, ner = model.forward_train(srcs[i], tgts[i], training=False)
        assert np.allclose(mt_b.data[i], mt.data, atol=1e-12)
        assert np.allclose(pos_b.data[i], pos.data, atol=1e-12)
        assert np.allclose(ner_b.data[i], ner.data, atol=1e-12)


# ---------------------------------------------------------- gradient check


def fd_check_in_place(loss, param, h, tol, max_entries, rng):
    """`T.finite_difference_check` on a model parameter perturbed where it
    lives, through `param.data`: the same coordinate sampling and error
    metric, for parameters that are views of a head-stacked leaf."""
    param.grad[...] = 0.0
    loss().backward()
    auto = param.grad.reshape(-1).copy()
    flat = param.data.reshape(-1)
    indices = np.arange(flat.size)
    if max_entries < flat.size:
        indices = rng.choice(flat.size, size=max_entries, replace=False)
    worst = 0.0
    with T.no_grad():
        for i in indices:
            orig = flat[i]
            flat[i] = orig + h
            up = loss().item()
            flat[i] = orig - h
            down = loss().item()
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(fd - auto[i]) / max(1.0, abs(fd), abs(auto[i])))
    return T.FiniteDifferenceReport(worst, tol, worst <= tol, len(indices))


def test_full_model_gradient_check_sampled():
    model = tiny_model(seed=10)
    rng = np.random.default_rng(8)
    src = rng.integers(4, 16, size=4)
    tgt_in = rng.integers(4, 16, size=3)
    tgt_out = rng.integers(4, 16, size=3)
    pos = rng.integers(0, 6, size=4)
    ner = rng.integers(0, 3, size=4)

    def loss():
        mt, p, n = model.forward_train(src, tgt_in, training=False)
        return T.add(
            T.cross_entropy(mt, tgt_out),
            T.add(
                T.mul(T.cross_entropy(p, pos), 0.3),
                T.mul(T.cross_entropy(n, ner), 0.3),
            ),
        )

    for name in (
        "enc.0.mha.conv.0.w_a",
        "enc.0.mha.self.0.q",
        "dec.0.mha.conv.0.w_q",
        "dec.1.xmha.conv.0.w_s",
        "enc.1.ln2.gamma",
        "ner_head.w",
    ):
        report = fd_check_in_place(
            loss, model.params[name], h=1e-4, tol=1e-3, max_entries=6,
            rng=np.random.default_rng(99),
        )
        assert report.passed, f"{name}: {report}"


def _family_leaf(model, name):
    """The head-stacked leaf behind per-head name `name`, and the head index."""
    stack, i, sub, family, j, field = name.split(".")
    mha = getattr((model.enc_layers if stack == "enc" else model.dec_layers)[int(i)], sub)
    if family == "self":
        return getattr(mha, "w_" + field), int(j)
    return getattr(mha.conv, field), int(j)


def test_every_per_head_name_is_a_live_view_of_its_family_leaf():
    model = tiny_model(seed=15, d_model=16, h=4)
    names = [n for n in model.params if ".self." in n or ".conv." in n]
    # Each of a block's three sublayers names 2 dot heads x 3 weights and
    # 2 conv heads x 4.
    assert len(names) == 3 * 3 * 14
    rng = np.random.default_rng(16)
    src = rng.integers(4, 16, size=(2, 5))
    tgt_in = rng.integers(4, 16, size=(2, 4))

    def outputs(net=model):
        with T.no_grad():
            return np.concatenate([o.data.reshape(-1) for o in net.forward_train(src, tgt_in, False)])

    def is_head_slice(view, stacked, j):
        # the same memory, shape and layout as slice j of the stacked array
        return (
            view.flags.c_contiguous
            and view.shape == stacked[j].shape
            and np.shares_memory(view, stacked)
            and view.ctypes.data == stacked[j].ctypes.data
        )

    def check_views():
        for name in names:
            leaf, j = _family_leaf(model, name)
            assert is_head_slice(model.params[name].data, leaf.data, j), name
            assert is_head_slice(model.params[name].grad, leaf.grad, j), name

    check_views()
    base = outputs()
    for name in names:
        flat = model.params[name].data.reshape(-1)
        orig = flat[0]
        flat[0] = orig + 0.5
        assert not np.array_equal(outputs(), base), name
        flat[0] = orig
    assert np.array_equal(outputs(), base)

    mt, p, n = model.forward_train(src, tgt_in, False)
    T.add(T.add(T.tsum(mt), T.tsum(p)), T.tsum(n)).backward()
    check_views()
    assert all(np.abs(model.params[name].grad).max() > 0 for name in names)

    other = tiny_model(seed=17, d_model=16, h=4)
    model.load_state(other.state_arrays())
    check_views()
    assert np.array_equal(outputs(), outputs(other))
    model.zero_grad()
    check_views()
    for name in names:
        assert not _family_leaf(model, name)[0].grad.any(), name


@pytest.mark.parametrize(
    "name",
    ["enc.0.mha.self.3.v", "dec.0.mha.conv.3.w_a", "dec.1.xmha.conv.3.w_s", "dec.0.xmha.self.3.k"],
)
def test_gradient_of_the_last_head_of_each_family(name):
    # Heads run as one family; a head past the first must get its own slice.
    model = tiny_model(seed=11, d_model=16, h=8, kernel_sizes=(3, 5, 3))
    rng = np.random.default_rng(12)
    src = rng.integers(4, 16, size=(2, 5))
    tgt_in = rng.integers(4, 16, size=(2, 4))
    tgt_out = rng.integers(4, 16, size=(2, 4))
    pos = rng.integers(0, 6, size=(2, 5))
    ner = rng.integers(0, 3, size=(2, 5))

    def loss():
        mt, p, n = model.forward_train(src, tgt_in, training=False)
        return T.add(
            T.cross_entropy(mt, tgt_out),
            T.add(T.mul(T.cross_entropy(p, pos), 0.3), T.mul(T.cross_entropy(n, ner), 0.3)),
        )

    param = model.params[name]
    loss().backward()
    auto = param.grad.reshape(-1).copy()
    flat = param.data.reshape(-1)
    step = 1e-5
    with T.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss().item()
            flat[i] = orig - step
            down = loss().item()
            flat[i] = orig
            fd = (up - down) / (2 * step)
            assert abs(fd - auto[i]) <= 1e-8 + 1e-6 * abs(fd), f"{name}[{i}]"
    assert np.abs(auto).max() > 1e-6


def test_training_cross_attention_matches_per_head_composition():
    model = tiny_model(seed=13, d_model=16, h=8, dropout=0.3, dropconnect=0.2)
    xmha = model.dec_layers[0].xmha
    rng = np.random.default_rng(14)
    y = T.Tensor(rng.normal(size=(2, 4, 16)))
    memory = T.Tensor(rng.normal(size=(2, 6, 16)))
    fused_stream = np.random.default_rng(5)
    reg = M._Regularizers.from_config(model.config, True, fused_stream)
    fused = M._cross_attention(y, memory, xmha, reg).data

    stream = np.random.default_rng(5)
    outs = []
    for j in range(4):
        w_q, w_k, w_v = (T.Tensor(w.data[j]) for w in (xmha.w_q, xmha.w_k, xmha.w_v))
        q, k, v = T.matmul(y, w_q), T.matmul(memory, w_k), T.matmul(memory, w_v)
        outs.append(A.scaled_dot_product_attention(q, k, v, None, (0.3, stream)))
    for j in range(4):
        cp = conv_head(xmha.conv, j)
        gated = A.dynamic_conv_head(T.matmul(memory, cp.w_in), cp, False, (0.2, stream))
        pooled = T.tmean(gated, axis=-2, keepdims=True)
        outs.append(T.broadcast_to(pooled, (2, 4, pooled.shape[-1])))
    composed = T.matmul(T.concat(outs, axis=-1), xmha.w_o).data
    assert np.max(np.abs(fused - composed)) < 1e-10
    assert fused_stream.bit_generator.state == stream.bit_generator.state


def test_forward_train_loss_matches_manual_composition():
    model = tiny_model(seed=11)
    rng = np.random.default_rng(9)
    src = rng.integers(4, 16, size=5)
    tgt_in = rng.integers(4, 16, size=4)
    tgt_out = rng.integers(4, 16, size=4)
    mt, _, _ = model.forward_train(src, tgt_in, training=False)
    loss = T.cross_entropy(mt, tgt_out)
    assert abs(loss.item() - cross_entropy_oracle(mt.data, tgt_out)) < 1e-10


# ------------------------------------------------------------ param count


def test_parameter_count_matches_closed_form():
    for overrides in (
        {},
        {"d_model": 16, "h": 4, "n_blocks": 4, "kernel_sizes": (3, 5, 7, 3)},
    ):
        cfg = tiny_config(**overrides)
        model = M.Seq2SeqModel(cfg, seed=0)
        assert model.parameter_count() == M.count_parameters(cfg)


def test_checkpoint_naming_convention():
    model = tiny_model()
    names = set(model.params)
    for expected in (
        "src_embed",
        "tgt_embed",
        "enc.0.mha.self.0.q",
        "enc.0.mha.conv.0.w_in",
        "enc.0.mha.conv.0.w_a",
        "enc.0.mha.conv.0.w_s",
        "enc.0.mha.conv.0.w_q",
        "enc.0.mha.w_o",
        "pos_head.w",
        "ner_head.b",
        "dec.2.xmha.w_o",
        "out_proj.w",
    ):
        assert expected in names


def test_state_roundtrip():
    model = tiny_model(seed=12)
    arrays = {k: v.copy() for k, v in model.state_arrays().items()}
    other = tiny_model(seed=99)
    other.load_state(arrays)
    for name in arrays:
        assert np.array_equal(other.params[name].data, arrays[name])
    with pytest.raises(DataError):
        other.load_state({"src_embed": arrays["src_embed"]})


# ------------------------------------------------------------ dtype flow


def _paper_split_config():
    """The paper preset's 16-head split, kernels and dropouts (DropConnect
    included) at a width small enough for a unit test."""
    paper = preset_run_config("paper").model
    return dataclasses.replace(paper, d_model=32, vocab_src=16, vocab_tgt=16, max_len=16)


DTYPE_FLOW_CONFIGS = {
    "hybrid": lambda: tiny_config(d_model=16, dropout=0.1, residual_dropout=0.1),
    "paper-split-dropconnect": _paper_split_config,
}


def _train_step_dtypes(config, dtype, monkeypatch):
    """The dtypes of every graph node, every gradient handed to a node and
    every leaf grad of one train step (accumulated, so grads are kept)."""
    rng = np.random.default_rng(4)
    pairs = [
        D.TaggedPair(
            src=list(rng.integers(4, 16, size=5)),
            tgt=list(rng.integers(4, 16, size=6)),
            pos_tags=list(rng.integers(0, 6, size=5)),
            ner_tags=list(rng.integers(0, 3, size=5)),
        )
        for _ in range(3)
    ]
    model = M.Seq2SeqModel(config, seed=2, dtype=dtype)
    nodes, passed = set(), set()
    make, accumulate = T._make, T.Tensor._accumulate

    def recording_make(data, parents, backward_fn):
        nodes.add(data.dtype)
        return make(data, parents, backward_fn)

    def recording_accumulate(self, g):
        passed.add(np.asarray(g).dtype)
        accumulate(self, g)

    with monkeypatch.context() as m:
        m.setattr(T, "_make", recording_make)
        m.setattr(T.Tensor, "_accumulate", recording_accumulate)
        TR.train_step(D.collate(pairs), model, TR.TrainState(), TR.TrainConfig(accum_steps=2))
    leaves = {p.grad.dtype for p in model.params.values()}
    assert nodes and passed and leaves
    return nodes, passed, leaves


@pytest.mark.parametrize("name", sorted(DTYPE_FLOW_CONFIGS))
def test_train_step_keeps_the_model_dtype_in_every_node_and_grad(name, monkeypatch):
    config = DTYPE_FLOW_CONFIGS[name]()
    for dtype in (np.float32, np.float64):
        nodes, passed, leaves = _train_step_dtypes(config, dtype, monkeypatch)
        assert nodes == {np.dtype(dtype)}, f"{dtype.__name__} model built {nodes} nodes"
        assert passed == {np.dtype(dtype)}, f"{dtype.__name__} model passed {passed} grads"
        assert leaves == {np.dtype(dtype)}, f"{dtype.__name__} model holds {leaves} grads"


def test_float32_encoder_memory_and_decoder_cache_stay_float32():
    model = M.Seq2SeqModel(tiny_config(d_model=16, h=4), seed=3, dtype=np.float32)
    with T.no_grad():
        memory = model.encode(np.array([5, 6, 7, 8, 2])).memory
        assert memory.dtype == np.float32
        cache = model.start_decoding(memory)
        cache.select([0, 0, 0])
        ids = np.array([[1], [5], [6]])
        for _ in range(3):
            logits = model.decode(ids, memory, cache=cache)
            assert logits.dtype == np.float32
            cache.select([1, 0, 2])
    arrays = []
    for part in cache._layers + cache._states:
        for f in dataclasses.fields(part):
            value = getattr(part, f.name)
            arrays.extend(value if isinstance(value, tuple) else [value])
    floats = [a for a in arrays if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
    assert len(floats) > 30
    assert {a.dtype for a in floats} == {np.dtype(np.float32)}
