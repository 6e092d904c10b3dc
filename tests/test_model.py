"""Model assembly: positions, embedding, layer recomposition, causality."""

import math

import numpy as np
import pytest

from ctxformer import attention as A
from ctxformer import model as M
from ctxformer import tensor as T
from ctxformer.errors import ConfigError, DataError

from oracles import (
    cross_entropy_oracle,
    decoder_layer_oracle,
    encoder_layer_oracle,
    layer_norm_oracle,
)


def tiny_config(**overrides):
    base = dict(
        d_model=8,
        h=2,
        n_blocks=3,
        kernel_sizes=(3, 3, 3),
        vocab_src=16,
        vocab_tgt=16,
        n_pos_tags=6,
        n_ner_tags=3,
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


def test_decoder_layer_cross_conv_off_matches_oracle():
    model = tiny_model(seed=5, cross_conv="off")
    rng = np.random.default_rng(4)
    y = rng.normal(size=(3, 8))
    memory = rng.normal(size=(5, 8))
    out = M.decoder_layer(T.Tensor(y), T.Tensor(memory), model.dec_layers[0])
    expected = decoder_layer_oracle(y, memory, model.dec_layers[0])
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


def test_full_model_gradient_check_sampled():
    model = tiny_model(seed=10)
    rng = np.random.default_rng(8)
    src = rng.integers(4, 16, size=4)
    tgt_in = rng.integers(4, 16, size=3)
    tgt_out = rng.integers(4, 16, size=3)
    pos = rng.integers(0, 6, size=4)
    ner = rng.integers(0, 3, size=4)

    def loss_through(name):
        original = model.params[name]

        def f(x):
            model.params[name] = x
            holder = _rebind(model, name, x)
            mt, p, n = model.forward_train(src, tgt_in, training=False)
            loss = T.add(
                T.cross_entropy(mt, tgt_out),
                T.add(
                    T.mul(T.cross_entropy(p, pos), 0.3),
                    T.mul(T.cross_entropy(n, ner), 0.3),
                ),
            )
            model.params[name] = original
            _rebind(model, name, original)
            return loss

        return f

    def _rebind(model, name, tensor):
        # structured views alias the flat dict; rebuild the alias for `name`
        for obj, attr in _locate(model, name):
            setattr(obj, attr, tensor)
        return tensor

    def _locate(model, name):
        mapping = {
            "src_embed": [(model, "src_embed")],
            "enc.0.mha.conv.0.w_a": [(model.enc_layers[0].mha.conv_heads[0], "w_a")],
            "enc.0.mha.self.0.q": [(model.enc_layers[0].mha.self_heads[0], "w_q")],
            "dec.0.mha.conv.0.w_q": [(model.dec_layers[0].mha.conv_heads[0], "w_q")],
            "dec.1.xmha.conv.0.w_s": [(model.dec_layers[1].xmha.conv_heads[0], "w_s")],
            "out_proj.w": [(model, "out_proj_w")],
            "enc.1.ln2.gamma": [(model.enc_layers[1].ln2, "gamma")],
            "ner_head.w": [(model, "ner_head_w")],
        }
        return mapping[name]

    for name in (
        "enc.0.mha.conv.0.w_a",
        "enc.0.mha.self.0.q",
        "dec.0.mha.conv.0.w_q",
        "dec.1.xmha.conv.0.w_s",
        "enc.1.ln2.gamma",
        "ner_head.w",
    ):
        report = T.finite_difference_check(
            loss_through(name),
            model.params[name],
            h=1e-4,
            tol=1e-3,
            max_entries=6,
            rng=np.random.default_rng(99),
        )
        assert report.passed, f"{name}: {report}"


@pytest.mark.parametrize(
    "name,cross_conv",
    [
        ("enc.0.mha.self.3.v", "memory"),
        ("dec.0.mha.conv.3.w_a", "memory"),
        ("dec.1.xmha.conv.3.w_s", "memory"),
        ("dec.0.xmha.self.7.k", "off"),
    ],
)
def test_gradient_of_the_last_head_of_each_family(name, cross_conv):
    # Heads run as one family; a head past the first must get its own slice.
    model = tiny_model(
        seed=11, d_model=16, h=8, kernel_sizes=(3, 5, 3), dilations=(1, 2, 1),
        cross_conv=cross_conv,
    )
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
    for hp in xmha.self_heads:
        q, k, v = T.matmul(y, hp.w_q), T.matmul(memory, hp.w_k), T.matmul(memory, hp.w_v)
        outs.append(A.scaled_dot_product_attention(q, k, v, None, (0.3, stream)))
    for cp in xmha.conv_heads:
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
        {"cross_conv": "off"},
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
