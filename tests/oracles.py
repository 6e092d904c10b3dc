"""Independent brute-force reference implementations used by the tests.

Everything here is plain numpy with explicit loops, deliberately sharing
no code with the package; the tests compare library outputs against these.
The one exception is `beam_search_oracle`, which drives a model's
full-prefix decoder pass, the reference for incremental decoding.
"""

import math

import numpy as np


def matmul_oracle(a, b):
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def softmax_oracle(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


def layer_norm_oracle(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gamma * ((x - mu) / np.sqrt(var + eps)) + beta


def sdpa_oracle(q, k, v, mask=None):
    t_q, d_k = q.shape
    t_k = k.shape[0]
    out = np.zeros((t_q, v.shape[1]))
    for t in range(t_q):
        scores = np.array([float(q[t] @ k[s]) / math.sqrt(d_k) for s in range(t_k)])
        if mask is not None:
            scores = np.where(mask[t], scores, -np.inf)
        e = np.exp(scores - scores.max())
        w = e / e.sum()
        for s in range(t_k):
            out[t] += w[s] * v[s]
    return out


def kernel_softmax_oracle(w_a):
    e = np.exp(w_a - w_a.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def local_conv_oracle(s, w_a):
    kern = kernel_softmax_oracle(w_a)
    taps = w_a.shape[0]
    t_len, d_h = s.shape
    out = np.zeros_like(s)
    for t in range(t_len):
        for c in range(d_h):
            acc = 0.0
            for j in range(taps):
                src = t - j
                if src >= 0:
                    acc += kern[j, c] * s[src, c]
            out[t, c] = acc
    return out


def adaptive_query_oracle(s, w_s, w_q):
    proj = s @ w_s
    scores = s @ w_q
    e = np.exp(scores - scores.max())
    w = e / e.sum()
    return (proj * w[:, None]).sum(axis=0)


def adaptive_query_prefix_oracle(s, w_s, w_q):
    t_len = s.shape[0]
    return np.stack(
        [adaptive_query_oracle(s[: t + 1], w_s, w_q) for t in range(t_len)]
    )


def dynamic_head_oracle(s_proj, w_a, w_s, w_q, causal):
    d_h = s_proj.shape[1]
    local = local_conv_oracle(s_proj, w_a)
    if causal:
        query = adaptive_query_prefix_oracle(s_proj, w_s, w_q)
    else:
        query = np.broadcast_to(adaptive_query_oracle(s_proj, w_s, w_q), local.shape)
    score = (local * query).sum(axis=-1) / math.sqrt(d_h)
    gate = 1.0 / (1.0 + np.exp(-score))
    return gate[:, None] * local


def dot_heads(params):
    """(w_q, w_k, w_v) arrays of each head of a head-stacked bundle."""
    return list(zip(params.w_q.data, params.w_k.data, params.w_v.data))


def conv_heads(params):
    """(w_in, w_a, w_s, w_q) arrays of each conv head; none if it has none."""
    if params.conv is None:
        return []
    c = params.conv
    return list(zip(c.w_in.data, c.w_a.data, c.w_s.data, c.w_q.data))


def multi_head_oracle(x, params, mask=None, causal_conv=False):
    outs = []
    for w_q, w_k, w_v in dot_heads(params):
        outs.append(sdpa_oracle(x @ w_q, x @ w_k, x @ w_v, mask))
    for w_in, w_a, w_s, w_q in conv_heads(params):
        outs.append(
            dynamic_head_oracle(x @ w_in, w_a, w_s, w_q, causal_conv)
        )
    return np.concatenate(outs, axis=-1) @ params.w_o.data


def feed_forward_oracle(x, ffn):
    hidden = np.maximum(x @ ffn.w1.data + ffn.b1.data, 0.0)
    return hidden @ ffn.w2.data + ffn.b2.data


def encoder_layer_oracle(x, layer):
    attn = multi_head_oracle(x, layer.mha)
    h = layer_norm_oracle(x + attn, layer.ln1.gamma.data, layer.ln1.beta.data)
    ff = feed_forward_oracle(h, layer.ffn)
    return layer_norm_oracle(h + ff, layer.ln2.gamma.data, layer.ln2.beta.data)


def cross_attention_oracle(y, memory, params):
    outs = []
    for w_q, w_k, w_v in dot_heads(params):
        outs.append(sdpa_oracle(y @ w_q, memory @ w_k, memory @ w_v))
    for w_in, w_a, w_s, w_q in conv_heads(params):
        gated = dynamic_head_oracle(memory @ w_in, w_a, w_s, w_q, False)
        pooled = gated.mean(axis=0)
        outs.append(np.broadcast_to(pooled, (y.shape[0], pooled.shape[0])).copy())
    return np.concatenate(outs, axis=-1) @ params.w_o.data


def decoder_layer_oracle(y, memory, layer):
    t_len = y.shape[0]
    mask = np.tril(np.ones((t_len, t_len), dtype=bool))
    attn = multi_head_oracle(y, layer.mha, mask=mask, causal_conv=True)
    h1 = layer_norm_oracle(y + attn, layer.ln1.gamma.data, layer.ln1.beta.data)
    cross = cross_attention_oracle(h1, memory, layer.xmha)
    h2 = layer_norm_oracle(h1 + cross, layer.ln2.gamma.data, layer.ln2.beta.data)
    ff = feed_forward_oracle(h2, layer.ffn)
    return layer_norm_oracle(h2 + ff, layer.ln3.gamma.data, layer.ln3.beta.data)


def cross_entropy_oracle(logits, targets, ignore_id=-1):
    total, count = 0.0, 0
    for row, t in zip(logits.reshape(-1, logits.shape[-1]), np.asarray(targets).reshape(-1)):
        if t == ignore_id:
            continue
        p = softmax_oracle(row)
        total -= math.log(p[t])
        count += 1
    return total / count


def beam_search_oracle(src_ids, model, beam_size, alpha, max_decode_len, bos_id, eos_id):
    """Beam search that re-decodes every hypothesis's full prefix at each step.

    Same conventions as the library's beam search: the source gets the end
    marker appended, expansion ties break by token id then hypothesis
    index, finished hypotheses outrank unfinished ones, and the score is
    log-probability over ((5 + length) / 6) ** alpha. Returns (tokens,
    log_prob, score, finished) with the end marker stripped from tokens.
    """
    src = np.asarray(list(src_ids) + [eos_id], dtype=np.int64)
    budget = min(max_decode_len, model.config.max_len - 1)
    memory = model.encode(src).memory.data
    active = [((), 0.0)]  # (tokens, log_prob)
    finished = []
    for _ in range(budget):
        prefix = np.array([(bos_id,) + tokens for tokens, _ in active], dtype=np.int64)
        mem_b = np.broadcast_to(memory, (len(active),) + memory.shape).copy()
        logits = model.decode(prefix, mem_b).data[:, -1, :]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        n_active, vocab = logp.shape
        flat = (np.array([lp for _, lp in active])[:, None] + logp).reshape(-1)
        hyp_idx = np.repeat(np.arange(n_active), vocab)
        tok_idx = np.tile(np.arange(vocab), n_active)
        next_active = []
        for pos in np.lexsort((hyp_idx, tok_idx, -flat))[:beam_size]:
            tokens = active[hyp_idx[pos]][0] + (int(tok_idx[pos]),)
            if tokens[-1] == eos_id:
                finished.append((tokens, float(flat[pos])))
            else:
                next_active.append((tokens, float(flat[pos])))
        active = next_active
        if not active:
            break
    pool = finished if finished else active
    best, best_score = None, -math.inf
    for tokens, log_prob in pool:
        score = log_prob / ((5.0 + len(tokens)) / 6.0) ** alpha
        if score > best_score or (score == best_score and tokens < best[0]):
            best, best_score = (tokens, log_prob), score
    tokens, log_prob = best
    return [t for t in tokens if t != eos_id], log_prob, best_score, bool(finished)
