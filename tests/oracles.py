"""Independent brute-force reference implementations used by the tests.

Everything here is plain numpy with explicit loops, deliberately sharing
no code with the package; the tests compare library outputs against these.
The exceptions:

- `beam_search_oracle` drives a model's full-prefix decoder pass, the
  reference for incremental decoding;
- the composed graph forms of Eq. 1-4 (`composed_attention`, `local_conv`,
  `adaptive_query`, `composed_conv_head`) build Eq. 1-4 from the package's
  elementwise, matmul and softmax graph ops, one node per step. They are
  the references the one-node attention heads are checked against,
  forward, backward, and mask draws;
- `composed_dot_product_family` runs the dot-product heads with the head
  layout as graph nodes: a transpose and a reshape per projection weight,
  a reshape and a transpose splitting each of q, k and v into a leading
  head axis, the single-head-layout `scaled_dot_product_attention` over
  that axis, and a transpose and a reshape merging the heads. It is the
  reference the column-block node is checked against, bit for bit;
- `composed_sublayer` builds the post-norm residual sublayer as three
  nodes, dropout -> add -> layer norm, the last one a layer-norm node with
  a backward through `ndarray.mean`. It is the reference the one-node
  residual `layer_norm` is checked against, bit for bit;
- the graph ops `reshape`, `transpose`, `softmax` and `masked_fill`, which
  only the composed forms and the tests use;
- `float_mask_dropout` and the nodes around it (`mask_dropout`,
  `composed_feed_forward`, `float_mask_sites`) keep dropout as the float
  mask keep * (1 / (1 - p)) in the activation dtype, drawn from the
  package's keep-bit kernel. They are the reference every keep-bit dropout
  site is checked against, bit for bit;
- `graph_bytes` walks a built graph and adds up the buffers its interior
  nodes hold, the figure the memory guard pins;
- `generate_corpus_oracle` is the corpus generator that makes one scalar
  `rng.integers`/`rng.random` call per grammar draw and puts each pair
  together word by word, through the package's lexicon, vocabularies and
  `tag_ids`. It is the reference `generate_corpus` is checked against, bit
  for bit.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np

from ctxformer import attention as A
from ctxformer import data as D
from ctxformer import tensor as T


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


# ------------------------------------------------------------ graph ops


def reshape(x, shape):
    x = T.as_tensor(x)
    data = x.data.reshape(shape)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.data.shape))

    return T._make(data, (x,), bwd)


def transpose(x, axes):
    """Permute the axes, as np.transpose."""
    x = T.as_tensor(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.transpose(g, inverse))

    return T._make(np.transpose(x.data, axes), (x,), bwd)


def softmax(x, axis=-1):
    """Shift-invariant softmax; -inf entries map to exactly zero weight."""
    x = T.as_tensor(x)
    data = T.softmax_array(x.data, axis)

    def bwd(g):
        if x.requires_grad:
            inner = (g * data).sum(axis=axis, keepdims=True)
            x._accumulate(data * (g - inner))

    return T._make(data, (x,), bwd)


def masked_fill(x, keep_mask, value):
    """Replace entries where keep_mask is False by `value` (no grad there)."""
    x = T.as_tensor(x)
    keep = np.asarray(keep_mask, dtype=bool)
    data = np.where(keep, x.data, x.data.dtype.type(value))

    def bwd(g):
        if x.requires_grad:
            x._accumulate(T._unbroadcast(np.where(keep, g, 0.0), x.data.shape))

    return T._make(data, (x,), bwd)


# ------------------------------------------------- float-mask dropout


_KEEP_BITS = T.dropout_mask  # the package kernel, also inside `float_mask_sites`


def float_mask_dropout(shape, p, rng, dtype):
    """The float inverted-dropout mask keep * (1 / (1 - p)) in `dtype`, from
    the package's keep bits; None at p == 0."""
    drawn = _KEEP_BITS(shape, p, rng, dtype)
    if drawn is None:
        return None
    keep, _ = drawn
    dtype = np.dtype(dtype)
    return np.multiply(keep, dtype.type(1.0 / (1.0 - p)), dtype=dtype)


def mask_dropout(x, p, rng):
    """The dropout node that keeps a float mask: x * mask, g * mask."""
    mask = float_mask_dropout(x.data.shape, p, rng, x.data.dtype)
    if mask is None:
        return x

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return T._make(x.data * mask, (x,), bwd)


def composed_feed_forward(x, ffn, hidden_dropout=None):
    """linear -> relu -> dropout -> linear, the dropout a float-mask node."""
    hidden = T.relu(T.linear(x, ffn.w1, ffn.b1))
    if hidden_dropout is not None:
        hidden = mask_dropout(hidden, *hidden_dropout)
    return T.linear(hidden, ffn.w2, ffn.b2)


@contextmanager
def float_mask_sites():
    """A context in which every package dropout site multiplies by the float
    mask: `dropout_mask` hands out (float mask, None) and `apply_dropout`
    multiplies by the mask alone, so each site computes x * mask where it
    computes x * keep * scale. The rng stream is untouched. The rest of each
    node runs the same either way; the composed forms check that part."""

    def mask_kernel(shape, p, rng, dtype):
        mask = float_mask_dropout(shape, p, rng, dtype)
        return None if mask is None else (mask, None)

    def multiply(x, mask, scale, **multiply_kw):
        return np.multiply(x, mask, **multiply_kw)

    with mock.patch.object(T, "dropout_mask", mask_kernel):
        with mock.patch.object(T, "apply_dropout", multiply):
            yield


# ------------------------------------------------------ graph memory


def _buffer(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def graph_bytes(loss):
    """Bytes held by the interior nodes of the graph under `loss`: the unique
    base buffers of their data and of the arrays in their backward closures'
    cells, directly or in a tuple. Leaves' data, and arrays whose base it
    is, are not counted. Returns (bytes, [(cell name, array), ...])."""
    leaves, interior, seen, stack = set(), [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward_fn is None:
            leaves.add(id(_buffer(node.data)))
        else:
            interior.append(node)
        stack.extend(node._parents)
    held, cells = {}, []
    for node in interior:
        arrays = [node.data]
        fn = node._backward_fn
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
            try:
                value = cell.cell_contents
            except ValueError:  # a cell never assigned
                continue
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    arrays.append(item)
                    cells.append((name, item))
        for arr in arrays:
            base = _buffer(arr)
            if id(base) not in leaves:
                held[id(base)] = base.nbytes
    return sum(held.values()), cells


# ------------------------------------------- composed graph forms of Eq. 1-4


def _graph_sigmoid(x):
    data = T.sigmoid_array(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * data * (1.0 - data))

    return T._make(data, (x,), bwd)


def _graph_causal_conv(s, w):
    """out[..., t, c] = sum_j w[..., j, c] * s[..., t - j, c], zero-padded on
    the left; a kernel (n, F, d) convolves each slice s[i] of an input
    (n, ..., T, d) with its own (F, d) kernel."""
    heads = w.data.shape[:-2]
    taps, channels = w.data.shape[-2:]
    t_len = s.data.shape[-2]
    kern = np.moveaxis(w.data, -2, 0).reshape(
        (taps,) + heads + (1,) * (s.data.ndim - 1 - len(heads)) + (channels,)
    )
    data = np.zeros_like(s.data)
    for j in range(min(taps, t_len)):
        data[..., j:, :] += kern[j] * s.data[..., : t_len - j, :]

    def bwd(g):
        if s.requires_grad:
            gs = np.zeros_like(s.data)
            for j in range(min(taps, t_len)):
                gs[..., : t_len - j, :] += kern[j] * g[..., j:, :]
            s._accumulate(gs)
        if w.requires_grad:
            gw = np.zeros_like(w.data)
            summed = tuple(range(len(heads), g.ndim - 1))
            for j in range(min(taps, t_len)):
                gw[..., j, :] = (g[..., j:, :] * s.data[..., : t_len - j, :]).sum(axis=summed)
            w._accumulate(gw)

    return T._make(data, (s, w), bwd)


def _graph_layer_norm(x, gamma, beta, eps):
    """Layer norm as a node of its own, its backward through `ndarray.mean`."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    inv_std = 1.0 / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + eps)
    xhat = centered * inv_std
    data = gamma.data * xhat + beta.data

    def bwd(g):
        reduce_axes = tuple(range(g.ndim - 1))
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=reduce_axes))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=reduce_axes))
        if x.requires_grad:
            gx_hat = g * gamma.data
            m1 = gx_hat.mean(axis=-1, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv_std * (gx_hat - m1 - xhat * m2))

    return T._make(data, (x, gamma, beta), bwd)


def composed_sublayer(x, out, gamma, beta, dropout=None, eps=1e-5):
    """LN(x + dropout(out)) as three nodes."""
    x = T.add(x, out if dropout is None else T.dropout(out, *dropout))
    return _graph_layer_norm(x, gamma, beta, eps)


def composed_attention(q, k, v, causal=False, attn_dropout=None):
    """Eq. 1 composed: softmax(q k^T / sqrt(d_k)) v, dropout on the weights."""
    d_k = q.shape[-1]
    k_t = transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scores = T.mul(T.matmul(q, k_t), 1.0 / math.sqrt(d_k))
    if causal:
        scores = masked_fill(scores, np.tril(np.ones((q.shape[-2],) * 2, bool)), -np.inf)
    weights = softmax(scores, axis=-1)
    if attn_dropout is not None:
        weights = T.dropout(weights, *attn_dropout)
    return T.matmul(weights, v)


def _composed_head_columns(w):
    """Head-stacked (n, d, w) weights as the (d, n * w) projection, two nodes."""
    n, d, width = w.shape
    return reshape(transpose(w, (1, 0, 2)), (d, n * width))


def _split_heads(x, n):
    """(..., T, n * w) -> (n, ..., T, w), two nodes."""
    x = reshape(x, x.shape[:-1] + (n, x.shape[-1] // n))
    nd = x.ndim
    return transpose(x, (nd - 2,) + tuple(range(nd - 2)) + (nd - 1,))


def _merge_heads(x):
    """(n, ..., T, w) -> (..., T, n * w), the inverse of `_split_heads`."""
    nd = x.ndim
    x = transpose(x, tuple(range(1, nd - 1)) + (0, nd - 1))
    return reshape(x, x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def composed_dot_product_family(query_seq, key_seq, params, causal=False, attn_dropout=None):
    """The dot-product heads with every head-layout step a graph node."""
    n = params.w_q.shape[0]
    q = _split_heads(T.matmul(query_seq, _composed_head_columns(params.w_q)), n)
    k = _split_heads(T.matmul(key_seq, _composed_head_columns(params.w_k)), n)
    v = _split_heads(T.matmul(key_seq, _composed_head_columns(params.w_v)), n)
    return _merge_heads(A.scaled_dot_product_attention(q, k, v, causal, attn_dropout))


def local_conv(s, params, kernel_dropconnect=None):
    """Eq. 2 composed: the causal convolution with the softmaxed kernel."""
    kernel = softmax(params.w_a, axis=-2)
    if kernel_dropconnect is not None:
        kernel = T.dropout(kernel, *kernel_dropconnect)
    return _graph_causal_conv(s, kernel)


def adaptive_query(s, params, causal=False):
    """Eq. 3 composed: one (..., d_h) context vector, or one per prefix
    (..., T, d_h) when causal. Head-stacked params take s as (n, ..., T, d_h)."""
    heads = params.w_s.shape[:-2]
    d_h = params.w_s.shape[-1]
    rows = reshape(s, heads + (-1, d_h))
    proj = reshape(T.matmul(rows, params.w_s), s.shape)
    scores = reshape(
        T.matmul(rows, reshape(params.w_q, heads + (d_h, 1))), s.shape[:-1] + (1,)
    )
    if not causal:
        return T.tsum(T.mul(proj, softmax(scores, axis=-2)), axis=-2)
    t_len = s.shape[-2]
    rows = transpose(scores, tuple(range(scores.ndim - 2)) + (scores.ndim - 1, scores.ndim - 2))
    masked = masked_fill(rows, np.tril(np.ones((t_len, t_len), bool)), -np.inf)
    return T.matmul(softmax(masked, axis=-1), proj)


def composed_conv_head(s_proj, params, causal=False, kernel_dropconnect=None):
    """Eq. 2-4 composed, with the signature of `attention.dynamic_conv_head`:
    s_proj (..., T, n * d_h), head j in block j."""
    n = params.w_a.shape[0] if params.w_a.ndim == 3 else 1
    d_h = params.w_a.shape[-1]
    s = s_proj
    if params.w_a.ndim == 3:  # (..., T, n * d_h) -> (n, ..., T, d_h)
        s = reshape(s, s.shape[:-1] + (n, d_h))
        s = transpose(s, (s.ndim - 2,) + tuple(range(s.ndim - 2)) + (s.ndim - 1,))
    local = local_conv(s, params, kernel_dropconnect)
    query = adaptive_query(s, params, causal)
    if not causal:
        query = reshape(query, query.shape[:-1] + (1, d_h))
    score = T.mul(T.tsum(T.mul(local, query), axis=-1, keepdims=True), 1.0 / math.sqrt(d_h))
    out = T.mul(_graph_sigmoid(score), local)
    if params.w_a.ndim == 3:  # back to (..., T, n * d_h)
        out = transpose(out, tuple(range(1, out.ndim - 1)) + (0, out.ndim - 1))
        out = reshape(out, out.shape[:-2] + (n * d_h,))
    return out


def dot_heads(params):
    """(w_q, w_k, w_v) arrays of each head of a head-stacked bundle."""
    return list(zip(params.w_q.data, params.w_k.data, params.w_v.data))


def conv_heads(params):
    """(w_in, w_a, w_s, w_q) arrays of each conv head; none if it has none."""
    if params.conv is None:
        return []
    c = params.conv
    return list(zip(c.w_in.data, c.w_a.data, c.w_s.data, c.w_q.data))


def multi_head_oracle(x, params, causal=False):
    t_len = x.shape[0]
    mask = np.tril(np.ones((t_len, t_len), dtype=bool)) if causal else None
    outs = []
    for w_q, w_k, w_v in dot_heads(params):
        outs.append(sdpa_oracle(x @ w_q, x @ w_k, x @ w_v, mask))
    for w_in, w_a, w_s, w_q in conv_heads(params):
        outs.append(
            dynamic_head_oracle(x @ w_in, w_a, w_s, w_q, causal)
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
    attn = multi_head_oracle(y, layer.mha, causal=True)
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


# ------------------------------------------------------- synthetic corpus


def translate_tokens(src_words):
    """The reference translation: map every token, verb to the end."""
    mapped, verbs = [], []
    for w in src_words:
        if D.SOURCE_LEXICON[w][0] == "VERB":
            verbs.append(D.TARGET_OF[w])
        else:
            mapped.append(D.TARGET_OF[w])
    return mapped + verbs


def format_record(src_words, tgt_words, pos_names, ner_names):
    return " ||| ".join(" ".join(part) for part in (src_words, tgt_words, pos_names, ner_names))


def _sample_noun_phrase(rng):
    words = [D.DETERMINERS[rng.integers(len(D.DETERMINERS))]]
    if rng.random() < 0.55:
        words.append(D.ADJECTIVES[rng.integers(len(D.ADJECTIVES))])
    roll = rng.random()
    if roll < 0.5:
        words.append(D.NOUNS[rng.integers(len(D.NOUNS))])
    elif roll < 0.75:
        words.append(D.PERSONS[rng.integers(len(D.PERSONS))])
    else:
        words.append(D.LOCATIONS[rng.integers(len(D.LOCATIONS))])
    return words


def sample_sentence(rng):
    words = _sample_noun_phrase(rng)
    words.append(D.VERBS[rng.integers(len(D.VERBS))])
    if rng.random() < 0.4:
        words.append(D.ADVERBS[rng.integers(len(D.ADVERBS))])
    words.extend(_sample_noun_phrase(rng))
    return words


def generate_corpus_oracle(grammar_seed, n_pairs, max_len=12):
    """`generate_corpus` with one scalar Generator call per draw."""
    rng = np.random.default_rng((grammar_seed, 0x5EED))
    src_vocab, tgt_vocab = D.source_vocabulary(), D.target_vocabulary()
    pairs, lines = [], []
    for _ in range(n_pairs):
        src_words = sample_sentence(rng)
        while len(src_words) > max_len:
            src_words = sample_sentence(rng)
        tgt_words = translate_tokens(src_words)
        pos_names = [D.SOURCE_LEXICON[w][0] for w in src_words]
        ner_names = [D.SOURCE_LEXICON[w][1] for w in src_words]
        pairs.append(
            D.TaggedPair(
                src_vocab.encode(src_words),
                tgt_vocab.encode(tgt_words),
                *D.tag_ids(src_words, pos_names, ner_names),
            )
        )
        lines.append(format_record(src_words, tgt_words, pos_names, ner_names))
    return pairs, lines
