"""Reversible tokenization between JSON payload text and the mandated
``tokens: list<int32>`` column.

The driver-mandated physical input is a Parquet table of *pre-tokenized
training sequences* ``(doc_id: string, tokens: list<int32>, n_tok: int32,
source: string)`` (BASELINE.json ``input_hint``).  The engine's per-row
invariant is **token-array equality**: the token arrays ride through the
pipeline bit-for-bit; the payload text they detokenize to is what the
extraction kernel parses.

Two tokenizers, both exactly reversible:

* :class:`Utf8Tokenizer` — token id = UTF-8 byte value (vocab 256).  The
  default: decode of a whole Arrow batch is a single zero-copy numpy view +
  one C-level ``bytes.decode`` per row, so detokenization is never the hot
  stage.
* :class:`BpeTokenizer` — a deterministic greedy byte-pair encoder with a
  seeded merge table, closer in spirit to real training-data token streams.
  Decoding is a table lookup + concatenation (vectorized via per-id byte
  strings); encoding (corpus generation only) is the slow path.

Both expose the same interface: ``encode(text) -> list[int]``,
``decode_batch(list_array) -> list[str]`` where ``list_array`` is the Arrow
``ListArray``/``LargeListArray`` of one batch's ``tokens`` column.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _tokens_to_numpy(list_array):
    """Flatten an Arrow list<int32> column to (values, offsets) numpy arrays."""
    if isinstance(list_array, pa.ChunkedArray):
        list_array = list_array.combine_chunks()
    values = list_array.values.to_numpy(zero_copy_only=False)
    offsets = list_array.offsets.to_numpy(zero_copy_only=False)
    return values, offsets


class Utf8Tokenizer:
    """Token id == UTF-8 byte value.  Trivially and exactly reversible."""

    name = "utf8"
    vocab_size = 256

    def encode(self, text: str) -> list:
        return list(text.encode("utf-8"))

    def encode_to_numpy(self, text: str) -> np.ndarray:
        return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.int32)

    def decode(self, tokens) -> str:
        return bytes(bytearray(int(t) for t in tokens)).decode("utf-8")

    def decode_batch(self, list_array, on_error: str = "raise") -> list:
        """Decode a whole tokens column.  A row holding a token id outside
        0..255 (not a byte, as in ``decode``) or bytes that are not valid
        UTF-8 raises ``ValueError``; ``on_error='skip'`` yields ``None`` for
        it instead."""
        values, offsets = _tokens_to_numpy(list_array)
        ids = values[offsets[0]: offsets[-1]]
        ids = ids.view(f"u{ids.itemsize}")  # a negative id is above 255
        bad = set()
        if len(ids) and ids.max() > 255:
            over = np.concatenate([[0], np.cumsum(ids > 255)])
            ends = offsets - offsets[0]
            bad = set(np.flatnonzero(over[ends[1:]] > over[ends[:-1]]).tolist())
            if on_error == "raise":
                raise ValueError(
                    f"row {min(bad)} holds a token id outside 0..255")
        data = values.astype(np.uint8).tobytes()
        if on_error == "raise":
            return [
                data[offsets[i]: offsets[i + 1]].decode("utf-8")
                for i in range(len(offsets) - 1)
            ]
        out = []
        for i in range(len(offsets) - 1):
            try:
                out.append(None if i in bad else
                           data[offsets[i]: offsets[i + 1]].decode("utf-8"))
            except UnicodeDecodeError:
                out.append(None)
        return out


class BpeTokenizer:
    """Deterministic byte-pair encoder with a seeded merge table.

    The merge table is derived from a seeded RNG over frequent JSON-payload
    byte pairs (structural characters, digits, common fixture keys), so any
    two workers constructing ``BpeTokenizer(seed, n_merges)`` get the same
    vocabulary without shipping state.  Exact reversibility holds by
    construction: every token id maps to a fixed byte string and decoding is
    pure concatenation.
    """

    name = "bpe"

    _SAMPLE = (
        b'{"time":"2024-01-01T00:00:00.000000Z","data":[{"temperature":19.3,'
        b'"humidity":37.905,"pressure":1013.35}],"device":"Instrument-1",'
        b'"value":2047.5999999999995,"type":"purchase","user":123}'
    )

    def __init__(self, seed: int = 42, n_merges: int = 200):
        self.seed = seed
        self.n_merges = n_merges
        # id -> byte string; first 256 ids are raw bytes.
        self._id_to_bytes = [bytes([i]) for i in range(256)]
        self._merges = {}  # (id_a, id_b) -> merged_id
        self._train()
        self.vocab_size = len(self._id_to_bytes)

    def _train(self):
        rng = np.random.default_rng(self.seed)
        seq = list(self._SAMPLE) * 4
        for _ in range(self.n_merges):
            counts = {}
            for a, b in zip(seq, seq[1:]):
                counts[(a, b)] = counts.get((a, b), 0) + 1
            if not counts:
                break
            # Deterministic pick: highest count, ties broken by pair value,
            # with a seeded jitter so different seeds give different vocabs.
            items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            top_n = min(3, len(items))
            pair = items[int(rng.integers(0, top_n))][0]
            if pair in self._merges:
                continue
            new_id = len(self._id_to_bytes)
            self._merges[pair] = new_id
            self._id_to_bytes.append(
                self._id_to_bytes[pair[0]] + self._id_to_bytes[pair[1]]
            )
            out = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and (seq[i], seq[i + 1]) == pair:
                    out.append(new_id)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            seq = out

    def encode(self, text: str) -> list:
        seq = list(text.encode("utf-8"))
        merges = self._merges
        changed = True
        while changed:
            changed = False
            out = []
            i = 0
            n = len(seq)
            while i < n:
                if i + 1 < n and (seq[i], seq[i + 1]) in merges:
                    out.append(merges[(seq[i], seq[i + 1])])
                    i += 2
                    changed = True
                else:
                    out.append(seq[i])
                    i += 1
            seq = out
        return seq

    def decode(self, tokens) -> str:
        return self.decode_batch(pa.array([list(tokens)],
                                          pa.list_(pa.int32())))[0]

    def decode_batch(self, list_array, on_error: str = "raise") -> list:
        """Decode a whole tokens column.  A row holding an id outside the
        vocabulary (``0..vocab_size - 1``; a negative id would index from
        the end) or bytes that are not valid UTF-8 raises ``ValueError``;
        ``on_error='skip'`` yields ``None`` for it instead."""
        values, offsets = _tokens_to_numpy(list_array)
        table = self._id_to_bytes
        out = []
        for i in range(len(offsets) - 1):
            row = values[offsets[i]: offsets[i + 1]]
            try:
                if len(row) and not 0 <= row.min() <= row.max() < len(table):
                    raise ValueError(f"row {i} holds a token id outside "
                                     f"0..{len(table) - 1}")
                out.append(b"".join(table[t] for t in row).decode("utf-8"))
            except ValueError:  # UnicodeDecodeError is one
                if on_error == "raise":
                    raise
                out.append(None)
        return out


_TOKENIZERS = {"utf8": Utf8Tokenizer, "bpe": BpeTokenizer}


def get_tokenizer(spec="utf8"):
    """Resolve a tokenizer instance from a name, an instance, or a
    ``(name, kwargs)`` tuple."""
    if isinstance(spec, str):
        return _TOKENIZERS[spec]()
    if isinstance(spec, tuple):
        name, kwargs = spec
        return _TOKENIZERS[name](**kwargs)
    return spec
