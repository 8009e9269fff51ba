"""Token ids outside a tokenizer's vocabulary are refused, never wrapped."""

import json

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from json_time_series_extractor_ray.corpus import texts_to_corpus_table
from json_time_series_extractor_ray.stages.extract import ExtractSamplesStage
from json_time_series_extractor_ray.tokenizer import BpeTokenizer

TEXT = '{"v":1}'


@pytest.fixture(scope="module")
def bpe():
    return BpeTokenizer()


def _column(rows):
    return pa.array(rows, pa.list_(pa.int32()))


@pytest.mark.parametrize("bad", ["negative", "vocab_size"])
def test_bpe_id_outside_the_vocab_is_refused(bpe, bad):
    """-1 would index the last vocab entry and ``vocab_size`` one past
    it: ``decode`` and ``decode_batch`` raise ``ValueError``, and
    ``on_error="skip"`` yields ``None`` for that row only."""
    ids = bpe.encode(TEXT)
    planted = ids + [-1 if bad == "negative" else bpe.vocab_size]
    with pytest.raises(ValueError, match="outside"):
        bpe.decode(planted)
    col = _column([ids, planted, ids])
    with pytest.raises(ValueError, match="row 1"):
        bpe.decode_batch(col)
    assert bpe.decode_batch(col, on_error="skip") == [TEXT, None, TEXT]
    # a sliced column counts its rows from the slice
    assert bpe.decode_batch(col.slice(1), on_error="skip") == [None, TEXT]


def test_bpe_invalid_utf8_is_still_skipped(bpe):
    """A byte id that is in the vocabulary but not valid UTF-8 keeps its
    old handling: raised, or skipped with ``on_error="skip"``."""
    col = _column([bpe.encode(TEXT), [0xFF]])
    with pytest.raises(UnicodeDecodeError):
        bpe.decode_batch(col)
    assert bpe.decode_batch(col, on_error="skip") == [TEXT, None]


@pytest.mark.parametrize("shred", [True, False])
def test_extract_stage_skips_a_doc_with_an_id_outside_the_vocab(shred):
    """Through ``ExtractSamplesStage`` with the BPE tokenizer, a doc
    holding -1 fails the batch under ``on_error="raise"`` and is the one
    doc skipped under ``"skip"``, with the samples of the other docs."""
    texts = [json.dumps({"time": f"2024-01-01T00:00:0{i}.000000Z",
                         "v": 10 + i}) for i in range(3)]
    corpus = texts_to_corpus_table(["d0", "d1", "d2"], texts, ["t"] * 3,
                                   "bpe")
    tokens = corpus.column("tokens").to_pylist()
    tokens[1] = tokens[1] + [-1]
    corpus = corpus.set_column(1, "tokens", _column(tokens))

    def stage(**kw):
        return ExtractSamplesStage(dict(recursive=True), tokenizer="bpe",
                                   fallback_now_ns=0, shred=shred, **kw)

    with pytest.raises(ValueError, match="outside"):
        stage()(corpus)
    skipping = stage(on_error="skip")
    out = skipping(corpus)
    assert skipping.skipped_docs == 1
    assert sorted(set(out.column("doc_id").to_pylist())) == ["d0", "d2"]
    assert out.equals(stage()(corpus.filter(pc.field("doc_id") != "d1")))
