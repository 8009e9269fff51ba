"""Shredded (Arrow-vectorized) extraction must be byte-identical to the
per-document traversal on everything it accepts, and must FALL BACK (not
mis-emit) on the semantic hazards it cannot prove."""

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from json_time_series_extractor_ray.corpus import (
    iot_corpus_table,
    render_iot_block,
    texts_to_corpus_table,
)
from json_time_series_extractor_ray.stages.extract import (
    SAMPLE_SCHEMA,
    ExtractSamplesStage,
)
from json_time_series_extractor_ray.stages.rollup import rollup_oracle
from json_time_series_extractor_ray.stages.shred import _ndjson, try_shred_batch
from json_time_series_extractor_ray.tokenizer import _tokens_to_numpy


def _canon(tbl: pa.Table) -> pa.Table:
    """Physical row order is not semantic (the shred path emits
    leaf-major); compare on (doc_id, sample_ordinal) order."""
    idx = pc.sort_indices(
        tbl, sort_keys=[("doc_id", "ascending"),
                        ("sample_ordinal", "ascending")]
    )
    return tbl.take(idx).combine_chunks()


def _shreds(texts, opts=None) -> bool:
    """Whether the shredded kernel accepts the batch (no fallback), fed
    the way the stage feeds it: the utf8 token bytes."""
    opts = opts or dict(recursive=True, allow_nested_timestamps=True)
    tbl = texts_to_corpus_table(
        [f"d{i:04d}" for i in range(len(texts))], texts, ["t"] * len(texts)
    )
    stage = ExtractSamplesStage(dict(opts), fallback_now_ns=7)
    return stage.shred and try_shred_batch(
        None, stage.plan, None, 7, tbl.column("doc_id"), SAMPLE_SCHEMA,
        raw_utf8=_tokens_to_numpy(tbl.column("tokens")),
    ) is not None


def _both(texts, opts=None, **kw):
    opts = opts or dict(recursive=True, allow_nested_timestamps=True)
    tbl = texts_to_corpus_table(
        [f"d{i:04d}" for i in range(len(texts))], texts, ["t"] * len(texts)
    )
    slow = ExtractSamplesStage(dict(opts), fallback_now_ns=7, shred=False, **kw)
    fast = ExtractSamplesStage(dict(opts), fallback_now_ns=7, shred=True, **kw)
    return _canon(slow(tbl)), _canon(fast(tbl)), fast


class TestShredEquivalence:
    def test_iot_corpus_mixed_shapes(self):
        _, texts, _ = render_iot_block(1)
        a, b, stage = _both(texts[:2048])
        assert stage.shred
        assert a.equals(b)

    def test_nested_timestamps_off(self):
        _, texts, _ = render_iot_block(2)
        a, b, _ = _both(
            texts[:512], dict(recursive=True, allow_nested_timestamps=False)
        )
        assert a.equals(b)

    def test_values_and_types(self):
        texts = [
            json.dumps(d, separators=(",", ":"))
            for d in [
                {"time": "2024-01-01T00:00:00.000001Z", "a": 1, "b": 2.5,
                 "c": "x", "d": True, "e": False},
                {"time": "2024-01-01T00:00:00.000002Z", "a": -7, "b": 1e-9,
                 "c": "", "d": False, "e": True},
            ]
        ]
        a, b, _ = _both(texts)
        assert a.equals(b)

    def test_missing_fields_and_no_timestamp(self):
        # mixed shapes; one doc has no /time -> fallback ts + CURRENT_TIME
        texts = [
            '{"time":"2024-01-01T00:00:01.000000Z","v":1.5}',
            '{"v":2.5,"w":"only here"}',
            '{"time":"2024-01-01T00:00:03.000000Z","w":"x"}',
        ]
        a, b, _ = _both(texts)
        assert a.equals(b)

    def test_list_of_scalars_and_struct(self):
        texts = [
            '{"time":"2024-01-01T00:00:01.000000Z","l":[1,2,3],'
            '"o":{"p":1.5,"q":"s"}}',
            '{"time":"2024-01-01T00:00:02.000000Z","l":[4],'
            '"o":{"p":2.5,"q":"t"}}',
        ]
        a, b, _ = _both(texts)
        assert a.equals(b)

    def test_variable_list_lengths_and_empty(self):
        texts = [
            '{"time":"2024-01-01T00:00:01.000000Z","data":'
            '[{"time":"2024-01-01T00:00:01.500000Z","v":1.0}],"z":9}',
            '{"time":"2024-01-01T00:00:02.000000Z","data":[],"z":8}',
            '{"time":"2024-01-01T00:00:03.000000Z","data":'
            '[{"time":"2024-01-01T00:00:03.100000Z","v":2.0},'
            '{"time":"2024-01-01T00:00:03.200000Z","v":3.0}],"z":7}',
        ]
        a, b, _ = _both(texts)
        assert a.equals(b)

    def test_seven_digit_fraction_and_offset(self):
        texts = [
            '{"time":"2024-01-01T12:34:56.1234567Z","v":1}',
            '{"time":"2024-01-01T01:00:00+02:00","v":2}',
        ]
        a, b, _ = _both(texts)
        assert a.equals(b)

    def test_custom_path_separator(self):
        texts = ['{"time":"2024-01-01T00:00:01.000000Z","o":{"p":1.5}}']
        a, b, _ = _both(
            texts,
            dict(recursive=True, allow_nested_timestamps=True,
                 path_separator="."),
        )
        assert a.equals(b)
        assert a.column("series_key").to_pylist() == ["o.p"]


class TestShredFallback:
    """Hazards must take the traversal path (outputs still equal because
    the traversal is authoritative on both sides of each assert)."""

    def _fallback_equal(self, texts, opts=None):
        a, b, _ = _both(texts, opts)
        assert a.equals(b)  # fallback produced traversal output
        return a

    def test_explicit_null_value(self):
        # null vs absent: shred must not guess -> traversal emits NULL kind
        out = self._fallback_equal(
            [
                '{"time":"2024-01-01T00:00:01.000000Z","v":null}',
                '{"time":"2024-01-01T00:00:02.000000Z","v":3.5}',
            ]
        )
        kinds = out.column("value_kind").to_pylist()
        assert 0 in kinds  # NULL-kind sample survived end-to-end

    def test_invalid_timestamp_string(self):
        # unparseable /time -> fallback ts AND the time leaf is emitted
        out = self._fallback_equal(
            ['{"time":"not-a-time","v":1.5}']
        )
        assert "time" in out.column("series_key").to_pylist()

    def test_type_conflict_across_docs(self):
        self._fallback_equal(
            [
                '{"time":"2024-01-01T00:00:01.000000Z","v":1}',
                '{"time":"2024-01-01T00:00:02.000000Z","v":"s"}',
            ]
        )

    def test_root_array_unrolls(self):
        self._fallback_equal(
            ['[{"time":"2024-01-01T00:00:01.000000Z","v":1},'
             '{"time":"2024-01-01T00:00:02.000000Z","v":2}]']
        )

    def test_list_of_lists(self):
        self._fallback_equal(
            ['{"time":"2024-01-01T00:00:01.000000Z","m":[[1,2],[3]]}']
        )

    def test_options_outside_envelope_disable_shred(self):
        stage = ExtractSamplesStage(
            dict(recursive=True, include=["/v"]), fallback_now_ns=0
        )
        assert not stage.shred
        stage3 = ExtractSamplesStage(
            dict(recursive=False), fallback_now_ns=0
        )
        assert not stage3.shred

    def test_document_property_template_shreds(self):
        texts = [
            '{"time":"2024-01-01T00:00:01.000000Z","type":"a","v":1.5}',
            '{"time":"2024-01-01T00:00:02.000000Z","type":"b","v":2.5,'
            '"o":{"w":1}}',
        ]
        opts = dict(recursive=True, template="{type}/{$prop}")
        a, b, stage = _both(texts, opts)
        assert stage.shred
        assert _shreds(texts, opts)
        assert a.equals(b)
        assert a.column("series_key").to_pylist() == [
            "a/type", "a/v", "b/type", "b/v", "b/o/w"]

    def test_unix_ms_integer_timestamps(self):
        a, b, _ = _both(
            ['{"time":1646312969367,"v":1.5}',
             '{"time":1646312969368,"v":2.5}']
        )
        assert a.equals(b)


class TestShredRandomized:
    def test_random_mixed_corpus(self):
        rng = np.random.default_rng(5)
        texts = []
        for i in range(400):
            shape = rng.integers(0, 4)
            base = {"time": f"2024-01-0{1 + i % 9}T00:{i % 60:02d}:"
                            f"{(i * 7) % 60:02d}.{i % 1000000:06d}Z"}
            if shape == 0:
                base.update({"v": float(np.round(rng.random() * 100, 3))})
            elif shape == 1:
                base.update({"s": f"str-{i}", "flag": bool(i % 2)})
            elif shape == 2:
                base.update({
                    "data": [
                        {"time": f"2024-01-01T01:{j % 60:02d}:00.000000Z",
                         "t": float(j), "h": float(j) / 3.0}
                        for j in range(int(rng.integers(0, 5)))
                    ]
                })
            else:
                base.update({"o": {"x": int(rng.integers(0, 9)),
                                   "y": "deep"}})
            texts.append(json.dumps(base, separators=(",", ":")))
        a, b, _ = _both(texts)
        assert a.equals(b)
        assert a.num_rows > 400


class TestWhitespaceBeforeColon:
    def test_null_with_space_before_colon_falls_back(self):
        # Legal JSON whitespace around the key: a plain-substring presence
        # proof missed '"v" :null' and silently dropped the NULL-kind
        # sample; the regex proof must force the traversal fallback (or
        # agree byte-for-byte).
        texts = [
            '{"time":"2024-01-01T00:00:01.000000Z","v" :null}',
            '{"time":"2024-01-01T00:00:02.000000Z","v": 5}',
            '{"time":"2024-01-01T00:00:03.000000Z"}',
        ]
        slow, fast, _ = _both(texts)
        assert slow.equals(fast)

    def test_newline_before_colon(self):
        texts = [
            '{"time":"2024-01-01T00:00:01.000000Z","v"\n:null}',
            '{"time":"2024-01-01T00:00:02.000000Z","v":1}',
        ]
        slow, fast, _ = _both(texts)
        assert slow.equals(fast)

    def test_unicode_escaped_key_falls_back(self):
        # '"v"' decodes to key 'v' but never matches the raw-text
        # regex — any \u doc must take the traversal
        texts = [
            '{"time":"2024-01-01T00:00:01.000000Z","\\u0076":null}',
            '{"time":"2024-01-01T00:00:02.000000Z","v":5}',
        ]
        slow, fast, _ = _both(texts)
        assert slow.equals(fast)


def _dumps(docs):
    return [json.dumps(d, separators=(",", ":")) for d in docs]


class TestShredTemplates:
    """Key templates of literals, ``$prop`` forms and top-level string
    placeholders run on the shredded kernel with the traversal's keys."""

    IOT = dict(recursive=True, allow_nested_timestamps=True)

    @pytest.mark.parametrize("template", [
        "{device}/{$prop}",
        "{$prop-local}",
        "{$prop-path}",
        "site/{device}/{$prop-path}:{$prop-local}",
        "constant-key",
        "{device}",
    ])
    def test_iot_templates(self, template):
        _, texts, _ = render_iot_block(3, cfg={"n_devices": 1000})
        opts = dict(self.IOT, template=template)
        a, b, stage = _both(texts[:1024], opts)
        assert stage.shred
        assert _shreds(texts[:1024], opts)
        assert a.equals(b)

    def test_custom_path_separator_in_templates(self):
        texts = _dumps([
            {"time": "2024-01-01T00:00:01.000000Z", "dev": "d1",
             "o": {"p": 1.5, "l": [{"q": 2}, {"q": 3}]}},
        ])
        opts = dict(recursive=True, path_separator=".",
                    template="{dev}|{$prop-path}|{$prop}")
        a, b, _ = _both(texts, opts)
        assert _shreds(texts, opts)
        assert a.equals(b)
        assert a.column("series_key").to_pylist() == [
            "d1||dev", "d1|o|o.p", "d1|o.l.0|o.l.0.q", "d1|o.l.1|o.l.1.q"]

    def test_conformance_device_sample_recursive(self):
        from tests.test_extractor_conformance import DEVICE_SAMPLE

        texts = _dumps([DEVICE_SAMPLE, dict(DEVICE_SAMPLE, MacAddress="x")])
        opts = dict(recursive=True, timestamp_property="/Timestamp",
                    template="tc/{MacAddress}/{$prop}")
        a, b, _ = _both(texts, opts)
        assert _shreds(texts, opts)
        assert a.equals(b)
        assert a.column("series_key")[0].as_py() == (
            "tc/AB:CD:EF:01:23:45/SignalStrength")

    def test_placeholder_also_named_below_the_root_falls_back(self):
        # every element carries a nested 'time', so the traversal joins
        # the root's and the element's values; no level has two sample
        # fields here, so only the placeholder proof can refuse the batch
        texts = _dumps([
            {"time": "2024-01-01T00:00:01.000000Z",
             "data": [{"time": "2024-01-01T00:00:01.500000Z", "v": 1.0}]},
        ])
        opts = dict(recursive=True, allow_nested_timestamps=True,
                    template="{time}/{$prop}")
        assert not _shreds(texts, opts)
        a, b, _ = _both(texts, opts)
        assert a.equals(b)
        assert a.column("series_key").to_pylist() == [
            "2024-01-01T00:00:01.000000Z/2024-01-01T00:00:01.500000Z/"
            "data/0/v"]

    def test_placeholder_named_like_the_timestamp(self):
        texts = _dumps([{"time": "2024-01-01T00:00:01.000000Z", "v": 1},
                        {"time": "2024-01-01T00:00:02.000000Z", "v": 2}])
        opts = dict(recursive=True, template="{time}/{$prop}")
        a, b, _ = _both(texts, opts)
        assert _shreds(texts, opts)
        assert a.equals(b)
        assert a.column("series_key").to_pylist() == [
            "2024-01-01T00:00:01.000000Z/v", "2024-01-01T00:00:02.000000Z/v"]


#: A placeholder value the gather may not stand in for: each makes the
#: traversal render raw JSON text, drop or replace the sample, or join
#: values from two depths.
_PLACEHOLDER_VALUES = st.one_of(
    st.text(alphabet="abcxyz-01", min_size=0, max_size=4),
    st.sampled_from(["<missing>", None, 7, -1.5, True, False, {"k": "v"},
                     [1, "a"]]),
)


class TestPlaceholderProof:
    @settings(max_examples=100, deadline=None)
    @example(["ab", "<missing>"], [None] * 4, True)  # missing
    @example(["ab", "<missing>"], [None] * 4, False)
    @example(["ab", None], [None] * 4, True)  # null
    @example(["ab", 7], [None] * 4, True)  # numeric
    @example([True, False], [None] * 4, True)  # bool
    @example(["ab", "cd"], ["alone"] * 4, True)  # nested below the root
    @example(["ab", "cd"], ["obj", None, None, None], True)  # two depths
    @example(["ab", "cd"], [None] * 4, True)  # proven
    @given(
        values=st.lists(_PLACEHOLDER_VALUES, min_size=1, max_size=4),
        nested=st.lists(st.sampled_from([None, "obj", "list", "alone"]),
                        min_size=4, max_size=4),
        allow_unresolved=st.booleans(),
    )
    def test_gather_only_under_the_proof(self, values, nested,
                                         allow_unresolved):
        docs = []
        for i, (value, where) in enumerate(zip(values, nested)):
            doc = {"time": f"2024-01-01T00:00:0{i}.000000Z", "v": float(i),
                   "o": {"w": 1.0}, "l": [{"w": 2.0}]}
            if value != "<missing>":
                doc["dev"] = value
            if where == "obj":
                doc["o"]["dev"] = "inner"
            elif where == "list":
                doc["l"][0]["dev"] = "inner"
            elif where == "alone":  # the only key of its object
                doc["o"] = {"dev": "inner"}
            docs.append(doc)
        texts = _dumps(docs)
        opts = dict(recursive=True, template="{dev}/{$prop}",
                    allow_unresolved_template_replacements=allow_unresolved)
        proven = (all(isinstance(d.get("dev"), str) for d in docs)
                  and all(w is None for w in nested[:len(docs)]))
        a, b, _ = _both(texts, opts)
        assert a.equals(b)
        assert _shreds(texts, opts) == proven


class TestKeyOrder:
    """Samples are numbered in the batch schema's key order, so a
    document with another key order must take the traversal."""

    def test_swapped_top_level_keys(self):
        texts = _dumps([
            {"time": "2024-01-01T00:00:01.000000Z", "a": 1, "b": "x"},
            {"time": "2024-01-01T00:00:02.000000Z", "b": "y", "a": 2},
        ])
        assert not _shreds(texts)
        a, b, _ = _both(texts)
        assert a.equals(b)
        assert a.column("series_key").to_pylist() == ["a", "b", "b", "a"]

    def test_swapped_keys_inside_list_elements(self):
        texts = _dumps([
            {"time": "2024-01-01T00:00:01.000000Z",
             "data": [{"x": 1, "y": 2}, {"x": 3, "y": 4}]},
            {"time": "2024-01-01T00:00:02.000000Z",
             "data": [{"x": 5, "y": 6}, {"y": 7, "x": 8}]},
        ])
        assert not _shreds(texts)
        a, b, _ = _both(texts)
        assert a.equals(b)
        assert a.column("series_key").to_pylist()[-2:] == [
            "data/1/y", "data/1/x"]

    def test_key_text_inside_a_string_value(self):
        # the value spells '"a":' (escaped quotes); only real keys count
        swapped = _dumps([
            {"time": "2024-01-01T00:00:01.000000Z", "a": "p", "b": "q"},
            {"time": "2024-01-01T00:00:02.000000Z", "b": 'say "a": hi', "a": "r"},
        ])
        assert not _shreds(swapped)
        a, b, _ = _both(swapped)
        assert a.equals(b)
        in_order = _dumps([
            {"time": "2024-01-01T00:00:01.000000Z", "a": 'x "b":', "b": "q"},
            {"time": "2024-01-01T00:00:02.000000Z", "a": '"b":"a":', "b": "r"},
        ])
        assert _shreds(in_order)
        a, b, _ = _both(in_order)
        assert a.equals(b)

    def test_escaped_or_spaced_keys_fall_back(self):
        for texts in (
            ['{"time":"2024-01-01T00:00:01.000000Z","a":1,"b":2}',
             '{"time":"2024-01-01T00:00:02.000000Z","\\u0062":3,"a":4}'],
            ['{"time":"2024-01-01T00:00:01.000000Z","a":1,"b":2}',
             '{"time":"2024-01-01T00:00:02.000000Z","b" :3,"a":4}'],
        ):
            assert not _shreds(texts)
            a, b, _ = _both(texts)
            assert a.equals(b)

    def test_name_at_two_depths_falls_back(self):
        # 'time' is the root timestamp and, with nested timestamps off, a
        # sample key inside each element: its occurrences cannot be told
        # apart, so the element order is unproven
        _, texts, _ = render_iot_block(2)
        opts = dict(recursive=True, allow_nested_timestamps=False)
        assert not _shreds(texts[:256], opts)
        a, b, _ = _both(texts[:256], opts)
        assert a.equals(b)

    @pytest.mark.parametrize("template", [None, "{device}/{$prop}"])
    def test_iot_corpora_shred_every_batch(self, template):
        opts = dict(recursive=True, allow_nested_timestamps=True)
        if template:
            opts["template"] = template
        for seed, cfg in ((3, {"n_devices": 256}), (3, {"n_devices": 16}),
                          (42, None)):
            _, texts, _ = render_iot_block(0, seed=seed, cfg=cfg)
            for off in range(0, 2048, 320):
                assert _shreds(texts[off: off + 320], opts)

    def test_text_column_input(self):
        texts = _dumps([
            {"time": "2024-01-01T00:00:01.000000Z", "a": 1, "b": 2},
            {"time": "2024-01-01T00:00:02.000000Z", "b": 3, "a": 4},
        ])
        tbl = pa.table({"doc_id": ["d0", "d1"], "text": texts})
        kw = dict(text_column="text", fallback_now_ns=7)
        opts = dict(recursive=True)
        slow = ExtractSamplesStage(opts, shred=False, **kw)(tbl)
        fast = ExtractSamplesStage(opts, **kw)(tbl)
        assert _canon(slow).equals(_canon(fast))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.permutations(["a", "b", "c"]),
                              st.permutations(["x", "y"]),
                              st.integers(0, 2)),
                    min_size=1, max_size=5))
    def test_random_key_orders_match_the_traversal(self, shapes):
        docs = []
        for i, (top, elem, n_elems) in enumerate(shapes):
            doc = {"time": f"2024-01-01T00:00:0{i}.000000Z"}
            for k in top:
                doc[k] = ([{e: float(j) for e in elem}
                           for j in range(n_elems)] if k == "c" else k * 2)
            docs.append(doc)
        a, b, _ = _both(_dumps(docs))
        assert a.equals(b)


class TestHighCardinality:
    def test_hundred_thousand_device_keys(self):
        """8,192 docs over 100,000 devices: ~12k distinct series keys.
        Shredded and traversal samples, and the rollup oracle over each,
        are identical."""
        corpus = iot_corpus_table(8192, seed=3, cfg={"n_devices": 100_000})
        opts = dict(recursive=True, allow_nested_timestamps=True,
                    template="{device}/{$prop}")
        fast = ExtractSamplesStage(opts, fallback_now_ns=0)
        assert try_shred_batch(
            None, fast.plan, None, 0, corpus.column("doc_id"),
            SAMPLE_SCHEMA, raw_utf8=_tokens_to_numpy(corpus.column("tokens")),
        ) is not None
        shredded = _canon(fast(corpus))
        traversed = _canon(
            ExtractSamplesStage(opts, fallback_now_ns=0, shred=False)(corpus))
        assert shredded.equals(traversed)
        assert len(pc.unique(shredded.column("series_key"))) > 10_000
        rolled = rollup_oracle(shredded)
        assert len(rolled) > 0
        pd.testing.assert_frame_equal(rolled, rollup_oracle(traversed))


def _scatter_ndjson(data, offsets):
    """The NDJSON buffer as an index scatter: each doc's bytes at its
    offset plus its index, newlines in the gaps."""
    n_docs, base = len(offsets) - 1, int(offsets[0])
    lens = np.diff(offsets).astype(np.int64)
    total = int(offsets[-1]) - base
    buf = np.full(total + n_docs, 0x0A, np.uint8)
    pos = (np.arange(total, dtype=np.int64)
           + np.repeat(np.arange(n_docs, dtype=np.int64), lens))
    buf[pos] = data[base: base + total]
    return buf


class TestNdjsonBuffer:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 255), max_size=8), max_size=12),
           st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    def test_equals_the_scatter(self, docs, head, tail, n_chunks):
        """Empty docs, a sliced column (first offset not 0) and a chunked
        one (``n_chunks`` > 0): the buffer is the scatter's bytes, each
        doc then a newline."""
        col = pa.array(docs, pa.list_(pa.int32()))
        col = col.slice(min(head, len(docs)),
                        max(0, len(docs) - head - tail))
        if n_chunks:
            cuts = np.linspace(0, len(col), n_chunks + 1).astype(int)
            col = pa.chunked_array(
                [col.slice(a, b - a) for a, b in zip(cuts, cuts[1:])],
                pa.list_(pa.int32()))
        data, offsets = _tokens_to_numpy(col)
        if not n_chunks and head and len(col) and any(docs[:head]):
            assert offsets[0] > 0
        buf = _ndjson(data, offsets)
        assert buf.dtype == np.uint8
        assert buf.tobytes() == _scatter_ndjson(data, offsets).tobytes()
        assert buf.tobytes() == b"".join(
            bytes(d) + b"\n" for d in col.to_pylist())

    @pytest.mark.parametrize("bad", [256, 305, -1, -256])
    def test_a_token_outside_a_byte_is_refused(self, bad):
        offsets = np.array([0, 2, 3], np.int32)
        assert _ndjson(np.array([49, 50, 51], np.int32), offsets) is not None
        assert _ndjson(np.array([49, bad, 51], np.int32), offsets) is None


class TestTokenOutsideAByte:
    """A utf8 token id outside 0..255 is not a byte: 305 must not read as
    '1' (305 mod 256).  The doc is handled like invalid UTF-8 by both
    kernels: ``on_error="raise"`` raises, ``"skip"`` skips that doc."""

    def _corpus(self):
        texts = _dumps([{"time": f"2024-01-01T00:00:0{i}.000000Z",
                         "v": 10 + i} for i in range(3)])
        tbl = texts_to_corpus_table(["d0", "d1", "d2"], texts, ["t"] * 3)
        tokens = tbl.column("tokens").to_pylist()
        assert ord("1") in tokens[1]
        tokens[1] = [305 if t == ord("1") else t for t in tokens[1]]
        return tbl.set_column(1, "tokens",
                              pa.array(tokens, pa.list_(pa.int32())))

    @pytest.mark.parametrize("shred", [True, False])
    def test_raise(self, shred):
        stage = ExtractSamplesStage(
            dict(recursive=True), fallback_now_ns=0, shred=shred)
        assert stage.shred == shred
        with pytest.raises(ValueError):
            stage(self._corpus())

    @pytest.mark.parametrize("shred", [True, False])
    def test_skip(self, shred):
        corpus = self._corpus()
        stage = ExtractSamplesStage(
            dict(recursive=True), fallback_now_ns=0, shred=shred,
            on_error="skip")
        out = stage(corpus)
        assert stage.skipped_docs == 1
        assert sorted(set(out.column("doc_id").to_pylist())) == ["d0", "d2"]
        clean = ExtractSamplesStage(dict(recursive=True), fallback_now_ns=0,
                                    shred=shred)(corpus.filter(
                                        pc.field("doc_id") != "d1"))
        assert _canon(out).equals(_canon(clean))
