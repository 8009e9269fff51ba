"""Arrow-native shredded extraction: the vectorized fast path.

Parses a whole batch of JSON payloads with ``pyarrow.json`` (one C++ pass)
and emits SAMPLE_SCHEMA columns with numpy/Arrow kernels — no per-node
Python in the hot path.  The per-document traversal in ``extractor.py``
remains the semantic ground truth (``TimeSeriesExtractor.cs:425-615``
document order, ``:923-938`` value coercion, timestamp consumption and
suppression); this module emits *identical* output on inputs it accepts
and returns ``None`` (caller falls back to the traversal) on anything it
cannot PROVE it handles identically.

Key templates are shredded part by part: literals and the ``{$prop}`` /
``{$prop-local}`` / ``{$prop-path}`` forms render once per distinct
pointer, and a document-property placeholder ``{name}`` is a gather of
the top-level ``name`` column by document, joined with the other parts by
one ``binary_join_element_wise``.

Fallback triggers — each pins a real semantic hazard:

* options outside the envelope (filters, start_at, no-index keys,
  non-recursive, custom timestamp parser / default-ts provider,
  multi-segment timestamp property);
* JSON parse errors, root arrays, reader schema-unification conflicts,
  duplicate keys;
* any null in a NESTED position: Arrow conflates JSON ``null`` with an
  absent key, but the reference treats them differently (absent emits
  nothing; explicit null emits a NULL-kind sample);
* a top-level column with nulls whose raw-text presence mask
  (``'"name":'`` substring per doc) disagrees with the parsed validity
  mask — when the masks agree elementwise, null <=> absent is proven and
  the ambiguity vanishes; any disagreement (explicit nulls, key text
  inside a string value, spaced separators) falls back;
* a ``{name}`` placeholder whose column is not a top-level string present
  and non-null in every doc, or whose name also names a field below the
  top level: numbers, bools and objects render as raw JSON text, a
  missing value drops or replaces the sample, and a name at two depths
  joins the values of every ancestor;
* documents whose object keys are not in the batch schema's order (see
  the key-order check below);
* timestamp values outside the strict ISO shape on which Arrow's cast and
  ``functions/timestamps.py`` are proven bit-identical (probe-verified:
  1-7 digit fractions, 'Z' and numeric offsets), or non-string/int types;
* reader-inferred exotic leaf types (timestamps, nested list-of-list),
  list indexes beyond the key-lookup bound, schema nesting at/over the
  depth limit (depth-limited containers coerce to JSON text — traversal
  territory).

Key order: Arrow's reader unions fields by first occurrence, and samples
are numbered in that schema order, so a document whose keys come in
another order would get permuted ``sample_ordinal`` values.  Every batch
is checked on its raw text (``_key_order_ok``): at each object level with
two or more sample-producing fields, every key name must name exactly one
field of the schema, its ``"name":`` spellings must be exactly as many as
its parsed instances (each spelling is then that key, never text inside
a string value), and within every object instance they must rise in
schema order.  Timestamp fields the kernel consumes are exempt, since
their position does not change the output.  Anything the check cannot
settle (a name at two levels, a key spelled with an escape, whitespace
before a colon) falls back.
"""

from __future__ import annotations

import functools
import io
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.json as paj

from ..extractor import ExtractionContext, _full_property_name, _property_path
from ..functions.timestamps import TimestampSource

#: ISO shapes proven bit-identical between Arrow's string->timestamp cast
#: and functions/timestamps.parse_iso_timestamp_ns (fraction 1-7 digits =
#: the reference's 100 ns resolution ceiling).
_ISO_STRICT_PATTERN = (
    r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(\.\d{1,7})?(Z|[+-]\d{2}:\d{2})$"
)

_MAX_LIST_INDEX = 65536

_SRC_DOC = np.int8(int(TimestampSource.DOCUMENT))
_SRC_NOW = np.int8(int(TimestampSource.CURRENT_TIME))

_POINTER_PLACEHOLDERS = ("$prop", "$prop-local", "$prop-path")
#: A key whose raw text holds an escape: its ``"name":`` spelling differs
#: from its name, so the key-order check cannot count it.
_ESCAPED_KEY = r'\\.(?:[^"\\]|\\.)*"\s*:'


class _Fallback(Exception):
    """Internal: input outside the proven envelope — use the traversal."""


def plan_is_shreddable(plan) -> bool:
    """Options envelope the vectorized program covers exactly: recursive
    mode with array indexes kept in keys, no filter, no start pointer, the
    built-in timestamp parsing of a single-segment property and a
    deterministic fallback.  Any key template qualifies; each batch then
    proves its ``{name}`` placeholders (``try_shred_batch``)."""
    o = plan.options
    return bool(
        plan.filter is None
        and o.recursive
        and o.include_array_indexes_in_sample_keys
        and plan.start_at is None
        and o.get_default_timestamp is None
        and o.timestamp_parser is None
        and (plan.timestamp_property is None or plan.ts_prop_single is not None)
    )


def _key_parts(plan) -> list:
    """The key template as ``("ptr", render)`` runs of literals and
    ``$prop`` forms (``render(pointer) -> str``) and ``("doc", name)``
    document-property placeholders, in template order."""
    tmpl = plan.template
    if tmpl.is_default:
        return [("ptr", plan.key_for_pointer)]
    if not tmpl.has_placeholders:
        return [("ptr", lambda ptr, text=plan.options.template: text)]
    ctx = ExtractionContext(plan)

    def render(ptr, run):
        return "".join(
            text if kind == "lit"
            else _property_path(ctx, ptr) if text == "$prop-path"
            else _full_property_name(ctx, ptr, text == "$prop-local")
            for kind, text in run
        )

    parts, run = [], []
    for kind, text in tmpl.segments + (("ph", None),):
        if kind == "lit" or text in _POINTER_PLACEHOLDERS:
            run.append((kind, text))
            continue
        if run:
            parts.append(("ptr", lambda ptr, run=tuple(run): render(ptr, run)))
            run = []
        if text is not None:
            parts.append(("doc", text))
    return parts


def _nested_names(typ, out: set) -> set:
    """Every field name below the top level of ``typ``."""
    if pa.types.is_struct(typ):
        for f in typ:
            out.add(f.name)
            _nested_names(f.type, out)
    elif pa.types.is_list(typ) or pa.types.is_large_list(typ):
        _nested_names(typ.value_type, out)
    return out


def _max_container_level(typ, level: int) -> int:
    """Deepest container level under ``typ`` (root children are level 1)."""
    if pa.types.is_struct(typ):
        sub = [_max_container_level(f.type, level + 1) for f in typ]
        return max([level] + sub)
    if pa.types.is_list(typ) or pa.types.is_large_list(typ):
        return max(level, _max_container_level(typ.value_type, level + 1))
    return 0


def _slots_per_element(typ, ts_name, allow_nested) -> int:
    """Sample slots one list element occupies (lists below a list element
    would make this runtime-variable -> fallback)."""
    if pa.types.is_list(typ) or pa.types.is_large_list(typ):
        raise _Fallback
    if pa.types.is_struct(typ):
        total = 0
        for f in typ:
            if allow_nested and f.name == ts_name:
                continue  # consumed as the element's timestamp
            total += _slots_per_element(f.type, ts_name, allow_nested)
        return total
    return 1


def _parse_ts_column(col: pa.Array) -> np.ndarray:
    """Strict-ISO string (or unix-ms int) column -> int64 ns, positionally
    (nulls produce 0 and must be masked by the caller)."""
    if pa.types.is_integer(col.type):
        return (
            pc.fill_null(col.cast(pa.int64()), 0).to_numpy(zero_copy_only=False)
            * 1_000_000
        )
    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
        raise _Fallback
    ok = pc.match_substring_regex(col, _ISO_STRICT_PATTERN)
    if not pc.all(pc.fill_null(ok, True)).as_py():
        raise _Fallback
    try:
        parsed = col.cast(pa.timestamp("ns", tz="UTC"))
    except pa.ArrowInvalid:
        raise _Fallback
    return pc.fill_null(parsed.cast(pa.int64()), 0).to_numpy(
        zero_copy_only=False
    )


class _Emitter:
    """Accumulates per-leaf sample fragments during the schema walk.

    Key context: a leaf's pointer is ``pre_ptr + (str(i),) + post_ptr``
    when under a list (``i`` = per-instance element index), else just
    ``post_ptr`` (``pre_ptr`` empty, ``elem_idx`` None).  Only ONE list
    dimension is supported — lists below a list element fall back.

    ``keys`` records, for the key-order check, each object field's name,
    level (None for a consumed timestamp) and the level instances that
    hold it (None: all).
    """

    def __init__(self, plan, ptr_parts):
        self.plan = plan
        self.ptr_parts = ptr_parts
        self.ts_name = plan.ts_prop_single
        self.allow_nested = plan.options.allow_nested_timestamps
        self.leaves: list[dict] = []
        self.keys: list[tuple] = []  # (name, level, instances)
        self.level_sizes: list[int] = []

    # -- leaf fragment ------------------------------------------------
    def _leaf(self, arr: pa.Array, doc_idx, ts, src, slot,
              pre_ptr, elem_idx, post_ptr):
        m = len(arr)
        if m == 0:
            return
        if arr.null_count:
            raise _Fallback  # nested null <=> absent ambiguity
        typ = arr.type
        rec = {"doc_idx": doc_idx, "slot": slot, "ts": ts, "src": src, "n": m}
        if elem_idx is None:
            ptrs = [pre_ptr + post_ptr]
            rec["key_idx"] = np.zeros(m, np.int32)
        else:
            max_i = int(elem_idx.max()) + 1
            ptrs = [pre_ptr + (str(i),) + post_ptr for i in range(max_i)]
            rec["key_idx"] = elem_idx.astype(np.int32)
        rec["key_lookup"] = [[render(p) for p in ptrs]
                             for render in self.ptr_parts]
        if pa.types.is_floating(typ):
            rec["num"] = arr.to_numpy(zero_copy_only=False)
            rec["kind"] = 1
        elif pa.types.is_integer(typ):
            rec["num"] = arr.cast(pa.int64()).to_numpy(
                zero_copy_only=False
            ).astype(np.float64)
            rec["kind"] = 1
        elif pa.types.is_string(typ) or pa.types.is_large_string(typ):
            rec["str"] = arr.cast(pa.string())
            rec["kind"] = 2
        elif pa.types.is_boolean(typ):
            rec["bool"] = arr
            rec["kind"] = 3
        else:
            raise _Fallback  # timestamp-inferred / decimal / exotic
        self.leaves.append(rec)

    # -- one object level ----------------------------------------------
    def emit_level(self, fields, doc_idx, ts, src, slot_base,
                   pre_ptr, elem_idx, post_ptr, top_level: bool) -> int:
        """``fields``: [(name, pa.Array)] over one instance set.  Nested
        levels require null-free children; the top level may carry nulls
        (pre-verified null <=> absent).  Returns slots consumed."""
        level = len(self.level_sizes)
        self.level_sizes.append(len(doc_idx))
        next_slot = 0
        for name, col in fields:
            if col.null_count:
                if not top_level:
                    raise _Fallback
                vmask = pc.is_valid(col).to_numpy(zero_copy_only=False)
                sub = col.drop_null()
                s_doc, s_ts, s_src = doc_idx[vmask], ts[vmask], src[vmask]
                s_base = slot_base[vmask]
                self.keys.append((name, level, np.flatnonzero(vmask)))
            else:
                sub, s_doc, s_ts, s_src, s_base = (col, doc_idx, ts, src,
                                                   slot_base)
                self.keys.append((name, level, None))
            typ = sub.type
            if pa.types.is_struct(typ):
                next_slot += self._emit_struct(
                    sub, s_doc, s_ts, s_src, s_base + next_slot,
                    pre_ptr, elem_idx, post_ptr + (name,),
                )
            elif pa.types.is_list(typ) or pa.types.is_large_list(typ):
                if elem_idx is not None:
                    raise _Fallback  # one list dimension only
                next_slot += self._emit_list(
                    sub, s_doc, s_ts, s_src, s_base + next_slot,
                    post_ptr + (name,),
                )
            else:
                self._leaf(sub, s_doc, s_ts, s_src, s_base + next_slot,
                           pre_ptr, elem_idx, post_ptr + (name,))
                next_slot += 1
        return next_slot

    def _emit_struct(self, arr, doc_idx, ts, src, slot_base,
                     pre_ptr, elem_idx, post_ptr) -> int:
        typ = arr.type
        names = [f.name for f in typ]
        cols = {n: arr.field(i) for i, n in enumerate(names)}
        # nested timestamp: consumed on ENTRY regardless of field position
        # (TimeSeriesExtractor.cs:546-571 pushes it before the field loop)
        if self.allow_nested and self.ts_name in cols:
            ts_col = cols.pop(self.ts_name)
            if ts_col.null_count:
                raise _Fallback  # absent-vs-null ambiguity below top level
            ts = _parse_ts_column(ts_col)
            src = np.full(len(arr), _SRC_DOC, np.int8)
            names = [n for n in names if n != self.ts_name]
            self.keys.append((self.ts_name, None, None))
        fields = [(n, cols[n]) for n in names]
        return self.emit_level(fields, doc_idx, ts, src, slot_base,
                               pre_ptr, elem_idx, post_ptr, top_level=False)

    def _emit_list(self, arr, doc_idx, ts, src, slot_base, list_ptr) -> int:
        per_elem = _slots_per_element(arr.type.value_type, self.ts_name,
                                      self.allow_nested)
        counts = pc.fill_null(
            pc.list_value_length(arr).cast(pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(arr)
        total = int(counts.sum())
        if total != len(flat):
            raise _Fallback
        if total == 0:
            return 0
        max_count = int(counts.max())
        if max_count > _MAX_LIST_INDEX:
            raise _Fallback
        e_doc = np.repeat(doc_idx, counts)
        e_ts = np.repeat(ts, counts)
        e_src = np.repeat(src, counts)
        starts = np.cumsum(counts) - counts
        e_idx = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        e_base = np.repeat(slot_base, counts) + e_idx * per_elem
        etyp = flat.type
        if flat.null_count:
            raise _Fallback  # explicit null elements emit NULL-kind samples
        if pa.types.is_struct(etyp):
            self._emit_struct(flat, e_doc, e_ts, e_src, e_base,
                              pre_ptr=list_ptr, elem_idx=e_idx, post_ptr=())
        elif pa.types.is_list(etyp) or pa.types.is_large_list(etyp):
            raise _Fallback
        else:
            self._leaf(flat, e_doc, e_ts, e_src, e_base,
                       pre_ptr=list_ptr, elem_idx=e_idx, post_ptr=())
        return max_count * per_elem


def _key_order_ok(em, get_texts, has_backslash) -> bool:
    """The key-order check of the module docstring over ``em``'s recorded
    keys (False: fall back); ``get_texts()`` returns the batch's raw
    documents as a string array, ``has_backslash()`` whether they hold a
    backslash."""
    levels = {}
    where = {}
    for name, level, inst in em.keys:
        where.setdefault(name, []).append(level)
        if level is not None:
            levels.setdefault(level, []).append((name, inst))
    levels = {lv: f for lv, f in levels.items() if len(f) > 1}
    if not levels:
        return True
    texts_arr = get_texts()
    bufs = texts_arr.buffers()
    u8 = np.frombuffer(bufs[2], np.uint8)
    offsets = np.frombuffer(bufs[1], np.int32)[
        texts_arr.offset: texts_arr.offset + len(texts_arr) + 1]
    if has_backslash() and pc.any(
        pc.match_substring_regex(texts_arr, _ESCAPED_KEY)
    ).as_py():
        return False
    # A quote followed by ':' closes a key (a '\\":' inside a value string
    # has a backslash before its quote, which no name ends with).  With no
    # backslash in any key, the key closing at ``e`` is ``name`` iff the
    # bytes before ``e`` are '"name' (the quote before a key's closing
    # quote opens it) -- unless ``name`` ends like the text before an
    # opening quote (',', ':', '[', '{' or a space), so names that do are
    # not counted.  Every match is then a real key, and a level's matches
    # are all its keys iff they are as many as its instances.
    ends = u8[:-1] == 0x22
    ends &= u8[1:] == 0x3A
    ends = np.flatnonzero(ends)
    padded = np.zeros(len(u8) + 16 - len(u8) % 8, np.uint8)
    padded[8: 8 + len(u8)] = u8
    # words[i]: the 8 bytes before u8[i], as an integer whose top byte is
    # u8[i - 1] (the pad before the buffer is zeros, which no key holds)
    words = np.lib.stride_tricks.as_strided(
        padded.view("<u8"), (len(u8) + 1,), (1,))
    tails = words[ends]
    shifted = {}
    for level, fields in levels.items():
        last = np.full(em.level_sizes[level], -1, np.int64)
        for name, inst in fields:
            if len(where[name]) > 1 or name[-1:] in tuple(",:[{ \t\n\r"):
                return False
            want = ('"' + name).encode()
            # match '"name' 8 bytes at a time, backwards from each key end
            k = min(8, len(want))
            if k not in shifted:
                shifted[k] = tails >> np.uint64(64 - 8 * k)
            pos = ends[shifted[k]
                       == np.uint64(int.from_bytes(want[-k:], "little"))]
            for stop in range(len(want) - 8, 0, -8):
                k = min(8, stop)
                word = words[np.maximum(pos - (len(want) - stop), 0)]
                pos = pos[word >> np.uint64(64 - 8 * k)
                          == np.uint64(int.from_bytes(want[stop - k: stop],
                                                      "little"))]
            if len(pos) != (len(last) if inst is None else len(inst)):
                return False  # e.g. a key with a space before its colon
            if inst is None:
                if (pos <= last).any():
                    return False
                last = pos
            else:
                if (pos <= last[inst]).any():
                    return False
                last[inst] = pos
    return True


def _ndjson(data: np.ndarray, offsets: np.ndarray):
    """utf8 token ids and list offsets -> the NDJSON buffer: each doc's
    ids as bytes, then ``'\n'``; ``None`` when an id is outside 0..255.
    One cast and one insert: no per-byte index array."""
    base = int(offsets[0])
    data = data[base: int(offsets[-1])]
    # one pass: a negative id is above 255 as unsigned
    if len(data) and data.view(f"u{data.itemsize}").max() > 255:
        return None
    return np.insert(data.astype(np.uint8), offsets[1:] - base,
                     np.uint8(0x0A))


def try_shred_batch(texts, plan, fallback_arr, default_now,
                    id_col: pa.Array, sample_schema: pa.Schema,
                    raw_utf8=None):
    """Vectorized batch extraction.  Returns a SAMPLE_SCHEMA table, or
    ``None`` when the batch is outside the proven envelope.

    ``raw_utf8``: optional ``(data, offsets)`` numpy pair straight from
    the utf8 tokenizer's list<int32> column — the token bytes ARE the JSON
    text, so the NDJSON buffer is one int32 -> uint8 cast with the newline
    separators inserted at the doc ends, and the per-doc string array
    (needed only for the top-level presence proof) is a ZERO-COPY
    StringArray over the same buffer; no per-doc bytes.decode / join /
    re-encode round trip.  ``texts`` may be None in that case.  A batch
    with a token outside 0..255 is not UTF-8 bytes: it falls back, and the
    tokenizer's decode raises or skips its docs.
    """
    if raw_utf8 is not None:
        data, offsets = raw_utf8
        n_docs = len(offsets) - 1
        if n_docs == 0:
            return None
        buf_arr = _ndjson(data, offsets)
        if buf_arr is None:
            return None
        base = int(offsets[0])
        source = pa.BufferReader(pa.py_buffer(buf_arr))
        buf_len = len(buf_arr)

        @functools.cache
        def texts_arr():
            # zero-copy string view over the NDJSON buffer itself; value i
            # carries its trailing '\n' (harmless: only used for the
            # raw-text presence and key-order checks)
            off32 = (offsets.astype(np.int64) - base + np.arange(
                n_docs + 1, dtype=np.int64
            )).astype(np.int32)
            return pa.Array.from_buffers(
                pa.utf8(), n_docs,
                [None, pa.py_buffer(off32), pa.py_buffer(buf_arr)],
            )
    else:
        n_docs = len(texts)
        if n_docs == 0:
            return None
        for t in texts:
            if t is None:
                return None
        buf = ("\n".join(texts)).encode("utf-8")
        source = io.BytesIO(buf)
        buf_len = len(buf)

        @functools.cache
        def texts_arr():
            return pa.array(texts, pa.string())

    @functools.cache
    def has_backslash():
        data = texts_arr().buffers()[2]
        return bool((np.frombuffer(data, np.uint8) == 0x5C).any())

    if fallback_arr is not None:
        fb = np.asarray(fallback_arr, dtype=np.int64)
    elif default_now is not None:
        fb = np.full(n_docs, default_now, np.int64)
    else:
        return None  # wall-clock fallbacks stay on the traversal path

    try:
        tbl = paj.read_json(
            source,
            read_options=paj.ReadOptions(
                block_size=min(buf_len + 1, 1 << 30), use_threads=False
            ),
        )
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, ValueError):
        return None
    if tbl.num_rows != n_docs:
        return None
    tbl = tbl.combine_chunks()

    # depth guard: containers at level >= max_depth coerce to JSON text in
    # the reference — traversal territory
    for f in tbl.schema:
        if _max_container_level(f.type, 1) >= plan.max_depth:
            return None

    # top-level null <=> absent proof, per doc, via raw-text presence
    for f in tbl.schema:
        col = tbl.column(f.name)
        col = col.chunk(0) if isinstance(col, pa.ChunkedArray) else col
        if col.null_count == 0:
            continue
        if '"' in f.name or "\\" in f.name:
            return None
        # A \uXXXX escape can spell the key in raw text without the
        # regex below ever matching ('"v":' decodes to '"v":'),
        # flipping presence to a silent false-absent — the dangerous
        # direction.  \u appears only inside JSON strings, so any doc
        # containing it goes to the traversal.
        if has_backslash() and pc.any(
            pc.match_substring(texts_arr(), "\\u")
        ).as_py():
            return None
        # '"name"\s*:' not '"name":' — legal JSON allows whitespace
        # before the colon, and a plain-substring miss there would make
        # an explicit null look ABSENT (masks agree -> proof passes ->
        # silently dropped NULL-kind sample).  A value-string false
        # positive only forces a harmless fallback.
        pres = pc.match_substring_regex(
            texts_arr(), f'"{re.escape(f.name)}"\\s*:'
        )
        if not pc.all(pc.equal(pres, pc.is_valid(col))).as_py():
            return None

    cols = {
        f.name: (
            tbl.column(f.name).chunk(0)
            if isinstance(tbl.column(f.name), pa.ChunkedArray)
            else tbl.column(f.name)
        )
        for f in tbl.schema
    }
    # {name} placeholders: a gather of the top-level column, proven equal
    # to the traversal's ancestor join (extractor._render_template) when
    # the name is nowhere below the top level and the column is a string
    # present and non-null in every doc
    key_parts = _key_parts(plan)
    doc_names = [name for kind, name in key_parts if kind == "doc"]
    if doc_names:
        nested = set()
        for f in tbl.schema:
            _nested_names(f.type, nested)
        for name in doc_names:
            col = cols.get(name)
            if (col is None or name in nested or col.null_count
                    or not pa.types.is_string(col.type)):
                return None
    doc_cols = {name: cols[name] for name in doc_names}

    try:
        names = list(cols)
        ts_name = plan.ts_prop_single
        doc_idx = np.arange(n_docs, dtype=np.int64)
        ts = fb.copy()
        src = np.full(n_docs, _SRC_NOW, np.int8)
        em = _Emitter(plan, [r for kind, r in key_parts if kind == "ptr"])
        if ts_name is not None and ts_name in cols:
            ts_col = cols.pop(ts_name)
            names = [n for n in names if n != ts_name]
            parsed = _parse_ts_column(ts_col)
            vmask = pc.is_valid(ts_col).to_numpy(zero_copy_only=False)
            ts = np.where(vmask, parsed, fb)
            src = np.where(vmask, _SRC_DOC, _SRC_NOW).astype(np.int8)
            em.keys.append((ts_name, None, None))
        em.emit_level(
            [(n, cols[n]) for n in names], doc_idx, ts, src,
            np.zeros(n_docs, np.int64),
            pre_ptr=(), elem_idx=None, post_ptr=(), top_level=True,
        )
    except _Fallback:
        return None
    if not _key_order_ok(em, texts_arr, has_backslash):
        return None

    leaves = em.leaves
    if not leaves:
        empty = {name: pa.nulls(0, f.type)
                 for name, f in zip(sample_schema.names, sample_schema)}
        return pa.table(empty, schema=sample_schema)

    all_doc = np.concatenate([r["doc_idx"] for r in leaves])
    all_slot = np.concatenate([r["slot"] for r in leaves])
    n = len(all_doc)

    def _cat(maker):
        return pa.concat_arrays([maker(r) for r in leaves])

    doc_take = pa.array(all_doc)
    key_cols, run = [], 0
    for kind, part in key_parts:
        if kind == "doc":
            key_cols.append(doc_cols[part].take(doc_take))
            continue
        key_cols.append(_cat(lambda r, j=run: pa.array(
            r["key_lookup"][j], pa.string()).take(pa.array(r["key_idx"]))))
        run += 1
    key_arr = (key_cols[0] if len(key_cols) == 1
               else pc.binary_join_element_wise(*key_cols, ""))
    ts_arr = pa.array(np.concatenate([r["ts"] for r in leaves]), pa.int64())
    src_arr = pa.array(np.concatenate([r["src"] for r in leaves]), pa.int8())
    num_arr = _cat(
        lambda r: pa.array(r["num"], pa.float64())
        if r["kind"] == 1 else pa.nulls(r["n"], pa.float64())
    )
    str_arr = _cat(
        lambda r: r["str"] if r["kind"] == 2 else pa.nulls(r["n"], pa.string())
    )
    bool_arr = _cat(
        lambda r: r["bool"] if r["kind"] == 3 else pa.nulls(r["n"], pa.bool_())
    )
    kind_arr = pa.array(
        np.concatenate([np.full(r["n"], r["kind"], np.int8) for r in leaves]),
        pa.int8(),
    )

    # Ordinals are the rank of each sample's document-order slot within
    # its doc; the table's PHYSICAL row order stays leaf-major (Dataset
    # rows are unordered — reordering 9 columns with a take costs one
    # more full memory pass this bandwidth-bound stage can't afford).
    order = np.lexsort((all_slot, all_doc))
    counts = np.bincount(all_doc, minlength=n_docs)
    starts = np.cumsum(counts) - counts
    ordinal = np.empty(n, np.int32)
    ordinal[order] = (
        np.arange(n, dtype=np.int32)
        - np.repeat(starts, counts).astype(np.int32)
    )
    if isinstance(id_col, pa.ChunkedArray):
        id_col = id_col.combine_chunks()
    return pa.table(
        {
            "series_key": key_arr,
            "ts": ts_arr.cast(pa.timestamp("ns")),
            "ts_source": src_arr,
            "value_num": num_arr,
            "value_str": str_arr,
            "value_bool": bool_arr,
            "value_kind": kind_arr,
            "doc_id": id_col.take(doc_take),
            "sample_ordinal": pa.array(ordinal, pa.int32()),
        },
        schema=sample_schema,
    )
