"""The reference's unit-test corpus, ported verbatim.

Each test mirrors one ``[Fact]`` from
``/root/reference/test/JsonTimeSeriesExtractor.Tests/JsonTimeSeriesExtractorTests.cs``
(line anchors in each docstring): same input JSON, same options, same
expected sample count / keys / values / timestamps / timestamp sources.
Pure-Python kernel only — no Ray needed here.  Every case whose options
the shredded kernel covers also runs through ``ExtractSamplesStage`` with
``shred=True`` and ``shred=False``, which must emit equal samples.
"""

import json

import pytest

from json_time_series_extractor_ray import (
    ExtractorOptions,
    TimestampSource,
    extract_samples,
    make_pointer_filter,
)
from json_time_series_extractor_ray.corpus import texts_to_corpus_table
from json_time_series_extractor_ray.extractor import ExtractionPlan
from json_time_series_extractor_ray.functions.timestamps import parse_iso_timestamp_ns
from json_time_series_extractor_ray.stages.extract import ExtractSamplesStage
from json_time_series_extractor_ray.stages.shred import plan_is_shreddable

TS = "2021-05-28T17:41:09.7031076+03:00"
TS_NS = parse_iso_timestamp_ns(TS)

DEVICE_SAMPLE = {
    "Timestamp": TS,
    "SignalStrength": -75,
    "DataFormat": 5,
    "Temperature": 19.3,
    "Humidity": 37.905,
    "Pressure": 1013.35,
    "AccelerationX": -0.872,
    "AccelerationY": 0.512,
    "AccelerationZ": -0.04,
    "BatteryVoltage": 3.085,
    "TxPower": 4,
    "MovementCounter": 5,
    "MeasurementSequence": 34425,
    "MacAddress": "AB:CD:EF:01:23:45",
}

NESTED_DEVICE_SAMPLE = {
    "Data": {
        "Timestamp": TS,
        "SignalStrength": -75,
        "DataFormat": 5,
        "Temperature": 19.3,
        "Humidity": 37.905,
        "Pressure": 1013.35,
        "Acceleration": {"X": -0.872, "Y": 0.512, "Z": -0.04},
        "BatteryVoltage": 3.085,
        "TxPower": 4,
        "MovementCounter": 5,
        "MeasurementSequence": 34425,
        "MacAddress": "AB:CD:EF:01:23:45",
    }
}


def samples_of(doc, opts, fallback_now_ns=1_700_000_000_000_000_000):
    text = json.dumps(doc)
    if plan_is_shreddable(ExtractionPlan(opts)):
        corpus = texts_to_corpus_table(["d0"], [text], ["conformance"])
        shredded, traversed = (
            ExtractSamplesStage(opts, fallback_now_ns=fallback_now_ns,
                                shred=shred)(corpus).sort_by("sample_ordinal")
            for shred in (True, False)
        )
        assert shredded.equals(traversed)
    return list(extract_samples(text, opts, fallback_now_ns=fallback_now_ns))


def test_should_extract_samples_for_all_non_timestamp_fields():
    """JsonTimeSeriesExtractorTests.cs:14-42"""
    samples = samples_of(
        DEVICE_SAMPLE, ExtractorOptions(timestamp_property="/Timestamp")
    )
    assert len(samples) == 13
    assert all(s.ts_ns == TS_NS for s in samples)
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)


def test_should_use_default_key_template():
    """JsonTimeSeriesExtractorTests.cs:45-73"""
    samples = samples_of(
        DEVICE_SAMPLE, ExtractorOptions(timestamp_property="/Timestamp")
    )
    assert len(samples) == 13
    assert [s.key for s in samples] == [k for k in DEVICE_SAMPLE if k != "Timestamp"]


def test_should_use_custom_key_template():
    """JsonTimeSeriesExtractorTests.cs:76-106"""
    samples = samples_of(
        DEVICE_SAMPLE,
        ExtractorOptions(
            template="tc/{MacAddress}/{$prop}", timestamp_property="/Timestamp"
        ),
    )
    assert len(samples) == 13
    assert all(s.ts_ns == TS_NS for s in samples)
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)
    assert all(s.key.startswith("tc/" + DEVICE_SAMPLE["MacAddress"]) for s in samples)


def test_should_use_custom_key_template_with_default_replacements():
    """JsonTimeSeriesExtractorTests.cs:109-148"""
    guid = "0c52a2f7-1b3f-4f0e-8f3b-111111111111"

    def repl(name):
        return guid if name.upper() == "UUID" else None

    samples = samples_of(
        DEVICE_SAMPLE,
        ExtractorOptions(
            template="tc/{MacAddress}/{Uuid}/{$prop}",
            timestamp_property="/Timestamp",
            get_template_replacement=repl,
        ),
    )
    assert len(samples) == 13
    assert all(
        s.key.startswith("tc/" + DEVICE_SAMPLE["MacAddress"] + "/" + guid)
        for s in samples
    )


def test_should_use_property_path_in_custom_template():
    """JsonTimeSeriesExtractorTests.cs:151-178"""
    data = {"A": {"B": {"C": {"Name": "Instrument-1", "Value": 99.997}}}}
    samples = samples_of(
        data,
        ExtractorOptions(
            recursive=True,
            can_process_element=make_pointer_filter(include=["/A/B/C/Value"]),
            template="{$prop-path}/{Name}",
        ),
    )
    assert len(samples) == 1
    assert samples[0].key == "A/B/C/Instrument-1"
    assert samples[0].value == 99.997
    assert samples[0].ts_source == TimestampSource.CURRENT_TIME


def test_should_use_property_path_without_array_indexes_in_custom_template():
    """JsonTimeSeriesExtractorTests.cs:181-211"""
    data = {"A": {"B": {"C": [{"Name": "Instrument-1", "Value": 99.997}]}}}
    samples = samples_of(
        data,
        ExtractorOptions(
            recursive=True,
            can_process_element=make_pointer_filter(include=["/A/B/C/0/Value"]),
            template="{$prop-path}/{Name}",
            include_array_indexes_in_sample_keys=False,
        ),
    )
    assert len(samples) == 1
    assert samples[0].key == "A/B/C/Instrument-1"
    assert samples[0].value == 99.997
    assert samples[0].ts_source == TimestampSource.CURRENT_TIME


def test_should_exclude_specified_properties():
    """JsonTimeSeriesExtractorTests.cs:214-250"""
    samples = samples_of(
        DEVICE_SAMPLE,
        ExtractorOptions(
            template="tc/{MacAddress}/{DataFormat}/{$prop}",
            timestamp_property="/Timestamp",
            can_process_element=make_pointer_filter(
                exclude=["/DataFormat", "/MacAddress"]
            ),
        ),
    )
    assert len(samples) == 11
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)
    assert all(s.key.startswith("tc/AB:CD:EF:01:23:45/5/") for s in samples)


def test_should_include_specified_properties():
    """JsonTimeSeriesExtractorTests.cs:253-290"""
    samples = samples_of(
        DEVICE_SAMPLE,
        ExtractorOptions(
            template="tc/{MacAddress}/{DataFormat}/{$prop}",
            timestamp_property="/Timestamp",
            can_process_element=make_pointer_filter(
                include=["/Temperature", "/Humidity", "/Pressure"]
            ),
        ),
    )
    assert len(samples) == 3
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)


def test_should_include_properties_using_mqtt_multi_level_match():
    """JsonTimeSeriesExtractorTests.cs:293-333"""
    samples = samples_of(
        NESTED_DEVICE_SAMPLE,
        ExtractorOptions(
            recursive=True,
            timestamp_property="/Data/Timestamp",
            can_process_element=make_pointer_filter(
                include=["/Data/Acceleration/#"], allow_wildcards=True
            ),
        ),
    )
    assert len(samples) == 3
    assert all(s.ts_ns == TS_NS for s in samples)
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)
    assert all(s.key.startswith("Data/Acceleration/") for s in samples)


def test_should_include_properties_using_mqtt_single_level_match():
    """JsonTimeSeriesExtractorTests.cs:336-378"""
    samples = samples_of(
        NESTED_DEVICE_SAMPLE,
        ExtractorOptions(
            recursive=True,
            timestamp_property="/Data/Timestamp",
            can_process_element=make_pointer_filter(
                include=["/+/+/X"], allow_wildcards=True
            ),
        ),
    )
    assert len(samples) == 1
    assert samples[0].ts_ns == TS_NS
    assert samples[0].ts_source == TimestampSource.DOCUMENT
    assert samples[0].key == "Data/Acceleration/X"


def test_should_include_properties_using_multi_character_pattern_match():
    """JsonTimeSeriesExtractorTests.cs:381-423"""
    samples = samples_of(
        NESTED_DEVICE_SAMPLE,
        ExtractorOptions(
            recursive=True,
            timestamp_property="/Data/Timestamp",
            can_process_element=make_pointer_filter(
                include=["*/X"], allow_wildcards=True
            ),
        ),
    )
    assert len(samples) == 1
    assert samples[0].key == "Data/Acceleration/X"
    assert samples[0].ts_source == TimestampSource.DOCUMENT


def test_should_include_properties_using_single_character_pattern_match():
    """JsonTimeSeriesExtractorTests.cs:426-466"""
    samples = samples_of(
        NESTED_DEVICE_SAMPLE,
        ExtractorOptions(
            recursive=True,
            timestamp_property="/Data/Timestamp",
            can_process_element=make_pointer_filter(
                include=["/Data/Acceleration/?"], allow_wildcards=True
            ),
        ),
    )
    assert len(samples) == 3
    assert all(s.key.startswith("Data/Acceleration/") for s in samples)


def test_should_parse_top_level_array():
    """JsonTimeSeriesExtractorTests.cs:469-491"""
    docs = [{"Value": 55.5}, {"Value": 417.1}, {"Value": -0.0032}, {"Value": 14.0}]
    samples = samples_of(docs, ExtractorOptions(template="tc/sample/{$prop}"))
    assert len(samples) == 4
    assert all(s.ts_source == TimestampSource.CURRENT_TIME for s in samples)
    assert all(s.key == "tc/sample/Value" for s in samples)
    assert [s.value for s in samples] == [55.5, 417.1, -0.0032, 14.0]


def test_should_recursively_parse_object():
    """JsonTimeSeriesExtractorTests.cs:494-541"""
    doc = {
        "Timestamp": TS,
        "Metadata": {
            "SignalStrength": -75,
            "DataFormat": 5,
            "MeasurementSequence": 34425,
            "MacAddress": "AB:CD:EF:01:23:45",
        },
        "Environment": [
            {"Temperature": 19.3, "Humidity": 37.905, "Pressure": 1013.35},
            {"Temperature": 19.3, "Humidity": 37.905, "Pressure": 1013.35},
        ],
        "Acceleration": {"X": -0.872, "Y": 0.512, "Z": -0.04},
        "Power": {"BatteryVoltage": 3.085, "TxPower": 4},
        "Other": {"MovementCounter": 5},
    }
    samples = samples_of(
        doc,
        ExtractorOptions(
            template="tc/{$prop}", timestamp_property="/Timestamp", recursive=True
        ),
    )
    assert len(samples) == 16
    assert all(s.ts_ns == TS_NS for s in samples)
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)


def test_should_apply_recursive_template_replacements():
    """JsonTimeSeriesExtractorTests.cs:544-566"""
    doc = {
        "location": "System A",
        "measurements": {"location": "Subsystem 1", "temperature": 28.2},
    }
    samples = samples_of(
        doc,
        ExtractorOptions(
            template="{location}/{$prop}",
            path_separator="/",
            recursive=True,
            can_process_element=lambda ctx, ptr, el: ptr[-1] != "location",
        ),
    )
    assert len(samples) == 1
    assert samples[0].key == "System A/Subsystem 1/measurements/temperature"
    assert samples[0].ts_source == TimestampSource.CURRENT_TIME


def test_should_apply_recursive_template_replacements_with_local_property_name():
    """JsonTimeSeriesExtractorTests.cs:569-591"""
    doc = {
        "location": "System A",
        "measurements": {"location": "Subsystem 1", "temperature": 28.2},
    }
    samples = samples_of(
        doc,
        ExtractorOptions(
            template="{location}/{$prop-local}",
            path_separator="/",
            recursive=True,
            can_process_element=lambda ctx, ptr, el: ptr[-1] != "location",
        ),
    )
    assert len(samples) == 1
    assert samples[0].key == "System A/Subsystem 1/temperature"


def test_should_obey_recursion_depth_limit():
    """JsonTimeSeriesExtractorTests.cs:594-620 (raw text asserted at :617)"""
    doc = {
        "location": "System A",
        "measurements": {"location": "Subsystem 1", "temperature": 14},
    }
    samples = samples_of(doc, ExtractorOptions(recursive=True, max_depth=1))
    assert len(samples) == 2
    assert samples[0].key == "location"
    assert samples[0].value == "System A"
    assert samples[1].key == "measurements"
    assert samples[1].value == '{"location":"Subsystem 1","temperature":14}'
    assert all(s.ts_source == TimestampSource.CURRENT_TIME for s in samples)


def test_should_obey_recursion_depth_limit_with_inclusion_delegate():
    """JsonTimeSeriesExtractorTests.cs:623-648"""
    doc = {"parent": {"child": {"value": 100.0}}}
    samples = samples_of(
        doc,
        ExtractorOptions(
            recursive=True,
            max_depth=3,
            can_process_element=make_pointer_filter(
                include=["/+/+/value"], allow_wildcards=True
            ),
        ),
    )
    assert len(samples) == 1
    assert samples[0].key == "parent/child/value"
    assert samples[0].value == 100.0
    assert samples[0].ts_source == TimestampSource.CURRENT_TIME


def test_should_use_fallback_timestamp():
    """JsonTimeSeriesExtractorTests.cs:651-669"""
    fallback_ns = parse_iso_timestamp_ns("1999-12-31")
    samples = samples_of(
        {"value": 99},
        ExtractorOptions(
            template="tc/{$prop}", get_default_timestamp=lambda: fallback_ns
        ),
    )
    assert len(samples) == 1
    assert samples[0].ts_ns == fallback_ns
    assert samples[0].ts_source == TimestampSource.FALLBACK_PROVIDER


def test_should_allow_unresolved_template_replacements():
    """JsonTimeSeriesExtractorTests.cs:672-688"""
    samples = samples_of(
        {"value": 99},
        ExtractorOptions(
            template="tc/{deviceId}/{$prop}",
            allow_unresolved_template_replacements=True,
        ),
    )
    assert len(samples) == 1
    assert samples[0].key == "tc/{deviceId}/value"
    assert samples[0].ts_source == TimestampSource.CURRENT_TIME


def test_should_not_allow_unresolved_template_replacements():
    """JsonTimeSeriesExtractorTests.cs:691-705"""
    samples = samples_of(
        {"value": 99},
        ExtractorOptions(
            template="tc/{deviceId}/{$prop}",
            allow_unresolved_template_replacements=False,
        ),
    )
    assert samples == []


def test_should_allow_numerical_timestamp():
    """JsonTimeSeriesExtractorTests.cs:708-740 — integer timestamps are Unix ms"""
    ms = 1646312969367
    doc = dict(DEVICE_SAMPLE, Timestamp=ms)
    samples = samples_of(doc, ExtractorOptions(timestamp_property="/Timestamp"))
    assert len(samples) == 13
    assert all(s.ts_ns == ms * 1_000_000 for s in samples)
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)


def test_should_allow_custom_timestamp_parsing():
    """JsonTimeSeriesExtractorTests.cs:743-776 — custom parser: Unix seconds"""
    secs = 1686559277
    doc = dict(DEVICE_SAMPLE, Timestamp=secs)
    samples = samples_of(
        doc,
        ExtractorOptions(
            timestamp_property="/Timestamp",
            timestamp_parser=lambda el: el * 1_000_000_000,
        ),
    )
    assert len(samples) == 13
    assert all(s.ts_ns == secs * 1_000_000_000 for s in samples)
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)


def test_should_allow_custom_start_position():
    """JsonTimeSeriesExtractorTests.cs:779-817"""
    ms = 1646312969367
    doc = {
        "data": {
            "time": ms,
            "device1": {k: v for k, v in DEVICE_SAMPLE.items() if k != "Timestamp"},
        }
    }
    samples = samples_of(doc, ExtractorOptions(start_at="/data", recursive=True))
    assert len(samples) == 13
    assert all(s.key.startswith("device1/") for s in samples)
    assert all(s.ts_ns == ms * 1_000_000 for s in samples)
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)


def test_should_allow_nested_timestamps_in_recursive_mode():
    """JsonTimeSeriesExtractorTests.cs:820-851"""
    now = "2023-11-01T10:00:00Z"
    t0, t1 = "2023-11-01T08:00:00Z", "2023-11-01T09:00:00Z"
    doc = {
        "time": now,
        "data": [
            {"time": t0, "temperature": 19.3},
            {"time": t1, "temperature": 20.6},
        ],
    }
    samples = samples_of(
        doc, ExtractorOptions(recursive=True, allow_nested_timestamps=True)
    )
    assert len(samples) == 2
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)
    assert samples[0].ts_ns == parse_iso_timestamp_ns(t0)
    assert samples[0].value == 19.3
    assert samples[1].ts_ns == parse_iso_timestamp_ns(t1)
    assert samples[1].value == 20.6


def test_should_not_allow_nested_timestamps_in_recursive_mode():
    """JsonTimeSeriesExtractorTests.cs:854-888 — nested 'time' fields become
    string samples; 4 samples emitted with the root timestamp."""
    now = "2023-11-01T10:00:00Z"
    t0, t1 = "2023-11-01T08:00:00Z", "2023-11-01T09:00:00Z"
    doc = {
        "time": now,
        "data": [
            {"time": t0, "temperature": 19.3},
            {"time": t1, "temperature": 20.6},
        ],
    }
    samples = samples_of(
        doc, ExtractorOptions(recursive=True, allow_nested_timestamps=False)
    )
    assert len(samples) == 4
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)
    assert all(s.ts_ns == parse_iso_timestamp_ns(now) for s in samples)
    assert samples[0].value == t0
    assert samples[1].value == 19.3
    assert samples[2].value == t1
    assert samples[3].value == 20.6


def test_should_inherit_timestamp_from_ancestor_level_in_recursive_mode():
    """JsonTimeSeriesExtractorTests.cs:891-922"""
    now = "2023-11-01T10:00:00Z"
    doc = {
        "data": {
            "time": now,
            "samples": [{"temperature": 19.3}, {"temperature": 20.6}],
        }
    }
    samples = samples_of(
        doc, ExtractorOptions(recursive=True, allow_nested_timestamps=True)
    )
    assert len(samples) == 2
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)
    assert all(s.ts_ns == parse_iso_timestamp_ns(now) for s in samples)
    assert [s.value for s in samples] == [19.3, 20.6]


def test_should_include_array_indexes_in_sample_keys():
    """JsonTimeSeriesExtractorTests.cs:925-960"""
    t0, t1 = "2023-11-01T08:00:00Z", "2023-11-01T09:00:00Z"
    doc = {
        "data": [
            {"time": t0, "temperature": 19.3},
            {"time": t1, "temperature": 20.6},
        ]
    }
    samples = samples_of(
        doc,
        ExtractorOptions(
            recursive=True,
            allow_nested_timestamps=True,
            include_array_indexes_in_sample_keys=True,
        ),
    )
    assert len(samples) == 2
    assert samples[0].key == "data/0/temperature"
    assert samples[1].key == "data/1/temperature"
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)
    assert samples[0].ts_ns == parse_iso_timestamp_ns(t0)
    assert samples[1].ts_ns == parse_iso_timestamp_ns(t1)


def test_should_not_include_array_indexes_in_sample_keys():
    """JsonTimeSeriesExtractorTests.cs:963-998"""
    t0, t1 = "2023-11-01T08:00:00Z", "2023-11-01T09:00:00Z"
    doc = {
        "data": [
            {"time": t0, "temperature": 19.3},
            {"time": t1, "temperature": 20.6},
        ]
    }
    samples = samples_of(
        doc,
        ExtractorOptions(
            recursive=True,
            allow_nested_timestamps=True,
            include_array_indexes_in_sample_keys=False,
        ),
    )
    assert len(samples) == 2
    assert samples[0].key == "data/temperature"
    assert samples[1].key == "data/temperature"
    assert samples[0].value == 19.3
    assert samples[1].value == 20.6


def test_cli_data1_shape():
    """samples/JsonTimeSeriesExtractor.Cli/data-1.json + Program.cs:15-39 —
    MQTT include /body/data/+/v, template {t}, nested timestamps."""
    doc = {
        "body": {
            "data": [
                {"t": "Instrument-1", "ts": "2024-02-05T16:13:50.4156498Z", "v": 20476},
                {"t": "Instrument-2", "ts": "2024-02-05T16:13:50Z", "v": 2047.5999999999995},
                {"t": "Instrument-2", "ts": "2024-02-05T16:13:55Z", "v": 2050},
            ]
        }
    }
    samples = samples_of(
        doc,
        ExtractorOptions(
            recursive=True,
            allow_nested_timestamps=True,
            timestamp_property="/ts",
            can_process_element=make_pointer_filter(
                include=["/body/data/+/v"], allow_wildcards=True
            ),
            template="{t}",
        ),
    )
    assert [(s.key, s.value) for s in samples] == [
        ("Instrument-1", 20476.0),
        ("Instrument-2", 2047.5999999999995),
        ("Instrument-2", 2050.0),
    ]
    assert samples[0].ts_ns == parse_iso_timestamp_ns("2024-02-05T16:13:50.4156498Z")
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)


def test_cli_data2_shape():
    """samples/JsonTimeSeriesExtractor.Cli/data-2.json + Program.cs:46-73 —
    StartAt /body/data, includes /+/v and /+/+/v, template {$prop-path},
    array indexes suppressed."""
    doc = {
        "body": {
            "data": {
                "Instrument-1": {"ts": "2024-02-05T16:13:50.4156498Z", "v": 20476},
                "Instrument-2": [
                    {"ts": "2024-02-05T16:13:50Z", "v": 2047.5999999999995},
                    {"ts": "2024-02-05T16:13:55Z", "v": 2050},
                ],
            }
        }
    }
    samples = samples_of(
        doc,
        ExtractorOptions(
            start_at="/body/data",
            recursive=True,
            allow_nested_timestamps=True,
            timestamp_property="/ts",
            can_process_element=make_pointer_filter(
                include=["/+/v", "/+/+/v"], allow_wildcards=True
            ),
            template="{$prop-path}",
            include_array_indexes_in_sample_keys=False,
        ),
    )
    assert [(s.key, s.value) for s in samples] == [
        ("Instrument-1", 20476.0),
        ("Instrument-2", 2047.5999999999995),
        ("Instrument-2", 2050.0),
    ]
    assert all(s.ts_source == TimestampSource.DOCUMENT for s in samples)
