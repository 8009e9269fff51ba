"""Every module of the package compiles with ``DeprecationWarning`` and
``SyntaxWarning`` raised as errors: a literal such as ``'\\s+'`` in a
non-raw string works today only because Python keeps an unknown escape
as backslash + letter, and a later Python refuses it."""

import pathlib
import warnings

PKG = pathlib.Path(__file__).resolve().parents[1] / \
    "json_time_series_extractor_ray"


def test_every_module_compiles_without_warnings():
    paths = sorted(PKG.rglob("*.py"))
    assert len(paths) > 50
    errors = []
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("error", SyntaxWarning)
            try:
                compile(path.read_text(), str(path), "exec")
            except SyntaxError as e:
                errors.append(f"{path.relative_to(PKG)}:{e.lineno}: {e.msg}")
    assert errors == []
