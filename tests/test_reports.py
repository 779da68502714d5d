import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulertube.errors import IoError
from eulertube.reports import ResidualReport, emit, parse


def sample_report(**overrides):
    kwargs = dict(
        scenario="circle",
        stage="diagram",
        sample_count=200,
        max_residual=3.2e-7,
        mean_residual=1.1e-8,
        tolerance=1e-5,
        runtime_ms=123.4,
    )
    kwargs.update(overrides)
    return ResidualReport(**kwargs)


def test_pass_flag_follows_residuals():
    assert sample_report(max_residual=2e-5).passed is False
    assert sample_report(max_residual=1e-6).passed is True
    assert sample_report(max_residual=1e-5).passed is True
    with pytest.raises(TypeError):
        sample_report(passed=False)


def test_infinite_residual_fails_under_infinite_tolerance():
    r = sample_report(max_residual=float("inf"), tolerance=float("inf"))
    assert r.passed is False


def test_empty_list_gives_header_only_table():
    text = emit([])
    lines = text.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("scenario\t")


def test_runtime_excluded_by_default():
    text = emit([sample_report()], fmt="records")
    assert list(json.loads(text)) == [
        "scenario",
        "stage",
        "sample_count",
        "max_residual",
        "mean_residual",
        "tolerance",
        "passed",
    ]


@pytest.mark.parametrize("fmt", ["table", "records"])
def test_error_excluded(fmt):
    failed = sample_report(max_residual=float("inf"), mean_residual=float("inf"))
    named = sample_report(
        max_residual=float("inf"), mean_residual=float("inf"), error="NotEulerLike: rejected"
    )
    assert emit([named], fmt=fmt) == emit([failed], fmt=fmt)
    assert parse(emit([named], fmt=fmt))[0].error == ""


@pytest.mark.parametrize("fmt", ["table", "records"])
def test_round_trip(fmt):
    reports = [
        sample_report(runtime_ms=0.0),
        sample_report(scenario="helix", max_residual=0.5, runtime_ms=0.0),
    ]
    assert [r.passed for r in reports] == [True, False]
    back = parse(emit(reports, fmt=fmt))
    assert back == reports


def test_round_trip_without_runtime_zeroes_it():
    r = sample_report()
    (back,) = parse(emit([r], fmt="table"))
    assert back.runtime_ms == 0.0
    assert back.max_residual == r.max_residual


@given(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-12, max_value=10.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_round_trip_preserves_doubles_exactly(max_r, tol):
    r = sample_report(max_residual=max_r, mean_residual=max_r / 2, tolerance=tol)
    for fmt in ("table", "records"):
        (back,) = parse(emit([r], fmt=fmt))
        assert back.max_residual == r.max_residual
        assert back.tolerance == r.tolerance
        assert back.passed == r.passed


def test_failed_stage_records_are_strict_json():
    failed = sample_report(max_residual=float("inf"), mean_residual=float("inf"), runtime_ms=0.0)

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    for line in emit([failed, sample_report()], fmt="records").splitlines():
        json.loads(line, parse_constant=reject)
    assert json.loads(emit([failed], fmt="records"))["max_residual"] is None
    (back, _) = parse(emit([failed, sample_report()], fmt="records"))
    assert back == failed
    assert back.max_residual == float("inf") and not back.passed


def test_failed_stage_table_keeps_inf():
    failed = sample_report(max_residual=float("inf"), mean_residual=float("inf"))
    row = emit([failed]).splitlines()[1].split("\t")
    assert row[3:5] == ["inf", "inf"]


def test_unwritable_path_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        emit([sample_report()], path=str(tmp_path / "missing" / "out.tsv"))


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit([sample_report()], fmt="xml")


def test_written_file_matches_returned_text(tmp_path):
    target = tmp_path / "report.tsv"
    text = emit([sample_report()], path=str(target))
    assert target.read_text() == text
