"""The report text as it was built before it was joined: the oracle of `stockcast.reporting`.

`report_to_json` encodes the whole report element by element with
`artifacts._encode` and lays it out with `json.dumps(indent=2)`;
`render_series_csv` writes one `csv.writer` row per day. Tests require the
joined text of `stockcast.reporting` to equal these byte for byte.
"""

from __future__ import annotations

import json

from stockcast.evaluation import ForecastReport, ReportEntry
from stockcast.models.artifacts import _encode
from stockcast.reporting import SERIES_HEADER, csv_text


def report_to_json(report: ForecastReport) -> str:
    return json.dumps(_encode(report), indent=2, sort_keys=True) + "\n"


def render_series_csv(entry: ReportEntry) -> str:
    rows = [[d.isoformat(), "train", repr(float(a)), ""]
            for d, a in zip(entry.train_dates, entry.train_actual)]
    rows += [[d.isoformat(), "validation", repr(float(a)), repr(float(p))]
             for d, a, p in zip(entry.dates, entry.actual, entry.predicted)]
    return csv_text(SERIES_HEADER, rows)
