import gzip
import hashlib
import importlib.util
import os
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from lppm import mobility
from lppm import geo
from lppm.geo import chord2, chord2_at_m, haversine_m, offset_latlon, unit_vectors
from lppm.mdp import check_unichain_exhaustive
from lppm.mobility import (BLOCK_ROWS, COVER_TOL_M, RUN_CHUNK, RUN_GROWTH, ClusterParams,
                           CloakRegion, EmptyPoiError, ParameterError,
                           PoiCluster, TraceDataset, assemble_mdp,
                           build_cloaks, build_model_from_traces,
                           estimate_transitions, extract_pois, parse_traces,
                           stationary_flags, write_poi_summary)
from lppm.serialize import save_mdp
from support import (restart_merge_close, scalar_estimate_transitions, scalar_extract_pois,
                     scalar_nearest_disk, strptime_parse_traces)

REF = (40.0, -74.0)
ROOT = Path(__file__).resolve().parents[1]
FIXTURE_SHA = "16a4a13b099f6706992a1945142e9537035cdb44ca2fe297b20d1ab6e09f2618"


def write_csv(path, rows):
    lines = ["lat,lon,timestamp"] + [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def dwell_rows(x_m, y_m, t0, hours, step_s=60.0):
    """Constant-position samples covering `hours` at one planar offset."""
    lat, lon = offset_latlon(REF[0], REF[1], x_m, y_m)
    n = int(hours * 3600.0 / step_s) + 1
    return [(f"{lat:.8f}", f"{lon:.8f}", t0 + i * step_s) for i in range(n)]


def travel_rows(x0, y0, x1, y1, t0, speed=15.0, step_s=5.0):
    d = float(np.hypot(x1 - x0, y1 - y0))
    n = max(int(d / (speed * step_s)), 1)
    rows = []
    for i in range(1, n + 1):
        frac = i / n
        lat, lon = offset_latlon(REF[0], REF[1], x0 + frac * (x1 - x0),
                                 y0 + frac * (y1 - y0))
        rows.append((f"{lat:.8f}", f"{lon:.8f}", t0 + i * step_s))
    return rows


def commute_csv(path, spots, hours_each=2.0):
    """Alternating dwells at planar spots with travel legs between them."""
    rows = []
    t = 1.6e9
    prev = None
    for (x, y) in spots:
        if prev is not None:
            leg = travel_rows(prev[0], prev[1], x, y, t)
            rows += leg
            t = leg[-1][2]
        stay = dwell_rows(x, y, t + 5.0, hours_each)
        rows += stay
        t = stay[-1][2]
        prev = (x, y)
    write_csv(path, rows)
    return rows


class TestParseTraces:
    def test_three_row_csv_exact(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, [(40.1, -74.2, 100.0), (40.2, -74.3, 160.0),
                      (40.3, -74.4, 220.0)])
        ds = parse_traces(p)
        assert isinstance(ds, TraceDataset)
        assert len(ds) == 3
        np.testing.assert_allclose(ds.lat, [40.1, 40.2, 40.3])
        np.testing.assert_allclose(ds.lon, [-74.2, -74.3, -74.4])
        np.testing.assert_allclose(ds.t, [100.0, 160.0, 220.0])
        assert ds.n_skipped == 0

    def test_malformed_rows_skipped_and_counted(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("lat,lon,timestamp\n"
                     "40.1,-74.2,100\n"
                     "not,a,row\n"
                     "40.2,-74.3\n"
                     "40.3,-74.4,200\n")
        ds = parse_traces(p)
        assert len(ds) == 2
        assert ds.n_skipped == 2

    def test_non_increasing_timestamps_dropped(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, [(40.1, -74.2, 100.0), (40.2, -74.3, 100.0),
                      (40.3, -74.4, 90.0), (40.4, -74.5, 150.0)])
        ds = parse_traces(p)
        assert len(ds) == 2
        assert ds.n_skipped == 2
        np.testing.assert_allclose(ds.t, [100.0, 150.0])

    def test_empty_file_warns(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("lat,lon,timestamp\n")
        with pytest.warns(UserWarning):
            ds = parse_traces(p)
        assert len(ds) == 0

    def test_plt_format(self, tmp_path):
        p = tmp_path / "t.plt"
        header = "\n".join(["Geolife trajectory", "WGS 84", "Altitude ...","0",
                            "fields", "lat,lon"])
        rows = ["39.9,-75.1,0,100,39448.0,2008-01-01,00:00:00",
                "39.91,-75.12,0,100,39448.0,2008-01-01,00:00:30"]
        p.write_text(header + "\n" + "\n".join(rows) + "\n")
        ds = parse_traces(p)
        assert len(ds) == 2
        np.testing.assert_allclose(ds.lat, [39.9, 39.91])
        assert ds.t[1] - ds.t[0] == pytest.approx(30.0)

    def test_unknown_format_raises(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, [(40.1, -74.2, 100.0)])
        with pytest.raises(ValueError):
            parse_traces(p, fmt="gpx")

    def test_extension_inference_defaults_to_csv(self, tmp_path):
        p = tmp_path / "t.txt"
        write_csv(p, [(40.1, -74.2, 100.0)])
        assert len(parse_traces(p)) == 1


PLT_HEADER = ("Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
              "0,2,255,My Track,0,0,2,8421376\n0\n")


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def warned(parse, path):
    """parse(path) and the text of every warning it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = parse(path)
    return ds, [str(w.message) for w in caught]


def assert_parse_matches_strptime(path):
    """parse_traces reads exactly what a strptime call per plt row reads, and
    warns as it does."""
    (ds, got_warnings), (ref, ref_warnings) = warned(parse_traces, path), \
        warned(strptime_parse_traces, path)
    for got, want in ((ds.lat, ref.lat), (ds.lon, ref.lon), (ds.t, ref.t)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert ds.n_skipped == ref.n_skipped
    assert got_warnings == ref_warnings
    return ds


def parse_and_path(monkeypatch, path):
    """assert_parse_matches_strptime(path) and the reader that ran: "rows" when
    the row loop read the file, else "whole"."""
    row_loop, ran = mobility._read_rows, []
    monkeypatch.setattr(mobility, "_read_rows", lambda *args: ran.append(args) or row_loop(*args))
    ds = assert_parse_matches_strptime(path)
    monkeypatch.undo()
    return ds, "rows" if ran else "whole"


class TestPltTimestamps:
    # (date, time, accepted) in file order; accepted rows have increasing times
    ROWS = [
        ("0001-01-01", "00:00:00", True),
        ("1969-07-20", "20:17:40", True),
        ("1969-12-31", "23:59:59", True),
        ("1969-12-31", "23:59:58", False),       # decreasing
        ("1970-01-01", "00:00:00", True),
        ("2020-02-29", "12:00:00", True),        # leap day
        ("2020-9-3", "1:2:3", True),             # strptime only: short fields
        ("2020-09-03", "01:02:03", False),       # the same instant again
        ("2020-09-03", "01:02:04", True),
        ("\u0662\u0660\u0662\u0660-09-13", "10:00:00", True),   # Arabic-Indic digits
        ("2020-09-13", "10:1\u0660:00", True),             # 10:10:00
        ("2020-09-13", "10:\u0665\u0660:00", False),      # %M takes [0-5] first
        ("2020-09-13", " 11:00:00", True),       # space before the time
        ("2021-02-29", "00:00:00", False),       # no such day
        ("2021-03-01", "00:00:60", False),
        ("2021-03-01", "24:00:00", False),
        ("2021-03-01", "12:00:00 ,x", False),    # trailing space in the time
        ("2021-03-01", "12:00:00", True),
        ("2021-13-01", "12:00:01", False),
        ("2021-03-01", "", False),
        ("2021-03-01", "12:00:01", True),
        ("2021-03-01", "11:00:00", False),       # decreasing
        ("9999-12-31", "23:59:59", True),
    ]

    def test_rows_read_as_strptime_reads_them(self, tmp_path):
        lines = [f"{39.9 + i * 1e-4:.7f},{116.4 - i * 1e-4:.7f},0,100,40000.0,{date},{clock}"
                 for i, (date, clock, _) in enumerate(self.ROWS)]
        lines.insert(4, "39.9,116.4,0")           # short row
        lines.insert(9, "")
        # CRLF on every other line
        text = PLT_HEADER + "".join(line + ("\r\n" if i % 2 else "\n")
                                    for i, line in enumerate(lines))
        path = tmp_path / "t.plt"
        path.write_text(text, encoding="utf-8", newline="")
        ds = assert_parse_matches_strptime(path)
        assert len(ds) == sum(ok for *_, ok in self.ROWS)
        assert ds.n_skipped == len(lines) - 1 - len(ds)
        assert ds.t[0] == -62135596800.0 and ds.t[2] == -1.0 and ds.t[3] == 0.0

    @pytest.mark.parametrize("user,places,samples,fmt",
                             [(0, 10, 50_000, "csv"), (1, 20, 50_000, "plt"),
                              (2, 30, 60_000, "csv")])
    def test_benchmark_trace_shapes(self, tmp_path, user, places, samples, fmt):
        gen = load_module("perfbench_gen", ROOT / "perfbench" / "gen.py")
        trace = gen.make_trace(5, user, places, samples)
        # as the benchmark writes it, and as plt in any case
        for suffix in sorted({"plt", fmt}):
            path = tmp_path / f"user{user}.{suffix}"
            (gen.write_plt if suffix == "plt" else gen.write_csv)(trace, path)
            ds = assert_parse_matches_strptime(path)
            assert len(ds) == samples and ds.n_skipped == 0

    @pytest.mark.parametrize("user,places,samples,fmt",
                             [(0, 10, 50_000, "csv"), (1, 20, 50_000, "plt"),
                              (2, 30, 60_000, "csv")])
    def test_benchmark_traces_read_whole(self, tmp_path, monkeypatch, user, places, samples,
                                         fmt):
        gen = load_module("perfbench_gen", ROOT / "perfbench" / "gen.py")
        path = tmp_path / f"user{user}.{fmt}"
        (gen.write_plt if fmt == "plt" else gen.write_csv)(
            gen.make_trace(5, user, places, samples), path)
        ref = strptime_parse_traces(path)

        def no_row_loop(*args):
            raise AssertionError("the row loop ran")

        monkeypatch.setattr(mobility, "_read_rows", no_row_loop)
        ds = parse_traces(path)
        for got, want in ((ds.lat, ref.lat), (ds.lon, ref.lon), (ds.t, ref.t)):
            assert got.tobytes() == want.tobytes()
        assert len(ds) == samples
        # one irregular row sends the whole file to the row loop
        with open(path, "a") as fh:
            fh.write("40.0,116.0,1_0\n" if fmt == "csv"
                     else "40.0,116.0,0,100,1.0,2099-01-01,1:00:00\n")
        with pytest.raises(AssertionError, match="the row loop ran"):
            parse_traces(path)


CSV_HEADER = "lat,lon,timestamp\n"


class TestWholeFileParse:
    """Files the whole-file reader takes and files it leaves to the row loop
    read the same as the strptime reference, bit for bit."""

    @pytest.mark.parametrize("body,path_taken", [
        ("40.1,-74.2,100\n\n40.2,-74.3,200\n\n\n", "whole"),            # blank lines
        ("40.1,-74.2,100\n   \n40.2,-74.3,200\n", "rows"),             # whitespace only
        ("40.1,-74.2,100\n\t\n40.2,-74.3,200\n", "rows"),
        ("# a comment\n40.1,-74.2,100\n#40.2,-74.3,200\n", "rows"),
        ('"40.1",-74.2,100\n40.2,-74.3,200\n', "rows"),                # quoted field
        ("40.1,-74.2,1_00\n40.2,-74.3,200\n", "rows"),                 # float() reads 100
        ("40.1,-74.2,100,\n40.2,-74.3,200,\n", "whole"),               # trailing comma
        ("40.1,-74.2,100,7,,-1\n40.2,-74.3,200,1e5\n", "whole"),       # extra columns
        ("40.1,-74.2,100,x,,\"y\n40.2,-74.3,200,1_0\n", "rows"),       # text in them
        ("40.1,-74.2\n40.2,-74.3,200\n", "rows"),                      # too few fields
        ("40.1,,100\n40.2,-74.3,200\n", "rows"),                       # empty field
        (" 40.1 , -74.2 ,\t100 \n\x0c40.2,-74.3,200\x0b\n", "rows"),    # whitespace
        (" 40.1 , -74.2 ,\t100 \n\xa040.2,-74.3,200\u2003\n", "rows"),
        ("40.1\x1c,-74.2,100\n40.2,-74.3,200\n", "rows"),              # float() rejects it
        ("40.1,-74.2,100\x1f\n40.2,-74.3,200\n", "rows"),              # the line strip takes it
        ("40.1,-74.2,100\x00\n40.2,-74.3,200\n", "rows"),
        ("\u0664\u0660.1,-74.2,100\n40.2,-74.3,200\n", "rows"),        # float() reads 40.1
        ("nan,-74.2,100\n40.1,inf,110\n40.2,-74.3,1e500\n40.3,-74.4,-inf\n"
         "40.4,-74.5,NaN\n-Infinity,-74.6,120\n40.5,-74.7,1e-400\n40.6,-74.8,130\n", "whole"),
        ("90,-74.2,100\n90.0000001,-74.2,110\n-90,180,120\n40.1,-180.5,130\n"
         "-90.5,0,140\n0,-180,150\n-0.0,-0.0,160\n", "whole"),          # bounds
        ("40.1,-74.2,100\n91,-74.2,300\n40.2,-74.3,200\n40.3,-74.4,200\n"
         "40.4,-74.5,150\n40.5,-74.6,250\n", "whole"),                 # times after a skip
        ("91,-74.2,300\n40.1,-74.2,100\n40.2,-74.3,nan\n40.3,-74.4,50\n", "whole"),
        ("+40.1,-74.2,1.6e9\n.5,-7.,1600000000.5\n40.2,-74.3,16e8\n", "whole"),
    ])
    def test_csv_rows(self, tmp_path, monkeypatch, body, path_taken):
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + body, encoding="utf-8", newline="")
        assert parse_and_path(monkeypatch, path)[1] == path_taken

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "mixed"])
    def test_line_endings(self, tmp_path, monkeypatch, newline):
        rows = [CSV_HEADER.strip()] + [f"40.{i},-74.{i},{100 + i}" for i in range(9)] + [""] * 2
        ends = ["\n", "\r\n", "\r"] if newline == "mixed" else [newline]
        text = "".join(row + ends[i % len(ends)] for i, row in enumerate(rows))
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        ds, path_taken = parse_and_path(monkeypatch, path)
        assert path_taken == "whole" and len(ds) == 9 and ds.n_skipped == 0

    @pytest.mark.parametrize("text", ["", CSV_HEADER, CSV_HEADER + "\n\n", "lat,lon,timestamp"])
    def test_no_data_warns_once(self, tmp_path, monkeypatch, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        ds, path_taken = parse_and_path(monkeypatch, path)
        assert path_taken == "whole" and len(ds) == 0 and ds.n_skipped == 0
        _, messages = warned(parse_traces, path)
        assert messages == [f"no valid samples in {path} (0 rows skipped)"]

    def test_no_valid_row_warns_once(self, tmp_path, monkeypatch):
        path = tmp_path / "t.plt"
        path.write_text(PLT_HEADER + "91,0,0,100,40000.0,2020-01-01,00:00:00\n")
        ds, path_taken = parse_and_path(monkeypatch, path)
        assert path_taken == "whole" and len(ds) == 0 and ds.n_skipped == 1
        assert warned(parse_traces, path)[1] == [f"no valid samples in {path} (1 rows skipped)"]

    def test_compressed_suffix_read_as_text(self, tmp_path, monkeypatch):
        # numpy's reader would decompress a file with this suffix
        path = tmp_path / "t.csv.gz"
        path.write_text(CSV_HEADER + "40.1,-74.2,100\n40.2,-74.3,200\n")
        assert parse_and_path(monkeypatch, path)[1] == "rows"
        path.write_bytes(gzip.compress(path.read_bytes()))
        with pytest.raises(UnicodeDecodeError):
            parse_traces(path)

    def test_fifo_read_once_by_the_row_loop(self, tmp_path, monkeypatch):
        # a second open of a drained pipe would block or read nothing
        text = CSV_HEADER + "".join(f"40.{i},-74.{i},{100 + i}\n" for i in range(50))
        copy = tmp_path / "t.csv"
        copy.write_text(text)
        fifo = tmp_path / "t.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        row_loop, ran, parsed = mobility._read_rows, [], []
        monkeypatch.setattr(mobility, "_read_rows",
                            lambda *args: ran.append(args) or row_loop(*args))
        reader = threading.Thread(target=lambda: parsed.append(parse_traces(fifo, fmt="csv")),
                                  daemon=True)
        reader.start()
        reader.join(timeout=30)
        assert not reader.is_alive() and ran
        ds, ref = parsed[0], strptime_parse_traces(copy)
        for got, want in ((ds.lat, ref.lat), (ds.lon, ref.lon), (ds.t, ref.t)):
            assert got.tobytes() == want.tobytes()
        assert len(ds) == 50 and ds.n_skipped == ref.n_skipped == 0

    @pytest.mark.parametrize("last", ["40.0,116.0,1_0", '"40.0",116.0,1', "# end",
                                      "lat,lon,timestamp", "40.0,116.0,1\x00", "  ",
                                      "40.0, 116.0, 1"])
    def test_irregular_bytes_skip_the_reader(self, tmp_path, monkeypatch, last):
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "40.1,-74.2,100\n" * 100 + last + "\n")

        def no_reader(*args, **kwargs):
            raise AssertionError("numpy's reader ran")

        monkeypatch.setattr(mobility.np, "loadtxt", no_reader)
        assert parse_and_path(monkeypatch, path)[1] == "rows"

    def test_not_utf8_raises_as_the_row_loop(self, tmp_path):
        # past the first 8 KiB, so the error's byte position depends on how the text is read
        path = tmp_path / "t.csv"
        path.write_bytes(CSV_HEADER.encode() + b"40.1,-74.2,100\n" * 1000 + b"40.1,-74.2,1\xff\n")
        with pytest.raises(UnicodeDecodeError) as loop_error:
            mobility._read_rows(path, "csv", 1)
        with pytest.raises(UnicodeDecodeError) as parse_error:
            parse_traces(path)
        assert str(parse_error.value) == str(loop_error.value)

    @pytest.mark.parametrize("date,clock,path_taken", [
        ("2020-09-13", "12:00:00", "whole"),
        ("2020-09-13", "12:00:000", "rows"),          # over-long
        ("2020-09-131", "12:00:00", "rows"),
        ("2020-09-13xxxx", "12:00:00", "rows"),       # longer than the reader's field
        ("2020-09-13", "12:00:00xxxx", "rows"),
        ("2021-02-29", "12:00:00", "rows"),           # strptime rejects the day
        ("2020-09-13", "12:00:60", "rows"),
        ("2020-09-13", "24:00:00", "rows"),
        ("2020-09-13", "12:60:00", "rows"),
        ("\u0662\u0660\u0662\u0660-09-13", "12:00:00", "rows"),   # Arabic-Indic digits
        ("2020-09-13", "12:0\u0665:00", "rows"),
        ("2020-9-13", "12:00:00", "rows"),            # strptime reads short fields
        ("2020-09-13", "1:2:3", "rows"),
        ("2020-09-13", " 12:00:00", "rows"),
        ("2020-09-13", "12:00:00 ", "rows"),          # the line strip takes it
        ("2020-09-13", "12:00:00\x00", "rows"),
        ("2020-09-13", "12:00:00,1", "whole"),
        ("2020-09-13", "12:00:00,extra", "rows"),
        ("2020-09-13", "", "rows"),
        ("2020/09/13", "12:00:00", "rows"),
        ("2020-09-13", "12.00.00", "rows"),
    ])
    def test_plt_fields(self, tmp_path, monkeypatch, date, clock, path_taken):
        rows = ["39.9,116.4,0,100,40000.0,2020-09-12,23:59:59",
                f"39.91,116.41,0,100,40000.0,{date},{clock}",
                "39.92,116.42,0,100,40000.0,2020-09-14,00:00:00"]
        path = tmp_path / "t.plt"
        path.write_text(PLT_HEADER + "\n".join(rows) + "\n", encoding="utf-8", newline="")
        assert parse_and_path(monkeypatch, path)[1] == path_taken

    def test_plt_dates_out_of_order(self, tmp_path, monkeypatch):
        # distinct dates in no sorted order, each on several rows, plus skipped rows
        days = ["2008-10-23", "1969-12-31", "2008-10-23", "9999-12-31", "0001-01-01",
                "2020-02-29", "1970-01-01", "2008-10-24"]
        rng = np.random.default_rng(7)
        rows = [f"{rng.uniform(-95, 95):.6f},{rng.uniform(-185, 185):.6f},0,100,1.0,"
                f"{days[rng.integers(len(days))]},{rng.integers(24):02d}:"
                f"{rng.integers(60):02d}:{rng.integers(60):02d}" for _ in range(400)]
        path = tmp_path / "t.plt"
        path.write_text(PLT_HEADER + "\r\n".join(rows), encoding="utf-8", newline="")
        ds, path_taken = parse_and_path(monkeypatch, path)
        assert path_taken == "whole" and 0 < len(ds) < ds.n_skipped

    def test_plt_too_few_fields(self, tmp_path, monkeypatch):
        path = tmp_path / "t.plt"
        path.write_text(PLT_HEADER + "39.9,116.4,0,100,40000.0,2020-09-13\n"
                        "39.9,116.4,0,100,40000.0,2020-09-13,12:00:00\n")
        assert parse_and_path(monkeypatch, path)[1] == "rows"

    def test_short_header(self, tmp_path, monkeypatch):
        path = tmp_path / "t.plt"
        path.write_text("Geolife trajectory\n\n39.9,116.4,0,100,40000.0,2020-09-13,12:00:00\n")
        ds, path_taken = parse_and_path(monkeypatch, path)
        assert path_taken == "whole" and len(ds) == 0

    FIELDS = ["40.5", "-74.25", " 1.5", "1.5 ", "\xa01.5", "1.5\u2009", "+.5", "-0", "1.",
              "1e500", "-1e500", "1e-400", "nan", "-NaN", "inf", "-Infinity", "iNF", "4E1",
              "1_0", "0x1p3", "1d5", ".", "-", "", " ", "1,5", "\u0661", "1\xa02", "\x0b2",
              "2\x0c", "1.5e", "e5", "1e+5", "00012", "1" * 30, "0." + "3" * 40, "\t7\t"]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_fields(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        taken = set()
        for k in range(150):
            rows = [",".join(self.FIELDS[i] for i in rng.integers(len(self.FIELDS), size=3))
                    for _ in range(int(rng.integers(1, 4)))]
            path = tmp_path / f"t{k}.csv"
            path.write_text(CSV_HEADER + "\n".join(rows) + "\n", encoding="utf-8", newline="")
            taken.add(parse_and_path(monkeypatch, path)[1])
        assert taken == {"rows", "whole"}


class TestStationaryFlags:
    def test_first_sample_never_stationary(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, dwell_rows(0.0, 0.0, 100.0, 0.1))
        ds = parse_traces(p)
        flags = stationary_flags(ds, ClusterParams())
        assert not flags[0]
        assert flags[1:].all()

    def test_zero_speed_threshold_keeps_exact_repeats(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, [(40.1, -74.2, 0.0), (40.1, -74.2, 60.0),
                      (40.1001, -74.2, 120.0), (40.1001, -74.2, 180.0)])
        ds = parse_traces(p)
        flags = stationary_flags(ds, ClusterParams(min_speed_mps=0.0))
        # only the exact repeats survive a zero threshold
        assert list(flags) == [False, True, False, True]

    def test_fast_legs_flagged_moving(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = dwell_rows(0.0, 0.0, 0.0, 0.05)
        rows += travel_rows(0.0, 0.0, 5000.0, 0.0, rows[-1][2])
        write_csv(p, rows)
        ds = parse_traces(p)
        flags = stationary_flags(ds, ClusterParams(min_speed_mps=1.0))
        n_dwell = len(dwell_rows(0.0, 0.0, 0.0, 0.05))
        assert flags[1:n_dwell].all()
        assert not flags[n_dwell:].any()


class TestExtractPois:
    def test_all_moving_yields_nothing(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, travel_rows(0.0, 0.0, 20000.0, 0.0, 0.0))
        ds = parse_traces(p)
        pois, assignment = extract_pois(ds, ClusterParams())
        assert pois == []
        assert (assignment == -1).all()

    def test_two_distant_blobs_become_two_pois(self, tmp_path):
        p = tmp_path / "t.csv"
        commute_csv(p, [(0.0, 0.0), (10000.0, 0.0), (0.0, 0.0),
                        (10000.0, 0.0)])
        ds = parse_traces(p)
        pois, assignment = extract_pois(ds, ClusterParams())
        assert len(pois) == 2
        d01 = haversine_m(pois[0].lat, pois[0].lon, pois[1].lat, pois[1].lon)
        assert d01 == pytest.approx(10000.0, abs=20.0)
        # every stationary sample lands in one of the two clusters
        assert set(np.unique(assignment)) <= {-1, 0, 1}
        # roughly two dwells of mass each
        assert pois[0].stay_hours == pytest.approx(4.0, abs=0.2)
        assert pois[1].stay_hours == pytest.approx(4.0, abs=0.2)

    def test_nearby_blobs_merge_below_min_dist(self, tmp_path):
        p = tmp_path / "t.csv"
        commute_csv(p, [(0.0, 0.0), (150.0, 0.0), (0.0, 0.0)])
        ds = parse_traces(p)
        pois, _ = extract_pois(ds, ClusterParams(min_dist_m=500.0))
        assert len(pois) == 1
        assert pois[0].stay_hours == pytest.approx(6.0, abs=0.3)

    def test_short_stays_filtered(self, tmp_path):
        p = tmp_path / "t.csv"
        # half-hour dwell at one spot, three hours at the other
        rows = dwell_rows(0.0, 0.0, 0.0, 0.5)
        leg = travel_rows(0.0, 0.0, 10000.0, 0.0, rows[-1][2])
        rows += leg
        rows += dwell_rows(10000.0, 0.0, leg[-1][2] + 5.0, 3.0)
        write_csv(p, rows)
        ds = parse_traces(p)
        pois, _ = extract_pois(ds, ClusterParams(min_stay_h=1.0))
        assert len(pois) == 1
        assert pois[0].stay_hours >= 1.0

    def test_retained_pois_respect_spacing(self, trace_path):
        ds = parse_traces(trace_path)
        params = ClusterParams()
        pois, _ = extract_pois(ds, params)
        for i in range(len(pois)):
            assert pois[i].stay_hours >= params.min_stay_h
            for j in range(i + 1, len(pois)):
                d = haversine_m(pois[i].lat, pois[i].lon,
                                pois[j].lat, pois[j].lon)
                assert d >= params.min_dist_m

    def test_members_cover_assignment(self, tmp_path):
        p = tmp_path / "t.csv"
        commute_csv(p, [(0.0, 0.0), (10000.0, 0.0)])
        ds = parse_traces(p)
        pois, assignment = extract_pois(ds, ClusterParams())
        for i, poi in enumerate(pois):
            np.testing.assert_array_equal(np.asarray(poi.members),
                                          np.nonzero(assignment == i)[0])


def poi_at(x_m, y_m, radius, stay=2.0):
    lat, lon = offset_latlon(REF[0], REF[1], x_m, y_m)
    return PoiCluster(lat, lon, radius, stay, ())


class TestBuildCloaks:
    def test_two_pois_dedupe_to_single_cloak(self):
        pois = [poi_at(0.0, 0.0, 60.0), poi_at(1000.0, 0.0, 80.0)]
        cloaks = build_cloaks(pois, ClusterParams(k_anonymity=2))
        assert len(cloaks) == 1
        assert cloaks[0].covered == (0, 1)

    def test_hand_geometry(self):
        pois = [poi_at(0.0, 0.0, 60.0), poi_at(1000.0, 0.0, 80.0)]
        (cloak,) = build_cloaks(pois, ClusterParams(k_anonymity=2))
        mid = offset_latlon(REF[0], REF[1], 500.0, 0.0)
        assert haversine_m(cloak.lat, cloak.lon, mid[0], mid[1]) < 1.0
        assert cloak.radius_m == pytest.approx(580.0, abs=1.0)

    def test_k_one_keeps_separate_disks(self):
        pois = [poi_at(0.0, 0.0, 60.0), poi_at(5000.0, 0.0, 80.0)]
        cloaks = build_cloaks(pois, ClusterParams(k_anonymity=1))
        assert len(cloaks) == 2
        assert [c.covered for c in cloaks] == [(0,), (1,)]
        assert cloaks[0].radius_m == pytest.approx(60.0, abs=1e-6)

    def test_k_larger_than_poi_count_raises(self):
        with pytest.raises(ValueError):
            build_cloaks([poi_at(0.0, 0.0, 60.0)], ClusterParams(k_anonymity=2))

    def test_every_cloak_covers_k_or_more(self):
        pois = [poi_at(0.0, 0.0, 50.0), poi_at(2000.0, 0.0, 50.0),
                poi_at(0.0, 2000.0, 50.0), poi_at(2000.0, 2000.0, 50.0),
                poi_at(1000.0, 4000.0, 50.0)]
        params = ClusterParams(k_anonymity=3)
        cloaks = build_cloaks(pois, params)
        for c in cloaks:
            assert len(c.covered) >= 3
            for j in c.covered:
                d = haversine_m(c.lat, c.lon, pois[j].lat, pois[j].lon)
                assert d + pois[j].radius_m <= c.radius_m + 1e-3

    def test_covered_sets_unique(self):
        pois = [poi_at(0.0, 0.0, 50.0), poi_at(600.0, 0.0, 50.0),
                poi_at(1200.0, 0.0, 50.0)]
        cloaks = build_cloaks(pois, ClusterParams(k_anonymity=2))
        seen = [c.covered for c in cloaks]
        assert len(seen) == len(set(seen))


class TestEstimateTransitions:
    def mini_dataset(self, spots, assign_pois):
        rows = []
        t = 0.0
        for (x, y) in spots:
            for r in dwell_rows(x, y, t, 1.5):
                rows.append(r)
            t = rows[-1][2] + 3600.0   # hour gap, unassigned travel implied
        lat = np.array([float(r[0]) for r in rows])
        lon = np.array([float(r[1]) for r in rows])
        ts = np.array([r[2] for r in rows])
        ds = TraceDataset(lat, lon, ts, None, 0)
        return ds, assign_pois

    def test_alternating_visits(self):
        ds, pois = self.mini_dataset(
            [(0.0, 0.0), (10000.0, 0.0), (0.0, 0.0), (10000.0, 0.0)],
            [poi_at(0.0, 0.0, 100.0), poi_at(10000.0, 0.0, 100.0)])
        counts, p = estimate_transitions(ds, pois, ClusterParams())
        np.testing.assert_array_equal(counts, [[0, 2], [1, 0]])
        np.testing.assert_allclose(p, [[0.0, 1.0], [1.0, 0.0]])

    def test_single_poi_self_loop(self):
        ds, pois = self.mini_dataset([(0.0, 0.0)], [poi_at(0.0, 0.0, 100.0)])
        counts, p = estimate_transitions(ds, pois, ClusterParams())
        np.testing.assert_array_equal(counts, [[0]])
        np.testing.assert_allclose(p, [[1.0]])

    def test_unvisited_poi_row_self_loops(self):
        ds, pois = self.mini_dataset(
            [(0.0, 0.0), (10000.0, 0.0), (0.0, 0.0)],
            [poi_at(0.0, 0.0, 100.0), poi_at(10000.0, 0.0, 100.0),
             poi_at(50000.0, 0.0, 100.0)])
        counts, p = estimate_transitions(ds, pois, ClusterParams())
        assert counts[2].sum() == 0
        np.testing.assert_allclose(p[2], [0.0, 0.0, 1.0])

    def test_bundled_fixture_counts_exact(self, trace_path):
        ds = parse_traces(trace_path)
        params = ClusterParams()
        pois, _ = extract_pois(ds, params)
        assert len(pois) == 2
        counts, p = estimate_transitions(ds, pois, params)
        home = int(np.argmax([q.stay_hours for q in pois]))
        work = 1 - home
        assert counts[home, home] == 1
        assert counts[home, work] == 5
        assert counts[work, home] == 5
        assert counts[work, work] == 0
        assert p[home, home] == 1.0 / 6.0
        assert p[home, work] == 5.0 / 6.0
        assert p[work, home] == 1.0
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=0)


class TestAssembleMdp:
    def test_single_poi_unit_quality(self):
        pois = [poi_at(0.0, 0.0, 50.0)]
        cloaks = build_cloaks(pois, ClusterParams(k_anonymity=1))
        mdp = assemble_mdp(pois, cloaks, np.array([[1.0]]))
        assert mdp.n_states == 1 and mdp.n_actions == 1
        assert mdp.available == ((0,),)
        assert mdp.utility[0, 0] == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(mdp.p0, [1.0])

    def test_quality_quadratic_in_radius(self):
        pois = [poi_at(0.0, 0.0, 50.0)]
        cloaks = [CloakRegion(pois[0].lat, pois[0].lon, 100.0, (0,))]
        mdp = assemble_mdp(pois, cloaks, np.array([[1.0]]))
        assert mdp.utility[0, 0] == pytest.approx(4.0, abs=1e-9)

    def test_tiny_poi_radius_floored(self):
        pois = [poi_at(0.0, 0.0, 2.0)]
        cloaks = [CloakRegion(pois[0].lat, pois[0].lon, 20.0, (0,))]
        mdp = assemble_mdp(pois, cloaks, np.array([[1.0]]))
        # state disk area floors at radius 10
        assert mdp.utility[0, 0] == pytest.approx(4.0, abs=1e-9)

    def test_unavailable_sentinel_strictly_dominates(self):
        pois = [poi_at(0.0, 0.0, 50.0), poi_at(5000.0, 0.0, 50.0)]
        cloaks = build_cloaks(pois, ClusterParams(k_anonymity=1))
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        mdp = assemble_mdp(pois, cloaks, p)
        assert mdp.available == ((0,), (1,))
        u_avail = max(mdp.utility[0, 0], mdp.utility[1, 1])
        assert mdp.utility[0, 1] == mdp.utility[1, 0] > u_avail

    def test_pipeline_end_to_end(self, trace_path):
        mdp, pois, cloaks, diag = build_model_from_traces(
            trace_path, ClusterParams())
        assert mdp.n_states == 2
        assert mdp.n_actions == 1
        assert len(cloaks) == 1
        assert cloaks[0].covered == (0, 1)
        report = check_unichain_exhaustive(mdp)
        assert report.status == "unichain"
        assert diag["n_samples"] == 9910

    def test_empty_traces_raise(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, travel_rows(0.0, 0.0, 30000.0, 0.0, 0.0))
        with pytest.raises(EmptyPoiError):
            build_model_from_traces(p, ClusterParams())


class TestFixtureIntegrity:
    def test_row_count_and_digest(self, trace_path):
        data = trace_path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == FIXTURE_SHA
        assert len(data.decode().strip().splitlines()) == 9911  # header + rows


class TestWritePoiSummary:
    def test_structure(self, tmp_path, trace_path):
        _, pois, cloaks, _ = build_model_from_traces(trace_path,
                                                     ClusterParams())
        out = tmp_path / "pois.csv"
        write_poi_summary(out, pois, cloaks)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id,lat,lon,radius,stay_hours,covered_pois"
        assert len(lines) == 1 + len(pois) + len(cloaks)
        first = lines[1].split(",")
        assert first[0] == "s1"
        assert float(first[4]) == pytest.approx(pois[0].stay_hours, rel=1e-12)
        cloak_row = lines[1 + len(pois)].split(",")
        assert cloak_row[0] == "a1"
        assert set(cloak_row[5].split()) == {"s1", "s2"}


def load_trace_script():
    return load_module("make_synthetic_traces", ROOT / "scripts" / "make_synthetic_traces.py")


def slow_trace(points):
    """Dataset visiting `points` (lat, lon) 1e5 s apart, so every sample after
    the first is stationary at the default 1 m/s."""
    lat = np.array([p[0] for p in points], dtype=float)
    lon = np.array([p[1] for p in points], dtype=float)
    return TraceDataset(lat, lon, np.arange(lat.size) * 1e5)


def stays_trace(*stays):
    """Dataset of the given stays, lists of points (lat, lon): each stay's
    samples 1e5 s apart, so stationary at the default 1 m/s, after a sample
    10 km north of the reference that arrives at 10 km/s, so not stationary.
    Each stay is one run of consecutive stationary samples."""
    moving = offset_latlon(REF[0], REF[1], 0.0, 10000.0)
    lat, lon, t = [], [], []
    for stay in stays:
        for k, (la, lo) in enumerate([moving] + list(stay)):
            t.append(t[-1] + (1e5 if k else 1.0) if t else 0.0)
            lat.append(la)
            lon.append(lo)
    return TraceDataset(np.array(lat), np.array(lon), np.array(t))


def mean_of(points):
    """Centroid of points as the clustering forms it: sums in order over the count."""
    sla = slo = 0.0
    for la, lo in points:
        sla, slo = sla + la, slo + lo
    return sla / len(points), slo / len(points)


def assert_matches_oracle(traces, params):
    """extract_pois and estimate_transitions equal the scalar loops exactly."""
    pois, assignment = extract_pois(traces, params)
    ref_pois, ref_assignment = scalar_extract_pois(traces, params)
    assert pois == ref_pois
    np.testing.assert_array_equal(assignment, ref_assignment)
    counts, p = estimate_transitions(traces, pois, params)
    ref_counts, ref_p = scalar_estimate_transitions(traces, pois, params)
    assert (counts == ref_counts).all() and (p == ref_p).all()
    return pois


class TestScalarOracle:
    def test_bundled_fixture(self, trace_path):
        assert len(assert_matches_oracle(parse_traces(trace_path), ClusterParams())) == 2

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_script_traces(self, tmp_path, seed):
        path = tmp_path / "t.csv"
        load_trace_script().write_traces(path, seed)
        traces = parse_traces(path)
        params = ClusterParams()
        # longer than a block of the visit-sequence screen, with stays whose
        # runs go on past the first two chunks
        idxs = np.flatnonzero(stationary_flags(traces, params))
        assert idxs.size > BLOCK_ROWS
        assert np.diff(mobility._stays(idxs)).max() > RUN_CHUNK * (1 + RUN_GROWTH)
        assert_matches_oracle(traces, params)
        # small join radius: many clusters, many merges, samples on cluster fringes
        assert len(assert_matches_oracle(traces, ClusterParams(max_radius_m=2.0,
                                                               min_dist_m=3.0,
                                                               min_stay_h=0.0))) > 2

    def test_sample_on_disk_boundary(self):
        center, edge = (40.0, -74.0), (40.0005, -74.0003)
        # the edge sample splits the stay at the center in two visits unless it
        # is inside the disk
        traces = slow_trace([center, center, edge, center])
        d = haversine_m(edge[0], edge[1], center[0], center[1])
        radius = d - COVER_TOL_M
        while radius + COVER_TOL_M < d:
            radius = np.nextafter(radius, np.inf)
        while radius + COVER_TOL_M > d:
            radius = np.nextafter(radius, -np.inf)
        assert radius + COVER_TOL_M == d
        params = ClusterParams()
        for r, expect in ((radius, [0, 0, 0]), (np.nextafter(radius, -np.inf), [0, -1, 0])):
            pois = [PoiCluster(center[0], center[1], r, 1.0)]
            assert list(scalar_nearest_disk(traces, pois, params)) == expect
            counts, p = estimate_transitions(traces, pois, params)
            ref_counts, ref_p = scalar_estimate_transitions(traces, pois, params)
            assert (counts == ref_counts).all() and (p == ref_p).all()
            assert counts[0, 0] == (expect[1] == -1)

    def test_sample_on_cluster_boundary(self):
        a, b = (40.0, -74.0), (40.0005, -74.0003)
        # a stay fills cluster 0 at a; b opens the next stay, so the screen
        # against the centroid unit vectors decides it up to the band
        n = RUN_CHUNK * (1 + RUN_GROWTH) + 10
        traces = stays_trace([a] * n, [b])
        d = haversine_m(b[0], b[1], *mean_of([a] * n))
        for radius, n_clusters in ((d, 1), (np.nextafter(d, 0.0), 2)):
            params = ClusterParams(max_radius_m=radius, min_dist_m=0.0, min_stay_h=0.0)
            assert len(assert_matches_oracle(traces, params)) == n_clusters

    def test_equidistant_pois_go_to_lower_index(self):
        step = 2.0 ** -12     # exact in binary, so both offsets are exact
        far = offset_latlon(40.0, -74.0, 10000.0, 0.0)
        traces = slow_trace([(40.0, -74.0)] * 2 + [far])
        east = PoiCluster(40.0, -74.0 + step, 50.0, 1.0)
        west = PoiCluster(40.0, -74.0 - step, 50.0, 1.0)
        assert haversine_m(40.0, -74.0, east.lat, east.lon) == \
            haversine_m(40.0, -74.0, west.lat, west.lon)
        params = ClusterParams()
        for pois in ([east, west, PoiCluster(far[0], far[1], 50.0, 1.0)],
                     [west, east, PoiCluster(far[0], far[1], 50.0, 1.0)]):
            assert list(scalar_nearest_disk(traces, pois, params)) == [0, 2]
            counts, p = estimate_transitions(traces, pois, params)
            ref_counts, ref_p = scalar_estimate_transitions(traces, pois, params)
            assert (counts == ref_counts).all() and (p == ref_p).all()
            assert counts[0, 2] == 1.0

    def test_join_to_centroid_moved_by_a_run(self):
        home = (40.0, -74.0)
        away = offset_latlon(40.0, -74.0, 10000.0, 0.0)
        east60 = offset_latlon(40.0, -74.0, 60.0, 0.0)
        east140 = offset_latlon(40.0, -74.0, 140.0, 0.0)
        # a run of samples 60 m east drags the home centroid east; after a run
        # far away, a sample 140 m east is out of reach of home but within
        # reach of the moved centroid, which the decision must screen against
        points = [home, home] + [east60] * 100 + [away] * 10 + [east140]
        traces = slow_trace(points)
        params = ClusterParams(min_dist_m=0.0, min_stay_h=0.0)
        pois = assert_matches_oracle(traces, params)
        assert len(pois) == 2
        _, assignment = extract_pois(traces, params)
        assert assignment[-1] == assignment[1]

    @staticmethod
    def planar(xs_m):
        return [offset_latlon(40.0, -74.0, x, 0.0) for x in xs_m]

    def test_run_drifts_out_of_radius(self):
        # each sample 3 m east of the last: the running centroid lags behind
        # and a sample leaves its radius every ~65 samples, inside a chunk
        traces = slow_trace(self.planar(3.0 * np.arange(RUN_CHUNK * (1 + RUN_GROWTH) + 50)))
        params = ClusterParams(min_dist_m=0.0, min_stay_h=0.0)
        assert len(assert_matches_oracle(traces, params)) > 6

    def test_run_crosses_chunk_boundaries(self, monkeypatch):
        rng = np.random.default_rng(7)
        xy = rng.uniform(-20.0, 20.0, size=(RUN_CHUNK * (1 + RUN_GROWTH) + 200, 2))
        traces = slow_trace([offset_latlon(40.0, -74.0, x, y) for x, y in xy])
        params = ClusterParams(min_dist_m=0.0, min_stay_h=0.0)
        calls, decisions, chunks = [], [], []
        monkeypatch.setattr(mobility, "haversine_m",
                            lambda *args: calls.append(args) or haversine_m(*args))
        first_cluster, sure_run = mobility._first_cluster, mobility._sure_run
        monkeypatch.setattr(mobility, "_first_cluster",
                            lambda *args: decisions.append(1) or first_cluster(*args))
        monkeypatch.setattr(mobility, "_sure_run",
                            lambda *args: chunks.append(args[0].size) or sure_run(*args))
        pois, _ = extract_pois(traces, params)
        # one decided sample, the rest joined in one run of growing chunks
        # that ends at the end of the stay (the first sample is not stationary)
        assert len(pois) == 1 and len(calls) < 10 and len(decisions) == 1
        assert chunks == [RUN_CHUNK, RUN_CHUNK * RUN_GROWTH, 200 - 2]
        monkeypatch.undo()
        assert assert_matches_oracle(traces, params) == pois

    @pytest.mark.parametrize("same_stay", [False, True])
    def test_lower_cluster_reachable_mid_run(self, same_stay):
        home, work, between = self.planar([0.0, 150.0, 75.0])
        # a run joins samples at work to cluster 1 until a sample within reach
        # of both centroids, which goes to cluster 0; home's cluster formed
        # either in an earlier stay or earlier in the same stay
        if same_stay:
            points = [home] * 10 + [work] * 100 + [between] + [work] * 20
            traces = slow_trace(points)
        else:
            points = [home] * 2 + [work] * 300 + [between] + [work] * 20
            traces = stays_trace(points[:2], points[2:])
            points = [None] + points[:2] + [None] + points[2:]   # as the samples lie
        params = ClusterParams(min_dist_m=0.0, min_stay_h=0.0)
        pois = assert_matches_oracle(traces, params)
        _, assignment = extract_pois(traces, params)
        assert len(pois) == 2
        assert assignment[points.index(between)] == assignment[1] != assignment[-1]

    def test_sample_on_running_centroid_radius(self):
        a, b = (40.0, -74.0), (40.0005, -74.0003)
        # the sample b ends a run that has joined ten samples at a
        traces = slow_trace([a] * 11 + [b] + [a] * 5)
        d = haversine_m(b[0], b[1], *mean_of([a] * 10))
        for radius, n_clusters in ((d, 1), (np.nextafter(d, 0.0), 2)):
            params = ClusterParams(max_radius_m=radius, min_dist_m=0.0, min_stay_h=0.0)
            assert len(assert_matches_oracle(traces, params)) == n_clusters

    @staticmethod
    def screen_disagrees(center, east_deg, above):
        """A point near (40, -74 + east_deg) whose squared chord to center, as
        the screens compute it, lies above (else below) chord2_at_m of its
        haversine_m distance, and that distance.

        The two differ in the last bits on most points.
        """
        rng = np.random.default_rng(3)
        for _ in range(50):
            lat = 40.0 + rng.uniform(-1e-4, 1e-4, 4096)
            lon = -74.0 + east_deg + rng.uniform(-5e-5, 5e-5, 4096)
            screen = chord2(unit_vectors(lat, lon), unit_vectors(*center)[:, None])
            exact = np.array([haversine_m(la, lo, *center)
                              for la, lo in zip(lat.tolist(), lon.tolist())])
            hits = np.flatnonzero(screen > chord2_at_m(exact) if above
                                  else screen < chord2_at_m(exact))
            if hits.size:
                k = hits[0]
                return (float(lat[k]), float(lon[k])), float(exact[k])
        pytest.skip("the chord screen agrees with haversine_m on every point tried")

    def test_screen_below_exact_distance_to_running_centroid(self):
        home = (40.0, -74.0)
        center = mean_of([home] * 10)
        far, d = self.screen_disagrees(center, 8e-4, above=False)     # ~70 m east
        # the screen puts `far` within the radius, haversine_m just beyond it
        traces = slow_trace([home] * 11 + [far] + [home] * 5)
        params = ClusterParams(max_radius_m=np.nextafter(d, 0.0), min_dist_m=0.0,
                               min_stay_h=0.0)
        assert len(assert_matches_oracle(traces, params)) == 2

    def test_screen_above_exact_distance_to_lower_cluster(self):
        home, work = self.planar([0.0, 150.0])
        center = mean_of([home] * 10)
        edge, d = self.screen_disagrees(center, 1.17e-3, above=True)  # ~100 m east
        # during a run at work, `edge` lies on the radius of home's cluster,
        # a lower cluster; the screen puts it just beyond
        points = [home] * 11 + [work] * 20 + [edge] + [work] * 5
        traces = slow_trace(points)
        params = ClusterParams(max_radius_m=d, min_dist_m=0.0, min_stay_h=0.0)
        assert len(assert_matches_oracle(traces, params)) == 2
        _, assignment = extract_pois(traces, params)
        assert assignment[points.index(edge)] == assignment[1]

    @pytest.mark.parametrize("step_m,jump_p,radius", [(30.0, 0.05, 100.0), (2.0, 0.3, 20.0),
                                                      (60.0, 0.0, 50.0)])
    def test_random_walk(self, step_m, jump_p, radius):
        rng = np.random.default_rng(11)
        xy = np.cumsum(rng.normal(0.0, step_m, size=(1500, 2)), axis=0)
        jumps = rng.random(1500) < jump_p
        xy[jumps] = rng.uniform(-2000.0, 2000.0, size=(int(jumps.sum()), 2))
        traces = slow_trace([offset_latlon(40.0, -74.0, x, y) for x, y in xy])
        assert_matches_oracle(traces, ClusterParams(max_radius_m=radius, min_dist_m=0.0,
                                                    min_stay_h=0.0))

    def test_no_stationary_samples(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, travel_rows(0.0, 0.0, 20000.0, 0.0, 0.0))
        traces = parse_traces(p)
        assert not stationary_flags(traces, ClusterParams()).any()
        assert assert_matches_oracle(traces, ClusterParams()) == []
        pois = [poi_at(0.0, 0.0, 100.0), poi_at(10000.0, 0.0, 100.0)]
        counts, p = estimate_transitions(traces, pois, ClusterParams())
        assert (counts == 0).all() and (p == np.eye(2)).all()

    def test_single_poi(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, dwell_rows(0.0, 0.0, 0.0, 3.0))
        assert len(assert_matches_oracle(parse_traces(p), ClusterParams())) == 1


class TestOncePerTrace:
    """The pair screens run on unit vectors taken once per trace; the step
    distances, which define the stationarity speeds, are taken once per trace."""

    def test_haversine_many_only_for_step_distances(self, trace_path, monkeypatch):
        callers, many = [], geo.haversine_many_m

        def counted(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return many(*args)

        monkeypatch.setattr(geo, "haversine_many_m", counted)
        assert not hasattr(mobility, "haversine_many_m")
        build_model_from_traces(trace_path, ClusterParams())
        assert callers == ["step_distances_m"]

    def test_sample_vectors_once(self, trace_path, monkeypatch):
        callers, units = [], mobility.unit_vectors

        def counted(lat, lon):
            callers.append((sys._getframe(1).f_code.co_name, np.size(lat)))
            return units(lat, lon)

        monkeypatch.setattr(mobility, "unit_vectors", counted)
        traces = parse_traces(trace_path)
        n_stationary = int(stationary_flags(traces, ClusterParams()).sum())
        assert n_stationary > BLOCK_ROWS
        pois, _ = extract_pois(traces, ClusterParams())
        estimate_transitions(traces, pois, ClusterParams())
        assert [c for c in callers if c[0] == "screen_units"] == [("screen_units", n_stationary)]
        # the rest are centroids: of a cluster, of a run, of the POIs
        assert {name for name, _ in callers} == {"screen_units", "_greedy_clusters",
                                                 "_sure_run", "_nearest_disk"}

    def test_speeds_are_step_distances_over_time(self, trace_path):
        traces = parse_traces(trace_path)
        traces.t[5] = traces.t[4]      # a step of no time
        dist = geo.step_distances_m(traces.lat, traces.lon)
        speeds = traces.speeds
        assert speeds[4] == np.inf
        keep = np.arange(speeds.size) != 4
        assert speeds[keep].tobytes() == (dist[keep] / np.diff(traces.t)[keep]).tobytes()
        assert traces.speeds is speeds


class TestStays:
    """Both trace screens work a stay, a run of consecutive stationary
    samples, at a time; every answer equals the scalar oracles' exactly."""

    @staticmethod
    def assert_nearest_disk_matches(traces, pois, params=ClusterParams()):
        idxs = np.flatnonzero(stationary_flags(traces, params))
        seq = mobility._nearest_disk(traces, idxs, pois)
        np.testing.assert_array_equal(seq, scalar_nearest_disk(traces, pois, params))
        return seq.tolist()

    @staticmethod
    def planar(*xs_m):
        return [offset_latlon(REF[0], REF[1], x, 0.0) for x in xs_m]

    def test_first_sample_nearer_another_poi(self):
        pois = [poi_at(0.0, 0.0, 60.0), poi_at(100.0, 0.0, 60.0)]
        # each stay's first sample makes one POI its candidate (inside its
        # disk or outside both); later samples lie where the disks overlap
        # and are nearer the other POI
        traces = stays_trace(self.planar(95.0, 45.0, 0.0, 42.0),
                             self.planar(170.0, 45.0, 55.0),
                             self.planar(5.0, 58.0, 95.0))
        assert self.assert_nearest_disk_matches(traces, pois) == [
            1, 0, 0, 0, -1, 0, 1, 0, 1, 1]

    @pytest.mark.parametrize("overlap_m", [0.0, 0.5])
    def test_disks_nearly_touch(self, overlap_m):
        a, b = poi_at(0.0, 0.0, 50.0), poi_at(100.0, 0.0, 50.0)
        # the disks touch to a hair's width, or overlap by half a metre: no
        # stay near one is clear of the other, so its samples are settled one
        # by one
        b.lon = np.nextafter(b.lon, np.inf)
        edge = haversine_m(a.lat, a.lon, b.lat, b.lon) / 2.0
        a.radius_m = b.radius_m = edge + overlap_m
        stays = [self.planar(0.0, 20.0, edge - 0.2, edge, edge + 0.2, 49.0),
                 self.planar(100.0, 60.0, edge, 51.0, 50.0, edge - 0.2),
                 self.planar(edge, edge + 1e-7, edge - 1e-7)]
        seq = self.assert_nearest_disk_matches(stays_trace(*stays), [a, b])
        assert seq[:2] == [0, 0] and seq[6] == 1
        assert self.assert_nearest_disk_matches(stays_trace(*stays), [b, a])[6] == 0

    def test_sample_in_the_band_of_another_disk(self):
        a, b = poi_at(0.0, 0.0, 70.0), poi_at(100.0, 0.0, 40.0)
        (x,) = self.planar(60.0 - 5e-7)
        # x lies surely inside a's disk and inside b's by less than the band,
        # nearer b: no stay holding it is clear of b
        b.radius_m = haversine_m(*x, b.lat, b.lon) - 5e-7
        traces = stays_trace([(a.lat, a.lon), x], [x, (a.lat, a.lon)])
        assert self.assert_nearest_disk_matches(traces, [a, b]) == [0, 1, 1, 0]

    def test_stay_half_inside_a_disk(self):
        pois = [poi_at(0.0, 0.0, 40.0), poi_at(5000.0, 0.0, 40.0)]
        xs = np.arange(0.0, 81.0, 4.0)
        # clear of the far POI: the samples surely inside take the candidate,
        # the rest (the one on the edge too) are settled one by one
        seq = self.assert_nearest_disk_matches(stays_trace(self.planar(*xs)), pois)
        dist = [haversine_m(la, lo, pois[0].lat, pois[0].lon) for la, lo in self.planar(*xs)]
        assert seq == [0 if d <= 40.0 + COVER_TOL_M else -1 for d in dist]
        assert seq.count(0) == 11

    def test_stay_of_a_dropped_cluster(self):
        home, work, shop = self.planar(0.0, 3000.0, 150.0)
        # the stay at the shop makes a cluster too short to keep; its samples
        # lie near home's disk but outside it
        traces = stays_trace([home] * 10, [work] * 10, [shop] * 2, [home] * 3)
        params = ClusterParams(min_dist_m=100.0, min_stay_h=100.0)
        pois = assert_matches_oracle(traces, params)
        assert len(pois) == 2
        assert self.assert_nearest_disk_matches(traces, pois, params) == \
            [0] * 10 + [1] * 10 + [-1] * 2 + [0] * 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_stays_near_pois(self, seed):
        rng = np.random.default_rng(seed)
        pois = [poi_at(x, y, r) for (x, y), r in zip(rng.uniform(-150.0, 150.0, (6, 2)),
                                                    rng.uniform(5.0, 60.0, 6))]
        stays = []
        for _ in range(40):
            cx, cy = rng.uniform(-200.0, 200.0, 2)
            xy = rng.normal((cx, cy), rng.uniform(0.0, 30.0), (int(rng.integers(1, 60)), 2))
            stays.append([offset_latlon(REF[0], REF[1], x, y) for x, y in xy])
        self.assert_nearest_disk_matches(stays_trace(*stays), pois)

    def test_one_decision_per_stay_on_a_benchmark_trace(self, monkeypatch):
        gen = load_module("perfbench_gen", ROOT / "perfbench" / "gen.py")
        trace = gen.make_trace(5, 0, 10, 50_000)
        traces = TraceDataset(trace.lat, trace.lon, trace.t)
        params = ClusterParams()
        idxs = np.flatnonzero(stationary_flags(traces, params))
        decisions, first_cluster = [], mobility._first_cluster
        monkeypatch.setattr(mobility, "_first_cluster",
                            lambda *args: decisions.append(1) or first_cluster(*args))
        extract_pois(traces, params)
        n_stays = mobility._stays(idxs).size - 1
        assert n_stays > 100 and len(decisions) <= 2 * n_stays

    @pytest.mark.parametrize("seed", [5, 77, 1501])
    def test_benchmark_shapes_match_scalar_pipeline(self, tmp_path, seed):
        gen = load_module("perfbench_gen", ROOT / "perfbench" / "gen.py")
        params = ClusterParams()
        for user, (places, samples, fmt) in enumerate([(3, 4_000, "csv"), (4, 4_000, "plt")]):
            path = tmp_path / f"user{user}.{fmt}"
            (gen.write_plt if fmt == "plt" else gen.write_csv)(
                gen.make_trace(seed, user, places, samples), path)
            mdp, pois, cloaks, diag = build_model_from_traces(path, params)
            traces = strptime_parse_traces(path)
            ref_pois, _ = scalar_extract_pois(traces, params)
            ref_cloaks = build_cloaks(ref_pois, params)
            counts, p = scalar_estimate_transitions(traces, ref_pois, params)
            assert pois == ref_pois and cloaks == ref_cloaks
            assert diag["visit_transitions"] == int(counts.sum()) > 0
            save_mdp(mdp, tmp_path / "mdp.json")
            save_mdp(assemble_mdp(ref_pois, ref_cloaks, p), tmp_path / "ref.json")
            assert (tmp_path / "mdp.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def random_walk(seed, n, step_m, jump_p=0.0, box_m=4000.0):
    """Slow trace of an n-point planar random walk with Gaussian steps and,
    with probability jump_p per point, a jump anywhere in a box_m square."""
    rng = np.random.default_rng(seed)
    xy = np.cumsum(rng.normal(0.0, step_m, size=(n, 2)), axis=0)
    jumps = rng.random(n) < jump_p
    xy[jumps] = rng.uniform(-box_m / 2, box_m / 2, size=(int(jumps.sum()), 2))
    return slow_trace([offset_latlon(40.0, -74.0, x, y) for x, y in xy])


class TestMergeScan:
    """_merge_close merges the same pairs in the same order as the scan that
    restarts from (0, 1) after every merge (support.restart_merge_close)."""

    @staticmethod
    def assert_merges_as_restart(monkeypatch, traces, params):
        pois, assignment = extract_pois(traces, params)
        monkeypatch.setattr(mobility, "_merge_close", restart_merge_close)
        ref_pois, ref_assignment = extract_pois(traces, params)
        monkeypatch.undo()
        assert pois == ref_pois
        assert (assignment == ref_assignment).all()
        return pois

    @staticmethod
    def merge_calls(monkeypatch, traces, params):
        """(clusters before the merge, haversine_m calls it makes)."""
        idxs = np.nonzero(stationary_flags(traces, params))[0]
        sums, joined = mobility._greedy_clusters(traces, idxs, params.max_radius_m)
        members = [idxs[joined == c] for c in range(len(sums))]
        label = np.full(len(traces), -1)
        label[idxs] = joined
        k, calls = len(sums), []
        monkeypatch.setattr(mobility, "haversine_m",
                            lambda *args: calls.append(args) or haversine_m(*args))
        mobility._merge_close(sums, members, label, params.min_dist_m)
        monkeypatch.undo()
        return k, len(calls)

    def test_random_walk_of_3000_samples(self, monkeypatch):
        # the restarting scan makes 331 687 haversine_m calls on these 392 clusters
        traces = random_walk(0, 3000, 60.0)
        params = ClusterParams(min_stay_h=0.0)
        assert len(self.assert_merges_as_restart(monkeypatch, traces, params)) == 20
        k, calls = self.merge_calls(monkeypatch, traces, params)
        assert k == 392 and calls <= k * k // 4

    # seeds 1, 3 and the scatter of seed 2 each merge a grown centroid into an earlier cluster
    @pytest.mark.parametrize("seed,n,step_m,jump_p,min_dist", [
        (1, 1200, 60.0, 0.0, 500.0), (3, 1200, 30.0, 0.0, 300.0), (4, 1200, 10.0, 0.1, 200.0),
        (5, 1200, 60.0, 0.3, 800.0), (2, 400, 2.0, 1.0, 400.0), (1, 400, 2.0, 1.0, 700.0)])
    def test_seeded_walks(self, monkeypatch, seed, n, step_m, jump_p, min_dist):
        traces = random_walk(seed, n, step_m, jump_p, box_m=3000.0)
        params = ClusterParams(max_radius_m=20.0, min_dist_m=min_dist, min_stay_h=0.0)
        assert len(self.assert_merges_as_restart(monkeypatch, traces, params)) > 1
        k, calls = self.merge_calls(monkeypatch, traces, params)
        assert calls <= k * k

    def test_merge_moves_a_centroid_onto_an_earlier_cluster(self, monkeypatch):
        # b and c are 480 m apart; each is 510 m from a, their midpoint 450 m.
        # Merging c into b must re-test (a, b) and merge b into a, skip the far
        # rows x1 and x2 scanned before, and go on with d and e.
        a, x1, x2, b, c, d, e = (offset_latlon(40.0, -74.0, x, y) for x, y in [
            (0, 0), (5000, 0), (-5000, 0), (450, 240), (450, -240), (0, 9000), (0, 9400)])
        traces = slow_trace([a, a, x1, x2, b, c, d, e])
        params = ClusterParams(max_radius_m=20.0, min_dist_m=500.0, min_stay_h=0.0)
        pois = self.assert_merges_as_restart(monkeypatch, traces, params)
        assert [poi.members for poi in pois] == [(1, 4, 5), (2,), (3,), (6, 7)]
        # 16 tests scan rows a, x1, x2 and b up to c; (a, b) merges; row a
        # again; no test of rows x1, x2; (d, e) merges; (a, d), (x1, d), (x2, d)
        assert self.merge_calls(monkeypatch, traces, params) == (7, 16 + 1 + 4 + 1 + 3)

    def test_grown_cluster_takes_a_row_it_skips(self, monkeypatch):
        # five samples each at b and c: their merge lands on (450, 0), 450 m
        # from a; a then moves to (409, 0), 491 m from x1, and takes x1 out of
        # the rows it skips, so the scan must still reach d and e
        a, x1, x2, b, c, d, e = (offset_latlon(40.0, -74.0, x, y) for x, y in [
            (0, 0), (900, 0), (-5000, 0), (450, 240), (450, -240), (0, 9000), (0, 9400)])
        traces = slow_trace([a, a, x1, x2] + [b] * 5 + [c] * 5 + [d, e])
        params = ClusterParams(max_radius_m=20.0, min_dist_m=500.0, min_stay_h=0.0)
        pois = self.assert_merges_as_restart(monkeypatch, traces, params)
        assert [poi.members for poi in pois] == [(1, *range(4, 14), 2), (3,), (14, 15)]
        # 16 tests up to (b, c); (a, b); (a, x1); row a again; (d, e); (a, d), (x2, d)
        assert self.merge_calls(monkeypatch, traces, params) == (7, 16 + 1 + 1 + 3 + 1 + 2)


class TestParameterErrors:
    def test_nan_cluster_parameter_rejected(self):
        with pytest.raises(ParameterError):
            ClusterParams(max_radius_m=float("nan"))

    @pytest.mark.parametrize("start_state", [-1, 2])
    def test_start_state_out_of_range(self, start_state):
        pois = [poi_at(0.0, 0.0, 50.0), poi_at(5000.0, 0.0, 50.0)]
        cloaks = build_cloaks(pois, ClusterParams(k_anonymity=1))
        with pytest.raises(ParameterError):
            assemble_mdp(pois, cloaks, np.eye(2), start_state=start_state)
