"""From raw GPS traces to a cloaking MDP.

Stages: stationary-point filtering, density-joinable clustering into points
of interest, k-anonymous cloaking circles over the POIs, empirical visit
transitions, and assembly of the mobility MDP with area-ratio quality
losses. Every stage is deterministic given the input order.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .floattext import format_rows
from .geo import (SCREEN_TOL_M, chord2, chord2_at_m, chord2_to_m, haversine_m,
                  max_haversine_m, step_distances_m, unit_vectors)
from .mdp import ActionMeta, Mdp, StateMeta, make_mdp

MIN_STATE_RADIUS_M = 10.0   # floor for POI areas so loss ratios stay bounded
COVER_TOL_M = 1e-6
BLOCK_ROWS = 2048      # samples per block when screening against the POIs
RUN_CHUNK = 32         # samples in the first sure-run test after a clustering decision
RUN_GROWTH = 16        # each further chunk of the same run is this many times longer


class EmptyPoiError(RuntimeError):
    """The trace yields no point of interest at the given parameters."""


class ParameterError(ValueError):
    """A build parameter is out of range or does not fit the trace."""


@dataclass
class ClusterParams:
    min_speed_mps: float = 1.0
    max_radius_m: float = 100.0
    min_dist_m: float = 500.0
    min_stay_h: float = 1.0
    k_anonymity: int = 2

    def __post_init__(self):
        # written so that nan fails every test
        if not (self.min_speed_mps >= 0 and self.max_radius_m > 0 and self.min_dist_m >= 0
                and self.min_stay_h >= 0 and self.k_anonymity >= 1):
            raise ParameterError(
                "cluster parameters out of range: need min_speed >= 0, max_radius > 0, "
                f"min_dist >= 0, min_stay >= 0 and k >= 1, got min_speed={self.min_speed_mps}, "
                f"max_radius={self.max_radius_m}, min_dist={self.min_dist_m}, "
                f"min_stay={self.min_stay_h}, k={self.k_anonymity}")


@dataclass
class TraceDataset:
    lat: np.ndarray
    lon: np.ndarray
    t: np.ndarray           # epoch seconds, strictly increasing
    user: str = "user0"
    n_skipped: int = 0
    # (sample indices, their unit vectors) last asked of screen_units
    _units: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __len__(self):
        return self.lat.size

    @functools.cached_property
    def speeds(self) -> np.ndarray:
        """Arrival speed in m/s of every sample but the first (inf after a
        step of no time): step_distances_m over the time steps."""
        dist = step_distances_m(self.lat, self.lon)
        dt = np.diff(self.t)
        return np.divide(dist, dt, out=np.full_like(dist, np.inf), where=dt > 0)

    def screen_units(self, idxs: np.ndarray) -> np.ndarray:
        """(3, idxs.size) unit vectors of the samples idxs.

        The vectors of the last index set are kept, so the stages that screen
        the same stationary samples (clustering, then the visit sequence)
        compute them once per trace.
        """
        kept, units = self._units
        if kept is None or not np.array_equal(kept, idxs):
            units = unit_vectors(self.lat[idxs], self.lon[idxs])
            self._units = (idxs, units)
        return units


@dataclass
class PoiCluster:
    lat: float
    lon: float
    radius_m: float
    stay_hours: float
    members: tuple[int, ...] = ()

    @property
    def area_m2(self) -> float:
        return math.pi * max(self.radius_m, MIN_STATE_RADIUS_M) ** 2


@dataclass
class CloakRegion:
    lat: float
    lon: float
    radius_m: float
    covered: tuple[int, ...]


def parse_traces(path, fmt: str | None = None, user: str | None = None) -> TraceDataset:
    """Load one user's trace from a csv or a Geolife plt file, read as UTF-8.

    csv: header line, then rows lat,lon,timestamp with the timestamp in epoch
    seconds. plt: six header lines, latitude and longitude in the first two
    fields, date and time in the sixth and seventh (UTC), read as strptime's
    "%Y-%m-%d %H:%M:%S" reads them; a row whose fields are ASCII YYYY-MM-DD
    and HH:MM:SS within one day gets the same timestamp from the date's
    midnight plus the time of day. Malformed rows and rows breaking the
    strictly-increasing time order are skipped and counted.

    A file whose data rows are all regular is read whole by numpy's C reader
    (_read_whole); any other file row by row (_read_rows). Both read the same
    values bit for bit and skip the same rows.
    """
    path = Path(path)
    if fmt is None:
        fmt = "plt" if path.suffix.lower() == ".plt" else "csv"
    if fmt not in ("csv", "plt"):
        raise ValueError(f"unknown trace format {fmt!r}")
    start = 6 if fmt == "plt" else 1
    lat, lon, t, skipped = _read_whole(path, fmt, start) or _read_rows(path, fmt, start)
    if not lat.size:
        warnings.warn(f"no valid samples in {path} ({skipped} rows skipped)")
    return TraceDataset(lat, lon, t, user=user or path.stem, n_skipped=skipped)


def _read_rows(path: Path, fmt: str, start: int):
    """(lat, lon, t, skipped) of the data rows after the first `start` lines,
    parsed one row at a time with float() and, for plt, the timestamp helpers."""
    lat, lon, t = [], [], []
    skipped = 0
    # per-call caches: a plt file repeats each date on many rows, and times of day across days
    midnight = functools.cache(_utc_midnight)
    of_day = functools.cache(_seconds_of_day)
    with open(path, encoding="utf-8") as fh:
        for line in itertools.islice(fh, start, None):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if fmt == "plt":
                    la, lo = float(parts[0]), float(parts[1])
                    base, offset = midnight(parts[5]), of_day(parts[6])
                    if base is not None and offset is not None:
                        ts = base + offset
                    else:
                        stamp = datetime.strptime(parts[5] + " " + parts[6], "%Y-%m-%d %H:%M:%S")
                        ts = stamp.replace(tzinfo=timezone.utc).timestamp()
                else:
                    la, lo, ts = float(parts[0]), float(parts[1]), float(parts[2])
            except (ValueError, IndexError):
                skipped += 1
                continue
            if not (math.isfinite(la) and math.isfinite(lo) and math.isfinite(ts)) \
                    or abs(la) > 90.0 or abs(lo) > 180.0 or (t and ts <= t[-1]):
                skipped += 1
                continue
            lat.append(la)
            lon.append(lo)
            t.append(ts)
    return np.array(lat), np.array(lon), np.array(t), skipped


# The bytes a data row of numbers may hold: the ASCII of float() numbers (nan
# and inf too), commas, the plt date and time, and line ends. A file whose data
# rows hold any other byte goes to the row loop before the reader runs, so the
# common irregular rows (quotes, "#" lines, "1_0", text, whitespace-only lines)
# cost no parse. This also keeps out NUL and \x1c-\x1f: numpy strips
# \x1c-\x1f around a number where float() does not, and its fixed-width
# strings drop a trailing NUL.
_ROW_BYTES = b"0123456789+-.,:eEnNaAiIfFtTyY\r\n"
# The plt fields read; date and time are one byte wider than their form, so a
# longer field shows in _PLT_STAMP's trailing NULs.
_PLT_FIELDS = np.dtype([("lat", "f8"), ("lon", "f8"), ("date", "S11"), ("time", "S9")])
_PLT_STAMP = np.frombuffer(b"9999-99-99\0" + b"99:99:99\0", dtype=np.uint8)   # "9": a digit
# suffixes numpy's reader decompresses; the row loop reads such a file as text
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _read_whole(path: Path, fmt: str, start: int):
    """(lat, lon, t, skipped) as _read_rows reads them, from one call of
    numpy's C reader, or None when a data row is irregular.

    Irregular: a data row holds a byte not in _ROW_BYTES, the reader rejects
    the row (float() may still read it, as it reads "1_0"), or a plt date or
    time is not ASCII YYYY-MM-DD / HH:MM:SS within one day or strptime rejects
    the date. A pipe or other file that is not regular, read once by the row
    loop, and a file with a suffix of _COMPRESSED are not tried. The reader
    opens the file with universal newlines, as the row loop does, skips the
    same `start` lines, parses floats with PyOS_string_to_double, as float()
    does, and skips the empty lines the row loop skips. A row is kept when it
    is valid and later than every valid row before it: a valid row the loop
    drops never raises the latest time it compares against.
    """
    if path.suffix in _COMPRESSED or not path.is_file():
        return None
    raw = path.read_bytes()
    # the `start` header lines, ended as universal newlines end them or by the end
    header = raw[:re.match(rb"(?:[^\r\n]*(?:\r\n?|\n|\Z)){0,%d}" % start, raw).end()]
    # every byte outside _ROW_BYTES is in the header; no copy of the data rows is made
    if len(raw.translate(None, _ROW_BYTES)) > len(header.translate(None, _ROW_BYTES)):
        return None
    del raw   # not held through the parse
    plt = fmt == "plt"
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, skiprows=start, delimiter=",", comments=None,
                              quotechar=None, encoding="utf-8",
                              dtype=_PLT_FIELDS if plt else float,
                              usecols=(0, 1, 5, 6) if plt else (0, 1, 2), ndmin=1 if plt else 2)
    except ValueError:   # UnicodeDecodeError too: the row loop raises it as it always did
        return None
    if plt:
        lat, lon, t = rows["lat"], rows["lon"], _plt_timestamps(rows)
        if t is None:
            return None
    else:
        lat, lon, t = rows.T
    # nan fails both bounds
    valid = (np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0) & np.isfinite(t)
    latest = np.maximum.accumulate(np.where(valid, t, -np.inf))
    keep = valid.copy()
    keep[1:] &= t[1:] > latest[:-1]
    return lat[keep], lon[keep], t[keep], int(keep.size - np.count_nonzero(keep))


def _plt_timestamps(rows: np.ndarray) -> np.ndarray | None:
    """Epoch seconds of the date and time of rows read as _PLT_FIELDS, or None
    when one is not ASCII YYYY-MM-DD / HH:MM:SS within one day or strptime
    rejects a date.

    Each distinct date gets its midnight from _utc_midnight once; the time of
    day comes from the bytes, as _seconds_of_day reads it.
    """
    offset = _PLT_FIELDS.fields["date"][1]
    stamp = rows.view(np.uint8).reshape(rows.size, _PLT_FIELDS.itemsize)[:, offset:]
    digit = _PLT_STAMP == ord("9")
    values = stamp[:, digit]
    values -= ord("0")   # a byte below "0" wraps past 9
    if not ((values <= 9).all() and (stamp[:, ~digit] == _PLT_STAMP[~digit]).all()):
        return None
    hms = values[:, 8::2] * 10 + values[:, 9::2]
    if not (hms < [24, 60, 60]).all():
        return None
    day = values[:, :8] @ 10 ** np.arange(7, -1, -1, dtype=np.int32)   # YYYYMMDD
    _, first, inverse = np.unique(day, return_index=True, return_inverse=True)
    midnight = [_utc_midnight(date.decode()) for date in rows["date"][first]]
    if None in midnight:
        return None
    return np.array(midnight)[inverse] + hms @ [3600, 60, 1]


_PLT_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_PLT_TIME = re.compile(r"([0-9]{2}):([0-9]{2}):([0-9]{2})")


def _utc_midnight(day: str) -> float | None:
    """strptime's UTC timestamp of an ASCII YYYY-MM-DD date field, or None when
    the field has another form or strptime rejects it (the row then goes
    through strptime whole)."""
    if not _PLT_DATE.fullmatch(day):
        return None
    try:
        return datetime.strptime(day, "%Y-%m-%d").replace(tzinfo=timezone.utc).timestamp()
    except ValueError:
        return None


def _seconds_of_day(clock: str) -> int | None:
    """Seconds since midnight of an ASCII HH:MM:SS time field within one day,
    or None for any other field.

    timestamp() of a whole-second time is an integer count of seconds divided
    exactly, so midnight plus this offset is strptime's float bit for bit.
    """
    match = _PLT_TIME.fullmatch(clock)
    if match is None:
        return None
    hour, minute, second = int(match[1]), int(match[2]), int(match[3])
    if hour < 24 and minute < 60 and second < 60:
        return hour * 3600 + minute * 60 + second
    return None


def stationary_flags(traces: TraceDataset, params: ClusterParams) -> np.ndarray:
    """Mark samples whose arrival speed is at most the stationarity threshold.

    The first sample has no arrival speed and never counts as stationary;
    with a zero threshold only exact zero-velocity repeats survive.
    """
    flags = np.zeros(len(traces), dtype=bool)
    if len(traces) < 2:
        return flags
    flags[1:] = traces.speeds <= params.min_speed_mps
    return flags


def extract_pois(traces: TraceDataset, params: ClusterParams):
    """Cluster the stationary samples into dwell-filtered points of interest.

    Returns (pois, assignment) where assignment maps each sample index to its
    retained POI index or -1. Clustering joins each stationary point to the
    first cluster whose running centroid lies within max_radius_m; clusters
    closer than min_dist_m are then merged pairwise until none remain; dwell
    time accumulates over gaps between consecutive stationary samples,
    attributed to the earlier sample's cluster, and clusters dwelling less
    than min_stay_h are dropped.
    """
    flags = stationary_flags(traces, params)
    idxs = np.nonzero(flags)[0]
    sums, joined = _greedy_clusters(traces, idxs, params.max_radius_m)
    label = np.full(len(traces), -1, dtype=int)
    label[idxs] = joined
    # members in join order; sample indices increase along idxs
    order = np.argsort(joined, kind="stable")
    bounds = np.searchsorted(joined[order], np.arange(len(sums) + 1))
    members = [idxs[order[bounds[c]:bounds[c + 1]]] for c in range(len(sums))]
    _merge_close(sums, members, label, params.min_dist_m)
    # dwell time per cluster: gaps between consecutive stationary samples,
    # attributed to the earlier sample's cluster, summed in sample order
    first = idxs[idxs + 1 < len(traces)]
    first = first[flags[first + 1]]
    stay_s = np.zeros(len(sums))
    np.add.at(stay_s, label[first], traces.t[first + 1] - traces.t[first])
    keep = [c for c in range(len(sums)) if stay_s[c] / 3600.0 >= params.min_stay_h]
    pois = []
    assignment = np.full(len(traces), -1, dtype=int)
    for new_c, c in enumerate(keep):
        cla = sums[c][0] / sums[c][2]
        clo = sums[c][1] / sums[c][2]
        radius = max_haversine_m(traces.lat[members[c]], traces.lon[members[c]], cla, clo)
        pois.append(PoiCluster(cla, clo, radius, stay_s[c] / 3600.0,
                               tuple(members[c].tolist())))
        assignment[members[c]] = new_c
    return pois, assignment


def _merge_close(sums: list[list[float]], members: list[np.ndarray], label: np.ndarray,
                 min_dist_m: float) -> None:
    """Merge, in place, the first pair (i, j), i < j, in row-major order whose
    centroids are closer than min_dist_m, j into i, until no pair is.

    This is the scan that restarts from (0, 1) after every merge, without the
    restarts. All pairs in rows before the current row i are known to be far
    apart, as are all pairs in rows i+1 .. resume-1. A merge changes only i's
    centroid: the scan re-tests (i2, i) for i2 < i in order, where a close
    pair merges i into i2 and is handled the same way, and then rescans the
    row of the cluster that last grew. Each merge adds O(k) tests, so there
    are O(k^2) haversine_m calls for k clusters, not O(k^3).
    """
    def close(a: int, b: int) -> bool:
        (la, lo, cnt), (lb, ob, cntb) = sums[a], sums[b]
        return haversine_m(la / cnt, lo / cnt, lb / cntb, ob / cntb) < min_dist_m

    def merge(a: int, b: int) -> None:
        sums[a] = [sums[a][0] + sums[b][0], sums[a][1] + sums[b][1], sums[a][2] + sums[b][2]]
        members[a] = np.concatenate([members[a], members[b]])
        del sums[b], members[b]
        label[label == b] = a
        label[label > b] -= 1

    i, resume = 0, 1
    while i < len(sums):
        j = i + 1
        while j < len(sums):
            if not close(i, j):
                j += 1
                continue
            merge(i, j)
            if j < resume:
                resume -= 1
            lower = 0
            while lower < i:
                if close(lower, i):
                    merge(lower, i)
                    # rows lower+1 .. i-1 were scanned in full, and i is gone
                    i, lower, resume = lower, 0, resume - 1
                else:
                    lower += 1
            j = i + 1
        i = resume
        resume = i + 1


def _stays(idxs: np.ndarray) -> np.ndarray:
    """Positions in idxs where its stays start, then idxs.size.

    A stay is a maximal run of consecutive sample indices in idxs: for the
    stationary samples, a run of consecutive stationary samples.
    """
    return np.append(np.flatnonzero(np.diff(idxs, prepend=-2) != 1), idxs.size)


def _greedy_clusters(traces: TraceDataset, idxs: np.ndarray, max_radius_m: float):
    """Join each sample idxs[k] to the first cluster whose running centroid lies
    within max_radius_m, or open a new cluster.

    Returns ([lat_sum, lon_sum, count] per cluster, cluster index per sample).
    The work goes stay by stay (_stays). _first_cluster decides the first
    undecided sample of a stay exactly; then _sure_run joins to the same
    cluster, in one step per chunk, the samples after it in the stay that
    surely join it one after another. The first chunk holds RUN_CHUNK
    samples and each next one RUN_GROWTH times more, so a run that breaks
    early costs about its own length. The sample that breaks a run is
    decided next. The centroids' unit vectors are updated once per decision
    and its run.
    """
    sums: list[list[float]] = []
    joined = np.empty(idxs.size, dtype=int)
    units = traces.screen_units(idxs)
    # squared chords of the band's edges: surely within at or below the first,
    # surely beyond above the second
    inside, outside = chord2_at_m([max_radius_m - SCREEN_TOL_M, max_radius_m + SCREEN_TOL_M])
    cent = np.empty((3, 16))   # centroid unit vectors of the clusters, in the first len(sums)
    bounds = _stays(idxs).tolist()
    for start, end in zip(bounds[:-1], bounds[1:]):
        # a stay's samples are consecutive: its coordinates are slices, not gathers
        off = int(idxs[start]) - start
        lat, lon = traces.lat[off:off + end], traces.lon[off:off + end]
        r = start
        while r < end:
            la, lo = float(lat[r]), float(lon[r])
            target = _first_cluster(la, lo, units[:, r], sums, cent, max_radius_m,
                                    inside, outside)
            if target == len(sums):
                sums.append([la, lo, 1.0])
                if target == cent.shape[1]:
                    cent = np.concatenate([cent, np.empty_like(cent)], axis=1)
            else:
                sums[target][0] += la
                sums[target][1] += lo
                sums[target][2] += 1.0
            first, r, chunk = r, r + 1, RUN_CHUNK
            while r < end:
                stop = min(r + chunk, end)
                run = _sure_run(lat[r:stop], lon[r:stop], units[:, r:stop], sums, target,
                                cent[:, :target], inside, outside)
                r += run
                if r < stop:
                    break
                chunk *= RUN_GROWTH
            joined[first:r] = target
            sla, slo, cnt = sums[target]
            cent[:, target] = unit_vectors(sla / cnt, slo / cnt)
    return sums, joined


def _first_cluster(la: float, lo: float, unit: np.ndarray, sums: list[list[float]],
                   cent: np.ndarray, max_radius_m: float, inside: float, outside: float) -> int:
    """Index of the first cluster whose centroid lies within max_radius_m of
    the sample (la, lo), with unit vector unit, or len(sums) when none does.

    One chord2 call screens the sample against the centroid unit vectors cent;
    in cluster order, a candidate surely within (squared chord at most
    inside) is taken and one in the band is settled with haversine_m.
    """
    if sums:
        c2 = chord2(unit, cent[:, :len(sums)])
        for c in np.flatnonzero(c2 <= outside).tolist():
            if c2[c] <= inside:
                return c
            sla, slo, cnt = sums[c]
            if haversine_m(la, lo, sla / cnt, slo / cnt) <= max_radius_m:
                return c
    return len(sums)


def _sure_run(lat: np.ndarray, lon: np.ndarray, units: np.ndarray, sums: list[list[float]],
              t: int, lower: np.ndarray, inside: float, outside: float) -> int:
    """Join to cluster t, in place, the leading samples (lat, lon), with unit
    vectors units, that surely join it one after another; return how many.

    Sample i is taken while its squared chord to t's centroid after the i
    samples before it is at most inside and its squared chord to every
    centroid unit vector in lower, those of clusters 0 .. t-1, is above
    outside (the band's edges, see _greedy_clusters). np.add.accumulate
    makes the same sequential additions as joining one sample at a time, so
    the sums, and every centroid, are bit for bit those of the per-sample
    path.
    """
    sla, slo, cnt = sums[t]
    lat_acc = np.add.accumulate(np.concatenate(([sla], lat)))
    lon_acc = np.add.accumulate(np.concatenate(([slo], lon)))
    cnts = cnt + np.arange(lat.size)
    run = _leading_true(chord2(units, unit_vectors(lat_acc[:-1] / cnts, lon_acc[:-1] / cnts))
                        <= inside)
    if t and run:
        c2 = chord2(units[:, :run, None], lower[:, None, :])
        run = _leading_true((c2 > outside).all(axis=1))
    sums[t] = [float(lat_acc[run]), float(lon_acc[run]), cnt + run]
    return run


def _leading_true(flags: np.ndarray) -> int:
    """Length of the leading run of True in a boolean vector."""
    return flags.size if flags.all() else int(flags.argmin())


def build_cloaks(pois: list[PoiCluster], params: ClusterParams) -> list[CloakRegion]:
    """k-anonymous cloaking circles: one candidate per POI, duplicates removed.

    Each candidate centers at the mean of the anchor POI and its k-1 nearest
    POIs (centroid distance, ties toward the lower index) with the smallest
    radius covering every seed POI's whole disk; the covered set is then
    recomputed geometrically, so a circle may pick up more than k POIs.
    """
    n = len(pois)
    k = params.k_anonymity
    if k > n:
        raise ParameterError(f"k-anonymity {k} exceeds the number of POIs {n}")
    regions: list[CloakRegion] = []
    seen: set[tuple[int, ...]] = set()
    for i, poi in enumerate(pois):
        dist = sorted((haversine_m(poi.lat, poi.lon, q.lat, q.lon), j)
                      for j, q in enumerate(pois) if j != i)
        seeds = [i] + [j for _, j in dist[:k - 1]]
        cla = sum(pois[j].lat for j in seeds) / len(seeds)
        clo = sum(pois[j].lon for j in seeds) / len(seeds)
        radius = max(haversine_m(cla, clo, pois[j].lat, pois[j].lon) + pois[j].radius_m
                     for j in seeds)
        covered = tuple(j for j, q in enumerate(pois)
                        if haversine_m(cla, clo, q.lat, q.lon) + q.radius_m
                        <= radius + COVER_TOL_M)
        if covered not in seen:
            seen.add(covered)
            regions.append(CloakRegion(cla, clo, radius, covered))
    return regions


def estimate_transitions(traces: TraceDataset, pois: list[PoiCluster],
                         params: ClusterParams):
    """Empirical POI transition matrix from the visit sequence.

    Stationary samples map to the nearest POI whose disk contains them (else
    unassigned; equidistant POIs go to the lower index); maximal runs of one
    POI, broken by unassigned samples, form visits, and consecutive visits
    (same POI allowed after a break) are counted as transitions. Rows never
    visited as a source self-loop. Returns (counts, p).
    """
    n = len(pois)
    seq = _nearest_disk(traces, np.nonzero(stationary_flags(traces, params))[0], pois)
    starts = np.ones(seq.size, dtype=bool)
    starts[1:] = seq[1:] != seq[:-1]
    visits = seq[starts & (seq >= 0)]
    counts = np.zeros((n, n))
    np.add.at(counts, (visits[:-1], visits[1:]), 1.0)
    totals = counts.sum(axis=1)
    p = np.eye(n)
    seen = totals > 0
    p[seen] = counts[seen] / totals[seen, None]
    return counts, p


def _nearest_disk(traces: TraceDataset, idxs: np.ndarray, pois: list[PoiCluster]) -> np.ndarray:
    """Index of the nearest POI whose disk holds sample idxs[k] (ties to the
    lower index), or -1.

    The samples go in blocks of BLOCK_ROWS, so the temporaries do not grow
    with the trace. In a block, its pieces of stays (_stays, cut at the
    block's edges) are screened first. A piece's candidate is the POI
    nearest its first sample; the piece is clear when, for every other POI
    q, |p_cand - p_q| - far > chord(reach_q + SCREEN_TOL_M), far being the
    largest chord from a sample of the piece to p_cand (chord lengths, not
    squared). By the triangle inequality no sample of a clear piece then
    lies in q's disk or its band, so each one surely inside the candidate's
    disk takes the candidate. Every other sample of the block is screened
    against all POIs; haversine_m settles each one whose nearest candidate
    is not surely inside its disk or is within the screening band of
    another candidate.
    """
    seq = np.full(idxs.size, -1, dtype=int)
    if not pois:
        return seq
    plat = np.array([poi.lat for poi in pois])
    plon = np.array([poi.lon for poi in pois])
    reach = np.array([poi.radius_m for poi in pois]) + COVER_TOL_M
    poi_units = unit_vectors(plat, plon)
    # squared chords of each disk's band edges: surely inside, surely outside
    inside, outside = chord2_at_m(reach - SCREEN_TOL_M), chord2_at_m(reach + SCREEN_TOL_M)
    # per candidate c, a clear piece's largest chord must lie below
    # min over q != c of |p_c - p_q| - chord(reach_q + SCREEN_TOL_M)
    clearance = np.sqrt(chord2(poi_units[:, :, None], poi_units[:, None, :])) - np.sqrt(outside)
    np.fill_diagonal(clearance, np.inf)
    clearance = clearance.min(axis=1)
    units = traces.screen_units(idxs)
    stays = _stays(idxs)
    for start in range(0, idxs.size, BLOCK_ROWS):
        units_b = units[:, start:start + BLOCK_ROWS]
        size = units_b.shape[1]
        inner = stays[np.searchsorted(stays, start, "right"):np.searchsorted(stays, start + size)]
        cuts = np.concatenate(([0], inner - start))
        lens = np.diff(cuts, append=size)
        cand = chord2(units_b[:, cuts, None], poi_units[:, None, :]).argmin(axis=1)
        own = np.repeat(cand, lens)
        c2 = chord2(units_b, poi_units[:, own])
        clear = np.sqrt(np.maximum.reduceat(c2, cuts)) < clearance[cand]
        sure = np.repeat(clear, lens) & (c2 <= inside[own])
        out = seq[start:start + size]   # a view, written in place
        out[sure] = own[sure]
        rest = np.flatnonzero(~sure)
        if not rest.size:
            continue
        c2 = chord2(units_b[:, rest, None], poi_units[:, None, :])
        c2[c2 > outside] = np.inf
        best = c2.argmin(axis=1)
        c2_best = c2[np.arange(rest.size), best]
        found = np.isfinite(c2_best)
        # within two bands of the best distance: one arcsin per row, not per pair
        tie = chord2_at_m(chord2_to_m(c2_best) + 2.0 * SCREEN_TOL_M)
        unsure = found & ((c2_best > inside[best]) | ((c2 <= tie[:, None]).sum(axis=1) > 1))
        out[rest] = np.where(found, best, -1)
        for r in np.nonzero(unsure)[0]:
            k = idxs[start + rest[r]]
            la, lo = traces.lat[k], traces.lon[k]
            nearest = None
            for j in np.nonzero(np.isfinite(c2[r]))[0]:
                dist = haversine_m(la, lo, plat[j], plon[j])
                if dist <= reach[j] and (nearest is None or dist < nearest[0]):
                    nearest = (dist, j)
            out[rest[r]] = -1 if nearest is None else nearest[1]
    return seq


def assemble_mdp(pois: list[PoiCluster], cloaks: list[CloakRegion], p: np.ndarray,
                 start_state: int = 0) -> Mdp:
    """Put the pipeline products together into the mobility MDP.

    Choosing cloak a at a covered POI s moves the user along the empirical
    row p(s, .) and costs the area ratio of the cloak disk to the POI disk;
    POI radii are floored at 10 m so the ratio stays finite.
    """
    n, m = len(pois), len(cloaks)
    if not 0 <= start_state < n:
        raise ParameterError(f"start state {start_state} out of range 0..{n - 1}")
    available = tuple(tuple(a for a, cl in enumerate(cloaks) if s in cl.covered)
                      for s in range(n))
    for s, acts in enumerate(available):
        if not acts:
            raise ValueError(f"POI {s} is covered by no cloaking region")
    transition = np.zeros((m, n, n))
    utility = np.zeros((n, m))
    for a, cl in enumerate(cloaks):
        for s in cl.covered:
            transition[a, s] = p[s]
            utility[s, a] = (cl.radius_m / max(pois[s].radius_m, MIN_STATE_RADIUS_M)) ** 2
    p0 = np.zeros(n)
    p0[start_state] = 1.0
    state_meta = [StateMeta(f"s{i + 1}", poi.lat, poi.lon, poi.area_m2)
                  for i, poi in enumerate(pois)]
    action_meta = [ActionMeta(f"a{i + 1}", cl.lat, cl.lon, cl.radius_m)
                   for i, cl in enumerate(cloaks)]
    return make_mdp(transition, utility, available, p0,
                    state_meta=state_meta, action_meta=action_meta)


def build_model_from_traces(path, params: ClusterParams, fmt: str | None = None,
                            start_state: int = 0):
    """Full pipeline: parse, cluster, cloak, estimate, assemble.

    Returns (mdp, pois, cloaks, diagnostics); raises EmptyPoiError when no
    POI survives the dwell filter.
    """
    traces = parse_traces(path, fmt=fmt)
    pois, _ = extract_pois(traces, params)
    if not pois:
        raise EmptyPoiError(f"no POI extracted from {path} at the given parameters")
    cloaks = build_cloaks(pois, params)
    counts, p = estimate_transitions(traces, pois, params)
    mdp = assemble_mdp(pois, cloaks, p, start_state=start_state)
    diag = {"n_samples": len(traces), "n_skipped": traces.n_skipped,
            "n_pois": len(pois), "n_cloaks": len(cloaks),
            "visit_transitions": int(counts.sum())}
    return mdp, pois, cloaks, diag


def write_poi_summary(path, pois: list[PoiCluster], cloaks: list[CloakRegion]) -> None:
    """Summary table of POIs and cloaks: id, lat, lon, radius, stay_hours, covered_pois.

    The bytes csv.writer would write, every float as its `'%.17g'` text.
    """
    poi_rows = format_rows(np.array([[p.lat, p.lon, p.radius_m, p.stay_hours]
                                     for p in pois]).reshape(-1, 4))
    cloak_rows = format_rows(np.array([[c.lat, c.lon, c.radius_m]
                                       for c in cloaks]).reshape(-1, 3))
    with open(path, "w", newline="") as fh:
        fh.write("id,lat,lon,radius,stay_hours,covered_pois\r\n")
        fh.writelines(f"s{i + 1},{row},\r\n" for i, row in enumerate(poi_rows))
        fh.writelines(f"a{i + 1},{row},,{' '.join(f's{j + 1}' for j in cl.covered)}\r\n"
                      for i, (row, cl) in enumerate(zip(cloak_rows, cloaks)))
