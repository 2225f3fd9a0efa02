"""C backend of the compiled tier: build, cache and load the kernels.

The compiled tier's kernels (:class:`repro.perf.compiled.KernelSet`) are
C compiled once per machine with the system ``cc`` into a small shared
library and bound through :mod:`ctypes`. The build is hermetic — one
translation unit, no headers beyond the C standard library, no network
— and cached on a hash of the source, so the first ``tier="compiled"``
run pays ~1 second of compile and every later run (or process) reuses
the ``.so``. ``REPRO_CC`` picks the compiler and ``REPRO_CC_CACHE`` the
cache directory.

Bit-identity is the whole point, so the C code replays the numpy tier's
arithmetic operation for operation on IEEE doubles: the same multiplies,
the same left-to-right additions, the same comparisons. Two compiler
flags guard that contract:

* ``-ffp-contract=off`` — no fused multiply-adds; a contracted
  ``a * b + c`` rounds once where numpy rounds twice, which is exactly
  the kind of last-bit drift the equality property tests would catch;
* no ``-ffast-math`` — reassociation would break the Lindley recursion's
  accumulated deficits.

The grouping stage deliberately avoids ``np.lexsort``: events are
counting-sorted by slot (stable, O(n)) and each group is then checked
for time order. The fast engine's event streams arrive as at most two
sorted runs per slot (time-ordered legitimate arrivals plus one
pre-sorted flood row), so the common case is an O(k) check + merge; a
stable bottom-up mergesort covers arbitrary inputs. The resulting
permutation is element-for-element the one ``np.lexsort((times, slots))``
produces (slot, then time, then original index), so downstream accept
decisions see events in the identical order.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional

__all__ = ["load_library", "build_error"]

C_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <float.h>

/* ------------------------------------------------------------------ */
/* Stable per-group time sort over an index array.                     */
/* ------------------------------------------------------------------ */

static void merge_runs(const double *t, int64_t *idx, int64_t lo,
                       int64_t mid, int64_t hi, int64_t *tmp)
{
    int64_t i = lo, j = mid, k = 0;
    while (i < mid && j < hi) {
        /* strict < from the right keeps equal keys in left-run order:
           stable, matching np.lexsort's tie behaviour. */
        if (t[idx[j]] < t[idx[i]])
            tmp[k++] = idx[j++];
        else
            tmp[k++] = idx[i++];
    }
    while (i < mid)
        tmp[k++] = idx[i++];
    while (j < hi)
        tmp[k++] = idx[j++];
    memcpy(idx + lo, tmp, (size_t)k * sizeof(int64_t));
}

static void sort_group(const double *t, int64_t *idx, int64_t k,
                       int64_t *tmp)
{
    int64_t d = 1, e;
    if (k < 2)
        return;
    while (d < k && t[idx[d]] >= t[idx[d - 1]])
        d++;
    if (d == k)
        return; /* already sorted: the overwhelmingly common case */
    e = d + 1;
    while (e < k && t[idx[e]] >= t[idx[e - 1]])
        e++;
    if (e == k) { /* two sorted runs: one O(k) merge */
        merge_runs(t, idx, 0, d, k, tmp);
        return;
    }
    { /* arbitrary input: stable bottom-up mergesort */
        int64_t width, lo, mid, hi;
        for (width = 1; width < k; width *= 2) {
            for (lo = 0; lo < k; lo += 2 * width) {
                mid = lo + width;
                if (mid >= k)
                    break;
                hi = lo + 2 * width;
                if (hi > k)
                    hi = k;
                merge_runs(t, idx, lo, mid, hi, tmp);
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Grouped token-bucket Lindley replay (fastsim._grouped_bucket_scan). */
/* ------------------------------------------------------------------ */

void repro_bucket_scan(
    const int64_t *slots, const double *times, int64_t n, int64_t m,
    double capacity, double burst, int32_t want_flags,
    uint8_t *accept,   /* n, input order, pre-zeroed */
    int64_t *offered,  /* m, pre-zeroed */
    int64_t *accepted, /* m, pre-zeroed */
    int64_t *offsets,  /* m + 1 */
    int64_t *order,    /* n out: event index in grouped, time-sorted order */
    uint8_t *flags,    /* n out (grouped order); only written if want_flags */
    double *tsorted,   /* n out (grouped order) */
    int64_t *cursor,   /* m scratch */
    int64_t *tmp,      /* n scratch */
    double *svals      /* n scratch */
)
{
    int64_t i, s;
    double limit = burst - 1.0;

    /* counting sort by slot, stable in input order */
    memset(offsets, 0, (size_t)(m + 1) * sizeof(int64_t));
    for (i = 0; i < n; i++)
        offsets[slots[i] + 1]++;
    for (s = 0; s < m; s++)
        offsets[s + 1] += offsets[s];
    memcpy(cursor, offsets, (size_t)m * sizeof(int64_t));
    for (i = 0; i < n; i++)
        order[cursor[slots[i]]++] = i;

    for (s = 0; s < m; s++) {
        int64_t lo = offsets[s];
        int64_t k = offsets[s + 1] - lo;
        int64_t j;
        double w, zmax;
        if (k == 0)
            continue;
        sort_group(times, order + lo, k, tmp);
        offered[s] = k;

        /* all-accept closed form: w_i = max(w_{i-1}, s_i - i),
           z_i = (w_i + (i + 1)) - s_i — numpy's
           maximum.accumulate(s - arange) and w + arange(1,..) - s. */
        w = -DBL_MAX;
        zmax = -DBL_MAX;
        for (j = 0; j < k; j++) {
            double sv = times[order[lo + j]] * capacity;
            double cand = sv - (double)j;
            double z;
            svals[lo + j] = sv;
            tsorted[lo + j] = times[order[lo + j]];
            if (cand > w)
                w = cand;
            z = (w + (double)(j + 1)) - sv;
            if (z > zmax)
                zmax = z;
        }
        if (zmax <= burst) {
            for (j = 0; j < k; j++)
                accept[order[lo + j]] = 1;
            accepted[s] = k;
        } else {
            /* exact Lindley replay with run-skipping, the numpy tier's
               per-group fallback loop verbatim */
            double z = 0.0, y = 0.0;
            int64_t acc = 0;
            j = 0;
            while (j < k) {
                double si = svals[lo + j];
                double zp = z - (si - y);
                if (zp < 0.0)
                    zp = 0.0;
                if (zp <= limit) {
                    accept[order[lo + j]] = 1;
                    z = zp + 1.0;
                    y = si;
                    acc++;
                    j++;
                } else {
                    /* bisect_left over svals for y + (z - limit) */
                    double target = y + (z - limit);
                    int64_t a = j, b = k;
                    while (a < b) {
                        int64_t mid = a + (b - a) / 2;
                        if (svals[lo + mid] < target)
                            a = mid + 1;
                        else
                            b = mid;
                    }
                    j = a;
                }
            }
            accepted[s] = acc;
        }

        if (want_flags) {
            /* NodeCapacity.is_congested after every event:
               total >= 10 and drops / total >= 0.5 */
            int64_t drops = 0;
            for (j = 0; j < k; j++) {
                int64_t total = j + 1;
                if (!accept[order[lo + j]])
                    drops++;
                flags[lo + j] =
                    (total >= 10 &&
                     ((double)drops / (double)total) >= 0.5)
                        ? 1
                        : 0;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Fused congestion lookup + uniform routing (fastsim._congested_at +  */
/* fastsim._route_uniform).                                            */
/* ------------------------------------------------------------------ */

void repro_route(
    const double *u, const int64_t *nbr, const uint8_t *healthy,
    const double *decision_t, int64_t rows, int64_t cols, int64_t m,
    const int64_t *tl_offsets, /* m + 1; NULL-free: pass zeros for none */
    const double *tl_times, const uint8_t *tl_flags,
    int64_t *cursor,       /* m scratch */
    uint8_t *live_scratch, /* cols scratch */
    uint8_t *routable,     /* rows out */
    int64_t *chosen        /* rows out */
)
{
    int64_t r, c, s;
    int64_t have_events = tl_offsets[m];
    /* Decision times arrive nondecreasing from the hop-synchronous
       engine, so each slot's timeline can be consumed by a marching
       cursor instead of a fresh binary search per (row, col):
       amortized O(rows * cols + events) instead of
       O(rows * cols * log events). Unsorted inputs keep the exact
       searchsorted semantics via the fallback branch. */
    int monotone = 1;
    for (r = 1; r < rows; r++) {
        if (decision_t[r] < decision_t[r - 1]) {
            monotone = 0;
            break;
        }
    }
    if (monotone && have_events) {
        for (s = 0; s < m; s++)
            cursor[s] = tl_offsets[s];
    }
    for (r = 0; r < rows; r++) {
        double t = decision_t[r];
        int64_t live_count = 0;
        int64_t pick, seen, col;
        for (c = 0; c < cols; c++) {
            int64_t slot = nbr[r * cols + c];
            uint8_t ok = healthy[r * cols + c];
            if (ok && have_events) {
                /* searchsorted(times, t, side="right") - 1, then flag */
                int64_t base = tl_offsets[slot];
                int64_t b = tl_offsets[slot + 1];
                int64_t a;
                if (monotone) {
                    a = cursor[slot];
                    while (a < b && tl_times[a] <= t)
                        a++;
                    cursor[slot] = a;
                } else {
                    a = base;
                    while (a < b) {
                        int64_t mid = a + (b - a) / 2;
                        if (tl_times[mid] <= t)
                            a = mid + 1;
                        else
                            b = mid;
                    }
                }
                if (a > base && tl_flags[a - 1])
                    ok = 0;
            }
            live_scratch[c] = ok;
            live_count += ok;
        }
        if (live_count == 0) {
            routable[r] = 0;
            chosen[r] = -1;
            continue;
        }
        routable[r] = 1;
        /* min(int(u * k), k - 1): identical truncation to
           (u * counts).astype(int64) */
        pick = (int64_t)(u[r] * (double)live_count);
        if (pick > live_count - 1)
            pick = live_count - 1;
        seen = 0;
        col = cols - 1;
        for (c = 0; c < cols; c++) {
            seen += live_scratch[c];
            if (seen == pick + 1) {
                col = c;
                break;
            }
        }
        chosen[r] = nbr[r * cols + col];
    }
}

/* ------------------------------------------------------------------ */
/* Streaming Welford fold (PacketSimReport.record_latency).            */
/* ------------------------------------------------------------------ */

void repro_welford(
    const double *values, int64_t n,
    int64_t *count, double *mean, double *m2, double *maxv)
{
    int64_t i;
    int64_t c = *count;
    double mu = *mean, acc = *m2, mx = *maxv;
    for (i = 0; i < n; i++) {
        double v = values[i];
        double delta = v - mu;
        c++;
        mu += delta / (double)c;
        acc += delta * (v - mu);
        if (v > mx)
            mx = v;
    }
    *count = c;
    *mean = mu;
    *m2 = acc;
    *maxv = mx;
}
"""

#: Flags that pin IEEE semantics: no FMA contraction, no fast-math.
CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_LIBRARY: Optional[ctypes.CDLL] = None
_LOAD_ATTEMPTED = False
_BUILD_ERROR: Optional[str] = None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_CC_CACHE")
    if override:
        return override
    return os.path.join(
        tempfile.gettempdir(), f"repro-cc-{os.getuid()}"
    )


def _find_compiler() -> Optional[str]:
    override = os.environ.get("REPRO_CC")
    if override:
        return override if shutil.which(override) else None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile(compiler: str, directory: str, target: str) -> None:
    os.makedirs(directory, exist_ok=True)
    source_path = os.path.join(directory, "repro_kernels.c")
    with open(source_path, "w", encoding="utf-8") as handle:
        handle.write(C_SOURCE)
    scratch = target + f".tmp{os.getpid()}"
    subprocess.run(
        [compiler, *CFLAGS, "-o", scratch, source_path],
        check=True,
        capture_output=True,
        text=True,
    )
    os.replace(scratch, target)  # atomic: concurrent builders converge


def _bind(library: ctypes.CDLL) -> ctypes.CDLL:
    i64p = ctypes.POINTER(ctypes.c_int64)
    f64p = ctypes.POINTER(ctypes.c_double)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    library.repro_bucket_scan.restype = None
    library.repro_bucket_scan.argtypes = [
        i64p, f64p, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_double, ctypes.c_double, ctypes.c_int32,
        u8p, i64p, i64p, i64p, i64p, u8p, f64p, i64p, i64p, f64p,
    ]
    library.repro_route.restype = None
    library.repro_route.argtypes = [
        f64p, i64p, u8p, f64p,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        i64p, f64p, u8p, i64p, u8p, u8p, i64p,
    ]
    library.repro_welford.restype = None
    library.repro_welford.argtypes = [f64p, ctypes.c_int64, i64p, f64p, f64p, f64p]
    return library


def build_error() -> Optional[str]:
    """Why the last :func:`load_library` attempt failed (None = no failure)."""
    return _BUILD_ERROR


def load_library() -> Optional[ctypes.CDLL]:
    """Compile (once, cached on a source hash) and load the kernel library.

    Returns ``None`` when no C compiler is available or the build fails;
    the reason is kept for :func:`build_error` so the tier-resolution
    warning can say *why* the compiled tier degraded.
    """
    global _LIBRARY, _LOAD_ATTEMPTED, _BUILD_ERROR
    if _LOAD_ATTEMPTED:
        return _LIBRARY
    _LOAD_ATTEMPTED = True
    compiler = _find_compiler()
    if compiler is None:
        _BUILD_ERROR = "no C compiler on PATH (tried $REPRO_CC, cc, gcc, clang)"
        return None
    digest = hashlib.sha256(C_SOURCE.encode("utf-8")).hexdigest()[:16]
    directory = _cache_dir()
    target = os.path.join(directory, f"repro_kernels_{digest}.so")
    try:
        if not os.path.exists(target):
            _compile(compiler, directory, target)
        _LIBRARY = _bind(ctypes.CDLL(target))
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = ""
        if isinstance(exc, subprocess.CalledProcessError):
            detail = f": {exc.stderr}" if exc.stderr else ""
        _BUILD_ERROR = f"cc backend build failed ({exc}{detail})"
        _LIBRARY = None
    return _LIBRARY


def _reset_for_tests() -> None:
    """Forget the cached load attempt (test hook)."""
    global _LIBRARY, _LOAD_ATTEMPTED, _BUILD_ERROR
    _LIBRARY = None
    _LOAD_ATTEMPTED = False
    _BUILD_ERROR = None
