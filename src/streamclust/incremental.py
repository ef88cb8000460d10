"""Single-pass absorption of a chunk into an existing set of cluster summaries.

Each record goes to its nearest centroid if it falls within that cluster's
radius, nudging the centroid by a running mean; otherwise it counts as an
outlier and is discarded. Radii never change here, so clusters cannot inflate
between retrains. The pass is inherently sequential: centroids move as records
arrive, and the same input order always yields bit-identical output.

A cluster that absorbs its n-th record moves its centroid c towards the
record v by (1 - 1/n) * c + (1/n) * v, coordinate by coordinate, which keeps
it the exact running mean. The whole pass over a chunk is one generated
function per (k clusters, d dimensions), built from the two integers on first
use and cached. It takes prev's centroids, radii and lifetime counts and the
chunk's record count, and first computes the bounds below: each cluster's
move bound, the safe radii and reach. It then walks the chunk's d columns
together, so no record becomes a tuple unless it is scanned, and holds the
current cluster in scalar locals: its d coordinates and its lifetime count,
updated with one statement per coordinate. Those locals are written back to
the centroid and lifetime lists before a scan and after the last record; the
chunk counts are then each lifetime count less prev's, and the kernel hands
centroids, lifetime counts and chunk counts back as the tuples
ClusteringResult holds. The nearest-centroid scan is unrolled into k
math.dist calls, so the loop pays no per-cluster or per-coordinate iteration.
dist_clust_trace is the one absorb function; the engine reports its trace
and metrics score it.

Most records land in the cluster the record before them did, so the kernel
first measures the distance b to that cluster i and runs the k-distance scan
only when the half-gap test `b < safe[i]` fails (Elkan 2003, Lemma 1). It
takes b as math.hypot of the d coordinate gaps: hypot and dist hand the same
array of |x_j - c_j| to one norm routine in CPython, so b has the bits the
scan's dist(v, centroids[i]) would give. The test is exact: it passes only
where the scan would pick i with the same b, so the output keeps every bit.
Centroid j moves in a chunk of n records by at most move_j: its m-th absorb
steps it by at most r_j / (L_j + m) towards a record within its radius
r_j, and those steps sum to at most r_j * log1p(n / L_j) for a lifetime
count L_j; a second term,
n * sqrt(d) * (1e-15 * (max|c_j| + r_j + r_j * log1p(n / L_j)) + 1e-300),
bounds the rounding of n running-mean updates, whose error per coordinate is
a few ulps of the largest magnitude involved, and at least the absolute
rounding of subnormals. If b < safe_i = min over l of
(|c_i c_l| * (1 - 1e-9) - move_i - move_l) * (0.5 - 1e-9), then at any point
of the chunk the centroids i and l are more than 2b apart, so by the
triangle inequality l lies more than b from the record: i is strictly
nearest, never a tie, and the scan, which computes the same
dist(v, centroids[i]), would return it. The 1e-9 factors cover the few-ulp
error of each math.dist and of the sums, and the 1e-300 floor keeps every
compared quantity where that error is relative. Records and centroids lie
in the domain (see core.BOUND), so no distance overflows. With k = 1 no
other centroid exists, and safe = [inf]. safe_i is never NaN: every term is
finite or +inf and >= 0.

A record that fails the half-gap test can still skip the scan when it is
certified an outlier. With reach = max over l of r_l * (1 + 1e-9) + 1e-300
and far_i = (safe_i + safe_i - reach) * (1 - 1e-9), a record with b < far_i
lies more than reach from every other centroid l: i and l stay more than
2 * safe_i apart through the chunk, so l lies more than 2 * safe_i - b >
reach from the record. It lies outside i's own ball too, as safe_i <= b <
2 * safe_i - reach gives b > reach >= r_i. So whichever cluster the scan
would pick, the record is farther from it than its radius: an outlier,
which is all the scan would decide. Skipping it changes only which cluster
is current and when that cluster's locals are written back, and neither
shows in the output. The 1e-9 factors cover the few-ulp error of b, of the
subtraction and of each distance the scan would take; the 1e-300 keeps
reach above 0, so a computed distance beyond it exceeds a radius of 0. A
record the test cannot certify scans as before: an infinite radius makes
reach inf and far_i -inf, or NaN when safe_i is inf; where i's ball
overlaps another, safe_i < reach, so no b lies in [safe_i, far_i), and
centroids that may move past each other make both negative; with k = 1,
every b, finite in the domain, passes the half-gap test.
"""

import functools
import itertools
import math

from .core import Chunk, ClusteringResult


@functools.lru_cache(maxsize=None, typed=True)
def _absorb_kernel(clusters: int, dimensions: int):
    """The whole absorb pass for k clusters in d dimensions, as generated code.

    absorb(columns, start, radii, born, records) takes the chunk's d column
    lists, prev's centroids, radii and lifetime counts, and the chunk's
    record count. It first takes each cluster's move bound in a loop over
    the clusters, then the safe radii in a loop over a precomputed tuple of
    the k(k - 1)/2 cluster pairs, and reach (see the module docstring for
    the formulas). It then walks the columns together,
    one record x0..x{d-1} at a time. It returns the result's five fields,
    ready for ClusteringResult: the centroids, radii, lifetime counts and
    chunk counts as tuples and the outlier count; and the trace: each
    record's cluster (-1 for an outlier) as a tuple, and the SSE. The
    current cluster i lives in locals: its coordinates
    c0..c{d-1}, lifetime count n, radius, safe radius and far radius f,
    which is taken from safe[i] and reach as i is loaded. A record first
    takes b = hypot(x0 - c0, ...), the same bits as math.dist (both feed one
    array of |x_j - c_j| to the same norm); the update is n += 1, w = 1/n
    and one `c_j = keep * c_j + w * x_j` per coordinate. When the half-gap
    test fails and b < f, the record is an outlier and the next one
    follows. When both tests fail, the locals are written back to
    centroids[i] and lifetimes[i], and the scan holds k dist() calls on the
    record as a tuple, each followed by `if x < b`, so ties keep the lowest
    index; the chosen cluster's entries are then loaded into the locals,
    and the last cluster is written back after the loop. The source is
    linear in k and d: only the scan, the mean update and the chunk counts
    are unrolled, and the set-up's loops are not. It comes from
    the two integers alone, checked before any code is built; typed caching
    keeps 2.0 or True from reusing the kernel cached for 2 or 1. Generated,
    because on Python 3.11 range(), list indexing, tuple building and a call
    per absorbed record cost more than the distance work at small k and d.
    """
    if type(clusters) is not int or type(dimensions) is not int:
        raise TypeError(f"kernel shape must be two ints, got {clusters!r}, {dimensions!r}")
    scan = "".join(
        f"            x = dist(v, centroids[{j}])\n"
        f"            if x < b: b = x; i = {j}\n"
        for j in range(1, clusters)
    )
    xs = "".join(f"x{j}, " for j in range(dimensions))
    cs = "".join(f"c{j}, " for j in range(dimensions))
    gaps = "".join(f"x{j} - c{j}, " for j in range(dimensions))
    mean = "".join(f"            c{j} = keep * c{j} + w * x{j}\n" for j in range(dimensions))
    deltas = "".join(f"lifetimes[{j}] - born[{j}], " for j in range(clusters))
    source = (
        "def absorb(columns, start, radii, born, records):\n"
        "    dist = math.dist\n"
        "    hypot = math.hypot\n"
        "    log1p = math.log1p\n"
        f"    scale = records * {math.sqrt(dimensions)!r}\n"
        "    moves = []\n"
        "    move = moves.append\n"
        "    for c, r, life in zip(start, radii, born):\n"
        "        drift = r * log1p(records / life)\n"
        "        move(drift * (1 + 1e-9) + scale * (1e-15 * (max(map(abs, c)) + r + drift) + 1e-300))\n"
        f"    safe = [math.inf] * {clusters}\n"
        "    for j, l in pairs:\n"
        "        half = (dist(start[j], start[l]) * (1 - 1e-9) - moves[j] - moves[l]) * (0.5 - 1e-9)\n"
        "        if half < safe[j]:\n"
        "            safe[j] = half\n"
        "        if half < safe[l]:\n"
        "            safe[l] = half\n"
        "    reach = max(radii) * (1 + 1e-9) + 1e-300\n"
        "    centroids = list(start)\n"
        "    lifetimes = list(born)\n"
        "    clusters = []\n"
        "    append = clusters.append\n"
        "    outliers = 0\n"
        "    sse = 0.0\n"
        "    i = 0\n"
        f"    {cs}= centroids[0]\n"
        "    n, r, s = lifetimes[0], radii[0], safe[0]\n"
        "    f = (s + s - reach) * (1 - 1e-9)\n"
        f"    for {xs}in zip(*columns):\n"
        f"        b = hypot({gaps})\n"
        "        if not b < s:\n"
        "            if b < f:\n"
        "                outliers += 1\n"
        "                append(-1)\n"
        "                continue\n"
        f"            centroids[i] = ({cs})\n"
        "            lifetimes[i] = n\n"
        f"            v = ({xs})\n"
        "            b = dist(v, centroids[0]); i = 0\n"
        f"{scan}"
        f"            {cs}= centroids[i]\n"
        "            n, r, s = lifetimes[i], radii[i], safe[i]\n"
        "            f = (s + s - reach) * (1 - 1e-9)\n"
        "        if b <= r:\n"
        "            n += 1\n"
        "            w = 1.0 / n\n"
        "            keep = 1.0 - w\n"
        f"{mean}"
        "            append(i)\n"
        "            sse += b * b\n"
        "        else:\n"
        "            outliers += 1\n"
        "            append(-1)\n"
        f"    centroids[i] = ({cs})\n"
        "    lifetimes[i] = n\n"
        f"    return (tuple(centroids), radii, tuple(lifetimes), ({deltas}), outliers), "
        "(tuple(clusters), sse)\n"
    )
    namespace = {"math": math, "pairs": tuple(itertools.combinations(range(clusters), 2))}
    exec(compile(source, f"<absorb kernel k={clusters} d={dimensions}>", "exec"), namespace)
    return namespace["absorb"]


def dist_clust_trace(chunk: Chunk, prev: ClusteringResult) -> tuple[ClusteringResult, tuple]:
    """Absorb a chunk into the previous result; return the updated result and
    the trace (clusters, sse): each record's cluster index, -1 for an outlier,
    and the absorbed records' squared distances added in record order.

    Starts from prev's clusters with every per-chunk count and the outlier
    counter reset to zero (prev itself is never mutated, so its counts remain
    available for drift comparison). The chunk's rows are processed in order:
    the nearest centroid wins (ties go to the lowest cluster index),
    absorption requires distance <= that cluster's radius, and everything
    else is counted as an outlier and dropped.
    """
    centroids, radii, lifetimes, _, _ = prev
    dimensions = chunk.dimensions
    if dimensions != len(centroids[0]):
        raise ValueError(f"chunk has {dimensions} dimensions, clusters have {prev.dimensions}")
    absorb = _absorb_kernel(len(centroids), dimensions)
    fields, trace = absorb(chunk.values.T.tolist(), centroids, radii, lifetimes, len(chunk))
    return ClusteringResult(*fields), trace
