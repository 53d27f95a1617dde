"""Synthetic scored populations and the two experiment base datasets.

Scores per group are drawn from a Beta family whose parameters are solved
numerically so that the mass above 0.5 matches the group's target positive
rate; the positive count is made exact (up to rounding) by inverse-CDF
sampling conditional on each side of the 0.5 cutoff. The inversion, about 1 us
per score, is split into contiguous chunks on up to one thread per CPU the
process may run on, all joined before `generate_population` returns; the
chunks are elementwise, so the CPU count changes no output bit.

The only scipy used is `scipy.special` (the regularized incomplete beta
function and its inverse), imported inside the functions that use it, so
commands that never generate a population (`fairaudit audit`, `rank`) do not
pay for its import. The root finder is a port of scipy's `brentq`, so neither
`scipy.stats` nor `scipy.optimize` is loaded: importing `brentq` after
`scipy.special` took 0.14-0.17 s on a 2-vCPU host (scipy 1.17), about a third
of the benchmark's 0.4-0.5 s experiment set-up.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDatasetError, ValidationError, in_unit, require, require_types

# scores are clamped into [SCORE_CLAMP, 1 - SCORE_CLAMP] before the logit
SCORE_CLAMP = 1e-6
# rows formatted per write by write_population_csv; bounds the text held at once
# (about 0.5 MB of lists and text at any population size; larger chunks write no faster)
_WRITE_CHUNK_ROWS = 1024
# fewest Beta quantiles (about 1 us each to invert) one thread takes, so groups below
# twice this, such as the bundled group 1's 3,551 rows, stay on the calling thread
_MIN_CHUNK = 4096


@dataclass(eq=False)
class Population:
    """Individuals as aligned columns: id, group, ground-truth score, an
    (n, d) feature matrix, and, once a label policy has run, a binary label."""

    id: np.ndarray
    group: np.ndarray
    score: np.ndarray
    features: np.ndarray
    label: np.ndarray | None = None

    def __post_init__(self):
        self.id = _column("id", self.id, np.int64)
        self.group = _binary("group", self.group)
        self.score = _column("score", self.score, float)
        # C-ordered, as _column stores 1-D columns, so fit's bits do not depend on the caller's
        # layout; not inside _array, which must keep a 0-d array 0-d for _column to refuse
        self.features = np.ascontiguousarray(_array("features", self.features, float))
        if self.label is not None:
            self.label = _binary("label", self.label)
        n = self.id.size
        if self.features.ndim != 2:
            raise ValidationError("features must be an (n, d) matrix")
        for name in ("group", "score", "features", "label"):
            column = getattr(self, name)
            if column is not None and len(column) != n:
                raise ValidationError(f"{name} is not aligned with id")
        if not ((self.score >= 0.0) & (self.score <= 1.0)).all():
            raise ValidationError("score must lie in [0, 1]")
        if not np.isfinite(self.features).all():
            raise ValidationError("features must all be finite")

    def __len__(self) -> int:
        return self.id.size

    def take(self, index) -> "Population":
        """The rows an index array or boolean mask selects, in its order."""
        index = np.asarray(index)
        if index.dtype == bool:
            if index.shape != (len(self),):
                raise IndexError(f"boolean mask of shape {index.shape} does not match "
                                 f"{len(self)} rows")
            index = np.flatnonzero(index)
        elif not index.size:  # np.asarray([]) is float64, which take refuses
            index = index.astype(np.intp)
        return Population(self.id.take(index), self.group.take(index),
                          self.score.take(index), self.features.take(index, axis=0),
                          None if self.label is None else self.label.take(index))


def _array(name: str, values, dtype=None) -> np.ndarray:
    """values as an array of dtype (by default, their own). Before a cast to int64 or
    float64 it checks, in the values' own dtype, that each is a real number and, for
    int64, an integer that int64 holds; values already of dtype take no extra pass."""
    try:
        values = np.asarray(values)
    except ValueError as e:  # nested lists of unequal lengths
        raise ValidationError(f"{name}: {e}") from None
    if dtype is None or values.dtype == dtype:
        return values
    kind = values.dtype.kind
    if dtype is np.int64:
        if kind == "f":  # NaN fails every comparison; the bounds exclude +-inf
            integral = np.all((np.trunc(values) == values)
                              & (values >= -2.0**63) & (values < 2.0**63))
        elif kind == "u":
            integral = values.size == 0 or values.max() < 2**63
        else:
            integral = kind in "bi"
        if not integral:
            raise ValidationError(f"{name} must hold integers in the int64 range")
    elif kind not in "biuf":
        raise ValidationError(f"{name} must hold real numbers, got dtype {values.dtype}")
    return values.astype(dtype)


def _column(name: str, values, dtype=None) -> np.ndarray:
    """values as a contiguous 1-D array of dtype (by default, their own); see _array."""
    values = _array(name, values, dtype)
    if values.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D column, got shape {values.shape}")
    return np.ascontiguousarray(values)


def _binary(name: str, values) -> np.ndarray:
    """values as contiguous 1-D int64, after checking each is 0 or 1 in its own dtype."""
    # contiguous first: the check reads a strided view (a structured-array field) about 2x slower
    values = _column(name, values)
    # np.all, not .all(): numpy < 1.25 compares a string array with 0 as one scalar
    if not np.all((values == 0) | (values == 1)):
        raise ValidationError(f"{name} must be 0 or 1")
    return values.astype(np.int64, copy=False)


@dataclass(frozen=True)
class PopulationSpec:
    """Calibration targets and knobs for the synthetic population."""

    n_group0: int
    n_group1: int
    positive_rate_group0: float
    positive_rate_group1: float
    feature_dim: int = 5
    proxy_strength: float = 0.8
    noise_scale: float = 1.0
    score_concentration: float = 1.0  # a + b of the per-group Beta score family

    def __post_init__(self):
        require(self, "n_group0 n_group1", lambda v: v > 0, "be positive")
        require(self, "positive_rate_group0 positive_rate_group1",
                lambda v: 0.0 < v < 1.0, "lie strictly inside (0, 1)")
        require(self, "feature_dim", lambda v: v >= 2, "be >= 2")
        require(self, "proxy_strength", in_unit, "lie in [0, 1]")
        require(self, "noise_scale score_concentration", lambda v: v > 0 and math.isfinite(v),
                "be positive and finite")
        require_types(self)


def _brentq(f, xa: float, xb: float, xtol: float, maxiter: int = 100) -> float:
    """A root of f between xa and xb by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy.optimize.brentq (scipy/optimize/Zeros/brentq.c)
    with its default rtol and maxiter, so it evaluates f at the same points and
    returns the same float. Raises ValidationError when f(xa) and f(xb) have the
    same sign, when f is NaN, or when maxiter iterations do not converge.
    """
    rtol = 4 * np.finfo(float).eps  # scipy's default, and the smallest it accepts

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValidationError(f"f({x!r}) is NaN")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValidationError(f"f({xa!r}) and f({xb!r}) have the same sign")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ValidationError(f"no convergence in {maxiter} iterations")


def _beta_shape(rate: float, concentration: float) -> tuple[float, float]:
    """Solve for Beta(a, b) with a + b = concentration and P(X >= 0.5) = rate."""
    from scipy import special

    lo = 1e-9 * concentration
    hi = concentration - lo

    def gap(a):
        return float(special.betaincc(a, concentration - a, 0.5)) - rate

    try:
        a = _brentq(gap, lo, hi, xtol=1e-13)
    except ValidationError as e:
        raise ValidationError(
            f"cannot calibrate a Beta score family with score_concentration "
            f"{concentration!r} to positive rate {rate!r}: {e}") from None
    return a, concentration - a


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS and Windows
        return os.cpu_count() or 1


def _betaincinv(a: float, b: float, q: np.ndarray) -> np.ndarray:
    """scipy.special.betaincinv(a, b, q), bit for bit, inverted in contiguous chunks of
    at least _MIN_CHUNK values on up to one thread per CPU.

    betaincinv is elementwise and releases the GIL, so the chunks run concurrently. The
    calling thread inverts the first chunk and joins the helper threads before this
    returns or raises; a helper's exception is raised again here. Each chunk runs under
    the caller's scipy.special error state, which is thread-local, so a chunk raises
    where the serial call raises.
    """
    from scipy import special

    chunks = min(_cpu_count(), q.size // _MIN_CHUNK)
    if chunks < 2:
        return special.betaincinv(a, b, q)

    scores = np.empty_like(q)
    bounds = [q.size * i // chunks for i in range(chunks + 1)]
    state = special.geterr()
    failures = {}  # chunk start -> the exception its helper raised

    def invert(lo, hi):
        try:
            with special.errstate(**state):
                special.betaincinv(a, b, q[lo:hi], out=scores[lo:hi])
        except Exception as e:
            failures[lo] = e

    # plain threads: a short-lived ThreadPoolExecutor here raised the export_csv
    # benchmark's peak RSS by about 2 MB in most runs
    helpers = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            helper = threading.Thread(target=invert, args=(lo, hi))
            helper.start()
            helpers.append(helper)
        special.betaincinv(a, b, q[:bounds[1]], out=scores[:bounds[1]])
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return scores


def _group_scores(rng, n: int, rate: float, concentration: float) -> np.ndarray:
    """Draw n Beta scores with an exact (rounded) count of scores >= 0.5."""
    from scipy import special

    a, b = _beta_shape(rate, concentration)
    k = int(round(n * rate))
    split = special.betainc(a, b, 0.5)
    # the quantiles, in place: split + u * (1 - split) for the k draws above the cutoff,
    # u * split below it
    q = rng.random(n)
    q[:k] *= 1.0 - split
    q[:k] += split
    q[k:] *= split
    # the inverse CDF: scipy.stats.beta.ppf runs the same Boost inversion and
    # matches it bit for bit except where that inversion gives up with a warning
    # (quantiles below about 1e-100 at some shapes)
    scores = _betaincinv(a, b, q)
    # guard the cutoff against ppf roundoff so the positive count is exact
    high, low = scores[:k], scores[k:]
    np.clip(high, 0.5, 1.0, out=high)
    np.clip(low, 0.0, np.nextafter(0.5, 0.0), out=low)
    return scores


def generate_population(spec: PopulationSpec, seed: int) -> Population:
    """Generate a population from seed, calibrated to the spec's marginal rates.

    Informative features are noisy linear functions of logit(score); the last
    feature is a proxy correlated with group at spec.proxy_strength.
    """
    rng = np.random.default_rng(seed)
    d = spec.feature_dim
    slopes = rng.uniform(0.5, 1.5, size=d - 1)

    scores = np.concatenate([
        _group_scores(rng, spec.n_group0, spec.positive_rate_group0, spec.score_concentration),
        _group_scores(rng, spec.n_group1, spec.positive_rate_group1, spec.score_concentration)])
    order = rng.permutation(scores.size)
    scores = scores[order]
    # group 0 fills positions [0, n_group0) before the shuffle
    groups = (order >= spec.n_group0).astype(int)
    del order
    n = scores.size

    # logit of the clamped score, in place; noise is the scratch column
    logits = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    noise = np.subtract(1.0, logits)
    np.divide(logits, noise, out=logits)
    np.log(logits, out=logits)
    feats = np.empty((n, d))
    for j in range(d - 1):
        rng.standard_normal(out=noise)
        noise *= spec.noise_scale
        np.add(slopes[j] * logits, noise, out=feats[:, j])
    del logits
    # standardized group indicator mixed with unit noise gives sample
    # correlation ~= proxy_strength
    rho = spec.proxy_strength
    g_std = groups - groups.mean()
    g_std /= groups.std()
    g_std *= rho
    rng.standard_normal(out=noise)
    noise *= math.sqrt(1.0 - rho * rho)
    np.add(g_std, noise, out=feats[:, d - 1])

    return Population(np.arange(n), groups, scores, feats)


def make_base_dataset_A(pop: Population, seed: int) -> Population:
    """Keep only group-0 records and reassign group by an independent fair coin.

    Scores and features are left untouched, so after reassignment neither
    carries any group signal: both the group split and the per-group positive
    rates are balanced in expectation.
    """
    whites = pop.take(pop.group == 0)
    if not whites:
        raise DegenerateDatasetError("population contains no group-0 records")
    rng = np.random.default_rng(seed)
    return replace(whites, group=rng.integers(0, 2, size=len(whites)))


def make_base_dataset_B(pop: Population) -> Population:
    """Identity: the unmodified population is the base dataset."""
    if not pop:
        raise ValidationError("population must be non-empty")
    return pop


def write_population_csv(pop: Population, path) -> None:
    """Write rows as CSV: id,group,score[,label],f0,...  Reals keep 12 significant digits.

    The label column is present iff the population is labeled. Lines end with CRLF.
    """
    if not pop:
        raise ValidationError("cannot export an empty population")
    header = ["id", "group", "score"]
    columns = [pop.id, pop.group, pop.score]
    if pop.label is not None:
        header.append("label")
        columns.append(pop.label)
    header += [f"f{j}" for j in range(pop.features.shape[1])]
    columns += list(pop.features.T)
    # integers as %d, reals as %.12g (the text format(x, ".12g") gives); no field needs quoting
    row = ",".join("%d" if c.dtype.kind == "i" else "%.12g" for c in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(pop), _WRITE_CHUNK_ROWS):
            chunk = [c[start:start + _WRITE_CHUNK_ROWS].tolist() for c in columns]
            fh.write("".join(map(row.__mod__, zip(*chunk))))
