"""Simulated stand-ins for the paper's two real-world datasets.

The paper evaluates the RMI attack on (A) unique salaries of
Miami-Dade County employees [24] and (B) latitudes of schools from
OpenStreetMap [30].  Neither raw file ships with this reproduction
(no network access), so we generate synthetic keysets that match every
statistic the paper reports and the CDF shapes it plots (Fig. 7):

* **Salaries** — ``n = 5,300`` unique integer salaries between
  $22,733 and $190,034 (universe ``m = 167,301``, density 3.71%).
  The plotted CDF rises steeply through the $40k-$80k band and
  flattens into a long thin right tail, the classic right-skewed
  salary shape.  We reproduce it with a log-normal body plus a small
  high-earner tail component.
* **School latitudes** — latitudes in ``[-30, +50]`` scaled by 15,000
  and rounded: ``n = 302,973`` unique keys in a universe of
  ``1,200,000`` (density 25.25%).  The plotted CDF has distinct
  plateaus: schools concentrate in inhabited latitude bands (India,
  China/US/Europe, Brazil...).  We reproduce it with a mixture of
  latitude bumps weighted by population.

The attacks consume only the key multiset (values, ranks, density), so
matching support, cardinality, density and CDF shape exercises exactly
the code paths the paper's experiments exercise.  The substitution is
recorded in DESIGN.md section 2.
"""

from __future__ import annotations

import numpy as np

from .keyset import Domain, KeySet
from .synthetic import keyset_from_sampler

__all__ = [
    "miami_salaries",
    "osm_school_latitudes",
    "SALARY_N",
    "SALARY_DOMAIN",
    "OSM_N",
    "OSM_DOMAIN",
]

#: Published statistics of the Miami-Dade salary dataset (Sec. V-C).
SALARY_N = 5_300
SALARY_DOMAIN = Domain(22_733, 190_034)

#: Published statistics of the OSM school-latitude dataset (Sec. V-C).
OSM_N = 302_973
OSM_DOMAIN = Domain(0, 1_199_999)


def miami_salaries(rng: np.random.Generator,
                   n: int = SALARY_N) -> KeySet:
    """Synthetic Miami-Dade salary keyset (dataset A of Sec. V-C).

    A 90/10 mixture of a log-normal body (median ~$62k) and a wider
    high-earner log-normal tail, clipped to the published range.  The
    resulting CDF matches Fig. 7 (top): near-vertical through the
    middle band, long flat tail above $120k.

    Parameters
    ----------
    rng:
        Source of randomness; fix the seed for reproducible keysets.
    n:
        Number of unique salaries; defaults to the paper's 5,300.
        Smaller values are handy in tests.
    """
    body_median = 62_000.0
    body_sigma = 0.28
    tail_median = 115_000.0
    tail_sigma = 0.25
    tail_weight = 0.10

    def sampler(size: int) -> np.ndarray:
        n_tail = int(size * tail_weight)
        body = rng.lognormal(np.log(body_median), body_sigma,
                             size=size - n_tail)
        tail = rng.lognormal(np.log(tail_median), tail_sigma, size=n_tail)
        return np.rint(np.concatenate([body, tail])).astype(np.int64)

    return keyset_from_sampler(n, SALARY_DOMAIN, sampler, rng)


# (centre latitude, std in degrees, weight) for inhabited bands with
# many schools; weights roughly follow population at that latitude.
_LATITUDE_BUMPS = (
    (28.0, 6.0, 0.30),   # northern India, southern China, Mexico
    (40.0, 5.0, 0.28),   # US, southern Europe, northern China, Japan
    (48.0, 3.0, 0.10),   # northern Europe (clipped at +50)
    (12.0, 6.0, 0.14),   # sub-Saharan Africa, SE Asia
    (-8.0, 7.0, 0.10),   # Indonesia, Brazil north
    (-25.0, 5.0, 0.08),  # Brazil south, South Africa, Australia
)

_LAT_LO, _LAT_HI, _LAT_SCALE = -30.0, 50.0, 15_000.0


def osm_school_latitudes(rng: np.random.Generator,
                         n: int = OSM_N) -> KeySet:
    """Synthetic OSM school-latitude keyset (dataset B of Sec. V-C).

    Latitudes are drawn from a mixture of population bumps over
    ``[-30, +50]`` degrees, scaled by 15,000, shifted to start at 0 and
    rounded — the exact preprocessing the paper describes.  The dense
    bands produce the plateau-rich CDF of Fig. 7 (bottom).

    Parameters
    ----------
    rng:
        Source of randomness; fix the seed for reproducible keysets.
    n:
        Number of unique keys; defaults to the paper's 302,973.  Use a
        smaller ``n`` for quick runs — density then drops accordingly.
    """
    centres = np.array([b[0] for b in _LATITUDE_BUMPS])
    stds = np.array([b[1] for b in _LATITUDE_BUMPS])
    weights = np.array([b[2] for b in _LATITUDE_BUMPS])
    weights = weights / weights.sum()

    def sampler(size: int) -> np.ndarray:
        component = rng.choice(len(centres), size=size, p=weights)
        lat = rng.normal(centres[component], stds[component])
        lat = lat[(lat >= _LAT_LO) & (lat <= _LAT_HI)]
        return np.rint((lat - _LAT_LO) * _LAT_SCALE).astype(np.int64)

    return keyset_from_sampler(n, OSM_DOMAIN, sampler, rng)
