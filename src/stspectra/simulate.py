"""Synthetic multitype patterns with known ground truth.

Two generators: independent homogeneous Poisson components, and linked
cluster pairs where a shared latent parent process seeds offspring in both
members of each listed pair, inducing cross-dependence exactly there.

All draws run through numpy's counter-based Philox generator so a seed pins
the output byte-for-byte; the algorithm name is recorded in provenance.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .ingest import MultiPattern, Window

__all__ = [
    "LinkSpec",
    "SimSpec",
    "SimResult",
    "simulate",
    "simulate_binomial_null",
    "write_sidecar",
    "RNG_ALGORITHM",
]

RNG_ALGORITHM = "philox4x64"

KINDS = ("homogeneous_poisson", "linked_cluster")

# Rates and offspring rates are expected events per step on the unit window;
# above this ceiling one step's coordinates alone would take gigabytes (and
# numpy's Poisson sampler refuses rates near 1e19 with its own error).
MAX_RATE = 1e6
# Offspring are redrawn until they land inside the unit window, so a
# displacement much wider than its side of 1 makes the redraws run long.
MAX_DISPERSION = 1.0


def _spec_integer(value, name: str) -> int:
    """A simulation document's whole-number entry, which must be a JSON
    integer: a float, a bool or a numeric string is refused, not rounded."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(
            f"simulation spec has an unreadable value: {name} must be an "
            f"integer, got {json.dumps(value, default=repr)}"
        )
    return int(value)


def _spec_list(value, name: str) -> list:
    """A simulation document's list entry, which must be a JSON array."""
    if not isinstance(value, list):
        raise ValidationError(
            f"simulation spec has an unreadable value: {name} must be a list, "
            f"got {json.dumps(value, default=repr)}"
        )
    return value


def _spec_real(value, name: str) -> float:
    """A simulation spec's real-valued entry, which must be a finite number:
    a bool, a string, NaN or an infinity is refused, not coerced."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ValidationError(
            f"simulation spec has an unreadable value: {name} must be a "
            f"finite number, got {json.dumps(value, default=repr)}"
        )
    return float(value)


def _spec_ceiling(value: float, ceiling: float, name: str) -> None:
    """Refuse a simulation spec's entry above its ceiling."""
    if value > ceiling:
        raise ValidationError(
            f"simulation spec value out of range: {name} must be at most "
            f"{ceiling:g}, got {value:g}"
        )


def _parse_mark_dist(text: str) -> tuple[float, float]:
    try:
        name, params = text.split(":", 1)
        mu_text, sigma_text = params.split(",")
        mu, sigma = float(mu_text), float(sigma_text)
    except ValueError:
        raise ValidationError(
            f"cannot parse mark distribution {text!r}; expected normal:mu,sigma"
        )
    if name != "normal":
        raise ValidationError(f"unsupported mark distribution {name!r}")
    if sigma < 0:
        raise ValidationError("mark sigma must be >= 0")
    return mu, sigma


@dataclass(frozen=True)
class LinkSpec:
    """One linked pair: shared parents feed components i and j.

    Per time step, parents are Poisson(offspring_rate) uniform on the window;
    each parent contributes exactly one offspring to each side, displaced by
    an isotropic Gaussian of scale ``dispersion`` (redrawn until inside the
    unit square, so at most ``MAX_DISPERSION``, the square's side).  Parents
    are latent and never emitted.
    """

    i: int
    j: int
    offspring_rate: float
    dispersion: float


@dataclass(frozen=True)
class SimSpec:
    """What to simulate.  Every rate and offspring rate (expected events per
    step on the unit window) is at most ``MAX_RATE``, and every dispersion
    at most ``MAX_DISPERSION``."""

    kind: str
    rates: tuple[float, ...]
    T: int
    link_pairs: tuple[LinkSpec, ...] = ()
    seed: int = 0
    mark_dist: str | None = None

    def __post_init__(self):
        rates = tuple(
            _spec_real(r, f"entry {k} of 'rates'") for k, r in enumerate(self.rates, 1)
        )
        links = []
        for k, lp in enumerate(self.link_pairs, 1):
            lp = lp if isinstance(lp, LinkSpec) else LinkSpec(*lp)
            links.append(
                LinkSpec(
                    lp.i,
                    lp.j,
                    _spec_real(lp.offspring_rate, f"'offspring_rate' of link pair {k}"),
                    _spec_real(lp.dispersion, f"'dispersion' of link pair {k}"),
                )
            )
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "link_pairs", tuple(links))
        if self.kind not in KINDS:
            raise ValidationError(f"unknown simulation kind {self.kind!r}")
        if len(self.rates) < 2:
            raise ValidationError("need rates for at least 2 components")
        if any(r <= 0 for r in self.rates):
            raise ValidationError("all component rates must be > 0")
        for k, r in enumerate(self.rates, 1):
            _spec_ceiling(r, MAX_RATE, f"entry {k} of 'rates'")
        if self.T < 1:
            raise ValidationError("T must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.kind == "homogeneous_poisson" and self.link_pairs:
            raise ValidationError("homogeneous_poisson takes no link pairs")
        d = len(self.rates)
        for k, lp in enumerate(self.link_pairs, 1):
            if not (1 <= lp.i <= d and 1 <= lp.j <= d) or lp.i == lp.j:
                raise ValidationError(f"link pair ({lp.i},{lp.j}) outside 1..{d}")
            if lp.offspring_rate < 0:
                raise ValidationError("offspring rate must be >= 0")
            if lp.dispersion <= 0:
                raise ValidationError("dispersion must be > 0")
            name = f"of link pair {k}"
            _spec_ceiling(lp.offspring_rate, MAX_RATE, f"'offspring_rate' {name}")
            _spec_ceiling(lp.dispersion, MAX_DISPERSION, f"'dispersion' {name}")
        if self.mark_dist is not None:
            _parse_mark_dist(self.mark_dist)

    @property
    def d(self) -> int:
        return len(self.rates)

    @property
    def true_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (min(lp.i, lp.j), max(lp.i, lp.j))
            for lp in self.link_pairs
            if lp.offspring_rate > 0
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rates": list(self.rates),
            "T": self.T,
            "link_pairs": [
                {
                    "i": lp.i,
                    "j": lp.j,
                    "offspring_rate": lp.offspring_rate,
                    "dispersion": lp.dispersion,
                }
                for lp in self.link_pairs
            ],
            "seed": self.seed,
            "mark_dist": self.mark_dist,
            "rng": RNG_ALGORITHM,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SimSpec":
        if not isinstance(doc, dict):
            raise ValidationError("simulation spec must be a JSON object")
        try:
            pairs = _spec_list(doc.get("link_pairs", []), "'link_pairs'")
            links = tuple(
                LinkSpec(
                    i=_spec_integer(lp["i"], f"'i' of link pair {k}"),
                    j=_spec_integer(lp["j"], f"'j' of link pair {k}"),
                    offspring_rate=lp["offspring_rate"],
                    dispersion=lp["dispersion"],
                )
                for k, lp in enumerate(pairs, 1)
            )
            return cls(
                kind=doc["kind"],
                rates=_spec_list(doc["rates"], "'rates'"),
                T=_spec_integer(doc["T"], "'T'"),
                link_pairs=links,
                seed=_spec_integer(doc.get("seed", 0), "'seed'"),
                mark_dist=doc.get("mark_dist"),
            )
        except KeyError as exc:
            raise ValidationError(f"simulation spec lacks key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"simulation spec has an unreadable value: {exc}") from None


@dataclass(frozen=True)
class SimResult:
    pattern: MultiPattern
    true_edges: frozenset[tuple[int, int]]
    spec: SimSpec

    @property
    def counts(self) -> np.ndarray:
        return self.pattern.counts


def _displace_inside(rng, parents: np.ndarray, scale: float) -> np.ndarray:
    """Parent coords + N(0, scale^2 I) displacement, redrawn until inside."""
    pts = parents + rng.normal(0.0, scale, parents.shape)
    alive = np.nonzero(
        (pts[:, 0] < 0) | (pts[:, 0] > 1) | (pts[:, 1] < 0) | (pts[:, 1] > 1)
    )[0]
    while alive.size:
        pts[alive] = parents[alive] + rng.normal(0.0, scale, (alive.size, 2))
        bad = (
            (pts[alive, 0] < 0)
            | (pts[alive, 0] > 1)
            | (pts[alive, 1] < 0)
            | (pts[alive, 1] > 1)
        )
        alive = alive[bad]
    return pts


def simulate(spec: SimSpec) -> SimResult:
    """Draw one pattern from ``spec``; deterministic given ``spec.seed``.

    Draw order is fixed: background counts and coordinates per component
    (ascending) per step (ascending), then per link pair (listed order) per
    step the shared parents and the two offspring sets (side i, then j),
    then marks over the assembled pattern.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    d, T = spec.d, spec.T
    xs = [[] for _ in range(d)]
    ys = [[] for _ in range(d)]
    ts = [[] for _ in range(d)]

    for i in range(d):
        for step in range(1, T + 1):
            count = int(rng.poisson(spec.rates[i]))
            coords = rng.random((count, 2))
            xs[i].append(coords[:, 0])
            ys[i].append(coords[:, 1])
            ts[i].append(np.full(count, step, dtype=np.int64))

    for lp in spec.link_pairs:
        for step in range(1, T + 1):
            n_par = int(rng.poisson(lp.offspring_rate))
            parents = rng.random((n_par, 2))
            for side in (lp.i, lp.j):
                pts = _displace_inside(rng, parents, lp.dispersion)
                xs[side - 1].append(pts[:, 0])
                ys[side - 1].append(pts[:, 1])
                ts[side - 1].append(np.full(n_par, step, dtype=np.int64))

    x = np.concatenate([np.concatenate(parts) for parts in xs])
    y = np.concatenate([np.concatenate(parts) for parts in ys])
    t = np.concatenate([np.concatenate(parts) for parts in ts])
    type_id = np.concatenate(
        [
            np.full(sum(p.size for p in xs[i]), i + 1, dtype=np.int64)
            for i in range(d)
        ]
    )

    marks = None
    if spec.mark_dist is not None:
        mu, sigma = _parse_mark_dist(spec.mark_dist)
        marks = rng.normal(mu, sigma, x.size)

    window = Window(0.0, 1.0, 0.0, 1.0, T=T)
    pattern = MultiPattern(
        x=x,
        y=y,
        t=t,
        type_id=type_id,
        labels=tuple(str(i + 1) for i in range(d)),
        window=window,
        marks=marks,
    )
    return SimResult(pattern=pattern, true_edges=spec.true_edges, spec=spec)


def simulate_binomial_null(
    counts: np.ndarray | list[int], T: int, seed: int
) -> MultiPattern:
    """Independent uniform components with exactly the given counts.

    This is homogeneous Poisson conditioned on the observed totals — the
    matched-counts null used for threshold calibration.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size < 2 or (counts <= 0).any():
        raise ValidationError("need >= 2 components with positive counts")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    rng = np.random.Generator(np.random.Philox(seed))
    xs, ys, ts = [], [], []
    for n_i in counts:
        coords = rng.random((int(n_i), 2))
        xs.append(coords[:, 0])
        ys.append(coords[:, 1])
        ts.append(rng.integers(1, T + 1, int(n_i)))
    type_id = np.concatenate(
        [np.full(int(n_i), k + 1, dtype=np.int64) for k, n_i in enumerate(counts)]
    )
    window = Window(0.0, 1.0, 0.0, 1.0, T=T)
    return MultiPattern(
        x=np.concatenate(xs),
        y=np.concatenate(ys),
        t=np.concatenate(ts).astype(np.int64),
        type_id=type_id,
        labels=tuple(str(k + 1) for k in range(counts.size)),
        window=window,
    )


def write_sidecar(result: SimResult, path: str | Path) -> None:
    """Ground-truth JSON next to a simulated CSV: spec, edges, counts."""
    payload = {
        "spec": result.spec.to_dict(),
        "true_edges": sorted(list(e) for e in result.true_edges),
        "counts": result.counts.tolist(),
        "n": int(result.pattern.n),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
