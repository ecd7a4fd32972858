"""Model types for multivariate Hawkes processes with time-varying structure.

A model bundles per-node baseline rates, per-pair excitation weights and
delay kernels, and the declared constants (floors, caps, smoothness and
stability bounds) that the rest of the package checks against.  Weight
convention: ``weights[(i, j)]`` is the jump added to node i's intensity by
an event of node j, so row i collects everything that excites node i.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Mapping, get_type_hints

import numpy as np
import yaml

__all__ = [
    "BaselineSpec",
    "KernelSpec",
    "ModelConstants",
    "HawkesModel",
    "DependencyGraph",
    "AssumptionCheck",
    "ValidationReport",
    "validate_model",
    "true_graph",
    "load_model",
    "save_model",
]

_BASELINE_FAMILIES = ("constant", "sinusoidal")
_KERNEL_FAMILIES = ("exponential", "modulated")
_PRUNE_LOG = 27.631021115928547  # -log(1e-12): kernel values below 1e-12 are dropped
_gauss_legendre = cache(lambda: np.polynomial.legendre.leggauss(16))  # on [-1, 1]
_MAX_VALUES = 1 << 20  # integrand values (8 MB) per array of KernelSpec.integral


@dataclass(frozen=True)
class BaselineSpec:
    """Deterministic baseline rate of one node,
    rate(t) = level + amplitude * sin(frequency * t + phase).

    The family says which fields may be nonzero: a ``constant`` baseline has
    amplitude, frequency and phase 0, so its rate is level.  A
    ``sinusoidal`` one needs level > |amplitude| to stay positive.
    """

    family: str
    level: float
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in _BASELINE_FAMILIES:
            raise ValueError(f"unknown baseline family {self.family!r}")
        if self.level <= 0:
            raise ValueError("baseline level must be positive")
        if self.family == "constant" and (self.amplitude or self.frequency or self.phase):
            raise ValueError("constant baseline needs amplitude, frequency and phase 0")
        if abs(self.amplitude) >= self.level:
            raise ValueError("sinusoidal baseline needs level > |amplitude|")

    def value(self, t):
        """Rate at time t (scalar or ndarray). Rejects negative scalar t."""
        if np.isscalar(t) and t < 0:
            raise ValueError("baseline evaluated at negative time")
        return self.level + self.amplitude * np.sin(self.frequency * np.asarray(t) + self.phase)

    def floor(self) -> float:
        """Infimum of the rate over all times."""
        return self.level - abs(self.amplitude)

    def cap(self) -> float:
        """Supremum of the rate over all times."""
        return self.level + abs(self.amplitude)


@dataclass(frozen=True)
class KernelSpec:
    """Delay kernel phi(t, s) = exp(-rate(s) * (t - s)) for an event at time s
    observed at time t >= s, with the decay rate fixed at the event time,
    rate(s) = decay + decay_amplitude * sin(decay_frequency * s).

    The family says which fields may be nonzero: an ``exponential`` kernel
    has decay_amplitude and decay_frequency 0, so phi(t, s) = exp(-decay *
    (t - s)).  A ``modulated`` one needs decay > |decay_amplitude| > 0 so the
    rate never vanishes.  Both satisfy phi(s, s) = 1 exactly.
    """

    family: str
    decay: float
    decay_amplitude: float = 0.0
    decay_frequency: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in _KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.decay <= 0:
            raise ValueError("kernel decay must be positive")
        if self.family == "exponential":
            if self.decay_amplitude or self.decay_frequency:
                raise ValueError("exponential kernel needs decay_amplitude and decay_frequency 0")
        elif not 0 < abs(self.decay_amplitude) < self.decay:
            raise ValueError("modulated kernel needs decay > |decay_amplitude| > 0")

    def rate(self, s):
        """Decay rate applied to an event at time s."""
        return self.decay + self.decay_amplitude * np.sin(self.decay_frequency * np.asarray(s))

    def rate_floor(self) -> float:
        return self.decay - abs(self.decay_amplitude)

    def rate_cap(self) -> float:
        return self.decay + abs(self.decay_amplitude)

    def value(self, t, s):
        """phi(t, s). Scalar t < s is rejected; arrays are assumed valid."""
        if np.isscalar(t) and np.isscalar(s):
            if s < 0:
                raise ValueError("kernel evaluated at negative event time")
            if t < s:
                raise ValueError("kernel evaluated before its event time")
        return np.exp(-self.rate(s) * (np.asarray(t) - np.asarray(s)))

    def integral(self, t):
        """integral of phi(t, x) dx over x in [0, t], for t >= 0.

        Closed form for the exponential family, whose t is a scalar.  The
        modulated family takes a scalar or an array t.  Its rate has period
        P = 2 pi / |decay_frequency|, so phi(t, x - kP) = phi(t, x) q^k with
        q = exp(-rate(x) P).  A 16-point Gauss-Legendre rule covers x in
        [t - min(P, reach, t), t] only, reach = -log(1e-12) / rate_floor,
        weights x by (1 - q^(K+1)) / (1 - q), K = floor(x / P), and is
        split where K steps.  Panels are 1/12 of the shortest of 1/rate_cap,
        1/|decay_frequency| and 1/(|decay_frequency| sqrt(|decay_amplitude| reach)).
        A rule of more than _MAX_VALUES values per t raises ValueError.
        """
        if self.family == "exponential":
            if not t >= 0.0:
                raise ValueError("integral needs t >= 0")
            return (1.0 - math.exp(-self.decay * t)) / self.decay
        t = np.asarray(t, dtype=float)
        if not (t >= 0.0).all():  # NaN fails too
            raise ValueError("integral needs t >= 0")
        period = 2.0 * math.pi / abs(self.decay_frequency) if self.decay_frequency else math.inf
        reach = _PRUNE_LOG / self.rate_floor()
        scale = self.rate_cap() + abs(self.decay_frequency) * (
            1.0 + math.sqrt(abs(self.decay_amplitude) * reach))
        panels = math.ceil(min(period, reach) * scale / 12.0)
        nodes, weights = _gauss_legendre()
        size = nodes.size * (panels + 1)  # one more panel for the split
        if size > _MAX_VALUES:
            raise ValueError(f"{self} needs {size} integrand values per t, over {_MAX_VALUES}")
        since = t.ravel()
        width, grid = np.minimum(since, min(period, reach)), np.arange(panels + 1) / panels
        cut = np.minimum(np.fmod(since, period), width)[:, None]  # the age where K steps
        out, rows = np.empty(since.size), _MAX_VALUES // size
        for a in range(0, since.size, rows):
            b = slice(a, a + rows)
            edges = np.sort(np.concatenate((width[b, None] * grid, cut[b]), axis=1), axis=1)
            half = (edges[:, 1:] - edges[:, :-1]) / 2.0
            mid = edges[:, :-1] + half  # K is constant on each panel: take it at its middle
            copies = np.floor((since[b, None] - mid) / period)[:, :, None] + 1.0  # K + 1
            f = half[:, :, None] * nodes
            f += mid[:, :, None]  # ages u = t - x
            rate = since[b, None, None] - f  # event times x, then -rate(x) in place
            np.sin(np.multiply(rate, self.decay_frequency, out=rate), out=rate)
            rate *= -self.decay_amplitude
            rate -= self.decay
            np.exp(np.multiply(f, rate, out=f), out=f)  # phi
            rate *= period  # log q
            f /= np.expm1(rate)
            f *= np.expm1(rate * copies, out=rate)  # three arrays at most
            out[b] = np.einsum("rpk,k,rp->r", f, weights, half)
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)

    def mass_bound(self) -> float:
        """Upper bound on the integral of phi(t, .) valid for every t."""
        return 1.0 / self.rate_floor()


@dataclass(frozen=True)
class ModelConstants:
    """Declared constants the model promises to satisfy.

    baseline_floor / baseline_cap bound every node's rate for all times,
    weight_floor / weight_cap bound nonzero cross-excitation weights,
    self_gap is the minimum excess of each self-weight over every
    cross-weight in its row, log_slope_bound caps |f'(t)|/f(t) for baselines
    and kernel time-slices, kernel_mass_bound caps every kernel's integral,
    stability_slack keeps each row's excitation bound sum_j w_ij sup_t I_ij(t)
    at or below 1 - stability_slack (exactly the row's peak excitation mass
    when the row uses one kernel, an upper bound on it when kernels mix), and
    max_degree caps the number of nonzero cross-weights per row.
    """

    baseline_floor: float
    baseline_cap: float
    weight_floor: float
    weight_cap: float
    self_gap: float
    log_slope_bound: float
    kernel_mass_bound: float
    stability_slack: float
    max_degree: int

    def __post_init__(self) -> None:
        if self.baseline_floor <= 0:
            raise ValueError("baseline_floor must be positive")
        if not 0 < self.stability_slack < 1:
            raise ValueError("stability_slack must lie in (0, 1)")
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")


# Field name -> float or int, in declaration order: the order of model files
# and of the fingerprint.
_CONSTANT_KINDS = get_type_hints(ModelConstants)


@dataclass(frozen=True)
class HawkesModel:
    """Complete process specification for n nodes.

    weights maps (target, source) pairs to positive jump sizes; absent pairs
    are zero.  kernels applies to every pair unless kernel_overrides names a
    specific (target, source).  Treat instances as immutable.
    """

    n: int
    weights: Mapping[tuple[int, int], float]
    baselines: tuple[BaselineSpec, ...]
    default_kernel: KernelSpec
    constants: ModelConstants
    kernel_overrides: Mapping[tuple[int, int], KernelSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("model needs at least one node")
        if len(self.baselines) != self.n:
            raise ValueError("one baseline per node required")
        for (i, j), w in self.weights.items():
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"weight index ({i}, {j}) out of range")
            if not 0 <= w < math.inf:  # NaN fails too
                raise ValueError("weights must be finite and nonnegative")
        for i, j in self.kernel_overrides:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"kernel override index ({i}, {j}) out of range")

    def weight(self, i: int, j: int) -> float:
        """Jump added to node i's intensity by an event of node j."""
        return self.weights.get((i, j), 0.0)

    def kernel(self, i: int, j: int) -> KernelSpec:
        return self.kernel_overrides.get((i, j), self.default_kernel)

    def baseline(self, i: int) -> BaselineSpec:
        return self.baselines[i]

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Dense (n, n) array W with W[i, j] = weight(i, j). Read-only."""
        mat = np.zeros((self.n, self.n))
        for (i, j), w in self.weights.items():
            mat[i, j] = w
        mat.flags.writeable = False
        return mat

    @cached_property
    def distinct_kernels(self) -> tuple[KernelSpec, ...]:
        seen: dict[KernelSpec, None] = {self.default_kernel: None}
        for spec in self.kernel_overrides.values():
            seen[spec] = None
        return tuple(seen)

    def fingerprint(self) -> str:
        """Stable 12-hex-digit digest of all model parameters."""
        parts: list[str] = [f"n={self.n}"]
        for (i, j), w in sorted(self.weights.items()):
            parts.append(f"w[{i},{j}]={w!r}")
        for b in self.baselines:
            parts.append(f"b:{b.family},{b.level!r},{b.amplitude!r},{b.frequency!r},{b.phase!r}")
        for key, k in [(None, self.default_kernel)] + sorted(self.kernel_overrides.items()):
            parts.append(f"k{key}:{k.family},{k.decay!r},{k.decay_amplitude!r},{k.decay_frequency!r}")
        c = self.constants
        parts.append("c:" + ",".join(
            f"{getattr(c, name)}" if kind is int else f"{getattr(c, name)!r}"
            for name, kind in _CONSTANT_KINDS.items()
        ))
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class DependencyGraph:
    """Undirected dependency structure over nodes 0..n-1.

    An edge {i, j} means at least one direction of excitation between i and j
    is nonzero.  Edges are stored as sorted (i, j) tuples with i < j.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad edge ({i}, {j})")

    def restrict(self, observed: Iterable[int]) -> "DependencyGraph":
        """Induced subgraph on the observed nodes, in the ambient index space."""
        kept = frozenset(observed)
        if not kept:
            raise ValueError("observed set must be nonempty")
        edges = frozenset(e for e in self.edges if e[0] in kept and e[1] in kept)
        return DependencyGraph(self.n, edges)

    @property
    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def true_graph(model: HawkesModel) -> DependencyGraph:
    """Dependency graph of the model: {i, j} iff w_ij > 0 or w_ji > 0."""
    edges = set()
    for (i, j), w in model.weights.items():
        if i != j and w > 0:
            edges.add((min(i, j), max(i, j)))
    return DependencyGraph(model.n, frozenset(edges))


@dataclass(frozen=True)
class AssumptionCheck:
    """Outcome of one model assumption check."""

    name: str
    passed: bool
    margin: float
    worst: str
    detail: str

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name:16s} {status}  margin={self.margin:+.4g}  worst at {self.worst}  ({self.detail})"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        head = "model validation: " + ("PASS" if self.passed else "FAIL")
        return "\n".join([head] + ["  " + str(c) for c in self.checks])


def _check_baseline_floor(model: HawkesModel) -> AssumptionCheck:
    floor = model.constants.baseline_floor
    floors = [spec.floor() for spec in model.baselines]
    i = int(np.argmin(floors))
    margin = floors[i] - floor
    return AssumptionCheck(
        "baseline-floor", margin >= 0, margin, f"node {i}",
        f"min rate {floors[i]:.6g} vs declared floor {floor:.6g}",
    )


def _kernel_supremum(spec: KernelSpec, horizon: float) -> float:
    """sup of spec.integral(t) over 0 <= t <= horizon.

    The integral grows with t when the rate is constant: an exponential kernel,
    or a modulated one with decay_frequency 0.  Otherwise I(t + period) >= I(t)
    (the window gains event times, the rate repeats), so probes at most
    min(period / 64, 1 / (4 rate_cap)) apart scan [max(0, horizon - period),
    horizon], and 9-probe grids, each a quarter as wide, refine every local maximum.
    """
    if spec.decay_frequency == 0:
        return spec.integral(horizon)
    period = 2.0 * math.pi / abs(spec.decay_frequency)
    start = max(0.0, horizon - period)
    probes = max(2, math.ceil((horizon - start) * max(64.0 / period, 4.0 * spec.rate_cap())) + 1)
    t = np.linspace(start, horizon, probes)
    values = spec.integral(t)
    padded = np.concatenate(([-math.inf], values, [-math.inf]))
    peak = (values > padded[:-2]) & (values >= padded[2:])  # a plateau counts once
    centers, values, h = t[peak], values[peak, None], t[1] - t[0]
    while h > 1e-7:
        h /= 4.0
        t = np.clip(centers[:, None] + h * np.arange(-4, 5), start, horizon)
        values = spec.integral(t)
        centers = t[np.arange(centers.size), np.argmax(values, axis=1)]
    return float(values.max())


def _check_stability(model: HawkesModel, horizon: float) -> AssumptionCheck:
    limit = 1.0 - model.constants.stability_slack
    sup = {spec: _kernel_supremum(spec, horizon) for spec in model.distinct_kernels}
    sums = np.zeros(model.n)
    for (i, j), w in model.weights.items():
        sums[i] += w * sup[model.kernel(i, j)]
    i = int(np.argmax(sums))
    worst_sum, worst_where = float(sums[i]), f"row {i}"
    mass_ok = True
    for spec in model.distinct_kernels:
        if spec.mass_bound() > model.constants.kernel_mass_bound + 1e-12:
            mass_ok = False
            worst_where = f"kernel mass bound {spec.mass_bound():.4g}"
    margin = limit - worst_sum
    return AssumptionCheck(
        "stability", margin >= 0 and mass_ok, margin, worst_where,
        f"max row excitation mass {worst_sum:.6g} vs limit {limit:.6g}",
    )


def _check_smoothness(model: HawkesModel) -> AssumptionCheck:
    # Exact suprema of |d/dt log f|: |a| w / sqrt(L^2 - a^2) for a baseline
    # L + a sin(w t + p), and the rate cap for a kernel time-slice
    # exp(-rate(s) (t - s)).  The declared bound must exceed them by 1 percent.
    bound = model.constants.log_slope_bound
    worst_sup, worst_where = 0.0, "none"
    for i, b in enumerate(model.baselines):
        sup = abs(b.amplitude * b.frequency) / math.sqrt(b.level**2 - b.amplitude**2)
        if sup > worst_sup:
            worst_sup, worst_where = sup, f"baseline {i}"
    for spec in model.distinct_kernels:
        if spec.rate_cap() > worst_sup:
            worst_sup, worst_where = spec.rate_cap(), f"{spec.family} kernel rate cap"
    margin = bound - 1.01 * worst_sup
    return AssumptionCheck(
        "smoothness", margin >= 0, margin, worst_where,
        f"declared bound {bound:.6g} vs 1.01 * supremum {1.01 * worst_sup:.6g}",
    )


def _check_weight_bounds(model: HawkesModel) -> AssumptionCheck:
    """The smallest margin over, per target i in turn, its self-weight, then
    per source j != i the weight floor and cap (nonzero weights only) and the
    self gap; the first of equal margins names the worst.

    Every zero weight of a row has the same gap margin, so only the row's
    first zero source is visited: the later ones could not be strictly
    smaller.  The work is linear in n plus the number of weights.
    """
    c = model.constants
    worst_margin, worst_where = math.inf, "none"

    def note(margin: float, where: str) -> None:
        nonlocal worst_margin, worst_where
        if margin < worst_margin:
            worst_margin, worst_where = margin, where

    sources: list[set[int]] = [set() for _ in range(model.n)]
    for (i, j), w in model.weights.items():
        if i != j and w != 0:
            sources[i].add(j)
    for i, visit in enumerate(sources):
        w_self = model.weight(i, i)
        note(w_self, f"self-weight ({i},{i})" if w_self <= 0 else f"self-weight ({i},{i}) positivity")
        zero = 0
        while zero == i or zero in visit:
            zero += 1
        if zero < model.n:
            visit.add(zero)
        for j in sorted(visit):
            w = model.weight(i, j)
            if w > 0:
                note(w - c.weight_floor, f"({i},{j}) below weight floor")
                note(c.weight_cap - w, f"({i},{j}) above weight cap")
            note(w_self - w - c.self_gap, f"self gap at ({i},{j})")
    return AssumptionCheck(
        "weight-bounds", worst_margin >= 0, worst_margin, worst_where,
        "nonzero cross-weights inside [floor, cap], self-weights dominate by the gap",
    )


def _check_sparsity(model: HawkesModel) -> AssumptionCheck:
    cap = model.constants.max_degree
    counts = np.zeros(model.n, dtype=int)
    for (i, j), w in model.weights.items():
        if i != j and w > 0:
            counts[i] += 1
    i = int(np.argmax(counts)) if model.n else 0
    margin = float(cap - counts[i])
    return AssumptionCheck(
        "sparsity", margin >= 0, margin, f"row {i} with {counts[i]} cross-weights",
        f"per-row nonzero cross-weights vs max degree {cap}",
    )


def validate_model(model: HawkesModel, horizon: float) -> ValidationReport:
    """Check every model assumption from each family's closed form.

    Baseline floor, smoothness, weight bounds and sparsity hold or fail for
    all time.  Stability bounds each row's excitation mass over [0, horizon]
    by sum_j w_ij sup_t I_ij(t), one supremum per distinct kernel: the row's
    supremum when it uses one kernel, an upper bound when kernels mix.
    Violations are reported, not raised; callers decide what they mean.
    """
    if not horizon > 0:  # NaN fails too
        raise ValueError("horizon must be positive")
    checks = (
        _check_baseline_floor(model),
        _check_stability(model, horizon),
        _check_smoothness(model),
        _check_weight_bounds(model),
        _check_sparsity(model),
    )
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# Model files.  A model is stored as a single YAML document with sections
# "nodes", "constants", "baselines", "default_kernel", optional
# "kernel_overrides", and "weights" (a list of [target, source, weight]
# triples).  Field names below are stable.

def _baseline_to_dict(spec: BaselineSpec) -> dict:
    out = {"family": spec.family, "level": spec.level}
    if spec.family == "sinusoidal":
        out.update(amplitude=spec.amplitude, frequency=spec.frequency, phase=spec.phase)
    return out


def _baseline_from_dict(raw: Mapping) -> BaselineSpec:
    return BaselineSpec(
        family=raw["family"],
        level=float(raw["level"]),
        amplitude=float(raw.get("amplitude", 0.0)),
        frequency=float(raw.get("frequency", 0.0)),
        phase=float(raw.get("phase", 0.0)),
    )


def _kernel_to_dict(spec: KernelSpec) -> dict:
    out = {"family": spec.family, "decay": spec.decay}
    if spec.family == "modulated":
        out.update(decay_amplitude=spec.decay_amplitude, decay_frequency=spec.decay_frequency)
    return out


def _kernel_from_dict(raw: Mapping) -> KernelSpec:
    return KernelSpec(
        family=raw["family"],
        decay=float(raw["decay"]),
        decay_amplitude=float(raw.get("decay_amplitude", 0.0)),
        decay_frequency=float(raw.get("decay_frequency", 0.0)),
    )


def save_model(model: HawkesModel, path: str) -> None:
    doc = {
        "nodes": model.n,
        "constants": {name: getattr(model.constants, name) for name in _CONSTANT_KINDS},
        "baselines": [_baseline_to_dict(b) for b in model.baselines],
        "default_kernel": _kernel_to_dict(model.default_kernel),
        "weights": [[i, j, w] for (i, j), w in sorted(model.weights.items())],
    }
    if model.kernel_overrides:
        doc["kernel_overrides"] = [
            dict(target=i, source=j, **_kernel_to_dict(k))
            for (i, j), k in sorted(model.kernel_overrides.items())
        ]
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def load_model(path: str) -> HawkesModel:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, Mapping):
        raise ValueError(f"{path} is not a model file")
    try:
        n = int(doc["nodes"])
        raw_c = doc["constants"]
        constants = ModelConstants(
            **{name: kind(raw_c[name]) for name, kind in _CONSTANT_KINDS.items()}
        )
        raw_b = doc["baselines"]
        if isinstance(raw_b, Mapping):
            baselines = tuple(_baseline_from_dict(raw_b) for _ in range(n))
        else:
            baselines = tuple(_baseline_from_dict(b) for b in raw_b)
        overrides = {
            (int(o["target"]), int(o["source"])): _kernel_from_dict(o)
            for o in doc.get("kernel_overrides", [])
        }
        weights = {(int(i), int(j)): float(w) for i, j, w in doc["weights"]}
        return HawkesModel(
            n=n,
            weights=weights,
            baselines=baselines,
            default_kernel=_kernel_from_dict(doc["default_kernel"]),
            constants=constants,
            kernel_overrides=overrides,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
