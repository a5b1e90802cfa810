"""Adversary tournament: every filter against the whole attack bank.

The registries hold a dozen gradient filters and a bank of static,
adaptive, and best-response attacks, but until now evaluation meant
hand-curated pairings. This module turns the cross-product into a
generator: a round-robin **tournament** in which every registered filter
plays every attack in the bank, adaptive attacks are *re-tuned* between
rounds against the filters that beat them (best-response iteration), and
the outcomes roll up into an Elo-style **robustness leaderboard** with
multiseed confidence intervals.

Execution rides :class:`repro.experiments.sweep.SweepEngine`'s cached
parallel layer: each (filter, attack, seed) match is cached under a
SHA-256 key of its full configuration in the ``"tournament-match"``
namespace (disjoint from the regression-grid ``"regression-dgd"`` cells),
written atomically with checksums via :mod:`repro.utils.atomicio`. The
cache key covers the *resolved* attack parameters but not the tournament
round index, so a re-tuned attack is a new match while an unchanged one
is a cache hit — which is exactly what makes the matrix tractable and a
killed run resumable: re-running the tournament against the same cache
recomputes only matches that never finished.

Scoring is metric-driven, from the same telemetry/metrics the experiment
tables use: a filter **wins** a match when its final distance to the
honest minimizer ``x_H`` lands at or below ``win_threshold`` (it
converged despite the attack), **loses** at or above ``loss_threshold``
(the attack broke it), and **draws** in between. Each match also records
the convergence iteration (first round the distance series settles below
the win threshold) and the filter's elimination precision/recall against
the ground-truth Byzantine set. Elo updates are batched per (round,
seed) from snapshot ratings and summed with :func:`math.fsum`, making
the ratings *exactly* invariant to match-ingestion order within a batch;
leaderboard statistics sum over sorted per-seed arrays, making them
exactly invariant to seed permutation. Both invariances are pinned by
hypothesis properties in the test suite.

Artifacts are schema-versioned (:data:`TOURNAMENT_SCHEMA`) JSON
documents written atomically with checksums; everything outside the
``"provenance"`` and ``"execution"`` keys is a pure function of the
configuration, so CI can assert a cold and a cache-warm run produce
bit-identical results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregators.registry import available_filters, make_filter
from repro.analysis.metrics import convergence_iteration
from repro.analysis.reporting import ExperimentResult
from repro.attacks.registry import available_attacks, make_attack
from repro.exceptions import (
    InvalidParameterError,
    ReproError,
    TournamentSchemaError,
)
from repro.experiments.multiseed import summarize_over_seeds
from repro.experiments.sweep import (
    SweepEngine,
    _config_hash,
    derive_run_seeds,
)
from repro.utils.atomicio import (
    load_cache_entry,
    read_json_dict_checked,
    write_json_atomic,
)

__all__ = [
    "TOURNAMENT_SCHEMA",
    "AttackSpec",
    "TournamentConfig",
    "EloTable",
    "default_attack_bank",
    "run_tournament",
    "score_match",
    "leaderboard_from_ratings",
    "write_tournament_artifact",
    "load_tournament_artifact",
    "validate_tournament_payload",
    "artifact_filename",
]

#: Schema tag carried by every tournament artifact.
TOURNAMENT_SCHEMA = "repro.tournament/v1"

#: Special (non-registry) attack name for the φ-minimizing best response.
BEST_RESPONSE_ATTACK = "phi-minimizing"

_Params = Tuple[Tuple[str, object], ...]


def _freeze_params(params: Optional[Dict]) -> _Params:
    """Canonical (sorted, hashable) form of an attack's keyword params."""
    if not params:
        return ()
    return tuple(sorted((str(k), params[k]) for k in params))


@dataclass(frozen=True)
class AttackSpec:
    """One entry of the tournament's attack bank.

    Parameters
    ----------
    name:
        Bank-local display name (the attack's leaderboard identity).
    attack:
        Registry name passed to :func:`repro.attacks.registry.make_attack`,
        or :data:`BEST_RESPONSE_ATTACK` for the φ-minimizing adversary
        (constructed per match, since it must know the defending filter
        and the honest minimizer).
    kind:
        ``"static"`` (fixed parameters), ``"adaptive"`` (re-tuned between
        rounds along ``palette``), or ``"best-response"`` (re-optimizes
        every DGD round on its own).
    params:
        Constructor keyword arguments, as a canonical sorted tuple of
        ``(key, value)`` pairs (use :meth:`with_params` to build from a
        dict).
    palette:
        For adaptive attacks: the escalation ladder of parameter sets.
        Round 0 plays ``palette[0]``; after a round in which the defending
        filter beat the attack, the pairing escalates to the next palette
        entry (per-filter — each defender faces its own tuning).
    """

    name: str
    attack: str
    kind: str = "static"
    params: _Params = ()
    palette: Tuple[_Params, ...] = ()

    def __post_init__(self):
        if self.kind not in ("static", "adaptive", "best-response"):
            raise InvalidParameterError(
                f"attack kind must be 'static', 'adaptive', or "
                f"'best-response', got {self.kind!r}"
            )
        if self.kind == "adaptive" and not self.palette:
            raise InvalidParameterError(
                f"adaptive attack {self.name!r} needs a non-empty palette"
            )

    @staticmethod
    def with_params(name: str, attack: str, kind: str = "static",
                    params: Optional[Dict] = None,
                    palette: Sequence[Optional[Dict]] = ()) -> "AttackSpec":
        """Build a spec from plain dicts (canonicalized internally)."""
        frozen_palette = tuple(_freeze_params(p) for p in palette)
        frozen = _freeze_params(params)
        if frozen_palette and not params:
            frozen = frozen_palette[0]
        return AttackSpec(name=name, attack=attack, kind=kind,
                          params=frozen, palette=frozen_palette)

    def params_at(self, level: int) -> Dict:
        """Resolved constructor kwargs at palette escalation ``level``."""
        if self.palette:
            level = max(0, min(int(level), len(self.palette) - 1))
            return dict(self.palette[level])
        return dict(self.params)

    def max_level(self) -> int:
        return max(0, len(self.palette) - 1)


def default_attack_bank() -> Tuple[AttackSpec, ...]:
    """The standard bank: four static, three adaptive, one best-response.

    Static entries play the registry defaults. Adaptive entries start at
    the weak end of their palette and escalate against filters that beat
    them (ALIE's deviation multiplier ``z`` grows, IPM's inversion scale
    grows, mimic switches which honest agent it impersonates). The ALIE
    entries pin ``z`` explicitly so the bank never needs scipy's normal
    quantile at run time. The φ-minimizing best response re-optimizes
    per DGD round by construction, so it has no palette; its probe count
    is reduced from the certification default to keep the full
    cross-product tractable.
    """
    return (
        AttackSpec.with_params("gradient-reverse", "gradient-reverse"),
        AttackSpec.with_params("sign-flip", "sign-flip"),
        AttackSpec.with_params("zero", "zero"),
        AttackSpec.with_params("random", "random", params={"scale": 200.0}),
        AttackSpec.with_params(
            "alie", "alie", kind="adaptive",
            palette=[{"z": 0.5}, {"z": 1.5}, {"z": 3.0}],
        ),
        AttackSpec.with_params(
            "ipm", "ipm", kind="adaptive",
            palette=[{"scale": 0.5}, {"scale": 2.0}, {"scale": 8.0}],
        ),
        AttackSpec.with_params(
            "mimic", "mimic", kind="adaptive",
            palette=[{"target_position": 0}, {"target_position": 1},
                     {"target_position": 2}],
        ),
        AttackSpec.with_params(
            "phi-min", BEST_RESPONSE_ATTACK, kind="best-response",
            params={"num_random_probes": 2},
        ),
    )


@dataclass(frozen=True)
class TournamentConfig:
    """Declarative tournament: who plays, on what instance, scored how.

    ``filters=()`` (the default) means *every* registered filter — the
    roster grows automatically with the registry. The problem instance is
    one :func:`~repro.problems.linear_regression.make_redundant_regression`
    problem sized so every registered filter is feasible (Bulyan needs
    ``n >= 4f + 3``). Scoring thresholds are distances to the honest
    minimizer ``x_H``; they do not enter match cache keys, so re-scoring
    an existing cache under different thresholds is free.
    """

    name: str = "tournament"
    filters: Tuple[str, ...] = ()
    attacks: Tuple[AttackSpec, ...] = field(default_factory=default_attack_bank)
    rounds: int = 2
    num_seeds: int = 5
    master_seed: int = 20200803
    n: int = 8
    d: int = 2
    f: int = 1
    noise_std: float = 0.02
    instance_seed: int = 20200803
    iterations: int = 300
    x0: Optional[Tuple[float, ...]] = None
    win_threshold: float = 0.1
    loss_threshold: float = 0.4
    elo_k: float = 32.0
    elo_initial: float = 1000.0

    def __post_init__(self):
        if self.rounds < 1:
            raise InvalidParameterError(
                f"rounds must be at least 1, got {self.rounds}"
            )
        if self.num_seeds < 2:
            raise InvalidParameterError(
                "num_seeds must be at least 2 (the multiseed confidence "
                f"intervals need replication), got {self.num_seeds}"
            )
        if self.f < 1:
            raise InvalidParameterError(
                f"a tournament needs at least one Byzantine agent, got f={self.f}"
            )
        if self.f >= self.n / 2:
            raise InvalidParameterError(
                f"need f < n/2 for 2f-redundancy, got f={self.f}, n={self.n}"
            )
        if self.iterations < 1:
            raise InvalidParameterError(
                f"iterations must be positive, got {self.iterations}"
            )
        if not (0 < self.win_threshold < self.loss_threshold):
            raise InvalidParameterError(
                "thresholds must satisfy 0 < win_threshold < loss_threshold, "
                f"got win={self.win_threshold}, loss={self.loss_threshold}"
            )
        if not self.attacks:
            raise InvalidParameterError("the attack bank must be non-empty")
        names = [spec.name for spec in self.attacks]
        if len(set(names)) != len(names):
            raise InvalidParameterError(
                f"attack bank names must be unique, got {names}"
            )

    def resolved_filters(self) -> Tuple[str, ...]:
        """The roster: explicit filters, or every registered one."""
        roster = self.filters or tuple(available_filters())
        for name in roster:
            if name not in available_filters():
                # Raise the registry's structured error (with suggestions).
                make_filter(name, f=self.f)
        return tuple(roster)

    def seeds(self) -> List[int]:
        return derive_run_seeds(self.master_seed, self.num_seeds)

    def instance_fields(self) -> Dict:
        """The problem-instance part of every match's cache key."""
        return {
            "n": self.n,
            "d": self.d,
            "f": self.f,
            "noise_std": self.noise_std,
            "instance_seed": self.instance_seed,
            "iterations": self.iterations,
            "x0": list(self.x0) if self.x0 is not None else None,
        }


# ----------------------------------------------------------------------
# Match execution (SweepEngine worker)
# ----------------------------------------------------------------------


def _match_cache_payload(instance_fields: Dict, filter_name: str,
                         attack: str, params: Dict, seed: int) -> Dict:
    """The configuration a match's cache key is derived from.

    Namespaced ``"tournament-match"`` so tournament cells can share a
    cache directory with regression-grid cells without collision. The
    key covers the *resolved* attack parameters (an escalated adaptive
    attack is a different match) but neither the tournament round index
    nor the scoring thresholds — an unchanged pairing re-runs as a cache
    hit, and re-scoring is free.
    """
    return {
        "kind": "tournament-match",
        "version": 1,
        **instance_fields,
        "filter": filter_name,
        "attack": attack,
        "params": {str(k): v for k, v in params.items()},
        "seed": seed,
    }


def _valid_match_payload(payload) -> bool:
    """Shape guard for cached match entries (beyond the checksum)."""
    if not isinstance(payload, dict):
        return False
    if "error" in payload:
        return isinstance(payload["error"], str)
    return (
        isinstance(payload.get("final_error"), (int, float))
        and isinstance(payload.get("distances"), list)
        and isinstance(payload.get("elimination"), dict)
    )


def _run_match_group(task: Dict) -> List[Dict]:
    """Execute one (filter, attack-configuration) match across its seeds.

    Module-level (hence picklable) pool worker, mirroring the regression
    grid's :func:`~repro.experiments.sweep._run_regression_group`:
    consult the cache first (discarding corrupt entries), compute missing
    seeds sequentially with per-run telemetry, and write fresh entries
    back atomically with checksums. Returns one JSON-safe payload per
    seed in order, each carrying ``cache_state``.
    """
    from repro.attacks.best_response import PhiMinimizingAttack
    from repro.observability import Telemetry
    from repro.problems.linear_regression import make_redundant_regression
    from repro.system.runner import DGDConfig, run_dgd

    instance_fields = task["instance_fields"]
    filter_name = task["filter"]
    attack_name = task["attack"]
    params = task["params"]
    seeds, cache_dir = task["seeds"], task["cache_dir"]
    f = instance_fields["f"]

    payloads: List[Optional[Dict]] = [None] * len(seeds)
    cache_states: List[str] = ["miss"] * len(seeds)
    missing: List[int] = []
    for index, seed in enumerate(seeds):
        if cache_dir is not None:
            key = _config_hash(
                _match_cache_payload(instance_fields, filter_name,
                                     attack_name, params, seed)
            )
            path = os.path.join(cache_dir, f"{key}.json")
            if os.path.exists(path):
                payload = load_cache_entry(path, _valid_match_payload)
                if payload is not None:
                    payload["cached"] = True
                    payload["cache_state"] = "hit"
                    payloads[index] = payload
                    continue
                cache_states[index] = "corrupt"
        missing.append(index)

    if missing:
        instance = make_redundant_regression(
            n=instance_fields["n"],
            d=instance_fields["d"],
            f=f,
            noise_std=instance_fields["noise_std"],
            seed=instance_fields["instance_seed"],
        )
        faulty_ids = tuple(range(f))
        honest = [i for i in range(instance_fields["n"]) if i not in faulty_ids]
        x_H = instance.honest_minimizer(honest)
        config = DGDConfig(
            iterations=instance_fields["iterations"],
            gradient_filter=filter_name,
            faulty_ids=faulty_ids,
            f=f,
            x0=instance_fields["x0"],
            seed=0,
        )
        fresh: List[Dict] = []
        try:
            if attack_name == BEST_RESPONSE_ATTACK:
                behavior = PhiMinimizingAttack(
                    make_filter(filter_name, f=f), x_H, **params
                )
            else:
                behavior = make_attack(attack_name, **params)
            for index in missing:
                telemetry = Telemetry(
                    None, byzantine_ids=faulty_ids, reference_point=x_H
                )
                trace = run_dgd(
                    instance.costs, behavior, config, seed=seeds[index],
                    telemetry=telemetry,
                )
                telemetry.close()
                elimination = telemetry.summary().get("elimination", {})
                distances = trace.distances_to(x_H)
                fresh.append(
                    {
                        "final_error": float(distances[-1]),
                        "distances": [float(v) for v in distances],
                        "elimination": {
                            "precision": elimination.get("precision"),
                            "recall": elimination.get("recall"),
                        },
                        "cached": False,
                    }
                )
        except (InvalidParameterError, ReproError) as exc:
            # Infeasible pairing (e.g. a filter's n-vs-f bound): the
            # failure is a property of the configuration, so every seed
            # of the group fails identically.
            fresh = [
                {"error": f"{type(exc).__name__}: {exc}", "cached": False}
                for _ in missing
            ]
        for index, payload in zip(missing, fresh):
            payload["cache_state"] = cache_states[index]
            payloads[index] = payload
            if cache_dir is not None and "error" not in payload:
                key = _config_hash(
                    _match_cache_payload(instance_fields, filter_name,
                                         attack_name, params, seeds[index])
                )
                stored = dict(payload)
                stored.pop("cached", None)
                stored.pop("cache_state", None)
                write_json_atomic(os.path.join(cache_dir, f"{key}.json"), stored)

    return payloads  # type: ignore[return-value]


def _quarantined_match_group(exc: BaseException, task: Dict) -> List[Dict]:
    """Per-seed error payloads for a match group the engine gave up on."""
    message = f"quarantined: {type(exc).__name__}: {exc}"
    return [
        {"error": message, "quarantined": True, "cached": False,
         "cache_state": "miss"}
        for _ in task["seeds"]
    ]


# ----------------------------------------------------------------------
# Scoring and Elo
# ----------------------------------------------------------------------


def score_match(final_error: float, win_threshold: float,
                loss_threshold: float) -> str:
    """Score one match from the filter's perspective: win / loss / draw.

    ``final_error`` is the final distance to the honest minimizer. At or
    below ``win_threshold`` the filter converged despite the attack
    (**win**); at or above ``loss_threshold`` the attack broke it
    (**loss**); between the two, neither side prevailed (**draw**).
    Non-finite errors are losses — a diverged run is a broken filter.
    """
    if not (0 < win_threshold < loss_threshold):
        raise InvalidParameterError(
            "thresholds must satisfy 0 < win_threshold < loss_threshold, "
            f"got win={win_threshold}, loss={loss_threshold}"
        )
    if not math.isfinite(final_error) or final_error >= loss_threshold:
        return "loss"
    if final_error <= win_threshold:
        return "win"
    return "draw"


_OUTCOME_SCORE = {"win": 1.0, "draw": 0.5, "loss": 0.0}


class EloTable:
    """Elo ratings with *batched*, exactly order-invariant updates.

    :meth:`apply_batch` computes every expected score from the rating
    snapshot at batch start and accumulates each player's rating deltas
    with :func:`math.fsum` over the *sorted* delta list. ``fsum`` is
    exact (one correctly-rounded result for the true sum) and sorting
    removes any residual tie-breaking ambiguity, so the ratings after a
    batch are a pure function of the *set* of matches in it — ingesting
    a round-robin batch in any order yields bit-identical ratings. The
    hypothesis suite pins this invariance.
    """

    def __init__(self, players: Iterable[str], initial: float = 1000.0):
        self._ratings: Dict[str, float] = {
            str(p): float(initial) for p in players
        }
        if not self._ratings:
            raise InvalidParameterError("an EloTable needs at least one player")

    def rating(self, player: str) -> float:
        try:
            return self._ratings[player]
        except KeyError:
            raise InvalidParameterError(
                f"unknown player {player!r}; known: "
                f"{', '.join(sorted(self._ratings))}"
            ) from None

    def ratings(self) -> Dict[str, float]:
        """Player → current rating (sorted by player name, as a copy)."""
        return {name: self._ratings[name] for name in sorted(self._ratings)}

    def expected(self, player: str, opponent: str) -> float:
        """Logistic expected score of ``player`` against ``opponent``."""
        gap = self.rating(opponent) - self.rating(player)
        return 1.0 / (1.0 + 10.0 ** (gap / 400.0))

    def apply_batch(self, matches: Sequence[Tuple[str, str, float]],
                    k: float = 32.0) -> Dict[str, float]:
        """Apply one round-robin batch ``(player, opponent, score)``.

        ``score`` is from ``player``'s perspective (1 win, 0.5 draw,
        0 loss); the opponent is credited with ``1 - score``. Expected
        scores come from the snapshot at entry, so the batch is a set,
        not a sequence. Returns the per-player applied deltas.
        """
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        deltas: Dict[str, List[float]] = {name: [] for name in self._ratings}
        for player, opponent, score in matches:
            score = float(score)
            if not 0.0 <= score <= 1.0:
                raise InvalidParameterError(
                    f"match score must be in [0, 1], got {score}"
                )
            expected = self.expected(player, opponent)
            deltas[str(player)].append(k * (score - expected))
            deltas[str(opponent)].append(k * ((1.0 - score) - (1.0 - expected)))
        applied: Dict[str, float] = {}
        for name, values in deltas.items():
            if not values:
                continue
            delta = math.fsum(sorted(values))
            self._ratings[name] += delta
            applied[name] = delta
        return applied


def _exact_mean(values: Sequence[float]) -> float:
    """Permutation-invariant mean (fsum over the sorted values)."""
    return math.fsum(sorted(float(v) for v in values)) / len(values)


def _exact_std(values: Sequence[float], mean: float) -> float:
    """Permutation-invariant population standard deviation."""
    squared = sorted((float(v) - mean) ** 2 for v in values)
    return math.sqrt(max(0.0, math.fsum(squared) / len(values)))


def leaderboard_from_ratings(
    per_seed_ratings: Dict[int, Dict[str, float]],
) -> List[Dict]:
    """Per-seed rating tables → ranked rows with confidence intervals.

    Each row carries the player's mean rating over seeds, the population
    std, and a normal-approximation 95% confidence half-width
    (``1.96 · std / sqrt(num_seeds)``). All statistics are computed with
    sorted :func:`math.fsum` reductions, so the leaderboard is exactly
    invariant under any permutation of the seed set. Rows are ranked by
    descending mean rating with the player name as a deterministic
    tie-break.
    """
    if not per_seed_ratings:
        raise InvalidParameterError("need at least one seed's ratings")
    seeds = sorted(per_seed_ratings)
    players = sorted(per_seed_ratings[seeds[0]])
    for seed in seeds:
        if sorted(per_seed_ratings[seed]) != players:
            raise InvalidParameterError(
                "every seed must rate the same player set"
            )
    rows = []
    for player in players:
        values = [per_seed_ratings[seed][player] for seed in seeds]
        mean = _exact_mean(values)
        std = _exact_std(values, mean)
        rows.append(
            {
                "player": player,
                "rating_mean": mean,
                "rating_std": std,
                "ci95": 1.96 * std / math.sqrt(len(values)),
                "per_seed": {str(seed): per_seed_ratings[seed][player]
                             for seed in seeds},
            }
        )
    rows.sort(key=lambda row: (-row["rating_mean"], row["player"]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


def _ratings_result(ratings: Dict[str, float], roles: Dict[str, str],
                    seed: int) -> ExperimentResult:
    """One seed's ratings as an ExperimentResult (fixed row order)."""
    result = ExperimentResult(
        experiment_id="TOURNAMENT",
        title="Adversary tournament Elo ratings",
        headers=["player", "role", "elo"],
    )
    for player in sorted(ratings):
        result.rows.append([player, roles[player], float(ratings[player])])
    result.notes.append(f"seed: {seed}")
    return result


# ----------------------------------------------------------------------
# Tournament driver
# ----------------------------------------------------------------------


def run_tournament(
    config: TournamentConfig,
    engine: Optional[SweepEngine] = None,
) -> Dict:
    """Run the full tournament; return the schema-versioned payload.

    Per tournament round, the *entire* cross-product (roster × bank, at
    each pairing's current tuning) is scheduled through ``engine.map``
    — :func:`_run_match_group` consults the match cache per seed, so
    only pairings whose configuration actually changed (re-tuned
    adaptive attacks, or cache misses from a killed run) cost compute.
    After each round, per-seed Elo tables ingest the round's matches as
    one batch per seed, and every adaptive pairing whose defending
    filter won more seeds than it lost escalates one palette step for
    the next round (the best-response iteration).

    The returned payload validates against :data:`TOURNAMENT_SCHEMA`;
    persist it with :func:`write_tournament_artifact`. Everything
    outside its ``"provenance"``/``"execution"`` keys is a deterministic
    function of ``config``.
    """
    from repro.observability.perf.bench_harness import collect_provenance

    if engine is None:
        engine = SweepEngine(parallel=False)
    roster = config.resolved_filters()
    specs = config.attacks
    for spec in specs:
        if spec.attack != BEST_RESPONSE_ATTACK and \
                spec.attack not in available_attacks():
            make_attack(spec.attack)  # raises the structured registry error
    seeds = config.seeds()
    instance_fields = config.instance_fields()
    players = list(roster) + [spec.name for spec in specs]
    if len(set(players)) != len(players):
        raise InvalidParameterError(
            "filter and attack-bank names must not collide: "
            f"{sorted(set(roster) & {s.name for s in specs})}"
        )
    roles = {name: "filter" for name in roster}
    roles.update({spec.name: "attack" for spec in specs})

    elo_tables = {
        seed: EloTable(players, initial=config.elo_initial) for seed in seeds
    }
    # Per (filter, attack-bank-name) palette escalation level.
    levels: Dict[Tuple[str, str], int] = {
        (filter_name, spec.name): 0
        for filter_name in roster for spec in specs
    }
    record = {
        player: {"wins": 0, "losses": 0, "draws": 0, "errors": 0}
        for player in players
    }
    rounds_payload: List[Dict] = []
    cache_hits = cache_misses = failed_matches = 0

    for round_index in range(config.rounds):
        pairings = [
            (filter_name, spec) for filter_name in roster for spec in specs
        ]
        tasks = [
            {
                "instance_fields": instance_fields,
                "filter": filter_name,
                "attack": spec.attack,
                "params": spec.params_at(levels[(filter_name, spec.name)]),
                "seeds": seeds,
                "cache_dir": engine.cache_dir,
            }
            for filter_name, spec in pairings
        ]
        grouped = engine.map(
            _run_match_group, tasks, on_item_error=_quarantined_match_group
        )
        matches: List[Dict] = []
        round_outcomes: Dict[Tuple[str, str], Dict[str, int]] = {
            (filter_name, spec.name): {"win": 0, "loss": 0, "draw": 0}
            for filter_name, spec in pairings
        }
        per_seed_batches: Dict[int, List[Tuple[str, str, float]]] = {
            seed: [] for seed in seeds
        }
        for (filter_name, spec), task, payloads in zip(pairings, tasks, grouped):
            for seed, payload in zip(seeds, payloads):
                state = payload.get("cache_state")
                if engine.cache_dir is not None and state is not None:
                    engine.events.emit(
                        f"cache_{state}", kind="tournament-match",
                        filter=filter_name, attack=spec.name,
                        round=round_index, seed=seed,
                    )
                    if state == "hit":
                        cache_hits += 1
                    else:
                        cache_misses += 1
                match = {
                    "round": round_index,
                    "filter": filter_name,
                    "attack": spec.name,
                    "attack_impl": spec.attack,
                    "params": {str(k): v for k, v in task["params"].items()},
                    "seed": seed,
                }
                if "error" in payload:
                    match["error"] = payload["error"]
                    match["outcome"] = "error"
                    failed_matches += 1
                    record[filter_name]["errors"] += 1
                    record[spec.name]["errors"] += 1
                    engine.events.emit(
                        "match_failed", filter=filter_name, attack=spec.name,
                        round=round_index, seed=seed, error=payload["error"],
                    )
                else:
                    final_error = float(payload["final_error"])
                    outcome = score_match(
                        final_error, config.win_threshold, config.loss_threshold
                    )
                    distances = np.asarray(payload["distances"], dtype=float)
                    settled = convergence_iteration(
                        distances, config.win_threshold
                    )
                    elimination = payload.get("elimination", {})
                    match.update(
                        final_error=final_error,
                        convergence_iteration=settled,
                        elimination_precision=elimination.get("precision"),
                        elimination_recall=elimination.get("recall"),
                        outcome=outcome,
                    )
                    round_outcomes[(filter_name, spec.name)][outcome] += 1
                    per_seed_batches[seed].append(
                        (filter_name, spec.name, _OUTCOME_SCORE[outcome])
                    )
                    if outcome == "win":
                        record[filter_name]["wins"] += 1
                        record[spec.name]["losses"] += 1
                    elif outcome == "loss":
                        record[filter_name]["losses"] += 1
                        record[spec.name]["wins"] += 1
                    else:
                        record[filter_name]["draws"] += 1
                        record[spec.name]["draws"] += 1
                matches.append(match)
        for seed in seeds:
            if per_seed_batches[seed]:
                elo_tables[seed].apply_batch(
                    per_seed_batches[seed], k=config.elo_k
                )
        # Best-response iteration: escalate adaptive pairings the
        # defending filter just beat.
        retuned = []
        for filter_name, spec in pairings:
            if spec.kind != "adaptive":
                continue
            outcome = round_outcomes[(filter_name, spec.name)]
            key = (filter_name, spec.name)
            if outcome["win"] > outcome["loss"] and \
                    levels[key] < spec.max_level():
                levels[key] += 1
                retuned.append(
                    {"filter": filter_name, "attack": spec.name,
                     "level": levels[key],
                     "params": spec.params_at(levels[key])}
                )
        if retuned:
            engine.events.emit(
                "tournament_retune", round=round_index, count=len(retuned)
            )
        rounds_payload.append(
            {"round": round_index, "matches": matches, "retuned": retuned}
        )

    per_seed_ratings = {
        seed: elo_tables[seed].ratings() for seed in seeds
    }
    leaderboard = leaderboard_from_ratings(per_seed_ratings)
    for row in leaderboard:
        row["role"] = roles[row["player"]]
        row.update(record[row["player"]])
    # Render the mean ± std table through the multiseed machinery — same
    # aggregation path as every other multi-seed experiment table.
    table = summarize_over_seeds(
        lambda seed: _ratings_result(per_seed_ratings[seed], roles, seed),
        seeds,
        precision=1,
    )
    payload = {
        "schema": TOURNAMENT_SCHEMA,
        "name": config.name,
        "config": _config_payload(config, roster),
        "seeds": [int(seed) for seed in seeds],
        "rounds": rounds_payload,
        "leaderboard": {
            "all": leaderboard,
            "filters": [r for r in leaderboard if r["role"] == "filter"],
            "attacks": [r for r in leaderboard if r["role"] == "attack"],
        },
        "table": {"headers": list(table.headers), "rows": table.rows},
        "counts": {
            "rounds": config.rounds,
            "filters": len(roster),
            "attacks": len(specs),
            "seeds": len(seeds),
            "matches": sum(len(r["matches"]) for r in rounds_payload),
            "failed": failed_matches,
        },
        "execution": {
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "cache_dir": engine.cache_dir,
            "parallel": engine.parallel,
        },
        "provenance": collect_provenance(),
    }
    validate_tournament_payload(payload)
    return payload


def _config_payload(config: TournamentConfig, roster: Tuple[str, ...]) -> Dict:
    return {
        "name": config.name,
        "filters": list(roster),
        "attacks": [
            {
                "name": spec.name,
                "attack": spec.attack,
                "kind": spec.kind,
                "params": dict(spec.params),
                "palette": [dict(p) for p in spec.palette],
            }
            for spec in config.attacks
        ],
        "rounds": config.rounds,
        "num_seeds": config.num_seeds,
        "master_seed": config.master_seed,
        **config.instance_fields(),
        "win_threshold": config.win_threshold,
        "loss_threshold": config.loss_threshold,
        "elo_k": config.elo_k,
        "elo_initial": config.elo_initial,
    }


# ----------------------------------------------------------------------
# Artifact IO
# ----------------------------------------------------------------------

_REQUIRED_TOP_LEVEL = (
    "schema", "name", "config", "seeds", "rounds", "leaderboard",
    "counts",
)
_REQUIRED_MATCH_FIELDS = ("round", "filter", "attack", "seed", "outcome")
_REQUIRED_ROW_FIELDS = (
    "player", "role", "rank", "rating_mean", "rating_std", "ci95",
)


def validate_tournament_payload(payload) -> Dict:
    """Validate a tournament document; return it, or raise.

    Raises :class:`~repro.exceptions.TournamentSchemaError` on a missing
    field, an unknown schema tag, or an internal inconsistency (a match
    outcome outside the vocabulary, a leaderboard that is not ranked by
    descending mean rating, a match count that disagrees with the rounds
    section).
    """
    if not isinstance(payload, dict):
        raise TournamentSchemaError(
            f"tournament payload must be a dict, got {type(payload).__name__}"
        )
    missing = [key for key in _REQUIRED_TOP_LEVEL if key not in payload]
    if missing:
        raise TournamentSchemaError(
            f"tournament payload missing fields: {', '.join(missing)}"
        )
    if payload["schema"] != TOURNAMENT_SCHEMA:
        raise TournamentSchemaError(
            f"unknown tournament schema {payload['schema']!r}; "
            f"expected {TOURNAMENT_SCHEMA!r}"
        )
    rounds = payload["rounds"]
    if not isinstance(rounds, list) or not rounds:
        raise TournamentSchemaError("'rounds' must be a non-empty list")
    total_matches = 0
    for round_doc in rounds:
        matches = round_doc.get("matches")
        if not isinstance(matches, list):
            raise TournamentSchemaError("every round needs a 'matches' list")
        total_matches += len(matches)
        for match in matches:
            for field_name in _REQUIRED_MATCH_FIELDS:
                if field_name not in match:
                    raise TournamentSchemaError(
                        f"match missing field {field_name!r}"
                    )
            if match["outcome"] not in ("win", "loss", "draw", "error"):
                raise TournamentSchemaError(
                    f"unknown match outcome {match['outcome']!r}"
                )
            if match["outcome"] != "error" and "final_error" not in match:
                raise TournamentSchemaError(
                    "scored matches must carry 'final_error'"
                )
    counts = payload["counts"]
    if counts.get("matches") != total_matches:
        raise TournamentSchemaError(
            f"counts.matches={counts.get('matches')} disagrees with the "
            f"rounds section ({total_matches} matches)"
        )
    leaderboard = payload["leaderboard"]
    if not isinstance(leaderboard, dict) or "all" not in leaderboard:
        raise TournamentSchemaError("'leaderboard' must carry an 'all' ranking")
    previous = None
    for row in leaderboard["all"]:
        for field_name in _REQUIRED_ROW_FIELDS:
            if field_name not in row:
                raise TournamentSchemaError(
                    f"leaderboard row missing field {field_name!r}"
                )
        if previous is not None and row["rating_mean"] > previous + 1e-12:
            raise TournamentSchemaError(
                "leaderboard is not sorted by descending mean rating"
            )
        previous = row["rating_mean"]
    return payload


def artifact_filename(name: str) -> str:
    """Canonical artifact filename for a tournament name."""
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in str(name))
    return f"TOURNAMENT_{safe}.json"


def write_tournament_artifact(payload: Dict, out_dir: str) -> str:
    """Validate and persist a tournament document; return its path."""
    validate_tournament_payload(payload)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, artifact_filename(payload["name"]))
    return write_json_atomic(path, payload)


def load_tournament_artifact(path: str) -> Dict:
    """Read a checksummed tournament artifact; validate before returning.

    Raises :class:`~repro.exceptions.CacheIntegrityError` on a corrupt
    file and :class:`~repro.exceptions.TournamentSchemaError` on a
    document that parses but violates the schema.
    """
    return validate_tournament_payload(read_json_dict_checked(path))
