"""On-policy training of the flip-ranking policy: rollouts, GAE, clipped updates.

Each iteration samples initial triangulations weighted toward under-visited
states, collects fixed-horizon rollouts in parallel environments, augments
rewards with a count-based expansion bonus, and performs one full-batch
clipped-surrogate update with Adam.  Everything is deterministic for a fixed
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .errors import TrainingError
from .flips import CircuitTable, apply_flip, flippable_circuits
from .geometry import PointConfig
from .objectives import Objective, ObjectiveCache, evaluate, reward
from .policy import (
    ModelConfig,
    PolicyModel,
    StateGraph,
    actor_logits,
    encode,
    nls_accept_probability,
    policy_distribution,
    sample_action,
    state_graph,
    value_estimate,
)
from .triangulation import Triangulation, require_valid


@dataclass
class TrainerConfig:
    horizon: int = 50
    num_envs: int = 128
    ppo_epochs: int = 1
    iterations: int = 2000
    learning_rate: float = 1e-4
    clip_ratio: float = 0.1
    discount: float = 0.99
    gae_lambda: float = 0.95
    value_coef: float = 0.5
    entropy_coef: float = 0.001
    bonus_coef: float = 0.1
    normalize_advantages: bool = True
    seed: int = 0
    checkpoint_every: int = 50

    def __post_init__(self):
        if not 0 < self.discount <= 1 or not 0 < self.gae_lambda <= 1:
            raise ValueError("discount and gae_lambda must lie in (0, 1]")
        for name in ("horizon", "num_envs", "ppo_epochs", "clip_ratio"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


class VisitCounter:
    """Per-polytope visitation counts over canonical keys, initialized to one."""

    def __init__(self):
        self._counts = {}

    def count(self, polytope_id, key) -> int:
        return self._counts.get((polytope_id, key), 1)

    def observe(self, polytope_id, key) -> int:
        """Increment and return the count BEFORE the increment."""
        k = (polytope_id, key)
        before = self._counts.get(k, 1)
        self._counts[k] = before + 1
        return before


def expansion_bonus(counter: VisitCounter, polytope_id, key, coefficient: float) -> float:
    """beta * N(state)^(-1/2) with the pre-increment count; then increments."""
    before = counter.observe(polytope_id, key)
    return coefficient / math.sqrt(before)


def initial_state_weights(entries, counter: VisitCounter):
    """Sampling weights proportional to N(state)^(-1/2)."""
    w = np.array(
        [1.0 / math.sqrt(counter.count(pid, tri.canonical_key)) for pid, tri in entries]
    )
    return w / w.sum()


def sample_initial_states(seed_sets, counter: VisitCounter, n: int, rng: np.random.Generator):
    """Draw n (polytope_id, triangulation) starts with replacement.

    ``seed_sets`` is an ordered mapping polytope_id -> list of triangulations.
    """
    entries = [(pid, tri) for pid, tris in seed_sets.items() for tri in tris]
    if not entries:
        raise ValueError("empty seed set")
    probs = initial_state_weights(entries, counter)
    picks = rng.choice(len(entries), size=n, replace=True, p=probs)
    return [entries[i] for i in picks]


@dataclass
class EnvContext:
    polytope_id: str
    config: PointConfig
    table: CircuitTable
    cache: ObjectiveCache = field(default_factory=ObjectiveCache)


@dataclass
class Transition:
    env: EnvContext
    state: Triangulation
    actions: list
    action_index: int
    old_log_prob: float
    value: float
    reward: float
    done: bool
    graph: StateGraph | None = None  # the policy's view of ``state``, reused by the update
    advantage: float = 0.0
    ret: float = 0.0


@dataclass
class RolloutBuffer:
    episodes: list  # list of lists of Transition
    mean_return: float = 0.0

    @property
    def transitions(self):
        return [t for ep in self.episodes for t in ep]

    @property
    def mean_episode_length(self) -> float:
        return float(np.mean([len(ep) for ep in self.episodes])) if self.episodes else 0.0

    @property
    def mean_action_count(self) -> float:
        """Feasible actions per visited state (every one, not just the proposals scored)."""
        counts = [len(t.graph.actions) for t in self.transitions]
        return float(np.mean(counts)) if counts else 0.0


def collect_rollouts(
    model: PolicyModel,
    starts,  # list of (EnvContext, Triangulation)
    objective: Objective,
    trainer: TrainerConfig,
    counter: VisitCounter,
    rng: np.random.Generator,
) -> RolloutBuffer:
    """Fixed-horizon episodes from the given starts under the current policy.

    Reach episodes terminate early on the first success with terminal reward
    +1; environments with no feasible action finish early with a done flag.
    """
    kind = model.config.actor_kind
    nls = kind == "nls_accept"
    episodes = []
    returns = []
    for env, start in starts:
        counter.observe(env.polytope_id, start.canonical_key)
        tri = start
        episode = []
        total = 0.0
        if objective is Objective.FRST_REACH and evaluate(objective, tri, env.config, env.cache):
            episodes.append(episode)
            returns.append(0.0)
            continue
        for _t in range(trainer.horizon):
            actions = flippable_circuits(tri, env.table)
            if not actions:
                break
            params = model._const_params()
            graph = state_graph(env.config, tri, actions, kind)
            enc = encode(env.config, tri, params, model.config, graph)
            value = float(value_estimate(enc, params, model.config).data.reshape(-1)[0])
            if nls:
                proposal = int(rng.integers(len(actions)))
                p_accept = float(nls_accept_probability(enc, params).data.reshape(-1)[0])
                accept = bool(rng.random() < p_accept)
                idx = proposal if accept else -1
                log_prob = math.log(max(p_accept if accept else 1.0 - p_accept, 1e-12))
                nxt = apply_flip(tri, actions[proposal]) if accept else tri
                chosen_actions = [actions[proposal]]
                action_index = 0 if accept else -1
            else:
                logits = actor_logits(enc, tri, actions, params, model.config)
                probs = policy_distribution(logits).data.reshape(-1)
                idx = sample_action(probs, rng)
                log_prob = math.log(max(probs[idx], 1e-300))
                nxt = apply_flip(tri, actions[idx])
                chosen_actions = actions
                action_index = idx
            if nxt is not tri:
                require_valid(nxt, env.config)
            gain = reward(objective, tri, nxt, env.config, env.cache)
            success = objective is Objective.FRST_REACH and gain > 0
            bonus = expansion_bonus(
                counter, env.polytope_id, nxt.canonical_key, trainer.bonus_coef
            )
            total += gain + bonus
            episode.append(
                Transition(
                    env=env,
                    state=tri,
                    actions=chosen_actions,
                    action_index=action_index,
                    old_log_prob=log_prob,
                    value=value,
                    reward=gain + bonus,
                    done=success,
                    graph=graph,
                )
            )
            tri = nxt
            if success:
                break
        episodes.append(episode)
        returns.append(total)
    mean_return = float(np.mean(returns)) if returns else 0.0
    return RolloutBuffer(episodes=episodes, mean_return=mean_return)


def compute_gae(buffer: RolloutBuffer, discount: float, lam: float):
    """Exponentially weighted TD residuals; bootstrap omitted at the horizon.

    Returns advantages in place and sets ret = advantage + value.
    """
    for episode in buffer.episodes:
        gae = 0.0
        for t in reversed(range(len(episode))):
            tr = episode[t]
            next_value = 0.0 if t == len(episode) - 1 else episode[t + 1].value
            delta = tr.reward + discount * next_value - tr.value
            gae = delta + discount * lam * gae
            tr.advantage = gae
            tr.ret = gae + tr.value
        # the recursion restarts per episode, so horizon truncation and early
        # termination both drop the bootstrap term
    return buffer


def explained_variance(buffer: RolloutBuffer) -> float:
    """1 - Var(returns - values) / Var(returns); 0.0 when the returns do not vary."""
    values = np.array([t.value for t in buffer.transitions])
    returns = np.array([t.ret for t in buffer.transitions])
    spread = returns.var() if returns.size else 0.0
    return float(1.0 - (returns - values).var() / spread) if spread > 0 else 0.0


@dataclass
class LossReport:
    policy_loss: float
    value_loss: float
    entropy_loss: float
    total_loss: float
    clip_fraction: float
    approx_kl: float = 0.0  # mean of (r - 1) - log r over the ratios r
    grad_norm: float = 0.0  # L2 norm of the batch-mean gradient before Adam


def _transition_loss(model, params, tr: Transition, trainer: TrainerConfig, adv: float):
    enc = encode(tr.env.config, tr.state, params, model.config, tr.graph)
    if model.config.actor_kind == "nls_accept":
        p_accept = nls_accept_probability(enc, params)
        eps = 1e-9
        p_accept = ad.clip(p_accept, eps, 1.0 - eps)
        if tr.action_index >= 0:
            chosen = p_accept
        else:
            chosen = ad.sub(ad.constant(np.ones((1, 1))), p_accept)
        log_prob = ad.log(chosen)
        p_reject = ad.sub(ad.constant(np.ones((1, 1))), p_accept)
        entropy_neg = ad.add(
            ad.mul(p_accept, ad.log(p_accept)), ad.mul(p_reject, ad.log(p_reject))
        )
    else:
        logits = actor_logits(enc, tr.state, tr.actions, params, model.config)
        probs = policy_distribution(logits)
        eps = 1e-12
        safe = ad.clip(probs, eps, 1.0)
        log_probs = ad.log(safe)
        one_hot = np.zeros((len(tr.actions), 1))
        one_hot[tr.action_index, 0] = 1.0
        log_prob = ad.tensor_sum(ad.mul(log_probs, ad.constant(one_hot)))
        entropy_neg = ad.tensor_sum(ad.mul(probs, log_probs))

    log_ratio = ad.sub(log_prob, ad.constant(tr.old_log_prob))
    ratio = ad.exp(log_ratio)
    adv_t = ad.constant(adv)
    unclipped = ad.mul(ratio, adv_t)
    clipped = ad.mul(
        ad.clip(ratio, 1.0 - trainer.clip_ratio, 1.0 + trainer.clip_ratio), adv_t
    )
    surrogate = ad.minimum(unclipped, clipped)
    policy_loss = ad.neg(surrogate)

    value = value_estimate(enc, params, model.config)
    value_loss = ad.square(ad.sub(value, ad.constant(tr.ret)))

    total = ad.add(
        policy_loss,
        ad.add(
            ad.scale(value_loss, trainer.value_coef),
            ad.scale(entropy_neg, trainer.entropy_coef),
        ),
    )
    ratio_val = float(ratio.data.reshape(-1)[0])
    log_ratio_val = float(log_ratio.data.reshape(-1)[0])
    stats = (
        float(policy_loss.data.reshape(-1)[0]),
        float(value_loss.data.reshape(-1)[0]),
        float(entropy_neg.data.reshape(-1)[0]),
        abs(ratio_val - 1.0) > trainer.clip_ratio,
        math.expm1(log_ratio_val) - log_ratio_val,
    )
    return total, stats


def ppo_update(model: PolicyModel, buffer: RolloutBuffer, trainer: TrainerConfig, adam_params):
    """One epoch over the full batch; gradients averaged across transitions."""
    transitions = buffer.transitions
    if not transitions:
        return LossReport(0.0, 0.0, 0.0, 0.0, 0.0)
    advantages = np.array([t.advantage for t in transitions])
    if trainer.normalize_advantages and advantages.size > 1:
        std = advantages.std()
        advantages = (advantages - advantages.mean()) / (std + 1e-8)

    p_losses, v_losses, e_losses, clips, kls, grad_norms = [], [], [], [], [], []
    for _epoch in range(trainer.ppo_epochs):
        grad_sums = {k: np.zeros_like(v) for k, v in model.params.items()}
        for tr, adv in zip(transitions, advantages):
            tape = ad.Tape()
            params = model.taped_parameters(tape)
            total, (pl, vl, el, was_clipped, kl) = _transition_loss(
                model, params, tr, trainer, float(adv)
            )
            if not np.isfinite(total.data).all():
                raise TrainingError(
                    f"non-finite loss on state {tr.state.canonical_key[:2]}..."
                )
            grads = ad.backward(tape, total)
            for name, tensor in params.items():
                g = grads.get(tensor.node_id)
                if g is not None:
                    grad_sums[name] += g
            p_losses.append(pl)
            v_losses.append(vl)
            e_losses.append(el)
            clips.append(was_clipped)
            kls.append(kl)
        grads_mean = {k: v / len(transitions) for k, v in grad_sums.items()}
        grad_norms.append(math.sqrt(sum(float(np.sum(g * g)) for g in grads_mean.values())))
        ad.adam_step(adam_params, grads_mean, trainer.learning_rate)
        for p in adam_params:
            model.params[p.name] = p.value
    report = LossReport(
        policy_loss=float(np.mean(p_losses)),
        value_loss=float(np.mean(v_losses)),
        entropy_loss=float(np.mean(e_losses)),
        total_loss=float(
            np.mean(p_losses)
            + trainer.value_coef * np.mean(v_losses)
            + trainer.entropy_coef * np.mean(e_losses)
        ),
        clip_fraction=float(np.mean(clips)),
        approx_kl=float(np.mean(kls)),
        grad_norm=float(np.mean(grad_norms)),
    )
    if not all(
        np.isfinite(x)
        for x in (report.policy_loss, report.value_loss, report.entropy_loss)
    ):
        raise TrainingError(f"non-finite loss report {report}")
    return report


@dataclass
class TrainResult:
    model: PolicyModel
    curve: list  # per-iteration records
    counter: VisitCounter


def train(
    environments,  # ordered mapping polytope_id -> (EnvContext, [seed triangulations])
    objective: Objective,
    model_config: ModelConfig,
    trainer: TrainerConfig,
    on_iteration=None,
    on_checkpoint=None,
) -> TrainResult:
    """Run the full loop: sample starts, roll out, estimate advantages, update."""
    seq = np.random.SeedSequence(trainer.seed)
    init_seed, rollout_seed = seq.spawn(2)
    rng = np.random.default_rng(rollout_seed)
    model = PolicyModel.initialize(model_config, seed=init_seed)
    adam_params = [ad.Parameter(name, value) for name, value in model.params.items()]
    counter = VisitCounter()
    seed_sets = {pid: tris for pid, (_env, tris) in environments.items()}
    env_by_id = {pid: env for pid, (env, _tris) in environments.items()}
    curve = []
    for iteration in range(1, trainer.iterations + 1):
        picks = sample_initial_states(seed_sets, counter, trainer.num_envs, rng)
        starts = [(env_by_id[pid], tri) for pid, tri in picks]
        buffer = collect_rollouts(model, starts, objective, trainer, counter, rng)
        compute_gae(buffer, trainer.discount, trainer.gae_lambda)
        report = ppo_update(model, buffer, trainer, adam_params)
        record = {
            "iteration": iteration,
            "mean_return": buffer.mean_return,
            "policy_loss": report.policy_loss,
            "value_loss": report.value_loss,
            "entropy_loss": report.entropy_loss,
            "clip_fraction": report.clip_fraction,
            "approx_kl": report.approx_kl,
            "grad_norm": report.grad_norm,
            "explained_variance": explained_variance(buffer),
            "mean_episode_length": buffer.mean_episode_length,
            "mean_action_count": buffer.mean_action_count,
        }
        curve.append(record)
        if on_iteration is not None:
            on_iteration(record)
        if on_checkpoint is not None and iteration % trainer.checkpoint_every == 0:
            on_checkpoint(iteration, model)
    return TrainResult(model=model, curve=curve, counter=counter)
