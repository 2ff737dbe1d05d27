"""On-policy training of the flip-ranking policy: rollouts, GAE, clipped updates.

Each iteration samples initial triangulations weighted toward under-visited
states, collects fixed-horizon rollouts in environments stepped in lockstep,
augments rewards with a count-based expansion bonus, and performs one
full-batch clipped-surrogate update with Adam.  Each environment is a
:class:`~flipforge.search.SearchContext`.  Each rollout step moves the
states of all running environments by one batched choice of the search
layer's learned strategy, one forward pass over their disjoint-union graph,
and a flipped state is validated on its first arrival in its environment.
The update replays each step's union in one taped pass.  Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import TrainingError
from .flips import apply_flip, flippable_circuits
from .objectives import Objective, evaluate, left_sum, reward
from .policy import ModelConfig, PolicyModel, StateGraph, actor_head, encode, value_estimate
from .search import AcceptanceStrategy, PolicyStrategy, SearchContext
from .triangulation import Triangulation


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
        for name in ("horizon", "num_envs", "ppo_epochs", "clip_ratio", "checkpoint_every"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.iterations < 0:
            raise ValueError(f"iterations must be nonnegative, got {self.iterations}")
        # zero is allowed: a frozen policy that only collects rollouts
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and nonnegative")
        if not math.isfinite(self.bonus_coef):
            raise ValueError(f"bonus_coef must be finite, got {self.bonus_coef}")


class VisitCounter:
    """Per-environment visitation counts over canonical keys, initialized to one."""

    def __init__(self):
        self._counts = {}

    def count(self, env, key) -> int:
        return self._counts.get((env, key), 1)

    def observe(self, env, key) -> int:
        """Increment and return the count BEFORE the increment."""
        k = (env, key)
        before = self._counts.get(k, 1)
        self._counts[k] = before + 1
        return before


def expansion_bonus(counter: VisitCounter, env, key, coefficient: float) -> float:
    """beta * N(state)^(-1/2) with the pre-increment count; then increments."""
    before = counter.observe(env, key)
    return coefficient / math.sqrt(before)


def initial_state_weights(entries, counter: VisitCounter):
    """Sampling weights proportional to N(state)^(-1/2)."""
    w = np.array(
        [1.0 / math.sqrt(counter.count(env, tri.canonical_key)) for env, tri in entries]
    )
    return w / w.sum()


def sample_initial_states(seed_sets, counter: VisitCounter, n: int, rng: np.random.Generator):
    """Draw n (environment, triangulation) starts with replacement.

    ``seed_sets`` is an ordered mapping environment -> list of triangulations.
    """
    entries = [(env, tri) for env, tris in seed_sets.items() for tri in tris]
    if not entries:
        raise ValueError("empty seed set")
    probs = initial_state_weights(entries, counter)
    picks = rng.choice(len(entries), size=n, replace=True, p=probs)
    return [entries[i] for i in picks]


@dataclass
class Transition:
    env: SearchContext
    state: Triangulation
    actions: list
    action_index: int
    old_log_prob: float
    value: float
    reward: float
    done: bool
    advantage: float = 0.0
    ret: float = 0.0


@dataclass
class RolloutStep:
    """One lockstep step: the union of the stepping states' graphs and their transitions.

    ``transitions[j]`` was taken from graph ``j`` of ``graph``; the update
    replays the step on this very union.
    """

    graph: StateGraph
    transitions: list


@dataclass
class RolloutBuffer:
    episodes: list  # list of lists of Transition, one per environment
    mean_return: float = 0.0
    steps: list = field(default_factory=list)  # RolloutStep per lockstep step

    @property
    def transitions(self):
        return [t for ep in self.episodes for t in ep]

    @property
    def mean_episode_length(self) -> float:
        return float(np.mean([len(ep) for ep in self.episodes])) if self.episodes else 0.0

    @property
    def mean_action_count(self) -> float:
        """Feasible actions per visited state (every one, not just the proposals scored)."""
        visited = sum(len(step.transitions) for step in self.steps)
        actions = sum(len(step.graph.actions) for step in self.steps)
        return actions / visited if visited else 0.0


def collect_rollouts(
    model: PolicyModel,
    starts,  # list of (SearchContext, Triangulation)
    trainer: TrainerConfig,
    counter: VisitCounter,
    rng: np.random.Generator,
) -> RolloutBuffer:
    """Fixed-horizon episodes from the given starts under the current policy.

    The environments step in lockstep: each step moves every running
    environment by one call of the learned strategy's ``choices``, one
    forward pass over their states' disjoint union with draws from ``rng``
    in environment order.  A reach episode ends on its first success, with
    terminal reward +1 and a done flag, and leaves the batch; an environment
    whose state has no feasible action leaves it with no done flag.
    """
    nls = model.config.actor_kind == "nls_accept"
    strategy = AcceptanceStrategy(model) if nls else PolicyStrategy(model, mode="sample")
    params = model._const_params()
    envs = [env for env, _start in starts]
    states = [start for _env, start in starts]
    episodes = [[] for _ in starts]
    returns = [0.0] * len(starts)
    running = []
    for i, (env, start) in enumerate(starts):
        counter.observe(env, start.canonical_key)
        reached = env.objective is Objective.FRST_REACH and evaluate(
            env.objective, start, env.config, env.cache
        )
        if not reached:
            running.append(i)
    steps = []
    for _t in range(trainer.horizon):
        stepping = []
        for i in running:
            actions = flippable_circuits(states[i], envs[i].table)
            if actions:
                stepping.append((i, actions))
        if not stepping:
            break
        union, enc, moves = strategy.choices(
            [(envs[i].config, states[i], actions) for i, actions in stepping], rng
        )
        values = value_estimate(enc, params, model.config).data.reshape(-1)
        running, transitions = [], []
        for j, ((i, actions), (index, accepted, head)) in enumerate(zip(stepping, moves)):
            env, tri = envs[i], states[i]
            nxt = apply_flip(tri, actions[index]) if accepted else tri
            if nls:
                p_accept = float(head[0])
                log_prob = math.log(max(p_accept if accepted else 1.0 - p_accept, 1e-12))
                chosen_actions, action_index = [actions[index]], (0 if accepted else -1)
            else:
                log_prob = math.log(max(head[index], 1e-300))
                chosen_actions, action_index = actions, index
            if nxt is not tri:
                env.admit(nxt)
            gain = reward(env.objective, tri, nxt, env.config, env.cache)
            success = env.objective is Objective.FRST_REACH and gain > 0
            bonus = expansion_bonus(counter, env, nxt.canonical_key, trainer.bonus_coef)
            returns[i] += gain + bonus
            transition = Transition(
                env=env,
                state=tri,
                actions=chosen_actions,
                action_index=action_index,
                old_log_prob=log_prob,
                value=float(values[j]),
                reward=gain + bonus,
                done=success,
            )
            episodes[i].append(transition)
            transitions.append(transition)
            states[i] = nxt
            if not success:
                running.append(i)
        steps.append(RolloutStep(graph=union, transitions=transitions))
    mean_return = float(np.mean(returns)) if returns else 0.0
    return RolloutBuffer(episodes=episodes, mean_return=mean_return, steps=steps)


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
    clip_fraction: float
    approx_kl: float = 0.0  # mean of (r - 1) - log r over the ratios r
    grad_norm: float = 0.0  # L2 norm of the batch-mean gradient before Adam


def _step_loss(model, params, step: RolloutStep, trainer: TrainerConfig, adv: np.ndarray):
    """The PPO loss of one rollout step, summed over its transitions, from one forward pass.

    ``adv`` holds the transitions' (normalized) advantages.  Each
    transition's term is the clipped surrogate of its probability ratio, its
    weighted squared value error and its weighted negative entropy.  Returns
    the scalar total and, per transition, the arrays (total, policy loss,
    value loss, negative entropy, ratio clipped, (r - 1) - log r).
    """
    graph, trs = step.graph, step.transitions
    k = len(trs)
    enc = encode(graph, params, model.config)
    head = actor_head(enc, params, model.config)
    if model.config.actor_kind == "nls_accept":
        eps = 1e-9
        p_accept = ad.clip(head, eps, 1.0 - eps)
        accepted = np.array([[float(tr.action_index >= 0)] for tr in trs])
        # p where the proposal was accepted and 1 - p where it was not
        chosen = ad.add(
            ad.constant(1.0 - accepted), ad.mul(p_accept, ad.constant(2.0 * accepted - 1.0))
        )
        log_prob = ad.log(chosen)
        p_reject = ad.sub(ad.constant(np.ones((k, 1))), p_accept)
        entropy_neg = ad.add(
            ad.mul(p_accept, ad.log(p_accept)), ad.mul(p_reject, ad.log(p_reject))
        )
    else:
        log_probs = ad.log(ad.clip(head, 1e-12, 1.0))
        taken = graph.action_offsets[:-1] + np.array([tr.action_index for tr in trs])
        log_prob = ad.gather_rows(log_probs, taken)
        entropy_neg = ad.scatter_rows(ad.mul(head, log_probs), graph.action_owners, k)

    log_ratio = ad.sub(log_prob, ad.constant(np.array([[tr.old_log_prob] for tr in trs])))
    ratio = ad.exp(log_ratio)
    adv_t = ad.constant(adv.reshape(-1, 1))
    unclipped = ad.mul(ratio, adv_t)
    clipped = ad.mul(
        ad.clip(ratio, 1.0 - trainer.clip_ratio, 1.0 + trainer.clip_ratio), adv_t
    )
    policy_loss = ad.neg(ad.minimum(unclipped, clipped))

    value = value_estimate(enc, params, model.config)
    value_loss = ad.square(ad.sub(value, ad.constant(np.array([[tr.ret] for tr in trs]))))

    per_transition = ad.add(
        policy_loss,
        ad.add(
            ad.scale(value_loss, trainer.value_coef),
            ad.scale(entropy_neg, trainer.entropy_coef),
        ),
    )
    r, log_r = ratio.data.reshape(-1), log_ratio.data.reshape(-1)
    terms = (
        per_transition.data.reshape(-1),
        policy_loss.data.reshape(-1),
        value_loss.data.reshape(-1),
        entropy_neg.data.reshape(-1),
        np.abs(r - 1.0) > trainer.clip_ratio,
        np.expm1(log_r) - log_r,
    )
    return ad.tensor_sum(per_transition), terms


def ppo_update(model: PolicyModel, buffer: RolloutBuffer, trainer: TrainerConfig, adam_params):
    """``ppo_epochs`` passes over the full batch; gradients averaged across transitions.

    Each epoch replays every rollout step as one taped forward over its
    union and one backward pass, and sums the steps' gradients.
    """
    transitions = buffer.transitions
    if not transitions:
        return LossReport(0.0, 0.0, 0.0, 0.0)
    advantages = [np.array([t.advantage for t in step.transitions]) for step in buffer.steps]
    if trainer.normalize_advantages and len(transitions) > 1:
        every = np.array([t.advantage for t in transitions])
        mean, std = every.mean(), every.std()
        advantages = [(adv - mean) / (std + 1e-8) for adv in advantages]

    terms, grad_norms = [], []
    for _epoch in range(trainer.ppo_epochs):
        grad_sums = {k: np.zeros_like(v) for k, v in model.params.items()}
        for step, adv in zip(buffer.steps, advantages):
            tape = ad.Tape()
            params = model.taped_parameters(tape)
            total, step_terms = _step_loss(model, params, step, trainer, adv)
            finite = np.isfinite(step_terms[0])
            if not finite.all():
                state = step.transitions[int(np.argmin(finite))].state
                raise TrainingError(f"non-finite loss on state {state.canonical_key[:2]}...")
            grads = ad.backward(tape, total)
            for name, tensor in params.items():
                g = grads.get(tensor.node_id)
                if g is not None:
                    grad_sums[name] += g
            terms.append(step_terms[1:])
        grads_mean = {k: v / len(transitions) for k, v in grad_sums.items()}
        grad_norms.append(math.sqrt(left_sum(float(np.sum(g * g)) for g in grads_mean.values())))
        ad.adam_step(adam_params, grads_mean, trainer.learning_rate)
        for p in adam_params:
            model.params[p.name] = p.value
    p_losses, v_losses, e_losses, clips, kls = (np.concatenate(t) for t in zip(*terms))
    report = LossReport(
        policy_loss=float(np.mean(p_losses)),
        value_loss=float(np.mean(v_losses)),
        entropy_loss=float(np.mean(e_losses)),
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


def train(
    environments,  # ordered mapping SearchContext -> [seed triangulations]
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
    curve = []
    for iteration in range(1, trainer.iterations + 1):
        starts = sample_initial_states(environments, counter, trainer.num_envs, rng)
        buffer = collect_rollouts(model, starts, trainer, counter, rng)
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
    return TrainResult(model=model, curve=curve)
