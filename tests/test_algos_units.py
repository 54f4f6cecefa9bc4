"""Per-algorithm update math against hand oracles on synthetic data."""

import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from climbench.algos import make_config, make_trainer, tqc
from climbench.algos.common import LOG_2PI, SquashedGaussianPolicy
from climbench.algos.onpolicy import conjugate_gradient
from climbench.algos.tqc import quantile_fractions, truncated_quantile_loss
from climbench.envs import BiasCorrectionEnv, BoxSpace, ClimateEnv, rng_stream
from climbench.experiments import experiment_spec, make_experiment_env, resolve_config
from climbench.nn import LOG_STD_MAX, LOG_STD_MIN, Mlp
from climbench.records import load_record
from climbench.rollout import discounted_returns
from tape import Tensor
from tape_oracle import gather, node, param_leaves


class BanditEnv(ClimateEnv):
    """Single-step episodes; reward +1 for positive actions, -1 otherwise."""

    def __init__(self):
        super().__init__()
        self.max_steps = 1
        self.action_space = BoxSpace(low=[-1.0], high=[1.0])
        self.observation_space = BoxSpace(low=[0.0], high=[1.0])

    def _reset_state(self):
        return np.array([0.5])

    def _dynamics(self, action):
        return np.array([0.5]), 1.0 if action[0] > 0 else -1.0, {}


def make(tag, env=None, **overrides):
    env = env or BiasCorrectionEnv("v0")
    cfg = make_config(tag, **overrides)
    return make_trainer(tag, env, cfg, seed=1)


# -- REINFORCE ---------------------------------------------------------------------


def test_reinforce_gamma_zero_returns_equal_rewards():
    r = np.array([0.5, -1.0, 2.0])
    assert np.array_equal(discounted_returns(r, 0.0), r)


def test_reinforce_bandit_drifts_positive():
    trainer = make("reinforce", env=BanditEnv(), total_timesteps=2000,
                   learning_rate=3e-2)
    trainer.train()
    mean_action = trainer.policy.mean_np(np.array([0.5]))[0]
    assert mean_action > 0.05


def test_reinforce_loss_gradient_matches_finite_differences():
    trainer = make("reinforce")
    rng = np.random.default_rng(0)
    obs = rng.uniform(0, 1, size=(6, 1))
    actions = rng.uniform(-1, 1, size=(6, 1))
    rewards = rng.normal(size=6)

    def loss_value():
        returns = discounted_returns(rewards, trainer.cfg.gamma)
        means = trainer.policy.mean_np(obs)
        logp = trainer.policy.log_prob_np(means, actions)
        return float(-(logp * returns).mean())

    net = trainer.policy.net
    grad = np.empty_like(net.flat)
    trainer.episode_loss(obs, actions, rewards, grad).backward()
    h = 1e-6
    for p, gp in zip(net.unflatten(net.flat), net.unflatten(grad)):
        flat = p.reshape(-1)
        gflat = gp.reshape(-1)
        for i in range(min(flat.size, 5)):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            assert gflat[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


# -- DPG ------------------------------------------------------------------------


def test_dpg_has_no_target_networks():
    # DPG bootstraps from its online nets and keeps no separate targets.
    trainer = make("dpg")
    assert trainer.target_actor is trainer.actor
    assert trainer.target_critics is trainer.critics


class FrozenQuadraticCritic:
    """Q(s, a) = -(a - 0.3)^2 behind the critic net's forward/backward pair."""

    def __init__(self, obs_dim: int):
        self.net = self
        self.obs_dim = obs_dim

    def forward(self, x):
        a = x[:, self.obs_dim:]
        return -((a - 0.3) ** 2), a

    def backward(self, a, g, grad=None, input_grad=False):
        assert grad is None and input_grad     # an actor step reads the critic only
        return np.concatenate([np.zeros((len(a), self.obs_dim)), -2.0 * (a - 0.3) * g],
                              axis=1)


def test_actor_ascends_frozen_quadratic_critic():
    # Q(s, a) = -(a - 0.3)^2 has its maximum at a = 0.3.
    trainer = make("dpg", learning_rate=3e-3)
    trainer.critics = [FrozenQuadraticCritic(1)]
    batch = {"s": np.full((16, 1), 0.5)}
    for _ in range(500):
        trainer._update_actor(batch)
    assert trainer.actor.act_np(np.array([0.5]))[0] == pytest.approx(0.3, abs=0.02)


@pytest.mark.parametrize("tag", ["ddpg", "td3", "sac", "tqc"])
def test_actor_update_gives_critics_no_gradient(tag):
    # An actor step leaves every critic and the critics' optimizer as it
    # found them, and moves the actor.
    trainer = make(tag, total_timesteps=120, learning_starts=50)
    trainer.train()
    opt = trainer.critic_opt
    critics = [c.net.flat.copy() for c in trainer.critics]
    moments, count = (opt.m.copy(), opt.v.copy()), opt.step_count
    actor = trainer.actor.net.flat.copy()
    trainer._update_actor(trainer.buffer.sample(trainer.cfg.batch_size))
    assert [c.net.flat.tobytes() for c in trainer.critics] == [c.tobytes() for c in critics]
    assert opt.m.tobytes() == moments[0].tobytes() and opt.v.tobytes() == moments[1].tobytes()
    assert opt.step_count == count > 0
    assert not np.array_equal(trainer.actor.net.flat, actor)


def test_zero_noise_trajectories_replay_identically():
    outs = []
    for _ in range(2):
        trainer = make("dpg", total_timesteps=200, exploration_noise=0.0)
        rec = trainer.train()
        outs.append(rec.entries)
    assert outs[0] == outs[1]


# -- DDPG -----------------------------------------------------------------------


def test_ddpg_tau_one_makes_targets_track_online():
    trainer = make("ddpg", total_timesteps=1200, tau=1.0, learning_starts=100)
    trainer.train()
    assert np.array_equal(trainer.target_actor.net.flat, trainer.actor.net.flat)


def test_ddpg_target_uses_target_networks():
    trainer = make("ddpg")
    batch = {"s": np.array([[0.4]]), "a": np.array([[0.1]]),
             "r": np.array([0.5]), "s_next": np.array([[0.5]])}
    y_before = trainer.compute_target(batch)
    trainer.actor.net.flat[:] += 0.37  # perturb online nets only
    trainer.critics[0].net.flat[:] += 0.37
    y_after = trainer.compute_target(batch)
    assert np.array_equal(y_before, y_after)


# -- TD3 ------------------------------------------------------------------------


def test_td3_target_noise_never_exceeds_clip():
    trainer = make("td3", policy_noise=0.8, noise_clip=0.3)
    s_next = np.random.default_rng(0).uniform(0, 1, size=(4000, 1))
    base = trainer.target_actor.act_np(s_next)
    smoothed = trainer.smoothed_target_actions(s_next)
    raw_gap = smoothed - trainer.env.action_space.clip(base)
    # Before the box clamp the noise is within +-clip; after it, never larger.
    assert np.max(np.abs(raw_gap)) <= 0.3 + 1e-12


def test_td3_min_critic_target_not_above_individual():
    trainer = make("td3")
    rng = np.random.default_rng(1)
    s_next = rng.uniform(0, 1, size=(64, 1))
    a_next = trainer.smoothed_target_actions(s_next)
    q1 = trainer.target_critics[0].q_np(s_next, a_next)[:, 0]
    q2 = trainer.target_critics[1].q_np(s_next, a_next)[:, 0]
    m = np.minimum(q1, q2)
    assert np.all(m <= q1 + 1e-15) and np.all(m <= q2 + 1e-15)


def test_td3_delayed_actor_update_ratio():
    trainer = make("td3", total_timesteps=2000, learning_starts=200,
                   policy_frequency=2)
    trainer.train()
    # updates run from step t = learning_starts through t = T inclusive
    assert trainer.n_critic_updates == 2000 - 200 + 1
    assert abs(trainer.n_actor_updates - trainer.n_critic_updates // 2) <= 1


def test_td3_holds_exactly_two_critics():
    trainer = make("td3")
    assert len(trainer.critics) == 2 and len(trainer.target_critics) == 2


# -- TRPO -----------------------------------------------------------------------


def test_cg_identity_matrix_returns_gradient():
    g = np.array([1.0, -2.0, 3.0])
    x = conjugate_gradient(lambda v: v, g, iterations=1)
    assert np.allclose(x, g, atol=1e-12)


def test_cg_matches_direct_solve_on_random_spd():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(8, 8))
    a = m @ m.T + 8 * np.eye(8)
    b = rng.normal(size=8)
    x = conjugate_gradient(lambda v: a @ v, b, iterations=50)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-6)


def test_trpo_ratio_one_gives_zero_kl_and_mean_advantage():
    trainer = make("trpo")
    rng = np.random.default_rng(3)
    obs = rng.uniform(0, 1, size=(32, 1))
    actions = trainer.policy.mean_np(obs) + rng.normal(size=(32, 1)) * 0.1
    means = trainer.policy.mean_np(obs)
    logp = trainer.policy.log_prob_np(means, actions)
    adv = rng.normal(size=32)
    trainer._log_std_at_collect = trainer.policy.net.log_std.copy()
    assert trainer.surrogate_np(means, actions, logp, adv) == pytest.approx(
        float(adv.mean()), rel=1e-12)
    kl = trainer.policy.kl_old_new_np(means, trainer._log_std_at_collect,
                                      trainer.policy.mean_np(obs))
    assert kl == pytest.approx(0.0, abs=1e-15)


def test_analytic_gaussian_kl_closed_form():
    # Equal sigmas: KL(N(mu1, s) || N(mu2, s)) = (mu1 - mu2)^2 / (2 s^2).
    trainer = make("trpo")
    sigma = float(np.exp(trainer.policy.net.log_std[0]))
    old_means = np.array([[0.3], [0.1]])
    new_means = np.array([[0.5], [0.4]])
    expected = float(np.mean((old_means - new_means) ** 2 / (2 * sigma ** 2)))
    got = trainer.policy.kl_old_new_np(old_means, trainer.policy.net.log_std,
                                       new_means)
    assert got == pytest.approx(expected, abs=1e-10)


def test_fisher_vector_product_matches_kl_gradient_differences():
    # FVP(v) ~= (grad KL(theta + h v) - grad KL(theta - h v)) / 2h at theta_old.
    trainer = make("trpo", actor_critic_layer_size=8)
    rng = np.random.default_rng(4)
    obs = rng.uniform(0, 1, size=(16, 1))
    net = trainer.policy.net
    old_means = trainer.policy.mean_np(obs)
    old_log_std = net.log_std.copy()
    trainer.cfg.cg_damping = 0.0

    def kl_grad(vector):
        saved = net.flat.copy()
        net.flat[:] = vector
        leaves = param_leaves(net)
        mean = node(net, leaves, Tensor(obs))
        log_std = leaves[-1]
        var_old = np.exp(2.0 * old_log_std)
        diff = Tensor(old_means) - mean
        inv_var_new = (log_std * (-2.0)).exp()
        per_dim = (log_std - Tensor(old_log_std)
                   + (diff * diff + var_old) * inv_var_new * 0.5 - 0.5)
        per_dim.sum(axis=1).mean().backward()
        g = gather(leaves)
        net.flat[:] = saved
        return g

    theta = net.flat.copy()
    v = rng.normal(size=theta.size)
    h = 1e-5
    fd = (kl_grad(theta + h * v) - kl_grad(theta - h * v)) / (2 * h)
    fvp = trainer.fisher_vector_product(net.forward(obs)[1], v)
    assert np.max(np.abs(fvp - fd)) < 1e-4


def test_trpo_no_op_on_unimprovable_surrogate():
    trainer = make("trpo")
    rng = np.random.default_rng(5)
    obs = rng.uniform(0, 1, size=(16, 1))
    means = trainer.policy.mean_np(obs)
    actions = means + 0.05 * rng.normal(size=(16, 1))
    logp = trainer.policy.log_prob_np(means, actions)
    trainer._log_std_at_collect = trainer.policy.net.log_std.copy()
    before = trainer.policy.net.flat.copy()
    accepted = trainer.natural_step(obs, actions, logp, means, np.zeros(16))
    assert not accepted
    assert np.array_equal(before, trainer.policy.net.flat)


@pytest.mark.parametrize("cg_iterations", [1, 10])
def test_trpo_natural_step_runs_two_policy_forward_passes(monkeypatch, cg_iterations):
    # One ``forward`` for the surrogate gradient, whose layer inputs every
    # Fisher-vector product of the CG solve reuses and whose means give the
    # base surrogate; then one ``forward_np`` per backtracking scale tried,
    # whose means give that scale's KL and surrogate.
    trainer = make("trpo", cg_iterations=cg_iterations)
    rng = np.random.default_rng(6)
    obs = rng.uniform(0, 1, size=(64, 1))
    means = trainer.policy.mean_np(obs)
    actions = means + 0.05 * rng.normal(size=(64, 1))
    logp = trainer.policy.log_prob_np(means, actions)
    # a gradient far from CG's tolerance, so the solve takes several products
    adv = 1e4 * rng.normal(size=64)
    trainer._log_std_at_collect = trainer.policy.net.log_std.copy()
    net = trainer.policy.net
    forwards, passes, products = [], [], []
    monkeypatch.setattr(net, "forward",
                        lambda x: forwards.append(x) or Mlp.forward(net, x))
    monkeypatch.setattr(net, "forward_np",
                        lambda x: passes.append(x) or Mlp.forward_np(net, x))
    fvp = trainer.fisher_vector_product
    monkeypatch.setattr(trainer, "fisher_vector_product",
                        lambda kept, v: products.append(v) or fvp(kept, v))
    before = net.flat.copy()
    # every scale's KL inside the region: the full step improves the surrogate
    monkeypatch.setattr(trainer.policy, "kl_old_new_np", lambda *args: 0.0)
    assert trainer.natural_step(obs, actions, logp, means, adv)
    assert len(products) == 2 if cg_iterations == 1 else len(products) > 2
    assert (len(forwards), len(passes)) == (1, 1)
    # from the same parameters, every scale's KL outside the region
    net.flat[:] = before
    forwards.clear(), passes.clear()
    monkeypatch.setattr(trainer.policy, "kl_old_new_np", lambda *args: np.inf)
    assert not trainer.natural_step(obs, actions, logp, means, adv)
    assert np.array_equal(net.flat, before)
    assert (len(forwards), len(passes)) == (1, trainer.cfg.backtrack_steps)


class NoiseEnv(ClimateEnv):
    """Observations drawn from ``rng`` whatever the action; no reward."""

    def __init__(self, obs_dim: int, act_dim: int, max_steps: int, rng):
        super().__init__()
        self.max_steps = max_steps
        self.observation_space = BoxSpace(low=np.full(obs_dim, -5.0),
                                          high=np.full(obs_dim, 5.0))
        self.action_space = BoxSpace(low=-np.ones(act_dim), high=np.ones(act_dim))
        self.rng = rng

    def _reset_state(self):
        return self.rng.uniform(-5.0, 5.0, size=self.observation_space.dim)

    def _dynamics(self, action):
        return self._reset_state(), 0.0, {}


@given(data=st.data())
def test_episode_log_probs_match_each_steps_own_sample(data):
    # An episode's noise is one block draw and its log-probs one
    # ``log_prob_np`` call after it ends. The oracle replays each step's sample
    # with its own draw from the explore stream and scores it with the one-row
    # formula, at the log-std fixed through the episode; the block draw must
    # leave the stream where the per-step draws do.
    tag = data.draw(st.sampled_from(["reinforce", "ppo", "trpo"]), label="algorithm")
    obs_dim = data.draw(st.integers(1, 3), label="obs_dim")
    act_dim = data.draw(st.integers(1, 3), label="act_dim")
    n = data.draw(st.integers(1, 300), label="episode length")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    trainer = make(tag, env=NoiseEnv(obs_dim, act_dim, n, rng), total_timesteps=n)
    bound = st.sampled_from([LOG_STD_MIN, LOG_STD_MAX])
    trainer.policy.net.log_std[:] = data.draw(st.lists(
        bound | st.floats(LOG_STD_MIN, LOG_STD_MAX), min_size=act_dim,
        max_size=act_dim), label="log_std")
    explore = copy.deepcopy(trainer.streams.explore)
    ep = trainer.collect_episode()
    std = np.exp(trainer.policy.net.log_std)
    expected = np.empty(n)
    for t, obs in enumerate(ep["obs"]):
        mean = trainer.policy.net.forward_np(obs)
        raw = mean + std * explore.normal(size=act_dim)
        assert (ep["means"][t].tobytes(), ep["actions"][t].tobytes()) == (
            mean.tobytes(), raw.tobytes())
        z = (raw - mean) / std
        expected[t] = float((-0.5 * z * z - np.log(std) - 0.5 * LOG_2PI).sum())
    assert ep["log_probs"].tobytes() == expected.tobytes()
    # the Philox state holds arrays (counter, key, buffer): compare their text
    assert repr(explore.bit_generator.state) == repr(
        trainer.streams.explore.bit_generator.state)


class CountingGenerator:
    """A generator's draws, with each call's name and size logged."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def logged(*args, **kwargs):
            self.calls.append((name, kwargs.get("size")))
            return draw(*args, **kwargs)
        return logged


def test_episode_step_loop_runs_only_the_policy_and_env(monkeypatch):
    # One noise draw per episode, one policy pass per step and one value pass
    # over the stacked observations after the loop.
    env = NoiseEnv(2, 2, 40, np.random.default_rng(0))
    trainer = make("ppo", env=env)
    explore = trainer.streams.explore = CountingGenerator(trainer.streams.explore)
    passes = {"policy": [], "value": []}
    for name, net in (("policy", trainer.policy.net), ("value", trainer.value_net)):
        monkeypatch.setattr(net, "forward_np", lambda x, net=net, log=passes[name]:
                            log.append(np.shape(x)) or Mlp.forward_np(net, x))
    ep = trainer.collect_episode()
    assert explore.calls == [("normal", (40, 2))]
    assert passes["policy"] == [(2,)] * 40
    assert passes["value"] == [(41, 1, 2)]
    assert ep["values"].shape == (41,)


@pytest.mark.parametrize("tag", ["ppo", "trpo"])
def test_no_kl_check_after_the_last_epoch(monkeypatch, tag):
    # The KL early stop runs one full-batch policy pass after each epoch but
    # the last, after which the sweep ends anyway.
    env = NoiseEnv(1, 1, 48, np.random.default_rng(2))
    trainer = make(tag, env=env, update_epochs=3, num_minibatches=4)
    ep = trainer.collect_episode()
    net = trainer.policy.net
    full_batch = []
    monkeypatch.setattr(net, "forward_np", lambda x: full_batch.append(
        len(x) == 48) or Mlp.forward_np(net, x))
    monkeypatch.setattr(trainer.policy, "kl_old_new_np", lambda *args: 0.0)
    trainer.update_from_batch(ep)
    assert sum(full_batch) == trainer.cfg.update_epochs - 1


# -- PPO ------------------------------------------------------------------------


def _ppo_batch_with_ratios(trainer, ratios, rng):
    # old log-probs chosen so that pi_new / pi_old equals each given ratio
    obs = rng.uniform(0, 1, size=(len(ratios), 1))
    actions = trainer.policy.mean_np(obs) + 0.1 * rng.normal(size=(len(ratios), 1))
    logp = trainer.policy.log_prob_np(trainer.policy.mean_np(obs), actions)
    return obs, actions, logp - np.log(ratios)


def test_ppo_loss_clips_ratios_outside_band():
    trainer = make("ppo", clip_coef=0.2)
    rng = np.random.default_rng(8)
    ratios = np.array([0.5, 0.7, 0.95, 1.1, 1.5, 2.0, 0.5, 0.7, 0.95, 1.1, 1.5, 2.0])
    adv = np.array([1.3, 0.4, 0.9, 2.0, 0.8, 1.1, -1.3, -0.4, -0.9, -2.0, -0.8, -1.1])
    obs, actions, old_logp = _ppo_batch_with_ratios(trainer, ratios, rng)
    returns = rng.normal(size=ratios.size)
    loss = trainer.minibatch_loss(obs, actions, old_logp, adv, returns,
                                  np.empty(trainer.optimizer.m.size))
    surrogate = np.minimum(ratios * adv, np.clip(ratios, 0.8, 1.2) * adv)
    value = trainer.value_net.forward_np(obs)[:, 0]
    expected = -surrogate.mean() + trainer.cfg.vf_coef * np.mean((value - returns) ** 2)
    assert float(loss.data) == pytest.approx(float(expected), rel=1e-10)

    # Where the clipped term is the minimum, the surrogate is constant in the
    # policy: ratio above 1 + eps with A > 0, below 1 - eps with A < 0.
    ratios = np.array([1.5, 2.0, 0.5, 0.7])
    adv = np.array([0.8, 1.1, -1.3, -0.4])
    obs, actions, old_logp = _ppo_batch_with_ratios(trainer, ratios, rng)
    both = np.full(trainer.optimizer.m.size, np.nan)
    trainer.minibatch_loss(obs, actions, old_logp, adv, np.zeros(4), both).backward()
    grad = both[:trainer.policy.net.flat.size]
    assert np.all(grad == 0.0)


def test_ppo_ratio_one_surrogate_is_mean_advantage():
    trainer = make("ppo")
    rng = np.random.default_rng(6)
    obs = rng.uniform(0, 1, size=(32, 1))
    actions = trainer.policy.mean_np(obs) + 0.1 * rng.normal(size=(32, 1))
    logp_old = trainer.policy.log_prob_np(trainer.policy.mean_np(obs), actions)
    adv = rng.normal(size=32)
    returns = rng.normal(size=32)
    loss = trainer.minibatch_loss(obs, actions, logp_old, adv, returns,
                                  np.empty(trainer.optimizer.m.size))
    value = trainer.value_net.forward_np(obs)[:, 0]
    expected = -float(adv.mean()) + trainer.cfg.vf_coef * float(
        np.mean((value - returns) ** 2))
    assert float(loss.data) == pytest.approx(expected, rel=1e-10)


# -- SAC ------------------------------------------------------------------------


def test_sac_alpha_zero_reduces_to_min_critic_target():
    trainer = make("sac")
    batch = {"s": np.array([[0.4]]), "a": np.array([[0.1]]),
             "r": np.array([0.7]), "s_next": np.array([[0.6]])}
    rng_state = trainer.streams.explore.bit_generator.state
    y0 = trainer.compute_target(batch, alpha=0.0)
    trainer.streams.explore.bit_generator.state = rng_state
    a_next, _, _ = trainer.actor.rsample(batch["s_next"],
                                         trainer.streams.explore.normal(size=(1, 1)))
    q = min(trainer.target_critics[0].q_np(batch["s_next"], a_next)[0, 0],
            trainer.target_critics[1].q_np(batch["s_next"], a_next)[0, 0])
    assert y0[0] == pytest.approx(0.7 + trainer.cfg.gamma * q, rel=1e-12)


def test_sac_actions_always_inside_box():
    trainer = make("sac")
    rng = rng_stream(3, 9)
    for _ in range(2000):
        a = trainer.select_action(np.array([rng.uniform(0, 1)]), explore=True)
        assert -1.0 <= a[0] <= 1.0


def test_squashed_log_prob_normalizes_by_quadrature():
    # Integrate exp(log pi(a)) over the action interval on a fine grid.
    policy = SquashedGaussianPolicy(1, BoxSpace(low=[-1.0], high=[1.0]), 16,
                                    np.random.default_rng(0))
    policy.net.log_std[:] = np.log(0.7)
    obs = np.array([[0.3]])
    mean = policy.net.forward_np(obs)[0, 0]
    std = 0.7
    a_grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 200_001)
    u = np.arctanh(a_grid)
    logp = (-0.5 * ((u - mean) / std) ** 2 - np.log(std) - 0.5 * np.log(2 * np.pi)
            - np.log(1.0 * (1 - np.tanh(u) ** 2) + 1e-6))
    mass = np.trapezoid(np.exp(logp), a_grid)
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_sac_holds_exactly_two_critics():
    trainer = make("sac")
    assert len(trainer.critics) == 2 and len(trainer.target_critics) == 2


# -- TQC ------------------------------------------------------------------------


def quantile_huber_loss(u: Tensor, tau: np.ndarray, kappa: float = 1.0) -> Tensor:
    """Oracle: rho_tau(u) = |tau - 1{u<0}| * L_kappa(u), elementwise.

    ``u`` is (batch, n_quantiles, n_targets) of residuals target - predicted;
    ``tau`` broadcasts along the quantile axis.
    """
    data = u.data
    abs_u = np.abs(data)
    small = abs_u <= kappa
    huber = np.where(small, 0.5 * data * data, kappa * (abs_u - 0.5 * kappa))
    weight = np.abs(tau - (data < 0.0))

    def backward(g: np.ndarray) -> None:
        d_huber = np.where(small, data, kappa * np.sign(data))
        u._accumulate_fresh(g * weight * d_huber)

    return Tensor._from_op(weight * huber, (u,), backward)


def test_quantile_huber_hand_cases():
    tau = np.array([0.25])
    # u = 1, kappa = 1: |tau - 0| * 0.5 = tau / 2.
    loss = quantile_huber_loss(Tensor(np.array([1.0])), tau)
    assert float(loss.data[0]) == pytest.approx(0.125, abs=1e-12)
    # u = -1: weight flips to 1 - tau.
    loss = quantile_huber_loss(Tensor(np.array([-1.0])), tau)
    assert float(loss.data[0]) == pytest.approx(0.75 * 0.5, abs=1e-12)
    # u = 2, linear branch: L = kappa * (|u| - kappa / 2) = 1.5.
    loss = quantile_huber_loss(Tensor(np.array([2.0])), np.array([0.5]))
    assert float(loss.data[0]) == pytest.approx(0.75, abs=1e-12)
    # zero error -> zero loss
    loss = quantile_huber_loss(Tensor(np.array([0.0])), tau)
    assert float(loss.data[0]) == 0.0


def pairwise_quantile_loss(q: np.ndarray, targets: np.ndarray, tau: np.ndarray,
                           kappa: float = 1.0) -> tuple[float, np.ndarray]:
    """Oracle: the summed loss and its gradient in ``q``, over the (batch,
    quantiles, targets) residual array; the TQC trainer used it before the
    closed form.
    """
    tau = np.reshape(tau, (1, -1, 1))
    u = targets[:, None, :] - q[:, :, None]
    abs_u = np.abs(u)
    small = abs_u <= kappa
    np.subtract(abs_u, 0.5 * kappa, out=abs_u)
    np.multiply(abs_u, kappa, out=abs_u)          # linear branch in place
    huber = np.where(small, 0.5 * u * u, abs_u)
    weight = np.abs(tau - (u < 0.0))
    np.multiply(huber, weight, out=huber)
    d = np.where(small, u, kappa * np.sign(u))
    np.multiply(d, weight, out=d)
    return float(huber.sum()), -d.sum(axis=2)


def loss_and_grad(loss_fn, q_data, y, tau, kappa=1.0):
    """The loss's mean over (batch, quantiles, targets), and its gradient."""
    total, grad = loss_fn(q_data.copy(), y, tau, kappa)
    count = y.size * q_data.shape[1]
    return total / count, grad * (1.0 / count)


def test_fused_loss_equals_composed_path():
    # both losses, the pairwise oracle and the closed form, on unsorted targets
    rng = np.random.default_rng(7)
    b, nq, k = 5, 7, 9
    tau = quantile_fractions(nq)
    q_data = rng.normal(size=(b, nq))
    y = rng.normal(size=(b, k))
    q2 = Tensor(q_data.copy(), requires_grad=True)
    u = Tensor(y[:, None, :]) - q2.reshape(b, nq, 1)
    composed = quantile_huber_loss(u, tau[None, :, None]).mean()
    composed.backward()
    for loss_fn in (pairwise_quantile_loss, truncated_quantile_loss):
        loss, grad = loss_and_grad(loss_fn, q_data, y, tau)
        assert loss == pytest.approx(float(composed.data), rel=1e-12)
        assert np.max(np.abs(grad - q2.grad.reshape(b, nq))) < 1e-12


@given(n_q=st.integers(1, 35), n_y=st.integers(1, 175), rows=st.integers(1, 6),
       kappa=st.sampled_from([1.0, 0.5, 3.0]) | st.floats(0.01, 10.0),
       offset=st.sampled_from([0.0, 1e4, -1e4]), spread=st.sampled_from([0.3, 3.0, 100.0]),
       on_grid=st.booleans(), equal_rows=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_loss_matches_pairwise_oracle(n_q, n_y, rows, kappa, offset, spread,
                                                  on_grid, equal_rows, seed):
    rng = np.random.default_rng(seed)
    if on_grid:
        # multiples of kappa / 2: exact ties at u = 0 and |u| = kappa
        q_data = rng.integers(-6, 7, size=(rows, n_q)) * (kappa / 2)
        y = rng.integers(-6, 7, size=(rows, n_y)) * (kappa / 2)
    else:
        q_data = rng.normal(scale=spread, size=(rows, n_q))
        y = rng.normal(scale=spread, size=(rows, n_y))
    y[:equal_rows] = y[:equal_rows, :1]        # rows of one repeated target value
    q_data, y = q_data + offset, np.sort(y + offset, axis=1)
    tau = quantile_fractions(n_q)
    loss, grad = loss_and_grad(truncated_quantile_loss, q_data, y, tau, kappa)
    ref_loss, ref_grad = loss_and_grad(pairwise_quantile_loss, q_data, y, tau, kappa)
    assert abs(loss - ref_loss) <= 1e-10 * ref_loss
    # each gradient entry against the sum of its terms' magnitudes
    u = y[:, None, :] - q_data[:, :, None]
    weight = np.abs(tau[None, :, None] - (u < 0.0))
    scale = (weight * np.minimum(np.abs(u), kappa)).sum(axis=2) / u.size
    assert np.all(np.abs(grad - ref_grad) <= 1e-10 * scale)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["q", "targets"])
def test_closed_form_loss_of_non_finite_input_is_nan(bad, where):
    q_data, y = np.zeros((3, 4)), np.zeros((3, 5))
    (q_data if where == "q" else y)[1, 2] = bad
    loss, grad = truncated_quantile_loss(q_data, y, quantile_fractions(4))
    assert np.isnan(loss) and np.all(np.isnan(grad))


def test_closed_form_loss_over_no_targets_is_nan():
    # a config can truncate every pooled target away
    loss, grad = truncated_quantile_loss(np.zeros((3, 4)), np.zeros((3, 0)),
                                         quantile_fractions(4))
    assert np.isnan(loss) and np.all(np.isnan(grad))
    trainer = make("tqc", total_timesteps=120, learning_starts=50, n_quantiles=2,
                   n_drop_per_critic=2)
    record = trainer.train()
    assert record.aborted and "tqc critic loss = nan" in record.abort_reason


def test_tqc_trajectory_with_closed_form_loss_matches_pairwise_oracle(monkeypatch):
    spec = experiment_spec("v2-homo-64L")
    runs = []
    for loss_fn in (pairwise_quantile_loss, truncated_quantile_loss):
        monkeypatch.setattr(tqc, "truncated_quantile_loss", loss_fn)
        cfg = resolve_config(spec, "tqc", steps=400)
        cfg.learning_starts = 50
        trainer = make_trainer("tqc", make_experiment_env(spec), cfg, 3, spec.experiment_id)
        runs.append((trainer.train().body_bytes(), trainer.actor.net.flat))
    assert runs[0][0] == runs[1][0]
    assert np.max(np.abs(runs[0][1] - runs[1][1])) <= 1e-12


def test_tqc_degenerates_to_sac_scalar_target():
    # One quantile, nothing dropped: the pooled target is the per-critic value;
    # with a single critic it equals SAC's scalar target with min over one.
    trainer = make("tqc", n_quantiles=1, n_critics=1, n_drop_per_critic=0)
    batch = {"s": np.array([[0.4]]), "a": np.array([[0.1]]),
             "r": np.array([0.7]), "s_next": np.array([[0.6]])}
    state = trainer.streams.explore.bit_generator.state
    y = trainer.compute_target(batch, alpha=0.2)
    trainer.streams.explore.bit_generator.state = state
    a_next, logp, _ = trainer.actor.rsample(batch["s_next"],
                                            trainer.streams.explore.normal(size=(1, 1)))
    q = trainer.target_critics[0].q_np(batch["s_next"], a_next)[0, 0]
    expected = 0.7 + trainer.cfg.gamma * (q - 0.2 * logp[0])
    assert y.shape == (1, 1)
    assert y[0, 0] == pytest.approx(expected, rel=1e-12)


def test_tqc_truncation_drops_largest_quantiles():
    trainer = make("tqc", n_quantiles=3, n_critics=2, n_drop_per_critic=1)
    batch = {"s": np.zeros((4, 1)), "a": np.zeros((4, 1)),
             "r": np.zeros(4), "s_next": np.random.default_rng(0).uniform(0, 1, (4, 1))}
    y = trainer.compute_target(batch, alpha=0.0)
    assert y.shape == (4, 4)  # 6 pooled - 2 dropped
    rows_sorted = np.all(np.diff(y, axis=1) >= 0)
    assert rows_sorted


def test_tqc_dropping_more_than_pooled_keeps_no_targets(tmp_path):
    # 3 dropped per critic of 2 critics is 6 of the 4 pooled quantiles
    trainer = make("tqc", total_timesteps=120, learning_starts=50, n_quantiles=2,
                   n_critics=2, n_drop_per_critic=3)
    batch = {"s": np.zeros((4, 1)), "a": np.zeros((4, 1)),
             "r": np.zeros(4), "s_next": np.random.default_rng(0).uniform(0, 1, (4, 1))}
    assert trainer.compute_target(batch, alpha=0.0).shape == (4, 0)
    record = trainer.train()
    assert record.aborted and "tqc critic loss = nan" in record.abort_reason
    record.save(tmp_path / "over_truncated.rec")
    saved = load_record(tmp_path / "over_truncated.rec")
    assert saved.aborted and saved.abort_reason == record.abort_reason


def test_tqc_holds_configured_critic_count():
    trainer = make("tqc", n_critics=3)
    assert len(trainer.critics) == 3 and len(trainer.target_critics) == 3


# -- select_action contract ----------------------------------------------------------


def test_select_action_deterministic_repeatable():
    trainer = make("ddpg")
    obs = np.array([0.42])
    a1 = trainer.select_action(obs, explore=False)
    a2 = trainer.select_action(obs, explore=False)
    assert np.array_equal(a1, a2)


def test_exploration_noise_std_measured():
    trainer = make("ddpg", exploration_noise=0.2)
    obs = np.array([0.42])
    base = trainer.select_action(obs, explore=False)[0]
    draws = np.array([trainer.actor.act_np(obs)[0]
                      + trainer.streams.explore.normal(0.0, 0.2) for _ in range(100_000)])
    assert np.std(draws - base) == pytest.approx(0.2, rel=0.02)


def test_select_action_always_in_box():
    for tag in ("dpg", "ddpg", "td3", "sac", "tqc"):
        trainer = make(tag, exploration_noise=2.0) if tag in ("dpg", "ddpg", "td3") \
            else make(tag)
        for _ in range(200):
            a = trainer.select_action(np.array([0.5]), explore=True)
            assert -1.0 <= a[0] <= 1.0
    # The on-policy trainers act through their Gaussian policy's sample.
    for tag in ("reinforce", "ppo", "trpo"):
        trainer = make(tag)
        trainer.policy.net.log_std[:] = 1.0  # most raw samples leave the box
        for _ in range(200):
            noise = trainer.policy.std_np() * trainer.streams.explore.normal(size=1)
            a, _, _ = trainer.policy.sample_np(np.array([0.5]), noise)
            assert -1.0 <= a[0] <= 1.0
