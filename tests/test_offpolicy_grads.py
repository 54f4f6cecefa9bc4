"""The closed-form off-policy gradients against the autodiff tape, byte for byte.

For each of DPG, DDPG, TD3, SAC and TQC, one critic step and one actor step
on a drawn minibatch must hand Adam the very bytes the tape gives over the
same loss with one leaf per parameter (``tape_oracle``), and for SAC and TQC so
must one entropy-coefficient step. The stochastic actor's gradient is also
checked against central differences of its loss.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from climbench.algos import TRAINER_CLASSES, make_config

import tape_oracle
from tape_oracle import BoxEnv

OFF_POLICY = ("dpg", "ddpg", "td3", "sac", "tqc")


def drawn_case(data, tag: str, max_width: int = 64, max_batch: int = 256):
    """A freshly built trainer with drawn sizes, and a minibatch for it."""
    width = data.draw(st.integers(1, max_width), label="width")
    batch = data.draw(st.integers(1, max_batch), label="batch")
    n_critics = data.draw(st.integers(1, 5), label="n_critics")
    obs_dim, act_dim = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    low = rng.uniform(-3.0, 1.0, size=act_dim)
    env = BoxEnv(obs_dim, low, low + rng.uniform(0.1, 4.0, size=act_dim))
    fields = {"actor_critic_layer_size": width, "total_timesteps": 1}
    cls = TRAINER_CLASSES[tag]
    if tag == "tqc":
        fields.update(n_critics=n_critics,
                      n_quantiles=data.draw(st.integers(1, 35), label="n_quantiles"))
    else:
        cls = type(cls.__name__, (cls,), {"n_critics": n_critics})
    trainer = cls(env, make_config(tag, **fields), seed=int(rng.integers(1000)))
    if trainer.stochastic_actor:
        trainer.actor.net.log_std[:] = rng.uniform(-3.0, 1.0, size=act_dim)
        trainer.log_alpha[:] = rng.uniform(-4.0, 1.0)
    mb = {"s": rng.uniform(0.0, 1.0, size=(batch, obs_dim)),
          "a": rng.uniform(env.action_space.low, env.action_space.high,
                           size=(batch, act_dim))}
    if tag == "tqc":
        kept = data.draw(st.integers(1, n_critics * trainer.cfg.n_quantiles))
        y = np.sort(rng.normal(scale=2.0, size=(batch, kept)), axis=1)
    else:
        y = rng.normal(scale=2.0, size=batch)
    return trainer, mb, y


def captured_step(optimizer) -> list:
    """Replace ``optimizer.step`` by a recorder of the gradient it is handed."""
    seen = []
    optimizer.step = lambda g: seen.append(g.copy())
    return seen


@pytest.mark.parametrize("tag", OFF_POLICY)
@given(data=st.data())
def test_critic_step_gradient_matches_tape_bytes(tag, data):
    trainer, mb, y = drawn_case(data, tag)
    expected = tape_oracle.critic_grad(trainer, mb, y)
    trainer.compute_target = lambda batch: y
    seen = captured_step(trainer.critic_opt)
    trainer._update_critics(mb)
    assert len(seen) == 1 and seen[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("tag", ["sac", "tqc"])
@given(data=st.data(), log_alpha=st.floats(-10.0, 3.0))
def test_alpha_step_gradient_matches_tape_bytes(tag, data, log_alpha):
    trainer, mb, _ = drawn_case(data, tag)
    trainer.log_alpha[:] = log_alpha
    # -target_entropy makes a zero term, whose sign a sum over one state would lose
    values = st.floats(-30.0, 30.0) | st.just(-trainer.target_entropy)
    logp = np.array(data.draw(st.lists(values, min_size=len(mb["s"]),
                                       max_size=len(mb["s"])), label="logp"))
    expected = tape_oracle.alpha_grad(trainer, logp)
    seen = captured_step(trainer.alpha_opt)
    trainer._update_alpha(logp)
    assert len(seen) == 1 and seen[0].tobytes() == expected.tobytes()


def actor_noise(trainer, batch_size: int):
    """The noise a stochastic actor's next step will draw, left undrawn."""
    generator = trainer.streams.explore
    state = generator.bit_generator.state
    xi = generator.normal(size=(batch_size, trainer.env.action_space.dim))
    generator.bit_generator.state = state
    return xi


@pytest.mark.parametrize("tag", OFF_POLICY)
@given(data=st.data())
def test_actor_step_gradient_matches_tape_bytes(tag, data):
    trainer, mb, _ = drawn_case(data, tag)
    xi = actor_noise(trainer, len(mb["s"])) if trainer.stochastic_actor else None
    expected = tape_oracle.actor_grad(trainer, mb, xi)
    seen = captured_step(trainer.actor_opt)
    trainer._update_actor(mb)
    assert len(seen) == 1 and seen[0].tobytes() == expected.tobytes()


def stochastic_actor_loss(trainer, s: np.ndarray, xi: np.ndarray) -> float:
    """The actor's loss at noise ``xi`` from the numpy forward passes."""
    action, logp, _ = trainer.actor.rsample(s, xi)
    x = np.concatenate([s, action], axis=1)
    value, _ = trainer.actor_value([c.net.forward_np(x) for c in trainer.critics],
                                   np.zeros(len(s)))
    return float(np.mean(logp * trainer.alpha - value))


@pytest.mark.parametrize("tag", ["sac", "tqc"])
@given(data=st.data())
def test_stochastic_actor_gradient_matches_central_differences(tag, data):
    trainer, mb, _ = drawn_case(data, tag, max_width=6, max_batch=4)
    s = mb["s"]
    xi = actor_noise(trainer, len(s))
    alpha = trainer.alpha           # the step tunes alpha after the actor's update
    seen = captured_step(trainer.actor_opt)
    trainer._update_actor(mb)
    trainer.log_alpha[:] = np.log(alpha)
    flat, h = trainer.actor.net.flat, 1e-5
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = stochastic_actor_loss(trainer, s, xi)
        flat[i] = orig - h
        down = stochastic_actor_loss(trainer, s, xi)
        flat[i] = orig
        numeric[i] = (up - down) / (2 * h)
    assert np.max(np.abs(seen[0] - numeric) / np.maximum(1.0, np.abs(numeric))) < 1e-6
