"""The closed-form on-policy gradients against the autodiff tape, byte for byte.

REINFORCE, PPO and TRPO write their losses' gradients at the nets' outputs
and the log-std in closed form, and ``Mlp.backward`` turns them into
parameter gradients. Over drawn batch sizes, widths and minibatch counts,
every gradient Adam is handed, every TRPO surrogate gradient and every
Fisher-vector product must be the very bytes the tape gives over the same
losses with one leaf per parameter (``tape_oracle``).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from climbench.algos import TRAINER_CLASSES, make_config

import tape_oracle
from tape_oracle import BoxEnv


def drawn_case(data, tag: str):
    """A freshly built trainer with drawn sizes, and an episode for it."""
    width = data.draw(st.integers(1, 64), label="width")
    n = data.draw(st.integers(1, 256), label="batch")
    obs_dim, act_dim = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    low = rng.uniform(-3.0, 1.0, size=act_dim)
    env = BoxEnv(obs_dim, low, low + rng.uniform(0.1, 4.0, size=act_dim), max_steps=n)
    fields = {"actor_critic_layer_size": width, "total_timesteps": n}
    if tag != "reinforce":
        fields.update(
            num_minibatches=data.draw(st.integers(1, 8), label="minibatches"),
            update_epochs=data.draw(st.integers(1, 2), label="epochs"),
            max_grad_norm=data.draw(st.sampled_from([1e-3, 0.5, 1e6]), label="clip"))
    trainer = TRAINER_CLASSES[tag](env, make_config(tag, **fields),
                                   seed=int(rng.integers(1000)))
    policy = trainer.policy
    policy.net.log_std[:] = rng.uniform(-3.0, 1.0, size=act_dim)
    obs = rng.uniform(0.0, 1.0, size=(n, obs_dim))
    means = policy.mean_np(obs)
    actions = means + policy.std_np() * rng.normal(size=(n, act_dim))
    ep = {"obs": obs, "actions": actions, "rewards": rng.normal(scale=10.0, size=n),
          "values": rng.normal(size=n + 1), "log_probs": policy.log_prob_np(means, actions),
          "means": means}
    return trainer, ep


def compared(owner, name: str, oracle, pairs: list) -> None:
    """Wrap ``owner.name`` so that each call also records (the gradient its
    result starts with, the oracle's result over the same arguments, taken first)."""
    real = getattr(owner, name)

    def wrapper(*args):
        expected = oracle(*args)
        got = real(*args)
        pairs.append((got[0].tobytes(), expected.tobytes()))
        return got

    setattr(owner, name, wrapper)


def adam_steps(trainer, oracle, pairs: list) -> None:
    """Record each gradient handed to Adam next to the oracle's gradient over
    the minibatch of the step that hands it."""
    real_step, real_minibatch_step = trainer.optimizer.step, trainer.minibatch_step
    expected = []

    def step(g):
        pairs.append((g.tobytes(), expected.pop().tobytes()))
        real_step(g)

    def minibatch_step(mb):
        expected.append(oracle(trainer, mb))
        real_minibatch_step(mb)

    trainer.optimizer.step, trainer.minibatch_step = step, minibatch_step


@given(data=st.data())
def test_reinforce_gradient_matches_tape_bytes(data):
    trainer, ep = drawn_case(data, "reinforce")
    expected = tape_oracle.reinforce_grad(trainer, ep)
    seen = []
    trainer.optimizer.step = lambda g: seen.append(g.copy())
    trainer.update_from_batch(ep)
    assert len(seen) == 1 and seen[0].tobytes() == expected.tobytes()


@given(data=st.data())
def test_ppo_gradients_match_tape_bytes(data):
    trainer, ep = drawn_case(data, "ppo")
    pairs = []
    adam_steps(trainer, tape_oracle.ppo_grad, pairs)
    trainer.update_from_batch(ep)
    assert pairs and all(got == expected for got, expected in pairs)


@given(data=st.data())
def test_trpo_gradients_match_tape_bytes(data):
    trainer, ep = drawn_case(data, "trpo")
    pairs = []
    adam_steps(trainer, tape_oracle.trpo_value_grad, pairs)
    compared(trainer, "surrogate_grad",
             lambda *args: tape_oracle.surrogate_grad(trainer, *args), pairs)
    trainer.update_from_batch(ep)
    assert len(pairs) >= 2 and all(got == expected for got, expected in pairs)


@given(data=st.data())
def test_fisher_vector_product_matches_tape_bytes(data):
    trainer, ep = drawn_case(data, "trpo")
    trainer.cfg.cg_damping = data.draw(st.sampled_from([0.0, 0.1]), label="damping")
    vector = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(
        size=trainer.policy.net.flat.size)
    kept = trainer.policy.net.forward(ep["obs"])[1]
    got = trainer.fisher_vector_product(kept, vector)
    expected = tape_oracle.fisher_vector_product(trainer, ep["obs"], vector)
    assert got.tobytes() == expected.tobytes()
