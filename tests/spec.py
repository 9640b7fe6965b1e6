"""The whole-run reference: each run replayed from the documented contract alone.

It shares nothing with the engine but ``mix_seed``, so a fault in the
engine's seeding, draws, memberships, dialogue loop or recording shows up
as a difference.  Test modules import it; it holds no tests itself.
"""

import itertools

import numpy as np

from labelgames.experiment import mix_seed
from labelgames.game import run_dialogue


def spec_runs(config):
    """Each run's times, means, sds and final weights, from the documented contract alone.

    Run r draws from ``default_rng(mix_seed(master_seed, r))``: its initial
    weights, then per timestep a permutation of the pairs (ordered:
    speaker-major, listeners ascending; unordered: row-major i < j, then
    one coin per dialogue, below 1/2 keeping i as speaker), then dimension
    one's and dimension two's observations.  Each dialogue is played by the
    scalar ``run_dialogue``.
    """
    game = config.game
    n, count = game.n_agents, game.n_agents * (game.n_agents - 1)
    per_agent = lambda value: list(value) if isinstance(value, tuple) else [value] * n
    if game.schedule == "ordered":
        pairs = list(itertools.permutations(range(n), 2))
    else:
        pairs, count = list(itertools.combinations(range(n), 2)), count // 2
    every = config.record_every
    wanted = sorted({0, game.timesteps, *range(every, game.timesteps + 1, every)})
    for run in range(config.runs):
        rng = np.random.default_rng(mix_seed(config.master_seed, run))
        w = rng.random(n).tolist() if game.weight_init is None else per_agent(game.weight_init)
        rel = per_agent(game.reliability)
        rows = [w[:]]
        for t in range(1, game.timesteps + 1):
            drawn = [pairs[k] for k in rng.permutation(count)]
            if game.schedule == "unordered":
                coins = rng.random(count)
                drawn = [(i, j) if coin < 0.5 else (j, i) for (i, j), coin in zip(drawn, coins)]
            x1, x2 = (rng.random(count) * (hi - lo) + lo for lo, hi in config.env.intervals)
            for (s, l), a, b in zip(drawn, x1, x2):
                w[l], _, _ = run_dialogue(
                    w[s], w[l], rel[s], game.labels, (a, b), game.rate, game.model
                )
            if t in wanted:
                rows.append(w[:])
        yield wanted, [np.mean(r) for r in rows], [np.std(r, ddof=1) for r in rows], w


def assert_matches_spec(result, config) -> None:
    """Row r of every table of the experiment's ``result`` equals spec run r bit for bit."""
    rows = zip(result.means, result.sds, result.finals, spec_runs(config), strict=True)
    for means, sds, final, (times, want_means, want_sds, want_final) in rows:
        assert result.times.tolist() == times
        assert np.array_equal(means, want_means)
        assert np.array_equal(sds, want_sds)
        assert np.array_equal(final, want_final)
