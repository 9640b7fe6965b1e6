/* Whole runs of the weight game and the Monte Carlo estimators' loops,
   built, checked and called by labelgames.engine. */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* One dialogue, in _dialogue's operation order: the four compounds in
   ASSERTION_ORDER, where only a strictly greater one replaces the best, so
   ties go first; min(1.0, max(0.0, t)) as two comparisons; and the update
   w + rate * (t - w). */
static void dialogue(double *w, const double *rel, int32_t speaker, int32_t listener,
                     double a, double b, double rate, int model)
{
    double share = w[speaker];
    double first = a, second = b, best = share * a + (1.0 - share) * b, c;
    c = share * a + (1.0 - share) * (1.0 - b);
    if (c > best) { best = c; first = a; second = 1.0 - b; }
    c = share * (1.0 - a) + (1.0 - share) * b;
    if (c > best) { best = c; first = 1.0 - a; second = b; }
    c = share * (1.0 - a) + (1.0 - share) * (1.0 - b);
    if (c > best) { first = 1.0 - a; second = 1.0 - b; }
    double r = rel[speaker], wl = w[listener];
    double mu = wl * first + (1.0 - wl) * second, denom = first - second;
    if ((model == 1 ? mu <= r : mu != r) && denom != 0.0) {
        double t = (r - second) / denom;
        t = t > 0 ? t : 0;
        t = t < 1 ? t : 1;
        w[listener] = wl + rate * (t - wl);
    }
}

/* Given dialogues, in order: play_run's second stage, and the per-timestep
   path the tests compare. */
void play_dialogues(double *w, const double *rel, const double *m1, const double *m2,
                    const int32_t *speaker, const int32_t *listener, int64_t count,
                    double rate, int model)
{
    for (int64_t d = 0; d < count; d++)
        dialogue(w, rel, speaker[d], listener[d], m1[d], m2[d], rate, model);
}

/* numpy's PCG64: the 128-bit LCG step and the XSL-RR output.  A generator
   crosses the boundary as six words: the state's and the increment's high
   and low halves, has_uint32 and uinteger, numpy's spare half-word. */
typedef unsigned __int128 u128;

#define MULTIPLIER ((u128) 0x2360ed051fc65da4ULL << 64 | 0x4385df649fccf645ULL)

typedef struct {
    u128 state, inc;
    uint64_t has_uint32, uinteger;
} pcg64;

static uint64_t next64(u128 *state, u128 inc)
{
    *state = *state * MULTIPLIER + inc;
    uint64_t x = (uint64_t) (*state >> 64) ^ (uint64_t) *state;
    unsigned rot = (unsigned) (*state >> 122);
    return x >> rot | x << (-rot & 63);
}

/* Generator.random's uniform, which leaves the half-word alone. */
static double next_double(u128 *state, u128 inc)
{
    return (double) (next64(state, inc) >> 11) * (1.0 / 9007199254740992.0);
}

static uint32_t next_uint32(pcg64 *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return (uint32_t) g->uinteger;
    }
    uint64_t next = next64(&g->state, g->inc);
    g->has_uint32 = 1;
    g->uinteger = next >> 32;
    return (uint32_t) next;
}

/* The step x -> x * mult + plus that moves a state delta draws on, in
   O(log delta). */
static void jump(u128 delta, u128 inc, u128 *mult, u128 *plus)
{
    u128 m = MULTIPLIER, p = inc;
    *mult = 1;
    *plus = 0;
    for (; delta; delta >>= 1) {
        if (delta & 1) {
            *mult *= m;
            *plus = *plus * m + p;
        }
        p *= m + 1;
        m *= m;
    }
}

/* numpy's random_interval for max below 2**31: masked rejection on
   next_uint32. */
static int32_t interval(pcg64 *g, uint32_t max)
{
    uint32_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    while ((value = next_uint32(g) & mask) > max)
        ;
    return (int32_t) value;
}

/* Label.membership_batch at x for a label game._label_terms accepts:
   label holds its prototype, metric scale and threshold width. */
static double membership(double x, const double *label)
{
    double s = label[1] * fabs(x - label[0]) / label[2];
    s = 1.0 - s;
    s = s > 0 ? s : 0;
    return s < 1 ? s : 1;
}

/* Dialogues per block of a timestep: 6 KB of agents and memberships on
   the stack. */
#define BLOCK 256

/* One run's timesteps from played through times[rows - 1], copying the
   weights into row k of snapshots at timestep times[k].  Each timestep
   writes the pairs into picks, each as first << 16 | second, in the order
   of itertools.permutations (ordered) or combinations (unordered) over
   range(n); every agent id fits in 16 bits, since GameConfig caps n at
   46,341 to keep count below 2**31.  It shuffles them by Fisher-Yates
   with interval, as Generator.shuffle does.  numpy would then draw the
   unordered schedule's role coins, dimension one's uniforms and dimension
   two's, count each; three cursors start where those draws would: coin at
   the state after the shuffle, one count draws on under the unordered
   schedule, and two count draws past one.  The timestep ends at two's
   state, and the half-word stays as the shuffle left it.

   The picks are played in blocks of BLOCK, the last one partial, in two
   stages.  The first unpacks each pick, draws its coin (unordered only)
   and uniforms, a coin below 1/2 keeping the first agent as speaker, maps
   the uniforms onto the intervals as Environment.sample_batch does, and
   stores the speaker, the listener and both memberships.  The second
   plays the block's dialogues in order through play_dialogues.  No draw
   or membership depends on a weight, so the bits are those of one fused
   loop; split, each stage's work overlaps across the block's dialogues.
   dims holds, per dimension, lo, hi - lo and the label's three terms.
   The state and the half-word are written back on return. */
void play_run(uint64_t *generator, double *w, const double *rel, int32_t n, int unordered,
              const double *dims, double rate, int model, uint32_t *picks,
              int64_t played, const int64_t *times, int64_t rows, double *snapshots)
{
    int32_t count = unordered ? n * (n - 1) / 2 : n * (n - 1);
    pcg64 g = {(u128) generator[0] << 64 | generator[1], (u128) generator[2] << 64 | generator[3],
               generator[4], generator[5]};
    u128 mult, plus;
    jump((u128) count, g.inc, &mult, &plus);
    for (int64_t k = 0; k < rows; k++) {
        for (; played < times[k]; played++) {
            uint32_t *pair = picks;
            for (uint32_t i = 0; i < (uint32_t) n; i++)
                for (uint32_t j = unordered ? i + 1 : 0; j < (uint32_t) n; j++)
                    if (j != i)
                        *pair++ = i << 16 | j;
            for (int32_t i = count - 1; i > 0; i--) {
                int32_t j = interval(&g, (uint32_t) i);
                uint32_t q = picks[j];
                picks[j] = picks[i];
                picks[i] = q;
            }
            u128 coin = g.state, one = unordered ? coin * mult + plus : coin, two = one * mult + plus;
            for (int32_t d0 = 0; d0 < count; d0 += BLOCK) {
                int32_t size = count - d0 < BLOCK ? count - d0 : BLOCK;
                int32_t speaker[BLOCK], listener[BLOCK];
                double m1[BLOCK], m2[BLOCK];
                for (int32_t d = 0; d < size; d++) {
                    int32_t i = (int32_t) (picks[d0 + d] >> 16), j = (int32_t) (picks[d0 + d] & 0xffff);
                    int heads = !unordered || next_double(&coin, g.inc) < 0.5;
                    speaker[d] = heads ? i : j;
                    listener[d] = heads ? j : i;
                    m1[d] = membership(next_double(&one, g.inc) * dims[1] + dims[0], dims + 2);
                    m2[d] = membership(next_double(&two, g.inc) * dims[6] + dims[5], dims + 7);
                }
                play_dialogues(w, rel, m1, m2, speaker, listener, size, rate, model);
            }
            g.state = two;
        }
        memcpy(snapshots + k * n, w, (size_t) n * sizeof(double));
    }
    generator[0] = (uint64_t) (g.state >> 64);
    generator[1] = (uint64_t) g.state;
    generator[4] = g.has_uint32;
    generator[5] = g.uinteger;
}

/* The Monte Carlo loops walk their count observations in blocks of BLOCK:
   fill puts a block's uniforms in two arrays on the stack and returns its
   size.  They are a and b's with a NULL generator, and otherwise drawn as
   Generator.random would fill count into a and then count into b:
   dimension one's through the caller's cursor, set to the state at the
   first block, and dimension two's from count draws on, whose state is
   written back after each block, the half-word left alone.  Every choice
   in the loops is made on bits, by masks, so no branch depends on data. */
static int fill(uint64_t *generator, u128 *one, int64_t count, const double *a, const double *b, int64_t i,
                double *u1, double *u2)
{
    int size = count - i < BLOCK ? (int) (count - i) : BLOCK;
    if (!generator) {
        memcpy(u1, a + i, (size_t) size * sizeof(double));
        memcpy(u2, b + i, (size_t) size * sizeof(double));
        return size;
    }
    u128 two = (u128) generator[0] << 64 | generator[1], inc = (u128) generator[2] << 64 | generator[3];
    if (i == 0) {
        u128 mult, plus;
        jump((u128) count, inc, &mult, &plus);
        *one = two;
        two = two * mult + plus;
    }
    for (int d = 0; d < size; d++) {
        u1[d] = next_double(one, inc);
        u2[d] = next_double(&two, inc);
    }
    generator[0] = (uint64_t) (two >> 64);
    generator[1] = (uint64_t) two;
    return size;
}

typedef double pair __attribute__((vector_size(16)));
typedef int64_t mask __attribute__((vector_size(16)));

static pair pick(mask c, pair x, pair y)
{
    return (pair) ((c & (mask) x) | (~c & (mask) y));
}

/* The larger of the membership and its complement at two uniforms, as
   play_run maps and computes them. */
static pair majority(pair u, const double *dim)
{
    pair s = u * dim[1] + dim[0] - dim[2], zero = {0, 0}, one = {1, 1};
    s = 1.0 - dim[3] * (pair) ((mask) s & INT64_MAX) / dim[4];
    s = pick(s > 0, s, zero);
    s = pick(s < 1, s, one);
    pair n = 1.0 - s;
    return pick(s > n, s, n);
}

/* What game._signed_targets does elementwise, two observations at a time:
   the majority signs, the target where the denominator is not zero,
   clipped as np.clip clips, so that a target of -0.0 stays -0.0.  The
   usable observations' targets move to the front of t and, unless a is
   NULL, their signed memberships to the front of a and b, in order;
   returns their count. */
int64_t mc_targets(uint64_t *generator, int64_t count, const double *dims, double rel, double *a,
                   double *b, double *t)
{
    u128 cursor;
    int64_t kept = 0;
    pair zero = {0, 0}, one = {1, 1};
    for (int64_t i = 0; i < count; i += BLOCK) {
        double u1[BLOCK], u2[BLOCK];
        int size = fill(generator, &cursor, count, a, b, i, u1, u2);
        int64_t k = 0;
        for (int d = 0; d < size; d += 2) {
            int e = d + (d + 1 < size);
            pair m1 = majority((pair) {u1[d], u1[e]}, dims), m2 = majority((pair) {u2[d], u2[e]}, dims + 5);
            pair denom = m1 - m2, target = (rel - m2) / denom;
            mask usable = denom != 0;
            target = pick(target < 0, zero, target);
            target = pick(target > 1, one, target);
            u1[k] = m1[0];
            u2[k] = m2[0];
            t[kept + k] = target[0];
            k -= usable[0];
            if (e > d) {
                u1[k] = m1[1];
                u2[k] = m2[1];
                t[kept + k] = target[1];
                k -= usable[1];
            }
        }
        if (a) {
            memcpy(a + kept, u1, (size_t) k * sizeof(double));
            memcpy(b + kept, u2, (size_t) k * sizeof(double));
        }
        kept += k;
    }
    return kept;
}

/* Copies into out the targets at which a listener of weight lam updates
   under model 1; returns their count. */
int64_t mc_select(int64_t count, double lam, double rel, const double *a, const double *b,
                  const double *t, double *out)
{
    int64_t kept = 0;
    for (int64_t i = 0; i < count; i++) {
        out[kept] = t[i];
        kept += lam * a[i] + (1.0 - lam) * b[i] <= rel;
    }
    return kept;
}

/* How many observations game.update_directions gives +1: bit k of up
   holds quadrant k's test, where k sets bit 0 for dimension one at least
   1/2 and bit 1 for dimension two. */
int64_t mc_upward(uint64_t *generator, int64_t count, const double *dims, const double *a, const double *b)
{
    u128 cursor;
    int64_t hits = 0;
    for (int64_t i = 0; i < count; i += BLOCK) {
        double u1[BLOCK], u2[BLOCK];
        int size = fill(generator, &cursor, count, a, b, i, u1, u2);
        for (int d = 0; d < size; d++) {
            double x1 = u1[d] * dims[1] + dims[0], x2 = u2[d] * dims[6] + dims[5];
            unsigned up = (x2 - x1 > 0) | (x1 + x2 - 1.0 > 0) << 1 | (1.0 - x1 - x2 > 0) << 2
                          | (x1 - x2 > 0) << 3;
            hits += up >> ((x1 >= 0.5) | (x2 >= 0.5) << 1) & 1;
        }
    }
    return hits;
}
