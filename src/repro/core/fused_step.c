/* The adaptive solver's event loop (Algorithm 1) in C, for normal-state
 * and superconducting circuits without cotunneling.
 *
 * repro_run realises events until a stop condition, in one call.  Each
 * event draws the residence time and the event from the solver's own
 * numpy bit generator, samples the pair-rate tree (or, with Cooper pairs
 * on, the cumulative pair and Cooper-pair rates), commits the event to
 * the occupation and flux counters, advances the two Kahan clocks,
 * updates the island potentials from two columns of C^-1 over the span
 * of the event's capacitive component (C^-1 is block-diagonal over the
 * components, and each column is stored over its span only), runs the
 * breadth-first test of Algorithm 1 against the stored test limits,
 * recomputes the flagged junctions' orthodox or quasi-particle rates and
 * repairs the sampling tree once.  It counts the events and the
 * junctions it recomputed, and, when the event-stream digest is on,
 * writes each event's digest record (the bytes BaseSolver._hash_event
 * would hash) into a byte buffer that the caller hashes once per call.
 * The caller (repro/core/adaptive.py) copies the clocks in and out, runs
 * the full refreshes and wide recomputes a call stops for, and builds a
 * TunnelEvent when it asked for one event.
 *
 * A superconducting model's rates come from each junction's tabulated
 * quasi-particle rate (QuasiparticleRateTable._rate): a bisection, numpy's
 * linear interpolation, and below the table the ohmic extension, whose
 * expm1 arguments the caller has checked to lie where libm and numpy both
 * give exactly -1.  Its batches of any width are computed here.  With
 * Cooper pairs on, each draw also forms the 2e free energies and the
 * Lorentzian Cooper-pair rates, sums both channel kinds as numpy.sum
 * does and selects as choose_pair and choose_channel do.
 *
 * An orthodox flagged batch wider than scalar_batch (and every batch of a
 * retarget's vectorised walk) is computed by repro_prepare, one numpy
 * expm1 call over the packed arguments, and repro_finish: numpy's SIMD
 * expm1 may round differently from libm's, and the Python path computes
 * those batches with numpy.
 *
 * Every floating-point operation is the one the Python path
 * (AdaptiveSolver._select_fast, BaseSolver._select_and_apply,
 * BaseSolver._secondary_rates, BaseSolver._advance_time,
 * Electrostatics.potential_update, _adaptive_update, _recompute_scalar,
 * _recompute_rates, PairRateTree) performs, in the same order, so both
 * paths give the same bits.  Build with -ffp-contract=off (no fused
 * multiply-add) and never with -ffast-math.  CPython's math.log and
 * math.expm1 call the same libm functions.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy's bitgen_t (numpy/random/bitgen.h) */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Mirrored field for field by repro.core.native.Kernel. */
typedef struct {
    bitgen_t *rng;
    int64_t n_junctions;
    int64_t tree_size;
    /* junction endpoints: island flag (0/1) and island or source index */
    const int64_t *a_isl, *a_idx, *b_isl, *b_idx;
    /* junction neighbours in CSR form */
    const int64_t *nbr_start, *nbr_list;
    /* 0.5 e^2 (K_aa - 2 K_ab + K_bb) and tunnel resistance per junction */
    const double *charging, *resistance;
    /* C^-1 (Electrostatics.cinv_layout): entry (i, k) for
     * span_lo[k] <= i < span_hi[k] is
     * cinv[cinv_offset[k] + (i - span_lo[k]) * cinv_row], and zero outside
     * island k's component span */
    const double *cinv;
    const int64_t *cinv_offset, *span_lo, *span_hi;
    int64_t cinv_row;
    /* solver state, shared with the Python path */
    double *v, *vext, *dw_fw, *dw_bw, *seq_fw, *seq_bw, *b0, *limit, *tree;
    int64_t *occupation, *flux;
    /* scratch: potential change, walk queue, queued marks, flagged list,
     * packed expm1 arguments and results of a wide batch (2 per junction) */
    double *dv;
    int64_t *queue;
    uint8_t *queued;
    int64_t *flagged;
    double *xbuf, *ebuf;
    /* k_B T, e, lambda / e, energy cap, transferred charge -e */
    double kt, charge, scale, cap, dq;
    /* largest flagged batch whose rates repro_run computes itself */
    int64_t scalar_batch;
    /* superconducting models (NULL qp_grid for normal-state ones):
     * junction i's quasi-particle table has qp_points[i] free energies at
     * qp_grid[i] and rates at qp_rates[i]; its ohmic extension below the
     * grid reads qp_params[4 i : 4 i + 4] = scale, delta1, delta2,
     * resistance */
    const double *const *qp_grid;
    const double *const *qp_rates;
    const int64_t *qp_points;
    const double *qp_params;
    /* Cooper pairs on: events are drawn over the pair rates, then the
     * Cooper-pair rates, without the tree (NULL tree) */
    int64_t cooper;
    /* 0.5 (2e)^2 (K_aa - 2 K_ab + K_bb) and E_J^2 per junction, and the
     * Lorentzian's gamma / (2 hbar) and 0.25 gamma^2 */
    const double *cp_charging, *ej2;
    double cp_scale, cp_quarter;
    /* scratch of a Cooper-pair draw: pair rates (n), Cooper-pair free
     * energies and rates (2 n each, forward then backward) and
     * cumulative sums (2 n) */
    double *pair, *cp_dw, *cp_rate, *cumulative;
    /* the last event: junction, direction, electrons (2 for a Cooper
     * pair), flagged junctions, dt, dW */
    int64_t junction, forward, n_electrons, n_flagged;
    double dt, dw;
    /* the solver's Kahan clocks (time, window_elapsed) and their
     * compensations, and the events since the last full refresh: copied
     * in before and out after each call */
    double time, time_comp, window, window_comp;
    int64_t since_refresh, refresh_interval;
    /* outputs of the last call: why it stopped (STEP_*), the junctions
     * its narrow batches recomputed, the digest record bytes written */
    int64_t status, flagged_total, record_len;
    /* digest record buffer, or NULL when the digest is off */
    char *records;
    int64_t record_capacity;
} Kernel;

/* Why repro_run stopped. */
enum {
    STEP_BUDGET = 0,    /* max_events events realised */
    STEP_FROZEN = 1,    /* total rate <= 0: nothing drawn */
    STEP_DEADLINE = 2,  /* dt drawn and beyond the deadline: discarded */
    STEP_RECOMPUTE = 3, /* the last event flagged > scalar_batch junctions
                           (orthodox models only): the caller runs
                           repro_prepare, numpy's expm1 and repro_finish */
    STEP_REFRESH = 4,   /* the last event is due a full refresh, which
                           replaces its walk: the caller runs it */
    STEP_TIME = 5,      /* time >= stop_time before the next draw */
    STEP_FULL = 6       /* no room for another digest record */
};

/* An event realised with nothing left for the caller to do. */
#define EVENT (-1)

/* The longest digest record: "cooper_pair:", three int64, a direction
 * and an electron count with their separators, and float.hex (at most
 * 24 bytes). */
#define RECORD_MAX 128

/* PairRateTree.sample: the junction whose interval holds target and the
 * residual within its pair, with the top-of-range rule. */
static int64_t sample(const Kernel *k, double target, double *residual)
{
    const double *tree = k->tree;
    int64_t size = k->tree_size;
    int64_t i = 1;
    while (i < size) {
        double left = tree[2 * i];
        if (target < left) {
            i = 2 * i;
        } else {
            target -= left;
            i = 2 * i + 1;
        }
    }
    int64_t j = i - size;
    if (j >= k->n_junctions || !(target < tree[i])) {
        if (j > k->n_junctions - 1)
            j = k->n_junctions - 1;
        while (j > 0 && !(tree[size + j] > 0.0))
            j -= 1;
        target = nextafter(tree[size + j], 0.0);
    }
    *residual = target;
    return j;
}

/* The orthodox rate of one direction (_recompute_scalar). */
static double orthodox(double dw, double kt, double denominator)
{
    if (kt > 0.0) {
        double x = dw / kt;
        if (x > 500.0)
            return 0.0;
        if (-1e-12 < x && x < 1e-12)
            return kt / denominator;
        return dw / expm1(x) / denominator;
    }
    return dw < 0.0 ? -dw / denominator : 0.0;
}

/* QuasiparticleRateTable._extension: the ohmic rate of the shifted
 * energy below the grid, params = scale, delta1, delta2, resistance. */
static double qp_extension(const double *params, double kt, double e,
                           double x)
{
    double energy = x + params[1] + params[2];
    double weight;
    if (kt == 0.0) {
        weight = energy < 0.0 ? -energy : 0.0;
    } else {
        double y = energy / kt;
        if (fabs(y) < 1e-12)
            weight = kt;
        else if (y > 500.0)
            weight = 0.0;
        else
            weight = energy / expm1(y);
    }
    return params[0] * (weight / (e * e * params[3]));
}

/* QuasiparticleRateTable._rate of junction i's table: NaN passes
 * through, zero above the grid, the extension below it, and inside it
 * bisect_right and numpy's interpolation with its retry from the other
 * end of a NaN interval. */
static double qp_rate(const Kernel *k, int64_t i, double x)
{
    const double *grid = k->qp_grid[i];
    const int64_t n = k->qp_points[i];
    if (x != x)
        return x;
    if (x > grid[n - 1])
        return 0.0;
    if (x < grid[0])
        return qp_extension(k->qp_params + 4 * i, k->kt, k->charge, x);
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (x < grid[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    int64_t j = lo - 1;
    const double *rates = k->qp_rates[i];
    double y0 = rates[j];
    double x0 = grid[j];
    if (x == x0 || j == n - 1)
        return y0;
    double x1 = grid[j + 1];
    double y1 = rates[j + 1];
    double slope = (y1 - y0) / (x1 - x0);
    double out = slope * (x - x0) + y0;
    if (out != out) {
        out = slope * (x - x1) + y1;
        if (out != out && y0 == y1)
            out = y0;
    }
    return out;
}

/* qp_rate of junction j at x[0:n] into out: the lookup on its own, for
 * tests against QuasiparticleRateTable._rate. */
void repro_qp_rates(const Kernel *k, int64_t j, const double *x, int64_t n,
                    double *out)
{
    for (int64_t m = 0; m < n; m++)
        out[m] = qp_rate(k, j, x[m]);
}

/* The tail of every recompute of flagged[0:n], whose free energies and
 * rates are already written: zero the testing factors, store the test
 * limits and repair the sampling tree once (PairRateTree.update), when
 * there is one: every repaired node is the sum of its final children,
 * level by level. */
static void finish(Kernel *k, int64_t n)
{
    for (int64_t m = 0; m < n; m++) {
        int64_t i = k->flagged[m];
        k->b0[i] = 0.0;
        /* Python's min(|dwf|, |dwb|, cap): the first smallest */
        double smaller = fabs(k->dw_fw[i]);
        if (fabs(k->dw_bw[i]) < smaller)
            smaller = fabs(k->dw_bw[i]);
        if (k->cap < smaller)
            smaller = k->cap;
        k->limit[i] = k->scale * smaller;
    }
    double *tree = k->tree;
    if (!tree)
        return;
    int64_t size = k->tree_size;
    /* the walk queue is free once the walk is over */
    int64_t *nodes = k->queue;
    for (int64_t m = 0; m < n; m++) {
        int64_t i = k->flagged[m];
        tree[size + i] = k->seq_fw[i] + k->seq_bw[i];
        nodes[m] = (size + i) >> 1;
    }
    /* all leaves sit at one depth; a one-leaf tree's leaf is the root */
    while (n > 0 && nodes[0] > 0) {
        for (int64_t m = 0; m < n; m++) {
            int64_t p = nodes[m];
            tree[p] = tree[2 * p] + tree[2 * p + 1];
            nodes[m] = p >> 1;
        }
    }
}

/* Write junction i's free-energy changes from the potentials. */
static void free_energies(Kernel *k, int64_t i)
{
    const double e = k->charge;
    double phi_a = k->a_isl[i] ? k->v[k->a_idx[i]] : k->vext[k->a_idx[i]];
    double phi_b = k->b_isl[i] ? k->v[k->b_idx[i]] : k->vext[k->b_idx[i]];
    double drop = phi_b - phi_a;
    double self_energy = k->charging[i];
    k->dw_fw[i] = -e * drop + self_energy;
    k->dw_bw[i] = +e * drop + self_energy;
}

/* _recompute_scalar over flagged[0:n]. */
static void recompute(Kernel *k, int64_t n)
{
    const double e = k->charge;
    const double e2 = e * e;
    for (int64_t m = 0; m < n; m++) {
        int64_t i = k->flagged[m];
        free_energies(k, i);
        if (k->qp_grid) {
            k->seq_fw[i] = qp_rate(k, i, k->dw_fw[i]);
            k->seq_bw[i] = qp_rate(k, i, k->dw_bw[i]);
        } else {
            double denominator = e2 * k->resistance[i];
            k->seq_fw[i] = orthodox(k->dw_fw[i], k->kt, denominator);
            k->seq_bw[i] = orthodox(k->dw_bw[i], k->kt, denominator);
        }
    }
    finish(k, n);
}

/* numpy's pairwise summation of a[0:n] (the loop numpy.sum runs over a
 * contiguous float64 array): fewer than 8 terms in order, at most 128
 * in 8 interleaved accumulators, and longer runs split in two at a
 * multiple of 8. */
static double pairwise(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* numpy.sum of a[0:n]: the reduction starts from add's identity. */
double repro_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise(a, n);
}

/* numpy.cumsum of a[0:n] into c. */
static void cumsum(const double *a, int64_t n, double *c)
{
    double s = a[0];
    c[0] = s;
    for (int64_t i = 1; i < n; i++) {
        s = s + a[i];
        c[i] = s;
    }
}

/* numpy.searchsorted(c[0:n], key, side="right"): numpy's bisection, with
 * its order that puts NaN last. */
static int64_t search_right(const double *c, int64_t n, double key)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        double value = c[mid];
        if (key < value || (value != value && key == key))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* event_solver._last_positive: the last index at or below i with a
 * positive rate (0 when there is none). */
static int64_t last_positive(const double *rates, int64_t i)
{
    while (i > 0 && !(rates[i] > 0.0))
        i -= 1;
    return i;
}

/* BaseSolver._secondary_rates and the totals of _select_and_apply with
 * Cooper pairs on: the pair rates, the free energies of a 2e transfer
 * (JunctionTable.free_energy_changes with dq = -2e), the Lorentzian
 * rates (TunnelingModel.cooper_pair_rates), forward then backward, and
 * numpy.sum of both kinds.  Returns the total rate. */
static double channel_rates(Kernel *k, double *pair_total)
{
    const int64_t n = k->n_junctions;
    const double dq = 2.0 * k->dq;
    for (int64_t i = 0; i < n; i++) {
        k->pair[i] = k->seq_fw[i] + k->seq_bw[i];
        double phi_a = k->a_isl[i] ? k->v[k->a_idx[i]] : k->vext[k->a_idx[i]];
        double phi_b = k->b_isl[i] ? k->v[k->b_idx[i]] : k->vext[k->b_idx[i]];
        double drop = phi_b - phi_a;
        double self_energy = k->cp_charging[i];
        double fw = dq * drop + self_energy;
        double bw = -dq * drop + self_energy;
        k->cp_dw[i] = fw;
        k->cp_dw[n + i] = bw;
        k->cp_rate[i] = k->cp_scale / (fw * fw + k->cp_quarter) * k->ej2[i];
        k->cp_rate[n + i] =
            k->cp_scale / (bw * bw + k->cp_quarter) * k->ej2[i];
    }
    *pair_total = repro_sum(k->pair, n);
    return *pair_total + repro_sum(k->cp_rate, 2 * n);
}

/* choose_pair: the junction whose interval of the cumulative pair rates
 * holds target, and its direction, with the top-of-range rule. */
static int64_t choose_pair(Kernel *k, double target, int64_t *forward)
{
    const int64_t n = k->n_junctions;
    const double *pair = k->pair;
    double *c = k->cumulative;
    cumsum(pair, n, c);
    int64_t j = search_right(c, n, target);
    double residual = target - (j ? c[j - 1] : 0.0);
    if (j >= n || !(residual < pair[j])) {
        j = last_positive(pair, j < n - 1 ? j : n - 1);
        residual = nextafter(pair[j], 0.0);
    }
    *forward = residual < k->seq_fw[j];
    return j;
}

/* choose_channel over the Cooper-pair rates: the channel whose interval
 * of their cumulative sum holds target, with the top-of-range rule. */
static int64_t choose_channel(Kernel *k, double target)
{
    const int64_t n = 2 * k->n_junctions;
    double *c = k->cumulative;
    cumsum(k->cp_rate, n, c);
    int64_t index = search_right(c, n, target);
    if (index >= n)
        index = last_positive(k->cp_rate, n - 1);
    return index;
}

/* Whether bose_weight sends x = dW / kT to expm1: neither |x| < 1e-12
 * (weight kT) nor x > 500 (weight 0). */
static int needs_expm1(double x)
{
    return !(-1e-12 < x && x < 1e-12) && !(x > 500.0);
}

/* First half of a wide recompute of flagged[0:n_flagged]
 * (_recompute_rates): write the free energies and pack x = dW / kT of
 * every direction whose rate needs expm1 into xbuf, junction by
 * junction, forward before backward.  Returns the count; the caller
 * fills ebuf[0:count] = numpy.expm1(xbuf[0:count]). */
int64_t repro_prepare(Kernel *k)
{
    const double kt = k->kt;
    int64_t count = 0;
    for (int64_t m = 0; m < k->n_flagged; m++) {
        int64_t i = k->flagged[m];
        free_energies(k, i);
        if (kt > 0.0) {
            double x = k->dw_fw[i] / kt;
            if (needs_expm1(x))
                k->xbuf[count++] = x;
            x = k->dw_bw[i] / kt;
            if (needs_expm1(x))
                k->xbuf[count++] = x;
        }
    }
    return count;
}

/* One direction's rate in _recompute_rates's order: bose_weight's
 * weight, taking the next expm1 value from ebuf, over e^2 R. */
static double wide_rate(const Kernel *k, double dw, double denominator,
                        int64_t *next)
{
    const double kt = k->kt;
    double weight;
    if (kt > 0.0) {
        double x = dw / kt;
        if (needs_expm1(x))
            weight = dw / k->ebuf[(*next)++];
        else
            weight = x > 500.0 ? 0.0 : kt;
    } else {
        weight = dw < 0.0 ? -dw : 0.0;
    }
    return weight / denominator;
}

/* Second half of a wide recompute: the rates from ebuf, in the order
 * repro_prepare packed it, then the limits and one tree repair. */
void repro_finish(Kernel *k)
{
    const double e = k->charge;
    const double e2 = e * e;
    int64_t next = 0;
    for (int64_t m = 0; m < k->n_flagged; m++) {
        int64_t i = k->flagged[m];
        double denominator = e2 * k->resistance[i];
        k->seq_fw[i] = wide_rate(k, k->dw_fw[i], denominator, &next);
        k->seq_bw[i] = wide_rate(k, k->dw_bw[i], denominator, &next);
    }
    finish(k, k->n_flagged);
}

/* Queue junction i for the walk unless it is already queued. */
static int64_t push(Kernel *k, int64_t tail, int64_t i)
{
    if (!k->queued[i]) {
        k->queued[i] = 1;
        k->queue[tail++] = i;
    }
    return tail;
}

/* Kahan-compensated clock advance (BaseSolver._advance_time). */
static void advance(double *clock, double *compensation, double dt)
{
    double y = dt - *compensation;
    double t = *clock + y;
    *compensation = (t - *clock) - y;
    *clock = t;
}

/* Decimal digits of v. */
static char *put_uint(char *p, uint64_t v)
{
    char digits[20];
    int n = 0;
    do {
        digits[n++] = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    while (n)
        *p++ = digits[--n];
    return p;
}

/* float.hex(x): "[-]0x<d>.<13 hex digits>p<+|-><exponent>", with
 * d = 1 for normal numbers and 0 (exponent -1022) for subnormals;
 * "0x0.0p+0", "inf" and "nan" as CPython writes them. */
static char *put_hex(char *p, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t mantissa = bits & ((UINT64_C(1) << 52) - 1);
    const int64_t biased = (int64_t)(bits >> 52) & 0x7ff;
    if (biased == 0x7ff && mantissa) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (biased == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (biased == 0 && mantissa == 0) {
        memcpy(p, "0x0.0p+0", 8);
        return p + 8;
    }
    *p++ = '0';
    *p++ = 'x';
    *p++ = biased ? '1' : '0';
    *p++ = '.';
    for (int shift = 48; shift >= 0; shift -= 4)
        *p++ = "0123456789abcdef"[(mantissa >> shift) & 0xf];
    const int64_t exponent = biased ? biased - 1023 : -1022;
    *p++ = 'p';
    *p++ = exponent < 0 ? '-' : '+';
    return put_uint(p, (uint64_t)(exponent < 0 ? -exponent : exponent));
}

/* float.hex of x[0:n], each followed by a newline, into out (at least
 * 32 bytes per value); returns the bytes written. */
int64_t repro_hex(const double *x, int64_t n, char *out)
{
    char *p = out;
    for (int64_t i = 0; i < n; i++) {
        p = put_hex(p, x[i]);
        *p++ = '\n';
    }
    return p - out;
}

/* Append the digest record of electrons (1, or 2 for a Cooper pair)
 * through junction j from node src to node dst:
 * base.event_record_prefix, dt.hex() and a newline. */
static void put_record(Kernel *k, int64_t j, int64_t forward,
                       int64_t electrons, int64_t src_isl, int64_t src,
                       int64_t dst_isl, int64_t dst, double dt)
{
    char *p = k->records + k->record_len;
    if (electrons == 2) {
        memcpy(p, "cooper_pair:", 12);
        p += 12;
    } else {
        memcpy(p, "sequential:", 11);
        p += 11;
    }
    p = put_uint(p, (uint64_t)j);
    if (forward) {
        memcpy(p, ":1:", 3);
        p += 3;
    } else {
        memcpy(p, ":-1:", 4);
        p += 4;
    }
    *p++ = (char)('0' + electrons);
    *p++ = ':';
    *p++ = src_isl ? '1' : '0';
    p = put_uint(p, (uint64_t)src);
    *p++ = ':';
    *p++ = dst_isl ? '1' : '0';
    p = put_uint(p, (uint64_t)dst);
    *p++ = ':';
    p = put_hex(p, dt);
    *p++ = '\n';
    k->record_len = p - k->records;
}

/* One event.  A draw with time + dt > deadline is discarded when
 * has_deadline (step(deadline)).  The event that reaches the full
 * refresh interval skips the walk: the refresh replaces it. */
static int64_t event(Kernel *k, double deadline, int64_t has_deadline)
{
    double pair_total = 0.0;
    double total = k->cooper ? channel_rates(k, &pair_total) : k->tree[1];
    if (total <= 0.0)
        return STEP_FROZEN;
    /* draw_time */
    double r = k->rng->next_double(k->rng->state);
    while (r == 0.0)
        r = k->rng->next_double(k->rng->state);
    double dt = -log(r) / total;
    k->dt = dt;
    if (has_deadline && k->time + dt > deadline)
        return STEP_DEADLINE;
    double target = k->rng->next_double(k->rng->state) * total;
    int64_t j, forward, electrons = 1;
    if (!k->cooper) {
        double residual;
        j = sample(k, target, &residual);
        forward = residual < k->seq_fw[j];
        k->dw = forward ? k->dw_fw[j] : k->dw_bw[j];
    } else if (target < pair_total) {
        j = choose_pair(k, target, &forward);
        k->dw = forward ? k->dw_fw[j] : k->dw_bw[j];
    } else {
        /* BaseSolver._secondary_event */
        int64_t index = choose_channel(k, target - pair_total);
        j = index % k->n_junctions;
        forward = index < k->n_junctions;
        electrons = 2;
        k->dw = k->cp_dw[index];
    }
    k->junction = j;
    k->forward = forward;
    k->n_electrons = electrons;
    k->n_flagged = 0;

    /* BaseSolver._commit_event: the clocks, then the electrons from node
     * src to node dst, then the digest record */
    advance(&k->time, &k->time_comp, dt);
    advance(&k->window, &k->window_comp, dt);
    const int64_t src_isl = forward ? k->a_isl[j] : k->b_isl[j];
    const int64_t src = forward ? k->a_idx[j] : k->b_idx[j];
    const int64_t dst_isl = forward ? k->b_isl[j] : k->a_isl[j];
    const int64_t dst = forward ? k->b_idx[j] : k->a_idx[j];
    if (src_isl)
        k->occupation[src] -= electrons;
    if (dst_isl)
        k->occupation[dst] += electrons;
    k->flux[j] += forward ? electrons : -electrons;
    if (k->records)
        put_record(k, j, forward, electrons, src_isl, src, dst_isl, dst, dt);

    /* Electrostatics.potential_update from src to dst, then v += dv, over
     * the span of the event's component (a junction's islands share one).
     * The walk below reaches only junctions of this component, so dv
     * outside the span is never read. */
    if (src_isl || dst_isl) {
        const int64_t island = src_isl ? src : dst;
        const int64_t lo = k->span_lo[island];
        const int64_t length = k->span_hi[island] - lo;
        const double *col_src = src_isl ? k->cinv + k->cinv_offset[src] : 0;
        const double *col_dst = dst_isl ? k->cinv + k->cinv_offset[dst] : 0;
        const int64_t row = k->cinv_row;
        const double dq = electrons == 2 ? 2.0 * k->dq : k->dq;
        double *v = k->v + lo, *dv = k->dv + lo;
        for (int64_t i = 0; i < length; i++) {
            double d = 0.0;
            if (src_isl)
                d = d - dq * col_src[i * row];
            if (dst_isl)
                d = d + dq * col_dst[i * row];
            dv[i] = d;
            v[i] = v[i] + d;
        }
    }
    k->since_refresh += 1;
    if (k->since_refresh >= k->refresh_interval)
        return STEP_REFRESH;

    /* _adaptive_update: breadth-first from the event junction and its
     * neighbours */
    int64_t tail = push(k, 0, j);
    for (int64_t p = k->nbr_start[j]; p < k->nbr_start[j + 1]; p++)
        tail = push(k, tail, k->nbr_list[p]);
    int64_t n_flagged = 0;
    for (int64_t head = 0; head < tail; head++) {
        int64_t i = k->queue[head];
        double change = 0.0;
        if (k->b_isl[i])
            change += k->dv[k->b_idx[i]];
        if (k->a_isl[i])
            change -= k->dv[k->a_idx[i]];
        double b = k->b0[i] + change;
        if (fabs(b) >= k->limit[i]) {
            k->flagged[n_flagged++] = i;
            for (int64_t p = k->nbr_start[i]; p < k->nbr_start[i + 1]; p++)
                tail = push(k, tail, k->nbr_list[p]);
        } else {
            k->b0[i] = b;
        }
    }
    for (int64_t head = 0; head < tail; head++)
        k->queued[k->queue[head]] = 0;
    k->n_flagged = n_flagged;
    if (n_flagged > k->scalar_batch)
        return STEP_RECOMPUTE;
    recompute(k, n_flagged);
    k->flagged_total += n_flagged;
    return EVENT;
}

/* Realise events until the first of: max_events events, time >=
 * stop_time before a draw (when has_stop_time: run(max_time=...), so
 * the last event may overshoot), a draw discarded at the deadline
 * (when has_deadline: step(deadline)), a frozen draw, an event due a
 * full refresh or a wide recompute, or a full record buffer.  Returns
 * the events realised; k->status says why it stopped. */
int64_t repro_run(Kernel *k, int64_t max_events, double stop_time,
                  int64_t has_stop_time, double deadline, int64_t has_deadline)
{
    int64_t n = 0;
    int64_t status = EVENT;
    k->flagged_total = 0;
    k->record_len = 0;
    while (status == EVENT) {
        if (n >= max_events) {
            status = STEP_BUDGET;
        } else if (has_stop_time && k->time >= stop_time) {
            status = STEP_TIME;
        } else if (k->records
                   && k->record_capacity - k->record_len < RECORD_MAX) {
            status = STEP_FULL;
        } else {
            status = event(k, deadline, has_deadline);
            if (status != STEP_FROZEN && status != STEP_DEADLINE)
                n++;
        }
    }
    k->status = status;
    return n;
}
