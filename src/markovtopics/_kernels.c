/* The compiled kernels.  Each has a Python copy that takes its argument list
 * and gives the same bytes where this file does not build.  The three float64
 * kernels do the operations of their copies in the same order:
 * resample_topics those of gibbs._topics_in_python, resample_behaviours those
 * of gibbs._behaviours_in_python and forward those of
 * inference._forward_in_python.  _kernels.load builds them with
 * -ffp-contract=off, so no multiply and add are fused into one rounding; exp
 * and log come from libm, as Python's math.exp and math.log do, and gammaln
 * is scipy's own routine, passed in.  parse_corpus and parse_events apply,
 * byte by byte, the grammars that serialize._corpus_in_python and
 * serialize._events_in_python check by their line regexes, and write the same
 * arrays or return the same first bad line; format_corpus writes the text
 * that serialize._corpus_text_in_python joins.  sample_chain draws the
 * behaviours, topics and words of generate.generate_from from the uniforms
 * its copy generate._chain_in_python takes, and finds the same indices: its
 * searches only compare.  The callers check every shape, dtype and index
 * bound and size every output; _kernels.bind, the one kernel dispatch, then
 * binds a kernel, or its copy, to those arrays by address.  gibbs.chain checks
 * the Gibbs steps' arrays once per chain, and the two Gibbs kernels keep the
 * column sums they are given current from one call to the next. */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* The collapsed Gibbs topic step over every token, in corpus order.  totals
 * holds the column sums of n_xy, kept current; cw (num_topics) is scratch. */
void resample_topics(int64_t num_docs, int64_t num_topics, int64_t num_behaviours,
                     double beta_sum, const int64_t *offsets, const int64_t *words,
                     const int64_t *z, const double *uniforms, const double *alpha,
                     const double *beta, int64_t *n_xy, int64_t *n_yz, int64_t *totals,
                     int64_t *ys, double *cw)
{
    for (int64_t t = 0; t < num_docs; t++) {
        int64_t *col = n_yz + z[t];  /* col[k * num_behaviours] is n_yz[k, z[t]] */
        for (int64_t i = offsets[t]; i < offsets[t + 1]; i++) {
            int64_t *row = n_xy + words[i] * num_topics, k = ys[i], lo = 0, hi = num_topics;
            double b = beta[words[i]], s = 0.0, target;
            row[k]--, totals[k]--, col[k * num_behaviours]--;
            for (k = 0; k < num_topics; k++) {
                s += (row[k] + b) / (totals[k] + beta_sum) * (col[k * num_behaviours] + alpha[k]);
                cw[k] = s;
            }
            target = uniforms[i] * s;
            while (lo < hi) {  /* bisect.bisect_right(cw, target) */
                int64_t mid = (lo + hi) / 2;
                if (target < cw[mid]) hi = mid; else lo = mid + 1;
            }
            k = lo < num_topics ? lo : num_topics - 1;
            row[k]++, totals[k]++, col[k * num_behaviours]++;
            ys[i] = k;
        }
    }
}

/* The arrays of the behaviour step, as resample_behaviours gets them. */
struct chain {
    int64_t num_docs, num_topics, num_behaviours;
    double (*gammaln)(double, int);
    const double *alpha;
    const int64_t *hist;
    int64_t *z, *n_yz, *n_zz, *n_z1, *leaving;
    double *lg, *totals, *lg_totals;
};

/* Adds (sign 1) or removes (sign -1) document t, whose topic counts are hist,
 * under behaviour k: column k of n_yz with its gammaln cache, its total over
 * every topic and that total's gammaln, then the transitions into and out of
 * the document. */
static void place(const struct chain *c, int64_t t, int64_t k, int64_t sign)
{
    int64_t Y = c->num_topics, Z = c->num_behaviours;
    double total = 0.0;
    for (int64_t y = 0; y < Y; y++)
        if (c->hist[y]) {
            c->n_yz[y * Z + k] += sign * c->hist[y];
            c->lg[k * Y + y] = c->gammaln(c->n_yz[y * Z + k] + c->alpha[y], 0);
        }
    for (int64_t y = 0; y < Y; y++)
        total += c->n_yz[y * Z + k] + c->alpha[y];
    c->totals[k] = total;
    c->lg_totals[k] = c->gammaln(total, 0);
    if (t == 0)
        c->n_z1[k] += sign;
    else
        c->n_zz[k * Z + c->z[t - 1]] += sign, c->leaving[c->z[t - 1]] += sign;
    if (t < c->num_docs - 1)
        c->n_zz[c->z[t + 1] * Z + k] += sign, c->leaving[k] += sign;
}

/* The collapsed Gibbs behaviour step over every document, in time order.  The
 * conditional of behaviour k is the Dirichlet-multinomial term of the
 * document's topic counts under column k of n_yz + alpha, over the used
 * topics, then the transition into the document, then the transition out of
 * it over its column total, with the self-transition correction.  Over counts
 * n in [0, num_docs], logs holds the rows log(n + gamma_j) for each j and
 * log(n + sum(gamma)), then the same with n + 1 for a self transition.
 * leaving holds the column sums of n_zz, kept current; hist (num_topics) and
 * work (num_behaviours * (num_topics + 3)) are scratch.  gammaln is scipy's
 * cython_special routine, called with its skip-dispatch flag 0. */
void resample_behaviours(int64_t num_docs, int64_t num_topics, int64_t num_behaviours,
                         double (*gammaln)(double, int), const int64_t *offsets,
                         const int64_t *ys, const double *uniforms, const double *alpha,
                         const double *log_eta, const double *logs, int64_t *z, int64_t *n_yz,
                         int64_t *n_zz, int64_t *n_z1, int64_t *leaving, int64_t *hist,
                         double *work)
{
    int64_t T = num_docs, Y = num_topics, Z = num_behaviours, n = T + 1;
    double *lg = work, *totals = lg + Z * Y, *lg_totals = totals + Z, *cw = lg_totals + Z;
    const double *log_into = logs, *log_out = logs + Z * n, *log_self = log_out + n,
                 *log_out_self = log_self + Z * n;
    struct chain c = {T, Y, Z, gammaln, alpha, hist, z, n_yz, n_zz, n_z1, leaving, lg, totals,
                      lg_totals};
    for (int64_t k = 0; k < Z; k++) {
        double total = 0.0;
        for (int64_t y = 0; y < Y; y++) {
            lg[k * Y + y] = gammaln(n_yz[y * Z + k] + alpha[y], 0);
            total += n_yz[y * Z + k] + alpha[y];
        }
        totals[k] = total;
        lg_totals[k] = gammaln(total, 0);
    }
    for (int64_t t = 0; t < T; t++) {
        int64_t n_t = offsets[t + 1] - offsets[t], first = t == 0, final = t == T - 1;
        int64_t z_prev = first ? 0 : z[t - 1], z_next = final ? 0 : z[t + 1], k, lo = 0, hi = Z;
        const int64_t *next_row = n_zz + z_next * Z;
        double top, s = 0.0, target;
        for (int64_t y = 0; y < Y; y++)
            hist[y] = 0;
        for (int64_t i = offsets[t]; i < offsets[t + 1]; i++)
            hist[ys[i]]++;

        /* Exclude document t's own contributions before scoring candidates. */
        place(&c, t, z[t], -1);
        for (k = 0; k < Z; k++) {
            double dm = 0.0, v;
            for (int64_t y = 0; y < Y; y++)
                if (hist[y])
                    dm += gammaln(n_yz[y * Z + k] + alpha[y] + hist[y], 0) - lg[k * Y + y];
            dm -= gammaln(totals[k] + n_t, 0) - lg_totals[k];
            v = dm + (first ? log_eta[k] : log_into[k * n + n_zz[k * Z + z_prev]]);
            if (!final) {
                if (first || k != z_prev)
                    v = v + log_into[z_next * n + next_row[k]] - log_out[leaving[k]];
                else if (z_next == z_prev)
                    v = v + log_self[z_next * n + next_row[k]] - log_out_self[leaving[k]];
                else
                    v = v + log_into[z_next * n + next_row[k]] - log_out_self[leaving[k]];
            }
            cw[k] = v;
        }
        top = cw[0];
        for (k = 1; k < Z; k++)
            if (cw[k] > top) top = cw[k];
        for (k = 0; k < Z; k++)
            s += exp(cw[k] - top), cw[k] = s;
        target = uniforms[t] * s;
        while (lo < hi) {  /* bisect.bisect_right(cw, target) */
            int64_t mid = (lo + hi) / 2;
            if (target < cw[mid]) hi = mid; else lo = mid + 1;
        }
        k = lo < Z ? lo : Z - 1;
        place(&c, t, k, 1);
        z[t] = k;
    }
}

static double log0(double v) { return v > 0.0 ? log(v) : -INFINITY; }

/* log sum_j x[j] exp(e[j]) over n terms, in the log domain. */
static double log_sum(const double *x, const double *e, int64_t n)
{
    double top = -INFINITY, s = 0.0;
    for (int64_t j = 0; j < n; j++)
        if (log0(x[j]) + e[j] > top) top = log0(x[j]) + e[j];
    if (top == -INFINITY) return top;
    for (int64_t j = 0; j < n; j++)
        s += exp(log0(x[j]) + e[j] - top);
    return top + log(s);
}

/* The scaled forward recursion (Rabiner 1989) of S chains over T documents, in
 * the log domain.  loge (T, S, Z) holds the emission logs and gets the
 * normalised log messages; log_prior (T + 1, S, Z) gets the log belief before
 * each document and after the last, log_lik (T, S) the log likelihoods and
 * belief (S, Z) the belief after the last document.  A document impossible
 * under the belief has NaN messages and log likelihood -inf, and the belief
 * restarts from pi.
 *
 * The next belief is sum_j xi[i, j] w_j over the normalised weights w.  Its Z
 * products and Z additions lose at most 2^-1075 each to the end of the float
 * range, while one rounding of a sum of at least 1e-280 > 2^-931 can move it by
 * 2^-984: for Z < 2^90 such a sum loses less than one rounding.  A smaller one
 * is redone in the log domain from the messages, which carry any size. */
void forward(int64_t num_docs, int64_t num_chains, int64_t num_behaviours, double *loge,
             const double *start, const double *xi, const double *pi, double *log_prior,
             double *log_lik, double *belief)
{
    int64_t S = num_chains, Z = num_behaviours;
    for (int64_t s = 0; s < S; s++) {
        const double *x = xi + s * Z * Z, *p = pi + s * Z;
        double *b = belief + s * Z;
        for (int64_t i = 0; i < Z; i++)
            log_prior[s * Z + i] = log0(start[s * Z + i]);
        for (int64_t t = 0; t < num_docs; t++) {
            double *e = loge + (t * S + s) * Z, *lb = log_prior + (t * S + s) * Z;
            double *next = lb + S * Z, top = -INFINITY, total = 0.0, log_total;
            for (int64_t i = 0; i < Z; i++) {
                e[i] += lb[i];
                if (e[i] > top) top = e[i];
            }
            if (top == -INFINITY) {
                log_lik[t * S + s] = -INFINITY;
                for (int64_t i = 0; i < Z; i++)
                    e[i] = NAN, next[i] = log0(p[i]), b[i] = p[i];
                continue;
            }
            for (int64_t i = 0; i < Z; i++)  /* next holds the weights until the log belief */
                next[i] = exp(e[i] - top), total += next[i];
            log_total = log(total);
            log_lik[t * S + s] = top + log_total;
            for (int64_t i = 0; i < Z; i++)
                e[i] = e[i] - top - log_total, next[i] /= total;
            for (int64_t i = 0; i < Z; i++) {
                double lin = 0.0;
                for (int64_t j = 0; j < Z; j++)
                    lin += x[i * Z + j] * next[j];
                b[i] = lin;
            }
            for (int64_t i = 0; i < Z; i++)
                next[i] = b[i] >= 1e-280 ? log(b[i]) : log_sum(x + i * Z, e, Z);
        }
    }
}

/* bisect.bisect_right(a[lo .. hi - 1], v) on entries in ascending order: lo
 * plus the number of them that are <= v.  The search halves the range with a
 * select in place of a branch, which a uniform v would mispredict. */
static int64_t bisect_right(const double *a, int64_t lo, int64_t hi, double v)
{
    const double *base = a + lo;
    int64_t n = hi - lo;
    if (n == 0)
        return lo;
    for (; n > 1; n -= n / 2)
        base = v < base[n / 2] ? base : base + n / 2;
    return base - a + !(v < *base);
}

/* The generative chain of generate.generate_from over documents span[0] ..
 * span[1] - 1, from the behaviour of document span[0] - 1 (none before the
 * first document).  uniforms holds, per document of n tokens, its behaviour's
 * uniform, then n topic uniforms, then n word uniforms.  Row 0 of cum_z
 * (num_behaviours + 1, num_behaviours) is pi's cumulative column and row z + 1
 * that of xi from z; row z of cum_theta (num_behaviours, num_topics) and row y
 * of cum_phi (num_topics, num_words) are those of theta and phi.  Each draw is
 * bisect.bisect_right of its uniform on its row, clamped to the last index.
 * A word's search is narrowed by guide (num_topics, num_words + 1), an indexed
 * search (Chen and Asau 1974): with cell(v) = min(floor(X v), X - 1), which
 * never decreases as v grows, guide[y * (X + 1) + j] counts the words x of
 * topic y with cell(cum_phi[y, x]) < j.  An entry in a lower cell than u is
 * < u and one in a higher cell is > u, so the index of u lies between the
 * counts of cell(u) and the next: the same index as a search of the row.
 * Ascending rows need non-negative parameters, which the caller checks. */
void sample_chain(int64_t num_topics, int64_t num_behaviours, int64_t num_words,
                  const int64_t *span, const int64_t *offsets, const double *uniforms,
                  const double *cum_z, const double *cum_theta, const double *cum_phi,
                  const int64_t *guide, int64_t *behaviours, int64_t *topics, int64_t *words)
{
    int64_t X = num_words, Y = num_topics, Z = num_behaviours;
    int64_t z = span[0] ? behaviours[span[0] - 1] : -1;
    const double *u = uniforms;
    for (int64_t t = span[0]; t < span[1]; t++) {
        int64_t n = offsets[t + 1] - offsets[t], *ys = topics + offsets[t];
        int64_t *xs = words + offsets[t];
        z = bisect_right(cum_z + (z + 1) * Z, 0, Z, *u++);
        behaviours[t] = z = z < Z ? z : Z - 1;
        for (int64_t i = 0; i < n; i++) {
            int64_t y = bisect_right(cum_theta + z * Y, 0, Y, u[i]), x;
            double v = u[n + i] * X;
            const int64_t *g;
            y = y < Y ? y : Y - 1;
            g = guide + y * (X + 1) + (v < X - 1 ? (int64_t)v : X - 1);
            x = bisect_right(cum_phi + y * X, g[0], g[1], u[n + i]);
            ys[i] = y, xs[i] = x < X ? x : X - 1;
        }
        u += 2 * n;
    }
}

/* The run of ASCII digits at p, whose first byte is a digit, as *value; the
 * byte after it, or NULL where the run is longer than 18 digits.  A run stops
 * at any other byte: a Python bytes object ends in a NUL byte, which stops
 * the last run at the end of the buffer. */
static const unsigned char *digit_run(const unsigned char *p, int64_t *value)
{
    const unsigned char *start = p;
    uint64_t v = 0;  /* unsigned: a run too long to keep wraps harmlessly */
    for (; (unsigned)(*p - '0') <= 9; p++)
        v = v * 10 + (*p - '0');
    *value = (int64_t)v;
    return p - start > 18 ? NULL : p;
}

/* Past the \n or \r\n that ends the line at p, or past its end where p is
 * end (the last line's newline is optional); NULL at any other byte. */
static const unsigned char *line_end(const unsigned char *p, const unsigned char *end)
{
    if (p[0] == '\r' && p[1] == '\n')
        p++;
    return p < end && *p != '\n' ? NULL : p + 1;
}

/* A corpus file's bytes, raw[0 .. size - 1], read in one pass: one document
 * per line, each a run of 1 to 18 ASCII digits (a word id) and then runs
 * separated by spaces or tabs, any of which may also open or close the line;
 * a line ends in \n or \r\n, the last one optionally.  tokens gets the ids
 * and offsets the T + 1 starts of the documents, then the number of tokens.
 * Returns T, or -(1 + l) where line l (0-based) is the first outside the
 * grammar: it holds another byte, a lone \r, a run of 19 or more digits or no
 * run at all.  raw[size] is read and must not be a digit, space or tab. */
int64_t parse_corpus(const char *raw, int64_t size, int64_t *tokens, int64_t *offsets)
{
    const unsigned char *p = (const unsigned char *)raw, *end = p + size;
    int64_t n = 0, t = 0;
    offsets[0] = 0;
    while (p < end) {
        for (;;) {
            while (*p == ' ' || *p == '\t')
                p++;
            if ((unsigned)(*p - '0') > 9)
                break;
            if (!(p = digit_run(p, tokens + n++)))
                return -1 - t;
        }
        if (n == offsets[t] || !(p = line_end(p, end)))
            return -1 - t;
        offsets[++t] = n;
    }
    return t;
}

/* The lines of an event file after its header, raw[0 .. size - 1], read in
 * one pass: each is frame,cell_x,cell_y,direction, three runs of 1 to 18
 * ASCII digits and one of up, left, down and right, ended by \n or \r\n, the
 * last one optionally.  Event n's fields go to frame[n], cell_x[n], cell_y[n]
 * and direction[n], the index of its word in ingest.DIRECTIONS.  Returns the
 * number of events, or -(1 + l) where line l (0-based) is the first outside
 * the grammar.  raw[size] is read and must be NUL, as a Python bytes object's
 * is. */
int64_t parse_events(const char *raw, int64_t size, int64_t *frame, int64_t *cell_x,
                     int64_t *cell_y, int64_t *direction)
{
    static const char *const words[] = {"up", "left", "down", "right"};
    const unsigned char *p = (const unsigned char *)raw, *end = p + size;
    int64_t n = 0;
    while (p < end) {
        int64_t *fields[] = {frame + n, cell_x + n, cell_y + n}, k, i;
        for (i = 0; i < 3; i++)
            if ((unsigned)(*p - '0') > 9 || !(p = digit_run(p, fields[i])) || *p++ != ',')
                return -1 - n;
        for (k = 0; k < 4; k++) {  /* no word is the start of another */
            for (i = 0; words[k][i] && p[i] == (unsigned char)words[k][i]; i++)
                ;
            if (!words[k][i])
                break;
        }
        if (k == 4 || !(p = line_end(p + i, end)))
            return -1 - n;
        direction[n++] = k;
    }
    return n;
}

/* The text of a corpus file: document t (of num_docs) is one line of the ids
 * tokens[offsets[t] .. offsets[t + 1] - 1] in decimal, separated by spaces
 * and ended by \n.  Every document holds a token and every id is >= 0; out
 * holds at least one byte more per token than the longest id has digits.
 * Returns the number of bytes written. */
int64_t format_corpus(int64_t num_docs, const int64_t *offsets, const int64_t *tokens, char *out)
{
    char *p = out;
    for (int64_t t = 0; t < num_docs; t++)
        for (int64_t i = offsets[t]; i < offsets[t + 1]; i++) {
            char digits[20];
            int n = 0;
            uint64_t v = (uint64_t)tokens[i];
            do
                digits[n++] = (char)('0' + v % 10);
            while (v /= 10);
            while (n)
                *p++ = digits[--n];
            *p++ = i + 1 < offsets[t + 1] ? ' ' : '\n';
        }
    return p - out;
}
