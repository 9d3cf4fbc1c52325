/* The compiled kernels.  Each does the float64 operations of its Python copy
 * in the same order: resample_topics those of gibbs._topics_in_python and
 * forward those of inference._forward_in_python.  _kernels.load builds them
 * with -ffp-contract=off, so no multiply and add are fused into one rounding;
 * exp and log come from libm, as Python's math.exp and math.log do.  The
 * callers check every shape, dtype and index bound. */
#include <math.h>
#include <stdint.h>

/* The collapsed Gibbs topic step over every token, in corpus order. */
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
