/* The collapsed Gibbs topic step over every token, in corpus order: the
 * float64 operations of gibbs._topics_in_python, in the same order
 * and with the same uniforms.  gibbs._topic_kernel builds it with
 * -ffp-contract=off, so no multiply and add are fused into one rounding.
 * The caller checks every shape, dtype and index bound. */
#include <stdint.h>

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
