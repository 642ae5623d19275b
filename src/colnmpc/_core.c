/* Compiled prediction segments, steady-state solves and learner fits.
 *
 * A prediction segment is ocp's augmented system [model states, tracking
 * quadrature] integrated by the SDIRK4 loop of integrate.py, with forward
 * sensitivities, in one call.  One loop serves three models:
 *
 * - the full-order column (colnmpc_full_segment).  Its kernels keep the
 *   operations, in the order, of kernels.full_rhs, full_state_jac and
 *   full_input_jac and of ocp's quadrature row.  The stage matrix
 *   I - h*gamma*J is block lower-triangular (a tridiagonal column block
 *   plus the quadrature row), so it is factored by a tridiagonal LU
 *   without pivoting and the quadrature unknown follows by substitution;
 *   a zero or non-finite pivot is a failed factorization, as an exactly
 *   singular matrix is for LAPACK getrf.  It reaches no foreign routine.
 *   Results agree with the numpy loop to rounding.
 *
 * - the packed-ANN hybrid (colnmpc_hybrid_segment).  Its kernel is
 *   kernels.hybrid_rhs_jac and hybrid_assemble statement for statement,
 *   and the loop does its linear algebra with the routines the numpy loop
 *   reaches: numpy's own float64 log/exp/tanh ufunc loops, numpy's cblas
 *   ddot and dgemv (a.dot(b), a @ X) and the LAPACK dgetrf/dgetrs of
 *   scipy (the dense stage factor), on operands laid out as numpy lays
 *   them out.  Python-float arithmetic is C double arithmetic; a zero
 *   divisor and an overflowing `** 2` are reported, as Python raises
 *   ZeroDivisionError and OverflowError for them.  Results are bitwise
 *   those of the numpy loop.
 *
 * - the plain full-order column of column.steady_state_solve's relaxation
 *   (colnmpc_full_relax): the column kernels without the quadrature,
 *   without sensitivities, on the hybrid's dense stage factor and numpy's
 *   stage combinations (cblas dgemv, scipy dgetrf/dgetrs).  A non-finite
 *   state is column.full_rhs's ValueError.  Results are bitwise those of
 *   the numpy loop.
 *
 * The loop mirrors integrate._run statement for statement (tableau,
 * initial step, clipping, step control, Newton test, counters, failure
 * paths); each model supplies its rhs, Jacobians, stage LU and the stage
 * combinations sum_j a_j X_j.  Vectors add in numpy's pairwise order.
 *
 * The steady-state solves are column._ptc_steady on the plain full-order
 * column (colnmpc_full_steady), which reaches numpy's cblas ddot
 * (np.linalg.norm) and LAPACK dgesv (np.linalg.solve), and
 * kernels.section_chain_solve (colnmpc_chain_solve), which reaches none.
 * Results are bitwise those of the numpy code.
 *
 * A learner fit is learner._levenberg_marquardt for one of the learner's
 * two residual models (colnmpc_fit_net, colnmpc_fit_node), on numpy's tanh
 * loop, cblas ddot, dgemv and dsyrk (J.T @ J) and LAPACK dgesv
 * (np.linalg.solve).  Results are bitwise those of the numpy loop.
 *
 * The foreign routines are bound once by colnmpc_bind (see _native.py).
 * Build and load: see _native.py.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define STAGES 5
#define NEWTON_MAXITER 8

static const double GAM = 0.25;
static const double C[STAGES] = {0.25, 0.75, 11.0 / 20.0, 0.5, 1.0};
static const double A[STAGES][STAGES] = {
    {0.25, 0.0, 0.0, 0.0, 0.0},
    {0.5, 0.25, 0.0, 0.0, 0.0},
    {17.0 / 50.0, -1.0 / 25.0, 0.25, 0.0, 0.0},
    {371.0 / 1360.0, -137.0 / 2720.0, 15.0 / 544.0, 0.25, 0.0},
    {25.0 / 24.0, -49.0 / 48.0, 125.0 / 16.0, -85.0 / 12.0, 0.25},
};
/* b - b_hat of the embedded third-order solution */
static const double E[STAGES] = {
    25.0 / 24.0 - 59.0 / 48.0, -49.0 / 48.0 - -17.0 / 96.0,
    125.0 / 16.0 - 225.0 / 32.0, -85.0 / 12.0 - -85.0 / 12.0, 0.25 - 0.0};
static const double ERR_EXP = -0.25;
static const double MIN_FACTOR = 0.1;
static const double MAX_FACTOR = 10.0;
static const double SAFETY = 0.9;

enum { OK = 0, STEP_LIMIT = 1, UNDERFLOW = 2, NONFINITE_START = 3,
       NO_MEMORY = 4, ZERO_DIVISION = 5, OVERFLOW = 6, NONFINITE_STATE = 7 };
enum { STEPS, ACCEPTED, REJECTED, NEWTON_FAILURES, NFEV, NJEV, NLU };

/* numpy's pairwise summation, so that norms add in numpy's order */
static double pw_sum(const double *a, long n)
{
    long i;
    if (n < 8) {
        double res = -0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i]; r[1] += a[i + 1]; r[2] += a[i + 2];
            r[3] += a[i + 3]; r[4] += a[i + 4]; r[5] += a[i + 5];
            r[6] += a[i + 6]; r[7] += a[i + 7];
        }
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    i = n / 2;
    i -= i % 8;
    return pw_sum(a, i) + pw_sum(a + i, n - i);
}

/* sqrt(mean(v**2)) in numpy's order; tmp has len entries */
static double rms(const double *v, long len, double *tmp)
{
    long i;
    for (i = 0; i < len; i++)
        tmp[i] = v[i] * v[i];
    return sqrt(pw_sum(tmp, len) / (double)len);
}

static int all_finite(const double *v, long len)
{
    long i;
    for (i = 0; i < len; i++)
        if (!isfinite(v[i]))
            return 0;
    return 1;
}

/* ------------------------------------------------------------------------
 * The routines the numpy code reaches
 * ------------------------------------------------------------------------ */

/* numpy's 'd'->'d' ufunc inner loop */
typedef void (*UfuncLoop)(char **args, const intptr_t *dims,
                          const intptr_t *steps, void *data);

/* The routines the numpy loop reaches, bound by colnmpc_bind: numpy's
 * ufunc loops of log, exp and tanh with their data, numpy's cblas (64-bit
 * integers) and scipy's LAPACK. */
static struct {
    UfuncLoop log, exp, tanh;
    void *log_data, *exp_data, *tanh_data;
    double (*ddot)(int64_t, const double *, int64_t, const double *,
                   int64_t);
    void (*dgemv)(int, int, int64_t, int64_t, double, const double *,
                  int64_t, const double *, int64_t, double, double *,
                  int64_t);
    void (*dgetrf)(int *, int *, double *, int *, int *, int *);
    void (*dgetrs)(char *, int *, int *, double *, int *, int *, double *,
                   int *, int *);
    void (*dsyrk)(int, int, int, int64_t, int64_t, double, const double *,
                  int64_t, double, double *, int64_t);
    void (*dgesv)(int64_t *, int64_t *, double *, int64_t *, int64_t *,
                  double *, int64_t *, int64_t *);
} NP;

enum { CBLAS_ROW_MAJOR = 101, CBLAS_COL_MAJOR = 102, CBLAS_TRANS = 112,
       CBLAS_UPPER = 121 };

/* fns: log loop, log data, exp loop, exp data, tanh loop, tanh data,
 * cblas ddot, cblas dgemv, dgetrf, dgetrs, cblas dsyrk, dgesv (numpy's,
 * 64-bit integers) */
void colnmpc_bind(void *const *fns)
{
    NP.log = (UfuncLoop)fns[0];
    NP.log_data = fns[1];
    NP.exp = (UfuncLoop)fns[2];
    NP.exp_data = fns[3];
    NP.tanh = (UfuncLoop)fns[4];
    NP.tanh_data = fns[5];
    NP.ddot = fns[6];
    NP.dgemv = fns[7];
    NP.dgetrf = fns[8];
    NP.dgetrs = fns[9];
    NP.dsyrk = fns[10];
    NP.dgesv = fns[11];
}

/* out = f(in) elementwise, as numpy applies f to a contiguous array */
static void ufunc(UfuncLoop loop, void *data, const double *in, double *out,
                  long len)
{
    char *args[2] = {(char *)in, (char *)out};
    intptr_t dims[1] = {len};
    intptr_t steps[2] = {sizeof(double), sizeof(double)};
    loop(args, dims, steps, data);
}

/* x.dot(y) of two float64 vectors: numpy multiplies length-1 operands and
 * adds 0.0 + ddot otherwise */
static double np_dot(long len, const double *x, long incx, const double *y,
                     long incy)
{
    return len == 1 ? x[0] * y[0] : 0.0 + NP.ddot(len, x, incx, y, incy);
}

/* float(x.dot(y)) + 0.0 */
static double dot(long len, const double *x, long incx, const double *y,
                  long incy)
{
    return np_dot(len, x, incx, y, incy) + 0.0;
}

/* a @ X[:rows] as numpy's matmul does it: one row is 0.0 + a0 * x, more
 * rows are a cblas dgemv */
static void matmul_combine(const double *a, int rows, const double *X,
                           long len, double *out)
{
    long k;
    if (rows == 1) {
        for (k = 0; k < len; k++)
            out[k] = 0.0 + a[0] * X[k];
        return;
    }
    NP.dgemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, rows, len, 1.0, X, len, a, 1,
             0.0, out, 1);
}

/* Python's max(a, b) and min(a, b) of floats */
static double py_max(double a, double b) { return b > a ? b : a; }
static double py_min(double a, double b) { return b < a ? b : a; }

/* np.clip(x, 0.0, 1.0) of one entry: a NaN and a -0.0 pass unchanged */
static double clip01(double x)
{
    return x < 0.0 ? 0.0 : (x > 1.0 ? 1.0 : x);
}

/* np.max(np.abs(v)) of len >= 1 entries: a NaN propagates */
static double max_abs(const double *v, long len)
{
    double mx = fabs(v[0]);
    long i;
    for (i = 1; i < len && !isnan(mx); i++) {
        const double a = fabs(v[i]);
        if (!(a <= mx))
            mx = a;
    }
    return mx;
}

/* ------------------------------------------------------------------------
 * The model interface of the segment loop
 * ------------------------------------------------------------------------ */

/* A dense state Jacobian (N, N) per slot, row-major as numpy holds it, and
 * the LAPACK factors of I - hg*J with their pivots, column-major as numpy
 * hands them to getrf */
typedef struct {
    double *J[2], *LU[2];
    int *piv[2];
} Dense;

typedef struct Model Model;
struct Model {
    long N;     /* states of the integrated system */
    int error;  /* first error a kernel raised (ZERO_DIVISION, OVERFLOW,
                 * NONFINITE_STATE), or OK */
    Dense dense; /* the dense stage factor's storage, when the model uses it */
    /* rhs of the augmented system at y */
    void (*rhs)(Model *m, const double *y, double *f);
    /* state Jacobian at y into the step-start slot (stage 0) or, with the
     * input columns, into the stage slot (stage 1) */
    void (*jac)(Model *m, const double *y, int stage);
    /* the stage slot's Jacobian becomes the step-start one */
    void (*keep)(Model *m);
    /* factor I - hg*J of a slot; 0 when it is singular */
    int (*factor)(Model *m, int stage, double hg);
    /* b = (I - hg*J)^-1 b with the step-start factors */
    void (*solve)(Model *m, double *b);
    /* out = (I - hg*J)^-1 (base + hg*G) with the stage factors, G =
     * d rhs / d p (inputs last); base and out in the model's layout */
    void (*sens_solve)(Model *m, double hg, int n_p, const double *base,
                       double *out);
    /* out[k] = sum_j a[j] X[j][k] over rows >= 1 rows of length len */
    void (*combine)(const double *a, int rows, const double *X, long len,
                    double *out);
};

/* The dense stage factor, as integrate._lu_factor and _lu_solve run it:
 * getrf of eye - hg*J of a slot, in the column-major copy LAPACK is handed;
 * 0 when it is singular */
static int dense_factor(Model *m, int stage, double hg)
{
    const long N = m->N;
    const double *J = m->dense.J[stage];
    double *M = m->dense.LU[stage];
    int nn = (int)N, info = 0;
    long i, j;
    for (j = 0; j < N; j++)
        for (i = 0; i < N; i++)
            M[j * N + i] = (i == j ? 1.0 : 0.0) - hg * J[i * N + j];
    NP.dgetrf(&nn, &nn, M, &nn, m->dense.piv[stage], &info);
    return info == 0;
}

/* getrs of nrhs column-major right-hand sides b with a slot's factors */
static void dense_lu_solve(Model *m, int stage, int nrhs, double *b)
{
    char trans = 'N';
    int nn = (int)m->N, info = 0;
    NP.dgetrs(&trans, &nn, &nrhs, m->dense.LU[stage], &nn,
              m->dense.piv[stage], b, &nn, &info);
}

/* b = (I - hg*J)^-1 b with the step-start factors */
static void dense_solve(Model *m, double *b)
{
    dense_lu_solve(m, 0, 1, b);
}

/* integrate._initial_step */
static double initial_step(Model *m, const double *y0, const double *f0,
                           double span, double rtol, double atol,
                           double *sc, double *v, double *f1, double *tmp)
{
    const long N = m->N;
    double d0, d1, d2, h0, h1, mx;
    long k;
    for (k = 0; k < N; k++)
        sc[k] = atol + rtol * fabs(y0[k]);
    for (k = 0; k < N; k++)
        v[k] = y0[k] / sc[k];
    d0 = rms(v, N, tmp);
    for (k = 0; k < N; k++)
        v[k] = f0[k] / sc[k];
    d1 = rms(v, N, tmp);
    h0 = (d0 < 1e-5 || d1 < 1e-5) ? 1e-6 : 0.01 * d0 / d1;
    if (0.1 * span < h0)
        h0 = 0.1 * span;
    for (k = 0; k < N; k++)
        v[k] = y0[k] + h0 * f0[k];
    m->rhs(m, v, f1);
    for (k = 0; k < N; k++)
        v[k] = (f1[k] - f0[k]) / sc[k];
    d2 = rms(v, N, tmp) / h0;
    if (d1 <= 1e-15 && d2 <= 1e-15) {
        h1 = h0 * 1e-3;
        if (h1 < 1e-6)
            h1 = 1e-6;
    } else {
        mx = d1 < d2 ? d2 : d1;
        h1 = pow(0.01 / mx, 0.2);
    }
    mx = 100.0 * h0;
    if (h1 < mx)
        mx = h1;
    return span < mx ? span : mx;
}

/* integrate._newton_stage: 1 when converged, 0 when failed, -1 when the
 * model raised */
static int newton_stage(Model *m, double *Y, const double *pred, double hg,
                        const double *sc, long long *stats, double *f,
                        double *d)
{
    const long N = m->N;
    double norm, norm_prev = -1.0;
    long k;
    int it;
    for (it = 0; it < NEWTON_MAXITER; it++) {
        stats[NFEV] += 1;
        m->rhs(m, Y, f);
        if (m->error)
            return -1;
        for (k = 0; k < N; k++)
            d[k] = -(Y[k] - pred[k] - hg * f[k]);
        if (!all_finite(d, N))
            return 0;
        m->solve(m, d);
        for (k = 0; k < N; k++) {
            Y[k] = Y[k] + d[k];
            d[k] = d[k] / sc[k];
        }
        norm = rms(d, N, f);
        if (norm < 0.03)
            return 1;
        if (norm_prev >= 0.0 && norm > 2.0 * norm_prev)
            return 0;  /* diverging */
        norm_prev = norm;
    }
    return 0;
}

/* One segment [t0, t1] of model m.
 *
 * h_init   first step size, or <= 0 to estimate one
 * y        state (N): start on entry, end on return OK
 * n_p      with n_p > 0: sens is d y / d p in the model's layout, start
 *          on entry and end on return OK.  With n_p == 0 only the states
 *          are carried.
 * stats    steps accepted rejected newton_failures nfev njev nlu
 * times    out: [t when the loop stopped, accepted step size]
 *
 * Returns OK, STEP_LIMIT, UNDERFLOW, NONFINITE_START, NO_MEMORY or the
 * model's error.
 */
static int segment(Model *m, double t0, double t1, double h_init,
                   double rtol, double atol, long long max_steps, double *y,
                   int n_p, double *sens, long long *stats, double *times)
{
    const long N = m->N, NS = (long)n_p * N;
    const int with_sens = n_p > 0;
    double *mem, *p, *f0, *fbuf, *Y, *pred, *d, *sc, *tmp, *K, *Ks, *base,
        *Snew, *Stmp;
    const double *f_start;   /* rhs at y; after a step, a view of K[4] */
    /* the step-start slot holds the Jacobian at (t_jn, y); NAN: none */
    double t = t0, span = t1 - t0, h, h_accepted = 0.0, t_jn = NAN,
        t_stage = 0.0;
    int status = OK, i, conv;
    long k;

    memset(stats, 0, 7 * sizeof(long long));
    times[0] = t0;
    times[1] = 0.0;
    mem = malloc(sizeof(double) * (7 * N + STAGES * N
                                   + (with_sens ? STAGES * NS + 3 * NS : 0)));
    if (!mem)
        return NO_MEMORY;
    p = mem;
    f0 = p; p += N;
    fbuf = p; p += N;
    Y = p; p += N;
    pred = p; p += N;
    d = p; p += N;
    sc = p; p += N;
    tmp = p; p += N;
    K = p; p += STAGES * N;
    Ks = base = Snew = Stmp = NULL;
    if (with_sens) {
        Ks = p; p += STAGES * NS;
        base = p; p += NS;
        Snew = p; p += NS;
        Stmp = p; p += NS;
    }

    stats[NFEV] += 1;
    m->rhs(m, y, f0);
    if (m->error) {
        status = m->error;
        goto done;
    }
    if (!all_finite(f0, N)) {
        status = NONFINITE_START;
        goto done;
    }
    if (h_init > 0.0) {
        h = h_init < span ? h_init : span;
    } else {
        stats[NFEV] += 1;
        h = initial_step(m, y, f0, span, rtol, atol, sc, d, fbuf, tmp);
        if (m->error) {
            status = m->error;
            goto done;
        }
    }
    h_accepted = h;
    f_start = f0;

    for (;;) {
        double hg, err, factor, h_next;
        int clipped, failed = 0;
        if (stats[STEPS] >= max_steps) {
            status = STEP_LIMIT;
            break;
        }
        clipped = h > t1 - t;
        if (clipped)
            h = t1 - t;
        if (h < 16.0 * DBL_EPSILON * (fabs(t) > 1.0 ? fabs(t) : 1.0)) {
            status = UNDERFLOW;
            break;
        }
        stats[STEPS] += 1;
        hg = h * GAM;
        /* y is unchanged since the last Jacobian at time t (a rejected
         * step, or the stage-5 Jacobian of the step that ended here) */
        if (t_jn != t) {
            stats[NJEV] += 1;
            m->jac(m, y, 0);
            if (m->error) {
                status = m->error;
                break;
            }
            t_jn = t;
        }
        if (!m->factor(m, 0, hg)) {
            stats[NEWTON_FAILURES] += 1;
            h *= 0.3;
            continue;
        }
        stats[NLU] += 1;

        for (k = 0; k < N; k++)
            sc[k] = atol + rtol * fabs(y[k]);
        for (i = 0; i < STAGES; i++) {
            const double ti = t + C[i] * h;
            const double *prev = i ? K + (i - 1) * N : f_start;
            if (i) {
                m->combine(A[i], i, K, N, pred);
                for (k = 0; k < N; k++)
                    pred[k] = y[k] + h * pred[k];
            } else {
                memcpy(pred, y, N * sizeof(double));
            }
            for (k = 0; k < N; k++)
                Y[k] = pred[k] + hg * prev[k];
            conv = newton_stage(m, Y, pred, hg, sc, stats, fbuf, d);
            if (conv < 0) {
                status = m->error;
                goto done;
            }
            if (!conv) {
                failed = 1;
                break;
            }
            for (k = 0; k < N; k++)
                K[i * N + k] = (Y[k] - pred[k]) / hg;
            if (!with_sens)
                continue;
            stats[NJEV] += 1;
            m->jac(m, Y, 1);
            if (m->error) {
                status = m->error;
                goto done;
            }
            t_stage = ti;
            if (i) {
                m->combine(A[i], i, Ks, NS, base);
                for (k = 0; k < NS; k++)
                    base[k] = sens[k] + h * base[k];
            } else {
                memcpy(base, sens, NS * sizeof(double));
            }
            if (!m->factor(m, 1, hg)) {
                failed = 1;
                break;
            }
            stats[NLU] += 1;
            m->sens_solve(m, hg, n_p, base, Stmp);
            for (k = 0; k < NS; k++)
                Ks[i * NS + k] = (Stmp[k] - base[k]) / hg;
            if (i == STAGES - 1)
                memcpy(Snew, Stmp, NS * sizeof(double));
        }
        if (failed) {
            stats[NEWTON_FAILURES] += 1;
            stats[REJECTED] += 1;
            h *= 0.3;
            continue;
        }
        /* stiffly accurate: the last stage Y is the step solution */
        if (!all_finite(Y, N)) {
            stats[REJECTED] += 1;
            h *= 0.3;
            continue;
        }

        /* filtered embedded error estimate */
        m->combine(E, STAGES, K, N, d);
        for (k = 0; k < N; k++)
            d[k] = h * d[k];
        m->solve(m, d);
        for (k = 0; k < N; k++) {
            double ay = fabs(y[k]), an = fabs(Y[k]);
            d[k] = d[k] / (atol + rtol * (ay < an ? an : ay));
        }
        err = rms(d, N, tmp);

        if (err <= 1.0) {
            t = t + h;
            memcpy(y, Y, N * sizeof(double));
            /* As in _run, f_start is a view of K[4], kept on purpose.
             * Here it is the rhs at the new y (stage 5 has c = 1); but a
             * next step that is rejected after its last stage overwrites
             * K[4], and the retry then reads that slope for its first
             * stage's guess.  A copy changes the steps taken (the hybrid
             * work-counter pin moves from 282 to 292 steps). */
            f_start = K + (STAGES - 1) * N;
            if (with_sens) {
                memcpy(sens, Snew, NS * sizeof(double));
                m->keep(m);
                t_jn = t_stage;
            } else {
                t_jn = NAN;
            }
            stats[ACCEPTED] += 1;
            factor = err > 0.0 ? SAFETY * pow(err, ERR_EXP) : MAX_FACTOR;
            /* min(MAX, max(MIN, factor)) with Python's min/max */
            factor = factor > MIN_FACTOR ? factor : MIN_FACTOR;
            h_next = h * (factor < MAX_FACTOR ? factor : MAX_FACTOR);
            if (!clipped)
                h_accepted = h_next;
            if (t >= t1 - 1e-12 * (fabs(t1) > 1.0 ? fabs(t1) : 1.0)) {
                t = t1;
                break;
            }
            h = (!clipped || h_accepted < h_next) ? h_next : h_accepted;
        } else {
            stats[REJECTED] += 1;
            factor = SAFETY * pow(err, ERR_EXP);
            factor = factor > MIN_FACTOR ? factor : MIN_FACTOR;
            h *= factor < 0.5 ? factor : 0.5;
            h_accepted = h;
        }
    }
done:
    times[0] = t;
    times[1] = status == OK ? h_accepted : 0.0;
    free(mem);
    return status;
}

/* ------------------------------------------------------------------------
 * Full-order column
 * ------------------------------------------------------------------------ */

/* State Jacobian of the augmented system: tridiagonal column block and the
 * quadrature row (qB, qD in columns 0 and n-1); gL, gV is d f / d(L, V) of
 * the column block, filled only in the stage slot. */
typedef struct {
    double *sub, *dia, *sup, *gL, *gV;
    double qB, qD;
} Jac;

/* Factors of I - hg*J: unit lower l, upper diagonal u and superdiagonal
 * sup of the column block, and the quadrature row (rB, rD). */
typedef struct {
    double *l, *u, *sup;
    double rB, rD;
} Lu;

/* The column with N = n + 1 is ocp's augmented system (the quadrature
 * last); with N = n it is the plain column as column.full_rhs evaluates
 * it, where a non-finite state is an error (its ValueError). */
typedef struct {
    Model m;
    int n, feed, liquid_lf;  /* liquid into stage i is L+F for i < liquid_lf */
    double L, V, F, xF, alpha, spB, spD;
    const double *H;
    double *y_eq;            /* scratch (n) */
    Jac J[2];
    Lu lu[2];
} Column;

/* kernels.full_rhs plus the quadrature (spB - x_B)^2 + (spD - x_D)^2 */
static void column_rhs(Model *m, const double *x, double *f)
{
    const Column *c = (const Column *)m;
    const int n = c->n;
    const double a = c->alpha, L = c->L, V = c->V, LF = L + c->F;
    double *y = c->y_eq;
    double dev_b, dev_d;
    int i;
    if (m->N == n && !all_finite(x, n)) {
        if (!m->error)
            m->error = NONFINITE_STATE;
        return;
    }
    for (i = 0; i < n; i++)
        y[i] = a * x[i] / (1.0 + (a - 1.0) * x[i]);
    f[0] = (LF * (x[1] - x[0]) + V * (x[0] - y[0])) / c->H[0];
    for (i = 1; i < n - 1; i++) {
        double acc = (i < c->liquid_lf ? LF : L) * (x[i + 1] - x[i])
                     + V * (y[i - 1] - y[i]);
        if (i == c->feed)
            acc += c->F * (c->xF - x[i]);
        f[i] = acc / c->H[i];
    }
    f[n - 1] = V * (y[n - 2] - x[n - 1]) / c->H[n - 1];
    if (m->N == n)
        return;
    dev_b = c->spB - x[0];
    dev_d = c->spD - x[n - 1];
    f[n] = dev_b * dev_b + dev_d * dev_d;
}

/* kernels.full_state_jac (plus full_input_jac in the stage slot) and the
 * quadrature row */
static void column_jac(Model *m, const double *x, int stage)
{
    Column *c = (Column *)m;
    Jac *J = &c->J[stage];
    const int n = c->n;
    const double a = c->alpha, L = c->L, V = c->V, F = c->F, LF = L + F;
    const double *H = c->H;
    double *dy = c->y_eq;
    int i;
    for (i = 0; i < n; i++) {
        double d = 1.0 + (a - 1.0) * x[i];
        dy[i] = a / (d * d);
    }
    J->dia[0] = (-LF + V * (1.0 - dy[0])) / H[0];
    for (i = 1; i < n - 1; i++) {
        double diag = -(i < c->liquid_lf ? LF : L) - V * dy[i];
        if (i == c->feed)
            diag -= F;
        J->dia[i] = diag / H[i];
    }
    J->dia[n - 1] = -V / H[n - 1];
    for (i = 1; i < n; i++)
        J->sub[i] = V * dy[i - 1] / H[i];
    for (i = 0; i < n - 1; i++)
        J->sup[i] = (i < c->liquid_lf ? LF : L) / H[i];
    J->qB = -2.0 * (c->spB - x[0]);
    J->qD = -2.0 * (c->spD - x[n - 1]);
    if (!stage)
        return;
    for (i = 0; i < n; i++)
        dy[i] = a * x[i] / (1.0 + (a - 1.0) * x[i]);  /* now y */
    for (i = 0; i < n - 1; i++)
        J->gL[i] = (x[i + 1] - x[i]) / H[i];
    J->gL[n - 1] = 0.0;
    J->gV[0] = (x[0] - dy[0]) / H[0];
    for (i = 1; i < n - 1; i++)
        J->gV[i] = (dy[i - 1] - dy[i]) / H[i];
    J->gV[n - 1] = (dy[n - 2] - x[n - 1]) / H[n - 1];
}

/* column_jac of the plain column into the slot's dense Jacobian, as the
 * dense full_state_jac holds it */
static void column_dense_jac(Model *m, const double *x, int stage)
{
    const Column *c = (const Column *)m;
    const Jac *J = &c->J[stage];
    const int n = c->n;
    double *D = m->dense.J[stage];
    int i;
    column_jac(m, x, stage);
    memset(D, 0, (size_t)n * n * sizeof(double));
    for (i = 0; i < n; i++)
        D[i * n + i] = J->dia[i];
    for (i = 1; i < n; i++) {
        D[i * n + i - 1] = J->sub[i];
        D[(i - 1) * n + i] = J->sup[i - 1];
    }
}

static void column_keep(Model *m)
{
    Column *c = (Column *)m;
    const size_t size = c->n * sizeof(double);
    memcpy(c->J[0].sub, c->J[1].sub, size);
    memcpy(c->J[0].dia, c->J[1].dia, size);
    memcpy(c->J[0].sup, c->J[1].sup, size);
    c->J[0].qB = c->J[1].qB;
    c->J[0].qD = c->J[1].qD;
}

/* Factor I - hg*J; returns 0 on a zero or non-finite pivot. */
static int column_factor(Model *m, int stage, double hg)
{
    Column *c = (Column *)m;
    const Jac *J = &c->J[stage];
    Lu *lu = &c->lu[stage];
    const int n = c->n;
    double piv = 1.0 - hg * J->dia[0];
    int i;
    if (piv == 0.0 || !isfinite(piv))
        return 0;
    lu->u[0] = piv;
    for (i = 1; i < n; i++) {
        double l;
        lu->sup[i - 1] = 0.0 - hg * J->sup[i - 1];
        l = (0.0 - hg * J->sub[i]) / lu->u[i - 1];
        piv = (1.0 - hg * J->dia[i]) - l * lu->sup[i - 1];
        if (piv == 0.0 || !isfinite(piv))
            return 0;
        lu->l[i] = l;
        lu->u[i] = piv;
    }
    lu->rB = 0.0 - hg * J->qB;
    lu->rD = 0.0 - hg * J->qD;
    return 1;
}

/* Solve (I - hg*J) x = b in place; b has n + 1 entries. */
static void lu_solve(const Lu *lu, int n, double *b)
{
    int i;
    for (i = 1; i < n; i++)
        b[i] -= lu->l[i] * b[i - 1];
    b[n - 1] /= lu->u[n - 1];
    for (i = n - 2; i >= 0; i--)
        b[i] = (b[i] - lu->sup[i] * b[i + 1]) / lu->u[i];
    b[n] = b[n] - (lu->rB * b[0] + lu->rD * b[n - 1]);
}

static void column_solve(Model *m, double *b)
{
    Column *c = (Column *)m;
    lu_solve(&c->lu[0], c->n, b);
}

/* column by column; L and V are the last two parameters */
static void column_sens_solve(Model *m, double hg, int n_p,
                              const double *base, double *out)
{
    Column *c = (Column *)m;
    const int n = c->n;
    const long N = m->N;
    const Jac *J = &c->J[1];
    int q, k;
    memcpy(out, base, n_p * N * sizeof(double));
    for (k = 0; k < n; k++) {
        out[(n_p - 2) * N + k] += hg * J->gL[k];
        out[(n_p - 1) * N + k] += hg * J->gV[k];
    }
    for (q = 0; q < n_p; q++)
        lu_solve(&c->lu[1], n, out + q * N);
}

static void loop_combine(const double *a, int rows, const double *X,
                         long len, double *out)
{
    long k;
    int j;
    for (k = 0; k < len; k++) {
        double acc = a[0] * X[k];
        for (j = 1; j < rows; j++)
            acc += a[j] * X[j * len + k];
        out[k] = acc;
    }
}

static void bind_jac(Jac *J, double **p, int n, int inputs)
{
    J->sub = *p; *p += n;
    J->dia = *p; *p += n;
    J->sup = *p; *p += n;
    if (inputs) {
        J->gL = *p; *p += n;
        J->gV = *p; *p += n;
    } else {
        J->gL = J->gV = NULL;
    }
}

static void bind_lu(Lu *lu, double **p, int n)
{
    lu->l = *p; *p += n;
    lu->u = *p; *p += n;
    lu->sup = *p; *p += n;
}

/* c for column size n, feed stage index feed, holdups (n) and model L, V,
 * F, x_F, alpha, integrating N states; the kernel buffers are the caller's
 * to bind */
static void column_init(Column *c, int n, int feed, const double *holdup,
                        const double *model, long N)
{
    memset(c, 0, sizeof(*c));
    c->m.N = N;
    c->m.error = OK;
    c->n = n;
    c->feed = (0 < feed && feed < n - 1) ? feed : -1;
    c->liquid_lf = feed > 1 ? feed : 1;
    c->L = model[0];
    c->V = model[1];
    c->F = model[2];
    c->xF = model[3];
    c->alpha = model[4];
    c->H = holdup;
}

/* One prediction segment [t0, t1] of the augmented full-order model.
 *
 * n, feed, holdup  column size, feed stage index, holdups (n)
 * model            L, V, F, x_F, alpha, setpoint x_B, setpoint x_D
 * sens             one column of n + 1 per parameter
 * the rest         as for segment(); L and V are the last two parameters
 */
int colnmpc_full_segment(int n, int feed, const double *holdup,
                         const double *model, double t0, double t1,
                         double h_init, double rtol, double atol,
                         long long max_steps, double *y, int n_p,
                         double *sens, long long *stats, double *times)
{
    Column c;
    double *mem, *p;
    int status;

    mem = malloc(sizeof(double) * 15 * n);
    if (!mem)
        return NO_MEMORY;
    column_init(&c, n, feed, holdup, model, n + 1);
    p = mem;
    c.y_eq = p; p += n;
    bind_jac(&c.J[0], &p, n, 0);
    bind_jac(&c.J[1], &p, n, 1);
    bind_lu(&c.lu[0], &p, n);
    bind_lu(&c.lu[1], &p, n);
    c.m.rhs = column_rhs;
    c.m.jac = column_jac;
    c.m.keep = column_keep;
    c.m.factor = column_factor;
    c.m.solve = column_solve;
    c.m.sens_solve = column_sens_solve;
    c.m.combine = loop_combine;
    c.spB = model[5];
    c.spD = model[6];
    status = segment(&c.m, t0, t1, h_init, rtol, atol, max_steps, y, n_p,
                     sens, stats, times);
    free(mem);
    return status;
}

/* column.steady_state_solve's relaxation [t0, t1]: integrate on the plain
 * column (column.full_rhs and full_state_jacobian), without sensitivities,
 * on the dense stage factor and numpy's stage combinations, so the result
 * is bitwise that of the numpy loop.
 *
 * n, feed, holdup  column size, feed stage index, holdups (n)
 * model            L, V, F, x_F, alpha
 * the rest         as for segment(); n_p and sens are not read
 * Returns as segment(), or NONFINITE_STATE (full_rhs's ValueError).
 */
int colnmpc_full_relax(int n, int feed, const double *holdup,
                       const double *model, double t0, double t1,
                       double h_init, double rtol, double atol,
                       long long max_steps, double *y, int n_p,
                       double *sens, long long *stats, double *times)
{
    Column c;
    double *mem, *p;
    int status;

    (void)n_p;
    (void)sens;
    mem = malloc(sizeof(double) * (4 * n + 2 * n * n + n));
    if (!mem)
        return NO_MEMORY;
    column_init(&c, n, feed, holdup, model, n);
    p = mem;
    c.y_eq = p; p += n;
    bind_jac(&c.J[0], &p, n, 0);
    c.m.dense.J[0] = p; p += n * n;
    c.m.dense.LU[0] = p; p += n * n;
    c.m.dense.piv[0] = (int *)p;
    c.m.rhs = column_rhs;
    c.m.jac = column_dense_jac;
    c.m.factor = dense_factor;
    c.m.solve = dense_solve;
    c.m.combine = matmul_combine;  /* keep and sens_solve: no sensitivities */
    status = segment(&c.m, t0, t1, h_init, rtol, atol, max_steps, y, 0,
                     NULL, stats, times);
    free(mem);
    return status;
}

/* np.linalg.norm(v): sqrt of v.dot(v) */
static double norm2(const double *v, long len)
{
    return sqrt(np_dot(len, v, 1, v, 1));
}

/* column._ptc_steady on the plain column (column.full_rhs and
 * full_state_jacobian) statement for statement: each step solves
 * (I/dt - J) step = f by numpy's LAPACK dgesv (np.linalg.solve; a
 * singular matrix is its LinAlgError), the norms are numpy's ddot and
 * sqrt, and fraction-to-boundary, clipping and dt control are those of the
 * numpy loop with Python's min, so the result is bitwise that loop's.
 *
 * n, feed, holdup  column size, feed stage index, holdups (n)
 * model            L, V, F, x_F, alpha
 * tol, dt0, max_iter   as for _ptc_steady
 * x                start on entry, the last iterate on return OK
 * converged        out: 1 when max |f| <= tol at the end, else 0
 * Returns OK, NO_MEMORY or NONFINITE_STATE (full_rhs's ValueError).
 */
int colnmpc_full_steady(int n, int feed, const double *holdup,
                        const double *model, double tol, double dt0,
                        long long max_iter, double *x, long long *converged)
{
    Column c;
    double *mem, *p, *f, *ft, *xt, *step, *J, *A, *swap, dt = dt0, fn, fnt;
    int64_t *piv, nn = n, one = 1, info;
    long long it;
    int i, j, status = OK;

    *converged = 0;
    mem = malloc(sizeof(double) * (9 * n + 2 * n * n));
    if (!mem)
        return NO_MEMORY;
    column_init(&c, n, feed, holdup, model, n);
    p = mem;
    c.y_eq = p; p += n;
    bind_jac(&c.J[0], &p, n, 0);
    J = c.m.dense.J[0] = p; p += n * n;
    f = p; p += n;
    ft = p; p += n;
    xt = p; p += n;
    step = p; p += n;
    A = p; p += n * n;
    piv = (int64_t *)p;

    for (i = 0; i < n; i++)
        x[i] = clip01(x[i]);
    column_rhs(&c.m, x, f);
    if (c.m.error) {
        status = c.m.error;
        goto done;
    }
    fn = norm2(f, n);
    for (it = 0; it < max_iter; it++) {
        double lam = 1.0, low = 0.0;
        int any = 0;
        if (max_abs(f, n) <= tol) {
            *converged = 1;
            goto done;
        }
        /* I / dt - J in the column-major copy LAPACK is handed, and f */
        column_dense_jac(&c.m, x, 0);
        for (j = 0; j < n; j++)
            for (i = 0; i < n; i++)
                A[j * n + i] = (i == j ? 1.0 : 0.0) / dt - J[i * n + j];
        memcpy(step, f, n * sizeof(double));
        info = 0;
        NP.dgesv(&nn, &one, A, &nn, piv, step, &nn, &info);
        if (info > 0) {
            dt *= 0.25;
            continue;
        }
        /* fraction to the boundary: np.min over the negative, then over
         * the positive steps (a NaN propagates), each under Python's min */
        for (i = 0; i < n; i++)
            if (step[i] < 0.0) {
                const double v = x[i] / -step[i];
                if (!any || (!isnan(low) && (isnan(v) || v < low)))
                    low = v;
                any = 1;
            }
        if (any)
            lam = py_min(lam, 0.99 * low);
        any = 0;
        for (i = 0; i < n; i++)
            if (step[i] > 0.0) {
                const double v = (1.0 - x[i]) / step[i];
                if (!any || (!isnan(low) && (isnan(v) || v < low)))
                    low = v;
                any = 1;
            }
        if (any)
            lam = py_min(lam, 0.99 * low);
        for (i = 0; i < n; i++)
            xt[i] = clip01(x[i] + lam * step[i]);
        column_rhs(&c.m, xt, ft);
        if (c.m.error) {
            status = c.m.error;
            goto done;
        }
        fnt = norm2(ft, n);
        if (!isfinite(fnt) || fnt > 2.0 * fn) {
            dt *= 0.5;
            if (dt < 1e-8)
                goto done;
            continue;
        }
        memcpy(x, xt, n * sizeof(double));
        swap = f;
        f = ft;
        ft = swap;
        fn = fnt;
        if (lam == 1.0)
            dt = py_min(dt * 2.0, 1e16);
    }
    *converged = max_abs(f, n) <= tol;
done:
    free(mem);
    return status;
}

/* ------------------------------------------------------------------------
 * Stationary column section
 * ------------------------------------------------------------------------ */

/* kernels.section_chain_solve's residual of tray compositions v (m):
 * out[t] = r (x_above - v[t]) + (y_below - y(v[t])); yv is scratch (m) */
static void chain_residual(const double *v, long m, double x_up, double y_lo,
                           double r, double alpha, double *yv, double *out)
{
    long t;
    for (t = 0; t < m; t++)
        yv[t] = alpha * v[t] / (1.0 + (alpha - 1.0) * v[t]);
    for (t = 0; t < m; t++)
        out[t] = r * ((t ? v[t - 1] : x_up) - v[t])
                 + ((t < m - 1 ? yv[t + 1] : y_lo) - yv[t]);
}

/* kernels.section_chain_solve for m >= 1 trays, statement for statement:
 * damped Newton on the stacked residual with the Thomas solve (the
 * array ** 2 of the slopes is x * x), so the result is bitwise that of
 * the numpy code.
 *
 * out     tray compositions (m), top tray first, then max |residual|
 *         there
 * Returns the Newton iterations, or -NO_MEMORY.
 */
long long colnmpc_chain_solve(double x_up, double y_lo, double r,
                              long long m, double alpha, double tol,
                              long long max_iter, double *out)
{
    double *mem, *p, *cur, *res, *trial, *res_t, *yv, *dyv, *diag, *b, *step,
        *swap, rnorm, rn_t, guess;
    long long it = 0;
    long t;

    mem = malloc(sizeof(double) * 9 * m);
    if (!mem)
        return -NO_MEMORY;
    p = mem;
    cur = p; p += m;
    res = p; p += m;
    trial = p; p += m;
    res_t = p; p += m;
    yv = p; p += m;
    dyv = p; p += m;
    diag = p; p += m;
    b = p; p += m;
    step = p;

    guess = y_lo / (alpha - (alpha - 1.0) * y_lo);
    for (t = 0; t < m; t++)
        cur[t] = clip01(x_up + ((double)(t + 1) / (m + 1.0)) * (guess - x_up));
    chain_residual(cur, m, x_up, y_lo, r, alpha, yv, res);
    rnorm = max_abs(res, m);
    while (rnorm > tol && it < max_iter) {
        double lam = 1.0;
        for (t = 0; t < m; t++) {
            const double d = 1.0 + (alpha - 1.0) * cur[t];
            dyv[t] = alpha / (d * d);
            diag[t] = -r - dyv[t];
            b[t] = -res[t];
        }
        /* _thomas: lower entries r, upper entries dyv[1:] */
        for (t = 1; t < m; t++) {
            const double w = r / diag[t - 1];
            diag[t] -= w * dyv[t];
            b[t] -= w * b[t - 1];
        }
        step[m - 1] = b[m - 1] / diag[m - 1];
        for (t = m - 2; t >= 0; t--)
            step[t] = (b[t] - dyv[t + 1] * step[t + 1]) / diag[t];
        /* damped update: backtrack until the residual norm decreases */
        for (;;) {
            for (t = 0; t < m; t++)
                trial[t] = clip01(cur[t] + lam * step[t]);
            chain_residual(trial, m, x_up, y_lo, r, alpha, yv, res_t);
            rn_t = max_abs(res_t, m);
            if (rn_t < rnorm || lam < 1e-8)
                break;
            lam *= 0.5;
        }
        swap = cur; cur = trial; trial = swap;
        swap = res; res = res_t; res_t = swap;
        rnorm = rn_t;
        it += 1;
    }
    memcpy(out, cur, m * sizeof(double));
    out[m] = rnorm;
    free(mem);
    return it;
}

/* ------------------------------------------------------------------------
 * Packed-ANN hybrid
 * ------------------------------------------------------------------------ */

typedef struct {
    Model m;
    int n, nsec, feed;
    const int *strip;
    const long long *off, *hid;
    const double *net, *rlo, *rhi, *mh;
    double L, V, F, xF, alpha, eps, top, spB, spD;
    long long clamps;        /* clamp flags of the kernel calls that returned */
    /* kernel scratch and outputs (fz, Jz, Ju) */
    double *args, *s, *yl, *r, *pre, *act, *G, *zeta, *zneg, *e, *xb, *yt,
        *dxb, *dyt, *y_z, *dy_z, *fz, *Jz, *Ju;
    int *clamped;
    /* loop: the stage input Jacobian (n, 2) and the sensitivity
     * right-hand sides (column-major (N, n_p)); the augmented state
     * Jacobians and their factors are the model's dense stage factor */
    double *Ju_st, *bcol;
    void *mem;
} Hybrid;

/* Python's a / b of floats; b == 0 raises ZeroDivisionError */
static double py_div(Hybrid *hb, double a, double b)
{
    if (b == 0.0 && !hb->m.error)
        hb->m.error = ZERO_DIVISION;
    return a / b;
}

/* Python's x ** 2 of a float: libm pow of |x| (kept a call by
 * -fno-builtin-pow); a finite x with an infinite square raises
 * OverflowError */
static double py_square(Hybrid *hb, double x)
{
    double r = pow(fabs(x), 2.0);
    if (isinf(r) && isfinite(x) && !hb->m.error)
        hb->m.error = OVERFLOW;
    return r;
}

/* kernels.hybrid_rhs_jac and hybrid_assemble at z: f into fz and, when
 * want_jac, d f / d z into Jz (n, n) and d f / d (L, V) into Ju (n, 2). */
static void hybrid_kernel(Hybrid *hb, const double *z, int want_jac)
{
    const int n = hb->n, nsec = hb->nsec, feed = hb->feed;
    const double alpha = hb->alpha, eps = hb->eps, top = hb->top;
    const double L = hb->L, V = hb->V, F = hb->F, x_F = hb->xF, LF = L + F;
    const double *lo = hb->rlo, *hi = hb->rhi, *mh = hb->mh;
    double *s = hb->s, *act = hb->act, *xb = hb->xb, *yt = hb->yt;
    double *dxb = hb->dxb, *dyt = hb->dyt, *y_z = hb->y_z, *f = hb->fz;
    long long n_clamped = 0;
    long u;
    int k, j, i;

    /* scaled inputs: logit arguments of (z_up, y_lo) per section, then
     * the affine flow ratios */
    for (k = 0; k < nsec; k++) {
        const double zu = z[nsec - k], zl = z[nsec - 1 - k];
        const double yl = py_div(hb, alpha * zl, 1.0 + (alpha - 1.0) * zl);
        const double r = py_div(hb, hb->strip[k] ? LF : L, V);
        double c = py_min(py_max(zu, eps), top);
        hb->args[2 * k] = py_div(hb, c, 1.0 - c);
        c = py_min(py_max(yl, eps), top);
        hb->args[2 * k + 1] = py_div(hb, c, 1.0 - c);
        s[2 * nsec + k] = py_div(hb, 2.0 * (r - lo[k]), hi[k] - lo[k]) - 1.0;
        hb->yl[k] = yl;
        hb->r[k] = r;
    }
    ufunc(NP.log, NP.log_data, hb->args, s, 2 * nsec);

    /* hidden layer of all nets at once */
    for (k = 0, u = 0; k < nsec; k++) {
        const double *w = hb->net + hb->off[k];
        const long h = (long)hb->hid[k];
        for (j = 0; j < h; j++, u++) {
            const double p0 = w[3 * j] * s[2 * k];
            const double p1 = w[3 * j + 1] * s[2 * k + 1];
            const double p2 = w[3 * j + 2] * s[2 * nsec + k];
            hb->pre[u] = p0 + p1 + p2 + w[3 * h + j];
        }
    }
    ufunc(NP.tanh, NP.tanh_data, hb->pre, act, u);
    for (k = 0, u = 0; k < nsec; k++) {
        const double *w = hb->net + hb->off[k];
        const long h = (long)hb->hid[k];
        hb->zeta[k] = w[5 * h] + dot(h, w + 4 * h, 1, act + u, 1);
        hb->zneg[k] = hb->zeta[k] >= 0.0 ? -hb->zeta[k] : hb->zeta[k];
        u += h;
    }
    ufunc(NP.exp, NP.exp_data, hb->zneg, hb->e, nsec);

    for (k = 0; k < nsec; k++) {
        const double ek = hb->e[k];
        double xbk = hb->zeta[k] >= 0.0 ? py_div(hb, 1.0, 1.0 + ek)
                                         : py_div(hb, ek, 1.0 + ek);
        const int cl = xbk < eps || xbk > top;
        if (cl) {
            xbk = py_min(py_max(xbk, eps), top);
            n_clamped += 1;
        }
        hb->clamped[k] = cl;
        xb[k] = xbk;
        yt[k] = hb->yl[k] + hb->r[k] * (z[nsec - k] - xbk);
    }
    /* section partials: d xb and d y_top w.r.t. raw (z_up, z_lo, L, V) */
    if (want_jac) {
        for (k = 0, u = 0; k < nsec; k++) {
            const double *w = hb->net + hb->off[k];
            const long h = (long)hb->hid[k];
            for (j = 0; j < h; j++, u++)
                hb->G[u] = w[4 * h + j] * (1.0 - act[u] * act[u]);
        }
        for (k = 0, u = 0; k < nsec; k++) {
            const double *w = hb->net + hb->off[k];
            const long h = (long)hb->hid[k];
            const double zu = z[nsec - k], zl = z[nsec - 1 - k];
            const double yl = hb->yl[k], r = hb->r[k], xbk = xb[k];
            const double dyl = py_div(
                hb, alpha, py_square(hb, 1.0 + (alpha - 1.0) * zl));
            double du, dl, dr, *da = dxb + 4 * k, *dy = dyt + 4 * k;
            if (hb->clamped[k]) {
                du = dl = dr = 0.0;
            } else {
                const double *g = hb->G + u;
                const double g0 = dot(h, g, 1, w, 3);
                const double g1 = dot(h, g, 1, w + 1, 3);
                const double g2 = dot(h, g, 1, w + 2, 3);
                /* d logit / dx, zero where the logit input is clipped */
                const double du_s = (zu <= eps || zu >= top)
                    ? 0.0 : py_div(hb, 1.0, zu * (1.0 - zu));
                const double dl_s = (yl <= eps || yl >= top)
                    ? 0.0 : py_div(hb, 1.0, yl * (1.0 - yl));
                const double sig = xbk * (1.0 - xbk);
                du = sig * g0 * du_s;
                dl = sig * g1 * dl_s * dyl;
                dr = py_div(hb, sig * g2 * 2.0, hi[k] - lo[k]);
            }
            da[0] = du;
            da[1] = dl;
            da[2] = py_div(hb, dr, V);
            da[3] = py_div(hb, -dr * r, V);
            dy[0] = r * (1.0 - du);
            dy[1] = dyl - r * dl;
            dy[2] = py_div(hb, zu - xbk, V) - r * da[2];
            dy[3] = py_div(hb, -r * (zu - xbk), V) - r * da[3];
            u += h;
        }
    }

    /* hybrid_assemble: total condenser; every other stage takes liquid
     * from the section above and vapor from the section below (the
     * reboiler boils up V at its own y) */
    for (i = 0; i < n; i++)
        y_z[i] = py_div(hb, alpha * z[i], 1.0 + (alpha - 1.0) * z[i]);
    f[n - 1] = py_div(hb, V * (yt[0] - z[n - 1]), mh[n - 1]);
    for (i = 0; i < n - 1; i++) {
        const int ka = n - 2 - i, kb = n - 1 - i;
        const double Ls = hb->strip[ka] ? LF : L;
        const double vap = i == 0 ? V * (z[0] - y_z[0])
                                  : V * (yt[kb] - y_z[i]);
        double acc = Ls * (xb[ka] - z[i]) + vap;
        if (i == feed)
            acc = acc + F * (x_F - z[i]);
        f[i] = py_div(hb, acc, mh[i]);
    }
    if (want_jac) {
        double *Jz = hb->Jz, *Ju = hb->Ju, *dy_z = hb->dy_z;
        const double *d0 = dyt;
        double m;
        for (i = 0; i < n; i++) {
            const double d = 1.0 + (alpha - 1.0) * z[i];
            dy_z[i] = py_div(hb, alpha, d * d);
        }
        for (i = 0; i < n * n; i++)
            Jz[i] = 0.0;
        for (i = 0; i < 2 * n; i++)
            Ju[i] = 0.0;
        m = mh[n - 1];
        Jz[n * n - 1] = py_div(hb, V * (d0[0] - 1.0), m);
        Jz[n * n - 2] = py_div(hb, V * d0[1], m);
        Ju[2 * n - 2] = py_div(hb, V * d0[2], m);
        Ju[2 * n - 1] = py_div(hb, (yt[0] - z[n - 1]) + V * d0[3], m);
        for (i = 0; i < n - 1; i++) {
            const int ka = n - 2 - i, kb = n - 1 - i, row = i * n;
            const double Ls = hb->strip[ka] ? LF : L;
            const double *da = dxb + 4 * ka, *db = dyt + 4 * kb;
            double diag;
            m = mh[i];
            Jz[row + i + 1] = py_div(hb, Ls * da[0], m);
            if (i == 0) {
                Jz[0] = py_div(hb, Ls * (da[1] - 1.0) + V * (1.0 - dy_z[0]),
                               m);
                Ju[0] = py_div(hb, (xb[ka] - z[0]) + Ls * da[2], m);
                Ju[1] = py_div(hb, Ls * da[3] + (z[0] - y_z[0]), m);
                continue;
            }
            diag = Ls * (da[1] - 1.0) + V * (db[0] - dy_z[i]);
            if (i == feed)
                diag = diag - F;
            Jz[row + i] = py_div(hb, diag, m);
            Jz[row + i - 1] = py_div(hb, V * db[1], m);
            Ju[2 * i] = py_div(hb, (xb[ka] - z[i]) + Ls * da[2] + V * db[2],
                               m);
            Ju[2 * i + 1] = py_div(
                hb, Ls * da[3] + (yt[kb] - y_z[i]) + V * db[3], m);
        }
    }
    if (!hb->m.error)
        hb->clamps += n_clamped;
}

/* ocp's augmented rhs: the model, then (spB - x_B)^2 + (spD - x_D)^2 */
static void hybrid_rhs(Model *m, const double *y, double *f)
{
    Hybrid *hb = (Hybrid *)m;
    const int n = hb->n;
    double dev_b, dev_d;
    hybrid_kernel(hb, y, 0);
    if (m->error)
        return;
    memcpy(f, hb->fz, n * sizeof(double));
    dev_b = hb->spB - y[0];
    dev_d = hb->spD - y[n - 1];
    f[n] = dev_b * dev_b + dev_d * dev_d;
}

/* ocp's augmented Jacobian: the model's d f / d z and the quadrature row */
static void hybrid_jac(Model *m, const double *y, int stage)
{
    Hybrid *hb = (Hybrid *)m;
    const int n = hb->n;
    const long N = m->N;
    double *J = m->dense.J[stage];
    int i, j;
    hybrid_kernel(hb, y, 1);
    if (m->error)
        return;
    for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++)
            J[i * N + j] = hb->Jz[i * n + j];
        J[i * N + n] = 0.0;
    }
    for (j = 0; j <= n; j++)
        J[n * N + j] = 0.0;
    J[n * N] = -2.0 * (hb->spB - y[0]);
    J[n * N + n - 1] = -2.0 * (hb->spD - y[n - 1]);
    if (stage)
        memcpy(hb->Ju_st, hb->Ju, 2 * n * sizeof(double));
}

static void hybrid_keep(Model *m)
{
    memcpy(m->dense.J[0], m->dense.J[1], m->N * m->N * sizeof(double));
}

/* one getrs with all n_p right-hand sides, base + hg*G in column-major
 * order; G is zero but for the model rows of L and V (the last two) */
static void hybrid_sens_solve(Model *m, double hg, int n_p,
                              const double *base, double *out)
{
    Hybrid *hb = (Hybrid *)m;
    const long N = m->N;
    int q;
    long k;
    for (q = 0; q < n_p; q++)
        for (k = 0; k < N; k++) {
            const double g = (k < hb->n && q >= n_p - 2)
                ? hb->Ju_st[2 * k + q - (n_p - 2)] : 0.0;
            hb->bcol[q * N + k] = base[k * n_p + q] + hg * g;
        }
    dense_lu_solve(m, 1, n_p, hb->bcol);
    for (q = 0; q < n_p; q++)
        for (k = 0; k < N; k++)
            out[k * n_p + q] = hb->bcol[q * N + k];
}

/* p advanced past count doubles and a 64-byte gap: numpy's SIMD ufunc
 * loops take another path when input and output lie closer than one
 * vector, so a ufunc's input and output sit apart, as separately
 * allocated numpy arrays do */
static double *take(double **p, long count)
{
    double *a = *p;
    *p += count + 8;
    return a;
}

/* Set up hb for the net and layout; model is L, V, F, x_F, alpha, eps,
 * setpoint x_B, setpoint x_D.  Returns 0 when out of memory. */
static int hybrid_init(Hybrid *hb, int n, int feed, const int *strip,
                       const long long *off, const long long *hidden,
                       const double *net, const double *r_lo,
                       const double *r_hi, const double *m_hold,
                       const double *model, int n_p)
{
    const int nsec = n - 1;
    const long N = n + 1;
    long H = 0, count;
    double *p;
    int k;
    for (k = 0; k < nsec; k++)
        H += (long)hidden[k];
    count = 2 * nsec + 3 * nsec + 2 * nsec + 3 * H + 3 * nsec + 2 * nsec
            + 8 * nsec + 3 * n + n * n + 2 * n            /* kernel */
            + 2 * N * N + 2 * n + 2 * N * N + N * n_p     /* loop */
            + 8 * 30 + nsec + 2 * N;                      /* gaps, ints */
    hb->mem = malloc(sizeof(double) * count);
    if (!hb->mem)
        return 0;
    p = hb->mem;
    hb->args = take(&p, 2 * nsec);
    hb->s = take(&p, 3 * nsec);
    hb->yl = take(&p, nsec);
    hb->r = take(&p, nsec);
    hb->pre = take(&p, H);
    hb->act = take(&p, H);
    hb->G = take(&p, H);
    hb->zeta = take(&p, nsec);
    hb->zneg = take(&p, nsec);
    hb->e = take(&p, nsec);
    hb->xb = take(&p, nsec);
    hb->yt = take(&p, nsec);
    hb->dxb = take(&p, 4 * nsec);
    hb->dyt = take(&p, 4 * nsec);
    hb->y_z = take(&p, n);
    hb->dy_z = take(&p, n);
    hb->fz = take(&p, n);
    hb->Jz = take(&p, n * n);
    hb->Ju = take(&p, 2 * n);
    hb->m.dense.J[0] = take(&p, N * N);
    hb->m.dense.J[1] = take(&p, N * N);
    hb->Ju_st = take(&p, 2 * n);
    hb->m.dense.LU[0] = take(&p, N * N);
    hb->m.dense.LU[1] = take(&p, N * N);
    hb->bcol = take(&p, N * n_p);
    hb->clamped = (int *)p;
    hb->m.dense.piv[0] = hb->clamped + nsec;
    hb->m.dense.piv[1] = hb->m.dense.piv[0] + N;
    hb->m.N = N;
    hb->m.error = OK;
    hb->m.rhs = hybrid_rhs;
    hb->m.jac = hybrid_jac;
    hb->m.keep = hybrid_keep;
    hb->m.factor = dense_factor;
    hb->m.solve = dense_solve;
    hb->m.sens_solve = hybrid_sens_solve;
    hb->m.combine = matmul_combine;
    hb->n = n;
    hb->nsec = nsec;
    hb->feed = feed;
    hb->strip = strip;
    hb->off = off;
    hb->hid = hidden;
    hb->net = net;
    hb->rlo = r_lo;
    hb->rhi = r_hi;
    hb->mh = m_hold;
    hb->L = model[0];
    hb->V = model[1];
    hb->F = model[2];
    hb->xF = model[3];
    hb->alpha = model[4];
    hb->eps = model[5];
    hb->top = 1.0 - model[5];
    hb->spB = model[6];
    hb->spD = model[7];
    hb->clamps = 0;
    return 1;
}

/* One prediction segment [t0, t1] of the augmented packed-ANN hybrid.
 *
 * n, feed, strip   hybrid states, feed state, per-section L+F flags
 * off, hidden, net packed nets (kernels.hybrid_rhs_jac), r_lo, r_hi
 * m_hold           effective holdups (n)
 * model            L, V, F, x_F, alpha, eps, setpoint x_B, setpoint x_D
 * sens             (n + 1, n_p) row-major, as numpy's loop holds it
 * clamps           out: clamp flags of every kernel call that returned
 * the rest         as for segment(); L and V are the last two parameters
 */
int colnmpc_hybrid_segment(int n, int feed, const int *strip,
                           const long long *off, const long long *hidden,
                           const double *net, const double *r_lo,
                           const double *r_hi, const double *m_hold,
                           const double *model, double t0, double t1,
                           double h_init, double rtol, double atol,
                           long long max_steps, double *y, int n_p,
                           double *sens, long long *stats, double *times,
                           long long *clamps)
{
    Hybrid hb;
    int status;
    *clamps = 0;
    if (!hybrid_init(&hb, n, feed, strip, off, hidden, net, r_lo, r_hi,
                     m_hold, model, n_p))
        return NO_MEMORY;
    status = segment(&hb.m, t0, t1, h_init, rtol, atol, max_steps, y, n_p,
                     sens, stats, times);
    *clamps = hb.clamps;
    free(hb.mem);
    return status;
}

/* ------------------------------------------------------------------------
 * Levenberg-Marquardt fits of the learner
 * ------------------------------------------------------------------------ */

/* A weighted least-squares problem over n points (scaled inputs Z (n, 3),
 * target, normalized weights wn and sw = sqrt(wn)) and m parameters. */
typedef struct Fit Fit;
struct Fit {
    long n, m, hidden;
    const double *Z, *target, *wn, *sw;
    double *p, *pre, *act, *out, *e2; /* model scratch */
    double *r, *J;                    /* weighted residual (n), J (n, m) */
    /* r and J at x */
    void (*linearize)(Fit *f, const double *x);
    /* the objective dot(wn, e * e) at x, e the model's error */
    double (*objective)(Fit *f, const double *x);
};

/* lm_train's model: a tanh net with w in SurrogateModel.as_weight_vector's
 * layout (per node 3 input weights, bias, output weight; then the output
 * bias); out = eval_scaled(Z), act = _activations(Z) */
static void net_eval(Fit *f, const double *w)
{
    const long n = f->n, h = f->hidden;
    const double *Z = f->Z;
    long k, j;
    for (k = 0; k < n; k++)
        for (j = 0; j < h; j++)
            f->pre[k * h + j] = Z[3 * k] * w[5 * j]
                                + Z[3 * k + 1] * w[5 * j + 1]
                                + Z[3 * k + 2] * w[5 * j + 2]
                                + w[5 * j + 3];
    ufunc(NP.tanh, NP.tanh_data, f->pre, f->act, n * h);
    for (k = 0; k < n; k++) {
        double acc = w[5 * h];
        for (j = 0; j < h; j++)
            acc = acc + w[5 * j + 4] * f->act[k * h + j];
        f->out[k] = acc;
    }
}

static double net_objective(Fit *f, const double *w)
{
    long k;
    net_eval(f, w);
    for (k = 0; k < f->n; k++) {
        const double e = f->out[k] - f->target[k];
        f->e2[k] = e * e;
    }
    return np_dot(f->n, f->wn, 1, f->e2, 1);
}

/* residual (eval_scaled - zeta) * sw and weight_jacobian_scaled * sw */
static void net_linearize(Fit *f, const double *w)
{
    const long n = f->n, h = f->hidden, m = f->m;
    long k, j, c;
    net_eval(f, w);
    for (k = 0; k < n; k++) {
        const double s = f->sw[k];
        double *row = f->J + k * m;
        f->r[k] = (f->out[k] - f->target[k]) * s;
        for (j = 0; j < h; j++) {
            const double a = f->act[k * h + j];
            const double D = w[5 * j + 4] * (1.0 - a * a);
            for (c = 0; c < 3; c++)
                row[5 * j + c] = D * f->Z[3 * k + c] * s;
            row[5 * j + 3] = D * s;
            row[5 * j + 4] = a * s;
        }
        row[5 * h] = 1.0 * s;
    }
}

/* _fit_residual_node's model v * tanh(Z @ t[:3] + b), t = (w, b, v):
 * act = the tanh, with Z @ t[:3] as numpy's matmul does it (one row is
 * 0.0 + ddot, more rows a cblas dgemv) */
static void node_eval(Fit *f, const double *t)
{
    const long n = f->n;
    long k;
    if (n == 1)
        f->p[0] = 0.0 + NP.ddot(3, f->Z, 1, t, 1);
    else
        NP.dgemv(CBLAS_COL_MAJOR, CBLAS_TRANS, 3, n, 1.0, f->Z, 3, t, 1,
                 0.0, f->p, 1);
    for (k = 0; k < n; k++)
        f->pre[k] = f->p[k] + t[3];
    ufunc(NP.tanh, NP.tanh_data, f->pre, f->act, n);
}

static double node_objective(Fit *f, const double *t)
{
    long k;
    node_eval(f, t);
    for (k = 0; k < f->n; k++) {
        const double e = t[4] * f->act[k] - f->target[k];
        f->e2[k] = e * e;
    }
    return np_dot(f->n, f->wn, 1, f->e2, 1);
}

static void node_linearize(Fit *f, const double *t)
{
    long k, c;
    node_eval(f, t);
    for (k = 0; k < f->n; k++) {
        const double a = f->act[k], s = f->sw[k];
        const double da = t[4] * (1.0 - a * a);
        double *row = f->J + 5 * k;
        for (c = 0; c < 3; c++)
            row[c] = da * f->Z[3 * k + c] * s;
        row[3] = da * s;
        row[4] = a * s;
        f->r[k] = (t[4] * a - f->target[k]) * s;
    }
}

/* A = J.T @ J and g = J.T @ r as numpy's matmul does them: one row is
 * numpy's own loop (0.0 + products), more rows a cblas dsyrk of the upper
 * triangle, then mirrored, and a cblas dgemv */
static void normal_equations(const Fit *f, double *A, double *g)
{
    const long n = f->n, m = f->m;
    const double *J = f->J;
    long i, j;
    if (n == 1) {
        for (i = 0; i < m; i++) {
            for (j = 0; j < m; j++)
                A[i * m + j] = 0.0 + J[i] * J[j];
            g[i] = 0.0 + J[i] * f->r[0];
        }
        return;
    }
    NP.dsyrk(CBLAS_ROW_MAJOR, CBLAS_UPPER, CBLAS_TRANS, m, n, 1.0, J, m, 0.0,
             A, m);
    for (i = 0; i < m; i++)
        for (j = i + 1; j < m; j++)
            A[j * m + i] = A[i * m + j];
    NP.dgemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, n, m, 1.0, J, m, f->r, 1, 0.0, g,
             1);
}

/* learner._levenberg_marquardt from x (objective *objective), statement
 * for statement: x, *objective and *accepted are the result.  A solve is
 * singular, as np.linalg.solve raises LinAlgError, when dgesv reports
 * info > 0.  Returns OK or NO_MEMORY. */
static int levenberg_marquardt(Fit *f, double *x, double *objective,
                               long long max_steps, double goal,
                               double lambda0, double lambda_max,
                               long long *accepted)
{
    const long m = f->m;
    double *mem, *p, *A, *g, *d, *M, *delta, *trial, lam = lambda0;
    int64_t *piv, mm = m, one = 1, info;
    long i, j;

    *accepted = 0;
    mem = malloc(sizeof(double) * (2 * m * m + 5 * m));
    if (!mem)
        return NO_MEMORY;
    p = mem;
    A = p; p += m * m;
    M = p; p += m * m;
    g = p; p += m;
    d = p; p += m;
    delta = p; p += m;
    trial = p; p += m;
    piv = (int64_t *)p;

    while (*objective > goal && *accepted < max_steps) {
        int stepped = 0;
        f->linearize(f, x);
        normal_equations(f, A, g);
        for (i = 0; i < m; i++) {   /* np.maximum keeps a NaN */
            const double a = A[i * m + i];
            d[i] = (a >= 1e-12 || isnan(a)) ? a : 1e-12;
        }
        while (lam <= lambda_max) {
            double obj;
            /* A + lam * diag(d) in the column-major copy LAPACK is handed,
             * and -g */
            for (j = 0; j < m; j++)
                for (i = 0; i < m; i++)
                    M[j * m + i] = A[i * m + j] + lam * (i == j ? d[i] : 0.0);
            for (i = 0; i < m; i++)
                delta[i] = -g[i];
            info = 0;
            NP.dgesv(&mm, &one, M, &mm, piv, delta, &mm, &info);
            if (info > 0) {
                lam *= 10.0;
                continue;
            }
            for (i = 0; i < m; i++)
                trial[i] = x[i] + delta[i];
            obj = f->objective(f, trial);
            if (isfinite(obj) && obj < *objective) {
                memcpy(x, trial, m * sizeof(double));
                *objective = obj;
                lam = py_max(lam / 3.0, 1e-14);
                *accepted += 1;
                stepped = 1;
                break;
            }
            lam *= 10.0;
        }
        if (!stepped)
            break;  /* damping overflow: keep the best point found */
    }
    free(mem);
    return OK;
}

/* levenberg_marquardt on the model (linearize, objective) with m
 * parameters and `hidden` activations per point */
static int fit(Fit *f, long n, long m, long hidden, const double *Z,
               const double *target, const double *wn, const double *sw,
               double *x, double *objective, long long max_steps, double goal,
               const double *damping, long long *accepted)
{
    double *mem = malloc(sizeof(double) * (2 * n * hidden + 4 * n + n * m
                                           + 8 * 7));
    double *p = mem;
    int status;
    if (!mem)
        return NO_MEMORY;
    f->n = n;
    f->m = m;
    f->hidden = hidden;
    f->Z = Z;
    f->target = target;
    f->wn = wn;
    f->sw = sw;
    f->pre = take(&p, n * hidden);
    f->act = take(&p, n * hidden);
    f->p = take(&p, n);
    f->out = take(&p, n);
    f->e2 = take(&p, n);
    f->r = take(&p, n);
    f->J = take(&p, n * m);
    status = levenberg_marquardt(f, x, objective, max_steps, goal,
                                 damping[0], damping[1], accepted);
    free(mem);
    return status;
}

/* lm_train's fit over all weights w (5 * hidden + 1) of a tanh net on n
 * scaled inputs Z (n, 3), scaled targets zeta and weights wn, sw.
 *
 * w, objective   start and objective there on entry, result on return
 * damping        LM_LAMBDA0, LM_LAMBDA_MAX
 * accepted       out: accepted steps
 * Returns OK or NO_MEMORY. */
int colnmpc_fit_net(long long n, long long hidden, const double *Z,
                    const double *zeta, const double *wn, const double *sw,
                    double *w, double *objective, long long max_steps,
                    double goal, const double *damping, long long *accepted)
{
    Fit f;
    f.linearize = net_linearize;
    f.objective = net_objective;
    return fit(&f, n, 5 * hidden + 1, hidden, Z, zeta, wn, sw, w, objective,
               max_steps, goal, damping, accepted);
}

/* _fit_residual_node's fit of one node t = (w0, w1, w2, b, v) to the
 * residual res; the rest as for colnmpc_fit_net. */
int colnmpc_fit_node(long long n, const double *Z, const double *res,
                     const double *wn, const double *sw, double *t,
                     double *objective, long long max_steps, double goal,
                     const double *damping, long long *accepted)
{
    Fit f;
    f.linearize = node_linearize;
    f.objective = node_objective;
    return fit(&f, n, 5, 1, Z, res, wn, sw, t, objective, max_steps, goal,
               damping, accepted);
}
