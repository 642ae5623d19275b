/* Compiled prediction horizons, steady-state solves and learner fits.
 *
 * A prediction segment is ocp's augmented system [model states, tracking
 * quadrature] integrated over one interval by the SDIRK4 loop of
 * integrate.py, with forward sensitivities (segment()).  A prediction
 * horizon is every interval of ocp's horizon, each a segment that starts
 * where the one before ended, at its own move, from that one's accepted
 * step size, with the sensitivities widened by the new move's two zero
 * columns, as ocp's per-segment numpy loop runs them, in one call
 * (horizon(), over the model hook set_inputs).  One loop serves three
 * models:
 *
 * - the full-order column (colnmpc_full_horizon).  Its kernels keep the
 *   operations, in the order, of kernels.full_rhs, full_state_jac and
 *   full_input_jac and of ocp's quadrature row.  The stage matrix
 *   I - h*gamma*J is block lower-triangular (a tridiagonal column block
 *   plus the quadrature row), so the column block is factored without
 *   pivoting and the quadrature unknown follows by substitution.  The
 *   factor is twisted (two-ended): it eliminates from the top and from
 *   the bottom at once, and the two chains meet at the twist row n / 2,
 *   so every factor and solve is two interleaved chains of about n/2
 *   rows instead of one of n.  A zero or non-finite pivot, the twist
 *   pivot's included, is a failed factorization, as an exactly singular
 *   matrix is for LAPACK getrf.  The factor keeps the pivots'
 *   reciprocals, so the solves multiply where they would divide.  The
 *   five sensitivity-stage factors of an accepted step run in lock-step,
 *   row by row, so their ten chains of dependent divisions overlap, each
 *   with the operations of a factor of it alone.  A sensitivity stage
 *   solves all its columns in one pass over the rows, each column with
 *   the operations of a solve of it alone.  The
 *   sensitivities are (N, n_p) row-major, as numpy and the hybrid loop
 *   hold them, so a row update of that solve runs over contiguous
 *   entries, one per column.  The kernels' loops are branch-free (the
 *   feed row is written apart), so that the -O3 build (see _native.py)
 *   vectorises them, as it does the row updates, without changing a
 *   value.  The Jacobian's superdiagonal does not depend on the state
 *   and is filled once per interval, with its L.  It reaches no foreign
 *   routine.
 *   Results agree with the numpy loop to rounding.
 *
 * - the packed-ANN hybrid (colnmpc_hybrid_horizon).  Its kernel computes
 *   what kernels.hybrid_rhs_jac and hybrid_assemble compute, with the
 *   transcendentals batched across the sections: numpy's log/exp/tanh
 *   loops give the bits of the numpy kernel's per-section calls at any
 *   array length.  The loop does its linear algebra with the routines
 *   the numpy loop reaches: numpy's own float64 log/exp/tanh ufunc loops,
 *   numpy's cblas ddot and dgemv (a.dot(b), a @ X) and the LAPACK
 *   dgetrf/dgetrs of scipy (the dense stage factor; the routines that
 *   the f2py wrappers of scipy.linalg._flapack call, which integrate.py
 *   calls), on operands laid out as numpy lays them out.  Python-float
 *   arithmetic is C double arithmetic; a zero divisor and an overflowing
 *   `** 2` are reported, as Python raises ZeroDivisionError and
 *   OverflowError for them.
 *   Results are bitwise those of the numpy loop.
 *
 * - the plain full-order column of column.steady_state_solve's relaxation
 *   (colnmpc_full_relax, a horizon of one interval at fixed inputs): the
 *   column kernels without the quadrature, without sensitivities, on the
 *   hybrid's dense stage factor and numpy's stage combinations (cblas
 *   dgemv, scipy dgetrf/dgetrs).  A non-finite
 *   state is column.full_rhs's ValueError.  Results are bitwise those of
 *   the numpy loop.
 *
 * The loop mirrors integrate._run statement for statement (tableau,
 * initial step, clipping, step control, Newton test, counters, failure
 * paths, and the sensitivity stages, which run only for a step that has
 * passed the state error test, and neither forms the last stage's
 * slope, which no stage reads); each model supplies its rhs, Jacobians,
 * stage LU and the stage combinations sum_j a_j X_j.  A model keeps its
 * Jacobians and factors in slots: the step start's and one per
 * sensitivity stage, whose five Jacobians and factors it makes in one
 * call (stage_factors) once the step has passed the error test; the
 * loop then solves stage by stage, and counts and fails a stage where
 * integrate._run does.  Vectors add in numpy's pairwise order.
 *
 * The steady-state solves share one loop, column._ptc_steady over the
 * model interface (ptc_steady), as the segments share segment(); it
 * reaches numpy's cblas ddot (np.linalg.norm) and LAPACK dgesv
 * (np.linalg.solve).  Both loops stop at a fixed point, an accepted
 * iteration that changes neither the iterate's bytes nor dt (a component
 * on a bound gives a zero fraction-to-boundary step): every further
 * iteration would repeat it, so the result is that of all max_iter
 * iterations.  It serves two models:
 *
 * - the plain full-order column (colnmpc_full_steady);
 *
 * - the oracle hybrid (colnmpc_oracle_steady), column.hybrid_steady_state
 *   of a hybrid whose section models are all SectionOracles:
 *   HybridModel.evaluate's per-section path, with the section chain
 *   solve, SectionOracle.predict's implicit-function gradient (dgesv with
 *   three right-hand sides) and the aggregation-stage balances
 *   (hybrid_assemble, which the packed-ANN kernel shares).  A section's
 *   errors are reported as statuses, and its LinAlgError cuts dt, as the
 *   numpy loop's try does.
 *
 * kernels.section_chain_solve (colnmpc_chain_solve, chain_solve) reaches
 * no foreign routine.  Results are bitwise those of the numpy code.
 *
 * The learner's two operations on a net's weight vector are one call
 * each: fitting all weights (colnmpc_fit_net) and growing one node
 * (colnmpc_grow_node: the zero node, the residual, the multi-start fit of
 * the node and the refit of all weights).  Each fit is
 * learner._levenberg_marquardt for one of the learner's two residual
 * models, on numpy's tanh loop, cblas ddot, dgemv and dsyrk (J.T @ J) and
 * LAPACK dgesv (np.linalg.solve).  Results are bitwise those of the numpy
 * code.
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

/* SINGULAR is never returned: it is the LinAlgError a model's Jacobian may
 * raise, which the continuation catches */
enum { OK = 0, STEP_LIMIT = 1, UNDERFLOW = 2, NONFINITE_START = 3,
       NO_MEMORY = 4, ZERO_DIVISION = 5, OVERFLOW = 6, NONFINITE_STATE = 7,
       OUTSIDE_UNIT = 8, NONFINITE_SECTION = 9, BAD_SECTION = 10,
       SECTION_UNSOLVED = 11, SINGULAR = 12 };
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
 * integers) and scipy's LAPACK (what scipy.linalg._flapack calls). */
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

/* A model's Jacobians and stage factors live in STAGES + 1 slots: slot 0
 * is the step start's, slot 1 + i that of sensitivity stage i.  An
 * accepted step's slot STAGES (the Jacobian at its last stage state,
 * c = 1: the new step start) becomes slot 0 by a swap of the two slots'
 * storage (keep). */
enum { SLOTS = STAGES + 1 };

/* A dense state Jacobian (N, N) per slot, row-major as numpy holds it, and
 * the LAPACK factors of I - hg*J with their pivots, column-major as numpy
 * hands them to getrf */
typedef struct {
    double *J[SLOTS], *LU[SLOTS];
    int *piv[SLOTS];
} Dense;

typedef struct Model Model;
struct Model {
    long N;     /* states of the integrated system */
    int error;  /* first error a kernel raised (ZERO_DIVISION, OVERFLOW,
                 * NONFINITE_STATE, a section's error or SINGULAR), or OK */
    Dense dense; /* the dense stage factor's storage, when the model uses it */
    /* rhs of the augmented system at y */
    void (*rhs)(Model *m, const double *y, double *f);
    /* state Jacobian at y into a slot; the loops ask for slot 0, the
     * step start's (the stage slots are stage_factors' to fill) */
    void (*jac)(Model *m, const double *y, int slot);
    /* slot STAGES's Jacobian becomes the step-start one */
    void (*keep)(Model *m);
    /* factor I - hg*J of the step-start slot; 0 when it is singular */
    int (*factor)(Model *m, double hg);
    /* the Jacobians at the stage states Ys (STAGES, N), with the input
     * columns, into slots 1..STAGES and the factors of I - hg*J of each:
     * the number of leading stages factored.  A stage whose Jacobian
     * raised (m->error) or whose factor is singular ends the count; so
     * does every stage after it, which may or may not have run. */
    int (*stage_factors)(Model *m, const double *Ys, double hg);
    /* b = (I - hg*J)^-1 b with the step-start factors */
    void (*solve)(Model *m, double *b);
    /* out = (I - hg*J)^-1 (base + hg*G) with stage i's factors, G =
     * d rhs / d p (inputs last); base and out (N, n_p) row-major */
    void (*sens_solve)(Model *m, int stage, double hg, int n_p,
                       const double *base, double *out);
    /* out[k] = sum_j a[j] X[j][k] over rows >= 1 rows of length len */
    void (*combine)(const double *a, int rows, const double *X, long len,
                    double *out);
    /* the inputs L and V of the next interval (horizon()) */
    void (*set_inputs)(Model *m, double L, double V);
};

/* The dense stage factor, as integrate._lu_factor and _lu_solve run it:
 * getrf of eye - hg*J of a slot, in the column-major copy LAPACK is handed;
 * 0 when it is singular */
static int dense_factor(Model *m, int slot, double hg)
{
    const long N = m->N;
    const double *J = m->dense.J[slot];
    double *M = m->dense.LU[slot];
    int nn = (int)N, info = 0;
    long i, j;
    for (j = 0; j < N; j++)
        for (i = 0; i < N; i++)
            M[j * N + i] = (i == j ? 1.0 : 0.0) - hg * J[i * N + j];
    NP.dgetrf(&nn, &nn, M, &nn, m->dense.piv[slot], &info);
    return info == 0;
}

/* getrs of nrhs column-major right-hand sides b with a slot's factors */
static void dense_lu_solve(Model *m, int slot, int nrhs, double *b)
{
    char trans = 'N';
    int nn = (int)m->N, info = 0;
    NP.dgetrs(&trans, &nn, &nrhs, m->dense.LU[slot], &nn,
              m->dense.piv[slot], b, &nn, &info);
}

/* the step-start slot's dense_factor */
static int dense_start_factor(Model *m, double hg)
{
    return dense_factor(m, 0, hg);
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
 * n_p      with n_p > 0: sens is d y / d p (N, n_p) row-major, start
 *          on entry and end on return OK.  With n_p == 0 only the states
 *          are carried.
 * stats    steps accepted rejected newton_failures nfev njev nlu
 * times    out: [t when the loop stopped, accepted step size]
 *
 * A step runs its five Newton stages, keeping each stage state Y_i, and
 * the state error test; only a step that passes it runs the sensitivity
 * stages 0-4: the Jacobian J_i at Y_i in stage slot 1 + i, the factor of
 * I - hg*J_i and one solve each.  The Jacobians and factors depend only
 * on hg and the Y_i, so the model makes all five in one call
 * (stage_factors; the column runs the five factors interleaved, whose
 * chains of divisions would otherwise wait on each other), and the
 * solves follow stage by stage.  A failed sensitivity stage (a singular
 * factor) rejects the step as a failed Newton stage does, and a stage
 * whose Jacobian raised ends the segment with the model's error; either
 * counts its Jacobian and not its LU, and no later stage is counted.  So
 * a rejected step costs no stage Jacobian and no stage LU, and the
 * sensitivities and counters are those of a loop that runs each stage's
 * Jacobian, factor and solve in turn, operation for operation.
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
    double *mem, *p, *f0, *fbuf, *Ys, *Y, *pred, *d, *sc, *tmp, *K, *Ks,
        *base, *Stmp;
    const double *f_start;   /* rhs at y; after a step, a view of K[4] */
    /* the step-start slot holds the Jacobian at (t_jn, y); NAN: none */
    double t = t0, span = t1 - t0, h, h_accepted = 0.0, t_jn = NAN;
    int status = OK, i, conv, factored;
    long k;

    memset(stats, 0, 7 * sizeof(long long));
    times[0] = t0;
    times[1] = 0.0;
    mem = malloc(sizeof(double) * (6 * N + 2 * STAGES * N
                                   + (with_sens ? (STAGES + 1) * NS : 0)));
    if (!mem)
        return NO_MEMORY;
    p = mem;
    f0 = p; p += N;
    fbuf = p; p += N;
    pred = p; p += N;
    d = p; p += N;
    sc = p; p += N;
    tmp = p; p += N;
    Ys = p; p += STAGES * N;  /* the stage states Y_i */
    K = p; p += STAGES * N;
    Ks = base = Stmp = NULL;
    if (with_sens) {
        Ks = p; p += (STAGES - 1) * NS;  /* the last slope is never read */
        base = p; p += NS;
        Stmp = p; p += NS;
    }
    Y = Ys + (STAGES - 1) * N;  /* stiffly accurate: the step solution */

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
        if (!m->factor(m, hg)) {
            stats[NEWTON_FAILURES] += 1;
            h *= 0.3;
            continue;
        }
        stats[NLU] += 1;

        for (k = 0; k < N; k++)
            sc[k] = atol + rtol * fabs(y[k]);
        for (i = 0; i < STAGES; i++) {
            const double *prev = i ? K + (i - 1) * N : f_start;
            double *Yi = Ys + i * N;
            if (i) {
                m->combine(A[i], i, K, N, pred);
                for (k = 0; k < N; k++)
                    pred[k] = y[k] + h * pred[k];
            } else {
                memcpy(pred, y, N * sizeof(double));
            }
            for (k = 0; k < N; k++)
                Yi[k] = pred[k] + hg * prev[k];
            conv = newton_stage(m, Yi, pred, hg, sc, stats, fbuf, d);
            if (conv < 0) {
                status = m->error;
                goto done;
            }
            if (!conv) {
                failed = 1;
                break;
            }
            for (k = 0; k < N; k++)
                K[i * N + k] = (Yi[k] - pred[k]) / hg;
        }
        if (failed) {
            stats[NEWTON_FAILURES] += 1;
            stats[REJECTED] += 1;
            h *= 0.3;
            continue;
        }
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

        if (!(err <= 1.0)) {  /* a NaN error rejects too */
            stats[REJECTED] += 1;
            factor = SAFETY * pow(err, ERR_EXP);
            factor = factor > MIN_FACTOR ? factor : MIN_FACTOR;
            h *= factor < 0.5 ? factor : 0.5;
            h_accepted = h;
            continue;
        }

        /* the sensitivity stages of a step that passed the error test:
         * their Jacobians and factors at once, then a solve each, with
         * the counters and the failures of a stage where the stage loop
         * has them */
        factored = with_sens ? m->stage_factors(m, Ys, hg) : 0;
        for (i = 0; with_sens && i < STAGES; i++) {
            stats[NJEV] += 1;
            if (i == factored) {
                if (m->error) {
                    status = m->error;
                    goto done;
                }
                failed = 1;
                break;
            }
            if (i) {
                m->combine(A[i], i, Ks, NS, base);
                for (k = 0; k < NS; k++)
                    base[k] = sens[k] + h * base[k];
            } else {
                memcpy(base, sens, NS * sizeof(double));
            }
            stats[NLU] += 1;
            m->sens_solve(m, i, hg, n_p, base, Stmp);
            if (i < STAGES - 1)
                for (k = 0; k < NS; k++)
                    Ks[i * NS + k] = (Stmp[k] - base[k]) / hg;
        }
        if (failed) {
            stats[NEWTON_FAILURES] += 1;
            stats[REJECTED] += 1;
            h *= 0.3;
            continue;
        }

        /* As in _run, f_start is a view of K[4], kept on purpose.  Here it
         * is the rhs at the new y (stage 5 has c = 1); but a next step
         * that is rejected after its last stage overwrites K[4], and the
         * retry then reads that slope for its first stage's guess.  A copy
         * changes the steps taken (the hybrid work-counter pin moves from
         * 282 to 292 steps). */
        f_start = K + (STAGES - 1) * N;
        if (with_sens) {
            memcpy(sens, Stmp, NS * sizeof(double));
            m->keep(m);
            t_jn = t + C[STAGES - 1] * h;  /* the stage-5 Jacobian's */
        } else {
            t_jn = NAN;
        }
        t = t + h;
        memcpy(y, Y, N * sizeof(double));
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
    }
done:
    times[0] = t;
    times[1] = status == OK ? h_accepted : 0.0;
    free(mem);
    return status;
}

/* S (N, w) row-major becomes (N, w + 2), its two new columns zero: numpy's
 * grown[:, :-2] = S on a zeroed grown, in place.  The rows move from the
 * last one up, so none is overwritten before it has moved. */
static void widen(double *S, long N, int w)
{
    long r;
    for (r = N - 1; r >= 0; r--) {
        double *row = S + r * (w + 2);
        memmove(row, S + r * w, w * sizeof(double));
        row[w] = row[w + 1] = 0.0;
    }
}

/* A prediction horizon of model m: each interval [grid[i], grid[i + 1]],
 * i < G - 1, is one segment(), run as ocp's per-segment loop runs them.
 *
 * grid      G >= 2 increasing times
 * moves     NULL: the model's inputs are fixed.  Otherwise the M moves
 *           [L_0..L_{M-1}, V_0..V_{M-1}]; interval i holds move
 *           k = min(i, M - 1), set through the model's set_inputs
 * h_init    interval 0's first step size, or <= 0 to estimate one; each
 *           later interval starts from the accepted step size of the one
 *           before (its h_last)
 * max_steps the step cap of each interval
 * states    (G, N): row 0 the start on entry; row i + 1 the state at
 *           grid[i + 1] once interval i has run
 * n_p       0 (states only) or 2M.  Then sens (G, N, 2M) is d y / d moves,
 *           row-major, in the moves' order: row 0 zero (the start does not
 *           depend on them), row i + 1 at grid[i + 1], zero in the columns
 *           of moves not yet active.  An interval integrates the columns
 *           (L_0, V_0, ..., L_k, V_k) of the active moves, as the numpy
 *           loop holds them: a move's pair is appended, zero, when its
 *           first interval begins (widen()).
 * stats     the seven counters summed over the intervals run
 * times     out: [t where the last interval run stopped, its accepted
 *           step size (0 when it failed)]
 *
 * Stops at the first interval that fails, with its status; the counters
 * then include that interval's.  Returns as segment().
 */
static int horizon(Model *m, const double *grid, int G, const double *moves,
                   int M, double h_init, double rtol, double atol,
                   long long max_steps, double *states, int n_p,
                   double *sens, long long *stats, double *times)
{
    const long N = m->N;
    long long counts[7];
    double *S = NULL;
    int i, j, k, w = 0, status = OK;
    long r;

    memset(stats, 0, 7 * sizeof(long long));
    times[0] = grid[0];
    times[1] = 0.0;
    if (n_p) {
        S = malloc(sizeof(double) * N * n_p);
        if (!S)
            return NO_MEMORY;
        memset(sens, 0, N * n_p * sizeof(double));
    }
    for (i = 0; i + 1 < G; i++) {
        double *y = states + (i + 1) * N;
        memcpy(y, y - N, N * sizeof(double));
        k = i < M ? i : M - 1;
        if (moves)
            m->set_inputs(m, moves[k], moves[M + k]);
        if (n_p && w < 2 * (k + 1)) {
            widen(S, N, w);
            w += 2;
        }
        status = segment(m, grid[i], grid[i + 1], h_init, rtol, atol,
                         max_steps, y, w, S, counts, times);
        for (j = 0; j < 7; j++)
            stats[j] += counts[j];
        if (status)
            break;
        h_init = times[1];
        for (r = 0; n_p && r < N; r++) {
            double *out = sens + ((i + 1) * N + r) * n_p;
            for (j = 0; j < M; j++) {
                out[j] = 2 * j < w ? S[r * w + 2 * j] : 0.0;
                out[M + j] = 2 * j < w ? S[r * w + 2 * j + 1] : 0.0;
            }
        }
    }
    free(S);
    return status;
}

/* ------------------------------------------------------------------------
 * Full-order column
 * ------------------------------------------------------------------------ */

/* State Jacobian of the augmented system: the state-dependent part of the
 * tridiagonal column block (its superdiagonal is the Column's sup) and the
 * quadrature row (qB, qD in columns 0 and n-1); gL, gV is d f / d(L, V) of
 * the column block, filled only in the stage slots. */
typedef struct {
    double *sub, *dia, *gL, *gV;
    double qB, qD;
} Jac;

/* Twisted factors of I - hg*J, meeting at the twist row k = n / 2 (see
 * twisted_factors): the off-diagonals sub and sup of the column block,
 * the top chain's multipliers l (rows 1..k) and the bottom chain's u
 * (rows k..n-2), the reciprocals inv of all n pivots, and the quadrature
 * row (rB, rD).  sup, 0 - hg*sup of the Column, is one array that every
 * slot's factors share: the slots of a step are factored at its hg. */
typedef struct {
    double *sub, *sup, *l, *u, *inv;
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
    double *sup;             /* superdiagonal of the state Jacobian (n - 1):
                              * (L or L+F) / H, the same at every state */
    Jac J[SLOTS];
    Lu lu[SLOTS];
} Column;

/* kernels.full_rhs plus the quadrature (spB - x_B)^2 + (spD - x_D)^2.
 * The rows above liquid_lf, those below it and the feed row are three
 * loops, so that each loop body is branch-free; the feed row is written
 * last, with its feed term added before the division, as full_rhs adds
 * it. */
static void column_rhs(Model *m, const double *x, double *f)
{
    const Column *c = (const Column *)m;
    const int n = c->n, lf = c->liquid_lf, feed = c->feed;
    const double a = c->alpha, L = c->L, V = c->V, LF = L + c->F;
    const double *H = c->H;
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
    f[0] = (LF * (x[1] - x[0]) + V * (x[0] - y[0])) / H[0];
    for (i = 1; i < lf; i++)
        f[i] = (LF * (x[i + 1] - x[i]) + V * (y[i - 1] - y[i])) / H[i];
    for (i = lf; i < n - 1; i++)
        f[i] = (L * (x[i + 1] - x[i]) + V * (y[i - 1] - y[i])) / H[i];
    if (feed > 0)
        f[feed] = ((feed < lf ? LF : L) * (x[feed + 1] - x[feed])
                   + V * (y[feed - 1] - y[feed])
                   + c->F * (c->xF - x[feed])) / H[feed];
    f[n - 1] = V * (y[n - 2] - x[n - 1]) / H[n - 1];
    if (m->N == n)
        return;
    dev_b = c->spB - x[0];
    dev_d = c->spD - x[n - 1];
    f[n] = dev_b * dev_b + dev_d * dev_d;
}

/* kernels.full_state_jac (plus full_input_jac in a stage slot) and the
 * quadrature row; the diagonal's rows in three loops, as column_rhs's */
static void column_jac(Model *m, const double *x, int slot)
{
    Column *c = (Column *)m;
    Jac *J = &c->J[slot];
    const int n = c->n, lf = c->liquid_lf, feed = c->feed;
    const double a = c->alpha, L = c->L, V = c->V, F = c->F, LF = L + F;
    const double *H = c->H;
    double *dy = c->y_eq, *dia = J->dia, *sub = J->sub, *gL = J->gL,
        *gV = J->gV;
    int i;
    for (i = 0; i < n; i++) {
        double d = 1.0 + (a - 1.0) * x[i];
        dy[i] = a / (d * d);
    }
    dia[0] = (-LF + V * (1.0 - dy[0])) / H[0];
    for (i = 1; i < lf; i++)
        dia[i] = (-LF - V * dy[i]) / H[i];
    for (i = lf; i < n - 1; i++)
        dia[i] = (-L - V * dy[i]) / H[i];
    if (feed > 0)
        dia[feed] = ((-(feed < lf ? LF : L) - V * dy[feed]) - F) / H[feed];
    dia[n - 1] = -V / H[n - 1];
    for (i = 1; i < n; i++)
        sub[i] = V * dy[i - 1] / H[i];
    J->qB = -2.0 * (c->spB - x[0]);
    J->qD = -2.0 * (c->spD - x[n - 1]);
    if (!slot)
        return;
    for (i = 0; i < n; i++)
        dy[i] = a * x[i] / (1.0 + (a - 1.0) * x[i]);  /* now y */
    for (i = 0; i < n - 1; i++)
        gL[i] = (x[i + 1] - x[i]) / H[i];
    gL[n - 1] = 0.0;
    gV[0] = (x[0] - dy[0]) / H[0];
    for (i = 1; i < n - 1; i++)
        gV[i] = (dy[i - 1] - dy[i]) / H[i];
    gV[n - 1] = (dy[n - 2] - x[n - 1]) / H[n - 1];
}

/* column_jac of the plain column into the slot's dense Jacobian, as the
 * dense full_state_jac holds it */
static void column_dense_jac(Model *m, const double *x, int slot)
{
    const Column *c = (const Column *)m;
    const Jac *J = &c->J[slot];
    const int n = c->n;
    double *D = m->dense.J[slot];
    int i;
    column_jac(m, x, slot);
    memset(D, 0, (size_t)n * n * sizeof(double));
    for (i = 0; i < n; i++)
        D[i * n + i] = J->dia[i];
    for (i = 1; i < n; i++) {
        D[i * n + i - 1] = J->sub[i];
        D[(i - 1) * n + i] = c->sup[i - 1];
    }
}

static void column_keep(Model *m)
{
    Column *c = (Column *)m;
    const Jac J = c->J[0];
    c->J[0] = c->J[STAGES];
    c->J[STAGES] = J;
}

/* a pivot the factor can use: neither zero nor non-finite */
static int pivot_ok(double piv)
{
    return piv != 0.0 && isfinite(piv);
}

/* Factor I - hg*J of the count slots from first on (count <= STAGES),
 * each two-ended (a twisted factorization, Parlett & Dhillon, Linear
 * Algebra Appl. 267, 1997): one loop eliminates rows 1..k-1 from the top
 * and rows n-2..k+1 from the bottom, so each chain is about n/2 rows
 * long, and the chains meet at the twist row k = n / 2, whose pivot takes
 * both neighbours' multipliers.  With its rows weighted by the holdups
 * the block is column diagonally dominant (the column conserves mass, and
 * D = V - L and B = F + L - V are positive), so neither direction needs
 * pivoting.  Keeps the reciprocal of each pivot.  Each chain is a
 * sequence of dependent divisions, so the slots run in lock-step, row by
 * row, and the 2 * count chains of a row overlap; each chain carries its
 * last pivot's reciprocal in a local.  Every slot gets the operations, in
 * the order, of a factor of it alone.  Returns the number of leading
 * slots factored: a zero or non-finite pivot, the twist pivot's included,
 * fails its slot's factor.  Needs n >= 3, as a column with a feed tray
 * has. */
static inline int twisted_factors(Column *c, int first, int count,
                                  double hg)
{
    const int n = c->n, k = n / 2;
    double *sup = c->lu[first].sup;
    const double *dia[STAGES];
    double *sub[STAGES], *l[STAGES], *u[STAGES], *inv[STAGES];
    double top[STAGES], bot[STAGES];  /* the chains' last reciprocals */
    int ok[STAGES], i, j, s;
    for (i = 0; i < n - 1; i++)
        sup[i] = 0.0 - hg * c->sup[i];
    for (s = 0; s < count; s++) {
        const Jac *J = &c->J[first + s];
        Lu *lu = &c->lu[first + s];
        double pt, pb;
        dia[s] = J->dia;
        sub[s] = lu->sub;
        l[s] = lu->l;
        u[s] = lu->u;
        inv[s] = lu->inv;
        for (i = 1; i < n; i++)
            sub[s][i] = 0.0 - hg * J->sub[i];
        pt = 1.0 - hg * dia[s][0];
        pb = 1.0 - hg * dia[s][n - 1];
        ok[s] = pivot_ok(pt) & pivot_ok(pb);
        top[s] = inv[s][0] = 1.0 / pt;
        bot[s] = inv[s][n - 1] = 1.0 / pb;
        lu->rB = 0.0 - hg * J->qB;
        lu->rD = 0.0 - hg * J->qD;
    }
    for (i = 1, j = n - 2; i < k; i++, j--) {
        for (s = 0; s < count; s++) {
            const double li = sub[s][i] * top[s];
            const double piv = (1.0 - hg * dia[s][i]) - li * sup[i - 1];
            l[s][i] = li;
            ok[s] &= pivot_ok(piv);
            top[s] = inv[s][i] = 1.0 / piv;
        }
        if (j > k)
            for (s = 0; s < count; s++) {
                const double uj = sup[j] * bot[s];
                const double piv = (1.0 - hg * dia[s][j])
                                   - uj * sub[s][j + 1];
                u[s][j] = uj;
                ok[s] &= pivot_ok(piv);
                bot[s] = inv[s][j] = 1.0 / piv;
            }
    }
    /* the twist row; top and bot now hold inv[k - 1] and inv[k + 1] */
    for (s = 0; s < count; s++) {
        const double lk = sub[s][k] * top[s], uk = sup[k] * bot[s];
        const double piv = ((1.0 - hg * dia[s][k]) - lk * sup[k - 1])
                           - uk * sub[s][k + 1];
        l[s][k] = lk;
        u[s][k] = uk;
        ok[s] &= pivot_ok(piv);
        inv[s][k] = 1.0 / piv;
    }
    for (s = 0; s < count && ok[s]; s++)
        ;
    return s;
}

static int column_factor(Model *m, double hg)
{
    return twisted_factors((Column *)m, 0, 1, hg);
}

/* the five stage Jacobians, then their factors in lock-step */
static int column_stage_factors(Model *m, const double *Ys, double hg)
{
    int s;
    for (s = 0; s < STAGES; s++)
        column_jac(m, Ys + s * m->N, 1 + s);
    return twisted_factors((Column *)m, 1, STAGES, hg);
}

/* Solve (I - hg*J) x = b in place for cols right-hand sides, b (n + 1,
 * cols) row-major, with column_factor's twisted factors.  The forward
 * sweeps run down from row 0 and up from row n-1 in one loop and meet at
 * the twist row k, which is solved first; the back sweeps then run out
 * from k to both ends in one loop.  So each dependent chain is about n/2
 * rows long, and the quadrature unknown follows by substitution.  Each
 * row update runs over the row's cols contiguous entries, one per
 * column, so the columns' chains overlap too; each column gets the
 * operations, in the order, of a solve of that column alone. */
static void lu_solve(const Lu *lu, int n, int cols, double *b)
{
    const int k = n / 2;
    double *r, *rj, ci, cj;  /* the rows updated and their coefficients */
    int i, j, q;
    for (i = 1, j = n - 2; i < k; i++, j--) {
        r = b + (long)i * cols;
        ci = lu->l[i];
        for (q = 0; q < cols; q++)
            r[q] -= ci * r[q - cols];
        if (j > k) {
            rj = b + (long)j * cols;
            cj = lu->u[j];
            for (q = 0; q < cols; q++)
                rj[q] -= cj * rj[q + cols];
        }
    }
    r = b + (long)k * cols;
    ci = lu->l[k];
    cj = lu->u[k];
    for (q = 0; q < cols; q++)
        r[q] = ((r[q] - ci * r[q - cols]) - cj * r[q + cols]) * lu->inv[k];
    for (i = k - 1, j = k + 1; i >= 0; i--, j++) {
        r = b + (long)i * cols;
        ci = lu->sup[i];
        for (q = 0; q < cols; q++)
            r[q] = (r[q] - ci * r[q + cols]) * lu->inv[i];
        if (j < n) {
            rj = b + (long)j * cols;
            cj = lu->sub[j];
            for (q = 0; q < cols; q++)
                rj[q] = (rj[q] - cj * rj[q - cols]) * lu->inv[j];
        }
    }
    r = b + (long)n * cols;
    for (q = 0; q < cols; q++)
        r[q] = r[q] - (lu->rB * b[q] + lu->rD * r[q - cols]);
}

static void column_solve(Model *m, double *b)
{
    Column *c = (Column *)m;
    lu_solve(&c->lu[0], c->n, 1, b);
}

/* all columns in one solve, base and out (N, n_p) row-major; L and V are
 * the last two parameters */
static void column_sens_solve(Model *m, int stage, double hg, int n_p,
                              const double *base, double *out)
{
    Column *c = (Column *)m;
    const int n = c->n;
    const Jac *J = &c->J[1 + stage];
    int k;
    memcpy(out, base, n_p * m->N * sizeof(double));
    for (k = 0; k < n; k++) {
        out[(long)k * n_p + n_p - 2] += hg * J->gL[k];
        out[(long)k * n_p + n_p - 1] += hg * J->gV[k];
    }
    lu_solve(&c->lu[1 + stage], n, n_p, out);
}

/* row by row, so that each pass runs over contiguous entries and
 * vectorises; every entry still adds a[0] X[0][k] + a[1] X[1][k] + ...
 * in that order */
static void loop_combine(const double *a, int rows, const double *X,
                         long len, double *out)
{
    long k;
    int j;
    for (k = 0; k < len; k++)
        out[k] = a[0] * X[k];
    for (j = 1; j < rows; j++) {
        const double aj = a[j], *Xj = X + j * len;
        for (k = 0; k < len; k++)
            out[k] += aj * Xj[k];
    }
}

/* The arrays of n doubles each binder takes from a caller's buffer, so
 * the callers size their buffers from them: column_init (y_eq, sup),
 * bind_jac without and with the input columns, bind_lu (and the slots'
 * shared sup, one more). */
enum {
    INIT_ARRAYS = 2,
    JAC_ARRAYS = 2,
    JAC_INPUT_ARRAYS = 4,
    LU_ARRAYS = 4
};

static void bind_jac(Jac *J, double **p, int n, int inputs)
{
    J->sub = *p; *p += n;
    J->dia = *p; *p += n;
    if (inputs) {
        J->gL = *p; *p += n;
        J->gV = *p; *p += n;
    } else {
        J->gL = J->gV = NULL;
    }
}

static void bind_lu(Lu *lu, double **p, int n, double *sup)
{
    lu->sub = *p; *p += n;
    lu->sup = sup;
    lu->l = *p; *p += n;
    lu->u = *p; *p += n;
    lu->inv = *p; *p += n;
}

/* the inputs L and V, and the superdiagonal, which depends on L */
static void column_set_inputs(Model *m, double L, double V)
{
    Column *c = (Column *)m;
    int i;
    c->L = L;
    c->V = V;
    for (i = 0; i < c->n - 1; i++)
        c->sup[i] = (i < c->liquid_lf ? L + c->F : L) / c->H[i];
}

/* c for column size n, feed stage index feed, holdups (n) and model L, V,
 * F, x_F, alpha, integrating N states.  Binds y_eq and sup at *p (its
 * INIT_ARRAYS) and fills sup; the Jacobian and LU buffers are the
 * caller's to bind. */
static void column_init(Column *c, int n, int feed, const double *holdup,
                        const double *model, long N, double **p)
{
    memset(c, 0, sizeof(*c));
    c->m.N = N;
    c->m.error = OK;
    c->m.set_inputs = column_set_inputs;
    c->n = n;
    c->feed = (0 < feed && feed < n - 1) ? feed : -1;
    c->liquid_lf = feed > 1 ? feed : 1;
    c->F = model[2];
    c->xF = model[3];
    c->alpha = model[4];
    c->H = holdup;
    c->y_eq = *p; *p += n;
    c->sup = *p; *p += n;
    column_set_inputs(&c->m, model[0], model[1]);
}

/* The prediction horizon of the augmented full-order model.
 *
 * n, feed, holdup  column size, feed stage index, holdups (n)
 * model            -, -, F, x_F, alpha, setpoint x_B, setpoint x_D
 * sens             d y / d moves (G, n + 1, 2M), row-major
 * the rest         as for horizon(); moves is not NULL
 */
int colnmpc_full_horizon(int n, int feed, const double *holdup,
                         const double *model, const double *grid, int G,
                         const double *moves, int M, double h_init,
                         double rtol, double atol, long long max_steps,
                         double *states, int n_p, double *sens,
                         long long *stats, double *times)
{
    Column c;
    double *mem, *p, *sup;
    int status, s;

    mem = malloc(sizeof(double) * n
                 * (INIT_ARRAYS + SLOTS * (JAC_INPUT_ARRAYS + LU_ARRAYS)
                    + 1));
    if (!mem)
        return NO_MEMORY;
    p = mem;
    column_init(&c, n, feed, holdup, model, n + 1, &p);
    sup = p;
    p += n;
    for (s = 0; s < SLOTS; s++) {  /* keep swaps slots 0 and STAGES */
        bind_jac(&c.J[s], &p, n, 1);
        bind_lu(&c.lu[s], &p, n, sup);
    }
    c.m.rhs = column_rhs;
    c.m.jac = column_jac;
    c.m.keep = column_keep;
    c.m.factor = column_factor;
    c.m.stage_factors = column_stage_factors;
    c.m.solve = column_solve;
    c.m.sens_solve = column_sens_solve;
    c.m.combine = loop_combine;
    c.spB = model[5];
    c.spD = model[6];
    status = horizon(&c.m, grid, G, moves, M, h_init, rtol, atol, max_steps,
                     states, n_p, sens, stats, times);
    free(mem);
    return status;
}

/* column.steady_state_solve's relaxation: integrate on the plain column
 * (column.full_rhs and full_state_jacobian), without sensitivities, on
 * the dense stage factor and numpy's stage combinations, so the result
 * is bitwise that of the numpy loop.
 *
 * n, feed, holdup  column size, feed stage index, holdups (n)
 * model            L, V, F, x_F, alpha: the inputs are fixed
 * the rest         as for horizon(), whose one interval, G = 2, it is (the
 *                  numpy loop does not restart at a grid point); moves,
 *                  M, n_p and sens are not read
 * Returns as segment(), or NONFINITE_STATE (full_rhs's ValueError).
 */
int colnmpc_full_relax(int n, int feed, const double *holdup,
                       const double *model, const double *grid, int G,
                       const double *moves, int M, double h_init,
                       double rtol, double atol, long long max_steps,
                       double *states, int n_p, double *sens,
                       long long *stats, double *times)
{
    Column c;
    double *mem, *p;
    int status;

    (void)moves;
    (void)M;
    (void)n_p;
    (void)sens;
    /* two dense n x n slots and n pivots */
    mem = malloc(sizeof(double) * ((INIT_ARRAYS + JAC_ARRAYS) * n
                                   + 2 * n * n + n));
    if (!mem)
        return NO_MEMORY;
    p = mem;
    column_init(&c, n, feed, holdup, model, n, &p);
    bind_jac(&c.J[0], &p, n, 0);
    c.m.dense.J[0] = p; p += n * n;
    c.m.dense.LU[0] = p; p += n * n;
    c.m.dense.piv[0] = (int *)p;
    c.m.rhs = column_rhs;
    c.m.jac = column_dense_jac;
    c.m.factor = dense_start_factor;
    c.m.solve = dense_solve;
    c.m.combine = matmul_combine;  /* keep and sens_solve: no sensitivities */
    status = horizon(&c.m, grid, G, NULL, 0, h_init, rtol, atol, max_steps,
                     states, 0, NULL, stats, times);
    free(mem);
    return status;
}

/* np.linalg.norm(v): sqrt of v.dot(v) */
static double norm2(const double *v, long len)
{
    return sqrt(np_dot(len, v, 1, v, 1));
}

/* column._ptc_steady on model m (N states) statement for statement: fun is
 * m->rhs, and jac is m->jac(m, x, 0), which fills m->dense.J[0].  A model
 * error ends the loop, but for SINGULAR, the LinAlgError a Jacobian may
 * raise inside the numpy loop's try, which cuts dt as a singular step
 * does.  Each step solves (I/dt - J) step = f by numpy's LAPACK dgesv
 * (np.linalg.solve; a singular matrix is its LinAlgError), the norms are
 * numpy's ddot and sqrt, and fraction-to-boundary, clipping and dt control
 * are those of the numpy loop with Python's min, so the result is bitwise
 * that loop's.  Like it, the loop stops at a fixed point: an accepted
 * iteration that leaves the iterate byte for byte and dt unchanged.  An
 * iteration depends on (x, dt) alone, so every further one would repeat
 * it, and (x, converged) are those of max_iter iterations.  Like it, the
 * loop evaluates the Jacobian once per iterate: a rejected trial or a
 * singular dgesv changes only dt, and the next iteration reuses the
 * Jacobian at the unchanged x (the models' rhs leaves dense.J[0] alone);
 * a Jacobian that raised SINGULAR is evaluated again.
 *
 * tol, dt0, max_iter   as for _ptc_steady
 * x                start on entry, the last iterate on return OK
 * converged        out: 1 when max |f| <= tol at the end, else 0
 * Returns OK, NO_MEMORY or the model's error.
 */
static int ptc_steady(Model *m, double tol, double dt0, long long max_iter,
                      double *x, long long *converged)
{
    const long n = m->N;
    const double *J = m->dense.J[0];
    double *mem, *p, *f, *ft, *xt, *step, *A, *swap, dt = dt0, dt_new, fn,
        fnt, diag, off;
    int64_t *piv, nn = n, one = 1, info;
    long long it;
    long i, j;
    int status = OK, have_jac = 0;  /* dense.J[0] holds the Jacobian at x */

    *converged = 0;
    mem = malloc(sizeof(double) * (5 * n + n * n));
    if (!mem)
        return NO_MEMORY;
    p = mem;
    f = p; p += n;
    ft = p; p += n;
    xt = p; p += n;
    step = p; p += n;
    A = p; p += n * n;
    piv = (int64_t *)p;

    for (i = 0; i < n; i++)
        x[i] = clip01(x[i]);
    m->rhs(m, x, f);
    if (m->error) {
        status = m->error;
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
        if (!have_jac) {
            m->jac(m, x, 0);
            if (m->error == SINGULAR) {
                m->error = OK;
                dt *= 0.25;
                continue;
            }
            if (m->error) {
                status = m->error;
                goto done;
            }
            have_jac = 1;
        }
        /* I / dt - J in the column-major copy LAPACK is handed, and f;
         * numpy's I / dt divides each entry by dt, which gives the two
         * quotients below */
        diag = 1.0 / dt;
        off = 0.0 / dt;
        for (j = 0; j < n; j++)
            for (i = 0; i < n; i++)
                A[j * n + i] = (i == j ? diag : off) - J[i * n + j];
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
        m->rhs(m, xt, ft);
        if (m->error) {
            status = m->error;
            goto done;
        }
        fnt = norm2(ft, n);
        if (!isfinite(fnt) || fnt > 2.0 * fn) {
            dt *= 0.5;
            if (dt < 1e-8)
                goto done;
            continue;
        }
        dt_new = lam == 1.0 ? py_min(dt * 2.0, 1e16) : dt;
        if (dt_new == dt && memcmp(x, xt, n * sizeof(double)) == 0)
            break;  /* a fixed point: every further iteration repeats it */
        memcpy(x, xt, n * sizeof(double));
        have_jac = 0;
        swap = f;
        f = ft;
        ft = swap;
        fn = fnt;
        dt = dt_new;
    }
    *converged = max_abs(f, n) <= tol;
done:
    free(mem);
    return status;
}

/* column._ptc_steady on the plain column (column.full_rhs and
 * full_state_jacobian), so the result is bitwise the numpy loop's.
 *
 * n, feed, holdup  column size, feed stage index, holdups (n)
 * model            L, V, F, x_F, alpha
 * the rest         as for ptc_steady()
 * Returns OK, NO_MEMORY or NONFINITE_STATE (full_rhs's ValueError).
 */
int colnmpc_full_steady(int n, int feed, const double *holdup,
                        const double *model, double tol, double dt0,
                        long long max_iter, double *x, long long *converged)
{
    Column c;
    double *mem, *p;
    int status;

    *converged = 0;
    mem = malloc(sizeof(double) * ((INIT_ARRAYS + JAC_ARRAYS) * n + n * n));
    if (!mem)
        return NO_MEMORY;
    p = mem;
    column_init(&c, n, feed, holdup, model, n, &p);
    bind_jac(&c.J[0], &p, n, 0);
    c.m.dense.J[0] = p;
    c.m.rhs = column_rhs;
    c.m.jac = column_dense_jac;
    status = ptc_steady(&c.m, tol, dt0, max_iter, x, converged);
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
 * work    scratch (9 m)
 * out     tray compositions (m), top tray first, then max |residual|
 *         there
 * Returns the Newton iterations.
 */
static long long chain_solve(double x_up, double y_lo, double r, long long m,
                             double alpha, double tol, long long max_iter,
                             double *work, double *out)
{
    double *p = work, *cur, *res, *trial, *res_t, *yv, *dyv, *diag, *b, *step,
        *swap, rnorm, rn_t, guess;
    long long it = 0;
    long t;

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
    return it;
}

/* chain_solve() with its own scratch; returns its iterations, or
 * -NO_MEMORY */
long long colnmpc_chain_solve(double x_up, double y_lo, double r,
                              long long m, double alpha, double tol,
                              long long max_iter, double *out)
{
    double *work = malloc(sizeof(double) * 9 * m);
    long long it;
    if (!work)
        return -NO_MEMORY;
    it = chain_solve(x_up, y_lo, r, m, alpha, tol, max_iter, work, out);
    free(work);
    return it;
}

/* ------------------------------------------------------------------------
 * Packed-ANN hybrid
 * ------------------------------------------------------------------------ */

/* Python's a / b of floats; b == 0 raises ZeroDivisionError */
static double py_div(Model *m, double a, double b)
{
    if (b == 0.0 && !m->error)
        m->error = ZERO_DIVISION;
    return a / b;
}

/* Python's x ** 2 of a float: libm pow of |x| (kept a call by
 * -fno-builtin-pow); a finite x with an infinite square raises
 * OverflowError */
static double py_square(Model *m, double x)
{
    double r = pow(fabs(x), 2.0);
    if (isinf(r) && isfinite(x) && !m->error)
        m->error = OVERFLOW;
    return r;
}

/* The aggregation-stage balances of a hybrid model of any layout
 * (kernels.hybrid_assemble): the layout and inputs, the section values it
 * reads and the outputs it writes */
typedef struct {
    int n, feed;            /* hybrid states, feed state */
    const int *strip;       /* per section: liquid flow is L+F */
    const double *mh;       /* effective holdups (n) */
    double L, V, F, xF, alpha;
    /* per section, top-down: liquid leaving the bottom, vapor leaving the
     * top, and their partials w.r.t. raw (z_up, z_lo, L, V) (4 each) */
    double *xb, *yt, *dxb, *dyt;
    double *y_z, *dy_z;     /* scratch (n) */
    double *fz, *Jz, *Ju;   /* f (n), df/dz (n, n), df/d(L, V) (n, 2) */
} Stages;

/* kernels.hybrid_assemble at z: f into fz and, when want_jac, d f / d z
 * into Jz and d f / d (L, V) into Ju; a zero divisor is m's error */
static void hybrid_assemble(Model *m, const Stages *st, const double *z,
                            int want_jac)
{
    const int n = st->n, feed = st->feed;
    const double alpha = st->alpha, L = st->L, V = st->V, F = st->F,
        x_F = st->xF, LF = L + F;
    const double *mh = st->mh, *xb = st->xb, *yt = st->yt, *dxb = st->dxb,
        *dyt = st->dyt;
    double *y_z = st->y_z, *f = st->fz;
    int i;

    /* total condenser; every other stage takes liquid from the section
     * above and vapor from the section below (the reboiler boils up V at
     * its own y) */
    for (i = 0; i < n; i++)
        y_z[i] = py_div(m, alpha * z[i], 1.0 + (alpha - 1.0) * z[i]);
    f[n - 1] = py_div(m, V * (yt[0] - z[n - 1]), mh[n - 1]);
    for (i = 0; i < n - 1; i++) {
        const int ka = n - 2 - i, kb = n - 1 - i;
        const double Ls = st->strip[ka] ? LF : L;
        const double vap = i == 0 ? V * (z[0] - y_z[0])
                                  : V * (yt[kb] - y_z[i]);
        double acc = Ls * (xb[ka] - z[i]) + vap;
        if (i == feed)
            acc = acc + F * (x_F - z[i]);
        f[i] = py_div(m, acc, mh[i]);
    }
    if (want_jac) {
        double *Jz = st->Jz, *Ju = st->Ju, *dy_z = st->dy_z;
        const double *d0 = dyt;
        double h;
        for (i = 0; i < n; i++) {
            const double d = 1.0 + (alpha - 1.0) * z[i];
            dy_z[i] = py_div(m, alpha, d * d);
        }
        for (i = 0; i < n * n; i++)
            Jz[i] = 0.0;
        for (i = 0; i < 2 * n; i++)
            Ju[i] = 0.0;
        h = mh[n - 1];
        Jz[n * n - 1] = py_div(m, V * (d0[0] - 1.0), h);
        Jz[n * n - 2] = py_div(m, V * d0[1], h);
        Ju[2 * n - 2] = py_div(m, V * d0[2], h);
        Ju[2 * n - 1] = py_div(m, (yt[0] - z[n - 1]) + V * d0[3], h);
        for (i = 0; i < n - 1; i++) {
            const int ka = n - 2 - i, kb = n - 1 - i, row = i * n;
            const double Ls = st->strip[ka] ? LF : L;
            const double *da = dxb + 4 * ka, *db = dyt + 4 * kb;
            double diag;
            h = mh[i];
            Jz[row + i + 1] = py_div(m, Ls * da[0], h);
            if (i == 0) {
                Jz[0] = py_div(m, Ls * (da[1] - 1.0) + V * (1.0 - dy_z[0]),
                               h);
                Ju[0] = py_div(m, (xb[ka] - z[0]) + Ls * da[2], h);
                Ju[1] = py_div(m, Ls * da[3] + (z[0] - y_z[0]), h);
                continue;
            }
            diag = Ls * (da[1] - 1.0) + V * (db[0] - dy_z[i]);
            if (i == feed)
                diag = diag - F;
            Jz[row + i] = py_div(m, diag, h);
            Jz[row + i - 1] = py_div(m, V * db[1], h);
            Ju[2 * i] = py_div(m, (xb[ka] - z[i]) + Ls * da[2] + V * db[2],
                               h);
            Ju[2 * i + 1] = py_div(
                m, Ls * da[3] + (yt[kb] - y_z[i]) + V * db[3], h);
        }
    }
}

/* kernels.section_partials, into da (of x_bot) and dy (of y_top) */
static void section_partials(Model *m, double du, double dl, double dr,
                             double dyl, double zu, double xb, double r,
                             double V, double *da, double *dy)
{
    da[0] = du;
    da[1] = dl;
    da[2] = py_div(m, dr, V);
    da[3] = py_div(m, -dr * r, V);
    dy[0] = r * (1.0 - du);
    dy[1] = dyl - r * dl;
    dy[2] = py_div(m, zu - xb, V) - r * da[2];
    dy[3] = py_div(m, -r * (zu - xb), V) - r * da[3];
}

typedef struct {
    Model m;
    Stages st;
    int nsec;
    const long long *off, *hid;
    const double *net, *rlo, *rhi;
    double eps, top, spB, spD;
    long long clamps;        /* clamp flags of the kernel calls that returned */
    /* kernel scratch */
    double *args, *s, *yl, *r, *pre, *act, *G, *zeta, *zneg, *e;
    int *clamped;
    /* loop: each stage's input Jacobian (n, 2) and the sensitivity
     * right-hand sides (column-major (N, n_p)); the augmented state
     * Jacobians and their factors are the model's dense stage factor */
    double *Ju[STAGES], *bcol;
    void *mem;
} Hybrid;

/* kernels.hybrid_rhs_jac at z: the section values and partials of the
 * packed nets, then the balances.  The logs, tanhs and exps of all
 * sections are one ufunc call each, the bits of the numpy kernel's
 * per-section calls (kernels' module docstring) */
static void hybrid_kernel(Hybrid *hb, const double *z, int want_jac)
{
    Model *m = &hb->m;
    const Stages *st = &hb->st;
    const int nsec = hb->nsec;
    const double alpha = st->alpha, eps = hb->eps, top = hb->top;
    const double L = st->L, V = st->V, LF = L + st->F;
    const double *lo = hb->rlo, *hi = hb->rhi;
    double *s = hb->s, *act = hb->act, *xb = st->xb, *yt = st->yt;
    long long n_clamped = 0;
    long u;
    int k, j;

    /* scaled inputs: logit arguments of (z_up, y_lo) per section, then
     * the affine flow ratios */
    for (k = 0; k < nsec; k++) {
        const double zu = z[nsec - k], zl = z[nsec - 1 - k];
        const double yl = py_div(m, alpha * zl, 1.0 + (alpha - 1.0) * zl);
        const double r = py_div(m, st->strip[k] ? LF : L, V);
        double c = py_min(py_max(zu, eps), top);
        hb->args[2 * k] = py_div(m, c, 1.0 - c);
        c = py_min(py_max(yl, eps), top);
        hb->args[2 * k + 1] = py_div(m, c, 1.0 - c);
        s[2 * nsec + k] = py_div(m, 2.0 * (r - lo[k]), hi[k] - lo[k]) - 1.0;
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
        double xbk = hb->zeta[k] >= 0.0 ? py_div(m, 1.0, 1.0 + ek)
                                         : py_div(m, ek, 1.0 + ek);
        const int cl = xbk < eps || xbk > top;
        if (cl) {
            xbk = py_min(py_max(xbk, eps), top);
            n_clamped += 1;
        }
        hb->clamped[k] = cl;
        xb[k] = xbk;
        yt[k] = hb->yl[k] + hb->r[k] * (z[nsec - k] - xbk);
    }
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
                m, alpha, py_square(m, 1.0 + (alpha - 1.0) * zl));
            double du, dl, dr;
            if (hb->clamped[k]) {
                du = dl = dr = 0.0;
            } else {
                const double *g = hb->G + u;
                const double g0 = dot(h, g, 1, w, 3);
                const double g1 = dot(h, g, 1, w + 1, 3);
                const double g2 = dot(h, g, 1, w + 2, 3);
                /* d logit / dx, zero where the logit input is clipped */
                const double du_s = (zu <= eps || zu >= top)
                    ? 0.0 : py_div(m, 1.0, zu * (1.0 - zu));
                const double dl_s = (yl <= eps || yl >= top)
                    ? 0.0 : py_div(m, 1.0, yl * (1.0 - yl));
                const double sig = xbk * (1.0 - xbk);
                du = sig * g0 * du_s;
                dl = sig * g1 * dl_s * dyl;
                dr = py_div(m, sig * g2 * 2.0, hi[k] - lo[k]);
            }
            section_partials(m, du, dl, dr, dyl, zu, xbk, r, V,
                             st->dxb + 4 * k, st->dyt + 4 * k);
            u += h;
        }
    }
    hybrid_assemble(m, st, z, want_jac);
    if (!m->error)
        hb->clamps += n_clamped;
}

/* ocp's augmented rhs: the model, then (spB - x_B)^2 + (spD - x_D)^2 */
static void hybrid_rhs(Model *m, const double *y, double *f)
{
    Hybrid *hb = (Hybrid *)m;
    const int n = hb->st.n;
    double dev_b, dev_d;
    hybrid_kernel(hb, y, 0);
    if (m->error)
        return;
    memcpy(f, hb->st.fz, n * sizeof(double));
    dev_b = hb->spB - y[0];
    dev_d = hb->spD - y[n - 1];
    f[n] = dev_b * dev_b + dev_d * dev_d;
}

/* ocp's augmented Jacobian: the model's d f / d z and the quadrature row,
 * and in a stage slot the input Jacobian */
static void hybrid_jac(Model *m, const double *y, int slot)
{
    Hybrid *hb = (Hybrid *)m;
    const int n = hb->st.n;
    const long N = m->N;
    double *J = m->dense.J[slot];
    int i, j;
    hybrid_kernel(hb, y, 1);
    if (m->error)
        return;
    for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++)
            J[i * N + j] = hb->st.Jz[i * n + j];
        J[i * N + n] = 0.0;
    }
    for (j = 0; j <= n; j++)
        J[n * N + j] = 0.0;
    J[n * N] = -2.0 * (hb->spB - y[0]);
    J[n * N + n - 1] = -2.0 * (hb->spD - y[n - 1]);
    if (slot)
        memcpy(hb->Ju[slot - 1], hb->st.Ju, 2 * n * sizeof(double));
}

static void hybrid_keep(Model *m)
{
    double *J = m->dense.J[0];
    m->dense.J[0] = m->dense.J[STAGES];
    m->dense.J[STAGES] = J;
}

/* each stage's Jacobian and getrf in turn, up to the first that fails */
static int hybrid_stage_factors(Model *m, const double *Ys, double hg)
{
    int s;
    for (s = 0; s < STAGES; s++) {
        hybrid_jac(m, Ys + s * m->N, 1 + s);
        if (m->error || !dense_factor(m, 1 + s, hg))
            break;
    }
    return s;
}

static void hybrid_set_inputs(Model *m, double L, double V)
{
    Hybrid *hb = (Hybrid *)m;
    hb->st.L = L;
    hb->st.V = V;
}

/* one getrs with all n_p right-hand sides, base + hg*G in column-major
 * order; G is zero but for the model rows of L and V (the last two) */
static void hybrid_sens_solve(Model *m, int stage, double hg, int n_p,
                              const double *base, double *out)
{
    Hybrid *hb = (Hybrid *)m;
    const long N = m->N;
    const double *Ju = hb->Ju[stage];
    int q;
    long k;
    for (q = 0; q < n_p; q++)
        for (k = 0; k < N; k++) {
            const double g = (k < hb->st.n && q >= n_p - 2)
                ? Ju[2 * k + q - (n_p - 2)] : 0.0;
            hb->bcol[q * N + k] = base[k * n_p + q] + hg * g;
        }
    dense_lu_solve(m, 1 + stage, n_p, hb->bcol);
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

/* Set up hb for the net and layout and n_p sensitivity columns at most;
 * model is L, V, F, x_F, alpha, eps, setpoint x_B, setpoint x_D.  Returns
 * 0 when out of memory. */
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
            + SLOTS * 2 * N * N + STAGES * 2 * n + N * n_p  /* loop */
            + 8 * (19 + 2 * SLOTS + STAGES + 1)           /* gaps */
            + nsec + SLOTS * N;                           /* ints */
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
    hb->st.xb = take(&p, nsec);
    hb->st.yt = take(&p, nsec);
    hb->st.dxb = take(&p, 4 * nsec);
    hb->st.dyt = take(&p, 4 * nsec);
    hb->st.y_z = take(&p, n);
    hb->st.dy_z = take(&p, n);
    hb->st.fz = take(&p, n);
    hb->st.Jz = take(&p, n * n);
    hb->st.Ju = take(&p, 2 * n);
    for (k = 0; k < SLOTS; k++)
        hb->m.dense.J[k] = take(&p, N * N);
    for (k = 0; k < STAGES; k++)
        hb->Ju[k] = take(&p, 2 * n);
    for (k = 0; k < SLOTS; k++)
        hb->m.dense.LU[k] = take(&p, N * N);
    hb->bcol = take(&p, N * n_p);
    hb->clamped = (int *)p;
    for (k = 0; k < SLOTS; k++)
        hb->m.dense.piv[k] = hb->clamped + nsec + k * N;
    hb->m.N = N;
    hb->m.error = OK;
    hb->m.rhs = hybrid_rhs;
    hb->m.jac = hybrid_jac;
    hb->m.keep = hybrid_keep;
    hb->m.factor = dense_start_factor;
    hb->m.stage_factors = hybrid_stage_factors;
    hb->m.solve = dense_solve;
    hb->m.sens_solve = hybrid_sens_solve;
    hb->m.combine = matmul_combine;
    hb->m.set_inputs = hybrid_set_inputs;
    hb->st.n = n;
    hb->nsec = nsec;
    hb->st.feed = feed;
    hb->st.strip = strip;
    hb->off = off;
    hb->hid = hidden;
    hb->net = net;
    hb->rlo = r_lo;
    hb->rhi = r_hi;
    hb->st.mh = m_hold;
    hb->st.L = model[0];
    hb->st.V = model[1];
    hb->st.F = model[2];
    hb->st.xF = model[3];
    hb->st.alpha = model[4];
    hb->eps = model[5];
    hb->top = 1.0 - model[5];
    hb->spB = model[6];
    hb->spD = model[7];
    hb->clamps = 0;
    return 1;
}

/* The prediction horizon of the augmented packed-ANN hybrid.
 *
 * n, feed, strip   hybrid states, feed state, per-section L+F flags
 * off, hidden, net packed nets (kernels.hybrid_rhs_jac), r_lo, r_hi
 * m_hold           effective holdups (n)
 * model            -, -, F, x_F, alpha, eps, setpoint x_B, setpoint x_D
 * sens             d y / d moves (G, n + 1, 2M), row-major
 * clamps           out: clamp flags of every kernel call that returned
 * the rest         as for horizon(); moves is not NULL
 */
int colnmpc_hybrid_horizon(int n, int feed, const int *strip,
                           const long long *off, const long long *hidden,
                           const double *net, const double *r_lo,
                           const double *r_hi, const double *m_hold,
                           const double *model, const double *grid, int G,
                           const double *moves, int M, double h_init,
                           double rtol, double atol, long long max_steps,
                           double *states, int n_p, double *sens,
                           long long *stats, double *times,
                           long long *clamps)
{
    Hybrid hb;
    int status;
    *clamps = 0;
    if (!hybrid_init(&hb, n, feed, strip, off, hidden, net, r_lo, r_hi,
                     m_hold, model, n_p))
        return NO_MEMORY;
    status = horizon(&hb.m, grid, G, moves, M, h_init, rtol, atol,
                     max_steps, states, n_p, sens, stats, times);
    *clamps = hb.clamps;
    free(hb.mem);
    return status;
}

/* ------------------------------------------------------------------------
 * Oracle hybrid
 * ------------------------------------------------------------------------ */

/* A hybrid model whose section models are all column.SectionOracle:
 * HybridModel.evaluate on its per-section path, as rhs (want_jac 0) and as
 * the Jacobian d f / d z (want_jac 1), which is the dense slot 0 */
typedef struct {
    Model m;
    Stages st;
    int nsec;
    const long long *trays;  /* per section: its oracle's tray count */
    /* per section: its oracle's alpha and tol, and the flow ratio */
    const double *sec;
    long long iterations;    /* a section solve above tol: its iterations */
    double residual;         /* and its residual */
    /* section scratch: the chain solve's (9 m) and its output (m + 1), the
     * equilibrium slopes (m), the column-major tray Jacobian (m, m) and
     * right-hand sides (m, 3) of the gradient solve, and its pivots */
    double *work, *xs, *dy, *A, *B;
    int64_t *piv;
} Oracle;

/* SectionOracle.predict's gradient d x_bot / d (x_up, y_lo, r) of a section
 * of m >= 1 trays xs into g: np.linalg.solve of the tray Jacobian against
 * three right-hand sides, on numpy's LAPACK dgesv with the column-major
 * copies numpy hands it; 0 when it is singular (numpy's LinAlgError) */
static int section_gradient(Oracle *o, double x_up, double r, long long m,
                            double alpha, const double *xs, double *g)
{
    double *A = o->A, *B = o->B, *dy = o->dy;
    int64_t nn = m, nrhs = 3, info = 0;
    long t;
    for (t = 0; t < m; t++) {
        const double d = 1.0 + (alpha - 1.0) * xs[t];
        dy[t] = alpha / (d * d);
    }
    /* residuals R_t = r (x_above - x_t) + y_below - y(x_t); column j of
     * the Jacobian at A + j m */
    memset(A, 0, m * m * sizeof(double));
    memset(B, 0, 3 * m * sizeof(double));
    for (t = 0; t < m; t++) {
        A[t * m + t] = -r - dy[t];
        if (t > 0)
            A[(t - 1) * m + t] = r;
        if (t < m - 1)
            A[(t + 1) * m + t] = dy[t + 1];
        B[2 * m + t] = -((t ? xs[t - 1] : x_up) - xs[t]);   /* d/dr */
    }
    B[0] = -r;                                              /* d/dx_up */
    B[2 * m - 1] = -1.0;                                    /* d/dy_lo */
    NP.dgesv(&nn, &nrhs, A, &nn, o->piv, B, &nn, &info);
    if (info > 0)
        return 0;
    g[0] = B[m - 1];
    g[1] = B[2 * m - 1];
    g[2] = B[3 * m - 1];
    return 1;
}

/* HybridModel.evaluate of the oracle hybrid at z: per section, top-down,
 * kernels.equilibrium of z_lo, SectionOracle.predict (the checks of
 * column._section_profile, the chain solve and, when want_jac, the
 * gradient) and the section partials, then the balances.  The first error
 * stops it, as a raise does. */
static void oracle_kernel(Oracle *o, const double *z, int want_jac)
{
    Model *m = &o->m;
    const Stages *st = &o->st;
    const int nsec = o->nsec;
    const double alpha = st->alpha, V = st->V;
    int k;
    for (k = 0; k < nsec; k++) {
        const double zu = z[nsec - k], zl = z[nsec - 1 - k];
        const double yl = alpha * zl / (1.0 + (alpha - 1.0) * zl);
        const double s_alpha = o->sec[3 * k], tol = o->sec[3 * k + 1];
        const double r = o->sec[3 * k + 2];
        const long long trays = o->trays[k];
        double val, d, dyl, g[3] = {1.0, 0.0, 0.0};
        if (!(0.0 <= zu && zu <= 1.0 && 0.0 <= yl && yl <= 1.0)) {
            m->error = OUTSIDE_UNIT;
            return;
        }
        if (!(isfinite(r) && isfinite(s_alpha))) {
            m->error = NONFINITE_SECTION;
            return;
        }
        if (r <= 0.0 || trays < 0) {
            m->error = BAD_SECTION;
            return;
        }
        val = zu;
        if (trays > 0) {
            const long long it = chain_solve(zu, yl, r, trays, s_alpha, tol,
                                             60, o->work, o->xs);
            if (!(o->xs[trays] <= tol)) {
                o->iterations = it;
                o->residual = o->xs[trays];
                m->error = SECTION_UNSOLVED;
                return;
            }
            val = o->xs[trays - 1];
            if (want_jac
                && !section_gradient(o, zu, r, trays, s_alpha, o->xs, g)) {
                m->error = SINGULAR;
                return;
            }
        }
        st->xb[k] = val;
        st->yt[k] = yl + r * (zu - val);
        if (!want_jac)
            continue;
        /* kernels.equilibrium_deriv squares an array: d * d */
        d = 1.0 + (alpha - 1.0) * zl;
        dyl = alpha / (d * d);
        section_partials(m, g[0], g[1] * dyl, g[2], dyl, zu, val, r, V,
                         st->dxb + 4 * k, st->dyt + 4 * k);
    }
    hybrid_assemble(m, st, z, want_jac);
}

static void oracle_rhs(Model *m, const double *z, double *f)
{
    Oracle *o = (Oracle *)m;
    oracle_kernel(o, z, 0);
    if (!m->error)
        memcpy(f, o->st.fz, o->st.n * sizeof(double));
}

static void oracle_jac(Model *m, const double *z, int stage)
{
    (void)stage;
    oracle_kernel((Oracle *)m, z, 1);
}

/* column.hybrid_steady_state of a hybrid whose section models are all
 * SectionOracles: _ptc_steady on HybridModel.evaluate, in one call, so the
 * result is bitwise that of the numpy loop.
 *
 * n, feed, strip   hybrid states, feed state, per-section L+F flags
 * m_hold           effective holdups (n)
 * trays            per section, top-down: its oracle's tray count
 * sec              per section: its oracle's alpha and tol, and the flow
 *                  ratio (Section.flow_ratio)
 * model            L, V, F, x_F, alpha
 * tol, dt0, max_iter, z   as for ptc_steady()
 * report           out: converged (1 or 0); after SECTION_UNSOLVED that
 *                  section's iterations and residual
 * Returns OK, NO_MEMORY, ZERO_DIVISION, or the error of a section:
 * OUTSIDE_UNIT (ModelDomainError), NONFINITE_SECTION or BAD_SECTION (the
 * ValueErrors of _section_profile) or SECTION_UNSOLVED (SectionSolveError).
 */
int colnmpc_oracle_steady(int n, int feed, const int *strip,
                          const double *m_hold, const long long *trays,
                          const double *sec, const double *model, double tol,
                          double dt0, long long max_iter, double *z,
                          double *report)
{
    Oracle o;
    Stages *st = &o.st;
    const int nsec = n - 1;
    long long mmax = 0, converged = 0;
    double *mem, *p;
    int k, status;

    memset(&o, 0, sizeof(o));
    for (k = 0; k < nsec; k++)
        if (trays[k] > mmax)
            mmax = trays[k];
    mem = malloc(sizeof(double) * (10 * nsec + 5 * n + n * n
                                   + 15 * mmax + mmax * mmax + 1));
    if (!mem)
        return NO_MEMORY;
    p = mem;
    st->xb = p; p += nsec;
    st->yt = p; p += nsec;
    st->dxb = p; p += 4 * nsec;
    st->dyt = p; p += 4 * nsec;
    st->y_z = p; p += n;
    st->dy_z = p; p += n;
    st->fz = p; p += n;
    st->Jz = o.m.dense.J[0] = p; p += n * n;
    st->Ju = p; p += 2 * n;
    o.work = p; p += 9 * mmax;
    o.xs = p; p += mmax + 1;
    o.dy = p; p += mmax;
    o.A = p; p += mmax * mmax;
    o.B = p; p += 3 * mmax;
    o.piv = (int64_t *)p;
    st->n = n;
    st->feed = feed;
    st->strip = strip;
    st->mh = m_hold;
    st->L = model[0];
    st->V = model[1];
    st->F = model[2];
    st->xF = model[3];
    st->alpha = model[4];
    o.nsec = nsec;
    o.trays = trays;
    o.sec = sec;
    o.m.N = n;
    o.m.rhs = oracle_rhs;
    o.m.jac = oracle_jac;
    status = ptc_steady(&o.m, tol, dt0, max_iter, z, &converged);
    report[0] = (double)converged;
    report[1] = (double)o.iterations;
    report[2] = o.residual;
    free(mem);
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
    double *res;                      /* a grown net's residual (n) */
    /* r and J at x, from the model scratch of the last objective call,
     * which was at x */
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

/* residual (eval_scaled - zeta) * sw and weight_jacobian_scaled * sw, from
 * out and act of net_objective at w */
static void net_linearize(Fit *f, const double *w)
{
    const long n = f->n, h = f->hidden, m = f->m;
    long k, j, c;
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

/* from act of node_objective at t */
static void node_linearize(Fit *f, const double *t)
{
    long k, c;
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

/* learner._levenberg_marquardt from x (objective *objective, the last
 * objective call's), statement for statement: x, *objective and *accepted
 * are the result.  Every linearization is at the point of the last
 * objective call, the start or the accepted trial, whose model scratch it
 * reads.  A solve is singular, as np.linalg.solve raises LinAlgError, when
 * dgesv reports info > 0.  Returns OK or NO_MEMORY. */
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

/* Set f up for n points, m parameters and `hidden` activations per point
 * on the problem (Z, target, wn, sw); its scratch is the returned block,
 * which the caller frees, or NULL when malloc fails. */
static double *fit_init(Fit *f, long n, long m, long hidden, const double *Z,
                        const double *target, const double *wn,
                        const double *sw)
{
    double *mem = malloc(sizeof(double) * (2 * n * hidden + 5 * n + n * m
                                           + 8 * 8));
    double *p = mem;
    if (!mem)
        return NULL;
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
    f->res = take(&p, n);
    f->J = take(&p, n * m);
    return mem;
}

/* lm_train's fit over all weights w (5 * hidden + 1) of a tanh net on n
 * scaled inputs Z (n, 3), scaled targets zeta and weights wn, sw.
 *
 * w              start on entry, result on return
 * lambda0, lambda_max  LM_LAMBDA0, LM_LAMBDA_MAX
 * objectives     out: the objective at the start (lm_train's _wmse) and
 *                the result's
 * accepted       out: accepted steps
 * Returns OK or NO_MEMORY. */
int colnmpc_fit_net(long long n, const double *Z, const double *zeta,
                    const double *wn, const double *sw, long long hidden,
                    double *w, long long max_steps, double goal,
                    double lambda0, double lambda_max, double *objectives,
                    long long *accepted)
{
    Fit f = {.linearize = net_linearize, .objective = net_objective};
    double *mem = fit_init(&f, n, 5 * hidden + 1, hidden, Z, zeta, wn, sw);
    int status;
    if (!mem)
        return NO_MEMORY;
    objectives[0] = objectives[1] = f.objective(&f, w);
    status = levenberg_marquardt(&f, w, &objectives[1], max_steps, goal,
                                 lambda0, lambda_max, accepted);
    free(mem);
    return status;
}

/* learner._grow_node: the net w of hidden - 1 nodes grows by one node and
 * is refit, on the problem of colnmpc_fit_net.
 *
 * grown          out: w with a zero node appended (before the output
 *                bias), then that node fitted to the residual
 *                zeta - eval_scaled(Z) of the zero-node net:
 *                _fit_residual_node's multi-start fit, from each start
 *                row of normals (restarts, 4) (w = s * row[:3],
 *                b = s * row[3], s = 0.3 (1 + row index), v in closed
 *                form), node_steps steps each, goal 0; the first start
 *                with the least objective (Python's min) is kept
 * trained        out: lm_train's fit of all weights from grown
 * objective      out: trained's objective
 * counts         out: trained's accepted steps and the LM runs made
 * Returns OK or NO_MEMORY. */
int colnmpc_grow_node(long long n, const double *Z, const double *zeta,
                      const double *wn, const double *sw, long long hidden,
                      const double *w, const double *normals,
                      long long restarts, long long node_steps,
                      long long max_steps, double goal, double lambda0,
                      double lambda_max, double *grown, double *trained,
                      double *objective, long long *counts)
{
    const long m = 5 * hidden + 1;
    Fit net = {.linearize = net_linearize, .objective = net_objective};
    Fit node = {.linearize = node_linearize, .objective = node_objective};
    double *net_mem = fit_init(&net, n, m, hidden, Z, zeta, wn, sw);
    double *node_mem = NULL, best[5] = {0.0}, best_objective = 0.0;
    long long accepted, r;
    long k;
    int status = NO_MEMORY;

    counts[1] = 0;
    if (!net_mem)
        return NO_MEMORY;
    memcpy(grown, w, (m - 6) * sizeof(double));
    memset(grown + m - 6, 0, 5 * sizeof(double));
    grown[m - 1] = w[m - 6];
    net_eval(&net, grown);
    for (k = 0; k < n; k++)
        net.res[k] = zeta[k] - net.out[k];
    node_mem = fit_init(&node, n, 5, 1, Z, net.res, wn, sw);
    if (!node_mem)
        goto done;
    for (r = 0; r < restarts; r++) {
        const double spread = 0.3 * (1.0 + (double)r);
        double t[5], den, start_objective;
        for (k = 0; k < 4; k++)
            t[k] = spread * normals[4 * r + k];
        node_eval(&node, t);
        for (k = 0; k < n; k++)
            node.e2[k] = node.act[k] * node.act[k];
        den = np_dot(n, wn, 1, node.e2, 1);
        for (k = 0; k < n; k++)
            node.e2[k] = node.act[k] * net.res[k];
        t[4] = den > 1e-300 ? np_dot(n, wn, 1, node.e2, 1) / den : 0.0;
        /* node_objective at t from the activations at hand, which do not
         * depend on v; node_linearize reads them too */
        for (k = 0; k < n; k++) {
            const double e = t[4] * node.act[k] - net.res[k];
            node.e2[k] = e * e;
        }
        start_objective = np_dot(n, wn, 1, node.e2, 1);
        status = levenberg_marquardt(&node, t, &start_objective, node_steps,
                                     0.0, lambda0, lambda_max, &accepted);
        if (status)
            goto done;
        counts[1] += 1;
        if (r == 0 || start_objective < best_objective) {
            memcpy(best, t, sizeof best);
            best_objective = start_objective;
        }
    }
    memcpy(grown + m - 6, best, sizeof best);
    memcpy(trained, grown, m * sizeof(double));
    *objective = net_objective(&net, trained);
    status = levenberg_marquardt(&net, trained, objective, max_steps, goal,
                                 lambda0, lambda_max, &counts[0]);
    counts[1] += 1;
done:
    free(node_mem);
    free(net_mem);
    return status;
}
