/* Native kernels for the fluid engine's batch loop.
 *
 * Two entry points share the code below:
 *
 * - batch_loop: the engine's batch loop for every policy.  Each event
 *   is one step — recompute the bandwidth rates from the remaining-work
 *   arrays (the fused rate modes 1-3) or keep the installed ones (mode
 *   0, policies whose rates change with membership alone), find the
 *   next event time (min over per-instance completion times, clamped
 *   by the wakeup/timeline/fault boundary), drain the fluid work — and
 *   each non-final layer completion is handled here when the policy's
 *   completion table covers it: the transparent-cache policies
 *   (baseline, MoCA, AuRORA) install the next layer's memoized
 *   LayerWork, the CaMDN policies run the completion chain below,
 *   region resizes included (the page moves of RegionManager.resize
 *   are done here) and memo misses too (the scheduler's builder fills
 *   the memo entry).  It hands back to Python every completion it
 *   cannot take: last layers, transparent-cache memo misses, CaMDN
 *   denials, and every completion of a policy with no table or of a
 *   run with a TraceRecorder attached (the engine passes no table);
 * - fused_step: one event of batch_loop's step, the harness of the
 *   randomised C-vs-Python bit-identity tests.
 *
 * Bit-identity contract
 * ---------------------
 * Every arithmetic expression below transcribes the exact shape and
 * evaluation order of the Python reference path:
 *
 *   demand   = (rem_d if rem_d > 1.0 else 1.0)
 *              / (t if (t := rem_c / freq) > 1e-9 else 1e-9)
 *   total    = left_sum(demands)               # left-to-right
 *   share    = base + remaining * (demand / total)
 *   rate_d   = r if (r := total_bw * share * eff) > 1e-6 else 1e-6
 *   t_i      = max(rem_c / rate_c, rem_d / rate_d)
 *   dt       = min(t_i, wait_dt)
 *   rem'     = max(rem - dt * rate, 0.0)
 *   finished = rem_c' <= 1e-9 and rem_d' <= 1e-9
 *
 * (see CaMDNSchedulerBase.bandwidth_shares,
 * MultiTenantEngine._recompute_rates and RunningKernel.step).  All
 * operations are IEEE-754 binary64 with correctly-rounded results, so
 * compiling without FP contraction (-ffp-contract=off) and without
 * value-changing optimisations makes the C results identical to
 * CPython's on any conforming host.  The only reduction besides the
 * left-to-right demand total is the event-time min, which is exact in
 * any order.  The Python paths take their totals with
 * repro.numeric.left_sum rather than ``sum()`` (which compensates from
 * Python 3.12 on), so the paths agree on every Python version.
 *
 * The functions are deliberately conservative: any input they are not
 * certain about (a non-float list item, a non-positive demand total)
 * makes them return None, telling the engine to take the Python split
 * step (MultiTenantEngine._recompute_rates + RunningKernel.step) for
 * that event, or the Python completion chain for that completion.  The
 * Python and C paths are interchangeable mid-run.  The engine runs none
 * of them under use_native=False or REPRO_NATIVE=0.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>

#define MODE_STATIC 0
#define MODE_DEMAND_PROP 1
#define MODE_SLACK_WEIGHTED 2
#define MODE_SLACK_THROTTLED 3

/* Stack buffers cover every realistic running-set width; wider sets
 * take one heap allocation per call. */
#define STACK_WIDTH 96

/* Per-position doubles of a step: rem_c, rem_d, rate_c, rate_d,
 * weights and the four slack inputs. */
#define STEP_ARRAYS 9

#define FINISH_EPS 1e-9

/* MultiTenantEngine's "a waiter / timeline event is due" tolerance. */
#define WAKE_EPS 1e-12

static int
read_doubles(PyObject *list, double *out, Py_ssize_t n)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        PyObject *item = PyList_GET_ITEM(list, i);
        if (!PyFloat_CheckExact(item)) {
            return -1;
        }
        out[i] = PyFloat_AS_DOUBLE(item);
    }
    return 0;
}

static int
write_doubles(PyObject *list, const double *v, Py_ssize_t n)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        PyObject *f = PyFloat_FromDouble(v[i]);
        if (f == NULL) {
            return -1;
        }
        PyList_SetItem(list, i, f);
    }
    return 0;
}

/* One step's per-position scratch: STEP_ARRAYS doubles and one index
 * per position, on the stack up to STACK_WIDTH. */
typedef struct {
    double stack_d[STEP_ARRAYS * STACK_WIDTH];
    Py_ssize_t stack_i[STACK_WIDTH];
    double *d;
    Py_ssize_t *fin;
} step_buf;

static int
step_buf_init(step_buf *b, Py_ssize_t n)
{
    b->d = b->stack_d;
    b->fin = b->stack_i;
    if (n > STACK_WIDTH) {
        b->d = PyMem_Malloc((size_t)(STEP_ARRAYS * n) * sizeof(double));
        b->fin = PyMem_Malloc((size_t)n * sizeof(Py_ssize_t));
        if (b->d == NULL || b->fin == NULL) {
            PyMem_Free(b->d);
            PyMem_Free(b->fin);
            b->d = NULL;
            b->fin = NULL;
            PyErr_NoMemory();
            return -1;
        }
    }
    return 0;
}

static void
step_buf_free(step_buf *b)
{
    if (b->d != b->stack_d) {
        PyMem_Free(b->d);
        PyMem_Free(b->fin);
    }
}

/* Rates of the fused modes into rc/rd (compute rate == freq for every
 * instance); -1 when the demand total is not positive, which the
 * Python fallback owns.
 *
 * MODE_DEMAND_PROP weighs instances by demand alone
 * (CaMDNSchedulerBase.bandwidth_shares /
 * MoCAScheduler.bandwidth_shares, no-deadline branch).  The slack
 * modes read the per-instance slack inputs (arrival time, QoS target,
 * estimated isolated latency, layer progress; slack transcribes
 * SchedulerPolicy.slack_of): MODE_SLACK_WEIGHTED is AuRORA's
 * exponential slack weighting (SlackWeightedPolicy.allocate),
 * MODE_SLACK_THROTTLED is MoCA's halve-when-comfortable throttle
 * feeding the demand-proportional split
 * (MoCAScheduler.bandwidth_shares, deadline branch). */
static int
fused_rates(long mode, Py_ssize_t n, const double *c, const double *d,
            const double *sa, const double *sq, const double *se,
            const double *sp, double now_t, double urgency,
            double freq, double total_bw, double eff, double fl,
            double *rc, double *rd, double *dem)
{
    double total = 0.0;
    double floor_total, base, remaining;
    Py_ssize_t i;

    for (i = 0; i < n; i++) {
        double t = c[i] / freq;
        double den = t > 1e-9 ? t : 1e-9;
        double num = d[i] > 1.0 ? d[i] : 1.0;
        double w = num / den;
        if (mode != MODE_DEMAND_PROP) {
            double q = sq[i];
            double slack;
            if (isinf(q)) {
                /* No deadline: slack_of's early return. */
                slack = 1.0;
            }
            else {
                double a = sa[i];
                double ef = a + (se[i] * (1.0 - sp[i])) + (now_t - a);
                slack = ((a + q) - ef) / q;
            }
            if (mode == MODE_SLACK_THROTTLED) {
                /* MoCA: halve the demand of tasks more than 50 %
                 * ahead of their deadline. */
                if (slack > 0.5) {
                    w *= 0.5;
                }
            }
            else {
                /* AuRORA: clamp slack, weigh exponentially. */
                double s2 = slack > -20.0 ? slack : -20.0;
                s2 = s2 < 20.0 ? s2 : 20.0;
                w = (w > 1.0 ? w : 1.0) * exp(-urgency * s2);
            }
        }
        dem[i] = w;
        total += w;
    }
    if (n > 0 && !(total > 0.0)) {
        /* Unreachable with positive work, but the Python fallback
         * (DemandProportionalPolicy.allocate) owns this case. */
        return -1;
    }
    /* Share constants (DemandProportionalPolicy.allocate:
     * floor_total, base, remaining — same floats for any n). */
    floor_total = fl * (double)n;
    if (!(floor_total < 1.0)) {
        floor_total = 0.0;
    }
    base = floor_total != 0.0 ? fl : 0.0;
    remaining = 1.0 - floor_total;
    for (i = 0; i < n; i++) {
        /* The policies group the share expression differently; both
         * shapes are preserved.  Then the engine's rate install:
         * r = total_bw * share * eff, clamped above 1e-6. */
        double share, r;
        if (mode == MODE_SLACK_WEIGHTED) {
            share = base + remaining * dem[i] / total;
        }
        else {
            share = base + remaining * (dem[i] / total);
        }
        r = total_bw * share * eff;
        rc[i] = freq;
        rd[i] = r > 1e-6 ? r : 1e-6;
    }
    return 0;
}

/* Min event time clamped by wait_dt (RunningKernel.step). */
static double
event_dt(Py_ssize_t n, const double *c, const double *d,
         const double *rc, const double *rd, double wait_dt)
{
    double dt = Py_HUGE_VAL;
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        double t_c = c[i] / rc[i];
        double t_d = d[i] / rd[i];
        double t = t_c >= t_d ? t_c : t_d;
        if (t < dt) {
            dt = t;
        }
    }
    if (wait_dt < dt) {
        dt = wait_dt;
    }
    return dt;
}

/* Drain dt of fluid work and list the finished positions in insertion
 * order (the drain half of RunningKernel.step); returns their count. */
static Py_ssize_t
drain(Py_ssize_t n, double *c, double *d, const double *rc,
      const double *rd, double dt, Py_ssize_t *fin)
{
    Py_ssize_t i, nfin = 0;
    for (i = 0; i < n; i++) {
        double nc = c[i] - dt * rc[i];
        double nd;
        if (nc < 0.0) {
            nc = 0.0;
        }
        nd = d[i] - dt * rd[i];
        if (nd < 0.0) {
            nd = 0.0;
        }
        c[i] = nc;
        d[i] = nd;
        if (nc <= FINISH_EPS && nd <= FINISH_EPS) {
            fin[nfin++] = i;
        }
    }
    return nfin;
}

static PyObject *
positions_list(const Py_ssize_t *pos, Py_ssize_t count)
{
    PyObject *list = PyList_New(count);
    Py_ssize_t k;
    if (list == NULL) {
        return NULL;
    }
    for (k = 0; k < count; k++) {
        PyObject *p = PyLong_FromSsize_t(pos[k]);
        if (p == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, k, p);
    }
    return list;
}

/* fused_step(rem_c, rem_d, rate_c, rate_d, wait_dt, mode,
 *            freq, total_bw, eff, floor
 *            [, sl_arrival, sl_qos, sl_est, sl_progress, now, urgency])
 *   -> (dt, finished_list_or_None) | None
 *
 * rem_c/rem_d are updated in place.  rate_c/rate_d are read only in
 * MODE_STATIC; the fused modes derive rates from the remaining work
 * (fused_rates) and do not write them back — the Python engine
 * recomputes rates whenever it leaves the fused path, so the lists
 * never leak stale values.  The slack modes take the 16-argument form.
 *
 * Returns None when the inputs fall outside the fast path (non-float
 * items, non-positive demand total); the caller then runs the exact
 * Python equivalent for this event.  dt may be +inf (nothing running,
 * nobody waking: the caller reports the deadlock) or negative (the
 * caller raises, mirroring RunningKernel.step).
 */
static PyObject *
fused_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *rem_c_l, *rem_d_l, *rate_c_l, *rate_d_l;
    PyObject *sl_l[4] = {NULL, NULL, NULL, NULL};
    double wait_dt, freq, total_bw, eff, fl;
    double now_t = 0.0, urgency = 0.0;
    long mode;
    int slack;
    step_buf buf;
    double *c, *d, *rc, *rd, *dem, *sl;
    double dt;
    Py_ssize_t n, nfin, k;
    PyObject *finished, *result;

    if (nargs != 10 && nargs != 16) {
        PyErr_SetString(PyExc_TypeError,
                        "fused_step expects 10 or 16 arguments");
        return NULL;
    }
    rem_c_l = args[0];
    rem_d_l = args[1];
    rate_c_l = args[2];
    rate_d_l = args[3];
    if (!PyList_CheckExact(rem_c_l) || !PyList_CheckExact(rem_d_l) ||
        !PyList_CheckExact(rate_c_l) || !PyList_CheckExact(rate_d_l)) {
        Py_RETURN_NONE;
    }
    wait_dt = PyFloat_AsDouble(args[4]);
    if (wait_dt == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    mode = PyLong_AsLong(args[5]);
    if (mode == -1 && PyErr_Occurred()) {
        return NULL;
    }
    freq = PyFloat_AsDouble(args[6]);
    total_bw = PyFloat_AsDouble(args[7]);
    eff = PyFloat_AsDouble(args[8]);
    fl = PyFloat_AsDouble(args[9]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    if (nargs == 16) {
        for (k = 0; k < 4; k++) {
            sl_l[k] = args[10 + k];
            if (!PyList_CheckExact(sl_l[k])) {
                Py_RETURN_NONE;
            }
        }
        now_t = PyFloat_AsDouble(args[14]);
        urgency = PyFloat_AsDouble(args[15]);
        if (PyErr_Occurred()) {
            return NULL;
        }
    }

    n = PyList_GET_SIZE(rem_c_l);
    if (PyList_GET_SIZE(rem_d_l) != n ||
        (mode == MODE_STATIC &&
         (PyList_GET_SIZE(rate_c_l) != n ||
          PyList_GET_SIZE(rate_d_l) != n))) {
        Py_RETURN_NONE;
    }
    slack = mode == MODE_SLACK_WEIGHTED || mode == MODE_SLACK_THROTTLED;
    if (slack) {
        if (nargs != 16) {
            Py_RETURN_NONE;
        }
        for (k = 0; k < 4; k++) {
            if (PyList_GET_SIZE(sl_l[k]) != n) {
                Py_RETURN_NONE;
            }
        }
    }
    if (step_buf_init(&buf, n) < 0) {
        return NULL;
    }
    c = buf.d;
    d = c + n;
    rc = d + n;
    rd = rc + n;
    dem = rd + n;
    sl = dem + n;

    if (read_doubles(rem_c_l, c, n) < 0 ||
        read_doubles(rem_d_l, d, n) < 0) {
        goto bail_none;
    }
    if (slack) {
        for (k = 0; k < 4; k++) {
            if (read_doubles(sl_l[k], sl + k * n, n) < 0) {
                goto bail_none;
            }
        }
    }
    if (mode == MODE_DEMAND_PROP || slack) {
        if (fused_rates(mode, n, c, d, sl, sl + n, sl + 2 * n,
                        sl + 3 * n, now_t, urgency, freq, total_bw, eff,
                        fl, rc, rd, dem) < 0) {
            goto bail_none;
        }
    }
    else if (read_doubles(rate_c_l, rc, n) < 0 ||
             read_doubles(rate_d_l, rd, n) < 0) {
        goto bail_none;
    }

    dt = event_dt(n, c, d, rc, rd, wait_dt);
    if (dt == Py_HUGE_VAL || dt < 0.0) {
        /* inf: idle/deadlock; negative: corrupt state.  Both are the
         * caller's to report; no state was touched. */
        step_buf_free(&buf);
        return Py_BuildValue("(dO)", dt, Py_None);
    }
    nfin = drain(n, c, d, rc, rd, dt, buf.fin);
    finished = nfin ? positions_list(buf.fin, nfin) : Py_NewRef(Py_None);
    if (finished == NULL) {
        step_buf_free(&buf);
        return NULL;
    }
    /* Write the drained work back (the lists stay authoritative). */
    if (write_doubles(rem_c_l, c, n) < 0 ||
        write_doubles(rem_d_l, d, n) < 0) {
        Py_DECREF(finished);
        step_buf_free(&buf);
        return NULL;
    }
    result = Py_BuildValue("(dO)", dt, finished);
    Py_DECREF(finished);
    step_buf_free(&buf);
    return result;

bail_none:
    step_buf_free(&buf);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* CaMDN layer completion                                              */
/* ------------------------------------------------------------------ */

/* Read a list item as a C long (exact-int items only). */
static int
list_long(PyObject *list, Py_ssize_t i, long *out)
{
    PyObject *item = PyList_GET_ITEM(list, i);
    if (!PyLong_CheckExact(item)) {
        return -1;
    }
    *out = PyLong_AsLong(item);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    return 0;
}

/* Read a tuple item as a C long (exact-int items only). */
static int
tuple_long(PyObject *tup, Py_ssize_t i, long *out)
{
    PyObject *item = PyTuple_GET_ITEM(tup, i);
    if (!PyLong_CheckExact(item)) {
        return -1;
    }
    *out = PyLong_AsLong(item);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    return 0;
}

/* bisect.bisect_right over a tuple of ints (exact transcription:
 * ``if x < a[mid]: hi = mid else: lo = mid + 1``). */
static Py_ssize_t
bisect_right_tup(PyObject *tup, long x, int *err)
{
    Py_ssize_t lo = 0, hi = PyTuple_GET_SIZE(tup);
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        long v;
        if (tuple_long(tup, mid, &v) < 0) {
            *err = 1;
            return 0;
        }
        if (x < v) {
            hi = mid;
        }
        else {
            lo = mid + 1;
        }
    }
    return lo;
}

/* DynamicCacheAllocator.pred_avail_pages: sum every task's predicted
 * free pages, then compensate the excluded slot.  Pure integer
 * arithmetic on the live predictor lists; -1 on any non-exact-typed
 * item. */
static int
pred_avail(PyObject *tnext_l, PyObject *pnext_l, PyObject *palloc_l,
           double t_ahead, Py_ssize_t skip, long total_pages,
           long palloc_sum, long *out)
{
    Py_ssize_t n = PyList_GET_SIZE(tnext_l), i;
    long p_ahead = total_pages - palloc_sum;

    for (i = 0; i < n; i++) {
        PyObject *t = PyList_GET_ITEM(tnext_l, i);
        if (!PyFloat_CheckExact(t)) {
            return -1;
        }
        if (PyFloat_AS_DOUBLE(t) < t_ahead) {
            long pa, pn;
            if (list_long(palloc_l, i, &pa) < 0 ||
                list_long(pnext_l, i, &pn) < 0) {
                return -1;
            }
            p_ahead += pa - pn;
        }
    }
    if (skip >= 0 && skip < n) {
        PyObject *t = PyList_GET_ITEM(tnext_l, skip);
        if (PyFloat_AS_DOUBLE(t) < t_ahead) {
            long pa, pn;
            if (list_long(palloc_l, skip, &pa) < 0 ||
                list_long(pnext_l, skip, &pn) < 0) {
                return -1;
            }
            p_ahead -= pa - pn;
        }
    }
    *out = p_ahead;
    return 0;
}

/* Per-layer geometry row indices (built by
 * CaMDNSchedulerBase._build_fast_file). */
#define ROW_LBM_PAGES 0
#define ROW_HEAD 1
#define ROW_BLOCK_START 2
#define ROW_BLOCK_END 3
#define ROW_HEAD_TIMEOUT 4
#define ROW_EST 5
#define ROW_LWM_TIMEOUT 6
#define ROW_SINGLE_LEVEL 7
#define ROW_IS_SORTED 8
#define ROW_TRIVIAL 9
#define ROW_UNIQUE 10
#define ROW_FIRST_OF 11
#define ROW_LAST_OF 12
#define ROW_LWM 13
#define ROW_WIDTH 14

/* One completion's inputs: the allocator's predictor lists, the task's
 * slot, LBM block (-1/-1 for none) and region size, the page
 * allocator's free-page count, the layer that just ended, and ``row``,
 * the *next* layer's precomputed geometry. */
typedef struct {
    PyObject *tnext_l, *pnext_l, *palloc_l, *row;
    long slot, total_pages, palloc_sum, lbm_s, lbm_e, layer_index;
    long region_pages, free_pages, hw_mode, share;
    double now;
} camdn_query;

/* The completion's outcome: the selection code and its page footprint,
 * the slot's palloc as read, the task's LBM block after the
 * end-of-block clear and any new enablement, and the slot's new
 * tnext/pnext predictions. */
typedef struct {
    long code, pages, palloc, lbm_s, lbm_e, pnext;
    double tnext;
} camdn_choice;

/* One CaMDN layer completion, decided: Algorithm 1's end-of-layer
 * predictor update (DynamicCacheAllocator.end_layer) plus the
 * next layer's candidate selection (select, or the HW-only
 * static-split walk) plus CaMDNSystem._try_grant's grant rule: a
 * footprint that grows the task's region by more pages than are free
 * is denied.
 *
 * Pure: returns 0 with *out filled, or 1 (nothing written, no Python
 * error set) when the completion needs the Python chain (type
 * mismatch, a denial).
 * Selection codes — full mode: 0 = sticky LBM, 1 = enable LBM at a
 * block head, 2 = single-level lwm[0], 3+i = lwm[i]; HW-only mode:
 * 0 = "hw_lbm_on", 1 = "hw_lbm_keep", 2+i = lwm[i]. */
static int
camdn_select(const camdn_query *q, camdn_choice *out)
{
    PyObject *row = q->row;
    PyObject *unique, *first_of, *last_of, *lwm;
    double head_timeout, est, lwm_timeout;
    long lbm_s = q->lbm_s, lbm_e = q->lbm_e;
    long lbm_pages, head, blk_s, blk_e;
    long single_level, is_sorted, trivial;
    long palloc_slot, new_pnext, code, pages, sel_enables = 0;
    long m;
    Py_ssize_t n;

    if (!PyList_CheckExact(q->tnext_l) || !PyList_CheckExact(q->pnext_l) ||
        !PyList_CheckExact(q->palloc_l) || !PyTuple_CheckExact(row) ||
        PyTuple_GET_SIZE(row) != ROW_WIDTH) {
        return 1;
    }
    n = PyList_GET_SIZE(q->tnext_l);
    if (PyList_GET_SIZE(q->pnext_l) != n ||
        PyList_GET_SIZE(q->palloc_l) != n ||
        q->slot < 0 || q->slot >= n) {
        return 1;
    }

    if (tuple_long(row, ROW_LBM_PAGES, &lbm_pages) < 0 ||
        tuple_long(row, ROW_HEAD, &head) < 0 ||
        tuple_long(row, ROW_BLOCK_START, &blk_s) < 0 ||
        tuple_long(row, ROW_BLOCK_END, &blk_e) < 0 ||
        tuple_long(row, ROW_SINGLE_LEVEL, &single_level) < 0 ||
        tuple_long(row, ROW_IS_SORTED, &is_sorted) < 0 ||
        tuple_long(row, ROW_TRIVIAL, &trivial) < 0) {
        return 1;
    }
    {
        PyObject *iht = PyTuple_GET_ITEM(row, ROW_HEAD_TIMEOUT);
        PyObject *ie = PyTuple_GET_ITEM(row, ROW_EST);
        PyObject *ilt = PyTuple_GET_ITEM(row, ROW_LWM_TIMEOUT);
        if (!PyFloat_CheckExact(iht) || !PyFloat_CheckExact(ie) ||
            !PyFloat_CheckExact(ilt)) {
            return 1;
        }
        head_timeout = PyFloat_AS_DOUBLE(iht);
        est = PyFloat_AS_DOUBLE(ie);
        lwm_timeout = PyFloat_AS_DOUBLE(ilt);
    }
    unique = PyTuple_GET_ITEM(row, ROW_UNIQUE);
    first_of = PyTuple_GET_ITEM(row, ROW_FIRST_OF);
    last_of = PyTuple_GET_ITEM(row, ROW_LAST_OF);
    lwm = PyTuple_GET_ITEM(row, ROW_LWM);
    if (!PyTuple_CheckExact(unique) || !PyTuple_CheckExact(first_of) ||
        !PyTuple_CheckExact(last_of) || !PyTuple_CheckExact(lwm) ||
        PyTuple_GET_SIZE(lwm) < 1) {
        return 1;
    }

    if (list_long(q->palloc_l, q->slot, &palloc_slot) < 0) {
        return 1;
    }

    m = q->layer_index + 1;  /* the layer being selected (row) */

    /* --- end_layer for the next layer. --- */
    if (lbm_s >= 0 && lbm_pages >= 0 && lbm_s <= m && m < lbm_e) {
        new_pnext = lbm_pages;
    }
    else if (single_level) {
        if (PyTuple_GET_SIZE(unique) > 0) {
            long u0;
            if (tuple_long(unique, 0, &u0) < 0) {
                return 1;
            }
            new_pnext = u0 <= palloc_slot ? u0 : 0;
        }
        else {
            new_pnext = 0;
        }
    }
    else {
        int err = 0;
        Py_ssize_t k = bisect_right_tup(unique, palloc_slot, &err) - 1;
        long uk = 0;
        if (err || (k >= 0 && tuple_long(unique, k, &uk) < 0)) {
            return 1;
        }
        new_pnext = k >= 0 ? uk : 0;
    }
    /* End-of-block clear (after the pnext prediction, as in Python). */
    if (lbm_s >= 0 && q->layer_index >= lbm_e - 1) {
        lbm_s = -1;
        lbm_e = -1;
    }

    /* --- candidate selection for layer m.  predAvailPages excludes
     * this task's slot, so its pending tnext/pnext writes cannot
     * affect it. --- */
    if (q->hw_mode) {
        /* CaMDNSystem._hw_only_decision: equal static split. */
        long share = q->share;
        if (lbm_pages < 0 && trivial) {
            code = 2;
            if (tuple_long(lwm, 0, &pages) < 0) {
                return 1;
            }
        }
        else if (lbm_pages >= 0 && lbm_pages <= share) {
            int covers = lbm_s >= 0 && lbm_s <= m && m < lbm_e;
            code = covers ? 1 : 0;
            sel_enables = !covers;
            pages = lbm_pages;
        }
        else {
            /* MCTGeometry.last_fitting_index(share). */
            long i;
            int err = 0;
            if (is_sorted) {
                Py_ssize_t k = bisect_right_tup(lwm, share, &err) - 1;
                if (err) {
                    return 1;
                }
                i = k >= 0 ? (long)k : 0;
            }
            else {
                Py_ssize_t k = bisect_right_tup(unique, share, &err) - 1;
                if (err) {
                    return 1;
                }
                if (k < 0) {
                    i = 0;
                }
                else {
                    Py_ssize_t j;
                    long best = 0, v;
                    if (k >= PyTuple_GET_SIZE(last_of)) {
                        return 1;
                    }
                    for (j = 0; j <= k; j++) {
                        if (tuple_long(last_of, j, &v) < 0) {
                            return 1;
                        }
                        if (j == 0 || v > best) {
                            best = v;
                        }
                    }
                    i = best;
                }
            }
            if (i >= PyTuple_GET_SIZE(lwm) ||
                tuple_long(lwm, i, &pages) < 0) {
                return 1;
            }
            code = 2 + i;
        }
    }
    else {
        int done = 0;
        code = 0;
        pages = 0;
        if (lbm_pages >= 0) {
            if (lbm_s >= 0 && lbm_s <= m && m < lbm_e) {
                /* Lines 7-9: LBM already enabled (sticky). */
                code = 0;
                pages = lbm_pages;
                done = 1;
            }
            else if (head) {
                /* Lines 10-15: try to enable LBM at the block head. */
                long pa;
                if (pred_avail(q->tnext_l, q->pnext_l, q->palloc_l,
                               q->now + head_timeout, q->slot,
                               q->total_pages, q->palloc_sum, &pa) < 0) {
                    return 1;
                }
                pa = pa + palloc_slot;
                if (lbm_pages < pa) {
                    code = 1;
                    pages = lbm_pages;
                    sel_enables = 1;
                    done = 1;
                }
            }
        }
        if (!done) {
            /* Lines 16-22: largest LWM candidate in the prediction. */
            if (single_level) {
                code = 2;
                if (tuple_long(lwm, 0, &pages) < 0) {
                    return 1;
                }
            }
            else {
                long budget, i;
                int err = 0;
                Py_ssize_t k;
                if (pred_avail(q->tnext_l, q->pnext_l, q->palloc_l,
                               q->now + lwm_timeout, q->slot,
                               q->total_pages, q->palloc_sum,
                               &budget) < 0) {
                    return 1;
                }
                budget = budget + palloc_slot;
                /* MCTGeometry.select_index(budget). */
                k = bisect_right_tup(unique, budget, &err) - 1;
                if (err) {
                    return 1;
                }
                if (k < 0) {
                    i = 0;
                }
                else {
                    long uk, l0, fk;
                    if (tuple_long(unique, k, &uk) < 0 ||
                        tuple_long(lwm, 0, &l0) < 0) {
                        return 1;
                    }
                    if (uk <= l0) {
                        i = 0;
                    }
                    else {
                        if (k >= PyTuple_GET_SIZE(first_of) ||
                            tuple_long(first_of, k, &fk) < 0) {
                            return 1;
                        }
                        i = fk;
                    }
                }
                if (i >= PyTuple_GET_SIZE(lwm) ||
                    tuple_long(lwm, i, &pages) < 0) {
                    return 1;
                }
                code = 3 + i;
            }
        }
    }

    /* _try_grant: ``needed - len(region.pcpns) > free_pages`` is a
     * denial, which the Python chain handles.  A shrink always fits. */
    if (pages - q->region_pages > q->free_pages) {
        return 1;
    }
    if (sel_enables) {
        if (blk_s < 0) {
            /* block_of() would return None for an enabling decision —
             * inconsistent table; let Python handle it. */
            return 1;
        }
        lbm_s = blk_s;
        lbm_e = blk_e;
    }
    out->code = code;
    out->pages = pages;
    out->palloc = palloc_slot;
    out->lbm_s = lbm_s;
    out->lbm_e = lbm_e;
    out->pnext = new_pnext;
    out->tnext = q->now + est;
    return 0;
}

/* Write a decided completion's tnext/pnext predictions.  The grant's
 * own writes (region pages, palloc) are camdn_grant's. */
static int
camdn_commit(const camdn_query *q, const camdn_choice *ch)
{
    PyObject *ftn = PyFloat_FromDouble(ch->tnext);
    PyObject *fpn;
    if (ftn == NULL) {
        return -1;
    }
    fpn = PyLong_FromLong(ch->pnext);
    if (fpn == NULL) {
        Py_DECREF(ftn);
        return -1;
    }
    PyList_SetItem(q->tnext_l, q->slot, ftn);
    PyList_SetItem(q->pnext_l, q->slot, fpn);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Batch loop                                                          */
/* ------------------------------------------------------------------ */

/* Attribute names the completion handlers read and write (interned at
 * module init). */
static PyObject *s_layer_index, *s_graph, *s_layers, *s_name, *s_sched_ctx;
static PyObject *s_mapping_file, *s_lbm_block, *s_slot, *s_pcpns;
static PyObject *s_cores, *s_work, *s_compute_cycles, *s_dram_bytes;
static PyObject *s_hit_bytes, *s_access_bytes, *s_dram_bytes_total;
static PyObject *s_hit_bytes_total, *s_access_bytes_total;
static PyObject *s_layers_executed, *s_sched_scratch;
static PyObject *s_rem_compute_cycles, *s_rem_dram_bytes, *s_block_of;
static PyObject *s_free, *s_page_owner, *s_num_pages, *s_task_id;
static PyObject *s_palloc_sum;

#define HANDLED 0
#define DECLINE 1

/* Completion-table kinds (repro.sim.native.TABLE_*). */
#define TABLE_NONE 0
#define TABLE_WORKS 1
#define TABLE_CAMDN 2

/* obj.name, new reference; NULL (error cleared) when missing. */
static PyObject *
get_attr(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL) {
        PyErr_Clear();
    }
    return v;
}

/* obj.name as a double (exact floats only): 0, or -1 to decline. */
static int
attr_double(PyObject *obj, PyObject *name, double *out)
{
    PyObject *v = get_attr(obj, name);
    int ok = v != NULL && PyFloat_CheckExact(v);
    if (ok) {
        *out = PyFloat_AS_DOUBLE(v);
    }
    Py_XDECREF(v);
    return ok ? 0 : -1;
}

/* obj.name as a C long (exact ints only): 0, or -1 to decline. */
static int
attr_long(PyObject *obj, PyObject *name, long *out)
{
    PyObject *v = get_attr(obj, name);
    int ok = v != NULL && PyLong_CheckExact(v);
    if (ok) {
        *out = PyLong_AsLong(v);
        if (*out == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            ok = 0;
        }
    }
    Py_XDECREF(v);
    return ok ? 0 : -1;
}

/* obj.name = v (a new float or int object); -1 on error. */
static int
set_double(PyObject *obj, PyObject *name, double v)
{
    PyObject *f = PyFloat_FromDouble(v);
    int rc;
    if (f == NULL) {
        return -1;
    }
    rc = PyObject_SetAttr(obj, name, f);
    Py_DECREF(f);
    return rc;
}

static int
set_long(PyObject *obj, PyObject *name, long v)
{
    PyObject *i = PyLong_FromLong(v);
    int rc;
    if (i == NULL) {
        return -1;
    }
    rc = PyObject_SetAttr(obj, name, i);
    Py_DECREF(i);
    return rc;
}

/* The policy side of a batch (SchedulerPolicy.native_batch_args):
 *
 * - TABLE_NONE (the argument None): every completion goes back to
 *   Python;
 * - TABLE_WORKS, (kind, memo, factor): SharedCacheBaseline's layer-work
 *   memo, {(model name, contention factor, cores): [LayerWork or None
 *   per layer]}, and this call's contention factor;
 * - TABLE_CAMDN, (kind, tnext, pnext, palloc, total_pages, palloc_sum,
 *   share, hw_mode, fast_files, pages, alloc, build): the CaMDN
 *   allocator's predictor lists and page totals, the HW-only share and
 *   flag, the per-mapping-file tables of the completion handler, the
 *   CachePageAllocator the regions draw from, the
 *   DynamicCacheAllocator itself and the memo builder
 *   (CaMDNSchedulerBase._build_fast_pair).  A handled resize moves
 *   ``palloc_sum`` and writes it back to ``alloc._palloc_sum``. */
typedef struct {
    long kind;
    PyObject *works, *factor;
    PyObject *tnext_l, *pnext_l, *palloc_l, *fast_files;
    PyObject *pages, *alloc, *build;
    long total_pages, palloc_sum, share, hw_mode;
} batch_table;

/* A layer's work as the chain reads it: the LayerWork, its compute
 * cycles and DRAM bytes (the very float objects _apply_grant copies
 * onto the instance) and its traffic for account_layer. */
typedef struct {
    PyObject *work, *cycles, *dram;   /* owned */
    double dram_bytes, hit_bytes, access_bytes;
} work_view;

/* One running instance as the completion handlers see it.  Loaded from
 * its Python objects at its first completion of a call; handled
 * completions update the view, and flush_view writes the instance
 * fields back before the call returns.  Core count, memo list, task
 * slot and tables cannot change inside a call: only the Python chain
 * starts or ends tasks, registers or retires.  The region size can: a
 * handled resize (camdn_grant) refreshes it. */
typedef struct {
    PyObject *inst;                    /* borrowed from insts */
    PyObject *works;                   /* TABLE_WORKS memo list, owned */
    PyObject *state, *mf, *rows, *pairs, *grant;   /* TABLE_CAMDN, owned */
    PyObject *region, *pcpns;                      /* TABLE_CAMDN, owned */
    work_view w;
    long layer, n_layers, cores, executed;
    long slot, region_pages, lbm_s, lbm_e;         /* TABLE_CAMDN */
    double dram_total, hit_total, access_total;
    int loaded, dirty;
} inst_view;

static void
release_work(work_view *w)
{
    Py_CLEAR(w->work);
    Py_CLEAR(w->cycles);
    Py_CLEAR(w->dram);
}

/* Read a LayerWork (exact-float fields only): 0, or -1 to decline. */
static int
load_work(PyObject *work, work_view *w)
{
    w->work = Py_NewRef(work);
    w->cycles = get_attr(work, s_compute_cycles);
    w->dram = get_attr(work, s_dram_bytes);
    if (w->cycles == NULL || w->dram == NULL ||
        !PyFloat_CheckExact(w->cycles) || !PyFloat_CheckExact(w->dram) ||
        attr_double(work, s_hit_bytes, &w->hit_bytes) < 0 ||
        attr_double(work, s_access_bytes, &w->access_bytes) < 0) {
        release_work(w);
        return -1;
    }
    w->dram_bytes = PyFloat_AS_DOUBLE(w->dram);
    return 0;
}

static void
release_view(inst_view *v)
{
    Py_CLEAR(v->works);
    Py_CLEAR(v->state);
    Py_CLEAR(v->mf);
    Py_CLEAR(v->rows);
    Py_CLEAR(v->pairs);
    Py_CLEAR(v->grant);
    Py_CLEAR(v->region);
    Py_CLEAR(v->pcpns);
    release_work(&v->w);
    v->loaded = 0;
}

/* The instance's memo list under SharedCacheBaseline.begin_layer's key
 * (graph name, contention factor, cores): 0, DECLINE when there is
 * none yet, -1 on a Python error. */
static int
load_works(const batch_table *t, PyObject *graph, inst_view *v)
{
    PyObject *name = get_attr(graph, s_name);
    PyObject *cores = get_attr(v->inst, s_cores);
    PyObject *key, *works;
    int rc = DECLINE;

    if (name == NULL || cores == NULL) {
        goto out;
    }
    key = PyTuple_Pack(3, name, t->factor, cores);
    if (key == NULL) {
        rc = -1;
        goto out;
    }
    works = PyDict_GetItemWithError(t->works, key);
    Py_DECREF(key);
    if (works == NULL) {
        if (PyErr_Occurred()) {
            rc = -1;
        }
        goto out;
    }
    if (PyList_CheckExact(works)) {
        v->works = Py_NewRef(works);
        rc = 0;
    }

out:
    Py_XDECREF(name);
    Py_XDECREF(cores);
    return rc;
}

/* Resolve the CaMDN side of ``v`` (sched_ctx -> task state and region,
 * mapping file -> the _fast_files tables built at task start): 0,
 * DECLINE when anything is missing or unexpectedly typed, -1 on a
 * Python error. */
static int
load_camdn(const batch_table *t, inst_view *v)
{
    PyObject *ctx = NULL, *key = NULL, *block = NULL, *ft;
    int rc = DECLINE;

    ctx = get_attr(v->inst, s_sched_ctx);
    if (ctx == NULL || !PyTuple_CheckExact(ctx) ||
        PyTuple_GET_SIZE(ctx) != 2) {
        goto out;
    }
    v->state = Py_NewRef(PyTuple_GET_ITEM(ctx, 0));
    v->region = Py_NewRef(PyTuple_GET_ITEM(ctx, 1));
    v->pcpns = get_attr(v->region, s_pcpns);
    if (v->pcpns == NULL || !PyList_CheckExact(v->pcpns) ||
        attr_long(v->state, s_slot, &v->slot) < 0) {
        goto out;
    }
    v->region_pages = (long)PyList_GET_SIZE(v->pcpns);
    block = get_attr(v->state, s_lbm_block);
    if (block == Py_None) {
        v->lbm_s = v->lbm_e = -1;
    }
    else if (block == NULL || !PyTuple_CheckExact(block) ||
             PyTuple_GET_SIZE(block) != 2 ||
             tuple_long(block, 0, &v->lbm_s) < 0 ||
             tuple_long(block, 1, &v->lbm_e) < 0) {
        goto out;
    }
    v->mf = get_attr(v->state, s_mapping_file);
    if (v->mf == NULL) {
        goto out;
    }
    /* _fast_files is keyed by id(mapping_file); the entry holds the
     * file, so a recycled id never matches. */
    key = PyLong_FromVoidPtr(v->mf);
    if (key == NULL) {
        rc = -1;
        goto out;
    }
    ft = PyDict_GetItemWithError(t->fast_files, key);
    if (ft == NULL) {
        if (PyErr_Occurred()) {
            rc = -1;
        }
        goto out;
    }
    if (!PyTuple_CheckExact(ft) || PyTuple_GET_SIZE(ft) != 3 ||
        PyTuple_GET_ITEM(ft, 0) != v->mf ||
        !PyList_CheckExact(PyTuple_GET_ITEM(ft, 1)) ||
        !PyList_CheckExact(PyTuple_GET_ITEM(ft, 2))) {
        goto out;
    }
    v->rows = Py_NewRef(PyTuple_GET_ITEM(ft, 1));
    v->pairs = Py_NewRef(PyTuple_GET_ITEM(ft, 2));
    rc = 0;

out:
    Py_XDECREF(ctx);
    Py_XDECREF(key);
    Py_XDECREF(block);
    return rc;
}

/* Load ``inst`` into ``v``: the fields every completion reads, then
 * the table's own.  0, DECLINE (nothing kept), or -1 on a Python
 * error. */
static int
load_view(const batch_table *t, PyObject *inst, inst_view *v)
{
    PyObject *graph = NULL, *layers = NULL, *work = NULL;
    int rc = DECLINE;

    v->inst = inst;
    if (attr_long(inst, s_layer_index, &v->layer) < 0 ||
        attr_long(inst, s_cores, &v->cores) < 0 ||
        attr_long(inst, s_layers_executed, &v->executed) < 0 ||
        attr_double(inst, s_dram_bytes_total, &v->dram_total) < 0 ||
        attr_double(inst, s_hit_bytes_total, &v->hit_total) < 0 ||
        attr_double(inst, s_access_bytes_total, &v->access_total) < 0) {
        goto out;
    }
    graph = get_attr(inst, s_graph);
    layers = graph ? get_attr(graph, s_layers) : NULL;
    if (layers == NULL ||
        !(PyTuple_CheckExact(layers) || PyList_CheckExact(layers))) {
        goto out;
    }
    v->n_layers = (long)Py_SIZE(layers);
    work = get_attr(inst, s_work);
    if (work == NULL || load_work(work, &v->w) < 0) {
        goto out;
    }
    rc = t->kind == TABLE_WORKS ? load_works(t, graph, v) : load_camdn(t, v);
    if (rc == 0) {
        v->loaded = 1;
    }

out:
    if (rc != 0) {
        release_view(v);
    }
    Py_XDECREF(graph);
    Py_XDECREF(layers);
    Py_XDECREF(work);
    return rc;
}

/* Write a view's handled completions back to its instance: the fields
 * account_layer, the layer advance and _apply_grant set (state and
 * wake_time already hold RUNNING and inf), plus the CaMDN grant. */
static int
flush_view(inst_view *v)
{
    PyObject *inst = v->inst;
    if (set_double(inst, s_dram_bytes_total, v->dram_total) < 0 ||
        set_double(inst, s_hit_bytes_total, v->hit_total) < 0 ||
        set_double(inst, s_access_bytes_total, v->access_total) < 0 ||
        set_long(inst, s_layers_executed, v->executed) < 0 ||
        set_long(inst, s_layer_index, v->layer) < 0 ||
        (v->grant != NULL &&
         PyObject_SetAttr(inst, s_sched_scratch, v->grant) < 0) ||
        PyObject_SetAttr(inst, s_work, v->w.work) < 0 ||
        PyObject_SetAttr(inst, s_rem_compute_cycles, v->w.cycles) < 0 ||
        PyObject_SetAttr(inst, s_rem_dram_bytes, v->w.dram) < 0) {
        return -1;
    }
    v->dirty = 0;
    return 0;
}

/* Move a view to its next layer with work ``nw`` (ownership taken):
 * the inlined account_layer of the finished layer, then the layer
 * advance and _apply_grant's work install, held in the view until
 * flush_view.  The new work goes to c_i and d_i and the new layer
 * progress to prog_i (RunningKernel.set_work: layer_index /
 * max(num_layers, 1); int true division of values below 2**53 is the
 * correctly-rounded double quotient). */
static void
advance_view(inst_view *v, work_view *nw, double *c_i, double *d_i,
             double *prog_i)
{
    long nxt = v->layer + 1;
    v->dram_total += v->w.dram_bytes;
    v->hit_total += v->w.hit_bytes;
    v->access_total += v->w.access_bytes;
    v->executed += 1;
    v->layer = nxt;
    release_work(&v->w);
    v->w = *nw;
    v->dirty = 1;
    *c_i = PyFloat_AS_DOUBLE(nw->cycles);
    *d_i = nw->dram_bytes;
    *prog_i = (double)nxt / (double)(v->n_layers > 1 ? v->n_layers : 1);
}

/* One non-final layer completion under TABLE_WORKS, handled exactly as
 * MultiTenantEngine._process_completions -> on_layer_end (a no-op) ->
 * SharedCacheBaseline.begin_layer (memo hit) -> _apply_grant would.
 * HANDLED, or DECLINE with nothing changed (last layer, empty slot). */
static int
works_completion(inst_view *v, double *c_i, double *d_i, double *prog_i)
{
    long nxt = v->layer + 1;
    PyObject *work;
    work_view nw = {NULL, NULL, NULL, 0.0, 0.0, 0.0};

    if (nxt >= v->n_layers || nxt >= PyList_GET_SIZE(v->works)) {
        return DECLINE;  /* last layer: the task ends in Python */
    }
    work = PyList_GET_ITEM(v->works, nxt);
    if (work == Py_None || load_work(work, &nw) < 0) {
        return DECLINE;
    }
    advance_view(v, &nw, c_i, d_i, prog_i);
    return HANDLED;
}

/* ------------------------------------------------------------------
 * Region resizes.  A grant whose footprint differs from the task's
 * region moves pages exactly as RegionManager.resize does: the
 * region's page list (its CPT: vcpn i is backed by pcpns[i]) grows by
 * CachePageAllocator.allocate or shrinks by releasing its top vcpns'
 * pages, in the same order, on the same objects, storing the region's
 * own task_id object as the owner (pickle memoizes strings by
 * identity, so an equal but distinct string would change snapshot
 * bytes).  Each move first checks what Python checks (free-page count,
 * page ranges, ownership, duplicates) plus the types C relies on; a
 * failed check declines with nothing changed, so the Python chain
 * meets the same condition.
 * ------------------------------------------------------------------ */

/* pages._merge_sorted(a, b) as a new list in *out: 0, DECLINE when an
 * end item is not an exact int, or -1 on a Python error. */
static int
merge_sorted(PyObject *a, PyObject *b, PyObject **out)
{
    Py_ssize_t na = PyList_GET_SIZE(a), nb = PyList_GET_SIZE(b);
    long a0, a1, b0, b1;

    *out = NULL;
    if (na == 0 || nb == 0) {
        *out = na == 0 ? PyList_GetSlice(b, 0, nb)
                       : PyList_GetSlice(a, 0, na);
        return *out == NULL ? -1 : 0;
    }
    if (list_long(a, 0, &a0) < 0 || list_long(a, na - 1, &a1) < 0 ||
        list_long(b, 0, &b0) < 0 || list_long(b, nb - 1, &b1) < 0) {
        return DECLINE;
    }
    if (a1 < b0) {
        *out = PySequence_Concat(a, b);
    }
    else if (b1 < a0) {
        *out = PySequence_Concat(b, a);
    }
    else {
        *out = PySequence_Concat(a, b);
        if (*out != NULL && PyList_Sort(*out) < 0) {
            Py_CLEAR(*out);
        }
    }
    return *out == NULL ? -1 : 0;
}

/* The objects a resize touches: the page allocator, its free list and
 * reverse map, and the region's owner. */
typedef struct {
    PyObject *pages;                    /* borrowed from the table */
    PyObject *free, *page_owner, *owner;
    long num_pages;
} resize_ctx;

static void
release_resize(resize_ctx *r)
{
    Py_CLEAR(r->free);
    Py_CLEAR(r->page_owner);
    Py_CLEAR(r->owner);
}

/* Fill ``r`` from the page allocator and the region (``_free`` is read
 * afresh: release replaces the list).  0, DECLINE, or -1. */
static int
load_resize(PyObject *pages, PyObject *region, resize_ctx *r)
{
    memset(r, 0, sizeof(*r));
    r->pages = pages;
    r->free = get_attr(pages, s_free);
    r->page_owner = get_attr(pages, s_page_owner);
    r->owner = get_attr(region, s_task_id);
    if (r->free == NULL || !PyList_CheckExact(r->free) ||
        r->page_owner == NULL || !PyList_CheckExact(r->page_owner) ||
        r->owner == NULL ||
        attr_long(pages, s_num_pages, &r->num_pages) < 0) {
        return DECLINE;
    }
    return 0;
}

/* Grow ``pcpns`` from ``current`` to ``target`` pages: allocate (take
 * the lowest free pages and own them in the reverse map), then extend
 * the region.  0, DECLINE, or -1. */
static int
region_grow(resize_ctx *r, PyObject *pcpns, long current, long target)
{
    Py_ssize_t delta = target - current, j;
    PyObject *granted;
    long p;
    int rc = -1;

    if (delta > PyList_GET_SIZE(r->free)) {
        return DECLINE;  /* allocate: not enough free pages */
    }
    for (j = 0; j < delta; j++) {
        if (list_long(r->free, j, &p) < 0 || p < 0 ||
            p >= PyList_GET_SIZE(r->page_owner)) {
            return DECLINE;  /* not a reverse-map index */
        }
    }
    granted = PyList_GetSlice(r->free, 0, delta);
    if (granted == NULL) {
        return -1;
    }

    /* --- apply: allocate, then the region's list --- */
    if (PyList_SetSlice(r->free, 0, delta, NULL) < 0) {
        goto out;
    }
    for (j = 0; j < delta; j++) {
        (void)list_long(granted, j, &p);
        if (PyList_SetItem(r->page_owner, p, Py_NewRef(r->owner)) < 0) {
            goto out;
        }
    }
    if (PyList_SetSlice(pcpns, current, current, granted) < 0) {
        goto out;
    }
    rc = 0;

out:
    Py_DECREF(granted);
    return rc;
}

/* Shrink ``pcpns`` from ``current`` to ``target`` pages: release the
 * top vcpns' pages (free them in the reverse map, merge them into a new
 * free list), then truncate the region.  0, DECLINE, or -1. */
static int
region_shrink(resize_ctx *r, PyObject *pcpns, long current, long target)
{
    Py_ssize_t k = current - target, j;
    PyObject *sorted, *new_free = NULL;
    long p, prev = 0;
    int rc = DECLINE;

    if (target < 0) {
        return DECLINE;  /* resize: a negative size */
    }
    sorted = PyList_GetSlice(pcpns, target, current);
    if (sorted == NULL) {
        return -1;
    }
    /* release's checks: range, ownership, then duplicates. */
    for (j = 0; j < k; j++) {
        PyObject *po;
        int same;
        if (list_long(sorted, j, &p) < 0 || p < 0 || p >= r->num_pages ||
            p >= PyList_GET_SIZE(r->page_owner)) {
            goto out;
        }
        po = PyList_GET_ITEM(r->page_owner, p);
        same = po == r->owner ||
            PyObject_RichCompareBool(po, r->owner, Py_EQ);
        if (same != 1) {
            rc = same < 0 ? -1 : DECLINE;
            goto out;
        }
    }
    if (PyList_Sort(sorted) < 0) {
        rc = -1;
        goto out;
    }
    for (j = 0; j < k; j++) {
        (void)list_long(sorted, j, &p);
        if (j > 0 && p == prev) {
            goto out;  /* a duplicate would double-free */
        }
        prev = p;
    }
    rc = merge_sorted(r->free, sorted, &new_free);
    if (rc != 0) {
        goto out;
    }

    /* --- apply: release, then truncate the region --- */
    rc = -1;
    for (j = 0; j < k; j++) {
        (void)list_long(sorted, j, &p);
        if (PyList_SetItem(r->page_owner, p, Py_NewRef(Py_None)) < 0) {
            goto out;
        }
    }
    /* ``self._free = _merge_sorted(self._free, victims)`` */
    if (PyObject_SetAttr(r->pages, s_free, new_free) < 0) {
        goto out;
    }
    if (PyList_SetSlice(pcpns, target, current, NULL) < 0) {
        goto out;
    }
    rc = 0;

out:
    Py_DECREF(sorted);
    Py_XDECREF(new_free);
    return rc;
}

/* CaMDNSystem._try_grant's writes for a selection camdn_select granted:
 * the region resize (RegionManager.resize), then the palloc commit.
 * ``palloc_sum`` is written back to the allocator at once, so later
 * selections of this call and the Python chain see it.  The view's
 * region size follows the resize.  0, DECLINE (nothing changed), or
 * -1. */
static int
camdn_grant(batch_table *t, inst_view *v, long pages, long palloc)
{
    if (pages != v->region_pages) {
        long current = (long)PyList_GET_SIZE(v->pcpns);
        resize_ctx r;
        int rc = load_resize(t->pages, v->region, &r);
        if (rc == 0) {
            rc = pages > current
                ? region_grow(&r, v->pcpns, current, pages)
                : region_shrink(&r, v->pcpns, current, pages);
        }
        release_resize(&r);
        if (rc != 0) {
            return rc;
        }
        v->region_pages = pages;
    }
    if (palloc != pages) {
        PyObject *sum, *item = PyLong_FromLong(pages);
        if (item == NULL ||
            PyList_SetItem(t->palloc_l, v->slot, item) < 0) {
            return -1;
        }
        t->palloc_sum += pages - palloc;
        sum = PyLong_FromLong(t->palloc_sum);
        if (sum == NULL ||
            PyObject_SetAttr(t->alloc, s_palloc_sum, sum) < 0) {
            Py_XDECREF(sum);
            return -1;
        }
        Py_DECREF(sum);
    }
    return 0;
}

/* One non-final layer completion under TABLE_CAMDN at ``now``, handled
 * exactly as MultiTenantEngine._process_completions ->
 * CaMDNSchedulerBase.on_layer_end -> begin_layer ->
 * CaMDNSystem._try_grant -> MultiTenantEngine._apply_grant would:
 * decide the next layer (camdn_select), take the memoized
 * ``(grant, (work, 0.0), is_lbm)`` entry, resize the task's region when
 * the footprint changes (camdn_grant) and install the work.  A memo
 * miss first calls the table's builder, which stores the entry and
 * changes no run state (it must not read the instance's layer_index,
 * which this view holds until flush_view).
 *
 * HANDLED; DECLINE with nothing changed when the Python chain must
 * handle the completion (last layer, denial, unexpected types); -1 on
 * a Python error, the builder's included. */
static int
camdn_completion(batch_table *t, inst_view *v, double now,
                 double *c_i, double *d_i, double *prog_i, long *lbm)
{
    PyObject *memo, *key, *entry, *pair, *is_lbm, *grant, *free;
    PyObject *new_block = NULL;
    long nxt = v->layer + 1;
    int rc;
    camdn_query q;
    camdn_choice ch;
    work_view nw = {NULL, NULL, NULL, 0.0, 0.0, 0.0};

    if (nxt >= v->n_layers) {
        return DECLINE;  /* last layer: the task ends in Python */
    }
    if (nxt >= PyList_GET_SIZE(v->rows) ||
        nxt >= PyList_GET_SIZE(v->pairs)) {
        return DECLINE;
    }
    memo = PyList_GET_ITEM(v->pairs, nxt);
    if (!PyDict_CheckExact(memo)) {
        return DECLINE;
    }
    /* The free-page count of the grant rule, from the live list. */
    free = get_attr(t->pages, s_free);
    if (free == NULL || !PyList_CheckExact(free)) {
        Py_XDECREF(free);
        return DECLINE;
    }
    q.free_pages = (long)PyList_GET_SIZE(free);
    Py_DECREF(free);
    q.tnext_l = t->tnext_l;
    q.pnext_l = t->pnext_l;
    q.palloc_l = t->palloc_l;
    q.row = PyList_GET_ITEM(v->rows, nxt);
    q.slot = v->slot;
    q.total_pages = t->total_pages;
    q.palloc_sum = t->palloc_sum;
    q.lbm_s = v->lbm_s;
    q.lbm_e = v->lbm_e;
    q.layer_index = v->layer;
    q.region_pages = v->region_pages;
    q.hw_mode = t->hw_mode;
    q.share = t->share;
    q.now = now;
    if (camdn_select(&q, &ch)) {
        return DECLINE;
    }
    /* cores is capped at 2 (cores_for), so packing the code above it
     * never collides. */
    key = PyLong_FromLong(ch.code * 64 + v->cores);
    if (key == NULL) {
        return -1;
    }
    entry = PyDict_GetItemWithError(memo, key);
    if (entry == NULL && !PyErr_Occurred()) {
        /* A memo miss: the builder stores the entry.  It runs Python
         * code, so the memo dict is fetched again from the list the
         * view holds. */
        PyObject *res = PyObject_CallFunction(t->build, "Oll", v->inst,
                                              nxt, ch.code);
        if (res != NULL) {
            Py_DECREF(res);
            memo = nxt < PyList_GET_SIZE(v->pairs)
                ? PyList_GET_ITEM(v->pairs, nxt) : NULL;
            if (memo != NULL && PyDict_CheckExact(memo)) {
                entry = PyDict_GetItemWithError(memo, key);
            }
            if (entry == NULL && !PyErr_Occurred()) {
                PyErr_SetString(PyExc_RuntimeError,
                                "batch_loop: the memo builder stored "
                                "no entry");
            }
        }
    }
    Py_DECREF(key);
    if (entry == NULL) {
        return -1;
    }
    if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 3) {
        return DECLINE;
    }
    pair = PyTuple_GET_ITEM(entry, 1);
    is_lbm = PyTuple_GET_ITEM(entry, 2);
    if (!PyTuple_CheckExact(pair) || PyTuple_GET_SIZE(pair) != 2 ||
        (is_lbm != Py_True && is_lbm != Py_False) ||
        load_work(PyTuple_GET_ITEM(pair, 0), &nw) < 0) {
        return DECLINE;
    }
    /* The grant is installed after block_of may have run Python code. */
    grant = Py_NewRef(PyTuple_GET_ITEM(entry, 0));
    if (ch.lbm_s != v->lbm_s || ch.lbm_e != v->lbm_e) {
        /* block_of returns the mapping file's canonical block tuple,
         * the very object the Python chain installs (snapshot bytes
         * stay identical across paths). */
        if (ch.lbm_s < 0) {
            new_block = Py_NewRef(Py_None);
        }
        else {
            PyObject *arg = PyLong_FromLong(nxt);
            if (arg != NULL) {
                new_block = PyObject_CallMethodOneArg(v->mf, s_block_of,
                                                      arg);
                Py_DECREF(arg);
            }
            if (new_block == NULL) {
                Py_DECREF(grant);
                release_work(&nw);
                return -1;
            }
        }
    }

    /* --- commit: the grant's page moves first, since a failed check
     * there still declines with nothing changed --- */
    rc = camdn_grant(t, v, ch.pages, ch.palloc);
    if (rc != 0 || camdn_commit(&q, &ch) < 0 ||
        (new_block != NULL &&
         PyObject_SetAttr(v->state, s_lbm_block, new_block) < 0)) {
        Py_XDECREF(new_block);
        Py_DECREF(grant);
        release_work(&nw);
        return rc == DECLINE ? DECLINE : -1;
    }
    Py_XDECREF(new_block);
    v->lbm_s = ch.lbm_s;
    v->lbm_e = ch.lbm_e;
    Py_XSETREF(v->grant, grant);
    if (is_lbm == Py_True) {
        (*lbm)++;
    }
    advance_view(v, &nw, c_i, d_i, prog_i);
    return HANDLED;
}

static int
parse_table(PyObject *obj, batch_table *t)
{
    Py_ssize_t size;

    memset(t, 0, sizeof(*t));
    if (obj == Py_None) {
        return 0;
    }
    if (!PyTuple_CheckExact(obj) || PyTuple_GET_SIZE(obj) < 1) {
        goto bad;
    }
    size = PyTuple_GET_SIZE(obj);
    t->kind = PyLong_AsLong(PyTuple_GET_ITEM(obj, 0));
    if (t->kind == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (t->kind == TABLE_WORKS && size == 3) {
        t->works = PyTuple_GET_ITEM(obj, 1);
        t->factor = PyTuple_GET_ITEM(obj, 2);
        if (!PyDict_CheckExact(t->works) ||
            !PyFloat_CheckExact(t->factor)) {
            goto bad;
        }
        return 0;
    }
    if (t->kind == TABLE_CAMDN && size == 12) {
        t->tnext_l = PyTuple_GET_ITEM(obj, 1);
        t->pnext_l = PyTuple_GET_ITEM(obj, 2);
        t->palloc_l = PyTuple_GET_ITEM(obj, 3);
        t->total_pages = PyLong_AsLong(PyTuple_GET_ITEM(obj, 4));
        t->palloc_sum = PyLong_AsLong(PyTuple_GET_ITEM(obj, 5));
        t->share = PyLong_AsLong(PyTuple_GET_ITEM(obj, 6));
        t->hw_mode = PyLong_AsLong(PyTuple_GET_ITEM(obj, 7));
        t->fast_files = PyTuple_GET_ITEM(obj, 8);
        t->pages = PyTuple_GET_ITEM(obj, 9);
        t->alloc = PyTuple_GET_ITEM(obj, 10);
        t->build = PyTuple_GET_ITEM(obj, 11);
        if (PyErr_Occurred()) {
            return -1;
        }
        if (!PyDict_CheckExact(t->fast_files) ||
            !PyCallable_Check(t->build)) {
            goto bad;
        }
        return 0;
    }

bad:
    PyErr_SetString(PyExc_TypeError,
                    "batch_loop: malformed completion table");
    return -1;
}

/* batch_loop(insts, rem_c, rem_d, rate_c, rate_d, sl_arrival, sl_qos,
 *            sl_est, sl_progress, mode, freq, total_bw, eff, floor,
 *            urgency, now, wake_s, timeline_s, fault_s, events,
 *            max_events, queued, waiting, table)
 *   -> (handled, now, lbm_layers, rest, poll) | None
 *
 * The body of MultiTenantEngine._batch_run for every policy: each
 * event is the fused step (MODE_STATIC with the installed rate_c /
 * rate_d, which the engine only passes for policies whose rates change
 * with membership alone; the fused modes recompute rates per event),
 * and each layer completion is handled here while the policy's
 * completion ``table`` allows (works_completion, camdn_completion),
 * until the loop must hand back.  ``wake_s``, ``timeline_s`` and
 * ``fault_s`` are the absolute next wakeup, timeline and fault instants
 * (inf when none); they stay fixed because only Python changes them.
 * ``queued``/``waiting`` are the engine's dispatch queue and waiting
 * set (truth-tested): with either, the loop stops after any event with
 * completions, since dispatch and the waiters' re-poll need the Python
 * machinery.  ``table`` is the policy's native_batch_args() (see
 * batch_table), or None to decline every completion.
 *
 * ``handled`` events were stepped, and ``now`` is the time after the
 * last of them; ``lbm_layers`` counts the handled CaMDN completions
 * that ran an LBM candidate.  ``rest`` says why the loop stopped:
 *
 * - None: after the last event the engine's batch must end (a wakeup,
 *   timeline or fault instant is due, the event cap is reached, or the
 *   queue waits for a completion);
 * - a list: the last event's completions from the first declined one
 *   on, untouched, for the Python chain, in order;
 * - an empty list: with ``poll`` true, the last event had completions,
 *   all handled here, while waiters were pending; without, the next
 *   event needs the per-event path (fused-rate bail, idle or negative
 *   step).
 *
 * ``poll`` is true when the last event had completions while waiters
 * were pending: the engine hands ``rest`` to _process_completions even
 * when it is empty, which re-polls the waiters after the completions.
 *
 * None (the whole call) means that happened before the first event:
 * nothing was touched.  The loop keeps no state between calls: each
 * call leaves the fluid lists, slack progress, instances, tasks,
 * regions, page allocator and predictor lists exactly as the
 * per-event Python loop would.
 */
static PyObject *
batch_loop(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *insts, *rem_c_l, *rem_d_l, *rate_c_l, *rate_d_l, *sl_l[4];
    PyObject *rest = NULL, *result = NULL;
    batch_table table;
    long mode, lbm = 0;
    long long events, max_events;
    double freq, total_bw, eff, fl, urgency, now, wake, timeline, fault;
    int queued, waiting, slack, bailed = 0, poll = 0;
    step_buf buf;
    inst_view *views = NULL;
    double *c, *d, *rc, *rd, *dem, *sl;
    Py_ssize_t n, k, handled = 0;

    if (nargs != 24) {
        PyErr_SetString(PyExc_TypeError,
                        "batch_loop expects exactly 24 arguments");
        return NULL;
    }
    insts = args[0];
    rem_c_l = args[1];
    rem_d_l = args[2];
    rate_c_l = args[3];
    rate_d_l = args[4];
    for (k = 0; k < 4; k++) {
        sl_l[k] = args[5 + k];
    }
    mode = PyLong_AsLong(args[9]);
    freq = PyFloat_AsDouble(args[10]);
    total_bw = PyFloat_AsDouble(args[11]);
    eff = PyFloat_AsDouble(args[12]);
    fl = PyFloat_AsDouble(args[13]);
    urgency = PyFloat_AsDouble(args[14]);
    now = PyFloat_AsDouble(args[15]);
    wake = PyFloat_AsDouble(args[16]);
    timeline = PyFloat_AsDouble(args[17]);
    fault = PyFloat_AsDouble(args[18]);
    events = PyLong_AsLongLong(args[19]);
    max_events = PyLong_AsLongLong(args[20]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    queued = PyObject_IsTrue(args[21]);
    waiting = PyObject_IsTrue(args[22]);
    if (queued < 0 || waiting < 0 || parse_table(args[23], &table) < 0) {
        return NULL;
    }
    if (mode < MODE_STATIC || mode > MODE_SLACK_THROTTLED) {
        Py_RETURN_NONE;
    }
    slack = mode == MODE_SLACK_WEIGHTED || mode == MODE_SLACK_THROTTLED;
    if (!PyList_CheckExact(insts) || !PyList_CheckExact(rem_c_l) ||
        !PyList_CheckExact(rem_d_l)) {
        Py_RETURN_NONE;
    }
    n = PyList_GET_SIZE(insts);
    if (n == 0 || PyList_GET_SIZE(rem_c_l) != n ||
        PyList_GET_SIZE(rem_d_l) != n) {
        Py_RETURN_NONE;
    }
    if (mode == MODE_STATIC &&
        (!PyList_CheckExact(rate_c_l) || !PyList_CheckExact(rate_d_l) ||
         PyList_GET_SIZE(rate_c_l) != n ||
         PyList_GET_SIZE(rate_d_l) != n)) {
        Py_RETURN_NONE;
    }
    if (slack) {
        for (k = 0; k < 4; k++) {
            if (!PyList_CheckExact(sl_l[k]) ||
                PyList_GET_SIZE(sl_l[k]) != n) {
                Py_RETURN_NONE;
            }
        }
    }
    if (step_buf_init(&buf, n) < 0) {
        return NULL;
    }
    c = buf.d;
    d = c + n;
    rc = d + n;
    rd = rc + n;
    dem = rd + n;
    sl = dem + n;
    if (read_doubles(rem_c_l, c, n) < 0 ||
        read_doubles(rem_d_l, d, n) < 0) {
        goto bail_none;
    }
    if (mode == MODE_STATIC &&
        (read_doubles(rate_c_l, rc, n) < 0 ||
         read_doubles(rate_d_l, rd, n) < 0)) {
        goto bail_none;
    }
    if (slack) {
        for (k = 0; k < 4; k++) {
            if (read_doubles(sl_l[k], sl + k * n, n) < 0) {
                goto bail_none;
            }
        }
    }
    if (table.kind != TABLE_NONE) {
        views = PyMem_Calloc((size_t)n, sizeof(inst_view));
        if (views == NULL) {
            PyErr_NoMemory();
            goto done;
        }
    }

    for (;;) {
        double wait_dt = Py_HUGE_VAL, t, dt;
        Py_ssize_t nfin;

        /* The engine's wait_dt: next wakeup, then timeline, then
         * fault instant, each clamped at zero. */
        t = wake - now;
        if (t < wait_dt) {
            wait_dt = t;
            if (wait_dt < 0.0) {
                wait_dt = 0.0;
            }
        }
        t = timeline - now;
        if (t < wait_dt) {
            wait_dt = t;
            if (wait_dt < 0.0) {
                wait_dt = 0.0;
            }
        }
        t = fault - now;
        if (t < wait_dt) {
            wait_dt = t;
            if (wait_dt < 0.0) {
                wait_dt = 0.0;
            }
        }
        if (mode != MODE_STATIC &&
            fused_rates(mode, n, c, d, sl, sl + n, sl + 2 * n, sl + 3 * n,
                        now, urgency, freq, total_bw, eff, fl, rc, rd,
                        dem) < 0) {
            bailed = 1;
            break;
        }
        dt = event_dt(n, c, d, rc, rd, wait_dt);
        if (dt == Py_HUGE_VAL || dt < 0.0) {
            /* Idle or corrupt: the per-event path reports it. */
            bailed = 1;
            break;
        }
        nfin = drain(n, c, d, rc, rd, dt, buf.fin);
        now += dt;
        events++;
        handled++;
        for (k = 0; k < nfin; k++) {
            Py_ssize_t i = buf.fin[k];
            int r = DECLINE;
            if (views != NULL) {
                r = views[i].loaded ? 0
                    : load_view(&table, PyList_GET_ITEM(insts, i),
                                &views[i]);
                if (r == 0) {
                    r = table.kind == TABLE_WORKS
                        ? works_completion(&views[i], c + i, d + i,
                                           sl + 3 * n + i)
                        : camdn_completion(&table, &views[i], now, c + i,
                                           d + i, sl + 3 * n + i, &lbm);
                }
                if (r < 0) {
                    goto done;
                }
            }
            if (r == DECLINE) {
                rest = positions_list(buf.fin + k, nfin - k);
                if (rest == NULL) {
                    goto done;
                }
                break;
            }
        }
        if (nfin && waiting) {
            /* The waiters are re-polled after this event's completions,
             * in Python. */
            poll = 1;
            if (rest == NULL && (rest = PyList_New(0)) == NULL) {
                goto done;
            }
        }
        if (rest != NULL || (nfin && queued)) {
            break;
        }
        if (wake - now <= WAKE_EPS || timeline - now <= WAKE_EPS ||
            fault - now <= WAKE_EPS || events >= max_events) {
            break;
        }
    }
    if (handled == 0) {
        PyMem_Free(views);
        goto bail_none;
    }
    if (bailed) {
        rest = PyList_New(0);
        if (rest == NULL) {
            goto done;
        }
    }
    for (k = 0; views != NULL && k < n; k++) {
        if (views[k].dirty && flush_view(&views[k]) < 0) {
            goto done;
        }
    }
    /* Write the fluid state back (the lists stay authoritative). */
    if (write_doubles(rem_c_l, c, n) < 0 ||
        write_doubles(rem_d_l, d, n) < 0 ||
        (slack && write_doubles(sl_l[3], sl + 3 * n, n) < 0)) {
        goto done;
    }
    result = Py_BuildValue("(ndlOO)", handled, now, lbm,
                           rest != NULL ? rest : Py_None,
                           poll ? Py_True : Py_False);

done:
    Py_XDECREF(rest);
    if (views != NULL) {
        for (k = 0; k < n; k++) {
            release_view(&views[k]);
        }
        PyMem_Free(views);
    }
    step_buf_free(&buf);
    return result;

bail_none:
    step_buf_free(&buf);
    Py_RETURN_NONE;
}

static PyMethodDef batchstep_methods[] = {
    {"fused_step", (PyCFunction)(void (*)(void))fused_step,
     METH_FASTCALL,
     "Fused rates-recompute + min-dt + advance for one engine event."},
    {"batch_loop", (PyCFunction)(void (*)(void))batch_loop,
     METH_FASTCALL,
     "The engine batch loop: fused steps plus the layer completions "
     "the policy's table covers."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef batchstep_module = {
    PyModuleDef_HEAD_INIT,
    "_batchstep",
    "Native kernels for the fluid engine batch loop.",
    -1,
    batchstep_methods,
};

static int
intern_names(void)
{
    static const struct {
        PyObject **slot;
        const char *name;
    } names[] = {
        {&s_layer_index, "layer_index"},
        {&s_graph, "graph"},
        {&s_layers, "layers"},
        {&s_name, "name"},
        {&s_sched_ctx, "sched_ctx"},
        {&s_mapping_file, "mapping_file"},
        {&s_lbm_block, "lbm_block"},
        {&s_slot, "_slot"},
        {&s_pcpns, "pcpns"},
        {&s_cores, "cores"},
        {&s_work, "work"},
        {&s_compute_cycles, "compute_cycles"},
        {&s_dram_bytes, "dram_bytes"},
        {&s_hit_bytes, "hit_bytes"},
        {&s_access_bytes, "access_bytes"},
        {&s_dram_bytes_total, "dram_bytes_total"},
        {&s_hit_bytes_total, "hit_bytes_total"},
        {&s_access_bytes_total, "access_bytes_total"},
        {&s_layers_executed, "layers_executed"},
        {&s_sched_scratch, "sched_scratch"},
        {&s_rem_compute_cycles, "rem_compute_cycles"},
        {&s_rem_dram_bytes, "rem_dram_bytes"},
        {&s_block_of, "block_of"},
        {&s_free, "_free"},
        {&s_page_owner, "_page_owner"},
        {&s_num_pages, "num_pages"},
        {&s_task_id, "task_id"},
        {&s_palloc_sum, "_palloc_sum"},
    };
    size_t i;
    for (i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        if (*names[i].slot == NULL) {
            *names[i].slot = PyUnicode_InternFromString(names[i].name);
            if (*names[i].slot == NULL) {
                return -1;
            }
        }
    }
    return 0;
}

PyMODINIT_FUNC
PyInit__batchstep(void)
{
    if (intern_names() < 0) {
        return NULL;
    }
    return PyModule_Create(&batchstep_module);
}
