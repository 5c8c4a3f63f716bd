/**
 * @file
 * Shared pieces of the end-to-end benchmark: run options, the report
 * every workload fills, timers, order statistics, the in-memory span
 * log of the traced mode, and the independent output checkers.
 *
 * The checkers never consult a stored copy of earlier output: they
 * recompute what the method guarantees (coupling, per-qubit gate
 * order, closed-form native counts, the Eq. 12 fidelity model, the
 * NuOp template product) from the inputs alone.
 */
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <complex>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "ir/circuit.hpp"
#include "target/target.hpp"
#include "transpiler/pass_manager.hpp"

namespace perfbench
{

/** Command-line settings of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir; //!< scratch space inside the checkout
};

/** One named metric as printed in the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main(). */
struct Report
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics; //!< the gated metrics of this mode
    std::vector<Metric> info;    //!< extra figures, printed, not gated
    std::vector<std::string> failures; //!< first few check messages

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void note(const std::string &name, double value, const std::string &unit)
    {
        info.push_back({name, value, unit});
    }
    /** Record a failed check (keeps the first 20 messages). */
    void fail(const std::string &message);
};

/** Deterministic 64-bit mixer (SplitMix64) for deriving seeds. */
std::uint64_t mix64(std::uint64_t x);

/** Seconds on the steady clock since an arbitrary epoch. */
double nowSeconds();
/** User + system CPU seconds of the whole process (all threads). */
double processCpuSeconds();
/** Peak resident set size of this program image in MB (VmHWM). */
double peakRssMb();

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> values);

/** Wall seconds of a fixed, benchmark-owned reference kernel on one thread. */
double referenceSeconds();

/**
 * Host-speed scaling of time metrics.  The shared VM this benchmark
 * was tuned on changed speed by up to ~30% from one minute to the
 * next, which no bound on raw seconds survives.  Each timed interval
 * is therefore scaled by the reference kernel's speed, measured just
 * before and just after it:
 *
 *     reported = measured * kReferenceSeconds / mean(kernel before, after)
 *
 * that is, seconds on a host that runs the kernel in kReferenceSeconds
 * (about this VM's single-thread speed when its neighbours are idle).
 * The kernel runs on one thread even for multi-threaded rounds: new
 * threads started after a serial phase shared one CPU for up to ~1.5 s
 * on that VM, so a kernel on all cores measured thread placement
 * rather than host speed.  The kernel calls no snailqc code, so no
 * program change moves it.
 */
class HostSpeed
{
  public:
    /** Kernel time on this VM when idle. */
    static constexpr double kReferenceSeconds = 0.05;

    HostSpeed();
    /**
     * The factor for the interval since the previous call (or since
     * construction); runs the kernel again to open the next interval.
     */
    double factor();
    /** Median factor so far (1 = the reference speed). */
    double medianFactor() const { return median(_factors); }

  private:
    double _last;
    std::vector<double> _factors;
};

/**
 * The tail percentile of the choosing-metrics rule: the highest of
 * p99.9/p99/p95/p90/p75 with at least ten samples beyond it.  Returns
 * false (and leaves the outputs alone) for fewer than 40 samples.
 */
bool tailPercentile(std::vector<double> values, double &value,
                    std::string &label);

/** Wall and CPU time of one timed region. */
struct Stopwatch
{
    double wall0 = nowSeconds();
    double cpu0 = processCpuSeconds();
    double wall() const { return nowSeconds() - wall0; }
    double cpu() const { return processCpuSeconds() - cpu0; }
};

/** Measured wall and CPU seconds of one round. */
struct RoundTime
{
    double wall = 0.0;
    double cpu = 0.0;
};

/** What a workload plugs into timedRounds(). */
struct TimedWorkload
{
    std::function<void()> set_up;      //!< build the inputs
    std::function<RoundTime()> round;  //!< one round, timing its own region
    std::function<void(Report &)> check; //!< check the round just run
};

/** Set-ups per untraced run; their median is `setup_s`. */
constexpr int kSetUps = 15;

/**
 * The untraced mode shared by every workload: kSetUps set-ups, then
 * whole rounds, each followed by its check, until `options.seconds`
 * have passed (always at least one).  Every set-up and every round is
 * scaled by HostSpeed.  Reports `setup_s`, `job_s`, `cpu_s` and
 * `peak_rss_mb` (medians where repeated) and notes `job_s_unscaled`,
 * `host_speed` and `rounds`; the caller adds its output metrics.
 */
Report timedRounds(const Options &options, const TimedWorkload &workload);

/** The pass name of a PassStat entry ("stochastic-route=10" -> "stochastic-route"). */
std::string passName(const std::string &entry);

/**
 * In-memory span log of the traced mode: one record per call into the
 * program, with its parent span and the id of the job it served.
 * Written at exit as Chrome trace events (B/E pairs on one thread).
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0; //!< seconds since the log's epoch
        double end = 0.0;
        int parent = -1;
        long job = -1;
    };

    /** Open a span under the innermost open one; returns its id. */
    int open(const std::string &name, long job = -1);
    /** Close span `id` (must be the innermost open span). */
    void close(int id);
    /** Duration of a closed span in ms. */
    double ms(int id) const;

    const std::vector<Span> &spans() const { return _spans; }
    /** Sum of durations of every span called `name`, in ms. */
    double totalMs(const std::string &name) const;
    /** Longest span called `name`, in ms. */
    double maxMs(const std::string &name) const;

    /** Chrome trace-event JSON ({"traceEvents":[...]}). */
    std::string chromeJson() const;

  private:
    double _epoch = nowSeconds();
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** RAII span on a SpanLog (no-op when the log is null). */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const std::string &name, long job = -1)
        : _log(log), _id(log != nullptr ? log->open(name, job) : -1)
    {
    }
    ~SpanScope()
    {
        if (_log != nullptr) {
            _log->close(_id);
        }
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *_log;
    int _id;
};

/** Write `text` to `path`; returns false on I/O failure. */
bool writeFile(const std::string &path, const std::string &text);

/** @name Independent checkers. */
/** @{ */

/** Undirected coupled pairs of a target, as (min, max). */
std::set<std::pair<int, int>> couplingPairs(const snail::Target &target);

/** Pulse length of the target's native 2Q gate (1 CX/Syc, 0.5 sqiSWAP). */
double basisPulse(const snail::Target &target);

/**
 * Verify a routed circuit gate for gate against its input: every 2Q
 * gate on a coupled pair; SWAPs that are not input gates move the
 * tracked layout; the gate sequence on every virtual qubit equals the
 * input's; the tracked layout ends at `final_v2p`.  Returns "" when
 * the routed circuit passes, else the first violation.
 */
std::string verifyRouting(const snail::Circuit &input,
                          const snail::Circuit &routed,
                          const std::vector<int> &initial_v2p,
                          const std::vector<int> &final_v2p,
                          const std::set<std::pair<int, int>> &coupled);

/** One gate of a routed OpenQASM listing, as read by qasmGates(). */
struct QasmGate
{
    std::string name;
    std::vector<double> params;
    std::vector<int> qubits;
};

/**
 * Minimal OpenQASM 2.0 reader for routed listings: header, one qreg,
 * and gate lines with numeric parameters.  Throws std::runtime_error
 * on anything else.
 */
std::vector<QasmGate> qasmGates(const std::string &source);

/**
 * Native 2Q gate count of one gate on a CX or sqiSWAP machine under
 * the closed-form table: SWAP 3; CX/CZ 1 on CX, 2 on sqiSWAP;
 * CPhase(theta) 2 except at the identity (0) and CZ (pi) ends, with
 * RZZ(theta) locally CPhase(2 theta).  Returns -1 when the table has
 * no entry for the gate.
 */
int closedFormCount(const QasmGate &gate, bool sqiswap);

/**
 * Check one serialized transpile result against its target: coupling
 * and SWAP count from routed_qasm (required when the circuit is
 * `exportable` as OpenQASM; QV's SU(4) gates are not), the
 * closed-form native total for exportable circuits on CX or sqiSWAP
 * machines, and the Eq. 12/13 fidelity identities.  Returns "" when
 * every check passes.
 */
std::string checkServePayload(const snail::JsonValue &result,
                              const snail::Target &target, bool exportable);

/** The analytic n-th root of iSWAP. */
std::vector<std::complex<double>> nrootIswapMatrix(double n);

/**
 * Hilbert-Schmidt fidelity |Tr(T^dagger C)|/4 of the NuOp template
 * C = L_k B ... B L_0, L_i = u3(a_i) (x) u3(b_i), rebuilt from the
 * returned angles ([layer][qubit][theta, phi, lam]).
 */
double templateFidelity(const std::vector<double> &params, int k,
                        const std::vector<std::complex<double>> &basis,
                        const std::vector<std::complex<double>> &target);

/**
 * Check one NuOp result: 6(k+1) angles whose rebuilt template has
 * fidelity 1 - infidelity within 1e-9.  Returns "" when it holds.
 */
std::string checkNuop(const std::vector<double> &params, int k,
                      double infidelity,
                      const std::vector<std::complex<double>> &basis,
                      const std::vector<std::complex<double>> &target);

/** @} */

/** @name Workloads (fig14.cpp, serve.cpp, fig15.cpp). */
/** @{ */
Report runFig14(const Options &options, SpanLog *log);
Report runServe(const Options &options, SpanLog *log);
Report runFig15(const Options &options, SpanLog *log);
/** The checker self-test; returns the number of checks that misbehaved. */
int runSelfTest();
/** @} */

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
