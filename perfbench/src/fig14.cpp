/**
 * @file
 * Workload fig14-sweep: the paper's Fig. 14 grid (six benchmark
 * families on the five 84-qubit co-designed machines, paper-default
 * pipeline) written as a sweep spec and run by runSweep on all cores.
 * Stochastic routing does most of the work; the daemon, the
 * persistent cache store and NuOp are never touched.
 */
#include <cmath>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "explore/engine.hpp"
#include "obs/metrics.hpp"
#include "transpiler/pass_registry.hpp"

namespace perfbench
{

using namespace snail;

namespace
{

/** The paper's Fig. 14 widths: 8 to 80 qubits in steps of 8. */
const std::vector<int> kWidths = {8, 16, 24, 32, 40, 48, 56, 64, 72, 80};
const std::vector<std::string> kBenches = {"qv",   "qft",   "qaoa",
                                           "tim",  "adder", "ghz"};
const std::vector<std::string> kTargets = {
    "heavy-hex-84-cx", "square-84-syc", "tree-84-sqiswap",
    "tree-rr-84-sqiswap", "hypercube-84-sqiswap"};
const char *const kPipeline = "dense,stochastic-route=10";

/** Everything the timed rounds and the checks need. */
struct Inputs
{
    SweepSpec spec;
    std::vector<CircuitInstance> circuits;
    std::vector<Target> targets;
    std::vector<std::size_t> plain_2q; //!< per circuit: non-SWAP 2Q gates
    std::vector<std::set<std::pair<int, int>>> coupled; //!< per target
    std::vector<double> pulse;                          //!< per target
};

std::string
specJson(std::uint64_t seed)
{
    JsonValue::Array circuits;
    for (const std::string &bench : kBenches) {
        JsonValue::Object entry;
        entry["bench"] = JsonValue(bench);
        JsonValue::Array widths;
        for (int w : kWidths) {
            widths.push_back(JsonValue(w));
        }
        entry["widths"] = JsonValue(std::move(widths));
        circuits.push_back(JsonValue(std::move(entry)));
    }
    JsonValue::Array targets;
    for (const std::string &name : kTargets) {
        JsonValue::Object entry;
        entry["target"] = JsonValue(name);
        targets.push_back(JsonValue(std::move(entry)));
    }
    std::ostringstream hex;
    hex << "0x" << std::hex << seed;
    JsonValue::Object spec;
    spec["name"] = JsonValue("perfbench-fig14");
    spec["seed"] = JsonValue(hex.str());
    spec["circuits"] = JsonValue(std::move(circuits));
    spec["targets"] = JsonValue(std::move(targets));
    spec["pipelines"] = JsonValue(JsonValue::Array{JsonValue(kPipeline)});
    return JsonValue(std::move(spec)).dump(2);
}

/** Build the inputs; spans go to `log` when tracing. */
Inputs
setUp(const Options &options, SpanLog *log)
{
    const std::string path = options.work_dir + "/fig14-spec.json";
    if (!writeFile(path, specJson(mix64(options.seed ^ 0xF14ULL)))) {
        throw std::runtime_error("cannot write " + path);
    }
    Inputs in;
    {
        SpanScope span(log, "loadSweepSpecFile");
        in.spec = loadSweepSpecFile(path);
    }
    {
        SpanScope span(log, "expandCircuits");
        in.circuits = expandCircuits(in.spec);
    }
    {
        SpanScope span(log, "expandTargets");
        in.targets = expandTargets(in.spec);
    }
    {
        SpanScope span(log, "ensureDistanceOracle");
        for (const Target &target : in.targets) {
            target.graph().ensureDistanceOracle();
        }
    }
    for (const CircuitInstance &instance : in.circuits) {
        std::size_t count = 0;
        for (const Instruction &op : instance.circuit.instructions()) {
            count += op.isTwoQubit() && !op.isSwap() ? 1 : 0;
        }
        in.plain_2q.push_back(count);
    }
    for (const Target &target : in.targets) {
        in.coupled.push_back(couplingPairs(target));
        in.pulse.push_back(basisPulse(target));
    }
    return in;
}

/** Per-point properties every routed Fig. 14 point must have. */
std::string
checkPoint(const Inputs &in, const SweepPoint &point,
           const TranspileMetrics &m)
{
    if (point.circuit_index >= in.circuits.size() ||
        point.target_index >= in.targets.size() ||
        in.circuits[point.circuit_index].width != point.width) {
        return "point does not match the expanded inputs";
    }
    const double swaps = static_cast<double>(m.swaps_total);
    const double native = static_cast<double>(m.basis_2q_total);
    if (m.swaps_critical > swaps) {
        return "swaps_critical > swaps_total";
    }
    if (m.basis_2q_critical > native) {
        return "basis_2q_critical > basis_2q_total";
    }
    if (native < 3.0 * swaps) {
        return "basis_2q_total < 3 * swaps_total";
    }
    const double want = native * in.pulse[point.target_index];
    if (std::abs(m.duration_total - want) > 1e-9 * std::max(1.0, want)) {
        return "duration_total != basis_2q_total * pulse length";
    }
    if (m.ops_2q_pre < m.swaps_total ||
        m.ops_2q_pre - m.swaps_total != in.plain_2q[point.circuit_index]) {
        return "ops_2q_pre - swaps_total != input non-SWAP 2Q gates";
    }
    return "";
}

bool
sameMetrics(const TranspileMetrics &a, const TranspileMetrics &b)
{
    return a.swaps_total == b.swaps_total &&
           a.swaps_critical == b.swaps_critical &&
           a.ops_2q_pre == b.ops_2q_pre &&
           a.basis_2q_total == b.basis_2q_total &&
           a.basis_2q_critical == b.basis_2q_critical &&
           a.duration_total == b.duration_total &&
           a.duration_critical == b.duration_critical;
}

std::string
pointName(const SweepPoint &point)
{
    return point.circuit_label + "-" + std::to_string(point.width) + " on " +
           point.target_label;
}

/**
 * Check every point of one completed sweep; returns per-point
 * failure flags.  Includes the paper's headline direction: at every
 * QV width the hypercube with sqrt(iSWAP) needs fewer SWAPs and fewer
 * native 2Q gates than heavy-hex with CX.
 */
std::vector<bool>
checkRun(const Inputs &in, const SweepRun &run, Report &report)
{
    std::vector<bool> bad(run.points.size(), false);
    std::map<int, std::size_t> heavy_hex, hypercube; // QV width -> point
    for (std::size_t i = 0; i < run.points.size(); ++i) {
        const SweepPoint &point = run.points[i];
        const std::string why = checkPoint(in, point, run.metrics[i].metrics);
        if (!why.empty()) {
            bad[i] = true;
            report.fail("fig14 " + pointName(point) + ": " + why);
        }
        if (in.circuits[point.circuit_index].circuit.name().rfind("qv-", 0) ==
            0) {
            if (point.target_label == "heavy-hex-84-cx") {
                heavy_hex[point.width] = i;
            } else if (point.target_label == "hypercube-84-sqiswap") {
                hypercube[point.width] = i;
            }
        }
    }
    for (int width : kWidths) {
        if (heavy_hex.count(width) == 0 || hypercube.count(width) == 0) {
            report.fail("fig14: QV-" + std::to_string(width) +
                        " missing on heavy-hex or hypercube");
            for (std::size_t i = 0; i < bad.size(); ++i) {
                bad[i] = true;
            }
            continue;
        }
        const TranspileMetrics &hh = run.metrics[heavy_hex[width]].metrics;
        const TranspileMetrics &hc = run.metrics[hypercube[width]].metrics;
        if (!(hc.swaps_total < hh.swaps_total &&
              hc.basis_2q_total < hh.basis_2q_total)) {
            bad[hypercube[width]] = true;
            report.fail("fig14: hypercube does not beat heavy-hex at QV-" +
                        std::to_string(width));
        }
    }
    return bad;
}

unsigned long long
counterValue(const MetricsSnapshot &snapshot, const std::string &name)
{
    for (const auto &counter : snapshot.counters) {
        if (counter.name == name) {
            return counter.value;
        }
    }
    return 0;
}

double
histogramSumUs(const MetricsSnapshot &snapshot, const std::string &name)
{
    for (const auto &histogram : snapshot.histograms) {
        if (histogram.name == name) {
            return histogram.sum_us;
        }
    }
    return 0.0;
}

Report
untracedRounds(const Options &options)
{
    Inputs in;
    SweepRun run, first;
    TimedWorkload workload;
    workload.set_up = [&]() { in = setUp(options, nullptr); };
    workload.round = [&]() {
        Stopwatch watch;
        run = runSweep(in.spec, EngineOptions{});
        return RoundTime{watch.wall(), watch.cpu()};
    };
    workload.check = [&](Report &report) {
        std::vector<bool> bad = checkRun(in, run, report);
        if (first.metrics.empty()) {
            first = run;
        } else {
            for (std::size_t i = 0; i < bad.size(); ++i) {
                if (i >= first.metrics.size() ||
                    !sameMetrics(first.metrics[i].metrics,
                                 run.metrics[i].metrics)) {
                    bad[i] = true;
                    report.fail("fig14 " + pointName(run.points[i]) +
                                ": metrics differ between rounds");
                }
            }
        }
        report.attempted += run.points.size();
        for (bool b : bad) {
            report.failed += b ? 1 : 0;
        }
    };
    Report report = timedRounds(options, workload);

    double native = 0.0, duration = 0.0, swaps = 0.0;
    for (const PointMetrics &pm : first.metrics) {
        native += static_cast<double>(pm.metrics.basis_2q_total);
        duration += pm.metrics.duration_critical;
        swaps += static_cast<double>(pm.metrics.swaps_total);
    }
    report.add("native_2q_gates", native, "count");
    report.add("pulse_duration", duration, "pulse");
    report.note("routed_swaps", swaps, "count");
    report.note("points", static_cast<double>(first.points.size()), "count");
    return report;
}

Report
tracedReplay(const Options &options, SpanLog &log)
{
    Report report;
    const Inputs in = setUp(options, &log);

    // The parallel sweep the untraced mode times, with the scheduler
    // counters it moves.
    const MetricsSnapshot before = MetricsRegistry::global().snapshot();
    SweepRun parallel;
    {
        SpanScope span(&log, "runSweep");
        parallel = runSweep(in.spec, EngineOptions{});
    }
    const MetricsSnapshot after = MetricsRegistry::global().snapshot();
    std::vector<bool> bad = checkRun(in, parallel, report);

    PassManager pipeline;
    {
        SpanScope span(&log, "passManagerFromSpec");
        pipeline = passManagerFromSpec(kPipeline);
    }

    // Every point runs twice in a row, first without a span: the
    // untraced reference the tracing overhead is measured against.
    // Pairing the two calls keeps host-speed drift out of the difference.
    std::map<std::string, double> pass_ms;
    double serial_wall = 0.0, replay_s = 0.0;
    double swaps = 0.0;
    for (std::size_t i = 0; i < parallel.points.size(); ++i) {
        const SweepPoint &point = parallel.points[i];
        const Circuit &circuit = in.circuits[point.circuit_index].circuit;
        const Target &target = in.targets[point.target_index];
        const double t0 = nowSeconds();
        pipeline.run(circuit, target, point.seed);
        serial_wall += nowSeconds() - t0;
        const int id = log.open("PassManager::run", static_cast<long>(i));
        TranspileResult result = pipeline.run(circuit, target, point.seed);
        log.close(id);
        replay_s += log.ms(id) * 1e-3;
        for (const PassStat &stat : result.pass_stats) {
            pass_ms[passName(stat.pass)] += stat.wall_ms;
        }
        swaps += static_cast<double>(result.metrics.swaps_total);

        if (!sameMetrics(result.metrics, parallel.metrics[i].metrics)) {
            bad[i] = true;
            report.fail("fig14 " + pointName(point) +
                        ": serial replay differs from the parallel sweep");
        }
        const std::string why = verifyRouting(
            circuit, result.routed, result.initial_layout.v2p(),
            result.final_layout.v2p(), in.coupled[point.target_index]);
        if (!why.empty()) {
            bad[i] = true;
            report.fail("fig14 " + pointName(point) + ": " + why);
        }
    }
    report.attempted = parallel.points.size();
    for (bool b : bad) {
        report.failed += b ? 1 : 0;
    }

    const auto delta = [&](const std::string &name) {
        return static_cast<double>(counterValue(after, name) -
                                   counterValue(before, name));
    };
    report.add("circuits.build_ms", log.totalMs("expandCircuits"), "ms");
    report.add("target.build_ms",
               log.totalMs("expandTargets") +
                   log.totalMs("ensureDistanceOracle"),
               "ms");
    report.add("layout.dense_ms", pass_ms["dense"], "ms");
    report.add("route.stochastic_ms", pass_ms["stochastic-route"], "ms");
    report.add("route.swaps", swaps, "count");
    report.add("score.basis_ms", pass_ms["score"], "ms");
    report.add("explore.points", static_cast<double>(parallel.points.size()),
               "count");
    report.add("explore.point_max_ms", log.maxMs("PassManager::run"), "ms");
    report.add("sched.tasks", delta("snailqc_sched_tasks_total"), "count");
    report.add("sched.groups", delta("snailqc_sched_groups_total"), "count");
    report.add("sched.busy_ms", delta("snailqc_sched_busy_us_total") * 1e-3,
               "ms");
    report.add("sched.queue_wait_ms",
               (histogramSumUs(after, "snailqc_sched_queue_wait_us") -
                histogramSumUs(before, "snailqc_sched_queue_wait_us")) *
                   1e-3,
               "ms");
    report.add("trace.overhead_s", replay_s - serial_wall, "s");
    report.note("parallel_job_s", log.totalMs("runSweep") * 1e-3, "s");
    report.note("serial_untraced_s", serial_wall, "s");
    report.note("serial_traced_s", replay_s, "s");
    return report;
}

} // namespace

Report
runFig14(const Options &options, SpanLog *log)
{
    return log == nullptr ? untracedRounds(options)
                          : tracedReplay(options, *log);
}

} // namespace perfbench
