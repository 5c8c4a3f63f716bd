/**
 * @file
 * perfbench: end-to-end benchmark of snailqc (see ../README.md).
 *
 *   perfbench --workload <fig14-sweep|serve-mixed|fig15-nuop>
 *             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
 *   perfbench --self-test
 *
 * An untraced run (--trace 0) repeats whole rounds of its workload for
 * --seconds and reports the end-to-end metrics; a traced run (--trace
 * 1) replays one round through each layer's public functions, writes
 * its spans to <work-dir>/trace-<workload>.json and reports the
 * per-layer metrics.  The last stdout line is the result object.
 */
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"

namespace
{

using perfbench::Metric;

/** Gated end-to-end metrics: every workload reports each of them. */
const std::vector<Metric> kEndToEnd = {
    {"setup_s", 0, "s"},       {"job_s", 0, "s"},
    {"cpu_s", 0, "s"},         {"peak_rss_mb", 0, "MB"},
    {"native_2q_gates", 0, "count"}, {"pulse_duration", 0, "pulse"},
};

/** Per-layer metrics; a layer a workload never enters reads 0. */
const std::vector<Metric> kPerLayer = {
    {"circuits.build_ms", 0, "ms"},     {"target.build_ms", 0, "ms"},
    {"layout.dense_ms", 0, "ms"},       {"route.stochastic_ms", 0, "ms"},
    {"route.swaps", 0, "count"},        {"explore.points", 0, "count"},
    {"explore.point_max_ms", 0, "ms"},  {"sched.tasks", 0, "count"},
    {"sched.groups", 0, "count"},       {"sched.busy_ms", 0, "ms"},
    {"sched.queue_wait_ms", 0, "ms"},   {"score.basis_ms", 0, "ms"},
    {"score.fidelity_ms", 0, "ms"},     {"layout.sabre_ms", 0, "ms"},
    {"route.sabre_ms", 0, "ms"},        {"rewrite.optimize_ms", 0, "ms"},
    {"rewrite.elide_ms", 0, "ms"},      {"serve.resolve_ms", 0, "ms"},
    {"serve.key_ms", 0, "ms"},          {"ir.qasm_parse_ms", 0, "ms"},
    {"cache.fetch_ms", 0, "ms"},        {"cache.hits", 0, "count"},
    {"cache.misses", 0, "count"},       {"cache.store_ms", 0, "ms"},
    {"cache.entries", 0, "count"},      {"serve.serialize_ms", 0, "ms"},
    {"serve.response_parse_ms", 0, "ms"}, {"decomp.nuop_ms", 0, "ms"},
    {"decomp.nuop_cells", 0, "count"},  {"decomp.nuop_cell_max_ms", 0, "ms"},
    {"fidelity.curves_ms", 0, "ms"},    {"trace.overhead_s", 0, "s"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <fig14-sweep|serve-mixed|"
                 "fig15-nuop> --seed <n> --seconds <s> --trace <0|1> "
                 "--work-dir <dir>\n"
                 "       perfbench --self-test\n";
    std::exit(2);
}

/** Order `report.metrics` as `schema`, filling absent ones with 0. */
std::vector<Metric>
conform(const std::vector<Metric> &reported, const std::vector<Metric> &schema,
        bool fill)
{
    std::vector<Metric> out;
    for (const Metric &want : schema) {
        bool found = false;
        for (const Metric &got : reported) {
            if (got.name == want.name) {
                if (got.unit != want.unit) {
                    throw std::logic_error("metric " + got.name +
                                           " reported in " + got.unit);
                }
                out.push_back(got);
                found = true;
            }
        }
        if (!found) {
            if (!fill) {
                throw std::logic_error("metric " + want.name + " not reported");
            }
            out.push_back(want);
        }
    }
    if (out.size() != schema.size() || reported.size() > schema.size()) {
        throw std::logic_error("reported metrics do not match the schema");
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") {
            return perfbench::runSelfTest() == 0 ? 0 : 1;
        }
        if (i + 1 >= argc) {
            usage("missing value for " + arg);
        }
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                options.trace = std::stoi(value) != 0;
            } else if (arg == "--work-dir") {
                options.work_dir = value;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::invalid_argument &) {
            usage("bad value for " + arg + ": " + value);
        } catch (const std::out_of_range &) {
            usage("value out of range for " + arg + ": " + value);
        }
    }
    if (!have_workload || options.work_dir.empty() || options.seconds <= 0) {
        usage("--workload, --work-dir and a positive --seconds are required");
    }

    try {
        std::filesystem::create_directories(options.work_dir);
        perfbench::SpanLog log;
        perfbench::SpanLog *trace = options.trace ? &log : nullptr;
        perfbench::Report report;
        if (options.workload == "fig14-sweep") {
            report = perfbench::runFig14(options, trace);
        } else if (options.workload == "serve-mixed") {
            report = perfbench::runServe(options, trace);
        } else if (options.workload == "fig15-nuop") {
            report = perfbench::runFig15(options, trace);
        } else {
            usage("unknown workload " + options.workload);
        }
        const std::vector<Metric> metrics =
            options.trace ? conform(report.metrics, kPerLayer, true)
                          : conform(report.metrics, kEndToEnd, false);

        if (options.trace) {
            const std::string path =
                options.work_dir + "/trace-" + options.workload + ".json";
            if (!perfbench::writeFile(path, log.chromeJson())) {
                throw std::runtime_error("cannot write " + path);
            }
            std::cout << "trace " << path << " (" << log.spans().size()
                      << " spans)\n";
        }
        for (const std::string &failure : report.failures) {
            std::cerr << "check failed: " << failure << "\n";
        }
        std::cout << "workload " << options.workload << ": attempted "
                  << report.attempted << " operations, failed "
                  << report.failed << "\n";
        const auto line = [](const Metric &m) {
            std::cout << "  " << m.name << " = "
                      << snail::JsonValue(m.value).dump() << " " << m.unit
                      << "\n";
        };
        for (const Metric &m : metrics) {
            line(m);
        }
        for (const Metric &m : report.info) {
            line(m);
        }

        snail::JsonValue::Object values;
        for (const Metric &m : metrics) {
            snail::JsonValue::Object entry;
            entry["value"] = snail::JsonValue(m.value);
            entry["unit"] = snail::JsonValue(m.unit);
            values[m.name] = snail::JsonValue(std::move(entry));
        }
        snail::JsonValue::Object result;
        result["correct"] = snail::JsonValue(report.failed == 0);
        result["attempted"] =
            snail::JsonValue(static_cast<double>(report.attempted));
        result["failed"] = snail::JsonValue(static_cast<double>(report.failed));
        result["metrics"] = snail::JsonValue(std::move(values));
        std::cout << snail::JsonValue(std::move(result)).dump() << std::endl;
        return report.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
