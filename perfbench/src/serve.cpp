/**
 * @file
 * Workload serve-mixed: one closed-loop client calling
 * Service::handle with transpile requests under the fidelity-aware
 * pipeline.  Every round starts from an empty cache store: the first
 * request for a job is cold (computes, serializes, writes the store)
 * and its repeats, interleaved with later cold requests, are warm
 * (read the store).  The work sits in SABRE layout, scoring, job
 * resolution, QASM import and serialization, not stochastic routing.
 */
#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "circuits/registry.hpp"
#include "explore/cache_store.hpp"
#include "ir/qasm.hpp"
#include "ir/qasm_parser.hpp"
#include "serve/job.hpp"
#include "serve/service.hpp"

namespace perfbench
{

using namespace snail;

namespace
{

const char *const kPipeline =
    "sabre-layout,sabre-route,optimize,elide,basis=auto,score-fidelity";

/** Warm repeats of every job per round. */
constexpr int kRepeats = 4;

/** One distinct job of the mix. */
struct JobRow
{
    const char *bench;
    int width;
    const char *target;
    bool inline_qasm; //!< send the circuit as OpenQASM text
};

/**
 * The mix: QV (every 2Q gate a distinct SU(4)) and QFT/QAOA (repeated
 * gate kinds) dominate, with TIM, GHZ and Adder for the closed-form
 * native-count check; every 84-qubit machine appears.  The seed picks
 * each job's transpile seed, the generator seed of the inline
 * circuits, and the interleaving; the rows themselves are fixed so
 * every seed costs about the same.
 */
const std::vector<JobRow> kJobs = {
    {"qv", 32, "tree-84-sqiswap", false},
    {"qv", 48, "hypercube-84-sqiswap", false},
    {"qv", 64, "heavy-hex-84-cx", false},
    {"qv", 80, "square-84-syc", false},
    {"qft", 40, "heavy-hex-84-cx", true},
    {"qft", 64, "tree-84-sqiswap", false},
    {"qft", 80, "hypercube-84-sqiswap", true},
    {"qaoa", 48, "tree-rr-84-sqiswap", true},
    {"qaoa", 80, "heavy-hex-84-cx", false},
    {"tim", 64, "tree-84-sqiswap", true},
    {"ghz", 80, "square-84-syc", true},
    {"adder", 64, "heavy-hex-84-cx", true},
};

struct Inputs
{
    std::vector<JsonValue> jobs;     //!< transpile request per job
    std::vector<Target> targets;     //!< per job, for the checks
    std::vector<std::size_t> order;  //!< job index of each request
    std::vector<bool> cold;          //!< per request: first of its job
};

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << std::hex << value;
    return out.str();
}

Inputs
setUp(const Options &options, SpanLog *log)
{
    SpanScope span(log, "makeRequests");
    Inputs in;
    std::uint64_t state = mix64(options.seed ^ 0x5E7EULL);
    const auto draw = [&]() { return state = mix64(state); };
    std::map<std::string, Target> targets;
    for (const JobRow &row : kJobs) {
        JsonValue::Object circuit;
        if (row.inline_qasm) {
            circuit["qasm"] = JsonValue(
                toQasm(makeBenchmark(row.bench, row.width, draw() >> 1)));
        } else {
            circuit["bench"] = JsonValue(row.bench);
            circuit["width"] = JsonValue(row.width);
        }
        JsonValue::Object target;
        target["name"] = JsonValue(row.target);
        JsonValue::Object request;
        request["op"] = JsonValue("transpile");
        request["circuit"] = JsonValue(std::move(circuit));
        request["target"] = JsonValue(std::move(target));
        request["pipeline"] = JsonValue(kPipeline);
        request["seed"] = JsonValue(hex(draw()));
        in.jobs.push_back(JsonValue(std::move(request)));
        if (targets.count(row.target) == 0) {
            targets.emplace(row.target, namedTarget(row.target));
        }
        in.targets.push_back(targets.at(row.target));
    }

    // Every job once cold and kRepeats times warm, shuffled so cold
    // and warm requests interleave; a job's first request is its cold.
    for (std::size_t j = 0; j < kJobs.size(); ++j) {
        for (int r = 0; r <= kRepeats; ++r) {
            in.order.push_back(j);
        }
    }
    for (std::size_t i = in.order.size(); i > 1; --i) {
        std::swap(in.order[i - 1], in.order[draw() % i]);
    }
    std::vector<bool> seen(kJobs.size(), false);
    for (std::size_t j : in.order) {
        in.cold.push_back(!seen[j]);
        seen[j] = true;
    }
    return in;
}

/** A fresh, empty store directory for one round. */
std::string
freshStore(const Options &options, const std::string &tag)
{
    const std::string dir = options.work_dir + "/store-" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

/** Check one round's responses; returns per-request failure flags. */
std::vector<bool>
checkRound(const Inputs &in, const std::vector<JsonValue> &responses,
           std::vector<std::string> &cold_results, Report &report)
{
    std::vector<bool> bad(responses.size(), false);
    std::vector<std::string> twin(in.jobs.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
        const std::size_t j = in.order[i];
        const JsonValue &response = responses[i];
        const std::string who = "serve request " + std::to_string(i) + " (" +
                                kJobs[j].bench + "-" +
                                std::to_string(kJobs[j].width) + " on " +
                                kJobs[j].target + ")";
        std::string why;
        try {
            const JsonValue *ok = response.find("ok");
            if (ok == nullptr || !ok->asBool()) {
                why = "response not ok: " + response.dump();
            } else if (response.at("cached").asBool() == in.cold[i]) {
                why = in.cold[i] ? "cold request served from the store"
                                 : "warm request not served from the store";
            } else {
                const std::string result = response.at("result").dump();
                if (in.cold[i]) {
                    twin[j] = result;
                    why = checkServePayload(response.at("result"),
                                            in.targets[j],
                                            std::string(kJobs[j].bench) != "qv");
                    if (why.empty() && !cold_results[j].empty() &&
                        cold_results[j] != result) {
                        why = "cold result differs from an earlier round";
                    }
                    cold_results[j] = result;
                } else if (result != twin[j]) {
                    why = "warm result differs from its cold twin";
                }
            }
        } catch (const std::exception &e) {
            why = e.what();
        }
        if (!why.empty()) {
            bad[i] = true;
            report.fail(who + ": " + why);
        }
    }
    return bad;
}

/** One round through Service::handle against a fresh store. */
std::vector<JsonValue>
serveRound(const Options &options, const Inputs &in, const std::string &tag,
           std::vector<double> &cold_ms, std::vector<double> &warm_ms,
           double &wall, double &cpu)
{
    ServiceOptions service_options;
    service_options.cache_dir = freshStore(options, tag);
    std::vector<JsonValue> responses;
    responses.reserve(in.order.size());
    {
        Service service(service_options);
        Stopwatch round;
        for (std::size_t i = 0; i < in.order.size(); ++i) {
            const double t0 = nowSeconds();
            responses.push_back(service.handle(in.jobs[in.order[i]]));
            (in.cold[i] ? cold_ms : warm_ms)
                .push_back((nowSeconds() - t0) * 1e3);
        }
        wall = round.wall();
        cpu = round.cpu();
    }
    std::filesystem::remove_all(service_options.cache_dir);
    return responses;
}

void
noteLatency(Report &report, const std::string &kind,
            const std::vector<double> &ms)
{
    report.note(kind + "_p50_ms", median(ms), "ms");
    double tail = 0.0;
    std::string label;
    if (tailPercentile(ms, tail, label)) {
        report.note(kind + "_" + label + "_ms", tail, "ms"); // the tail
    }
    report.note(kind + "_samples", static_cast<double>(ms.size()), "count");
}

Report
untracedRounds(const Options &options)
{
    Inputs in;
    std::vector<JsonValue> responses;
    std::vector<double> cold_ms, warm_ms;
    std::vector<std::string> cold_results;
    double native = 0.0, duration = 0.0, swaps = 0.0;
    bool first = true;
    TimedWorkload workload;
    workload.set_up = [&]() {
        in = setUp(options, nullptr);
        cold_results.assign(in.jobs.size(), "");
    };
    workload.round = [&]() {
        RoundTime time;
        responses = serveRound(options, in, "timed", cold_ms, warm_ms,
                               time.wall, time.cpu);
        return time;
    };
    workload.check = [&](Report &report) {
        const std::vector<bool> bad =
            checkRound(in, responses, cold_results, report);
        report.attempted += responses.size();
        for (bool b : bad) {
            report.failed += b ? 1 : 0;
        }
        if (first) {
            first = false;
            for (std::size_t i = 0; i < responses.size(); ++i) {
                if (!in.cold[i] || bad[i]) {
                    continue;
                }
                const JsonValue &m = responses[i].at("result").at("metrics");
                native += m.at("basis_2q_total").asNumber();
                duration += m.at("duration_critical").asNumber();
                swaps += m.at("swaps_total").asNumber();
            }
        }
    };
    Report report = timedRounds(options, workload);

    report.add("native_2q_gates", native, "count");
    report.add("pulse_duration", duration, "pulse");
    noteLatency(report, "cold", cold_ms);
    noteLatency(report, "warm", warm_ms);
    // Share of the request time spent in warm requests: how much of
    // job_s a change to the warm path can move.
    double cold_sum = 0.0, warm_sum = 0.0;
    for (double ms : cold_ms) {
        cold_sum += ms;
    }
    for (double ms : warm_ms) {
        warm_sum += ms;
    }
    report.note("warm_share", warm_sum / (cold_sum + warm_sum), "1");
    report.note("routed_swaps", swaps, "count");
    return report;
}

Report
tracedReplay(const Options &options, SpanLog &log)
{
    Report report;
    const Inputs in = setUp(options, &log);

    // The Service's own answers: the reference the replay must
    // reproduce byte for byte, and (second round, past first-use
    // costs) the untraced wall time the overhead is measured against.
    std::vector<double> cold_ms, warm_ms;
    double service_wall = 0.0, service_cpu = 0.0;
    std::vector<JsonValue> responses;
    for (int round = 0; round < 2; ++round) {
        SpanScope span(&log, "Service::handle round");
        responses = serveRound(options, in, "service", cold_ms, warm_ms,
                               service_wall, service_cpu);
    }
    std::vector<std::string> cold_results(in.jobs.size());
    std::vector<bool> bad = checkRound(in, responses, cold_results, report);

    // The same steps Service takes, one call per span, on a new store.
    CacheStore store(freshStore(options, "replay"));
    std::map<std::string, double> pass_ms;
    double replay_s = 0.0;
    double hits = 0.0, misses = 0.0, swaps = 0.0;
    for (std::size_t i = 0; i < in.order.size(); ++i) {
        const JsonValue &request = in.jobs[in.order[i]];
        std::string why;
        try {
            if (const JsonValue *qasm = request.at("circuit").find("qasm")) {
                SpanScope span(&log, "parseQasm", static_cast<long>(i));
                parseQasm(qasm->asString(), "<request>");
            }
            const int top = log.open("request", static_cast<long>(i));
            std::optional<JobSpec> spec;
            {
                SpanScope span(&log, "JobSpec::fromJson", static_cast<long>(i));
                spec = JobSpec::fromJson(request);
            }
            std::optional<ResolvedJob> job;
            {
                SpanScope span(&log, "resolveJob", static_cast<long>(i));
                job = resolveJob(*spec);
            }
            CacheKey key;
            {
                SpanScope span(&log, "cacheKey", static_cast<long>(i));
                key = job->cacheKey();
            }
            std::optional<std::string> payload;
            {
                SpanScope span(&log, "CacheStore::fetch", static_cast<long>(i));
                payload = store.fetch(key);
            }
            const bool hit = payload.has_value();
            (hit ? hits : misses) += 1.0;
            if (!hit) {
                std::optional<TranspileResult> result;
                {
                    SpanScope span(&log, "PassManager::run",
                                   static_cast<long>(i));
                    result = job->pipeline.run(job->circuit, job->target,
                                               job->seed);
                }
                for (const PassStat &stat : result->pass_stats) {
                    pass_ms[passName(stat.pass)] += stat.wall_ms;
                }
                swaps += static_cast<double>(result->metrics.swaps_total);
                {
                    SpanScope span(&log, "serializeResult",
                                   static_cast<long>(i));
                    payload = serializeResult(*result);
                }
                {
                    SpanScope span(&log, "CacheStore::store",
                                   static_cast<long>(i));
                    store.store(key, *payload);
                }
            }
            JsonValue parsed;
            {
                SpanScope span(&log, "JsonValue::parse", static_cast<long>(i));
                parsed = JsonValue::parse(*payload);
            }
            log.close(top);
            replay_s += log.ms(top) * 1e-3;

            if (hit == in.cold[i]) {
                why = "replay cache outcome differs from the Service's";
            } else if (parsed.dump() != responses[i].at("result").dump()) {
                why = "replay payload differs from the Service response";
            }
        } catch (const std::exception &e) {
            why = e.what();
        }
        if (!why.empty()) {
            bad[i] = true;
            report.fail("serve replay of request " + std::to_string(i) + ": " +
                        why);
        }
    }
    const double entries = static_cast<double>(store.stats().entries);
    std::filesystem::remove_all(store.directory());
    report.attempted = in.order.size();
    for (bool b : bad) {
        report.failed += b ? 1 : 0;
    }

    report.add("layout.sabre_ms", pass_ms["sabre-layout"], "ms");
    report.add("route.sabre_ms", pass_ms["sabre-route"], "ms");
    report.add("route.swaps", swaps, "count");
    report.add("rewrite.optimize_ms", pass_ms["optimize"], "ms");
    report.add("rewrite.elide_ms", pass_ms["elide"], "ms");
    report.add("score.basis_ms", pass_ms["score"], "ms");
    report.add("score.fidelity_ms", pass_ms["score-fidelity"], "ms");
    report.add("serve.resolve_ms", log.totalMs("resolveJob"), "ms");
    report.add("serve.key_ms", log.totalMs("cacheKey"), "ms");
    report.add("ir.qasm_parse_ms", log.totalMs("parseQasm"), "ms");
    report.add("cache.fetch_ms", log.totalMs("CacheStore::fetch"), "ms");
    report.add("cache.hits", hits, "count");
    report.add("cache.misses", misses, "count");
    report.add("cache.store_ms", log.totalMs("CacheStore::store"), "ms");
    report.add("cache.entries", entries, "count");
    report.add("serve.serialize_ms", log.totalMs("serializeResult"), "ms");
    report.add("serve.response_parse_ms", log.totalMs("JsonValue::parse"),
               "ms");
    report.add("trace.overhead_s", replay_s - service_wall, "s");
    for (const auto &[name, ms] : pass_ms) {
        report.note("pass " + name + "_ms", ms, "ms");
    }
    report.note("service_round_s", service_wall, "s");
    report.note("replay_round_s", replay_s, "s");
    return report;
}

} // namespace

Report
runServe(const Options &options, SpanLog *log)
{
    return log == nullptr ? untracedRounds(options)
                          : tracedReplay(options, *log);
}

} // namespace perfbench
