#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench
{

void
Report::fail(const std::string &message)
{
    if (failures.size() < 20) {
        failures.push_back(message);
    }
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

double
nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    // VmHWM belongs to this program image; ru_maxrss would also keep
    // the peak of the process that forked it (Linux carries it across
    // exec), e.g. the Python launcher's.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0; // kB
        }
    }
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

namespace
{

/**
 * One round of fixed reference work, shaped like the program's hot
 * paths: 4x4 complex products (NuOp), random reads of an 84x84
 * distance table (routing) and string-keyed hash-map updates (caches,
 * JSON).  Touches no snailqc code, so no change to the program can
 * move it.
 */
std::uint64_t
referenceRound(std::uint64_t salt)
{
    using C = std::complex<double>;
    std::array<C, 16> a{}, b{}, c{};
    for (std::size_t i = 0; i < 16; ++i) {
        a[i] = C(std::cos(0.1 * static_cast<double>(i + salt)), 0.3);
        b[i] = C(0.2, std::sin(0.7 * static_cast<double>(i)));
    }
    for (int round = 0; round < 6000; ++round) {
        for (std::size_t i = 0; i < 4; ++i) {
            for (std::size_t j = 0; j < 4; ++j) {
                C sum(0.0, 0.0);
                for (std::size_t k = 0; k < 4; ++k) {
                    sum += a[i * 4 + k] * b[k * 4 + j];
                }
                c[i * 4 + j] = sum / (1.0 + std::abs(sum));
            }
        }
        std::swap(a, c);
    }

    std::vector<std::uint16_t> table(84 * 84);
    for (std::size_t i = 0; i < table.size(); ++i) {
        table[i] = static_cast<std::uint16_t>(mix64(i ^ salt) % 23);
    }
    std::uint64_t x = 0x9E3779B97F4A7C15ULL ^ salt;
    std::uint64_t sum = 0;
    for (int i = 0; i < 1500000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum += table[x % table.size()];
    }

    std::unordered_map<std::string, std::uint64_t> counts;
    for (int i = 0; i < 60000; ++i) {
        x = mix64(x);
        counts["k" + std::to_string(x % 5000)] += x & 0xFF;
    }
    return sum + counts.size() +
           static_cast<std::uint64_t>(std::abs(a[0].real()) * 1e6);
}

/** The whole reference kernel: five rounds, about 50 ms on one thread. */
std::uint64_t
referenceWork()
{
    std::uint64_t total = 0;
    for (std::uint64_t rep = 0; rep < 5; ++rep) {
        total += referenceRound(rep);
    }
    return total;
}

} // namespace

double
referenceSeconds()
{
    const double t0 = nowSeconds();
    const std::uint64_t sink = referenceWork();
    const double elapsed = nowSeconds() - t0;
    if (sink == 0) {
        throw std::logic_error("reference work folded away");
    }
    return elapsed;
}

HostSpeed::HostSpeed() : _last(referenceSeconds()) {}

double
HostSpeed::factor()
{
    const double next = referenceSeconds();
    const double factor = kReferenceSeconds / (0.5 * (_last + next));
    _last = next;
    _factors.push_back(factor);
    return factor;
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Report
timedRounds(const Options &options, const TimedWorkload &workload)
{
    Report report;
    HostSpeed speed;
    std::vector<double> setups;
    for (int i = 0; i < kSetUps; ++i) {
        const double t0 = nowSeconds();
        workload.set_up();
        setups.push_back((nowSeconds() - t0) * speed.factor());
    }

    std::vector<double> walls, cpus, raw_walls;
    const double start = nowSeconds();
    do {
        const RoundTime time = workload.round();
        const double factor = speed.factor();
        raw_walls.push_back(time.wall);
        walls.push_back(time.wall * factor);
        cpus.push_back(time.cpu * factor);
        workload.check(report);
    } while (nowSeconds() - start < options.seconds);

    report.add("setup_s", median(setups), "s");
    report.add("job_s", median(walls), "s");
    report.add("cpu_s", median(cpus), "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.note("job_s_unscaled", median(raw_walls), "s");
    report.note("host_speed", speed.medianFactor(), "1");
    report.note("rounds", static_cast<double>(walls.size()), "count");
    return report;
}

std::string
passName(const std::string &entry)
{
    return entry.substr(0, entry.find('='));
}

bool
tailPercentile(std::vector<double> values, double &value, std::string &label)
{
    const std::size_t n = values.size();
    if (n < 40) {
        return false;
    }
    std::sort(values.begin(), values.end());
    static const std::pair<double, const char *> kLadder[] = {
        {0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"},
        {0.90, "p90"},    {0.75, "p75"}};
    for (const auto &[q, name] : kLadder) {
        // Nearest-rank percentile; the samples above it must number 10+.
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(n)));
        if (rank >= 1 && n - rank >= 10) {
            value = values[rank - 1];
            label = name;
            return true;
        }
    }
    return false;
}

int
SpanLog::open(const std::string &name, long job)
{
    Span span;
    span.name = name;
    span.start = nowSeconds() - _epoch;
    span.parent = _stack.empty() ? -1 : _stack.back();
    span.job = job;
    _spans.push_back(std::move(span));
    const int id = static_cast<int>(_spans.size()) - 1;
    _stack.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    _spans[static_cast<std::size_t>(id)].end = nowSeconds() - _epoch;
    if (!_stack.empty() && _stack.back() == id) {
        _stack.pop_back();
    }
}

double
SpanLog::ms(int id) const
{
    const Span &span = _spans[static_cast<std::size_t>(id)];
    return (span.end - span.start) * 1e3;
}

double
SpanLog::totalMs(const std::string &name) const
{
    double total = 0.0;
    for (const Span &span : _spans) {
        if (span.name == name) {
            total += (span.end - span.start) * 1e3;
        }
    }
    return total;
}

double
SpanLog::maxMs(const std::string &name) const
{
    double best = 0.0;
    for (const Span &span : _spans) {
        if (span.name == name) {
            best = std::max(best, (span.end - span.start) * 1e3);
        }
    }
    return best;
}

std::string
SpanLog::chromeJson() const
{
    // Spans were opened in start order and nest strictly (one thread),
    // so replaying opens and closes through a stack yields balanced,
    // time-ordered B/E events.
    std::ostringstream out;
    out.precision(17);
    out << "{\"traceEvents\":[\n"
        << "{\"ph\":\"M\",\"name\":\"thread_name\",\"ts\":0,\"pid\":1,"
           "\"tid\":1,\"args\":{\"name\":\"perfbench\"}}";
    const auto endEvent = [&](const Span &span) {
        out << ",\n{\"ph\":\"E\",\"ts\":" << span.end * 1e6
            << ",\"pid\":1,\"tid\":1}";
    };
    std::vector<int> stack;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &span = _spans[i];
        while (!stack.empty() &&
               stack.back() != span.parent) {
            endEvent(_spans[static_cast<std::size_t>(stack.back())]);
            stack.pop_back();
        }
        snail::JsonValue::Object args;
        args["span"] = snail::JsonValue(static_cast<int>(i));
        args["parent"] = snail::JsonValue(span.parent);
        args["job"] = snail::JsonValue(static_cast<double>(span.job));
        out << ",\n{\"ph\":\"B\",\"name\":"
            << snail::JsonValue(span.name).dump()
            << ",\"cat\":\"perfbench\",\"ts\":" << span.start * 1e6
            << ",\"pid\":1,\"tid\":1,\"args\":"
            << snail::JsonValue(std::move(args)).dump() << "}";
        stack.push_back(static_cast<int>(i));
    }
    while (!stack.empty()) {
        endEvent(_spans[static_cast<std::size_t>(stack.back())]);
        stack.pop_back();
    }
    out << "\n]}\n";
    return out.str();
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << text;
    file.close();
    return static_cast<bool>(file);
}

} // namespace perfbench
