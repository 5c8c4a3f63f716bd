/**
 * @file
 * Workload fig15-nuop: the Fig. 15 n-th-root-of-iSWAP study over
 * several roots n, template sizes k and Haar samples.  All the time
 * goes to the NuOp optimizer (src/decomp) and the Eq. 12/13 models
 * (src/fidelity); the transpiler, cache and scheduler are not used, so
 * a transpiler change must leave this workload unchanged.
 */
#include <cmath>
#include <optional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "fidelity/nroot_study.hpp"
#include "linalg/random_unitary.hpp"
#include "weyl/basis_counts.hpp"
#include "weyl/coordinates.hpp"

namespace perfbench
{

using namespace snail;

namespace
{

const std::vector<double> kRoots = {2, 3, 4, 5};
constexpr int kMinK = 2;
constexpr int kMaxK = 7;
/**
 * Haar samples per study.  The study's cost and its Eq. 13 template
 * sizes depend on the draw (with 16 samples the study time varies by
 * about 10% between seeds); 64 keep that spread a few percent.
 */
constexpr int kSamples = 64;
constexpr double kFullPulseFidelity = 0.99;

using CMatrix = std::vector<std::complex<double>>;

/** One (root, k, sample) cell with the optimizer seed the study gives it. */
struct Cell
{
    std::size_t root = 0;
    int k = 0;
    int sample = 0;
    unsigned long long seed = 0;
};

struct Inputs
{
    NRootStudyOptions study;
    std::vector<Matrix> targets;   //!< the study's Haar draws
    std::vector<int> sqiswap_count; //!< analytic sqrt(iSWAP) count per draw
    std::vector<Cell> cells;       //!< in the study's evaluation order
    std::vector<CMatrix> basis;    //!< analytic iSWAP^(1/n) per root
};

CMatrix
toVector(const Matrix &m)
{
    CMatrix out;
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            out.push_back(m(i, j));
        }
    }
    return out;
}

/**
 * The study's inputs as runNRootStudy draws them from its seed: the
 * Haar targets first, then one optimizer seed per cell in (root, k,
 * sample) order.  A warm-up decomposition of a fixed gate (CX, two
 * sqrt(iSWAP)) ends the set-up, so its cost does not depend on the
 * draw.
 */
Inputs
setUp(const Options &options, SpanLog *log)
{
    SpanScope span(log, "setUp");
    Inputs in;
    in.study.roots = kRoots;
    in.study.k_min = kMinK;
    in.study.k_max = kMaxK;
    in.study.samples = kSamples;
    in.study.seed = mix64(options.seed ^ 0xF15ULL);
    Rng rng(in.study.seed);
    for (int s = 0; s < kSamples; ++s) {
        in.targets.push_back(haarUnitary(4, rng));
        in.sqiswap_count.push_back(basisCount(
            parseBasisSpec("sqiswap"), weylCoordinates(in.targets.back())));
    }
    for (std::size_t ri = 0; ri < kRoots.size(); ++ri) {
        in.basis.push_back(nrootIswapMatrix(kRoots[ri]));
        for (int k = kMinK; k <= kMaxK; ++k) {
            for (int s = 0; s < kSamples; ++s) {
                in.cells.push_back(Cell{ri, k, s, rng.next()});
            }
        }
    }
    nuopDecompose(gates::cx().matrix(), gates::nrootIswap(2.0), 2,
                  in.study.optimizer);
    return in;
}

std::size_t
cellIndex(std::size_t root, int k, int sample)
{
    return (root * static_cast<std::size_t>(kMaxK - kMinK + 1) +
            static_cast<std::size_t>(k - kMinK)) *
               kSamples +
           static_cast<std::size_t>(sample);
}

/** Check one completed study; returns per-cell failure flags. */
std::vector<bool>
checkStudy(const Inputs &in, const NRootStudyResult &study,
           const std::vector<double> &reference, Report &report)
{
    std::vector<bool> bad(in.cells.size(), false);
    for (std::size_t i = 0; i < in.cells.size(); ++i) {
        const Cell &cell = in.cells[i];
        const double inf = study.infidelity(cell.root, cell.k, cell.sample);
        if (!(inf >= 0.0 && inf <= 1.0)) {
            bad[i] = true;
            report.fail("fig15 cell " + std::to_string(i) +
                        ": infidelity outside [0, 1]");
        } else if (!reference.empty() && reference[i] != inf) {
            bad[i] = true;
            report.fail("fig15 cell " + std::to_string(i) +
                        ": infidelity differs between rounds");
        }
    }
    const auto failRow = [&](std::size_t root, int k, const std::string &why) {
        for (int s = 0; s < kSamples; ++s) {
            bad[cellIndex(root, k, s)] = true;
        }
        report.fail("fig15: " + why);
    };
    // Root 2 (sqrt iSWAP): three applications reach any 2Q unitary, so
    // the k = 3 mean is at the optimizer's tolerance.  Two cannot reach
    // the ~21% of Haar draws whose analytic (Weyl-chamber) count is 3,
    // so on those draws the k = 2 mean stays above 1e-6.
    if (!(study.averageInfidelity(0, 3) < 1e-6)) {
        failRow(0, 3, "n = 2, k = 3 mean infidelity is not below 1e-6");
    }
    double beyond = 0.0;
    int beyond_count = 0;
    for (int s = 0; s < kSamples; ++s) {
        if (in.sqiswap_count[static_cast<std::size_t>(s)] == 3) {
            beyond += study.infidelity(0, 2, s);
            ++beyond_count;
        }
    }
    // About 21% of 64 Haar draws need three: 13 on average, none with
    // probability 0.79^64 < 3e-7, more than half (32) practically never.
    // A count outside [1, 32] means the classification, not the draw,
    // is wrong, and would leave the k = 2 check without subjects.
    if (beyond_count < 1 || beyond_count > kSamples / 2) {
        failRow(0, 2, std::to_string(beyond_count) + " of " +
                          std::to_string(kSamples) +
                          " Haar draws need three sqrt(iSWAP)");
    } else if (!(beyond / beyond_count > 1e-6)) {
        failRow(0, 2, "k = 2 reaches the draws that need three sqrt(iSWAP)");
    }
    // The paper's Fig. 15 claim: root 4 cuts total infidelity vs root 2.
    const double ft2 = study.averageTotalFidelity(0, kFullPulseFidelity);
    const double ft4 = study.averageTotalFidelity(2, kFullPulseFidelity);
    if (!(1.0 - (1.0 - ft4) / (1.0 - ft2) > 0.0)) {
        for (int k = kMinK; k <= kMaxK; ++k) {
            failRow(2, k, "root 4 does not reduce infidelity vs root 2");
        }
    }
    return bad;
}

/**
 * Size and duration of the Eq. 13 decompositions: per (root, sample)
 * the k maximizing Fd(k) * Fb^k with the Eq. 12 per-pulse fidelity
 * Fb = 1 - (1 - 0.99) / n, summed as a gate count and as k / n.
 */
void
bestTemplates(const NRootStudyResult &study, double &gates, double &duration)
{
    gates = 0.0;
    duration = 0.0;
    for (std::size_t ri = 0; ri < kRoots.size(); ++ri) {
        const double fb = 1.0 - (1.0 - kFullPulseFidelity) / kRoots[ri];
        for (int s = 0; s < kSamples; ++s) {
            int best_k = kMinK;
            double best = -1.0;
            for (int k = kMinK; k <= kMaxK; ++k) {
                const double total =
                    (1.0 - study.infidelity(ri, k, s)) * std::pow(fb, k);
                if (total > best) {
                    best = total;
                    best_k = k;
                }
            }
            gates += best_k;
            duration += best_k / kRoots[ri];
        }
    }
}

std::vector<double>
infidelities(const Inputs &in, const NRootStudyResult &study)
{
    std::vector<double> out;
    for (const Cell &cell : in.cells) {
        out.push_back(study.infidelity(cell.root, cell.k, cell.sample));
    }
    return out;
}

Report
untracedRounds(const Options &options)
{
    Inputs in;
    std::optional<NRootStudyResult> study;
    std::vector<double> reference;
    double gates = 0.0, duration = 0.0, mean_inf = 0.0, reduction = 0.0;
    TimedWorkload workload;
    workload.set_up = [&]() { in = setUp(options, nullptr); };
    workload.round = [&]() {
        Stopwatch watch;
        study = runNRootStudy(in.study);
        return RoundTime{watch.wall(), watch.cpu()};
    };
    workload.check = [&](Report &report) {
        const std::vector<bool> bad =
            checkStudy(in, *study, reference, report);
        report.attempted += in.cells.size();
        for (bool b : bad) {
            report.failed += b ? 1 : 0;
        }
        if (reference.empty()) {
            reference = infidelities(in, *study);
            bestTemplates(*study, gates, duration);
            for (double v : reference) {
                mean_inf += v / static_cast<double>(reference.size());
            }
            const double ft2 =
                study->averageTotalFidelity(0, kFullPulseFidelity);
            const double ft4 =
                study->averageTotalFidelity(2, kFullPulseFidelity);
            reduction = 1.0 - (1.0 - ft4) / (1.0 - ft2);
        }
    };
    Report report = timedRounds(options, workload);

    report.add("native_2q_gates", gates, "count");
    report.add("pulse_duration", duration, "pulse");
    report.note("decomp_infidelity", mean_inf, "1");
    report.note("root4_vs_root2_reduction", reduction, "1");
    report.note("cells", static_cast<double>(in.cells.size()), "count");
    return report;
}

Report
tracedReplay(const Options &options, SpanLog &log)
{
    Report report;
    const Inputs in = setUp(options, &log);

    const int study_span = log.open("runNRootStudy");
    const NRootStudyResult study = runNRootStudy(in.study);
    log.close(study_span);
    std::vector<bool> bad = checkStudy(in, study, {}, report);

    std::vector<Gate> bases;
    for (double root : kRoots) {
        bases.push_back(gates::nrootIswap(root));
    }
    const auto decompose = [&](const Cell &cell) {
        NuOpOptions opts = in.study.optimizer;
        opts.seed = cell.seed;
        return nuopDecompose(in.targets[static_cast<std::size_t>(cell.sample)],
                             bases[cell.root], cell.k, opts);
    };

    // Every cell runs twice in a row, first without a span: the
    // untraced reference the tracing overhead is measured against.
    // Pairing the two calls keeps host-speed drift out of the difference.
    double serial_wall = 0.0, replay_s = 0.0;
    for (std::size_t i = 0; i < in.cells.size(); ++i) {
        const Cell &cell = in.cells[i];
        const double t0 = nowSeconds();
        decompose(cell);
        serial_wall += nowSeconds() - t0;
        const int id = log.open("nuopDecompose", static_cast<long>(i));
        const NuOpResult r = decompose(cell);
        log.close(id);
        replay_s += log.ms(id) * 1e-3;

        std::string why =
            checkNuop(r.params, cell.k, r.infidelity, in.basis[cell.root],
                      toVector(in.targets[static_cast<std::size_t>(cell.sample)]));
        if (r.infidelity != study.infidelity(cell.root, cell.k, cell.sample)) {
            why = "replayed infidelity differs from the study's";
        }
        if (!why.empty()) {
            bad[i] = true;
            report.fail("fig15 replay of cell " + std::to_string(i) + ": " +
                        why);
        }
    }
    report.attempted = in.cells.size();
    for (bool b : bad) {
        report.failed += b ? 1 : 0;
    }

    // The Fig. 15 bottom panel: total-fidelity curves over base fidelity.
    for (std::size_t ri = 0; ri < kRoots.size(); ++ri) {
        for (double f = 0.95; f < 1.0; f += 0.001) {
            SpanScope span(&log, "averageTotalFidelity");
            study.averageTotalFidelity(ri, f);
        }
    }

    report.add("decomp.nuop_ms", log.totalMs("nuopDecompose"), "ms");
    report.add("decomp.nuop_cells", static_cast<double>(in.cells.size()),
               "count");
    report.add("decomp.nuop_cell_max_ms", log.maxMs("nuopDecompose"), "ms");
    report.add("fidelity.curves_ms", log.totalMs("averageTotalFidelity"),
               "ms");
    report.add("trace.overhead_s", replay_s - serial_wall, "s");
    report.note("study_s", log.ms(study_span) * 1e-3, "s");
    report.note("serial_untraced_s", serial_wall, "s");
    report.note("serial_traced_s", replay_s, "s");
    return report;
}

} // namespace

Report
runFig15(const Options &options, SpanLog *log)
{
    return log == nullptr ? untracedRounds(options)
                          : tracedReplay(options, *log);
}

} // namespace perfbench
