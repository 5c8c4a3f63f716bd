/**
 * @file
 * Checker self-test (`perfbench --self-test`): each checker must
 * accept a genuine program output and reject it once corrupted, which
 * shows the workload checks can fail.  Cases:
 *   - a routed circuit with one gate moved onto an uncoupled pair;
 *   - a routed circuit with one gate dropped;
 *   - a routed circuit with one routing SWAP removed;
 *   - a transpile payload with one checked metric changed;
 *   - NuOp angles perturbed.
 */
#include <functional>
#include <iostream>

#include "bench.hpp"
#include "circuits/registry.hpp"
#include "common/rng.hpp"
#include "decomp/nuop.hpp"
#include "linalg/random_unitary.hpp"
#include "serve/job.hpp"
#include "transpiler/pass_registry.hpp"

namespace perfbench
{

using namespace snail;

namespace
{

/** Copy of `circuit` with instruction `index` passed to `edit` instead. */
Circuit
edited(const Circuit &circuit, std::size_t index,
       const std::function<void(Circuit &, const Instruction &)> &edit)
{
    Circuit out(circuit.numQubits(), circuit.name());
    for (std::size_t i = 0; i < circuit.size(); ++i) {
        if (i == index) {
            edit(out, circuit.instructions()[i]);
        } else {
            out.append(circuit.instructions()[i]);
        }
    }
    return out;
}

class Tally
{
  public:
    /** `verdict` is the checker's message: "" accepts, text rejects. */
    void expect(const std::string &what, bool want_reject,
                const std::string &verdict)
    {
        const bool rejected = !verdict.empty();
        const bool ok = rejected == want_reject;
        _bad += ok ? 0 : 1;
        std::cout << (ok ? "ok   " : "FAIL ") << what << ": "
                  << (rejected ? "rejected (" + verdict + ")" : "accepted")
                  << "\n";
    }
    int bad() const { return _bad; }

  private:
    int _bad = 0;
};

void
routingCases(Tally &tally)
{
    const Target target = namedTarget("heavy-hex-20-cx");
    const Circuit input = makeBenchmark("qaoa", 12, 7);
    const TranspileResult result =
        passManagerFromSpec("dense,stochastic-route=10").run(input, target, 11);
    const std::set<std::pair<int, int>> coupled = couplingPairs(target);
    const std::vector<int> initial = result.initial_layout.v2p();
    const std::vector<int> final_layout = result.final_layout.v2p();
    const auto verify = [&](const Circuit &routed) {
        return verifyRouting(input, routed, initial, final_layout, coupled);
    };
    tally.expect("genuine routed circuit", false, verify(result.routed));

    std::size_t gate = result.routed.size(), swap = result.routed.size();
    for (std::size_t i = 0; i < result.routed.size(); ++i) {
        const Instruction &op = result.routed.instructions()[i];
        if (op.isTwoQubit() && !op.isSwap() && gate == result.routed.size()) {
            gate = i;
        }
        if (op.isSwap() && swap == result.routed.size()) {
            swap = i;
        }
    }
    if (gate == result.routed.size() || swap == result.routed.size()) {
        tally.expect("routed circuit has a 2Q gate and a SWAP", false,
                     "none found");
        return;
    }

    const Instruction &op = result.routed.instructions()[gate];
    int uncoupled = -1;
    for (int p = 0; p < target.numQubits() && uncoupled < 0; ++p) {
        if (p != op.q0() &&
            coupled.count({std::min(p, op.q0()), std::max(p, op.q0())}) == 0) {
            uncoupled = p;
        }
    }
    tally.expect("gate moved onto an uncoupled pair", true,
                 verify(edited(result.routed, gate,
                               [&](Circuit &out, const Instruction &in) {
                                   out.append(in.gate(), {in.q0(), uncoupled});
                               })));
    tally.expect("one gate dropped", true,
                 verify(edited(result.routed, gate,
                               [](Circuit &, const Instruction &) {})));
    tally.expect("one SWAP removed", true,
                 verify(edited(result.routed, swap,
                               [](Circuit &, const Instruction &) {})));
}

void
payloadCases(Tally &tally)
{
    JobSpec spec;
    spec.bench = "qft";
    spec.width = 12;
    spec.target_name = "heavy-hex-20-cx";
    spec.pipeline =
        "sabre-layout,sabre-route,optimize,elide,basis=auto,score-fidelity";
    const ResolvedJob job = resolveJob(spec);
    const JsonValue payload = JsonValue::parse(
        serializeResult(job.pipeline.run(job.circuit, job.target, job.seed)));
    tally.expect("genuine payload", false,
                 checkServePayload(payload, job.target, true));

    const std::vector<std::pair<std::string, std::string>> fields = {
        {"metrics", "swaps_total"},
        {"metrics", "basis_2q_total"},
        {"properties", "fidelity_2q_part"},
        {"properties", "fidelity_predicted"},
    };
    for (const auto &[group, name] : fields) {
        JsonValue changed = payload;
        JsonValue &value = changed.object().at(group).object().at(name);
        value = JsonValue(value.asNumber() +
                          (group == "metrics" ? 1.0 : -1e-3));
        tally.expect("payload with " + name + " changed", true,
                     checkServePayload(changed, job.target, true));
    }
}

void
nuopCases(Tally &tally)
{
    Rng rng(0x5E1F7E57ULL);
    const Matrix target = haarUnitary(4, rng);
    std::vector<std::complex<double>> flat;
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            flat.push_back(target(i, j));
        }
    }
    const int k = 3;
    const NuOpResult r = nuopDecompose(target, gates::nrootIswap(2.0), k);
    const std::vector<std::complex<double>> basis = nrootIswapMatrix(2.0);
    tally.expect("genuine NuOp angles", false,
                 checkNuop(r.params, k, r.infidelity, basis, flat));
    std::vector<double> perturbed = r.params;
    perturbed[perturbed.size() / 2] += 1e-3;
    tally.expect("NuOp angles perturbed", true,
                 checkNuop(perturbed, k, r.infidelity, basis, flat));
}

} // namespace

int
runSelfTest()
{
    Tally tally;
    try {
        routingCases(tally);
        payloadCases(tally);
        nuopCases(tally);
    } catch (const std::exception &e) {
        std::cout << "FAIL self-test threw: " << e.what() << "\n";
        return 1;
    }
    std::cout << (tally.bad() == 0 ? "self-test passed"
                                   : "self-test FAILED")
              << "\n";
    return tally.bad();
}

} // namespace perfbench
