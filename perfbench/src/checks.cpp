#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench
{

using snail::Circuit;
using snail::Gate;
using snail::GateKind;
using snail::Instruction;
using snail::JsonValue;
using snail::Target;

namespace
{

using C = std::complex<double>;
using M = std::vector<C>; // row-major square matrix

constexpr double kPi = 3.14159265358979323846;
/** Resolution of Weyl coordinates in the native-count model. */
constexpr double kWeylTolerance = 1e-8;

bool
sameGate(const Gate &a, const Gate &b)
{
    if (a.kind() != b.kind() || a.params() != b.params()) {
        return false;
    }
    if (a.kind() == GateKind::Unitary2 || a.kind() == GateKind::Unitary4) {
        const snail::Matrix ma = a.matrix();
        const snail::Matrix mb = b.matrix();
        for (std::size_t i = 0; i < ma.rows(); ++i) {
            for (std::size_t j = 0; j < ma.cols(); ++j) {
                if (ma(i, j) != mb(i, j)) {
                    return false;
                }
            }
        }
    }
    return true;
}

M
mul(const M &a, const M &b, std::size_t n)
{
    M out(n * n, C(0.0, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < n; ++k) {
            for (std::size_t j = 0; j < n; ++j) {
                out[i * n + j] += a[i * n + k] * b[k * n + j];
            }
        }
    }
    return out;
}

M
u3(double theta, double phi, double lam)
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    return {C(c, 0.0), -std::polar(s, lam), std::polar(s, phi),
            std::polar(c, phi + lam)};
}

M
kron2(const M &a, const M &b)
{
    M out(16);
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
            for (std::size_t k = 0; k < 2; ++k) {
                for (std::size_t l = 0; l < 2; ++l) {
                    out[(i * 2 + k) * 4 + j * 2 + l] =
                        a[i * 2 + j] * b[k * 2 + l];
                }
            }
        }
    }
    return out;
}

/** theta reduced into [0, 2 pi). */
double
wrapAngle(double theta)
{
    double t = std::fmod(theta, 2.0 * kPi);
    return t < 0.0 ? t + 2.0 * kPi : t;
}

bool
nearRelative(double a, double b, double tol)
{
    return std::abs(a - b) <= tol * std::max(std::abs(a), std::abs(b));
}

} // namespace

std::set<std::pair<int, int>>
couplingPairs(const Target &target)
{
    std::set<std::pair<int, int>> pairs;
    for (const auto &[a, b] : target.graph().edges()) {
        pairs.insert({std::min(a, b), std::max(a, b)});
    }
    return pairs;
}

double
basisPulse(const Target &target)
{
    switch (target.defaultBasis().kind) {
    case snail::BasisKind::CNOT:
    case snail::BasisKind::Sycamore:
        return 1.0;
    case snail::BasisKind::SqISwap:
        return 0.5;
    default:
        throw std::runtime_error("no reference pulse length for basis " +
                                 target.defaultBasis().name());
    }
}

std::string
verifyRouting(const Circuit &input, const Circuit &routed,
              const std::vector<int> &initial_v2p,
              const std::vector<int> &final_v2p,
              const std::set<std::pair<int, int>> &coupled)
{
    const int width = input.numQubits();
    const int physical = routed.numQubits();
    if (static_cast<int>(initial_v2p.size()) != width ||
        static_cast<int>(final_v2p.size()) != width) {
        return "layout size differs from the input width";
    }
    std::vector<int> p2v(static_cast<std::size_t>(physical), -1);
    for (int v = 0; v < width; ++v) {
        const int p = initial_v2p[static_cast<std::size_t>(v)];
        if (p < 0 || p >= physical || p2v[static_cast<std::size_t>(p)] != -1) {
            return "initial layout is not an injective placement";
        }
        p2v[static_cast<std::size_t>(p)] = v;
    }

    // Per virtual qubit: the input instructions touching it, in order.
    const std::vector<Instruction> &in_ops = input.instructions();
    std::vector<std::vector<std::size_t>> seq(static_cast<std::size_t>(width));
    for (std::size_t i = 0; i < in_ops.size(); ++i) {
        for (int q : in_ops[i].qubits()) {
            seq[static_cast<std::size_t>(q)].push_back(i);
        }
    }
    std::vector<std::size_t> next(static_cast<std::size_t>(width), 0);
    const auto expected = [&](int v) -> long {
        const auto &s = seq[static_cast<std::size_t>(v)];
        const std::size_t at = next[static_cast<std::size_t>(v)];
        return at < s.size() ? static_cast<long>(s[at]) : -1;
    };

    std::size_t position = 0;
    for (const Instruction &op : routed.instructions()) {
        std::ostringstream where;
        where << "routed op " << position++ << " (" << op.toString() << "): ";
        std::vector<int> vs;
        for (int p : op.qubits()) {
            if (p < 0 || p >= physical) {
                return where.str() + "qubit outside the device";
            }
            vs.push_back(p2v[static_cast<std::size_t>(p)]);
        }
        if (op.isTwoQubit()) {
            const int a = std::min(op.q0(), op.q1());
            const int b = std::max(op.q0(), op.q1());
            if (coupled.count({a, b}) == 0) {
                return where.str() + "2Q gate on an uncoupled pair";
            }
        }
        if (op.isSwap()) {
            // An input SWAP is consumed as a gate; any other SWAP is
            // routing and moves the tracked layout.
            bool input_swap = vs[0] >= 0 && vs[1] >= 0 &&
                              expected(vs[0]) >= 0 &&
                              expected(vs[0]) == expected(vs[1]);
            if (input_swap) {
                input_swap = in_ops[static_cast<std::size_t>(
                                        expected(vs[0]))].isSwap();
            }
            if (!input_swap) {
                std::swap(p2v[static_cast<std::size_t>(op.q0())],
                          p2v[static_cast<std::size_t>(op.q1())]);
                continue;
            }
        }
        for (int v : vs) {
            if (v < 0) {
                return where.str() + "gate on a qubit holding no virtual";
            }
        }
        const long idx = expected(vs[0]);
        if (idx < 0) {
            return where.str() + "extra gate on virtual qubit " +
                   std::to_string(vs[0]);
        }
        const Instruction &want = in_ops[static_cast<std::size_t>(idx)];
        if (want.qubits() != vs || !sameGate(want.gate(), op.gate())) {
            return where.str() + "expected input op " + std::to_string(idx) +
                   " (" + want.toString() + ") on these virtual qubits";
        }
        for (int v : vs) {
            if (expected(v) != idx) {
                return where.str() + "virtual qubit order differs";
            }
            ++next[static_cast<std::size_t>(v)];
        }
    }
    for (int v = 0; v < width; ++v) {
        if (next[static_cast<std::size_t>(v)] !=
            seq[static_cast<std::size_t>(v)].size()) {
            return "input gates missing on virtual qubit " + std::to_string(v);
        }
    }
    for (int p = 0; p < physical; ++p) {
        const int v = p2v[static_cast<std::size_t>(p)];
        if (v >= 0 && final_v2p[static_cast<std::size_t>(v)] != p) {
            return "tracked layout differs from final_layout at virtual " +
                   std::to_string(v);
        }
    }
    return "";
}

std::vector<QasmGate>
qasmGates(const std::string &source)
{
    std::vector<QasmGate> gates;
    std::istringstream lines(source);
    std::string line;
    while (std::getline(lines, line)) {
        const std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos) {
            continue;
        }
        line = line.substr(first);
        if (line.rfind("//", 0) == 0 || line.rfind("OPENQASM", 0) == 0 ||
            line.rfind("include", 0) == 0 || line.rfind("qreg", 0) == 0) {
            continue;
        }
        const std::size_t semi = line.find(';');
        if (semi == std::string::npos) {
            throw std::runtime_error("qasm: missing ';' in: " + line);
        }
        const std::string body = line.substr(0, semi);
        QasmGate gate;
        std::size_t at = body.find_first_of("( ");
        if (at == std::string::npos) {
            throw std::runtime_error("qasm: no operands in: " + line);
        }
        gate.name = body.substr(0, at);
        if (body[at] == '(') {
            const std::size_t close = body.find(')', at);
            if (close == std::string::npos) {
                throw std::runtime_error("qasm: unclosed '(' in: " + line);
            }
            std::istringstream params(body.substr(at + 1, close - at - 1));
            std::string item;
            while (std::getline(params, item, ',')) {
                char *end = nullptr;
                const double value = std::strtod(item.c_str(), &end);
                if (end == item.c_str() ||
                    item.find_first_not_of(" \t", static_cast<std::size_t>(
                                                      end - item.c_str())) !=
                        std::string::npos) {
                    throw std::runtime_error("qasm: bad parameter '" + item +
                                             "'");
                }
                gate.params.push_back(value);
            }
            at = close + 1;
        }
        std::istringstream operands(body.substr(at));
        std::string item;
        while (std::getline(operands, item, ',')) {
            const std::size_t open = item.find("q[");
            const std::size_t close = item.find(']');
            if (open == std::string::npos || close == std::string::npos) {
                throw std::runtime_error("qasm: bad operand '" + item + "'");
            }
            gate.qubits.push_back(
                std::stoi(item.substr(open + 2, close - open - 2)));
        }
        if (gate.qubits.empty() || gate.qubits.size() > 2) {
            throw std::runtime_error("qasm: unsupported arity in: " + line);
        }
        gates.push_back(std::move(gate));
    }
    return gates;
}

int
closedFormCount(const QasmGate &gate, bool sqiswap)
{
    const int cx_class = sqiswap ? 2 : 1;
    if (gate.name == "swap") {
        return 3;
    }
    if (gate.name == "cx" || gate.name == "cz") {
        return cx_class;
    }
    if ((gate.name == "cp" || gate.name == "rzz") && gate.params.size() == 1) {
        // RZZ(t) is locally CPhase(2t); CPhase(p) sits at Weyl point
        // (d/4, 0, 0), d the distance of p from 0 mod 2 pi.  Its ends
        // are the identity (d = 0) and CZ (d = pi).  Counts resolve
        // Weyl coordinates to 1e-8, so angles that close to an end
        // take that end's count.
        const double phase = wrapAngle(gate.name == "rzz" ? 2.0 * gate.params[0]
                                                          : gate.params[0]);
        const double d = std::min(phase, 2.0 * kPi - phase);
        if (d / 4.0 <= kWeylTolerance) {
            return 0;
        }
        if (std::abs(d - kPi) / 4.0 <= kWeylTolerance) {
            return cx_class;
        }
        return 2;
    }
    return -1;
}

namespace
{

/**
 * Coupling, SWAP count and (when `native_total` is given and the
 * machine is CX or sqiSWAP) closed-form native total of one routed
 * OpenQASM listing.
 */
std::string
checkListing(const std::string &listing, const Target &target,
             double swaps_total, const double *native_total)
{
    std::vector<QasmGate> gates;
    try {
        gates = qasmGates(listing);
    } catch (const std::exception &e) {
        return e.what();
    }
    const std::set<std::pair<int, int>> coupled = couplingPairs(target);
    const snail::BasisKind kind = target.defaultBasis().kind;
    const bool sqiswap = kind == snail::BasisKind::SqISwap;
    const bool native_table = native_total != nullptr &&
                              (sqiswap || kind == snail::BasisKind::CNOT);
    double swaps = 0.0;
    double native = 0.0;
    for (const QasmGate &gate : gates) {
        if (gate.qubits.size() != 2) {
            continue;
        }
        const int a = std::min(gate.qubits[0], gate.qubits[1]);
        const int b = std::max(gate.qubits[0], gate.qubits[1]);
        if (coupled.count({a, b}) == 0) {
            return gate.name + " on uncoupled pair (" + std::to_string(a) +
                   ", " + std::to_string(b) + ")";
        }
        swaps += gate.name == "swap" ? 1.0 : 0.0;
        const int count = closedFormCount(gate, sqiswap);
        if (native_table && count < 0) {
            return "no closed-form native count for gate " + gate.name;
        }
        native += count;
    }
    if (swaps != swaps_total) {
        return "routed_qasm holds " + std::to_string(swaps) +
               " SWAPs, swaps_total says " + std::to_string(swaps_total);
    }
    if (native_table && native != *native_total) {
        return "closed-form native count " + std::to_string(native) +
               " differs from basis_2q_total " +
               std::to_string(*native_total);
    }
    return "";
}

} // namespace

std::string
checkServePayload(const JsonValue &result, const Target &target,
                  bool exportable)
{
    const JsonValue &metrics = result.at("metrics");
    const JsonValue &props = result.at("properties");
    const double swaps_total = metrics.at("swaps_total").asNumber();
    const double basis_total = metrics.at("basis_2q_total").asNumber();
    if (const JsonValue *qasm = result.find("routed_qasm")) {
        const std::string why =
            checkListing(qasm->asString(), target, swaps_total,
                         exportable ? &basis_total : nullptr);
        if (!why.empty()) {
            return why;
        }
    } else if (exportable) {
        return "result carries no routed_qasm";
    }

    // Eq. 12: a pulse 1/n as long as the full 0.99-fidelity pulse
    // carries 1/n of its infidelity.
    const double per_pulse = 1.0 - 0.01 * basisPulse(target);
    const double part_2q = props.at("fidelity_2q_part").asNumber();
    if (!nearRelative(part_2q, std::pow(per_pulse, basis_total), 1e-9)) {
        return "fidelity_2q_part differs from F^basis_2q_total";
    }
    const double predicted = props.at("fidelity_predicted").asNumber();
    const double product = part_2q *
                           props.at("fidelity_1q_part").asNumber() *
                           props.at("fidelity_idle_part").asNumber();
    if (!nearRelative(predicted, product, 1e-9)) {
        return "fidelity_predicted is not the product of its parts";
    }
    if (!(predicted > 0.0 && predicted <= 1.0)) {
        return "fidelity_predicted outside (0, 1]";
    }
    return "";
}

std::vector<std::complex<double>>
nrootIswapMatrix(double n)
{
    const double angle = kPi / (2.0 * n);
    const C c(std::cos(angle), 0.0);
    const C s(0.0, std::sin(angle));
    const C one(1.0, 0.0);
    const C zero(0.0, 0.0);
    return {one,  zero, zero, zero, zero, c,    s,    zero,
            zero, s,    c,    zero, zero, zero, zero, one};
}

double
templateFidelity(const std::vector<double> &params, int k,
                 const std::vector<std::complex<double>> &basis,
                 const std::vector<std::complex<double>> &target)
{
    const auto layer = [&](int i) {
        const double *p = &params.at(static_cast<std::size_t>(i) * 6);
        return kron2(u3(p[0], p[1], p[2]), u3(p[3], p[4], p[5]));
    };
    M circuit = layer(0);
    for (int i = 1; i <= k; ++i) {
        circuit = mul(layer(i), mul(basis, circuit, 4), 4);
    }
    C trace(0.0, 0.0);
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 4; ++c) {
            trace += std::conj(target[c * 4 + r]) * circuit[c * 4 + r];
        }
    }
    return std::abs(trace) / 4.0;
}

std::string
checkNuop(const std::vector<double> &params, int k, double infidelity,
          const std::vector<std::complex<double>> &basis,
          const std::vector<std::complex<double>> &target)
{
    if (k < 0 || params.size() != static_cast<std::size_t>(6 * (k + 1))) {
        return "wrong number of template angles";
    }
    if (std::abs(templateFidelity(params, k, basis, target) -
                 (1.0 - infidelity)) > 1e-9) {
        return "rebuilt template fidelity differs from 1 - infidelity";
    }
    return "";
}

} // namespace perfbench
