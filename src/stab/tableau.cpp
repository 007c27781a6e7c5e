#include "stab/tableau.hpp"

#include <set>

#include "common/error.hpp"

namespace qa
{

StabilizerTableau::StabilizerTableau(int n)
    : n_(n), x_(2 * n, std::vector<uint8_t>(n, 0)),
      z_(2 * n, std::vector<uint8_t>(n, 0)), r_(2 * n, 0)
{
    QA_REQUIRE(n >= 1 && n <= 4096, "tableau size out of range");
    for (int q = 0; q < n; ++q) {
        x_[q][q] = 1;      // destabilizer X_q
        z_[n + q][q] = 1;  // stabilizer Z_q
    }
}

void
StabilizerTableau::applyH(int q)
{
    for (int i = 0; i < 2 * n_; ++i) {
        r_[i] ^= x_[i][q] & z_[i][q];
        std::swap(x_[i][q], z_[i][q]);
    }
}

void
StabilizerTableau::applyS(int q)
{
    for (int i = 0; i < 2 * n_; ++i) {
        r_[i] ^= x_[i][q] & z_[i][q];
        z_[i][q] ^= x_[i][q];
    }
}

void
StabilizerTableau::applySdg(int q)
{
    // Sdg = Z S: conjugation by Z flips the sign when x = 1.
    applyS(q);
    applyZ(q);
}

void
StabilizerTableau::applyX(int q)
{
    for (int i = 0; i < 2 * n_; ++i) r_[i] ^= z_[i][q];
}

void
StabilizerTableau::applyY(int q)
{
    for (int i = 0; i < 2 * n_; ++i) r_[i] ^= x_[i][q] ^ z_[i][q];
}

void
StabilizerTableau::applyZ(int q)
{
    for (int i = 0; i < 2 * n_; ++i) r_[i] ^= x_[i][q];
}

void
StabilizerTableau::applyCx(int control, int target)
{
    for (int i = 0; i < 2 * n_; ++i) {
        r_[i] ^= x_[i][control] & z_[i][target] &
                 (x_[i][target] ^ z_[i][control] ^ 1);
        x_[i][target] ^= x_[i][control];
        z_[i][control] ^= z_[i][target];
    }
}

void
StabilizerTableau::applyCz(int a, int b)
{
    applyH(b);
    applyCx(a, b);
    applyH(b);
}

void
StabilizerTableau::applySwap(int a, int b)
{
    applyCx(a, b);
    applyCx(b, a);
    applyCx(a, b);
}

void
StabilizerTableau::applyGate(const Instruction& instr)
{
    QA_REQUIRE(instr.isGate(), "applyGate needs a gate instruction");
    const auto& q = instr.qubits;
    if (instr.name == "h") { applyH(q[0]); return; }
    if (instr.name == "s") { applyS(q[0]); return; }
    if (instr.name == "sdg") { applySdg(q[0]); return; }
    if (instr.name == "x") { applyX(q[0]); return; }
    if (instr.name == "y") { applyY(q[0]); return; }
    if (instr.name == "z") { applyZ(q[0]); return; }
    if (instr.name == "id" || instr.name == "barrier") return;
    if (instr.name == "cx") { applyCx(q[0], q[1]); return; }
    if (instr.name == "cz") { applyCz(q[0], q[1]); return; }
    if (instr.name == "swap") { applySwap(q[0], q[1]); return; }
    QA_FAIL("non-Clifford gate '" + instr.name +
            "' in stabilizer simulation");
}

void
StabilizerTableau::applyClifford(const CliffordAction& action,
                                 const std::vector<int>& qubits)
{
    const int k = action.arity;
    QA_REQUIRE(int(qubits.size()) == k,
               "Clifford action arity does not match the qubit list");
    QA_REQUIRE(int(action.x_images.size()) == k &&
                   int(action.z_images.size()) == k,
               "malformed Clifford action");
    for (int q : qubits) {
        QA_REQUIRE(q >= 0 && q < n_, "qubit index out of range");
    }

    for (int i = 0; i < 2 * n_; ++i) {
        // Local factor of row i over the touched qubits, written as
        // i^s * prod_j X_j^x Z_j^z with s = sum x_j z_j (Y = iXZ).
        int s = 0;
        bool any = false;
        PauliString acc(k);
        for (int j = 0; j < k; ++j) {
            const uint8_t lx = x_[i][qubits[size_t(j)]];
            const uint8_t lz = z_[i][qubits[size_t(j)]];
            if (lx && lz) ++s;
            if (lx) {
                acc = acc * action.x_images[size_t(j)];
                any = true;
            }
            if (lz) {
                acc = acc * action.z_images[size_t(j)];
                any = true;
            }
        }
        if (!any) continue;
        acc.setPhase(acc.phase() + s);
        QA_ASSERT(acc.phase() % 2 == 0,
                  "Clifford conjugation left the signed Pauli group");
        for (int j = 0; j < k; ++j) {
            x_[i][qubits[size_t(j)]] = acc.x(j) ? 1 : 0;
            z_[i][qubits[size_t(j)]] = acc.z(j) ? 1 : 0;
        }
        r_[i] ^= uint8_t(acc.phase() / 2);
    }
}

namespace
{

/** Phase exponent of multiplying single-qubit Paulis (see pauli.cpp). */
int
phaseExponent(bool x1, bool z1, bool x2, bool z2)
{
    if (!x1 && !z1) return 0;
    if (x1 && z1) return (z2 ? 1 : 0) - (x2 ? 1 : 0);
    if (x1 && !z1) return z2 ? (x2 ? 1 : -1) : 0;
    return x2 ? (z2 ? -1 : 1) : 0;
}

} // namespace

void
StabilizerTableau::rowMult(int h, int i)
{
    int exponent = 2 * r_[h] + 2 * r_[i];
    for (int q = 0; q < n_; ++q) {
        exponent += phaseExponent(x_[i][q], z_[i][q], x_[h][q], z_[h][q]);
        x_[h][q] ^= x_[i][q];
        z_[h][q] ^= z_[i][q];
    }
    exponent = ((exponent % 4) + 4) % 4;
    QA_ASSERT(exponent % 2 == 0, "stabilizer product left the group");
    r_[h] = uint8_t(exponent / 2);
}

bool
StabilizerTableau::isDeterministic(int q) const
{
    for (int i = n_; i < 2 * n_; ++i) {
        if (x_[i][q]) return false;
    }
    return true;
}

int
StabilizerTableau::measure(int q, Rng& rng)
{
    QA_REQUIRE(q >= 0 && q < n_, "qubit index out of range");
    int p = -1;
    for (int i = n_; i < 2 * n_; ++i) {
        if (x_[i][q]) {
            p = i;
            break;
        }
    }

    if (p >= 0) {
        // Random outcome: update every other anticommuting row. The
        // destabilizer paired with p anticommutes with it (the product
        // is not Hermitian) and is overwritten just below, so skip it.
        for (int i = 0; i < 2 * n_; ++i) {
            if (i != p && i != p - n_ && x_[i][q]) rowMult(i, p);
        }
        // Destabilizer p-n becomes the old stabilizer row p.
        x_[p - n_] = x_[p];
        z_[p - n_] = z_[p];
        r_[p - n_] = r_[p];
        // New stabilizer: (-1)^outcome Z_q.
        const int outcome = rng.bernoulli(0.5) ? 1 : 0;
        std::fill(x_[p].begin(), x_[p].end(), uint8_t(0));
        std::fill(z_[p].begin(), z_[p].end(), uint8_t(0));
        z_[p][q] = 1;
        r_[p] = uint8_t(outcome);
        return outcome;
    }

    // Deterministic outcome: accumulate the matching stabilizers into a
    // scratch row seeded to identity.
    std::vector<uint8_t> sx(n_, 0), sz(n_, 0);
    int exponent = 0;
    for (int i = 0; i < n_; ++i) {
        if (!x_[i][q]) continue; // destabilizer i anticommutes with Z_q
        exponent += 2 * r_[i + n_];
        for (int qq = 0; qq < n_; ++qq) {
            exponent += phaseExponent(x_[i + n_][qq], z_[i + n_][qq],
                                      sx[qq], sz[qq]);
            sx[qq] ^= x_[i + n_][qq];
            sz[qq] ^= z_[i + n_][qq];
        }
    }
    exponent = ((exponent % 4) + 4) % 4;
    QA_ASSERT(exponent % 2 == 0, "deterministic phase left the group");
    return exponent / 2;
}

PauliString
StabilizerTableau::stabilizer(int i) const
{
    QA_REQUIRE(i >= 0 && i < n_, "stabilizer index out of range");
    PauliString p(n_);
    for (int q = 0; q < n_; ++q) {
        p.setX(q, x_[n_ + i][q]);
        p.setZ(q, z_[n_ + i][q]);
    }
    p.setPhase(2 * r_[n_ + i]);
    return p;
}

PauliString
StabilizerTableau::destabilizer(int i) const
{
    QA_REQUIRE(i >= 0 && i < n_, "destabilizer index out of range");
    PauliString p(n_);
    for (int q = 0; q < n_; ++q) {
        p.setX(q, x_[i][q]);
        p.setZ(q, z_[i][q]);
    }
    p.setPhase(2 * r_[i]);
    return p;
}

CVector
StabilizerTableau::toStatevector() const
{
    QA_REQUIRE(n_ <= 10, "dense conversion supported up to 10 qubits");
    const size_t dim = size_t(1) << n_;
    CMatrix projector = CMatrix::identity(dim);
    for (int i = 0; i < n_; ++i) {
        const CMatrix s = stabilizer(i).toMatrix();
        projector = projector * ((CMatrix::identity(dim) + s) *
                                 Complex(0.5, 0.0));
    }
    for (size_t j = 0; j < dim; ++j) {
        CVector candidate = projector * CVector::basisState(dim, j);
        if (candidate.norm() > 1e-6) return candidate.normalized();
    }
    QA_ASSERT(false, "stabilizer projector annihilated every basis state");
    return CVector(dim);
}

bool
isCliffordCircuit(const QuantumCircuit& circuit)
{
    static const std::set<std::string> clifford = {
        "id", "x", "y", "z", "h", "s", "sdg", "cx", "cz", "swap"};
    for (const Instruction& instr : circuit.instructions()) {
        if (!instr.isGate()) continue;
        if (!clifford.count(instr.name)) return false;
    }
    return true;
}

StabilizerTableau
runClifford(const QuantumCircuit& circuit)
{
    StabilizerTableau tableau(circuit.numQubits());
    for (const Instruction& instr : circuit.instructions()) {
        QA_REQUIRE(instr.type == OpType::kGate ||
                       instr.type == OpType::kBarrier,
                   "runClifford requires a measurement-free circuit");
        if (instr.type == OpType::kGate) tableau.applyGate(instr);
    }
    return tableau;
}

} // namespace qa
