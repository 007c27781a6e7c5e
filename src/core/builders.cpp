#include "core/builders.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "linalg/gram_schmidt.hpp"
#include "synth/cnot_synth.hpp"
#include "synth/factorize.hpp"
#include "synth/mcgates.hpp"
#include "synth/zyz.hpp"
#include "synth/multiplex.hpp"
#include "synth/state_prep.hpp"
#include "synth/unitary_synth.hpp"

namespace qa
{

const char*
designName(AssertionDesign design)
{
    switch (design) {
      case AssertionDesign::kSwap: return "swap";
      case AssertionDesign::kOr: return "logical-or";
      case AssertionDesign::kNdd: return "ndd";
      case AssertionDesign::kProq: return "proq";
      case AssertionDesign::kCustom: return "custom";
      case AssertionDesign::kAuto: return "auto";
    }
    return "?";
}

RankRegime
classifyRank(size_t t, int n, int* m)
{
    const size_t full = size_t(1) << n;
    QA_REQUIRE(t >= 1 && t <= full, "rank out of range");
    int floor_log = 0;
    while ((size_t(1) << (floor_log + 1)) <= t) ++floor_log;
    if (m != nullptr) *m = floor_log;
    if (t == full) return RankRegime::kFull;
    if ((t & (t - 1)) == 0) return RankRegime::kPower;
    if (t > full / 2) return RankRegime::kLarge;
    return RankRegime::kBetween;
}

std::pair<std::vector<CVector>, std::vector<CVector>>
buildSupersets(const CorrectSubspace& subspace, int m)
{
    const size_t t = subspace.rank();
    const size_t target = size_t(1) << (m + 1);
    const size_t extra = target - t;
    const size_t dim = size_t(1) << subspace.n;

    const std::vector<CVector> full = completeBasis(subspace.basis, dim);
    QA_REQUIRE(t + 2 * extra <= dim,
               "not enough orthogonal complement for disjoint supersets");

    std::vector<CVector> s1(subspace.basis);
    std::vector<CVector> s2(subspace.basis);
    for (size_t i = 0; i < extra; ++i) {
        s1.push_back(full[t + i]);
        s2.push_back(full[t + extra + i]);
    }
    return {s1, s2};
}

std::vector<CVector>
buildExtendedBasis(const CorrectSubspace& subspace)
{
    const size_t dim = size_t(1) << subspace.n;
    const size_t t = subspace.rank();
    const std::vector<CVector> full = completeBasis(subspace.basis, dim);

    auto embed = [dim](const CVector& v, bool upper_half) {
        CVector out(2 * dim);
        for (size_t i = 0; i < dim; ++i) {
            out[(upper_half ? dim : 0) + i] = v[i];
        }
        return out;
    };

    std::vector<CVector> extended;
    for (size_t i = 0; i < t; ++i) {
        extended.push_back(embed(full[i], false)); // |0>|psi_i>: correct
    }
    for (size_t i = t; i < dim; ++i) {
        extended.push_back(embed(full[i], true)); // |1>|c_j>: virtual
    }
    QA_ASSERT(extended.size() == dim, "extended basis must have rank 2^n");
    return extended;
}

namespace
{

/** Local detection of computational-basis-state vectors. */
bool
collectBasisIndices(const std::vector<CVector>& basis,
                    std::vector<uint64_t>* indices)
{
    indices->clear();
    for (const CVector& b : basis) {
        int hits = 0;
        uint64_t idx = 0;
        for (uint64_t i = 0; i < b.dim(); ++i) {
            if (std::abs(b[i]) > 1e-8) {
                ++hits;
                idx = i;
            }
        }
        if (hits != 1) return false;
        indices->push_back(idx);
    }
    return true;
}


} // namespace

BasisChange
buildBasisChange(const std::vector<CVector>& basis, int n)
{
    QA_REQUIRE(!basis.empty(), "empty basis");
    const size_t dim = size_t(1) << n;

    BasisChange bc{QuantumCircuit(n), QuantumCircuit(n), {}, {}};

    if (basis.size() == 1) {
        bc.u = prepareState(basis[0]);
        bc.uinv = bc.u.inverse();
        for (int q = 0; q < n; ++q) bc.flag_qubits.push_back(q);
        bc.correct_indices = {0};
        return bc;
    }

    // Affine computational-basis sets: X/CNOT-only circuits reading the
    // subspace's parity checks into the check qubits.
    std::vector<uint64_t> indices;
    if (collectBasisIndices(basis, &indices)) {
        std::vector<uint64_t> masks;
        for (uint64_t idx : indices) {
            masks.push_back(basisIndexToMask(idx, n));
        }
        if (auto comp = findAffineCompression(masks, n)) {
            QuantumCircuit uinv(n);
            for (int q = 0; q < n; ++q) {
                if ((comp->offset >> q) & 1) uinv.x(q);
            }
            const QuantumCircuit linear = synthesizeLinear(comp->map);
            std::vector<int> ident;
            for (int q = 0; q < n; ++q) ident.push_back(q);
            uinv.compose(linear, ident);
            bc.uinv = uinv;
            bc.u = uinv.inverse();
            bc.flag_qubits = comp->check_qubits;
            uint64_t flag_mask = 0;
            for (int f : bc.flag_qubits) {
                flag_mask |= uint64_t(1) << (n - 1 - f);
            }
            for (uint64_t i = 0; i < dim; ++i) {
                if ((i & flag_mask) == 0) bc.correct_indices.push_back(i);
            }
            return bc;
        }
    }

    // Rank-2 orthogonal-product fast path: O(n) CX.
    if (auto pair_u = basis.size() == 2
                          ? buildProductPairUnitary(basis[0], basis[1])
                          : std::nullopt) {
        bc.u = std::move(*pair_u);
        bc.uinv = bc.u.inverse();
    } else {
        // General path: synthesize an isometry whose leading columns
        // are the correct states (the remaining columns are
        // unconstrained, which is dramatically cheaper than completing
        // and synthesizing the full 2^n x 2^n unitary).
        bc.u = synthesizeIsometry(basis, n);
        bc.uinv = bc.u.inverse();
    }
    // The correct subspace maps onto the leading column indices; when t
    // is a power of two those indices are exactly the states whose
    // leading n - m qubits read zero.
    const size_t t = basis.size();
    for (uint64_t i = 0; i < t; ++i) bc.correct_indices.push_back(i);
    if ((t & (t - 1)) == 0) {
        int m = 0;
        while ((size_t(1) << m) < t) ++m;
        for (int q = 0; q < n - m; ++q) bc.flag_qubits.push_back(q);
    }
    return bc;
}

namespace
{

/** Optimized 2-CX swap, valid when `anc` is known to be |0>. */
void
emitZeroSwap(QuantumCircuit& frag, int src, int anc)
{
    frag.cx(src, anc);
    frag.cx(anc, src);
}

/**
 * Emit one power-rank SWAP assertion: `basis` has 2^m orthonormal states
 * over ctx.qubits (k = n - m leading qubits are measured via ancillas).
 */
void
emitSwapPower(QuantumCircuit& frag, const std::vector<CVector>& basis,
              const std::vector<int>& qubits,
              const std::vector<int>& ancillas,
              const std::vector<int>& clbits, SwapPlacement placement)
{
    const int n = int(qubits.size());
    int m = 0;
    while ((size_t(1) << m) < basis.size()) ++m;
    const int k = n - m;
    QA_REQUIRE(int(ancillas.size()) >= k && int(clbits.size()) >= k,
               "not enough ancillas/clbits for the SWAP assertion");

    const BasisChange bc = buildBasisChange(basis, n);
    QA_ASSERT(int(bc.flag_qubits.size()) == k,
              "basis change flag count mismatch");
    const bool pure = m == 0;

    if (!pure || placement == SwapPlacement::kInvBeforePrepAfter) {
        // Fig. 3 / Fig. 8 shape: U^-1, optimized swaps of the flag
        // qubits, measure, restore with U.
        frag.compose(bc.uinv, qubits);
        for (int i = 0; i < k; ++i) {
            emitZeroSwap(frag, qubits[bc.flag_qubits[i]], ancillas[i]);
        }
        for (int i = 0; i < k; ++i) {
            frag.measure(ancillas[i], clbits[i]);
        }
        frag.compose(bc.u, qubits);
        return;
    }

    std::vector<int> anc(ancillas.begin(), ancillas.begin() + k);
    switch (placement) {
      case SwapPlacement::kInvBeforePrepBefore:
        // Fig. 6: prepare |psi0> on the ancillas, U^-1 on the tested
        // wires, full swaps; tested wires end up holding |psi0>.
        frag.compose(bc.u, anc);
        frag.compose(bc.uinv, qubits);
        for (int i = 0; i < k; ++i) frag.swap(qubits[i], anc[i]);
        break;
      case SwapPlacement::kInvAfterPrepBefore:
        frag.compose(bc.u, anc);
        for (int i = 0; i < k; ++i) frag.swap(qubits[i], anc[i]);
        frag.compose(bc.uinv, anc);
        break;
      case SwapPlacement::kInvAfterPrepAfter:
        for (int i = 0; i < k; ++i) {
            emitZeroSwap(frag, qubits[i], anc[i]);
        }
        frag.compose(bc.uinv, anc);
        break;
      case SwapPlacement::kInvBeforePrepAfter:
        QA_ASSERT(false, "handled above");
    }
    for (int i = 0; i < k; ++i) {
        frag.measure(anc[i], clbits[i]);
    }
    if (placement == SwapPlacement::kInvAfterPrepAfter) {
        frag.compose(bc.u, qubits);
    }
}

std::vector<int>
subRange(const std::vector<int>& v, size_t begin, size_t count)
{
    QA_ASSERT(begin + count <= v.size(), "subRange out of bounds");
    return std::vector<int>(v.begin() + begin, v.begin() + begin + count);
}

AssertionPlan
planSwapAssertion(const CorrectSubspace& subspace, SwapPlacement)
{
    int m = 0;
    const RankRegime regime = classifyRank(subspace.rank(), subspace.n, &m);
    AssertionPlan plan;
    switch (regime) {
      case RankRegime::kFull:
        QA_FAIL("rank-2^n state sets are unassertable: every state is "
                "'correct'");
      case RankRegime::kPower:
        plan.num_ancillas = subspace.n - m;
        plan.num_clbits = subspace.n - m;
        break;
      case RankRegime::kBetween:
        plan.num_ancillas = 2 * (subspace.n - (m + 1));
        plan.num_clbits = plan.num_ancillas;
        break;
      case RankRegime::kLarge:
        plan.num_ancillas = 2; // embedding qubit + measured swap ancilla
        plan.num_clbits = 1;
        break;
    }
    return plan;
}

QuantumCircuit
buildSwapAssertion(const CorrectSubspace& subspace, const BuildContext& ctx,
                   SwapPlacement placement)
{
    QA_REQUIRE(int(ctx.qubits.size()) == subspace.n,
               "qubit list does not match the state size");
    int m = 0;
    const RankRegime regime = classifyRank(subspace.rank(), subspace.n, &m);
    QuantumCircuit frag(ctx.total_qubits, ctx.total_clbits);

    switch (regime) {
      case RankRegime::kFull:
        QA_FAIL("rank-2^n state sets are unassertable");
      case RankRegime::kPower:
        emitSwapPower(frag, subspace.basis, ctx.qubits, ctx.ancillas,
                      ctx.clbits, placement);
        break;
      case RankRegime::kBetween: {
        const auto supersets = buildSupersets(subspace, m);
        const size_t k = subspace.n - (m + 1);
        emitSwapPower(frag, supersets.first, ctx.qubits,
                      subRange(ctx.ancillas, 0, k),
                      subRange(ctx.clbits, 0, k), placement);
        emitSwapPower(frag, supersets.second, ctx.qubits,
                      subRange(ctx.ancillas, k, k),
                      subRange(ctx.clbits, k, k), placement);
        break;
      }
      case RankRegime::kLarge: {
        const std::vector<CVector> extended = buildExtendedBasis(subspace);
        std::vector<int> ext_qubits{ctx.ancillas[0]};
        ext_qubits.insert(ext_qubits.end(), ctx.qubits.begin(),
                          ctx.qubits.end());
        emitSwapPower(frag, extended, ext_qubits, {ctx.ancillas[1]},
                      {ctx.clbits[0]},
                      SwapPlacement::kInvBeforePrepAfter);
        break;
      }
    }
    return frag;
}

/** Emit one power-rank logical-OR assertion. */
void
emitOrPower(QuantumCircuit& frag, const std::vector<CVector>& basis,
            const std::vector<int>& qubits, int flag, int clbit,
            const std::vector<int>& free_qubits)
{
    const int n = int(qubits.size());
    int m = 0;
    while ((size_t(1) << m) < basis.size()) ++m;
    const int k = n - m;

    const BasisChange bc = buildBasisChange(basis, n);
    QA_ASSERT(int(bc.flag_qubits.size()) == k,
              "basis change flag count mismatch");
    std::vector<int> controls;
    std::vector<bool> is_flag(n, false);
    for (int f : bc.flag_qubits) {
        controls.push_back(qubits[f]);
        is_flag[f] = true;
    }

    frag.compose(bc.uinv, qubits);
    if (k == 1) {
        // A single flag qubit is its own error indicator.
        frag.cx(controls[0], flag);
    } else {
        // Open-controlled MCX fires when all flag qubits are |0> (no
        // error); the X then inverts to the |1> = error convention.
        std::vector<int> free = free_qubits;
        for (int i = 0; i < n; ++i) {
            if (!is_flag[i]) free.push_back(qubits[i]);
        }
        mcxPattern(frag, controls, 0, flag, free);
        frag.x(flag);
    }
    frag.measure(flag, clbit);
    frag.compose(bc.u, qubits);
}

AssertionPlan
planOrAssertion(const CorrectSubspace& subspace)
{
    int m = 0;
    const RankRegime regime = classifyRank(subspace.rank(), subspace.n, &m);
    AssertionPlan plan;
    switch (regime) {
      case RankRegime::kFull:
        QA_FAIL("rank-2^n state sets are unassertable");
      case RankRegime::kPower:
        // The n-controlled OR gate decomposes linearly given one
        // borrowed qubit [5][24]; allocate a helper when the flag MCX
        // is wide and no tested qubit is left over to borrow.
        plan.num_ancillas = (subspace.n - m >= 3 && m == 0) ? 2 : 1;
        plan.num_clbits = 1;
        break;
      case RankRegime::kBetween:
        plan.num_ancillas = 2;
        plan.num_clbits = 2;
        break;
      case RankRegime::kLarge:
        plan.num_ancillas = 2; // embedding qubit + flag
        plan.num_clbits = 1;
        break;
    }
    return plan;
}

QuantumCircuit
buildOrAssertion(const CorrectSubspace& subspace, const BuildContext& ctx)
{
    QA_REQUIRE(int(ctx.qubits.size()) == subspace.n,
               "qubit list does not match the state size");
    int m = 0;
    const RankRegime regime = classifyRank(subspace.rank(), subspace.n, &m);
    QuantumCircuit frag(ctx.total_qubits, ctx.total_clbits);

    switch (regime) {
      case RankRegime::kFull:
        QA_FAIL("rank-2^n state sets are unassertable");
      case RankRegime::kPower: {
        std::vector<int> free = ctx.free_qubits;
        for (size_t a = 1; a < ctx.ancillas.size(); ++a) {
            free.push_back(ctx.ancillas[a]); // helper ancilla
        }
        emitOrPower(frag, subspace.basis, ctx.qubits, ctx.ancillas[0],
                    ctx.clbits[0], free);
        break;
      }
      case RankRegime::kBetween: {
        const auto supersets = buildSupersets(subspace, m);
        emitOrPower(frag, supersets.first, ctx.qubits, ctx.ancillas[0],
                    ctx.clbits[0], ctx.free_qubits);
        emitOrPower(frag, supersets.second, ctx.qubits, ctx.ancillas[1],
                    ctx.clbits[1], ctx.free_qubits);
        break;
      }
      case RankRegime::kLarge: {
        const std::vector<CVector> extended = buildExtendedBasis(subspace);
        std::vector<int> ext_qubits{ctx.ancillas[0]};
        ext_qubits.insert(ext_qubits.end(), ctx.qubits.begin(),
                          ctx.qubits.end());
        emitOrPower(frag, extended, ext_qubits, ctx.ancillas[1],
                    ctx.clbits[0], ctx.free_qubits);
        break;
      }
    }
    return frag;
}

/** Emit one power-rank projective (Proq) assertion. */
void
emitProqPower(QuantumCircuit& frag, const std::vector<CVector>& basis,
              const std::vector<int>& qubits,
              const std::vector<int>& clbits)
{
    const int n = int(qubits.size());
    int m = 0;
    while ((size_t(1) << m) < basis.size()) ++m;
    const int k = n - m;
    QA_REQUIRE(int(clbits.size()) >= k, "not enough clbits for Proq");

    const BasisChange bc = buildBasisChange(basis, n);
    QA_ASSERT(int(bc.flag_qubits.size()) == k,
              "basis change flag count mismatch");
    // Direct mid-circuit projective measurement of the flag qubits,
    // then gates after measurement to restore the basis: exactly the
    // architectural support the paper argues real devices lack.
    frag.compose(bc.uinv, qubits);
    for (int i = 0; i < k; ++i) {
        frag.measure(qubits[bc.flag_qubits[i]], clbits[i]);
    }
    frag.compose(bc.u, qubits);
}

AssertionPlan
planProqAssertion(const CorrectSubspace& subspace)
{
    int m = 0;
    const RankRegime regime = classifyRank(subspace.rank(), subspace.n, &m);
    AssertionPlan plan;
    switch (regime) {
      case RankRegime::kFull:
        QA_FAIL("rank-2^n state sets are unassertable");
      case RankRegime::kPower:
        plan.num_clbits = subspace.n - m;
        break;
      case RankRegime::kBetween:
        plan.num_clbits = 2 * (subspace.n - (m + 1));
        break;
      case RankRegime::kLarge:
        plan.num_ancillas = 1; // embedding qubit only
        plan.num_clbits = 1;
        break;
    }
    return plan;
}

QuantumCircuit
buildProqAssertion(const CorrectSubspace& subspace, const BuildContext& ctx)
{
    QA_REQUIRE(int(ctx.qubits.size()) == subspace.n,
               "qubit list does not match the state size");
    int m = 0;
    const RankRegime regime = classifyRank(subspace.rank(), subspace.n, &m);
    QuantumCircuit frag(ctx.total_qubits, ctx.total_clbits);

    switch (regime) {
      case RankRegime::kFull:
        QA_FAIL("rank-2^n state sets are unassertable");
      case RankRegime::kPower:
        emitProqPower(frag, subspace.basis, ctx.qubits, ctx.clbits);
        break;
      case RankRegime::kBetween: {
        const auto supersets = buildSupersets(subspace, m);
        const size_t k = subspace.n - (m + 1);
        emitProqPower(frag, supersets.first, ctx.qubits,
                      subRange(ctx.clbits, 0, k));
        emitProqPower(frag, supersets.second, ctx.qubits,
                      subRange(ctx.clbits, k, k));
        break;
      }
      case RankRegime::kLarge: {
        const std::vector<CVector> extended = buildExtendedBasis(subspace);
        std::vector<int> ext_qubits{ctx.ancillas[0]};
        ext_qubits.insert(ext_qubits.end(), ctx.qubits.begin(),
                          ctx.qubits.end());
        emitProqPower(frag, extended, ext_qubits, {ctx.clbits[0]});
        break;
      }
    }
    return frag;
}

AssertionPlan
planNddAssertion(const CorrectSubspace& subspace)
{
    const RankRegime regime =
        classifyRank(subspace.rank(), subspace.n, nullptr);
    QA_REQUIRE(regime != RankRegime::kFull,
               "rank-2^n state sets are unassertable");
    AssertionPlan plan;
    plan.num_ancillas = 1;
    plan.num_clbits = 1;
    return plan;
}

QuantumCircuit
buildNddAssertion(const CorrectSubspace& subspace, const BuildContext& ctx)
{
    QA_REQUIRE(int(ctx.qubits.size()) == subspace.n,
               "qubit list does not match the state size");
    const RankRegime regime =
        classifyRank(subspace.rank(), subspace.n, nullptr);
    QA_REQUIRE(regime != RankRegime::kFull,
               "rank-2^n state sets are unassertable");

    // U = 2P - I has eigenvalue +1 on correct states and -1 on incorrect
    // ones; the phase-kickback circuit H . CU . H reads the eigenvalue
    // into the ancilla. A single circuit covers every rank regime.
    const size_t dim = size_t(1) << subspace.n;
    CMatrix u = subspace.projector() * Complex(2.0, 0.0) -
                CMatrix::identity(dim);
    QA_ASSERT(u.isUnitary(1e-7), "2P - I must be unitary");

    QuantumCircuit frag(ctx.total_qubits, ctx.total_clbits);
    const int anc = ctx.ancillas[0];
    frag.h(anc);
    if (tensorFactorize(u).has_value()) {
        // Pauli-tensor structure (parity checks): per-factor controlled
        // gates (the circuits of Fig. 13 / Fig. 14).
        emitControlledUnitary(frag, anc, ctx.qubits, u, ctx.free_qubits);
    } else {
        // General reflection: U = V (2 Pi_t - I) V^dagger with V the
        // basis change, so CU = (I (x) V) . C-D . (I (x) V^dagger) where
        // D = diag(+1 x t, -1 x rest) -- the V layers need no control and
        // the controlled part is a plain diagonal.
        const BasisChange bc = buildBasisChange(subspace.basis, subspace.n);
        std::vector<double> phases(2 * dim, M_PI);
        for (size_t i = 0; i < dim; ++i) phases[i] = 0.0;
        for (uint64_t i : bc.correct_indices) phases[dim + i] = 0.0;
        std::vector<int> diag_qubits{anc};
        diag_qubits.insert(diag_qubits.end(), ctx.qubits.begin(),
                           ctx.qubits.end());
        frag.compose(bc.uinv, ctx.qubits);
        emitDiagonal(frag, phases, diag_qubits);
        frag.compose(bc.u, ctx.qubits);
    }
    frag.h(anc);
    frag.measure(anc, ctx.clbits[0]);
    return frag;
}

} // namespace

AssertionPlan
planAssertion(const CorrectSubspace& subspace, AssertionDesign design,
              SwapPlacement placement)
{
    switch (design) {
      case AssertionDesign::kSwap:
        return planSwapAssertion(subspace, placement);
      case AssertionDesign::kOr:
        return planOrAssertion(subspace);
      case AssertionDesign::kNdd:
        return planNddAssertion(subspace);
      case AssertionDesign::kProq:
        return planProqAssertion(subspace);
      case AssertionDesign::kCustom:
      case AssertionDesign::kAuto:
        break;
    }
    QA_FAIL("planAssertion needs a concrete design");
}

QuantumCircuit
buildAssertion(const CorrectSubspace& subspace, AssertionDesign design,
               const BuildContext& ctx, SwapPlacement placement)
{
    switch (design) {
      case AssertionDesign::kSwap:
        return buildSwapAssertion(subspace, ctx, placement);
      case AssertionDesign::kOr:
        return buildOrAssertion(subspace, ctx);
      case AssertionDesign::kNdd:
        return buildNddAssertion(subspace, ctx);
      case AssertionDesign::kProq:
        return buildProqAssertion(subspace, ctx);
      case AssertionDesign::kCustom:
      case AssertionDesign::kAuto:
        break;
    }
    QA_FAIL("buildAssertion needs a concrete design");
}

BuildContext
slotLayout(const std::vector<int>& qubits, int program_qubits,
           std::vector<int> ancillas, int first_clbit, int num_clbits)
{
    BuildContext ctx;
    ctx.qubits = qubits;
    ctx.total_qubits = program_qubits;
    for (int a : ancillas) {
        ctx.total_qubits = std::max(ctx.total_qubits, a + 1);
    }
    ctx.ancillas = std::move(ancillas);
    ctx.total_clbits = first_clbit + num_clbits;
    for (int c = 0; c < num_clbits; ++c) {
        ctx.clbits.push_back(first_clbit + c);
    }
    for (int q = 0; q < program_qubits; ++q) {
        if (std::find(qubits.begin(), qubits.end(), q) == qubits.end()) {
            ctx.free_qubits.push_back(q);
        }
    }
    return ctx;
}

CostedAssertion
costAssertion(const CorrectSubspace& subspace, AssertionDesign design,
              SwapPlacement placement, const std::vector<int>& qubits,
              int program_qubits)
{
    const AssertionPlan plan = planAssertion(subspace, design, placement);
    std::vector<int> ancillas;
    for (int a = 0; a < plan.num_ancillas; ++a) {
        ancillas.push_back(program_qubits + a);
    }
    const BuildContext ctx = slotLayout(qubits, program_qubits,
                                        std::move(ancillas), 0,
                                        plan.num_clbits);
    QuantumCircuit fragment =
        buildAssertion(subspace, design, ctx, placement);
    CircuitCost cost = circuitCost(fragment);
    cost.ancilla = plan.num_ancillas;
    return {plan, std::move(fragment), cost};
}

} // namespace qa
