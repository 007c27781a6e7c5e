#include "acomp/compiler.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <sstream>

#include "backend/analyzer.hpp"
#include "backend/router.hpp"
#include "common/error.hpp"
#include "synth/pauli_gadget.hpp"
#include "transpile/peephole.hpp"

namespace qa
{
namespace acomp
{

namespace
{

/** Diagnostic anchor for one site: slot index, position, source. */
std::string
siteWhere(const AssertionSite& site, size_t index)
{
    std::ostringstream oss;
    oss << "slot " << index << " (insert before instruction "
        << site.position;
    if (site.source_line > 0) {
        oss << ", source " << site.source_line << ":" << site.source_col;
    }
    oss << ")";
    return oss.str();
}

AssertionDesign
designFor(LoweringForm form)
{
    switch (form) {
      case LoweringForm::kSwap: return AssertionDesign::kSwap;
      case LoweringForm::kOr:   return AssertionDesign::kOr;
      case LoweringForm::kNdd:  return AssertionDesign::kNdd;
      default:                  break;
    }
    QA_FAIL("not a unitary lowering form");
}

/** One costed executable form a slot could take. */
struct Candidate
{
    LoweringForm form = LoweringForm::kPauliMeasure;
    double score = 0.0;
    int gates = 0;
    int cx = 0;
    int ancillas = 0;
    AssertionPlan plan;
};

/** A slot's resolved lowering plus the data emission needs. */
struct ResolvedSlot
{
    const AssertionSite* site = nullptr;
    size_t index = 0;
    LoweringForm form = LoweringForm::kPauliMeasure;
    std::vector<PauliString> gens;           // Pauli forms.
    std::optional<CorrectSubspace> subspace; // Unitary forms.
    AssertionPlan plan;                      // Unitary forms.
    int clbit_base = 0;
    int num_clbits = 0;
};

/** Backend kind candidate fragments are weighed under. */
BackendKind
weighKind(BackendRequest request, bool clifford)
{
    switch (request) {
      case BackendRequest::kStatevector:
        return BackendKind::kStatevector;
      case BackendRequest::kDensityMatrix:
        return BackendKind::kDensityMatrix;
      case BackendRequest::kStabilizer:
        return BackendKind::kStabilizer;
      case BackendRequest::kMps:
        return BackendKind::kMps;
      case BackendRequest::kAuto:
        break;
    }
    return clifford ? BackendKind::kStabilizer
                    : BackendKind::kStatevector;
}

/** Cost the Pauli-measure form by building the gadgets on scratch. */
Candidate
costPauli(const AssertionSite& site,
          const std::vector<PauliString>& gens, int raw_qubits,
          bool raw_clifford, BackendRequest request)
{
    Candidate cand;
    cand.form = LoweringForm::kPauliMeasure;
    QuantumCircuit scratch(raw_qubits, int(gens.size()));
    for (size_t j = 0; j < gens.size(); ++j) {
        const PauliGadgetCost cost = appendPauliMeasureGadget(
            scratch, gens[j], site.qubits, int(j));
        cand.gates += cost.gates;
        cand.cx += cost.cx;
    }
    const BackendKind kind = weighKind(request, raw_clifford);
    cand.score = double(cand.gates) *
                 backend::assertionGateWeight(kind, raw_qubits);
    return cand;
}

/** Cost a unitary design on a standalone layout (nullopt: incapable). */
std::optional<Candidate>
costUnitary(const AssertionSite& site, const CorrectSubspace& subspace,
            LoweringForm form, SwapPlacement placement, int raw_qubits,
            bool raw_clifford, BackendRequest request)
{
    Candidate cand;
    cand.form = form;
    try {
        const CostedAssertion costed =
            costAssertion(subspace, designFor(form), placement,
                          site.qubits, raw_qubits);
        cand.plan = costed.plan;
        cand.gates = costed.cost.cx + costed.cost.sg + costed.cost.measure;
        cand.cx = costed.cost.cx;
        cand.ancillas = cand.plan.num_ancillas;
        const bool clifford =
            raw_clifford &&
            backend::analyzeCircuit(costed.fragment).non_clifford_gates ==
                0;
        const BackendKind kind = weighKind(request, clifford);
        if (kind == BackendKind::kMps) {
            // The MPS chain lowers arity-3 gadget gates but nothing
            // wider; a form that needs them cannot serve this backend.
            for (const Instruction& instr :
                 costed.fragment.instructions()) {
                if (instr.isGate() && instr.arity() > 3) {
                    return std::nullopt;
                }
            }
        }
        cand.score =
            double(cand.gates) *
                backend::assertionGateWeight(
                    kind, raw_qubits + cand.plan.num_ancillas) +
            double(cand.ancillas);
    } catch (const UserError&) {
        return std::nullopt; // Design cannot serve this subspace.
    }
    return cand;
}

/** CX count over an instruction range. */
int
countCxRange(const QuantumCircuit& circuit, size_t from, size_t to)
{
    int cx = 0;
    for (size_t i = from; i < to; ++i) {
        if (circuit.instructions()[i].name == "cx") ++cx;
    }
    return cx;
}

void
validateSite(const AssertionSite& site, size_t index,
             const QuantumCircuit& raw)
{
    const std::string where = siteWhere(site, index);
    QA_REQUIRE(site.position <= raw.size(),
               where + ": position past the end of the circuit");
    QA_REQUIRE(!site.qubits.empty(), where + ": no qubits under test");
    QA_REQUIRE(std::is_sorted(site.qubits.begin(), site.qubits.end()) &&
                   std::adjacent_find(site.qubits.begin(),
                                      site.qubits.end()) ==
                       site.qubits.end(),
               where + ": qubits must be ascending and unique");
    QA_REQUIRE(site.qubits.front() >= 0 &&
                   site.qubits.back() < raw.numQubits(),
               where + ": qubit index out of range");
    QA_REQUIRE(site.set != nullptr || !site.generators.empty(),
               where + ": site needs a StateSet or generators");
    if (site.set != nullptr) {
        QA_REQUIRE(site.set->numQubits() == int(site.qubits.size()),
                   where + ": StateSet width must match the qubit list");
    }
    for (const PauliString& g : site.generators) {
        QA_REQUIRE(g.numQubits() == int(site.qubits.size()),
                   where + ": generator width must match the qubit list");
        QA_REQUIRE(g.phase() == 0 || g.phase() == 2,
                   where + ": generators must be Hermitian (+/-P)");
        QA_REQUIRE(!g.isIdentity(), where + ": identity generator");
    }
}

/** Resolve one site's executable form under the requested knobs. */
ResolvedSlot
resolveSite(const AssertionSite& site, size_t index,
            const QuantumCircuit& raw, bool raw_clifford,
            const AcompOptions& opts)
{
    const std::string where = siteWhere(site, index);
    ResolvedSlot slot;
    slot.site = &site;
    slot.index = index;

    // Available invariant descriptions.
    slot.gens = site.generators;
    if (site.set != nullptr) {
        slot.subspace = analyzeStateSet(*site.set);
        if (slot.gens.empty()) {
            const std::optional<std::vector<PauliString>> derived =
                stabilizerGenerators(*slot.subspace);
            if (derived.has_value()) slot.gens = *derived;
        }
    }
    const bool pauli_ok = !slot.gens.empty();
    const bool unitary_ok = slot.subspace.has_value();

    const auto resolvePauli = [&](LoweringForm form) {
        QA_REQUIRE_CODE(
            pauli_ok, ErrorCode::kUnsupportedAssertion,
            where + ": " + std::string(formName(form)) +
                " lowering needs a stabilizer subspace, but the "
                "projector has no Pauli generator set (request a "
                "unitary form, or auto)");
        slot.form = form;
        slot.num_clbits =
            form == LoweringForm::kPauliSample ? 1 : int(slot.gens.size());
    };
    const auto resolveUnitary = [&](LoweringForm form) {
        QA_REQUIRE_CODE(
            unitary_ok, ErrorCode::kUnsupportedAssertion,
            where + ": " + std::string(formName(form)) +
                " lowering needs a dense StateSet target, but this "
                "slot is described only by stabilizer generators "
                "(request pauli, pauli_sample, or auto)");
        const std::optional<Candidate> cand = costUnitary(
            site, *slot.subspace, form, opts.placement, raw.numQubits(),
            raw_clifford, opts.backend);
        QA_REQUIRE_CODE(cand.has_value(),
                        ErrorCode::kUnsupportedAssertion,
                        where + ": the " +
                            std::string(formName(form)) +
                            " design cannot serve this projector");
        slot.form = form;
        slot.plan = cand->plan;
        slot.num_clbits = cand->plan.num_clbits;
    };

    switch (opts.lowering) {
      case LoweringRequest::kPauliMeasure:
        resolvePauli(LoweringForm::kPauliMeasure);
        return slot;
      case LoweringRequest::kPauliSample:
        resolvePauli(LoweringForm::kPauliSample);
        return slot;
      case LoweringRequest::kSwap:
        resolveUnitary(LoweringForm::kSwap);
        return slot;
      case LoweringRequest::kOr:
        resolveUnitary(LoweringForm::kOr);
        return slot;
      case LoweringRequest::kNdd:
        resolveUnitary(LoweringForm::kNdd);
        return slot;
      case LoweringRequest::kAuto:
        break;
    }

    // kAuto: weigh every capable form and keep the cheapest.
    std::vector<Candidate> candidates;
    if (pauli_ok) {
        candidates.push_back(costPauli(site, slot.gens, raw.numQubits(),
                                       raw_clifford, opts.backend));
    }
    if (unitary_ok) {
        for (const LoweringForm form :
             {LoweringForm::kSwap, LoweringForm::kOr,
              LoweringForm::kNdd}) {
            const std::optional<Candidate> cand = costUnitary(
                site, *slot.subspace, form, opts.placement,
                raw.numQubits(), raw_clifford, opts.backend);
            if (cand.has_value()) candidates.push_back(*cand);
        }
    }
    QA_REQUIRE_CODE(
        !candidates.empty(), ErrorCode::kUnsupportedAssertion,
        where + ": no executable lowering exists for this projector "
                "(not a stabilizer subspace and no unitary design can "
                "serve it — a full-rank projector asserts nothing)");
    const Candidate* best = &candidates[0];
    for (const Candidate& cand : candidates) {
        const bool better =
            cand.score < best->score ||
            (cand.score == best->score &&
             cand.ancillas < best->ancillas);
        if (better) best = &cand;
    }
    slot.form = best->form;
    slot.plan = best->plan;
    slot.num_clbits = best->form == LoweringForm::kPauliMeasure
                          ? int(slot.gens.size())
                          : best->plan.num_clbits;
    return slot;
}

/** Emit one slot's fragment into a variant; fills the summary at v=0. */
void
emitSlot(QuantumCircuit& variant, const ResolvedSlot& slot, size_t v,
         int raw_qubits, SwapPlacement placement, SlotSummary* summary)
{
    const AssertionSite& site = *slot.site;
    variant.barrier();
    const size_t start = variant.size();

    switch (slot.form) {
      case LoweringForm::kPauliMeasure:
        for (size_t j = 0; j < slot.gens.size(); ++j) {
            appendPauliMeasureGadget(variant, slot.gens[j], site.qubits,
                                     slot.clbit_base + int(j));
        }
        break;
      case LoweringForm::kPauliSample: {
        const size_t j = v % slot.gens.size();
        appendPauliMeasureGadget(variant, slot.gens[j], site.qubits,
                                 slot.clbit_base);
        break;
      }
      case LoweringForm::kSwap:
      case LoweringForm::kOr:
      case LoweringForm::kNdd: {
        std::vector<int> ancillas;
        for (int a = 0; a < slot.plan.num_ancillas; ++a) {
            ancillas.push_back(raw_qubits + a);
        }
        const BuildContext ctx =
            slotLayout(site.qubits, raw_qubits, std::move(ancillas),
                       slot.clbit_base, slot.plan.num_clbits);
        const QuantumCircuit frag = buildAssertion(
            *slot.subspace, designFor(slot.form), ctx, placement);
        std::vector<int> qmap, cmap;
        for (int q = 0; q < frag.numQubits(); ++q) qmap.push_back(q);
        for (int c = 0; c < frag.numClbits(); ++c) cmap.push_back(c);
        variant.compose(frag, qmap, cmap);
        // Reset before the next slot reuses the pool (measured
        // ancillas hold classical junk).
        for (int a : ctx.ancillas) variant.reset(a);
        break;
      }
    }

    if (summary != nullptr) {
        summary->form = slot.form;
        summary->invariant = site.invariant;
        summary->position = site.position;
        summary->qubits = site.qubits;
        for (int c = 0; c < slot.num_clbits; ++c) {
            summary->clbits.push_back(slot.clbit_base + c);
        }
        for (int a = 0; a < slot.plan.num_ancillas; ++a) {
            summary->ancillas.push_back(raw_qubits + a);
        }
        summary->gates = int(variant.size() - start);
        summary->cx = countCxRange(variant, start, variant.size());
        summary->generators = int(slot.gens.size());
        summary->source_line = site.source_line;
        summary->source_col = site.source_col;
    }
    variant.barrier();
}

} // namespace

CompiledProgram
compileAssertions(const QuantumCircuit& raw,
                  const std::vector<AssertionSite>& sites,
                  const AcompOptions& opts)
{
    QA_REQUIRE(!sites.empty(), "compileAssertions needs >= 1 site");
    QA_REQUIRE(opts.max_sample_variants >= 1,
               "max_sample_variants must be >= 1");
    for (size_t i = 0; i < sites.size(); ++i) {
        validateSite(sites[i], i, raw);
    }

    const bool raw_clifford =
        backend::analyzeCircuit(raw).non_clifford_gates == 0;

    // Resolve every slot, then lay out clbits / ancillas / variants.
    std::vector<const AssertionSite*> ordered;
    for (const AssertionSite& site : sites) ordered.push_back(&site);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const AssertionSite* a, const AssertionSite* b) {
                         return a->position < b->position;
                     });

    std::vector<ResolvedSlot> slots;
    int clbit_base = raw.numClbits();
    int ancilla_pool = 0;
    size_t num_variants = 1;
    size_t max_gens = 1;
    for (const AssertionSite* site : ordered) {
        ResolvedSlot slot = resolveSite(
            *site, size_t(site - sites.data()), raw, raw_clifford, opts);
        slot.clbit_base = clbit_base;
        clbit_base += slot.num_clbits;
        ancilla_pool =
            std::max(ancilla_pool, slot.plan.num_ancillas);
        if (slot.form == LoweringForm::kPauliSample) {
            num_variants = std::lcm(num_variants, slot.gens.size());
            max_gens = std::max(max_gens, slot.gens.size());
        }
        slots.push_back(std::move(slot));
    }
    if (num_variants > size_t(opts.max_sample_variants)) {
        // lcm blew the cap: the largest generator count still covers
        // every generator of every sampled slot (round-robin, uneven).
        num_variants = max_gens;
    }

    CompiledProgram compiled;
    compiled.raw_qubits = raw.numQubits();
    compiled.raw_clbits = raw.numClbits();
    for (int c = 0; c < raw.numClbits(); ++c) {
        compiled.program_clbits.push_back(c);
    }

    const int total_qubits = raw.numQubits() + ancilla_pool;
    for (size_t v = 0; v < num_variants; ++v) {
        QuantumCircuit variant(total_qubits, clbit_base);
        size_t cursor = 0;
        std::vector<SlotSummary> summaries(slots.size());
        for (size_t i = 0; i <= raw.size(); ++i) {
            while (cursor < slots.size() &&
                   slots[cursor].site->position == i) {
                emitSlot(variant, slots[cursor], v, raw.numQubits(),
                         opts.placement,
                         v == 0 ? &summaries[cursor] : nullptr);
                ++cursor;
            }
            if (i < raw.size()) {
                variant.append(raw.instructions()[i]);
            }
        }
        if (v == 0) compiled.slots = std::move(summaries);
        compiled.variants.push_back(std::move(variant));
    }
    for (SlotSummary& summary : compiled.slots) {
        summary.sub_circuits =
            summary.form == LoweringForm::kPauliSample
                ? int(num_variants)
                : 1;
    }

    compiled.repair_supported = num_variants == 1;
    for (const SlotSummary& summary : compiled.slots) {
        compiled.repair_supported &=
            summary.form == LoweringForm::kSwap;
    }
    return compiled;
}

CompiledProgram
autoAssert(const QuantumCircuit& raw, const AcompOptions& opts,
           const std::vector<QasmPos>* positions)
{
    const std::vector<AssertionSite> sites =
        generateAssertions(raw, opts.generator, positions);
    CompiledProgram compiled;
    if (sites.empty()) {
        compiled.variants.push_back(raw);
        compiled.raw_qubits = raw.numQubits();
        compiled.raw_clbits = raw.numClbits();
        for (int c = 0; c < raw.numClbits(); ++c) {
            compiled.program_clbits.push_back(c);
        }
        compiled.repair_supported = true; // No slots ever flag.
    } else {
        compiled = compileAssertions(raw, sites, opts);
    }
    compiled.generated = true;
    return compiled;
}

std::string
formatLoweringTable(const CompiledProgram& compiled)
{
    std::ostringstream out;
    out << "assertion lowering: " << compiled.slots.size()
        << (compiled.slots.size() == 1 ? " slot" : " slots") << ", "
        << compiled.variants.size()
        << (compiled.variants.size() == 1 ? " variant" : " variants")
        << (compiled.generated ? " (auto-generated)" : "") << "\n";
    for (size_t i = 0; i < compiled.slots.size(); ++i) {
        const SlotSummary& s = compiled.slots[i];
        out << "  slot " << i << ": form=" << formName(s.form)
            << " invariant=" << invariantClassName(s.invariant)
            << " position=" << s.position;
        if (s.source_line > 0) {
            out << " source=" << s.source_line << ":" << s.source_col;
        }
        out << " qubits=[";
        for (size_t j = 0; j < s.qubits.size(); ++j) {
            out << (j > 0 ? " " : "") << s.qubits[j];
        }
        out << "] clbits=[";
        for (size_t j = 0; j < s.clbits.size(); ++j) {
            out << (j > 0 ? " " : "") << s.clbits[j];
        }
        out << "] ancillas=" << s.ancillas.size()
            << " gates=" << s.gates << " cx=" << s.cx
            << " generators=" << s.generators
            << " sub_circuits=" << s.sub_circuits << "\n";
    }
    return out.str();
}

} // namespace acomp
} // namespace qa
