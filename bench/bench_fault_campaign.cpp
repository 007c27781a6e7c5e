/**
 * @file
 * Fault-injection campaign reproduction: systematic (location x kind)
 * sweeps over the paper's benchmark circuits, reporting how much of the
 * fault space each assertion design detects — the campaign-driven
 * version of Sec. IX's per-bug error-injection evaluation — plus a
 * localization campaign driving the SlotDebugger over every staged GHZ
 * fault.
 */
#include <iostream>

#include "algos/adder.hpp"
#include "algos/deutsch_jozsa.hpp"
#include "algos/states.hpp"
#include "bench_util.hpp"
#include "common/format.hpp"
#include "inject/campaign.hpp"

namespace
{

using namespace qa;
using namespace qa::algos;

const std::vector<FaultKind> kAllKinds = {
    FaultKind::kPauliX,  FaultKind::kPauliY,    FaultKind::kPauliZ,
    FaultKind::kBitFlip, FaultKind::kPhaseFlip, FaultKind::kGateDrop,
    FaultKind::kGateDuplicate};

struct NamedProgram
{
    const char* name;
    QuantumCircuit circuit;
};

std::vector<NamedProgram>
benchmarkPrograms()
{
    std::vector<NamedProgram> programs;
    programs.push_back({"GHZ-4", ghzPrep(4)});
    programs.push_back(
        {"DJ-3", djFunctionEval(3, DjOracle::kBalancedMask, 0b101)});
    programs.push_back({"adder-3",
                        adderProgram(3, /*initial=*/4, /*a=*/3,
                                     /*num_controls=*/1,
                                     /*controls_on=*/true)});
    return programs;
}

void
printCampaignTables()
{
    bench::banner("Fault-injection campaigns: detection coverage per "
                  "assertion design (exact backend)");
    TextTable table({"Program", "Design", "Faults", "Detected",
                     "Coverage", "Silent corrupting"});
    for (const NamedProgram& program : benchmarkPrograms()) {
        for (AssertionDesign design :
             {AssertionDesign::kSwap, AssertionDesign::kOr,
              AssertionDesign::kNdd}) {
            const CampaignRunner runner =
                CampaignRunner::assertingFinalState(program.circuit,
                                                    design);
            CampaignOptions options;
            options.shots = 0; // exact
            options.kinds = kAllKinds;
            const CampaignReport report = runner.run(options);
            table.addRow({program.name, designName(design),
                          std::to_string(report.num_faults),
                          std::to_string(report.num_detected),
                          formatPercent(report.coverage()),
                          std::to_string(report.num_silent_corrupting)});
        }
    }
    std::cout << table.render();

    bench::banner("GHZ-4 SWAP campaign detail (per kind / per slot)");
    const CampaignRunner runner = CampaignRunner::assertingFinalState(
        ghzPrep(4), AssertionDesign::kSwap);
    CampaignOptions options;
    options.kinds = kAllKinds;
    const CampaignReport detail = runner.run(options);
    std::cout << detail.summary();
}

void
printLocalizationTable()
{
    bench::banner("Localization campaign: staged GHZ-4, every single-"
                  "Pauli fault vs SlotDebugger");
    std::vector<QuantumCircuit> stages;
    QuantumCircuit s0(4);
    s0.h(0);
    stages.push_back(s0);
    for (int q = 0; q + 1 < 4; ++q) {
        QuantumCircuit stage(4);
        stage.cx(q, q + 1);
        stages.push_back(stage);
    }
    TextTable table({"Mode", "Faults", "Detected", "Localized",
                     "Localization rate", "Slot evals"});
    for (bool bisect : {false, true}) {
        const LocalizationReport report = checkLocalization(
            stages,
            {FaultKind::kPauliX, FaultKind::kPauliY, FaultKind::kPauliZ},
            AssertionDesign::kSwap, bisect);
        table.addRow({bisect ? "bisect" : "linear",
                      std::to_string(report.num_faults),
                      std::to_string(report.num_detected),
                      std::to_string(report.num_localized),
                      formatPercent(report.localizationRate()),
                      std::to_string(report.evaluations)});
    }
    std::cout << table.render();
}

} // namespace

int
main()
{
    printCampaignTables();
    printLocalizationTable();
    return 0;
}
