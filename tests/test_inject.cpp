/**
 * @file
 * Tests for the fault-injection subsystem: fault transform semantics,
 * fault-site validation, campaign determinism across thread counts,
 * analytic detection rates on GHZ/Bell, and debugger localization
 * campaigns.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "algos/states.hpp"
#include "common/error.hpp"
#include "inject/campaign.hpp"
#include "inject/fault.hpp"
#include "sim/statevector.hpp"

namespace qa
{
namespace
{

using namespace algos;

ErrorCode
injectErrorCode(const QuantumCircuit& qc, const FaultSpec& fault)
{
    try {
        injectFault(qc, fault);
    } catch (const UserError& e) {
        return e.code();
    }
    return ErrorCode::kGeneric;
}

TEST(FaultTest, PauliInsertionAfterAddressedGate)
{
    const QuantumCircuit ghz = ghzPrep(3);
    FaultSpec fault;
    fault.kind = FaultKind::kPauliX;
    fault.instr_index = 1; // first cx
    fault.qubit = 1;
    const QuantumCircuit faulted = injectFault(ghz, fault);
    ASSERT_EQ(faulted.size(), ghz.size() + 1);
    EXPECT_EQ(faulted.instructions()[1].name, "cx");
    EXPECT_EQ(faulted.instructions()[2].name, "x");
    EXPECT_EQ(faulted.instructions()[2].qubits[0], 1);
    EXPECT_EQ(fault.describe(), "X@1/q1");
}

TEST(FaultTest, GateDropAndDuplicate)
{
    const QuantumCircuit ghz = ghzPrep(3);
    FaultSpec drop;
    drop.kind = FaultKind::kGateDrop;
    drop.instr_index = 2;
    const QuantumCircuit dropped = injectFault(ghz, drop);
    EXPECT_EQ(dropped.size(), ghz.size() - 1);
    EXPECT_EQ(drop.describe(), "drop@2");

    FaultSpec dup;
    dup.kind = FaultKind::kGateDuplicate;
    dup.instr_index = 2;
    const QuantumCircuit duped = injectFault(ghz, dup);
    ASSERT_EQ(duped.size(), ghz.size() + 1);
    EXPECT_EQ(duped.instructions()[2].name,
              duped.instructions()[3].name);
    EXPECT_EQ(duped.instructions()[2].qubits,
              duped.instructions()[3].qubits);
    // cx twice = identity: dropping and duplicating a cx agree.
    EXPECT_TRUE(finalState(duped).amplitudes().equalsUpToPhase(
        finalState(dropped).amplitudes(), 1e-10));
}

TEST(FaultTest, BitFlipAtPiMatchesPauliX)
{
    const QuantumCircuit ghz = ghzPrep(3);
    FaultSpec x;
    x.kind = FaultKind::kPauliX;
    x.instr_index = 2;
    x.qubit = 2;
    FaultSpec flip;
    flip.kind = FaultKind::kBitFlip;
    flip.instr_index = 2;
    flip.qubit = 2;
    flip.angle = M_PI;
    EXPECT_TRUE(finalState(injectFault(ghz, x))
                    .amplitudes()
                    .equalsUpToPhase(
                        finalState(injectFault(ghz, flip)).amplitudes(),
                        1e-10));
}

TEST(FaultTest, InvalidSitesRaiseTypedErrors)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.measure(0, 0);

    FaultSpec past;
    past.kind = FaultKind::kGateDrop;
    past.instr_index = 99;
    EXPECT_EQ(injectErrorCode(qc, past), ErrorCode::kBadFaultSite);

    FaultSpec on_measure;
    on_measure.kind = FaultKind::kGateDrop;
    on_measure.instr_index = 1;
    EXPECT_EQ(injectErrorCode(qc, on_measure), ErrorCode::kBadFaultSite);

    FaultSpec bad_qubit;
    bad_qubit.kind = FaultKind::kPauliX;
    bad_qubit.instr_index = 0;
    bad_qubit.qubit = 7;
    EXPECT_EQ(injectErrorCode(qc, bad_qubit),
              ErrorCode::kUnsupportedFault);

    FaultSpec no_qubit;
    no_qubit.kind = FaultKind::kPauliZ;
    no_qubit.instr_index = 0;
    EXPECT_EQ(injectErrorCode(qc, no_qubit),
              ErrorCode::kUnsupportedFault);
}

TEST(FaultTest, EnumerationCoversGatesTimesKindsTimesQubits)
{
    // GHZ(3) = one 1q gate + two cx: X/Y/Z give 3 * (1 + 2 + 2) = 15
    // qubit-targeted faults; drop gives one per gate.
    const QuantumCircuit ghz = ghzPrep(3);
    const auto pauli = enumerateFaultSites(
        ghz,
        {FaultKind::kPauliX, FaultKind::kPauliY, FaultKind::kPauliZ});
    EXPECT_EQ(pauli.size(), 15u);
    const auto drops = enumerateFaultSites(ghz, {FaultKind::kGateDrop});
    EXPECT_EQ(drops.size(), 3u);

    // Measurements are not fault sites.
    QuantumCircuit qc(1, 1);
    qc.h(0);
    qc.measure(0, 0);
    EXPECT_EQ(enumerateFaultSites(qc, {FaultKind::kPauliX}).size(), 1u);
}

TEST(FaultTest, StageEnumerationTagsStages)
{
    std::vector<QuantumCircuit> stages;
    QuantumCircuit s0(2), s1(2);
    s0.h(0);
    s1.cx(0, 1);
    stages.push_back(s0);
    stages.push_back(s1);
    const auto faults =
        enumerateStageFaultSites(stages, {FaultKind::kPauliX});
    ASSERT_EQ(faults.size(), 3u);
    EXPECT_EQ(faults[0].stage, 0);
    EXPECT_EQ(faults[1].stage, 1);
    EXPECT_EQ(faults[2].stage, 1);
    EXPECT_EQ(faults[1].describe(), "X@0/q0[stage 1]");
}

/** Field-by-field exact equality of two campaign reports. */
void
expectReportsIdentical(const CampaignReport& a, const CampaignReport& b)
{
    EXPECT_EQ(a.baseline_slot_error, b.baseline_slot_error);
    EXPECT_EQ(a.num_faults, b.num_faults);
    EXPECT_EQ(a.num_detected, b.num_detected);
    EXPECT_EQ(a.num_corrupting, b.num_corrupting);
    EXPECT_EQ(a.num_silent_corrupting, b.num_silent_corrupting);
    EXPECT_EQ(a.slot_detections, b.slot_detections);
    EXPECT_EQ(a.slot_coverage, b.slot_coverage);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].slot_error, b.records[i].slot_error) << i;
        EXPECT_EQ(a.records[i].detecting_slot,
                  b.records[i].detecting_slot)
            << i;
        EXPECT_EQ(a.records[i].detected, b.records[i].detected) << i;
        EXPECT_EQ(a.records[i].output_corrupted,
                  b.records[i].output_corrupted)
            << i;
    }
}

TEST(CampaignTest, SeededSweepIsThreadCountInvariant)
{
    const CampaignRunner runner = CampaignRunner::assertingFinalState(
        ghzPrep(3), AssertionDesign::kSwap);
    CampaignOptions options;
    options.shots = 256;
    options.seed = 777;
    options.kinds = {FaultKind::kPauliX, FaultKind::kPauliZ,
                     FaultKind::kGateDrop};

    options.num_threads = 1;
    const CampaignReport serial = runner.run(options);
    options.num_threads = 4;
    const CampaignReport four = runner.run(options);
    options.num_threads = 0; // hardware concurrency
    const CampaignReport hardware = runner.run(options);

    expectReportsIdentical(serial, four);
    expectReportsIdentical(serial, hardware);

    // And re-running with the same seed reproduces the report exactly.
    const CampaignReport again = runner.run(options);
    expectReportsIdentical(hardware, again);
}

TEST(CampaignTest, GhzSinglePauliAnalyticDetectionRates)
{
    // Exact backend: every single Pauli fault on GHZ(3) yields a state
    // orthogonal to GHZ (slot error prob 1), except X right after the
    // initial Hadamard-equivalent on q0, which fixes |+> and is benign.
    const CampaignRunner runner = CampaignRunner::assertingFinalState(
        ghzPrep(3), AssertionDesign::kSwap);
    CampaignOptions options;
    options.shots = 0; // exact
    const CampaignReport report = runner.run(options);

    ASSERT_EQ(report.num_faults, 15);
    EXPECT_EQ(report.num_detected, 14);
    EXPECT_NEAR(report.coverage(), 14.0 / 15.0, 1e-12);
    ASSERT_EQ(report.baseline_slot_error.size(), 1u);
    EXPECT_NEAR(report.baseline_slot_error[0], 0.0, 1e-9);

    for (const FaultRecord& record : report.records) {
        const bool benign = record.fault.kind == FaultKind::kPauliX &&
                            record.fault.instr_index == 0;
        if (benign) {
            EXPECT_FALSE(record.detected) << record.fault.describe();
            EXPECT_NEAR(record.slot_error[0], 0.0, 1e-9);
            EXPECT_FALSE(record.output_corrupted);
        } else {
            EXPECT_TRUE(record.detected) << record.fault.describe();
            EXPECT_EQ(record.detecting_slot, 0);
            EXPECT_NEAR(record.slot_error[0], 1.0, 1e-9)
                << record.fault.describe();
        }
    }
    // A phase flip is invisible in the computational-basis output but
    // the assertion still catches it: coverage beats output comparison.
    int z_detected_not_corrupting = 0;
    for (const FaultRecord& record : report.records) {
        if (record.fault.kind == FaultKind::kPauliZ && record.detected &&
            !record.output_corrupted) {
            ++z_detected_not_corrupting;
        }
    }
    EXPECT_EQ(z_detected_not_corrupting, 5);
    EXPECT_EQ(report.num_silent_corrupting, 0);
}

TEST(CampaignTest, BellAnalyticDetectionRates)
{
    const CampaignRunner runner = CampaignRunner::assertingFinalState(
        bellPrep(BellKind::kPhiPlus), AssertionDesign::kSwap);
    CampaignOptions options;
    options.shots = 0;
    options.kinds = {FaultKind::kPauliX, FaultKind::kPauliZ};
    const CampaignReport report = runner.run(options);

    // h q0; cx q0,q1 -> X/Z on each touched qubit: 6 faults. X after h
    // on q0 is benign (|+> invariant); the other five flip the Bell
    // state to an orthogonal one.
    ASSERT_EQ(report.num_faults, 6);
    EXPECT_EQ(report.num_detected, 5);
    for (const FaultRecord& record : report.records) {
        const bool benign = record.fault.kind == FaultKind::kPauliX &&
                            record.fault.instr_index == 0;
        EXPECT_EQ(record.detected, !benign) << record.fault.describe();
        EXPECT_NEAR(record.slot_error[0], benign ? 0.0 : 1.0, 1e-9)
            << record.fault.describe();
    }
}

TEST(CampaignTest, SampledSweepMatchesAnalyticRates)
{
    // With enough shots the sampled campaign agrees with the exact one.
    const CampaignRunner runner = CampaignRunner::assertingFinalState(
        ghzPrep(3), AssertionDesign::kSwap);
    CampaignOptions options;
    options.shots = 512;
    options.seed = 2024;
    const CampaignReport report = runner.run(options);
    ASSERT_EQ(report.num_faults, 15);
    EXPECT_EQ(report.num_detected, 14);
    for (const FaultRecord& record : report.records) {
        const bool benign = record.fault.kind == FaultKind::kPauliX &&
                            record.fault.instr_index == 0;
        // Orthogonal states flag every shot; benign faults flag none.
        EXPECT_NEAR(record.slot_error[0], benign ? 0.0 : 1.0, 1e-12)
            << record.fault.describe();
    }
}

TEST(CampaignTest, ExactCorruptionHonoursNoise)
{
    // Readout error of 1/2 on both bits makes every measured bit a
    // fair coin, so no fault can change the bare program's output. The
    // exact bare run must see the noise model the asserted run sees,
    // and agree with the sampled campaign.
    const CampaignRunner runner = CampaignRunner::assertingFinalState(
        ghzPrep(3), AssertionDesign::kSwap);
    NoiseModel noise;
    noise.readout_p01 = 0.5;
    noise.readout_p10 = 0.5;
    CampaignOptions options;
    options.kinds = {FaultKind::kPauliX};
    options.noise = &noise;
    for (const int shots : {0, 8192}) {
        options.shots = shots;
        const CampaignReport report = runner.run(options);
        ASSERT_EQ(report.num_faults, 5) << "shots=" << shots;
        EXPECT_EQ(report.num_corrupting, 0) << "shots=" << shots;
    }
}

TEST(CampaignTest, SummaryRendersKindAndSlotTables)
{
    const CampaignRunner runner = CampaignRunner::assertingFinalState(
        bellPrep(BellKind::kPhiPlus), AssertionDesign::kSwap);
    CampaignOptions options;
    options.shots = 0;
    const CampaignReport report = runner.run(options);
    const std::string summary = report.summary();
    EXPECT_NE(summary.find("Fault kind"), std::string::npos);
    EXPECT_NE(summary.find("total"), std::string::npos);
    EXPECT_NE(summary.find("Slot"), std::string::npos);
}

TEST(CampaignTest, AsserterMustInsertSlots)
{
    CampaignRunner runner(ghzPrep(2), [](const QuantumCircuit& c) {
        return AssertedProgram(c); // no slots
    });
    EXPECT_THROW(runner.run(CampaignOptions{}), UserError);
}

TEST(LocalizationTest, StagedGhzFaultsLocalizeToTheirStage)
{
    // GHZ(3) as three stages; every detected X fault must be blamed on
    // the stage it was injected into.
    std::vector<QuantumCircuit> stages;
    QuantumCircuit s0(3), s1(3), s2(3);
    s0.h(0);
    s1.cx(0, 1);
    s2.cx(1, 2);
    stages.push_back(s0);
    stages.push_back(s1);
    stages.push_back(s2);

    const LocalizationReport report = checkLocalization(
        stages, {FaultKind::kPauliX}, AssertionDesign::kSwap,
        /*bisect=*/false);
    EXPECT_EQ(report.num_faults, 5);
    // X after h on q0 fixes |+> and stays invisible; the other four
    // faults corrupt the post-stage state and localize exactly.
    EXPECT_EQ(report.num_detected, 4);
    EXPECT_EQ(report.num_localized, 4);
    EXPECT_NEAR(report.localizationRate(), 1.0, 1e-12);
    EXPECT_GT(report.evaluations, 0);

    // Bisection reaches the same verdicts with fewer evaluations.
    const LocalizationReport bisect = checkLocalization(
        stages, {FaultKind::kPauliX}, AssertionDesign::kSwap,
        /*bisect=*/true);
    EXPECT_EQ(bisect.num_detected, report.num_detected);
    EXPECT_EQ(bisect.num_localized, report.num_localized);
    EXPECT_LE(bisect.evaluations, report.evaluations);
}

} // namespace
} // namespace qa
