/**
 * @file
 * Tests for the common substrate: error macros, deterministic RNG, and
 * the formatting/table utilities the benches rely on.
 */
#include <atomic>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "linalg/types.hpp"

namespace qa
{
namespace
{

TEST(ErrorTest, MacrosThrowTypedExceptions)
{
    EXPECT_THROW(QA_REQUIRE(false, "user precondition"), UserError);
    EXPECT_THROW(QA_ASSERT(false, "internal invariant"), InternalError);
    EXPECT_NO_THROW(QA_REQUIRE(true, "ok"));
    // User errors reach clients verbatim, so they name no source file;
    // internal errors keep a checkout-relative location.
    try {
        QA_FAIL("specific message");
        FAIL() << "QA_FAIL must throw";
    } catch (const UserError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "qassert user error: specific message");
    }
    try {
        QA_ASSERT(false, "broken invariant");
        FAIL() << "QA_ASSERT must throw";
    } catch (const InternalError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "broken invariant [tests/test_common.cpp:"),
                  std::string::npos)
            << e.what();
    }
}

TEST(RngTest, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    }
    Rng c(43);
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 10; ++i) {
        differs |= a2.uniform() != c.uniform();
    }
    EXPECT_TRUE(differs);
}

TEST(RngTest, UniformRangeAndIndex)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-2.0, 3.0);
        EXPECT_GE(x, -2.0);
        EXPECT_LT(x, 3.0);
        const uint64_t idx = rng.index(5);
        EXPECT_LT(idx, 5u);
    }
}

TEST(RngTest, DiscreteMatchesWeights)
{
    Rng rng(9);
    const std::vector<double> weights = {1.0, 3.0, 0.0, 4.0};
    std::vector<int> counts(4, 0);
    const int draws = 40000;
    for (int i = 0; i < draws; ++i) ++counts[rng.discrete(weights)];
    EXPECT_NEAR(counts[0] / double(draws), 0.125, 0.01);
    EXPECT_NEAR(counts[1] / double(draws), 0.375, 0.01);
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[3] / double(draws), 0.5, 0.01);
}

TEST(RngTest, BernoulliBias)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.2);
    EXPECT_NEAR(hits / 20000.0, 0.2, 0.01);
}

TEST(FormatTest, ComplexRendering)
{
    EXPECT_EQ(formatComplex(Complex(1.0, 0.0), 2), "1.00");
    EXPECT_EQ(formatComplex(Complex(0.0, -0.5), 2), "-0.50i");
    EXPECT_EQ(formatComplex(Complex(1.0, 1.0), 2), "1.00+1.00i");
    EXPECT_EQ(formatComplex(Complex(1.0, -1.0), 2), "1.00-1.00i");
    // Snap-to-zero below the precision threshold.
    EXPECT_EQ(formatComplex(Complex(1.0, 1e-9), 4), "1.0000");
}

TEST(FormatTest, BitsAndPercents)
{
    EXPECT_EQ(formatBits(5, 4), "0101");
    EXPECT_EQ(formatBits(0, 3), "000");
    EXPECT_EQ(formatPercent(0.3612, 1), "36.1%");
    EXPECT_EQ(formatDouble(1.0 / 3.0, 3), "0.333");
}

TEST(TextTableTest, RendersAligned)
{
    TextTable table({"a", "long header"});
    table.addRow({"wide cell", "x"});
    const std::string out = table.render();
    // All lines equal length.
    size_t line_len = 0;
    std::istringstream iss(out);
    std::string line;
    while (std::getline(iss, line)) {
        if (line_len == 0) line_len = line.size();
        EXPECT_EQ(line.size(), line_len);
    }
    EXPECT_NE(out.find("wide cell"), std::string::npos);
}

TEST(TextTableTest, ValidatesArity)
{
    TextTable table({"a", "b"});
    EXPECT_THROW(table.addRow({"only one"}), UserError);
    EXPECT_THROW(TextTable({}), UserError);
}

TEST(ErrorTest, ErrorCodesCarryStableNames)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::kGeneric), "generic");
    EXPECT_STREQ(errorCodeName(ErrorCode::kQasmSyntax), "qasm_syntax");
    EXPECT_STREQ(errorCodeName(ErrorCode::kInvalidNoiseModel),
                 "invalid_noise_model");
    try {
        QA_FAIL_CODE(ErrorCode::kBadFaultSite, "site 3 is not a gate");
    } catch (const UserError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kBadFaultSite);
        EXPECT_NE(std::string(e.what()).find("site 3"),
                  std::string::npos);
        return;
    }
    FAIL() << "QA_FAIL_CODE did not throw";
}

TEST(ParallelTest, WorkerExceptionPropagatesToCaller)
{
    // Regression: an exception thrown inside a parallelFor body used to
    // escape a pool thread and terminate the process. It must reach the
    // caller exactly once, with every thread joined.
    std::atomic<long> sum{0};
    EXPECT_THROW(
        parallelFor(10000, 1,
                    [&](uint64_t begin, uint64_t end) {
                        for (uint64_t i = begin; i < end; ++i) {
                            if (i == 8191) {
                                throw std::runtime_error("worker died");
                            }
                            sum.fetch_add(1,
                                          std::memory_order_relaxed);
                        }
                    }),
        std::runtime_error);
    // The pool must stay usable afterwards.
    std::atomic<long> count{0};
    parallelFor(1000, 1, [&](uint64_t begin, uint64_t end) {
        count.fetch_add(long(end - begin), std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 1000);
}

TEST(ParallelTest, InlineChunkExceptionAlsoPropagates)
{
    // The calling thread runs chunk 0 inline; its exception goes through
    // the same latch as pool-thread failures.
    EXPECT_THROW(parallelFor(8, 1,
                             [&](uint64_t begin, uint64_t) {
                                 if (begin == 0) {
                                     throw UserError("inline failure");
                                 }
                             }),
                 UserError);
}

TEST(ParallelTest, FirstExceptionKeepsOnlyTheFirst)
{
    FirstException latch;
    EXPECT_FALSE(latch.armed());
    latch.rethrow(); // no-op when empty
    try {
        throw std::runtime_error("first");
    } catch (...) {
        latch.capture();
    }
    try {
        throw std::runtime_error("second");
    } catch (...) {
        latch.capture();
    }
    EXPECT_TRUE(latch.armed());
    try {
        latch.rethrow();
        FAIL() << "expected rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "first");
    }
}

} // namespace
} // namespace qa
