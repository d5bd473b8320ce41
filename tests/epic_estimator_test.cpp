// End-to-end validation of the fault-injection permeability estimator on
// a system whose true permeabilities are known analytically: a chain of
// bitmask modules (out = in & mask), where P = popcount(mask)/16 under
// uniform single-bit input flips.
#include <gtest/gtest.h>

#include "epic/estimator.hpp"
#include "fi/injector.hpp"
#include "synth/generator.hpp"

namespace epea::epic {
namespace {

TEST(BitmaskChain, TruePermeabilityHelper) {
    synth::BitmaskChainSystem chain({0xffff, 0x00ff, 0x0001});
    EXPECT_DOUBLE_EQ(chain.true_permeability(0), 1.0);
    EXPECT_DOUBLE_EQ(chain.true_permeability(1), 0.5);
    EXPECT_DOUBLE_EQ(chain.true_permeability(2), 1.0 / 16.0);
}

TEST(BitmaskChain, RejectsEmpty) {
    EXPECT_THROW(synth::BitmaskChainSystem({}), std::invalid_argument);
}

class EstimatorExactness : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(EstimatorExactness, RecoversExactPermeability) {
    // A flip of a masked-in bit always changes the module's output at the
    // injection tick; a flip of a masked-out bit never does. The
    // estimator must therefore recover popcount(mask)/16 exactly.
    const std::uint16_t mask = GetParam();
    synth::BitmaskChainSystem chain({mask});
    fi::Injector injector(chain.sim());
    PermeabilityEstimator estimator(chain.sim(), injector);
    EstimatorOptions options;
    options.times_per_bit = 3;
    options.max_ticks = 1024;

    const PermeabilityMatrix pm =
        estimator.estimate(1, [](std::size_t) {}, options);
    EXPECT_DOUBLE_EQ(pm.get(chain.system().module_id("mask_0"), 0, 0),
                     chain.true_permeability(0));
}

INSTANTIATE_TEST_SUITE_P(Masks, EstimatorExactness,
                         ::testing::Values<std::uint16_t>(0xffff, 0x0000, 0x00ff,
                                                          0xff00, 0xaaaa, 0x0001,
                                                          0x8000, 0x0f0f),
                         [](const auto& info) {
                             char buf[8];
                             std::snprintf(buf, sizeof buf, "m%04x", info.param);
                             return std::string(buf);
                         });

TEST(Estimator, ChainStagesMeasuredIndependently) {
    // In a chain, the direct-attribution rule measures each module's own
    // mask, not the product of upstream masks.
    synth::BitmaskChainSystem chain({0xff00, 0x00ff, 0xffff});
    fi::Injector injector(chain.sim());
    PermeabilityEstimator estimator(chain.sim(), injector);
    EstimatorOptions options;
    options.times_per_bit = 2;
    options.max_ticks = 1024;
    const PermeabilityMatrix pm = estimator.estimate(1, [](std::size_t) {}, options);

    EXPECT_DOUBLE_EQ(pm.get(chain.system().module_id("mask_0"), 0, 0), 0.5);
    EXPECT_DOUBLE_EQ(pm.get(chain.system().module_id("mask_1"), 0, 0), 0.5);
    EXPECT_DOUBLE_EQ(pm.get(chain.system().module_id("mask_2"), 0, 0), 1.0);
}

TEST(Estimator, CountsAndRunsBookkeeping) {
    synth::BitmaskChainSystem chain({0xffff, 0x0000});
    fi::Injector injector(chain.sim());
    PermeabilityEstimator estimator(chain.sim(), injector);
    EstimatorOptions options;
    options.times_per_bit = 2;
    options.max_ticks = 1024;

    std::size_t progress_calls = 0;
    std::size_t last_total = 0;
    const PermeabilityMatrix pm = estimator.estimate(
        1, [](std::size_t) {}, options,
        [&](std::size_t done, std::size_t total) {
            ++progress_calls;
            EXPECT_LE(done, total);
            last_total = total;
        });

    // 2 modules x 16 bits x 2 times x 1 case = 64 runs.
    EXPECT_EQ(estimator.runs_executed(), 64U);
    EXPECT_EQ(progress_calls, 64U);
    EXPECT_EQ(last_total, 64U);

    const util::Proportion p0 = pm.counts(chain.system().module_id("mask_0"), 0, 0);
    EXPECT_EQ(p0.trials, 32U);
    EXPECT_EQ(p0.hits, 32U);
    const util::Proportion p1 = pm.counts(chain.system().module_id("mask_1"), 0, 0);
    EXPECT_EQ(p1.trials, 32U);
    EXPECT_EQ(p1.hits, 0U);

    // The chain's environment cannot snapshot: with the batched engine
    // requested (the default), every run still replays from tick 0.
    ASSERT_FALSE(chain.sim().snapshot_supported());
    ASSERT_TRUE(options.use_batch);
    EXPECT_EQ(estimator.fastpath_stats().lanes_launched, 0U);
    EXPECT_EQ(estimator.fastpath_stats().full_runs, 64U);
}

TEST(Estimator, DeterministicAcrossRepeats) {
    synth::BitmaskChainSystem chain({0xaaaa, 0x5555});
    fi::Injector injector(chain.sim());
    PermeabilityEstimator estimator(chain.sim(), injector);
    EstimatorOptions options;
    options.times_per_bit = 2;
    options.max_ticks = 512;

    const PermeabilityMatrix a = estimator.estimate(1, [](std::size_t) {}, options);
    const PermeabilityMatrix b = estimator.estimate(1, [](std::size_t) {}, options);
    for (const auto& ea : a.entries()) {
        EXPECT_DOUBLE_EQ(ea.value, b.get(ea.module, ea.in_port, ea.out_port));
    }
}

}  // namespace
}  // namespace epea::epic
