// Unit tests for the six module behaviours, driven directly through a
// minimal harness (no plant): each module is exercised against hand-fed
// frame inputs. The step helpers the modules and the plant share are
// pinned against the library forms they replace (std::sort, std::lround).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "runtime/simulator.hpp"
#include "target/arrestment_system.hpp"
#include "target/modules.hpp"

namespace epea::target {
namespace {

/// Drives a single module behaviour with hand-set inputs, bypassing the
/// Simulator: builds frames and contexts directly.
class ModuleHarness {
public:
    ModuleHarness(runtime::ModuleBehaviour& behaviour, std::size_t inputs,
                  std::size_t outputs)
        : behaviour_(&behaviour),
          frame_(inputs, 0),
          frame_widths_(inputs, 32),
          model_(make_store_model(outputs)),
          store_(model_),
          out_ids_() {
        for (std::size_t k = 0; k < outputs; ++k) {
            out_ids_.push_back(model::SignalId{static_cast<std::uint32_t>(k)});
        }
        runtime::InitContext init{model::ModuleId{0}, memory_};
        behaviour_->init(init);
        behaviour_->reset();
    }

    void set_in(std::size_t port, std::uint32_t value) { frame_[port] = value; }

    void step(runtime::Tick now = 0) {
        runtime::ModuleContext ctx{frame_, frame_widths_, out_ids_, store_, now};
        behaviour_->step(ctx);
    }

    [[nodiscard]] std::uint32_t out(std::size_t port) const {
        return store_.get(out_ids_[port]);
    }

    [[nodiscard]] runtime::MemoryMap& memory() { return memory_; }

private:
    static model::SystemModel make_store_model(std::size_t outputs) {
        // A flat model with `outputs` 32-bit signals to back the store.
        model::SystemModel m;
        for (std::size_t k = 0; k < outputs; ++k) {
            m.add_signal({"out" + std::to_string(k), model::SignalRole::kSystemInput,
                          model::SignalKind::kContinuous, 32});
        }
        return m;
    }

    runtime::ModuleBehaviour* behaviour_;
    std::vector<std::uint32_t> frame_;
    std::vector<std::uint8_t> frame_widths_;
    model::SystemModel model_;
    runtime::SignalStore store_;
    runtime::MemoryMap memory_;
    std::vector<model::SignalId> out_ids_;
};

SoftwareConfig test_config() {
    TestCase tc;
    tc.mass_kg = 16000.0;
    tc.engage_speed_mps = 60.0;
    return SoftwareConfig::for_test_case(tc, PlantConstants{});
}

// ------------------------------------------------------------------ CLOCK

TEST(ClockModule, CountsMilliseconds) {
    ClockModule clock;
    ModuleHarness h(clock, 1, 2);
    h.step();
    EXPECT_EQ(h.out(1), 1U);
    h.step();
    h.step();
    EXPECT_EQ(h.out(1), 3U);
}

TEST(ClockModule, SlotNumberFollowsIndexModulo) {
    ClockModule clock;
    ModuleHarness h(clock, 1, 2);
    for (std::uint32_t i : {0U, 5U, 9U, 10U, 23U}) {
        h.set_in(0, i);
        h.step();
        EXPECT_EQ(h.out(0), i % ClockModule::kSlots) << "i=" << i;
    }
}

TEST(ClockModule, MscntWrapsAt16Bits) {
    ClockModule clock;
    ModuleHarness h(clock, 1, 2);
    for (int k = 0; k < 65536 + 3; ++k) h.step();
    EXPECT_EQ(h.out(1), 3U);
}

TEST(ClockModule, RegistersSlotMapInRam) {
    ClockModule clock;
    ModuleHarness h(clock, 1, 2);
    EXPECT_EQ(h.memory().words_in(runtime::Region::kRam).size(),
              1U + ClockModule::kSlots);
}

// ----------------------------------------------------------------- DIST_S

TEST(DistSModule, AccumulatesPulseDeltas) {
    DistSModule dist(test_config());
    ModuleHarness h(dist, 3, 3);
    std::uint32_t pacnt = 0;
    h.set_in(0, pacnt);
    h.step();  // first tick: delta forced to 0
    for (int k = 0; k < 10; ++k) {
        pacnt = (pacnt + 2) & 0xff;
        h.set_in(0, pacnt);
        h.step();
    }
    EXPECT_EQ(h.out(0), 20U);
}

TEST(DistSModule, HandlesCounterWraparound) {
    DistSModule dist(test_config());
    ModuleHarness h(dist, 3, 3);
    h.set_in(0, 254);
    h.step();  // first tick: baseline 254, delta 0
    h.set_in(0, 2);
    h.step();  // wraps: delta = (2 - 254) mod 256 = 4
    EXPECT_EQ(h.out(0), 4U);
}

TEST(DistSModule, SaturatesImplausibleDelta) {
    DistSModule dist(test_config());
    ModuleHarness h(dist, 3, 3);
    h.set_in(0, 0);
    h.step();
    h.set_in(0, 200);  // delta 200 >> plausible max
    h.step();
    EXPECT_EQ(h.out(0), DistSModule::kMaxPlausibleDelta);
}

TEST(DistSModule, SlowSpeedAssertsAfterDebounce) {
    DistSModule dist(test_config());
    ModuleHarness h(dist, 3, 3);
    // No pulses at all: rate stays 0 < threshold; slow_speed must assert
    // after the debounce interval, not immediately.
    h.step();
    EXPECT_EQ(h.out(1), 0U);
    for (std::uint32_t k = 0; k < DistSModule::kSlowDebounce + 2; ++k) h.step();
    EXPECT_EQ(h.out(1), 1U);
}

TEST(DistSModule, FastPulsesKeepSlowSpeedClear) {
    DistSModule dist(test_config());
    ModuleHarness h(dist, 3, 3);
    std::uint32_t pacnt = 0;
    for (int k = 0; k < 600; ++k) {
        pacnt = (pacnt + 1) & 0xff;  // 1 pulse per ms: fast
        h.set_in(0, pacnt);
        h.step();
    }
    EXPECT_EQ(h.out(1), 0U);
}

TEST(DistSModule, StoppedRequiresOldPulseAndLatch) {
    const SoftwareConfig cfg = test_config();
    DistSModule dist(cfg);
    ModuleHarness h(dist, 3, 3);
    // TIC1 = 0 (last pulse at timer 0), TCNT far beyond the stop age.
    h.set_in(1, 0);
    h.set_in(2, cfg.stop_age_counts + 100);
    h.step();
    EXPECT_EQ(h.out(2), 0U);  // not yet latched
    for (std::uint32_t k = 0; k < DistSModule::kStopDebounce + 2; ++k) h.step();
    EXPECT_EQ(h.out(2), 1U);
    // Once latched, new pulses do not unlatch.
    h.set_in(0, 5);
    h.step();
    EXPECT_EQ(h.out(2), 1U);
}

TEST(DistSModule, RecentPulsePreventsStopped) {
    const SoftwareConfig cfg = test_config();
    DistSModule dist(cfg);
    ModuleHarness h(dist, 3, 3);
    h.set_in(1, 1000);
    h.set_in(2, 1000 + cfg.stop_age_counts - 10);  // age below threshold
    for (std::uint32_t k = 0; k < DistSModule::kStopDebounce + 10; ++k) h.step();
    EXPECT_EQ(h.out(2), 0U);
}

TEST(DistSModule, CorruptedBinIndexStaysInBounds) {
    DistSModule dist(test_config());
    ModuleHarness h(dist, 3, 3);
    // Corrupt bin_idx via the memory map to a huge value; stepping must
    // not crash (defensive modulo indexing).
    for (const auto w : h.memory().words_in(runtime::Region::kRam)) {
        if (h.memory().word(w).label == "DIST_S.bin_idx") {
            *h.memory().word(w).word = 0xff;
        }
    }
    for (int k = 0; k < 32; ++k) h.step();
    SUCCEED();
}

// ------------------------------------------------------------------- CALC

TEST(CalcModule, SetValueFollowsTimeProgram) {
    const SoftwareConfig cfg = test_config();
    CalcModule calc(cfg);
    ModuleHarness h(calc, 5, 2);
    // Past the soft start (i large), mid-plateau time.
    h.set_in(0, 40);            // i -> dist_step 10 -> no cap
    h.set_in(1, 4096);          // mscnt -> table idx 8
    h.step();
    const std::uint32_t set = h.out(1);
    // Plateau with fade compensation: within ~[0.85, 1.05] x plateau.
    EXPECT_GT(set, cfg.plateau_pressure * 80 / 100);
    EXPECT_LT(set, cfg.plateau_pressure * 110 / 100);
}

TEST(CalcModule, SoftStartCapsEarlyPressure) {
    const SoftwareConfig cfg = test_config();
    CalcModule calc(cfg);
    ModuleHarness h(calc, 5, 2);
    h.set_in(0, 0);    // first distance step
    h.set_in(1, 4096);
    h.step();
    EXPECT_LE(h.out(1), cfg.plateau_pressure / 2 + 4);
    h.set_in(0, 5);    // second distance step (i >> 2 == 1)
    h.step();
    EXPECT_LE(h.out(1), (cfg.plateau_pressure * 3) / 4 + 4);
    EXPECT_GT(h.out(1), cfg.plateau_pressure / 2);
}

TEST(CalcModule, SlowSpeedOverridesProgram) {
    const SoftwareConfig cfg = test_config();
    CalcModule calc(cfg);
    ModuleHarness h(calc, 5, 2);
    h.set_in(0, 40);
    h.set_in(1, 4096);
    h.set_in(3, 1);  // slow_speed
    h.step();
    EXPECT_EQ(h.out(1), cfg.slow_pressure);
}

TEST(CalcModule, EmergencyReleaseZeroesSetValue) {
    const SoftwareConfig cfg = test_config();
    CalcModule calc(cfg);
    ModuleHarness h(calc, 5, 2);
    h.set_in(0, 40);
    h.set_in(1, cfg.emergency_ms + 5);
    h.step();
    EXPECT_EQ(h.out(1), 0U);
}

TEST(CalcModule, IndexRatchetsTowardsPulseCount) {
    CalcModule calc(test_config());
    ModuleHarness h(calc, 5, 2);
    h.set_in(0, 0);
    h.set_in(2, 96);  // pulscnt >> 5 = 3
    h.step();
    EXPECT_EQ(h.out(0), 1U);  // one step per tick
    h.set_in(0, 1);
    h.step();
    EXPECT_EQ(h.out(0), 2U);
    h.set_in(0, 3);  // caught up
    h.step();
    EXPECT_EQ(h.out(0), 3U);
}

TEST(CalcModule, IndexFrozenWhenStopped) {
    CalcModule calc(test_config());
    ModuleHarness h(calc, 5, 2);
    h.set_in(0, 2);
    h.set_in(2, 640);  // target index 20
    h.set_in(4, 1);    // stopped
    h.step();
    EXPECT_EQ(h.out(0), 2U);
}

TEST(CalcModule, TaperReducesLatePressure) {
    const SoftwareConfig cfg = test_config();
    CalcModule calc(cfg);
    ModuleHarness h(calc, 5, 2);
    h.set_in(0, 40);
    h.set_in(1, std::min<std::uint32_t>(cfg.taper_end_ms + 600, 0xffff));
    h.step();
    EXPECT_LE(h.out(1), cfg.slow_pressure + 4);
}

// ----------------------------------------------------------------- PRES_S

TEST(PresSModule, TracksSteadyPressure) {
    PresSModule pres;
    ModuleHarness h(pres, 1, 1);
    h.set_in(0, 100);
    for (int k = 0; k < 200; ++k) h.step();
    EXPECT_EQ(h.out(0), 400U);  // x4 scaling
}

TEST(PresSModule, MedianRejectsSingleGlitch) {
    PresSModule pres;
    ModuleHarness h(pres, 1, 1);
    h.set_in(0, 100);
    for (int k = 0; k < 200; ++k) h.step();
    const std::uint32_t before = h.out(0);
    h.set_in(0, 255);  // one glitched sample
    h.step();
    h.set_in(0, 100);
    h.step();
    h.step();
    EXPECT_EQ(h.out(0), before);
}

TEST(PresSModule, SlewLimitsTracking) {
    PresSModule pres;
    ModuleHarness h(pres, 1, 1);
    h.set_in(0, 250);
    // After enough samples the median and ring average reach 250, but
    // IsValue climbs at most kMaxSlewPerMs per tick.
    std::uint32_t last = 0;
    for (int k = 0; k < 150; ++k) {
        h.step();
        const std::uint32_t now = h.out(0);
        EXPECT_LE(now - last, static_cast<std::uint32_t>(PresSModule::kMaxSlewPerMs));
        last = now;
    }
    EXPECT_EQ(last, 1000U);
}

// ------------------------------------------------------------------ V_REG

TEST(VRegModule, SteadyStateTracksSetValue) {
    VRegModule reg;
    ModuleHarness h(reg, 2, 1);
    h.set_in(0, 250);  // SetValue
    h.set_in(1, 250);  // IsValue equal -> pure feed-forward
    h.step();
    // Feed-forward: (250 >> 2) * 256 = 15872.
    EXPECT_NEAR(static_cast<double>(h.out(0)), 15872.0, 64.0);
}

TEST(VRegModule, DeadbandSuppressesSmallErrors) {
    VRegModule reg;
    ModuleHarness h(reg, 2, 1);
    h.set_in(0, 252);
    h.set_in(1, 250);  // err = 2 <= deadband
    h.step();
    const std::uint32_t base = h.out(0);
    h.set_in(1, 251);  // err = 1, still inside deadband
    h.step();
    EXPECT_EQ(h.out(0), base);
}

TEST(VRegModule, IntegratorWindsUpUnderSustainedError) {
    VRegModule reg;
    ModuleHarness h(reg, 2, 1);
    h.set_in(0, 300);
    h.set_in(1, 200);  // persistent positive error
    h.step();
    const std::uint32_t first = h.out(0);
    for (int k = 0; k < 50; ++k) h.step();
    EXPECT_GT(h.out(0), first);  // integral action raises the output
}

TEST(VRegModule, OutputClampsAtRange) {
    VRegModule reg;
    ModuleHarness h(reg, 2, 1);
    // Maximum pressure demand saturates the 16-bit output upward...
    h.set_in(0, 1020);
    h.set_in(1, 0);
    for (int k = 0; k < 10; ++k) h.step();
    EXPECT_EQ(h.out(0), 65535U);
    // ...and a large over-pressure reading drives it to the lower clamp.
    h.set_in(0, 0);
    h.set_in(1, 1020);
    for (int k = 0; k < 2000; ++k) h.step();
    EXPECT_EQ(h.out(0), 0U);
}

// ----------------------------------------------------------------- PRES_A

TEST(PresAModule, QuantisesLowBits) {
    PresAModule act;
    ModuleHarness h(act, 1, 1);
    h.set_in(0, 1027);
    h.step();
    EXPECT_EQ(h.out(0) & 3U, 0U);
    EXPECT_EQ(h.out(0), 1024U);
}

TEST(PresAModule, SlewLimitsCommand) {
    PresAModule act;
    ModuleHarness h(act, 1, 1);
    h.set_in(0, 60000);
    h.step();
    EXPECT_EQ(h.out(0), static_cast<std::uint32_t>(PresAModule::kMaxSlewPerMs) &
                            PresAModule::kPwmMask);
    h.step();
    EXPECT_EQ(h.out(0), static_cast<std::uint32_t>(2 * PresAModule::kMaxSlewPerMs) &
                            PresAModule::kPwmMask);
}

TEST(PresAModule, ReachesTargetEventually) {
    PresAModule act;
    ModuleHarness h(act, 1, 1);
    h.set_in(0, 10000);
    for (int k = 0; k < 10; ++k) h.step();
    EXPECT_EQ(h.out(0), 10000U & PresAModule::kPwmMask);
}

// ---------------------------------------------------- shared step helpers

TEST(Median5, MatchesTheMiddleOfTheSortedTaps) {
    // Every 5-tuple over a small alphabet covers ties and all orders.
    for (std::uint32_t code = 0; code < 6 * 6 * 6 * 6 * 6; ++code) {
        std::array<std::uint32_t, 5> taps{};
        std::uint32_t c = code;
        for (auto& t : taps) {
            t = (c % 6) * 51;
            c /= 6;
        }
        std::array<std::uint32_t, 5> sorted = taps;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(median5(taps[0], taps[1], taps[2], taps[3], taps[4]), sorted[2])
            << "code " << code;
    }
}

TEST(RoundHalfUp, MatchesLroundOnTheAdcRange) {
    std::vector<double> xs = {0.0, 0.25, 0.5, 1.5, 2.5, 127.5, 254.5, 255.0,
                              std::nextafter(0.5, 0.0)};
    for (int k = 0; k <= 255; ++k) {
        for (const double x : {k + 0.5, static_cast<double>(k)}) {
            xs.push_back(x);
            xs.push_back(std::nextafter(x, 0.0));
            xs.push_back(std::nextafter(x, 300.0));
        }
    }
    // ADC arguments as the plant forms them: pressure in [0, 1] x 255.
    for (int i = 0; i <= 100000; ++i) xs.push_back(i / 100000.0 * 255.0);
    for (const double x : xs) {
        EXPECT_EQ(round_half_up(x), static_cast<std::uint32_t>(std::lround(x))) << x;
    }
}

}  // namespace
}  // namespace epea::target
