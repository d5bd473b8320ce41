#include <vector>

#include <gtest/gtest.h>

#include "ea/assertion.hpp"
#include "ea/bank.hpp"
#include "ea/calibrate.hpp"
#include "exp/arrestment_experiments.hpp"
#include "fi/golden.hpp"
#include "target/arrestment_system.hpp"
#include "util/rng.hpp"

namespace epea::ea {
namespace {

EaParams continuous_params() {
    EaParams p;
    p.type = EaType::kContinuous;
    p.min = 10;
    p.max = 100;
    p.max_rate_up = 5;
    p.max_rate_down = 3;
    return p;
}

// ------------------------------------------------------------- violates()

TEST(ContinuousEa, BoundsChecked) {
    const EaParams p = continuous_params();
    EXPECT_FALSE(ExecutableAssertion::violates(p, 0, 50, false));
    EXPECT_TRUE(ExecutableAssertion::violates(p, 0, 9, false));
    EXPECT_TRUE(ExecutableAssertion::violates(p, 0, 101, false));
    EXPECT_FALSE(ExecutableAssertion::violates(p, 0, 10, false));   // inclusive
    EXPECT_FALSE(ExecutableAssertion::violates(p, 0, 100, false));  // inclusive
}

TEST(ContinuousEa, RateChecked) {
    const EaParams p = continuous_params();
    EXPECT_FALSE(ExecutableAssertion::violates(p, 50, 55, true));  // +5 ok
    EXPECT_TRUE(ExecutableAssertion::violates(p, 50, 56, true));   // +6 too fast
    EXPECT_FALSE(ExecutableAssertion::violates(p, 50, 47, true));  // -3 ok
    EXPECT_TRUE(ExecutableAssertion::violates(p, 50, 46, true));   // -4 too fast
}

TEST(ContinuousEa, RateIgnoredWithoutHistory) {
    const EaParams p = continuous_params();
    EXPECT_FALSE(ExecutableAssertion::violates(p, 0, 99, false));
}

TEST(ContinuousEa, SettledBandOnlyAfterSettleTick) {
    EaParams p = continuous_params();
    p.settle_tick = 100;
    p.settled_min = 40;
    p.settled_max = 60;
    // Before settle: wide bounds apply.
    EXPECT_FALSE(ExecutableAssertion::violates(p, 20, 20, true, 50));
    // After settle: the tighter band applies both ways.
    EXPECT_TRUE(ExecutableAssertion::violates(p, 39, 39, true, 100));
    EXPECT_TRUE(ExecutableAssertion::violates(p, 61, 61, true, 200));
    EXPECT_FALSE(ExecutableAssertion::violates(p, 50, 50, true, 200));
}

TEST(MonotonicEa, DetectsDecrease) {
    EaParams p;
    p.type = EaType::kMonotonic;
    p.floor = 0;
    p.max_increment = 2;
    EXPECT_FALSE(ExecutableAssertion::violates(p, 10, 10, true));
    EXPECT_FALSE(ExecutableAssertion::violates(p, 10, 12, true));
    EXPECT_TRUE(ExecutableAssertion::violates(p, 10, 9, true));
    EXPECT_TRUE(ExecutableAssertion::violates(p, 10, 13, true));  // jump too big
    EXPECT_TRUE(ExecutableAssertion::violates(p, 0, -1, false));  // below floor
}

TEST(DiscreteEa, MembershipAndTransitions) {
    EaParams p;
    p.type = EaType::kDiscrete;
    p.member_mask = 0b1111;  // values 0..3
    p.transition_mask[0] = 0b0011;  // 0 -> 0 or 1
    p.transition_mask[1] = 0b0010;  // 1 -> 1
    EXPECT_FALSE(ExecutableAssertion::violates(p, 0, 1, true));
    EXPECT_TRUE(ExecutableAssertion::violates(p, 0, 2, true));   // illegal transition
    EXPECT_TRUE(ExecutableAssertion::violates(p, 0, 4, false));  // not a member
    EXPECT_TRUE(ExecutableAssertion::violates(p, 0, 32, false));  // out of domain
    EXPECT_FALSE(ExecutableAssertion::violates(p, 9, 1, false));  // no history
}

// violates() is the per-call switch over violates_as<T>, which the fused
// lane kernel instantiates once per EA and tick: both must give the same
// verdict on every input, edges included.
template <EaType T>
void expect_violates_matches_rule(util::Rng& rng) {
    for (int sample = 0; sample < 500; ++sample) {
        EaParams p;
        p.type = T;
        p.min = rng.range(-40, 10);
        p.max = p.min + rng.range(0, 60);
        p.max_rate_up = rng.range(0, 20);
        p.max_rate_down = rng.range(0, 20);
        p.settle_tick = static_cast<std::uint32_t>(rng.range(0, 30));
        p.settled_min = rng.range(-20, 10);
        p.settled_max = p.settled_min + rng.range(0, 30);
        p.floor = rng.range(-20, 10);
        p.max_increment = rng.range(0, 10);
        p.member_mask = static_cast<std::uint32_t>(rng());
        for (auto& mask : p.transition_mask) mask = static_cast<std::uint32_t>(rng());

        // Random pairs plus the edges: discrete domain bounds, negative
        // history, the tick before and at settle, and no history at all.
        std::vector<std::int64_t> values = {-1, 0, 31, 32, -25};
        for (int k = 0; k < 6; ++k) values.push_back(rng.range(-45, 75));
        const std::uint32_t settle = p.settle_tick;
        const std::vector<runtime::Tick> ticks = {
            settle == 0 ? 0 : settle - 1, settle, settle + 1,
            static_cast<runtime::Tick>(rng.range(0, 40))};
        for (const std::int64_t previous : values) {
            for (const std::int64_t current : values) {
                for (const runtime::Tick now : ticks) {
                    for (const bool have : {false, true}) {
                        ASSERT_EQ(ExecutableAssertion::violates(p, previous, current,
                                                                have, now),
                                  violates_as<T>(p, previous, current, have, now))
                            << to_string(T) << " sample " << sample << " prev "
                            << previous << " cur " << current << " now " << now
                            << " have " << have;
                    }
                }
            }
        }
    }
}

TEST(ViolatesAs, MatchesViolatesForEveryType) {
    util::Rng rng(0xea5eedULL);
    expect_violates_matches_rule<EaType::kContinuous>(rng);
    expect_violates_matches_rule<EaType::kMonotonic>(rng);
    expect_violates_matches_rule<EaType::kDiscrete>(rng);
}

TEST(Assertion, ObserveAccumulatesDetections) {
    model::SystemModel m = target::make_arrestment_model();
    runtime::SignalStore store(m);
    const auto sid = m.signal_id("SetValue");
    EaParams p = continuous_params();
    ExecutableAssertion ea("EA1", sid, p);

    store.set(sid, 50);
    ea.observe(store, 0);
    EXPECT_FALSE(ea.triggered());
    store.set(sid, 200);  // out of bounds
    ea.observe(store, 1);
    EXPECT_TRUE(ea.triggered());
    EXPECT_EQ(ea.first_detection(), 1U);
    store.set(sid, 201);
    ea.observe(store, 2);
    EXPECT_EQ(ea.violation_count(), 2U);
    EXPECT_EQ(ea.first_detection(), 1U);  // sticky

    ea.reset();
    EXPECT_FALSE(ea.triggered());
    EXPECT_EQ(ea.violation_count(), 0U);
}

// ------------------------------------------------------------------ costs

TEST(Costs, MatchTable3) {
    EXPECT_EQ(cost_of(EaType::kContinuous).rom, 50U);
    EXPECT_EQ(cost_of(EaType::kContinuous).ram, 14U);
    EXPECT_EQ(cost_of(EaType::kMonotonic).rom, 25U);
    EXPECT_EQ(cost_of(EaType::kMonotonic).ram, 13U);
    EXPECT_EQ(cost_of(EaType::kDiscrete).rom, 37U);
    EXPECT_EQ(cost_of(EaType::kDiscrete).ram, 13U);
}

TEST(Costs, PaperTotals) {
    // EH-set: 3 continuous + 3 monotonic + 1 discrete = 262/94.
    EaCost eh;
    for (int i = 0; i < 3; ++i) eh = eh + cost_of(EaType::kContinuous);
    for (int i = 0; i < 3; ++i) eh = eh + cost_of(EaType::kMonotonic);
    eh = eh + cost_of(EaType::kDiscrete);
    EXPECT_EQ(eh.rom, 262U);
    EXPECT_EQ(eh.ram, 94U);
    // PA-set: 2 continuous + 2 monotonic = 150/54.
    EaCost pa;
    for (int i = 0; i < 2; ++i) pa = pa + cost_of(EaType::kContinuous);
    for (int i = 0; i < 2; ++i) pa = pa + cost_of(EaType::kMonotonic);
    EXPECT_EQ(pa.rom, 150U);
    EXPECT_EQ(pa.ram, 54U);
}

// ------------------------------------------------------------- calibrator

struct CalibratedFixture {
    target::ArrestmentSystem sys;
    fi::GoldenRun gr;
    EaCalibrator cal;

    CalibratedFixture() : cal(sys.system()) {
        sys.configure(target::standard_test_cases()[12]);
        gr = fi::capture_golden_run(sys.sim(), target::kMaxRunTicks);
        cal.add_trace(gr.trace);
    }
};

TEST(Calibrator, RequiresTraces) {
    target::ArrestmentSystem sys;
    EaCalibrator cal(sys.system());
    EXPECT_THROW((void)cal.calibrate(sys.system().signal_id("SetValue")),
                 std::logic_error);
}

TEST(Calibrator, ContinuousBoundsCoverGoldenRun) {
    CalibratedFixture f;
    const auto sid = f.sys.system().signal_id("SetValue");
    const EaParams p = f.cal.calibrate(sid);
    EXPECT_EQ(p.type, EaType::kContinuous);
    for (const std::uint32_t v : f.gr.trace.series(sid)) {
        EXPECT_GE(static_cast<std::int64_t>(v), p.min);
        EXPECT_LE(static_cast<std::int64_t>(v), p.max);
    }
    EXPECT_GT(p.max_rate_up, 0);
    EXPECT_LT(p.settle_tick, f.gr.length);
    EXPECT_LT(p.settled_min, p.settled_max);
}

TEST(Calibrator, MonotonicParamsFromTrace) {
    CalibratedFixture f;
    const EaParams p = f.cal.calibrate(f.sys.system().signal_id("pulscnt"));
    EXPECT_EQ(p.type, EaType::kMonotonic);
    EXPECT_EQ(p.floor, 0);
    EXPECT_GE(p.max_increment, 1);
    EXPECT_LE(p.max_increment, 10);
}

TEST(Calibrator, DiscreteTransitionsLearned) {
    CalibratedFixture f;
    const EaParams p = f.cal.calibrate(f.sys.system().signal_id("ms_slot_nbr"));
    EXPECT_EQ(p.type, EaType::kDiscrete);
    // All ten slots observed (the index i covers >10 steps per run).
    EXPECT_EQ(p.member_mask, 0x3ffU);
    // Self transitions always allowed.
    for (std::uint32_t v = 0; v < 10; ++v) {
        EXPECT_TRUE(p.transition_mask[v] & (1U << v)) << v;
    }
    // A backwards jump 5 -> 3 was never observed.
    EXPECT_FALSE(p.transition_mask[5] & (1U << 3));
}

TEST(Calibrator, BooleanSignalRejected) {
    CalibratedFixture f;
    EXPECT_THROW((void)f.cal.calibrate(f.sys.system().signal_id("slow_speed")),
                 std::logic_error);
}

TEST(Calibrator, EmptyTraceRejected) {
    target::ArrestmentSystem sys;
    EaCalibrator cal(sys.system());
    const runtime::Trace empty(sys.system().signal_count());
    EXPECT_THROW(cal.add_trace(empty), std::invalid_argument);
    EXPECT_EQ(cal.trace_count(), 0U);
}

TEST(Calibrator, SingleSampleTraceIsDeterministic) {
    // A single-tick trace has no deltas: rate/increment envelopes stay
    // degenerate and calibration is well-defined, not UB.
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[12]);
    const fi::GoldenRun one = fi::capture_golden_run(sys.sim(), 1);
    ASSERT_GE(one.trace.length(), 1U);

    EaCalibrator cal(sys.system());
    cal.add_trace(one.trace);
    EXPECT_EQ(cal.trace_count(), 1U);

    const auto sid = sys.system().signal_id("SetValue");
    const EaParams a = cal.calibrate(sid);
    const EaParams b = cal.calibrate(sid);
    // Deterministic across repeated calibrations...
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.max_rate_up, b.max_rate_up);
    // ...with the envelope covering the observed sample.
    const auto v = static_cast<std::int64_t>(one.trace.series(sid)[0]);
    EXPECT_LE(a.min, v);
    EXPECT_GE(a.max, v);
}

TEST(Calibrator, SettleFractionOutOfRangeRejected) {
    CalibratedFixture f;
    EaCalibrator cal(f.sys.system());
    EXPECT_THROW(cal.add_trace(f.gr.trace, -0.1), std::invalid_argument);
    EXPECT_THROW(cal.add_trace(f.gr.trace, 1.5), std::invalid_argument);
}

TEST(Calibrator, SettleFractionMismatchRejected) {
    CalibratedFixture f;

    // Mismatch between two add_trace calls: the first call pins it.
    EaCalibrator cal(f.sys.system());
    cal.add_trace(f.gr.trace, 0.30);
    EXPECT_THROW(cal.add_trace(f.gr.trace, 0.50), std::invalid_argument);
    cal.add_trace(f.gr.trace, 0.30);  // matching fraction still accepted
    EXPECT_EQ(cal.trace_count(), 2U);

    // Mismatch between add_trace and calibrate margins: rejected too —
    // the settled band was computed over a different suffix.
    CalibrationMargins margins;
    margins.settle_fraction = 0.50;
    EXPECT_THROW((void)cal.calibrate(f.sys.system().signal_id("SetValue"), margins),
                 std::invalid_argument);
    margins.settle_fraction = 0.30;
    EXPECT_EQ(cal.calibrate(f.sys.system().signal_id("SetValue"), margins).type,
              EaType::kContinuous);
}

TEST(Calibrator, NoFalsePositivesOnGoldenRun) {
    CalibratedFixture f;
    // Arm the full bank and replay the fault-free scenario.
    EaBank bank = exp::make_calibrated_bank(f.sys.system(), {f.gr.trace});
    bank.arm(f.sys.sim());
    f.sys.sim().reset();
    f.sys.sim().run(target::kMaxRunTicks);
    EXPECT_TRUE(bank.triggered().empty());
    f.sys.sim().clear_monitors();
}

TEST(Calibrator, FalsePositiveCheckAcrossAllCases) {
    target::ArrestmentSystem sys;
    exp::CampaignOptions options;
    options.case_count = 25;
    const auto fired = exp::false_positive_check(sys, options);
    EXPECT_TRUE(fired.empty()) << fired.front();
}

// ------------------------------------------------------------------- bank

TEST(Bank, AddAndLookup) {
    target::ArrestmentSystem sys;
    EaBank bank;
    const auto idx = bank.add("EA1", sys.system().signal_id("SetValue"), EaParams{});
    EXPECT_EQ(idx, 0U);
    EXPECT_EQ(bank.size(), 1U);
    EXPECT_EQ(bank.index_of("EA1"), 0U);
    EXPECT_EQ(bank.by_name("EA1").name(), "EA1");
    EXPECT_THROW((void)bank.index_of("EA9"), std::invalid_argument);
    EXPECT_THROW(bank.add("EA1", sys.system().signal_id("i"), EaParams{}),
                 std::invalid_argument);
}

TEST(Bank, SubsetCosts) {
    target::ArrestmentSystem sys;
    EaBank bank;
    EaParams cont;
    cont.type = EaType::kContinuous;
    EaParams mono;
    mono.type = EaType::kMonotonic;
    bank.add("EA1", sys.system().signal_id("SetValue"), cont);
    bank.add("EA3", sys.system().signal_id("i"), mono);
    const EaCost both = bank.total_cost(bank.all_indices());
    EXPECT_EQ(both.rom, 75U);
    EXPECT_EQ(both.ram, 27U);
    const EaCost one = bank.total_cost({bank.index_of("EA3")});
    EXPECT_EQ(one.rom, 25U);
}

TEST(Bank, TriggeredSubsets) {
    target::ArrestmentSystem sys;
    runtime::SignalStore store(sys.system());
    EaBank bank;
    EaParams p;
    p.type = EaType::kContinuous;
    p.min = 0;
    p.max = 10;
    p.max_rate_up = 100;
    p.max_rate_down = 100;
    bank.add("A", sys.system().signal_id("SetValue"), p);
    bank.add("B", sys.system().signal_id("IsValue"), p);
    store.set(sys.system().signal_id("SetValue"), 50);  // violates A only
    bank.at(0).observe(store, 0);
    bank.at(1).observe(store, 0);
    EXPECT_EQ(bank.triggered(), std::vector<std::size_t>{0});
    EXPECT_TRUE(bank.any_triggered({0, 1}));
    EXPECT_FALSE(bank.any_triggered({1}));
    bank.reset_detections();
    EXPECT_TRUE(bank.triggered().empty());
}

TEST(BankSetup, ArrestmentEaTypesMatchPaper) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    const fi::GoldenRun gr = fi::capture_golden_run(sys.sim(), target::kMaxRunTicks);
    EaBank bank = exp::make_calibrated_bank(sys.system(), {gr.trace});
    ASSERT_EQ(bank.size(), 7U);
    EXPECT_EQ(bank.by_name("EA1").params().type, EaType::kContinuous);
    EXPECT_EQ(bank.by_name("EA2").params().type, EaType::kContinuous);
    EXPECT_EQ(bank.by_name("EA3").params().type, EaType::kMonotonic);
    EXPECT_EQ(bank.by_name("EA4").params().type, EaType::kMonotonic);
    EXPECT_EQ(bank.by_name("EA5").params().type, EaType::kDiscrete);
    EXPECT_EQ(bank.by_name("EA6").params().type, EaType::kMonotonic);
    EXPECT_EQ(bank.by_name("EA7").params().type, EaType::kContinuous);
}

}  // namespace
}  // namespace epea::ea
