#include "target/arrestment_system.hpp"

#include <algorithm>
#include <cmath>

#include "model/builder.hpp"
#include "target/batch_kernel.hpp"
#include "target/modules.hpp"

namespace epea::target {

namespace {

/// Nominal cable run-out the pressure program aims for [m].
constexpr double kNominalStopDistance = 230.0;

/// SetValue / IsValue full-scale (ADC full scale 255 x 4).
constexpr double kPressureScale = 1020.0;

}  // namespace

std::vector<TestCase> standard_test_cases() {
    std::vector<TestCase> out;
    int id = 0;
    for (const double mass : {8000.0, 12000.0, 16000.0, 20000.0, 25000.0}) {
        for (const double speed : {40.0, 50.0, 60.0, 70.0, 80.0}) {
            out.push_back(TestCase{id++, mass, speed});
        }
    }
    return out;
}

double target_retardation(const TestCase& tc) {
    return tc.engage_speed_mps * tc.engage_speed_mps / (2.0 * kNominalStopDistance);
}

SoftwareConfig SoftwareConfig::for_test_case(const TestCase& tc,
                                             const PlantConstants& pc) {
    const double a_t = target_retardation(tc);
    SoftwareConfig cfg;
    cfg.plateau_pressure = static_cast<std::uint32_t>(
        std::lround(kPressureScale * tc.mass_kg * a_t / pc.full_force_n));
    cfg.slow_pressure = std::max<std::uint32_t>(20, cfg.plateau_pressure / 5);
    cfg.stop_age_counts =
        static_cast<std::uint32_t>(std::lround(250.0 * pc.tcnt_per_ms));
    // Predicted arrestment time at the target retardation; the program
    // tapers off at 92% of it and releases everything at 250%.
    const double t_est_ms = 1000.0 * tc.engage_speed_mps / a_t;
    cfg.taper_end_ms = static_cast<std::uint32_t>(
        std::min(65535L, std::lround(0.92 * t_est_ms)));
    cfg.emergency_ms = static_cast<std::uint32_t>(
        std::min(65535L, std::lround(2.5 * t_est_ms)));
    return cfg;
}

model::SystemModel make_arrestment_model() {
    using model::SignalKind;
    model::SystemBuilder b;
    b.input("PACNT", SignalKind::kMonotonic, 8);
    b.input("TIC1", SignalKind::kContinuous, 16);
    b.input("TCNT", SignalKind::kMonotonic, 16);
    b.input("ADC", SignalKind::kContinuous, 8);
    b.intermediate("ms_slot_nbr", SignalKind::kDiscrete, 8);
    b.intermediate("mscnt", SignalKind::kMonotonic, 16);
    b.intermediate("pulscnt", SignalKind::kMonotonic, 16);
    b.intermediate("slow_speed", SignalKind::kBoolean, 1);
    b.intermediate("stopped", SignalKind::kBoolean, 1);
    b.intermediate("i", SignalKind::kMonotonic, 16);
    b.intermediate("SetValue", SignalKind::kContinuous, 16);
    b.intermediate("IsValue", SignalKind::kContinuous, 16);
    b.intermediate("OutValue", SignalKind::kContinuous, 16);
    b.output("TOC2", SignalKind::kContinuous, 16);

    b.module("CLOCK").in("i").out("ms_slot_nbr").out("mscnt");
    b.module("DIST_S")
        .in("PACNT")
        .in("TIC1")
        .in("TCNT")
        .out("pulscnt")
        .out("slow_speed")
        .out("stopped");
    b.module("CALC")
        .in("i")
        .in("mscnt")
        .in("pulscnt")
        .in("slow_speed")
        .in("stopped")
        .out("i")
        .out("SetValue");
    b.module("PRES_S").in("ADC").out("IsValue");
    b.module("V_REG").in("SetValue").in("IsValue").out("OutValue");
    b.module("PRES_A").in("OutValue").out("TOC2");
    return b.build();
}

// ------------------------------------------------------------------ Plant

Plant::Plant(const model::SystemModel& system, const PlantConstants& pc)
    : sensors_{system.signal_id("PACNT"), system.signal_id("TIC1"),
               system.signal_id("TCNT"), system.signal_id("ADC")},
      actuator_(system.signal_id("TOC2")),
      pc_(pc) {}

void Plant::reset() {
    state_.fill(0);
    state_[kSpeed] = bits(tc_.engage_speed_mps);
}

void Plant::sense(runtime::SignalStore& store, runtime::Tick now) {
    runtime::ModuleContext io{{}, {}, sensors_, store, now};
    sense_words(state_, io, pc_, tc_.mass_kg);
}

FailureReport Plant::failure_report() const {
    FailureReport r;
    r.stopped = state_[kStopped] != 0;
    r.final_distance_m = f64(state_[kFinalDistance]);
    r.peak_retardation_g = f64(state_[kPeakRetardation]);
    r.peak_force_ratio = f64(state_[kPeakForceRatio]);
    r.retardation_exceeded = state_[kRetardationExceeded] != 0;
    r.force_exceeded = state_[kForceExceeded] != 0;
    r.overran_runway = state_[kOverranRunway] != 0;
    return r;
}

void Plant::save_state(runtime::StateWriter& w) const {
    for (const std::uint64_t word : state_) w.u64(word);
}

void Plant::restore_state(runtime::StateReader& r) {
    for (std::uint64_t& word : state_) word = r.u64();
}

// ------------------------------------------------------------- the system

ArrestmentSystem::ArrestmentSystem()
    : model_(std::make_unique<model::SystemModel>(make_arrestment_model())),
      plant_(std::make_unique<Plant>(*model_, PlantConstants{})) {
    const TestCase tc;
    const SoftwareConfig cfg = SoftwareConfig::for_test_case(tc, PlantConstants{});

    auto clock = std::make_unique<ClockModule>();
    auto dist = std::make_unique<DistSModule>(cfg);
    auto calc = std::make_unique<CalcModule>(cfg);
    auto pres_s = std::make_unique<PresSModule>();
    auto v_reg = std::make_unique<VRegModule>();
    auto pres_a = std::make_unique<PresAModule>();
    dist_ = dist.get();
    calc_ = calc.get();

    std::vector<std::unique_ptr<runtime::ModuleBehaviour>> behaviours;
    behaviours.push_back(std::move(clock));
    behaviours.push_back(std::move(dist));
    behaviours.push_back(std::move(calc));
    behaviours.push_back(std::move(pres_s));
    behaviours.push_back(std::move(v_reg));
    behaviours.push_back(std::move(pres_a));

    plant_->configure(tc);
    sim_ = std::make_unique<runtime::Simulator>(*model_, std::move(behaviours),
                                                *plant_);
    batch_backend_ = std::make_unique<ArrestmentBatchBackend>(*sim_);
    sim_->set_batch_backend(batch_backend_.get());
}

ArrestmentSystem::~ArrestmentSystem() = default;

void ArrestmentSystem::configure(const TestCase& tc) {
    const SoftwareConfig cfg = SoftwareConfig::for_test_case(tc, PlantConstants{});
    dist_->set_config(cfg);
    calc_->set_config(cfg);
    plant_->configure(tc);
}

runtime::RunResult ArrestmentSystem::run_arrestment() {
    sim_->reset();
    return sim_->run(kMaxRunTicks);
}

}  // namespace epea::target
