// The target system of the paper (§4): an aircraft arrestment plant —
// a braked cable that stops an incoming aircraft — controlled by six
// software modules (CLOCK, DIST_S, CALC, PRES_S, V_REG, PRES_A) that
// exchange thirteen signals. The software runs in a 1 ms slot schedule;
// the plant model supplies the hardware registers (PACNT, TIC1, TCNT,
// ADC) and consumes the PWM command (TOC2).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "model/system_model.hpp"
#include "runtime/environment.hpp"
#include "runtime/simulator.hpp"

namespace epea::target {

inline constexpr double kGravity = 9.81;  ///< [m/s^2]

/// Budget for one arrestment run; every golden run completes well below
/// this (longest case ~23 s at 1 tick = 1 ms).
inline constexpr runtime::Tick kMaxRunTicks = 30000;

/// One cell of the paper's 25-case test matrix (§5.3: five masses x five
/// engagement speeds).
struct TestCase {
    int id = 0;
    double mass_kg = 16000.0;
    double engage_speed_mps = 60.0;
};

/// The 5x5 matrix of standard test cases, id 0..24 (mass-major).
[[nodiscard]] std::vector<TestCase> standard_test_cases();

/// Constant retardation that stops the aircraft on the nominal 230 m of
/// cable run-out: a = v^2 / (2 * 230).
[[nodiscard]] double target_retardation(const TestCase& tc);

/// MIL-spec style limit on the net arresting force: the permissible hook
/// load grows with speed and shrinks as the aircraft slows.
[[nodiscard]] double max_retardation_force_n(double mass_kg, double speed_mps);

/// Physical constants of the plant (brake, cable drum, runway).
struct PlantConstants {
    double full_force_n = 400e3;       ///< brake force at full pressure
    double runway_limit_m = 335.0;     ///< available run-out before overrun
    double retardation_limit_g = 3.5;  ///< structural limit on the airframe
    double pulses_per_m = 8.0;      ///< cable-drum pulses per metre
    double tcnt_per_ms = 8.0;       ///< free-running timer rate
    double pressure_tau_ms = 50.0;  ///< first-order brake pressure lag
    double stop_speed_mps = 0.5;    ///< below this the cable holds static
    std::uint32_t settle_ticks = 450;  ///< post-stop dwell before "done"
};

/// Per-test-case parameters downloaded into the software before a run
/// (the paper's "pressure program" is derived from mass and speed).
struct SoftwareConfig {
    std::uint32_t plateau_pressure = 0;  ///< SetValue units (0..1020 scale)
    std::uint32_t slow_pressure = 0;     ///< crawl pressure near standstill
    std::uint32_t stop_age_counts = 0;   ///< TCNT-TIC1 age that means "stopped"
    std::uint32_t taper_end_ms = 0;      ///< program taper kick-in time
    std::uint32_t emergency_ms = 0;      ///< release-everything deadline

    [[nodiscard]] static SoftwareConfig for_test_case(const TestCase& tc,
                                                      const PlantConstants& pc);
};

/// Outcome classification of one run (§4.2: the arrestment fails if the
/// aircraft is not stopped within the distance/force/retardation limits).
struct FailureReport {
    bool stopped = false;
    double final_distance_m = 0.0;
    double peak_retardation_g = 0.0;
    double peak_force_ratio = 0.0;  ///< peak force / max_retardation_force_n
    bool retardation_exceeded = false;
    bool force_exceeded = false;
    bool overran_runway = false;

    [[nodiscard]] bool failed() const noexcept {
        return retardation_exceeded || force_exceeded || overran_runway ||
               !stopped;
    }
};

/// Builds the six-module, 25-pair signal topology of the target.
[[nodiscard]] model::SystemModel make_arrestment_model();

/// The arrestment hardware: aircraft + cable + hydraulic brake. Produces
/// the sensor registers each tick and integrates the command from TOC2.
class Plant final : public runtime::Environment {
public:
    Plant(const model::SystemModel& system, const PlantConstants& pc);

    void configure(const TestCase& tc);

    void reset() override;
    void sense(runtime::SignalStore& store, runtime::Tick now) override;
    void actuate(const runtime::SignalStore& store, runtime::Tick now) override;
    [[nodiscard]] bool finished() const override;

    [[nodiscard]] bool snapshot_supported() const override { return true; }
    void save_state(runtime::StateWriter& w) const override;
    void restore_state(runtime::StateReader& r) override;

    [[nodiscard]] FailureReport failure_report() const { return report_; }
    [[nodiscard]] const PlantConstants& constants() const { return pc_; }

private:
    model::SignalId sig_pacnt_;
    model::SignalId sig_tic1_;
    model::SignalId sig_tcnt_;
    model::SignalId sig_adc_;
    model::SignalId sig_toc2_;
    PlantConstants pc_;
    TestCase tc_;

    double speed_mps_ = 0.0;
    double distance_m_ = 0.0;
    double pressure_norm_ = 0.0;
    double cmd_norm_ = 0.0;
    double pulse_accum_ = 0.0;
    std::uint32_t pacnt_ = 0;
    std::uint32_t tic1_ = 0;
    std::uint32_t tcnt_ = 0;
    std::uint32_t settle_ = 0;
    FailureReport report_;
};

class DistSModule;
class CalcModule;
class ArrestmentBatchBackend;

/// The complete target: model + software behaviours + plant, wired into
/// a Simulator. configure() re-parameterises software and plant for a
/// test case; run_arrestment() resets and runs one arrestment.
class ArrestmentSystem {
public:
    ArrestmentSystem();
    ~ArrestmentSystem();
    ArrestmentSystem(const ArrestmentSystem&) = delete;
    ArrestmentSystem& operator=(const ArrestmentSystem&) = delete;

    void configure(const TestCase& tc);
    runtime::RunResult run_arrestment();

    [[nodiscard]] runtime::Simulator& sim() { return *sim_; }
    [[nodiscard]] const runtime::Simulator& sim() const { return *sim_; }
    [[nodiscard]] const model::SystemModel& system() const { return *model_; }
    [[nodiscard]] Plant& plant() { return *plant_; }
    [[nodiscard]] const Plant& plant() const { return *plant_; }

private:
    std::unique_ptr<model::SystemModel> model_;
    std::unique_ptr<Plant> plant_;
    std::unique_ptr<runtime::Simulator> sim_;
    // Fused SoA batch kernel (DESIGN.md §9), installed on sim_; must be
    // re-parameterised alongside the modules and the plant.
    std::unique_ptr<ArrestmentBatchBackend> batch_backend_;
    // Raw views into the behaviours owned by sim_, for reconfiguration.
    DistSModule* dist_ = nullptr;
    CalcModule* calc_ = nullptr;
};

}  // namespace epea::target
