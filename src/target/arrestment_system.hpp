// The target system of the paper (§4): an aircraft arrestment plant —
// a braked cable that stops an incoming aircraft — controlled by six
// software modules (CLOCK, DIST_S, CALC, PRES_S, V_REG, PRES_A) that
// exchange thirteen signals. The software runs in a 1 ms slot schedule;
// the plant model supplies the hardware registers (PACNT, TIC1, TCNT,
// ADC) and consumes the PWM command (TOC2).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
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
[[nodiscard]] inline double max_retardation_force_n(double mass_kg, double speed_mps) {
    return mass_kg * kGravity * (1.0 + speed_mps / 30.0);
}

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

/// std::lround for 0 <= x < 2^31 without the libm call: x + 0.5
/// truncates to the same integer everywhere in that range except at
/// x = 0.5 - 2^-54, where the sum rounds up to 1.0.
[[nodiscard]] constexpr std::uint32_t round_half_up(double x) noexcept {
    return x < 0.5 ? 0U : static_cast<std::uint32_t>(x + 0.5);
}

/// The arrestment hardware: aircraft + cable + hydraulic brake. Produces
/// the sensor registers each tick and integrates the command from TOC2.
///
/// The physics is written once, as static templates over an accessor
/// `s` for the state words (`s[k]` is word k); the scalar Plant runs
/// them over its own word array, the fused lane kernel over one lane's
/// column of the SoA environment rows.
class Plant final : public runtime::Environment {
public:
    /// The mutable state: one 64-bit word per variable (doubles
    /// bit-cast, counters and flags zero-extended), in snapshot order.
    enum Word : std::size_t {
        kSpeed, kDistance, kPressure, kCmd, kPulseAccum, kPacnt, kTic1, kTcnt, kSettle,
        kStopped, kFinalDistance, kPeakRetardation, kPeakForceRatio,
        kRetardationExceeded, kForceExceeded, kOverranRunway, kWords,
    };
    /// sense() writes the sensor registers through `io.out(port, value)`
    /// in this port order.
    enum Sensor : std::size_t { kPacntPort, kTic1Port, kTcntPort, kAdcPort, kSensors };

    Plant(const model::SystemModel& system, const PlantConstants& pc);

    void configure(const TestCase& tc) { tc_ = tc; }

    void reset() override;
    void sense(runtime::SignalStore& store, runtime::Tick now) override;
    void actuate(const runtime::SignalStore& store, runtime::Tick /*now*/) override {
        actuate_words(state_, store.get(actuator_));
    }
    [[nodiscard]] bool finished() const override {
        return finished_words(state_, pc_.settle_ticks);
    }

    [[nodiscard]] bool snapshot_supported() const override { return true; }
    void save_state(runtime::StateWriter& w) const override;
    void restore_state(runtime::StateReader& r) override;

    [[nodiscard]] FailureReport failure_report() const;
    [[nodiscard]] const PlantConstants& constants() const { return pc_; }
    [[nodiscard]] const TestCase& test_case() const { return tc_; }
    /// Signals sense() writes, in Sensor port order, and the one
    /// actuate() reads.
    [[nodiscard]] std::span<const model::SignalId> sensors() const { return sensors_; }
    [[nodiscard]] model::SignalId actuator() const { return actuator_; }

    template <class S, class Io>
    static void sense_words(S& s, Io& io, const PlantConstants& pc, double mass_kg) {
        // Brake pressure follows the valve command with a first-order lag.
        double pressure = f64(s[kPressure]);
        pressure += (f64(s[kCmd]) - pressure) / pc.pressure_tau_ms;
        s[kPressure] = bits(pressure);

        double speed = f64(s[kSpeed]);
        double distance = f64(s[kDistance]);
        if (speed > 0.0) {
            const double force_n = pressure * pc.full_force_n;
            const double a = force_n / mass_kg;
            const double ratio = force_n / max_retardation_force_n(mass_kg, speed);
            s[kPeakRetardation] = bits(std::max(f64(s[kPeakRetardation]), a / kGravity));
            s[kPeakForceRatio] = bits(std::max(f64(s[kPeakForceRatio]), ratio));
            if (a > pc.retardation_limit_g * kGravity) s[kRetardationExceeded] = 1;
            if (ratio >= 1.0) s[kForceExceeded] = 1;

            speed -= a * 0.001;
            if (speed <= pc.stop_speed_mps) {
                // The cable holds the aircraft statically from here.
                speed = 0.0;
                s[kStopped] = 1;
            }
            distance += speed * 0.001;
            s[kSpeed] = bits(speed);
            s[kDistance] = bits(distance);
        } else {
            ++s[kSettle];
        }
        s[kFinalDistance] = bits(distance);
        if (distance > pc.runway_limit_m) s[kOverranRunway] = 1;

        // Cable-drum pulses into the 8-bit counter; TIC1 captures the
        // timer at the most recent pulse, TCNT free-runs at tcnt_per_ms.
        double pulse = f64(s[kPulseAccum]);
        pulse += speed * 0.001 * pc.pulses_per_m;
        auto pacnt = static_cast<std::uint32_t>(s[kPacnt]);
        auto tic1 = static_cast<std::uint32_t>(s[kTic1]);
        auto tcnt = static_cast<std::uint32_t>(s[kTcnt]);
        if (pulse >= 1.0) {
            const auto pulses = static_cast<std::uint32_t>(pulse);
            pulse -= pulses;
            pacnt = (pacnt + pulses) & 0xffU;
            tic1 = tcnt;
        }
        tcnt = (tcnt + static_cast<std::uint32_t>(pc.tcnt_per_ms)) & 0xffffU;
        s[kPulseAccum] = bits(pulse);
        s[kPacnt] = pacnt;
        s[kTic1] = tic1;
        s[kTcnt] = tcnt;

        io.out(kPacntPort, pacnt);
        io.out(kTic1Port, tic1);
        io.out(kTcntPort, tcnt);
        // The pressure tracks a command clamped to [0, 1], so the ADC
        // argument stays in round_half_up's range.
        io.out(kAdcPort, std::min<std::uint32_t>(
                             255, round_half_up(std::max(0.0, pressure) * 255.0)));
    }

    template <class S>
    static void actuate_words(S& s, std::uint32_t toc2) {
        s[kCmd] = bits(std::clamp(static_cast<double>(toc2) / 65535.0, 0.0, 1.0));
    }

    template <class S>
    [[nodiscard]] static bool finished_words(const S& s, std::uint64_t settle_ticks) {
        return s[kOverranRunway] != 0 || (s[kStopped] != 0 && s[kSettle] >= settle_ticks);
    }

private:
    [[nodiscard]] static double f64(std::uint64_t w) noexcept {
        return std::bit_cast<double>(w);
    }
    [[nodiscard]] static std::uint64_t bits(double v) noexcept {
        return std::bit_cast<std::uint64_t>(v);
    }

    std::array<model::SignalId, kSensors> sensors_;
    model::SignalId actuator_;
    PlantConstants pc_;
    TestCase tc_;
    std::array<std::uint64_t, kWords> state_{};
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
    // Fused SoA batch kernel (DESIGN.md §9), installed on sim_; it reads
    // the configuration from the modules and the plant it binds.
    std::unique_ptr<ArrestmentBatchBackend> batch_backend_;
    // Raw views into the behaviours owned by sim_, for reconfiguration.
    DistSModule* dist_ = nullptr;
    CalcModule* calc_ = nullptr;
};

}  // namespace epea::target
