// Executable Assertions (EAs) — the error detection mechanisms of the
// paper: generic, parameterized acceptance tests on individual signals
// (Hiller, "Executable Assertions for Detecting Data Errors in Embedded
// Control Systems", DSN 2000 — reference [7]).
//
// Three EA types cover the signal classes the paper guards:
//   continuous — bounds + max rate of change (up/down)
//   monotonic  — non-decreasing + bounded increment + lower bound
//   discrete   — value membership + allowed transitions
// There is deliberately no boolean EA: the paper notes its chosen EAs are
// "not geared at boolean values" (Table 2 motivation for slow_speed).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "model/ids.hpp"
#include "runtime/monitor.hpp"

namespace epea::ea {

enum class EaType : std::uint8_t { kContinuous, kMonotonic, kDiscrete };

[[nodiscard]] constexpr const char* to_string(EaType t) noexcept {
    switch (t) {
        case EaType::kContinuous: return "continuous";
        case EaType::kMonotonic: return "monotonic";
        case EaType::kDiscrete: return "discrete";
    }
    return "?";
}

/// ROM/RAM footprint of one EA instance in bytes. The per-type constants
/// reproduce the footprints reported in Table 3 of the paper (which in
/// turn come from the implementation in [7]): ROM holds the constant
/// parameters defining allowed behaviour, RAM the run-time data.
struct EaCost {
    std::uint32_t rom = 0;
    std::uint32_t ram = 0;

    friend constexpr EaCost operator+(EaCost a, EaCost b) noexcept {
        return EaCost{a.rom + b.rom, a.ram + b.ram};
    }
};

[[nodiscard]] constexpr EaCost cost_of(EaType t) noexcept {
    switch (t) {
        case EaType::kContinuous: return EaCost{50, 14};  // EA1/EA2/EA7
        case EaType::kMonotonic: return EaCost{25, 13};   // EA3/EA4/EA6
        case EaType::kDiscrete: return EaCost{37, 13};    // EA5
    }
    return EaCost{};
}

/// Worst-case comparisons per violates() evaluation, the execution-time
/// half of the placement cost model (the paper reports memory in Table 3;
/// time overhead scales with the per-tick check count). Continuous: two
/// bound checks, two rate checks and the two settled-band checks;
/// monotonic: floor, direction and increment; discrete: membership plus
/// transition lookup (counted with their mask extractions).
[[nodiscard]] constexpr std::uint32_t check_cycles_of(EaType t) noexcept {
    switch (t) {
        case EaType::kContinuous: return 6;
        case EaType::kMonotonic: return 3;
        case EaType::kDiscrete: return 4;
    }
    return 0;
}

/// Allowed-behaviour parameters of one EA (the EA's "ROM contents").
struct EaParams {
    EaType type = EaType::kContinuous;

    // continuous
    std::int64_t min = 0;
    std::int64_t max = 0;
    std::int64_t max_rate_up = 0;
    std::int64_t max_rate_down = 0;
    /// Mode awareness (cf. the per-phase constraints of the EAs in [7]):
    /// from `settle_tick` on, the signal must stay inside the tighter
    /// steady-state band [settled_min, settled_max].
    std::uint32_t settle_tick = 0xffffffffU;  ///< disabled by default
    std::int64_t settled_min = 0;
    std::int64_t settled_max = 0;

    // monotonic
    std::int64_t floor = 0;          ///< lower bound
    std::int64_t max_increment = 0;  ///< per-tick growth bound

    // discrete (domain limited to values 0..31, enough for enumerations
    // like the 10-valued scheduler slot number)
    std::uint32_t member_mask = 0;  ///< bit v set => value v allowed
    std::array<std::uint32_t, 32> transition_mask{};  ///< [from] bit to

    static constexpr std::uint32_t kDiscreteDomain = 32;
};

/// The rule of EA type `T` for one consecutive value pair — the one
/// definition of the EA checks, run by violates() and the fused lane
/// kernel. `now` drives the continuous EA's steady-state band.
template <EaType T>
[[nodiscard]] inline bool violates_as(const EaParams& p, std::int64_t previous,
                                      std::int64_t current, bool have_previous,
                                      runtime::Tick now) noexcept {
    if constexpr (T == EaType::kContinuous) {
        if (current < p.min || current > p.max) return true;
        if (now >= p.settle_tick && (current < p.settled_min || current > p.settled_max)) {
            return true;
        }
        if (!have_previous) return false;
        const std::int64_t delta = current - previous;
        return delta > p.max_rate_up || -delta > p.max_rate_down;
    } else if constexpr (T == EaType::kMonotonic) {
        if (current < p.floor) return true;
        if (!have_previous) return false;
        if (current < previous) return true;  // must not decrease
        return current - previous > p.max_increment;
    } else {
        if (current < 0 || current >= EaParams::kDiscreteDomain) return true;
        if ((p.member_mask & (1U << current)) == 0) return true;
        if (!have_previous) return false;
        if (previous < 0 || previous >= EaParams::kDiscreteDomain) return true;
        return (p.transition_mask[static_cast<std::size_t>(previous)] &
                (1U << current)) == 0;
    }
}

/// One armed executable assertion guarding one signal. Implements the
/// runtime monitor interface; evaluation happens after every tick.
class ExecutableAssertion final : public runtime::SignalMonitor {
public:
    ExecutableAssertion(std::string name, model::SignalId signal, EaParams params)
        : name_(std::move(name)), signal_(signal), params_(params) {}

    // runtime::SignalMonitor
    void reset() override;
    void observe(const runtime::SignalStore& store, runtime::Tick now) override;

    void save_state(runtime::StateWriter& w) const override {
        w.i64(last_value_);
        w.boolean(have_last_);
        w.tick(first_detection_);
        w.u64(violations_);
    }

    void restore_state(runtime::StateReader& r) override {
        last_value_ = r.i64();
        have_last_ = r.boolean();
        first_detection_ = r.tick();
        violations_ = static_cast<std::size_t>(r.u64());
    }

    /// True if the assertion has fired at least once since reset().
    [[nodiscard]] bool triggered() const noexcept {
        return first_detection_ != runtime::kInvalidTick;
    }
    [[nodiscard]] runtime::Tick first_detection() const noexcept {
        return first_detection_;
    }
    [[nodiscard]] std::size_t violation_count() const noexcept { return violations_; }

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] model::SignalId signal() const noexcept { return signal_; }
    [[nodiscard]] const EaParams& params() const noexcept { return params_; }
    [[nodiscard]] EaCost cost() const noexcept { return cost_of(params_.type); }

    void set_params(const EaParams& params) noexcept { params_ = params; }

    /// Pure check of one consecutive value pair: violates_as for `p.type`.
    [[nodiscard]] static bool violates(const EaParams& p, std::int64_t prev,
                                       std::int64_t cur, bool have,
                                       runtime::Tick now = 0) noexcept {
        using enum EaType;
        switch (p.type) {
            case kContinuous: return violates_as<kContinuous>(p, prev, cur, have, now);
            case kMonotonic: return violates_as<kMonotonic>(p, prev, cur, have, now);
            case kDiscrete: return violates_as<kDiscrete>(p, prev, cur, have, now);
        }
        return false;
    }

private:
    std::string name_;
    model::SignalId signal_;
    EaParams params_;
    std::int64_t last_value_ = 0;
    bool have_last_ = false;
    runtime::Tick first_detection_ = runtime::kInvalidTick;
    std::size_t violations_ = 0;
};

}  // namespace epea::ea
