// Injector — arms a simulator with an injection plan and executes the
// flips at the right pipeline points (signals before frame load, frames
// and memory words after).
#pragma once

#include <vector>

#include "fi/injection.hpp"
#include "runtime/simulator.hpp"
#include "util/rng.hpp"

namespace epea::fi {

/// Throws std::invalid_argument when `inj` targets a signal, module,
/// input port or memory word that `sim` does not have. Injector::arm and
/// BatchRunner::submit check every plan with it.
void check_target(const runtime::Simulator& sim, const Injection& inj);

/// Width of the word `inj` flips in `sim` — the bound of its kRandomBit
/// draws. `inj` must pass check_target.
[[nodiscard]] unsigned flip_width(const runtime::Simulator& sim, const Injection& inj);

class Injector {
public:
    /// Installs this injector's hooks on `sim` (replacing earlier hooks).
    /// At most one injector may be installed on a simulator at a time;
    /// the destructor uninstalls the hooks.
    explicit Injector(runtime::Simulator& sim);
    ~Injector();

    Injector(const Injector&) = delete;
    Injector& operator=(const Injector&) = delete;

    /// Sets the plan for the next run; call sim.reset() afterwards as
    /// usual. `seed` drives kRandomBit selections. Throws
    /// std::invalid_argument, leaving the plan unchanged, when a plan
    /// entry fails check_target.
    void arm(std::vector<Injection> plan, std::uint64_t seed = 1);

    /// Clears the plan (subsequent runs are fault-free).
    void disarm();

    /// Number of flips that actually executed during the current/last run.
    [[nodiscard]] std::size_t fired_count() const noexcept { return fired_; }

    /// Tick of the first executed flip (kInvalidTick if none fired).
    [[nodiscard]] runtime::Tick first_fire_tick() const noexcept { return first_fire_; }

private:
    void pre_frame(runtime::Simulator& sim, runtime::Tick now);
    void post_frame(runtime::Simulator& sim, runtime::Tick now);
    [[nodiscard]] bool due(const Injection& inj, runtime::Tick now) const noexcept;
    void mark_fired(runtime::Tick now) noexcept;
    [[nodiscard]] unsigned pick_bit(const Injection& inj);

    runtime::Simulator* sim_;
    std::vector<Injection> plan_;
    util::Rng rng_;
    std::size_t fired_ = 0;
    runtime::Tick first_fire_ = runtime::kInvalidTick;
    runtime::Tick last_reset_observed_ = 0;
};

}  // namespace epea::fi
