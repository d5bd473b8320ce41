// Stage ledger (DESIGN.md §9, "Stage ledger"): cycle counters for the
// stages of the batched injection path — the runner's fork/launch,
// kernel step, scan, retire and merge check, and inside the fused
// kernel's step its plant, launch, frame-load, module, EA, actuate and
// materialize stages.
//
// Compiled in by the CMake option EPEA_STAGE_LEDGER (default OFF, no
// runtime knob); off, every call below is empty and inlines away. On,
// each thread accumulates into its own ledger and fi::BatchRunner::flush
// publishes it to the obs registry as `fi.stage_cycles.<stage>` counters
// (Prometheus `fi_stage_cycles_<stage>`), so a stage and its metric name
// the same thing. `fi.stage_cycles.runner` is the flushes' own total,
// against which the runner stages are checked to add up.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#ifndef EPEA_STAGE_LEDGER
#define EPEA_STAGE_LEDGER 0
#endif

#if EPEA_STAGE_LEDGER
#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif
#endif

namespace epea::obs {

inline constexpr bool kStageLedger = EPEA_STAGE_LEDGER != 0;

enum class Stage : std::size_t {
    // fi::BatchRunner sweeps.
    kForkLaunch,
    kKernelStep,
    kScan,
    kRetire,
    kMergeCheck,
    // The fused kernel's step, inside kKernelStep.
    kPlantSense,
    kLaunches,
    kFrameLoads,
    kClock,
    kDistS,
    kCalc,
    kPresS,
    kVReg,
    kPresA,
    kEas,
    kActuate,
    kMaterialize,
    kCount,
};

inline constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount);

/// Metric-name suffix of each stage, in Stage order.
inline constexpr std::array<const char*, kStageCount> kStageNames = {
    "fork_launch", "kernel_step", "scan",  "retire", "merge_check", "plant_sense",
    "launches",    "frame_loads", "clock", "dist_s", "calc",        "pres_s",
    "v_reg",       "pres_a",      "eas",   "actuate", "materialize",
};

struct StageLedger {
    std::array<std::uint64_t, kStageCount> cycles{};
    std::uint64_t runner_cycles = 0;        ///< whole flushes
    std::uint64_t follower_lane_ticks = 0;  ///< lane-ticks whose plant followed golden
};

/// This thread's ledger.
[[nodiscard]] inline StageLedger& stage_ledger() noexcept {
    thread_local StageLedger ledger;
    return ledger;
}

/// Cycle counter: rdtsc on x86, steady-clock nanoseconds elsewhere.
[[nodiscard]] inline std::uint64_t ledger_clock() noexcept {
#if EPEA_STAGE_LEDGER
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
#else
    return 0;
#endif
}

/// Charges the cycles since the previous lap (or construction) to a
/// stage: one clock read per stage boundary, so consecutive stages add
/// up to the span they cover.
class StageClock {
public:
    StageClock() noexcept {
        if constexpr (kStageLedger) last_ = ledger_clock();
    }
    void lap(Stage stage) noexcept {
        if constexpr (kStageLedger) {
            const std::uint64_t t = ledger_clock();
            stage_ledger().cycles[static_cast<std::size_t>(stage)] += t - last_;
            last_ = t;
        } else {
            (void)stage;
        }
    }

private:
    std::uint64_t last_ = 0;
};

/// Adds this thread's ledger to the registry counters and zeroes it.
void publish_stage_ledger();

}  // namespace epea::obs
