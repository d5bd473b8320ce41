// Simulator — the slot-based, non-preemptive execution kernel (paper
// §4.1: "The scheduling is slot-based and non-preemptive").
//
// Tick pipeline (1 tick == 1 ms slot):
//   1. environment.sense()        — plant writes sensor registers
//   2. load frames                — every module's inputs are copied into
//                                   its invocation frame (the "stack")
//   3. injection hook             — fault injector may corrupt signals,
//                                   RAM state words or stack frames
//   4. module steps               — modules run in schedule order,
//                                   computing from their frames
//   5. monitors (EAs) observe     — executable assertions evaluate
//   6. trace recording            — golden-run comparison data
//   7. environment.actuate()      — actuator registers applied to plant
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "model/system_model.hpp"
#include "runtime/batch.hpp"
#include "runtime/environment.hpp"
#include "runtime/memory_map.hpp"
#include "runtime/module_behaviour.hpp"
#include "runtime/monitor.hpp"
#include "runtime/signal_store.hpp"
#include "runtime/snapshot.hpp"
#include "runtime/trace.hpp"
#include "runtime/types.hpp"

namespace epea::runtime {

/// Outcome of one simulated run.
struct RunResult {
    Tick ticks = 0;           ///< number of executed ticks
    bool env_finished = false;  ///< environment signalled natural completion
};

class Simulator {
public:
    /// `behaviours[i]` animates the model's module with index i; the
    /// execution order is the module declaration order. The environment
    /// must outlive the simulator.
    Simulator(const model::SystemModel& model,
              std::vector<std::unique_ptr<ModuleBehaviour>> behaviours,
              Environment& env);

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    // -- configuration ------------------------------------------------------

    using InjectionHook = std::function<void(Simulator&, Tick)>;

    /// Called once per tick after the environment wrote the sensor
    /// registers but before frames are loaded — the place to corrupt
    /// *signals* so that every consumer (and the trace) sees the error.
    void set_pre_frame_hook(InjectionHook hook) { pre_frame_hook_ = std::move(hook); }

    /// Called once per tick after frames are loaded, before module steps —
    /// the place to corrupt RAM state words and stack frames.
    void set_injection_hook(InjectionHook hook) { hook_ = std::move(hook); }

    /// Monitors are observed after module steps each tick. Not owned.
    void add_monitor(SignalMonitor* monitor) { monitors_.push_back(monitor); }
    void clear_monitors() { monitors_.clear(); }

    /// Recoverers run after monitors each tick and may repair signals
    /// before the environment consumes them. Not owned.
    void add_recoverer(SignalRecoverer* recoverer) { recoverers_.push_back(recoverer); }
    void clear_recoverers() { recoverers_.clear(); }

    [[nodiscard]] const std::vector<SignalMonitor*>& monitors() const noexcept {
        return monitors_;
    }
    [[nodiscard]] const std::vector<SignalRecoverer*>& recoverers() const noexcept {
        return recoverers_;
    }

    /// Fused batch backend for this target (DESIGN.md §9); not owned,
    /// null when the target provides none (the batch engine then falls
    /// back to the target-agnostic ScalarLaneBackend).
    void set_batch_backend(BatchBackend* backend) noexcept { batch_backend_ = backend; }
    [[nodiscard]] BatchBackend* batch_backend() const noexcept { return batch_backend_; }

    /// Enables/disables full trace recording (off by default; the severe
    /// error-model campaign does not need traces).
    void enable_trace(bool on);

    // -- execution ----------------------------------------------------------

    /// Restores signals, frames, module state, monitors, the environment
    /// and the trace; time returns to 0.
    void reset();

    /// Runs until the environment finishes or `max_ticks` elapse.
    RunResult run(Tick max_ticks);

    /// Executes exactly one tick (exposed for fine-grained tests).
    void step_tick();

    /// One tick with explicit bit flips applied at their pipeline points
    /// (signals before frame load, frames/memory after) — the batch
    /// engine's launch path. The installed injector hooks still run (a
    /// disarmed injector is a no-op), so this composes with, rather than
    /// replaces, the scalar injection plumbing.
    void step_tick(std::span<const BatchFlip> flips);

    // -- snapshots (injection engine, DESIGN.md §9) --------------------------

    /// True when every mutable-state holder round-trips through the
    /// snapshot API. Gated on the environment's opt-in: a custom test
    /// environment without snapshot support silently forces replay.
    [[nodiscard]] bool snapshot_supported() const { return env_->snapshot_supported(); }

    /// Captures the complete mutable state into `out` (cleared first,
    /// capacity reused). Valid only at a tick boundary (between ticks).
    void capture_snapshot(Snapshot& out) const;

    /// Restores a state previously captured from a simulator with the
    /// identical model/behaviour layout; now() becomes snap.tick. The
    /// trace is left untouched — it is history, not state.
    void restore_snapshot(const Snapshot& snap);

    // -- access -------------------------------------------------------------

    [[nodiscard]] const model::SystemModel& system() const noexcept { return *model_; }
    [[nodiscard]] SignalStore& signals() noexcept { return store_; }
    [[nodiscard]] const SignalStore& signals() const noexcept { return store_; }
    [[nodiscard]] MemoryMap& memory() noexcept { return memory_; }
    [[nodiscard]] const MemoryMap& memory() const noexcept { return memory_; }
    [[nodiscard]] Tick now() const noexcept { return now_; }
    [[nodiscard]] const Trace* trace() const noexcept { return trace_.get(); }
    [[nodiscard]] Trace* trace() noexcept { return trace_.get(); }
    [[nodiscard]] Environment& environment() noexcept { return *env_; }
    [[nodiscard]] const ModuleBehaviour& behaviour(model::ModuleId id) const {
        return *behaviours_.at(id.index());
    }

    /// Direct access to a module's frame words (used by tests and by the
    /// fault injector via MemoryMap; the frame is registered there too).
    [[nodiscard]] std::span<std::uint32_t> frame(model::ModuleId id) noexcept {
        return frames_[id.index()].words;
    }

private:
    struct Frame {
        std::vector<std::uint32_t> words;     // one per input port
        std::vector<std::uint8_t> widths;     // matching signal widths
        std::vector<model::SignalId> inputs;  // signal bound to each port
        std::vector<model::SignalId> outputs;  // signals the module writes
    };

    void load_frames() noexcept;

    const model::SystemModel* model_;
    std::vector<std::unique_ptr<ModuleBehaviour>> behaviours_;
    Environment* env_;
    SignalStore store_;
    MemoryMap memory_;
    std::vector<Frame> frames_;
    InjectionHook pre_frame_hook_;
    InjectionHook hook_;
    std::vector<SignalMonitor*> monitors_;
    std::vector<SignalRecoverer*> recoverers_;
    std::unique_ptr<Trace> trace_;
    BatchBackend* batch_backend_ = nullptr;
    Tick now_ = 0;
};

}  // namespace epea::runtime
