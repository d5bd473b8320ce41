// Snapshot — a value-typed capture of every mutable word of a running
// Simulator: the signal store, all registered memory words (RAM state and
// stack frames), extra behaviour state, the environment/plant, and the
// monitor/recoverer state. Snapshots power the injection engine
// (DESIGN.md §9): an injection run forks from the golden run's boundary
// snapshot at the injection tick instead of replaying from tick 0, and a
// run whose state re-converges with the golden run is pruned early.
//
// Snapshots are plain values: they can be captured from one Simulator
// instance and restored into another with the identical model/behaviour
// layout (campaign workers each own a private system instance).
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "runtime/types.hpp"

namespace epea::runtime {

/// Serialization sink for behaviour/environment/monitor extra state. All
/// values are widened to 64-bit words; doubles are bit-cast so the round
/// trip is exact.
class StateWriter {
public:
    explicit StateWriter(std::vector<std::uint64_t>& out) noexcept : out_(&out) {}

    void u32(std::uint32_t v) { out_->push_back(v); }
    void u64(std::uint64_t v) { out_->push_back(v); }
    void i64(std::int64_t v) { out_->push_back(static_cast<std::uint64_t>(v)); }
    void f64(double v) { out_->push_back(std::bit_cast<std::uint64_t>(v)); }
    void boolean(bool v) { out_->push_back(v ? 1U : 0U); }
    void tick(Tick t) { out_->push_back(t); }

private:
    std::vector<std::uint64_t>* out_;
};

/// Matching source; reads must mirror the writes exactly. Throws on
/// underrun so layout drift between save_state and restore_state is a
/// loud error, not silent corruption.
class StateReader {
public:
    explicit StateReader(const std::vector<std::uint64_t>& in) noexcept : in_(&in) {}

    [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(next()); }
    [[nodiscard]] std::uint64_t u64() { return next(); }
    [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(next()); }
    [[nodiscard]] double f64() { return std::bit_cast<double>(next()); }
    [[nodiscard]] bool boolean() { return next() != 0; }
    [[nodiscard]] Tick tick() { return static_cast<Tick>(next()); }

    [[nodiscard]] bool exhausted() const noexcept { return pos_ == in_->size(); }

private:
    std::uint64_t next() {
        if (pos_ >= in_->size()) {
            throw std::runtime_error("StateReader: restore_state read past save_state data");
        }
        return (*in_)[pos_++];
    }

    const std::vector<std::uint64_t>* in_;
    std::size_t pos_ = 0;
};

/// Full mutable state of a Simulator at a tick boundary (now() == tick,
/// i.e. after `tick` completed ticks).
struct Snapshot {
    Tick tick = 0;
    std::vector<std::uint32_t> signals;      ///< SignalStore values, by SignalId
    std::vector<std::uint32_t> memory;       ///< every MemoryMap word (RAM + stack frames)
    std::vector<std::uint64_t> behaviours;   ///< ModuleBehaviour::save_state stream
    std::vector<std::uint64_t> environment;  ///< Environment::save_state stream
    std::vector<std::uint64_t> monitors;     ///< SignalMonitor::save_state stream
    std::vector<std::uint64_t> recoverers;   ///< SignalRecoverer::save_state stream

    /// Empties all sections but keeps capacity (per-tick capture reuse).
    void clear() noexcept {
        tick = 0;
        signals.clear();
        memory.clear();
        behaviours.clear();
        environment.clear();
        monitors.clear();
        recoverers.clear();
    }

    /// Bit-exact state equality, `tick` excluded: two runs at the same
    /// tick are convergent iff every mutable word matches.
    [[nodiscard]] bool same_state(const Snapshot& o) const noexcept {
        return signals == o.signals && memory == o.memory && behaviours == o.behaviours &&
               environment == o.environment && monitors == o.monitors &&
               recoverers == o.recoverers;
    }

    /// 64-bit digest of all sections (splitmix64 mixing, section lengths
    /// included). Used as a prefilter for convergence pruning only —
    /// equality is always confirmed with same_state() before a run is
    /// pruned, so a hash collision can cost time but never correctness.
    [[nodiscard]] std::uint64_t state_hash() const noexcept;

    [[nodiscard]] std::size_t approx_bytes() const noexcept {
        return signals.capacity() * sizeof(std::uint32_t) +
               memory.capacity() * sizeof(std::uint32_t) +
               (behaviours.capacity() + environment.capacity() + monitors.capacity() +
                recoverers.capacity()) *
                   sizeof(std::uint64_t) +
               sizeof(Snapshot);
    }
};

}  // namespace epea::runtime
