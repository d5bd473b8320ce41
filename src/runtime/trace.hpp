// Trace recording — per-signal value histories used by the golden-run
// comparison of the fault-injection engine (paper §5.3).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "model/system_model.hpp"
#include "runtime/signal_store.hpp"
#include "runtime/types.hpp"

namespace epea::runtime {

/// A complete per-signal value history of one run. Index with
/// [signal][tick]. Ticks are sampled after all modules have executed.
class Trace {
public:
    explicit Trace(std::size_t signal_count) : per_signal_(signal_count) {}

    void record(const SignalStore& store);

    [[nodiscard]] std::size_t signal_count() const noexcept { return per_signal_.size(); }
    [[nodiscard]] Tick length() const noexcept {
        return per_signal_.empty() ? 0
                                   : static_cast<Tick>(per_signal_.front().size());
    }

    [[nodiscard]] const std::vector<std::uint32_t>& series(model::SignalId id) const {
        return per_signal_.at(id.index());
    }

    [[nodiscard]] std::uint32_t at(model::SignalId id, Tick t) const {
        return per_signal_.at(id.index()).at(t);
    }

    /// First tick at which this trace differs from `other` on `id`.
    /// With `include_length_mismatch` (the default), ticks beyond the
    /// shorter trace count as differences — a run that ends earlier or
    /// later than its golden run has observably diverged. Attribution
    /// logic passes false to compare values over the common prefix only.
    [[nodiscard]] std::optional<Tick> first_difference(
        const Trace& other, model::SignalId id,
        bool include_length_mismatch = true) const;

    /// Replaces one signal's history (e.g. to keep a subset of a trace).
    void set_series(model::SignalId id, std::vector<std::uint32_t> values) {
        per_signal_.at(id.index()) = std::move(values);
    }

    void clear();
    void reserve(Tick ticks);

private:
    std::vector<std::vector<std::uint32_t>> per_signal_;
};

}  // namespace epea::runtime
