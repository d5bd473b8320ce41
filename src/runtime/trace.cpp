#include "runtime/trace.hpp"

#include <algorithm>

namespace epea::runtime {

void Trace::record(const SignalStore& store) {
    for (std::size_t s = 0; s < per_signal_.size(); ++s) {
        per_signal_[s].push_back(store.get(model::SignalId{static_cast<std::uint32_t>(s)}));
    }
}

std::optional<Tick> Trace::first_difference(const Trace& other, model::SignalId id,
                                            bool include_length_mismatch) const {
    const auto& a = per_signal_.at(id.index());
    const auto& b = other.per_signal_.at(id.index());
    const std::size_t common = std::min(a.size(), b.size());
    for (std::size_t t = 0; t < common; ++t) {
        if (a[t] != b[t]) return static_cast<Tick>(t);
    }
    if (include_length_mismatch && a.size() != b.size()) {
        return static_cast<Tick>(common);
    }
    return std::nullopt;
}

void Trace::clear() {
    for (auto& s : per_signal_) s.clear();
}

void Trace::reserve(Tick ticks) {
    for (auto& s : per_signal_) s.reserve(ticks);
}

}  // namespace epea::runtime
