#include "runtime/batch.hpp"

#include <cstring>
#include <stdexcept>

#include "runtime/simulator.hpp"

namespace epea::runtime {

namespace {

template <typename T>
void swap_columns(std::vector<T>& data, std::size_t words, std::size_t width,
                  std::size_t a, std::size_t b) noexcept {
    for (std::size_t w = 0; w < words; ++w) {
        std::swap(data[w * width + a], data[w * width + b]);
    }
}

template <typename T>
void gather_column(const std::vector<T>& data, std::size_t words, std::size_t width,
                   std::size_t lane, std::vector<T>& out) {
    out.resize(words);
    for (std::size_t w = 0; w < words; ++w) out[w] = data[w * width + lane];
}

template <typename T>
void scatter_column(std::vector<T>& data, std::size_t width, std::size_t lane,
                    const std::vector<T>& in) noexcept {
    for (std::size_t w = 0; w < in.size(); ++w) data[w * width + lane] = in[w];
}

template <typename T>
[[nodiscard]] bool column_equals(const std::vector<T>& data, std::size_t width,
                                 std::size_t lane, const std::vector<T>& ref) noexcept {
    for (std::size_t w = 0; w < ref.size(); ++w) {
        if (data[w * width + lane] != ref[w]) return false;
    }
    return true;
}

template <typename T>
[[nodiscard]] bool columns_equal(const std::vector<T>& data, std::size_t words,
                                 std::size_t width, std::size_t a, std::size_t b) noexcept {
    for (std::size_t w = 0; w < words; ++w) {
        if (data[w * width + a] != data[w * width + b]) return false;
    }
    return true;
}

}  // namespace

void BatchState::reset(const SnapshotLayout& layout, std::size_t width) {
    layout_ = layout;
    width_ = width;
    live_ = 0;
    signals_.assign(layout.signals * width, 0);
    memory_.assign(layout.memory * width, 0);
    behaviours_.assign(layout.behaviours * width, 0);
    environment_.assign(layout.environment * width, 0);
    monitors_.assign(layout.monitors * width, 0);
    recoverers_.assign(layout.recoverers * width, 0);
    launching_.assign(width, 0);
    finished_.assign(width, 0);
    flips_.assign(width, BatchFlip{});
    launch_count_ = 0;
    golden_rows_.clear();
    golden_length_ = 0;
    follow_ = false;
    followers_ = 0;
    follows_.assign(width, 0);
    reference_.assign(layout.environment, 0);
}

std::size_t BatchState::activate(const Snapshot& boundary) {
    if (live_ >= width_) {
        throw std::runtime_error("BatchState: activate beyond batch width");
    }
    if (!layout_.matches(boundary)) {
        throw std::runtime_error("BatchState: snapshot layout does not match batch");
    }
    const std::size_t lane = live_++;
    load_lane(lane, boundary);
    launching_[lane] = 0;
    finished_[lane] = 0;
    if (follow_) {
        if (followers_ == 0) reference_ = boundary.environment;
        follows_[lane] = 1;
        ++followers_;
    }
    return lane;
}

void BatchState::stop_following(std::size_t lane) noexcept {
    scatter_column(environment_, width_, lane, reference_);
    follows_[lane] = 0;
    --followers_;
}

std::size_t BatchState::retire(std::size_t lane) {
    const std::size_t last = --live_;
    if (launching_[lane] != 0) --launch_count_;
    if (follows_[lane] != 0) --followers_;
    if (lane != last) {
        swap_columns(signals_, layout_.signals, width_, lane, last);
        swap_columns(memory_, layout_.memory, width_, lane, last);
        swap_columns(behaviours_, layout_.behaviours, width_, lane, last);
        swap_columns(environment_, layout_.environment, width_, lane, last);
        swap_columns(monitors_, layout_.monitors, width_, lane, last);
        swap_columns(recoverers_, layout_.recoverers, width_, lane, last);
        std::swap(launching_[lane], launching_[last]);
        std::swap(finished_[lane], finished_[last]);
        std::swap(flips_[lane], flips_[last]);
        follows_[lane] = follows_[last];
    }
    launching_[last] = 0;
    follows_[last] = 0;
    return last;
}

void BatchState::assemble(std::size_t lane, Snapshot& out) const {
    gather_column(signals_, layout_.signals, width_, lane, out.signals);
    gather_column(memory_, layout_.memory, width_, lane, out.memory);
    gather_column(behaviours_, layout_.behaviours, width_, lane, out.behaviours);
    extract_environment(lane, out.environment);
    gather_column(monitors_, layout_.monitors, width_, lane, out.monitors);
    gather_column(recoverers_, layout_.recoverers, width_, lane, out.recoverers);
}

void BatchState::load_lane(std::size_t lane, const Snapshot& snap) {
    if (follows_[lane] != 0) {
        follows_[lane] = 0;
        --followers_;
    }
    scatter_column(signals_, width_, lane, snap.signals);
    scatter_column(memory_, width_, lane, snap.memory);
    scatter_column(behaviours_, width_, lane, snap.behaviours);
    scatter_column(environment_, width_, lane, snap.environment);
    scatter_column(monitors_, width_, lane, snap.monitors);
    scatter_column(recoverers_, width_, lane, snap.recoverers);
}

bool BatchState::lane_equals(std::size_t lane, const Snapshot& snap) const noexcept {
    return column_equals(signals_, width_, lane, snap.signals) &&
           column_equals(memory_, width_, lane, snap.memory) &&
           column_equals(behaviours_, width_, lane, snap.behaviours) &&
           (follows_[lane] != 0 ? reference_ == snap.environment
                                : column_equals(environment_, width_, lane, snap.environment)) &&
           column_equals(monitors_, width_, lane, snap.monitors) &&
           column_equals(recoverers_, width_, lane, snap.recoverers);
}

bool BatchState::lanes_equal(std::size_t a, std::size_t b) const noexcept {
    // Two followers hold the same words, the column's.
    const auto environments_equal = [&] {
        if (follows_[a] != 0 && follows_[b] != 0) return true;
        if (follows_[a] != 0) return column_equals(environment_, width_, b, reference_);
        if (follows_[b] != 0) return column_equals(environment_, width_, a, reference_);
        return columns_equal(environment_, layout_.environment, width_, a, b);
    };
    return columns_equal(signals_, layout_.signals, width_, a, b) &&
           columns_equal(memory_, layout_.memory, width_, a, b) &&
           columns_equal(behaviours_, layout_.behaviours, width_, a, b) &&
           environments_equal() &&
           columns_equal(monitors_, layout_.monitors, width_, a, b) &&
           columns_equal(recoverers_, layout_.recoverers, width_, a, b);
}

void BatchState::extract_monitors(std::size_t lane, std::vector<std::uint64_t>& out) const {
    gather_column(monitors_, layout_.monitors, width_, lane, out);
}

void BatchState::extract_environment(std::size_t lane, std::vector<std::uint64_t>& out) const {
    if (follows_[lane] != 0) {
        out.assign(reference_.begin(), reference_.end());
    } else {
        gather_column(environment_, layout_.environment, width_, lane, out);
    }
}

bool ScalarLaneBackend::begin(BatchState&) { return sim_->snapshot_supported(); }

void ScalarLaneBackend::step(BatchState& state, Tick now) {
    for (std::size_t lane = 0; lane < state.live(); ++lane) {
        state.assemble(lane, scratch_);
        scratch_.tick = now;
        sim_->restore_snapshot(scratch_);
        if (state.launching(lane)) {
            const BatchFlip flip = state.flip(lane);
            sim_->step_tick({&flip, 1});
        } else {
            sim_->step_tick(std::span<const BatchFlip>{});
        }
        sim_->capture_snapshot(scratch_);
        state.load_lane(lane, scratch_);
        state.set_finished(lane, sim_->environment().finished());
    }
}

}  // namespace epea::runtime
